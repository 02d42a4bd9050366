import os
import subprocess
import sys
from pathlib import Path

import wavescope


def test_import_leaves_heavy_scipy_modules_out():
    # scipy.stats and scipy.signal dominate the import time; the package
    # needs neither until a bouncing-ball series is generated.
    code = (
        "import sys, wavescope; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))"
    )
    src = str(Path(wavescope.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"

"""Fixtures shared by the test modules."""

import json
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import wavescope

#: What ``fresh_python`` returns: the child's output, and how much its
#: peak RSS (KiB) and ``ru_minflt`` grew while ``code`` ran.
FreshRun = namedtuple("FreshRun", "stdout stderr maxrss_kib minflt")

# Runs argv[1] (the set-up), then argv[2] between two readings, and writes
# the growth as the last line of stderr, also on SystemExit.  Linux carries
# the RSS high-water mark of the process that started the child across
# exec into its ru_maxrss, so the child's own peak is read as VmHWM where
# /proc has it.
_PROGRAM = """\
import json, resource, sys

def _peak_kib():
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

exec(compile(sys.argv[1], "<setup>", "exec"))
_before = _peak_kib(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
try:
    exec(compile(sys.argv[2], "<code>", "exec"))
finally:
    _after = _peak_kib(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sys.stderr.write("\\n" + json.dumps([_after[0] - _before[0], _after[1] - _before[1]]))
"""


def _fresh_python(code: str, setup: str = "") -> FreshRun:
    """Run ``setup`` and then ``code`` in a new interpreter on this
    checkout's package; a non-zero exit fails the test."""
    src = str(Path(wavescope.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM, setup, code],
        capture_output=True, text=True, check=True, env=env,
    )
    stderr, _, growth = proc.stderr.rpartition("\n")
    return FreshRun(proc.stdout, stderr, *json.loads(growth))


@pytest.fixture
def fresh_python():
    """``fresh_python(code, setup="")``: see _fresh_python."""
    return _fresh_python

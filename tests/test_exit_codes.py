"""The exit-code contract of ``wavescope run`` on generated configs.

Every config is built from the declared params (``_INPUT_PARAMS``,
``_SYNTH_PARAMS``, ``_STAGE_PARAMS``, ``_FORMATS``), with each value drawn
across its declared type, huge and negative integers included, and now
and then just outside it: another type, NaN or an infinity, an unknown
choice.  Every run must exit 0, 2, 3 or 4 with no traceback; exit 2
leaves no output directory, and exit 3 leaves the failing stage's
``<stage>.failed``.  The inputs stay small (n <= 2^10), so the property
costs about a second.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavescope.cli import (
    _FORMATS, _INPUT_PARAMS, _REQUIRED, _RUN_SEED, _STAGE_PARAMS, _SYNTH_PARAMS, main,
)
from wavescope.signal_core import write_csv
from wavescope.synth import gen_fbm

MAX_N = 2**10

#: JSON values of every type and the non-finite floats; those a param
#: does not accept are its values just outside its declaration.
_ANY_VALUE = st.sampled_from(
    ["x", "", "bogus", True, False, None, [], {}, 1.5, -2, 0, [1.0, 2.0, 3.0]]
    + [float("nan"), float("inf"), float("-inf")]
)

_FLOAT = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-20.0, 20.0),
    st.sampled_from([0.0, 1e-300, 1e300, -1e300]),
)
_INT = st.one_of(st.integers(-3, 40), st.sampled_from([2**31, 10**20, -(10**20)]))
_RATE = st.floats(0.0, 100.0)

#: Synthetic-input params drawn over their generator's range and its
#: edges, and the params that set an input's length drawn so that the
#: input stays small (a bounce render of at most 8 impacts at these rates
#: is a few hundred samples long).
_SYNTH_VALUES = {
    "fbm": {
        "hurst": st.floats(0.0, 1.0),
        "n": st.sampled_from([512, 1024, 256, 255, 8, 0, -1]),
        "sample_rate": _RATE,
    },
    "powerlaw": {
        "beta": st.floats(-1.0, 9.0),
        "n": st.sampled_from([512, 1024, 64, 8, 9, 7, 0, -1]),
        "sample_rate": _RATE,
    },
    "sines": {
        "components": st.lists(
            st.tuples(st.floats(-1.0, 50.0), _FLOAT, _FLOAT).map(list), min_size=1, max_size=3
        ),
        "sample_rate": _RATE,
        "n": st.one_of(st.integers(2, MAX_N), st.sampled_from([-1, 0, 1])),
    },
    "cascade": {"a": st.floats(0.4, 1.0), "levels": st.integers(-1, 10)},
    "bounce": {
        "amplitude": st.floats(-1.0, 10.0),
        "drive_freq": st.one_of(st.floats(1.0, 50.0), st.sampled_from([0.0, -1.0])),
        "restitution": st.floats(-0.5, 0.95),
        "n_impacts": st.integers(-1, 8),
        "sample_rate": st.one_of(st.none(), st.floats(0.5, 64.0)),
    },
}


def _of_kind(p):
    """Values that ``p`` declares: of its kind, its choices, None where
    its default is None."""
    options = []
    if p.kind is float:
        options.append(_FLOAT)
    elif p.kind is int:
        options.append(_INT)
    elif p.kind is bool:
        options.append(st.booleans())
    elif p.kind is list:
        options.append(st.lists(st.lists(_FLOAT, min_size=3, max_size=3), max_size=3))
    if p.choices:
        options.append(st.sampled_from(p.choices))
    if p.default is None:
        options.append(st.none())
    return st.one_of(options)


#: Whether a value is one just outside its declaration: one in 16.  A
#: sampled index leans to 0, so the rare outcome is listed last.
_OUTSIDE = st.sampled_from((False,) * 15 + (True,))


@st.composite
def _params(draw, params, fixed, values=None):
    """``fixed`` plus each required param and some optional ones.  Each
    value is drawn from ``values`` where it names the param, else from
    the param's declaration; one value in 16 is one just outside it."""
    d = dict(fixed)
    values = values or {}
    for p in params:
        if not (p.default is _REQUIRED or p.name in values or draw(st.booleans())):
            continue
        if draw(_OUTSIDE):
            d[p.name] = draw(_ANY_VALUE.filter(lambda v, p=p: not p.accepts(v)))
        else:
            d[p.name] = draw(values.get(p.name, _of_kind(p)))
    return d


@st.composite
def _configs(draw, csv_path):
    if draw(st.integers(0, 4)) == 0:
        path = draw(st.sampled_from([str(csv_path), str(csv_path) + ".missing"]))
        inp = draw(_params(_INPUT_PARAMS["csv"], {"kind": "csv"}, {"path": st.just(path)}))
    else:
        kind = draw(st.sampled_from(sorted(_SYNTH_PARAMS)))
        synth = draw(_params(_SYNTH_PARAMS[kind], {"kind": kind}, _SYNTH_VALUES[kind]))
        inp = {"kind": "synth", "synth": synth}
    pipeline = []
    for name in draw(st.lists(st.sampled_from(sorted(_STAGE_PARAMS)), min_size=1, max_size=3)):
        pipeline.append(draw(_params(_STAGE_PARAMS[name], {"stage": name})))
    raw = {"input": inp, "pipeline": pipeline}
    raw.update(draw(_params((_RUN_SEED,), {})))
    if draw(st.booleans()):
        raw["formats"] = draw(_params(_FORMATS, {}))
    return raw


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("input") / "fbm.csv"
    write_csv(gen_fbm(0.7, 512, seed=5, sample_rate=4.0), path)
    return path


def _run(raw: dict, workdir: Path):
    """Exit code, stderr and output directory of ``wavescope run`` on ``raw``."""
    outdir = workdir / "out"
    config = workdir / "config.json"
    config.write_text(json.dumps({**raw, "output_dir": str(outdir)}), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the contract is the exit code
            code = main(["run", "--config", str(config)])
    return code, err.getvalue(), outdir


def _check_contract(code: int, stderr: str, outdir: Path):
    assert code in (0, 2, 3, 4), (code, stderr)
    assert "Traceback" not in stderr, stderr
    if code == 0:
        assert (outdir / "report.json").exists()
    if code == 2:
        assert not outdir.exists(), stderr
    if code == 3:
        stage = re.search(r"stage '(\w+)'", stderr)
        assert stage, stderr
        assert (outdir / f"{stage.group(1)}.failed").exists(), stderr


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_generated_configs_keep_the_exit_code_contract(data, csv_path):
    raw = data.draw(_configs(csv_path))
    with tempfile.TemporaryDirectory(dir=csv_path.parent) as workdir:
        _check_contract(*_run(raw, Path(workdir)))

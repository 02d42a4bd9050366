"""The exit-code contract of the command line on generated inputs.

Three kinds of input are generated:

- ``wavescope run`` configs built from the declared params
  (``_INPUT_PARAMS``, ``_SYNTH_PARAMS``, ``_STAGE_PARAMS``, ``_FORMATS``),
  with each value drawn across its declared type, huge and negative
  integers included, and now and then just outside it: another type, NaN
  or an infinity, an unknown choice;
- the argv of every subcommand, built from the same declarations and
  the parser's own flags, now and then with a flag dropped or unknown;
- CSV bytes, fed through ``run`` and through ``phase``.

Every command must exit 0, 2, 3 or 4 with no traceback.  Exit 2 leaves
no output (directory or file), and exit 3 of a pipeline (``run`` or a
stage subcommand) leaves the failing stage's ``<stage>.failed``.  The
inputs stay small (n <= 2^10) and every property is derandomized with a
bounded number of examples, so together they cost a few seconds.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavescope.cli import (
    _FORMATS, _INPUT_PARAMS, _REQUIRED, _RUN_SEED, _STAGE_PARAMS, _SYNTH_PARAMS, main,
)
from wavescope.figures import FIGURE_NAMES
from wavescope.signal_core import write_csv
from wavescope.synth import gen_fbm, gen_sine_mix

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


def _main(argv: list[str]):
    """Exit code and stderr of ``wavescope`` on ``argv``; an argparse
    refusal or ``--help`` exits through SystemExit, whose code is taken."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the contract is the exit code
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
    return code, err.getvalue()


def _write_config(raw: dict, workdir: Path, outdir: Path) -> Path:
    """``raw`` with its output_dir set to ``outdir``, as a file in ``workdir``."""
    config = workdir / "config.json"
    config.write_text(json.dumps({**raw, "output_dir": str(outdir)}), encoding="utf-8")
    return config


def _run(raw: dict, workdir: Path):
    """Exit code, stderr and output directory of ``wavescope run`` on ``raw``."""
    outdir = workdir / "out"
    code, stderr = _main(["run", "--config", str(_write_config(raw, workdir, outdir))])
    return code, stderr, outdir


def _check_contract(code: int, stderr: str, out: Path, pipeline: bool = True):
    """The contract of one command whose output, a directory or for
    ``synth`` a file, is ``out``; a ``pipeline`` (``run`` or a stage
    subcommand) writes report.json and marks a failed stage."""
    assert code in (0, 2, 3, 4), (code, stderr)
    assert "Traceback" not in stderr, stderr
    if code == 0:
        assert (out / "report.json").exists() if pipeline else out.exists()
    if code == 2:
        assert not out.exists(), stderr
    if code == 3 and pipeline:
        stage = re.search(r"stage '(\w+)'", stderr)
        assert stage, stderr
        assert (out / f"{stage.group(1)}.failed").exists(), stderr


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


def test_a_failed_stage_is_named_once(csv_path, tmp_path):
    # The message reads "stage 'lyapunov': <reason>"; the marker keeps the
    # error's type and reason.
    raw = {
        "input": {"kind": "csv", "path": str(csv_path)},
        "pipeline": [{"stage": "lyapunov", "delay": 0}],
    }
    code, stderr, out = _run(raw, tmp_path)
    _check_contract(code, stderr, out)
    assert code == 3
    assert re.findall(r"\blyapunov\b", stderr) == ["lyapunov"], stderr
    assert stderr == "stage failed: stage 'lyapunov': delay must be >= 1\n"
    marker = (out / "lyapunov.failed").read_text(encoding="utf-8")
    assert marker == "ValidationError: delay must be >= 1\n"


# ------------------------------------------------------------ argv


@pytest.fixture(scope="module")
def inputs(csv_path):
    """The files a generated argv names: the fBm CSV, two sine CSVs at
    20 Hz, and a plain file, under which no directory can be made."""
    folder = csv_path.parent
    for name, phase in (("sine_a.csv", 0.0), ("sine_b.csv", 0.7)):
        write_csv(gen_sine_mix([(0.5, 1.0, phase)], 20.0, 512), folder / name)
    (folder / "plain").write_text("not a directory\n", encoding="utf-8")
    return folder


#: Command-line words of every sort: numbers in and out of range, the
#: non-finite spellings, the declared choices and text that parses as
#: nothing.
_WORDS = st.sampled_from(
    ["1", "0", "-1", "2.5", "0.5", "8", "1e-310", "1e300", "nan", "inf", "-inf", "x", "",
     "auto", "red", "hann", "soft_threshold", "periodic", "eq4", "dissipation", "0.5,1,0",
     "1,2", "a,b,c", "99999999999999999999"]
)


def _words(p, value) -> list[str]:
    """The flag words that give declared param ``p`` the value ``value``,
    as a user would type them; a None value gives no flag."""
    flag = "--" + p.name.replace("_", "-")
    if value is None:
        return []
    if p.kind is bool and isinstance(value, bool):
        return [flag] if value else []
    if p.kind is list and isinstance(value, list):
        # --component PERIOD,AMP,PHASE, once per triple
        return [w for c in value for w in (flag[:-1], ",".join(map(repr, c)))]
    return [flag, repr(value) if isinstance(value, float) else str(value)]


@st.composite
def _flags(draw, params, values=None):
    """Flag words for some of ``params``, drawn as _params draws a config."""
    d = draw(_params(params, {}, values))
    by_name = {p.name: p for p in params}
    return [w for name, value in d.items() for w in _words(by_name[name], value)]


def _path(inputs, *names):
    """One of the named files under ``inputs``, or one that is missing."""
    return st.sampled_from([*names, "missing.csv"]).map(lambda name: str(inputs / name))


@st.composite
def _argv(draw, inputs, workdir):
    """A subcommand's argv, and where its output goes: a fresh path under
    ``workdir``, or one under a plain file."""
    command = draw(st.sampled_from(["synth", "phase", "run", "figure-repro", *sorted(_STAGE_PARAMS)]))
    out = workdir / "out"
    if draw(_OUTSIDE):
        out = inputs / "plain" / "out"
    if command == "synth":
        kind = draw(st.sampled_from(sorted(_SYNTH_PARAMS)))
        argv = ["synth", "--kind", kind]
        argv += draw(_flags(_SYNTH_PARAMS[kind], _SYNTH_VALUES[kind]))
        out = out.with_suffix(".csv")
        argv += ["--out", str(out)]
    elif command == "phase":
        argv = ["phase", "--input-a", draw(_path(inputs, "sine_a.csv", "fbm.csv")),
                "--input-b", draw(_path(inputs, "sine_b.csv", "fbm.csv"))]
        if draw(st.booleans()):
            argv += ["--sample-rate", draw(_WORDS)]
        period = st.one_of(st.sampled_from(["0.5", "2", "0.05"]), _WORDS)
        argv += ["--period", draw(period), "--outdir", str(out)]
        argv += ["--svg"] if draw(st.booleans()) else []
    elif command == "run":
        if draw(st.booleans()):
            config = _write_config(draw(_configs(inputs / "fbm.csv")), workdir, out)
        else:
            config = Path(draw(_path(inputs, "plain", "fbm.csv")))
        argv = ["run", "--config", str(config)]
    elif command == "figure-repro":
        name = draw(st.one_of(st.sampled_from(FIGURE_NAMES), st.sampled_from(["fig13", ""])))
        argv = ["figure-repro", "--name", name, "--outdir", str(out)]
    else:
        argv = [command, "--input", draw(_path(inputs, "fbm.csv", "sine_a.csv", "plain"))]
        argv += draw(_flags(_INPUT_PARAMS["csv"][1:]))
        argv += draw(_flags(_STAGE_PARAMS[command]))
        argv += ["--outdir", str(out)]
        argv += ["--svg"] if draw(st.booleans()) else []
    if draw(_OUTSIDE):  # a flag dropped, or one that no parser declares
        if draw(st.booleans()):
            del argv[draw(st.integers(1, len(argv) - 1))]
        else:
            argv += ["--bogus", draw(_WORDS)]
    return command, argv, out


@settings(
    max_examples=80,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_generated_argv_keeps_the_exit_code_contract(data, inputs):
    with tempfile.TemporaryDirectory(dir=inputs) as workdir:
        command, argv, out = data.draw(_argv(inputs, Path(workdir)))
        code, stderr = _main(argv)
        pipeline = command == "run" or command in _STAGE_PARAMS
        _check_contract(code, stderr, out, pipeline)


# -------------------------------------------------------- CSV bytes


#: Fields that replace a value: non-finite and overflowing spellings,
#: empty and ragged fields, a comment and text that is no number.
_BAD_FIELDS = ["nan", "inf", "-inf", "", "x", "1e400", "1,2,3", "#c", "\x00", '"1"']


#: Rates of a generated CSV: usual ones, and ones whose times or period
#: overflow.
_CSV_RATES = st.sampled_from([4.0, 20.0, 4.0, 0.3, 1e-300, 1e300, 1e-310])


@st.composite
def _csv_bytes(draw, rate):
    """A CSV file of up to MAX_N rows at ``rate``, and whether it is bare:
    a value column, mostly beside a time column, under one of several
    headers; now and then a few fields are replaced or a byte that is not
    UTF-8 is put in."""
    n = draw(st.sampled_from([300, MAX_N, 64, 9, 8, 7, 2, 1, 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    k = np.arange(n)
    values = draw(st.sampled_from([
        np.sin(2.0 * np.pi * k / 16.0) + 0.01 * rng.standard_normal(n),
        rng.standard_normal(n),
        k * 1.0,
        np.zeros(n),
        1e300 * rng.standard_normal(n),
        1e-310 * rng.standard_normal(n),
    ]))
    bare = draw(st.sampled_from([False, False, True]))
    if bare:
        header = draw(st.sampled_from([None, "value", "x"]))
        rows = [repr(v) for v in values.tolist()]
    else:
        header = draw(st.sampled_from(["time_s,value", "t,v", "\ufefftime,x", "value"]))
        with np.errstate(over="ignore"):  # 1 / 1e-310 is inf: times of inf
            times = k / rate
        rows = [f"{t!r},{v!r}" for t, v in zip(times.tolist(), values.tolist())]
    for _ in range(draw(st.integers(1, 3)) if rows and draw(_OUTSIDE) else 0):
        at = draw(st.integers(0, len(rows) - 1))
        fields = rows[at].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_BAD_FIELDS))
        rows[at] = ",".join(fields)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    data = eol.join(([header] if header is not None else []) + rows).encode("utf-8")
    if draw(_OUTSIDE):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data, bare


_CSV_SETTINGS = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_CSV_SETTINGS
@given(data=st.data())
def test_generated_csv_bytes_keep_the_exit_code_contract_through_run(data, inputs):
    # A bare CSV is given the rate it was made at; now and then the input
    # also names a column or a rate of its own.
    rate = data.draw(_CSV_RATES)
    with tempfile.TemporaryDirectory(dir=inputs) as workdir:
        path = Path(workdir) / "input.csv"
        csv, bare = data.draw(_csv_bytes(rate))
        path.write_bytes(csv)
        inp = {"kind": "csv", "path": str(path), **({"sample_rate": rate} if bare else {})}
        if data.draw(_OUTSIDE):
            key = data.draw(st.sampled_from(["column", "sample_rate"]))
            inp[key] = data.draw(st.sampled_from([1, 2.5, 1e-310]))
        names = data.draw(st.lists(st.sampled_from(sorted(_STAGE_PARAMS)), min_size=1, max_size=2))
        pipeline = [data.draw(_params(_STAGE_PARAMS[name], {"stage": name})) for name in names]
        _check_contract(*_run({"input": inp, "pipeline": pipeline}, Path(workdir)))


@_CSV_SETTINGS
@given(data=st.data())
def test_generated_csv_bytes_keep_the_exit_code_contract_through_phase(data, inputs):
    # Both CSVs are made at one rate, which --sample-rate states when
    # either is bare.
    rate = data.draw(_CSV_RATES)
    with tempfile.TemporaryDirectory(dir=inputs) as workdir:
        argv, any_bare = ["phase"], False
        for side in ("a", "b"):
            path = Path(workdir) / f"{side}.csv"
            csv, bare = data.draw(_csv_bytes(rate))
            path.write_bytes(csv)
            argv += [f"--input-{side}", str(path)]
            any_bare |= bare
        if any_bare:
            argv += ["--sample-rate", repr(rate)]
        out = Path(workdir) / "out"
        argv += ["--period", data.draw(st.sampled_from(["2", "0.5", "8"])), "--outdir", str(out)]
        code, stderr = _main(argv + (["--svg"] if data.draw(st.booleans()) else []))
        _check_contract(code, stderr, out, pipeline=False)

"""tools/artifact_digests.py builds the byte-comparison set; these checks
read its plan without running it."""

import importlib.util
from pathlib import Path

from wavescope.cli import _STAGE_PARAMS, _SYNTH_PARAMS, _build_parser, validate_config
from wavescope.figures import FIGURE_NAMES, FIGURES

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flag(argv, flag):
    return argv[argv.index(flag) + 1]


def test_the_set_covers_every_stage_synth_kind_and_figure(tmp_path):
    tool = _tool()
    argvs = tool.steps(tmp_path)
    pipelines = [stage for cfg in tool.RUNS.values() for stage in cfg["pipeline"]]
    assert {stage["stage"] for stage in pipelines} == set(_STAGE_PARAMS)
    kinds = {_flag(argv, "--kind") for argv in argvs if argv[0] == "synth"}
    assert kinds == set(_SYNTH_PARAMS)
    assert {"fbm", "cascade"} <= {cfg["input"]["synth"]["kind"] for cfg in tool.RUNS.values()}
    figures = {_flag(argv, "--name") for argv in argvs if argv[0] == "figure-repro"}
    assert figures == set(FIGURE_NAMES)
    # the phase command and the two one-shots
    assert ["denoise", "figure-repro", "globalpower", "phase", "run", "synth"] == sorted(
        {argv[0] for argv in argvs}
    )
    assert _flag(next(a for a in argvs if a[0] == "denoise"), "--rule") == "soft_threshold"


def test_the_set_takes_every_declared_choice():
    # Every choice of every stage param, a left-out param standing for its
    # default, and a value of the param's kind where it has one besides.
    tool = _tool()
    stages = [stage for cfg in tool.RUNS.values() for stage in cfg["pipeline"]]
    stages += [stage for _, preset, _ in FIGURES.values() for stage in preset]
    for name, params in _STAGE_PARAMS.items():
        for p in params:
            if not p.choices:
                continue
            taken = [s.get(p.name, p.default) for s in stages if s["stage"] == name]
            assert set(p.choices) <= set(taken), (name, p.name)
            if p.kind is not None:
                assert any(v not in p.choices and p.accepts(v) for v in taken), (name, p.name)


def test_every_step_parses_and_every_run_config_validates(tmp_path):
    tool = _tool()
    parser = _build_parser()
    for argv in tool.steps(tmp_path):
        parser.parse_args(argv)
    for name, cfg in tool.RUNS.items():
        validate_config({**cfg, "output_dir": str(tmp_path / name)})

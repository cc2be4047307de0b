import gc
import importlib
import json
import pkgutil
import subprocess
import sys
import tempfile
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavecontrol
from wavecontrol import cli, control_lab, geometry, presets, regularizer, waveop
from wavecontrol.cli import ConfigError, ExperimentConfig, parse_config

FAST = """
preset = interval
nx = 129
n_modes = 16
n_steps = 256
budget = 80
alphas = 1e-2, 1e-4
"""


def fast_config(**overrides) -> ExperimentConfig:
    cfg = parse_config(FAST)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_types_and_comments():
    cfg = parse_config(
        """
        # experiment knobs
        preset = square          # inline comment
        nx = 33
        T = 0.5
        s = 1.0
        alphas = 1e-1,1e-2,1e-3
        target = first_mode
        """
    )
    assert cfg.preset == "square"
    assert cfg.dimension == 2
    assert cfg.nx == 33
    assert cfg.T == 0.5
    assert cfg.alphas == (1e-1, 1e-2, 1e-3)
    assert cfg.target == "first_mode"
    # derived windows filled in from T
    assert cfg.delta == pytest.approx(0.05)
    assert cfg.epsilon == pytest.approx(0.025)


def test_parse_config_empty_gives_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()


@pytest.mark.parametrize(
    "text, message",
    [
        ("wavelength = 3", "unknown key"),
        ("T = 0.5\nT = 0.6", "duplicate"),
        ("nx = twelve", "cannot parse"),
        ("alphas = 1e-2, fast", "cannot parse"),
        ("just a line without equals", "key=value"),
    ],
)
def test_parse_config_rejects(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"preset": "annulus"}, "preset"),
        ({"T": 0.0}, "positive"),
        ({"delta": 0.5, "epsilon": 0.5}, "epsilon"),
        ({"delta": 0.9}, "epsilon"),
        ({"s": -1.0}, "nonnegative"),
        ({"budget": 0}, "budget"),
        ({"n_steps": 1}, "n_steps"),
        ({"alphas": (1e-2, -1e-3)}, "positive"),
        ({"alphas": (1e-3, 1e-2)}, "decreasing"),
        ({"alphas": (1e-2, 1e-2)}, "decreasing"),
        ({"target": "sawtooth"}, "target"),
        ({"control_class": "analytic"}, "control_class"),
        ({"nx": -1}, "nonnegative"),
        ({"seed": -3}, "seed"),
    ],
)
def test_config_range_validation(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize(
    "text, message",
    [
        ("alphas = ,", "empty"),
        ("alphas = 1e-2, nan", "positive"),
        ("s = nan", "nonnegative"),
    ],
)
def test_parse_config_rejects_empty_and_nan_values(text, message):
    # each of these used to parse and then end the run in a traceback
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


_CONFIG_VALUES = st.one_of(
    st.sampled_from(
        ("0", "1", "true", "false", "yes", "", ",", "-1", "1e-2, 1e-4", "1e-4,1e-2")
        + cli._PRESETS
        + regularizer.CONTROL_CLASSES
        + ("ramp", "in_range", "center_bump")
    ),
    st.integers(-(10**6), 10**6).map(str),
    st.floats().map(repr),
    st.lists(st.floats(), max_size=4).map(lambda xs: ", ".join(map(repr, xs))),
    st.text(max_size=12),
)
_CONFIG_LINES = st.one_of(
    st.builds(
        "{} = {}".format,
        st.one_of(st.sampled_from([f.name for f in fields(ExperimentConfig)]), st.text(max_size=8)),
        _CONFIG_VALUES,
    ),
    st.text(max_size=24),  # blanks, comments and junk
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CONFIG_LINES, max_size=6))
def test_config_grammar_parses_or_raises_config_error(lines):
    """Any key=value text yields a validated config or a ConfigError, nothing else."""
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigError:
        return
    assert 0 < cfg.epsilon < cfg.delta < cfg.T
    assert cfg.s >= 0 and cfg.budget >= 1 and cfg.n_steps >= 2
    assert cfg.alphas and all(a > 0 for a in cfg.alphas)
    assert cfg.control_class in regularizer.CONTROL_CLASSES


def _square_5_table(row, text):
    """Config of a 5 x 5 square read from a table ``i,j,a11`` whose row ``row``
    (0-based, so on line row + 2) reads ``text``."""
    rows = [f"{i},{j},1\n" for i in range(5) for j in range(5)]
    rows[row] = text + "\n"
    table = "table:i,j,a11\n" + "".join(rows)
    return {"preset": "square", "nx": "5", "ny": "5", "coefficient_csv": table}


@pytest.mark.parametrize(
    "subcommand, overrides, message",
    [
        ("control", {"T": "inf", "delta": "0.1"}, "[1e-6, 1e6]"),
        ("verify", {"T": "1e108"}, "[1e-6, 1e6]"),
        ("h1star", {"T": "1e-255"}, "[1e-6, 1e6]"),
        ("control", {"epsilon": "1e-309", "control_class": "smooth"}, "[1e-6, 1e6]"),
        ("control", {"s": "inf"}, "finite"),
        ("control", {"alphas": "inf, 1"}, "finite"),
        ("eikonal", {"nx": "1"}, "3 nodes"),
        ("eikonal", {"preset": "square", "ny": "2"}, "3 nodes"),
        ("eigen", {"nx": "513", "n_modes": "600"}, "interior dimension 511"),
        ("eigen", {"nx": "9", "n_modes": "0"}, "n_modes=64 exceeds"),
        ("eigen", {"coefficient_csv": "absent.csv"}, "absent.csv"),
        ("eikonal", {"coefficient_csv": "table:x,j,a11\n0,0,1\n"}, "missing i or j column"),
        ("eikonal", {"coefficient_csv": "table:i,j,a11\n100,0,1\n"}, "out of bounds"),
        (
            "eikonal",
            {"coefficient_csv": "table:i,j,a11\n" + "".join(f"{i},0,-1\n" for i in range(65))},
            "not positive definite",
        ),
        ("verify", {"T": "0.05"}, "observability window"),
        ("control", {"s": "400"}, "norm weight"),
        (
            "eigen",
            {
                "preset": "square",
                "nx": "9",
                "ny": "9",
                "coefficient_csv": "table:i,j,a11,a12,a22\n"
                + "".join(f"{i},{j},1,0.2,1\n" for i in range(9) for j in range(9)),
            },
            "axis-aligned coefficients only",
        ),
        (
            "eigen",
            {"coefficient_csv": "table:i,j,a11,q\n" + "".join(
                f"{i},0,1,{'nan' if i == 32 else 0}\n" for i in range(65)
            )},
            "potential",
        ),
        (
            "eikonal",
            {"coefficient_csv": "table:i,j,a11\n" + "".join(f"{i},0,1\n" for i in range(-1, 64))},
            "negative node index",
        ),
        (
            "eikonal",
            {"coefficient_csv": "table:i,j,a11\n" + "".join(f"{i},0,1\n" for i in [*range(65), 1])},
            "listed twice",
        ),
        ("eikonal", {"coefficient_csv": "table:i,j,a11\n1\n"}, "line 2: expected 3 fields, got 1"),
        (
            "eikonal",
            {"coefficient_csv": "table:i,j,a11\n0,0,1\n1,0\n"},
            "line 3: expected 3 fields, got 2",
        ),
        (
            "eikonal",
            {"coefficient_csv": "table:i,j,a11\n" + "".join(
                f"{i},0,{'' if i == 4 else 1}\n" for i in range(65)
            )},
            "coefficients.csv: line 6: column a11 is empty",
        ),
        (
            "eikonal",
            {"coefficient_csv": "table:i,j,a11,q\n" + "".join(
                f"{i},0,1,{'' if i == 7 else 0}\n" for i in range(65)
            )},
            "coefficients.csv: line 9: column q is empty",
        ),
        ("verify", {"debug_break_quadrature": "1"}, "unknown key 'debug_break_quadrature'"),
        (
            "eikonal",
            _square_5_table(12, "2,2,abc"),
            "coefficients.csv: line 14: column a11: cannot read 'abc'",
        ),
        (
            "eikonal",
            _square_5_table(3, "x,3,1"),
            "coefficients.csv: line 5: column i: cannot read 'x'",
        ),
        (
            "eikonal",
            _square_5_table(20, "9,0,1"),
            "coefficients.csv: line 22: node (9, 0) is out of bounds",
        ),
    ],
)
def test_main_refuses_configs_that_used_to_end_in_a_traceback(
    tmp_path, capsys, subcommand, overrides, message
):
    # a small grid, so that each run reaches the one fault it is given
    config = {"nx": "65", "n_modes": "8", "n_steps": "64", **overrides}
    if config.get("coefficient_csv", "").startswith("table:"):
        table = tmp_path / "coefficients.csv"
        table.write_text(config["coefficient_csv"][len("table:"):])
        config["coefficient_csv"] = str(table)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    status = cli.main([subcommand, "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")])
    assert status == 2
    assert message in capsys.readouterr().err


def test_main_runs_eikonal_on_mixed_coefficients(tmp_path):
    # the metric distance handles an a12 term; only the eigensolve refuses it
    table = tmp_path / "coefficients.csv"
    rows = "".join(f"{i},{j},1,0.2,1\n" for i in range(9) for j in range(9))
    table.write_text("i,j,a11,a12,a22\n" + rows)
    cfg_file = tmp_path / "run.cfg"
    config = f"preset = square\nnx = 9\nny = 9\nn_modes = 8\ncoefficient_csv = {table}\n"
    cfg_file.write_text(config)
    status = cli.main(["eikonal", "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")])
    assert status == 0
    assert (tmp_path / "out" / "tau.csv").is_file()


def test_main_runs_eikonal_with_more_modes_than_interior_nodes(tmp_path):
    # the default 100 modes exceed the 49 interior nodes, but eikonal builds no basis
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("preset = square\nnx = 9\nny = 9\n")
    status = cli.main(["eikonal", "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")])
    assert status == 0
    assert (tmp_path / "out" / "tau.csv").is_file()


# Ranges of the generated run configs, each with its reason:
# - nx, ny in 1..33 and n_modes in 1..8, for runtime.  Zero would select
#   the preset default (513 nodes and 64 modes, or 129² and 100), and on
#   square_bump the 129² default is refused by the dense-solve cap of 5000
#   unknowns (ROADMAP item 4), whose ValueError stays as it is.
# - n_steps in 2..64 and budget in 1..5, for runtime.
# - T, delta, epsilon, s and alphas: any finite float, half the time drawn
#   from the desk's range so that most runs get past the config checks.
def _finite_or(lo, hi):
    return st.one_of(st.floats(lo, hi), st.floats(allow_nan=False, allow_infinity=False))


_RUN_CONFIGS = st.fixed_dictionaries(
    {
        "preset": st.sampled_from(cli._PRESETS),
        "nx": st.integers(1, 33),
        "ny": st.integers(1, 33),
        "n_modes": st.integers(1, 8),
        "n_steps": st.integers(2, 64),
        "budget": st.integers(1, 5),
        "T": _finite_or(0.06, 2.0),
        "target": st.sampled_from(tuple(presets.TARGET_PRESETS)),
        "control_class": st.sampled_from(regularizer.CONTROL_CLASSES),
        "seed": st.integers(0, 2**32 - 1),
    },
    optional={
        "delta": _finite_or(0.002, 0.05),
        "epsilon": _finite_or(1e-6, 0.002),
        "s": _finite_or(0.0, 4.0),
        "alphas": st.lists(_finite_or(1e-8, 1.0), min_size=1, max_size=3, unique=True).map(
            lambda xs: sorted(xs, reverse=True)
        ),
    },
)


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
@settings(max_examples=50, deadline=None)
@given(_RUN_CONFIGS)
def test_generated_configs_run_or_exit_2(subcommand, config):
    """Every bounded config runs, or is refused with exit 2; verify may also fail."""
    lines = [
        f"{key} = {', '.join(map(repr, value)) if isinstance(value, list) else value}"
        for key, value in config.items()
    ]
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "run.cfg"
        cfg_file.write_text("\n".join(lines) + "\n")
        status = cli.main([subcommand, "--config", str(cfg_file), "--out-dir", tmp])
    assert status in ((0, 1, 2) if subcommand == "verify" else (0, 2))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config"):
        cli.load_config(str(tmp_path / "nope.cfg"))


def test_load_config_none_is_defaults():
    assert cli.load_config(None) == ExperimentConfig()


def test_run_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(ConfigError, match="subcommand"):
        cli.run(fast_config(), "simulate", out_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# artifact-producing subcommands


def test_eikonal_artifacts(tmp_path):
    status = cli.run(fast_config(), "eikonal", out_dir=str(tmp_path))
    assert status == 0
    assert (tmp_path / "tau.csv").read_text().splitlines()[0] == "i,j,x,y,tau"
    assert (tmp_path / "region.csv").is_file()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["T_fill"] == pytest.approx(0.5, abs=1e-12)
    assert 0.0 < summary["covered_fraction"] <= 1.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "eikonal"
    assert set(manifest) >= {"subcommand", "version", "seed", "config", "timings"}
    assert manifest["config"]["nx"] == 129


@pytest.mark.parametrize("subcommand", ["eikonal", "control"])
def test_manifest_times_the_csv_writers(tmp_path, subcommand):
    assert cli.run(fast_config(), subcommand, out_dir=str(tmp_path)) == 0
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert 0.0 <= timings["artifacts"] <= timings["total"]


@pytest.mark.parametrize(
    "cfg",
    [ExperimentConfig(), ExperimentConfig(preset="square_bump", nx=33, ny=33)],
    ids=["desk", "square_bump_33"],
)
def test_manifest_times_the_domain_build(tmp_path, cfg):
    assert cli.run(cfg, "eikonal", out_dir=str(tmp_path)) == 0
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert 0.0 <= timings["domain"] <= timings["total"]


def test_manifest_times_the_h1star_stages(tmp_path, monkeypatch):
    """h1star's manifest times the eigensolve, the lift stage (boundary lift,
    Q1 and the target split) and the solve apart; the solve reuses the
    lift stage's split, so the target is split once per run."""
    built = []
    real = control_lab._spd_solve

    def counting(Q, b):
        built.append(len(b))
        return real(Q, b)

    monkeypatch.setattr(control_lab, "_spd_solve", counting)
    assert cli.run(fast_config(target="ramp"), "h1star", out_dir=str(tmp_path)) == 0
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert set(timings) == {"domain", "eigensolve", "lift", "h1star", "artifacts", "total"}
    stages = sum(v for k, v in timings.items() if k != "total")
    assert 0.0 <= stages <= timings["total"]
    assert built == [fast_config().n_modes + 2]  # one split, of J = K + n_bnd pairings


def test_manifest_times_the_control_stages(tmp_path):
    """control's manifest times the eigensolve, the region march, the
    synthesis and the artifacts apart, and its stages fit in its total."""
    assert cli.run(fast_config(), "control", out_dir=str(tmp_path)) == 0
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert set(timings) == {"domain", "eigensolve", "eikonal", "synthesis", "artifacts", "total"}
    stages = sum(v for k, v in timings.items() if k != "total")
    assert 0.0 <= stages <= timings["total"]


def test_eigen_artifacts(tmp_path):
    status = cli.run(fast_config(), "eigen", out_dir=str(tmp_path))
    assert status == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "k,lambda"
    assert len(lines) == 17
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["lambda_1"] == pytest.approx(np.pi**2, rel=1e-3)
    assert summary["gram_max_deviation"] < 1e-10


def test_beta_artifacts(tmp_path):
    status = cli.run(fast_config(), "beta", out_dir=str(tmp_path))
    assert status == 0
    assert (tmp_path / "beta.csv").read_text().splitlines()[0] == "k,lambda,beta"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_abs_beta"] <= 1.0 + 1e-12
    assert summary["first_beta"] <= 1.0


def test_forward_artifacts(tmp_path):
    status = cli.run(fast_config(), "forward", out_dir=str(tmp_path))
    assert status == 0
    assert (tmp_path / "state.csv").read_text().splitlines()[0] == "x,u"
    summary = json.loads((tmp_path / "summary.json").read_text())
    # horizon beats the filling time, so no mass can sit outside the region
    assert summary["support_violation"] <= 1e-12
    assert summary["state_norm_H"] > 0


def test_dual_artifacts(tmp_path):
    status = cli.run(fast_config(target="first_mode"), "dual", out_dir=str(tmp_path))
    assert status == 0
    assert (tmp_path / "dual_t0.csv").is_file()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["dual_t0_norm_H"] > 0
    assert summary["dual_T_norm_H"] == pytest.approx(0.0, abs=1e-12)


def test_observe_artifacts(tmp_path):
    status = cli.run(fast_config(target="first_mode"), "observe", out_dir=str(tmp_path))
    assert status == 0
    assert (tmp_path / "trace.csv").read_text().splitlines()[0] == "gamma_id,t,g"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["trace_ratio"] > 0.1


def test_control_artifacts(tmp_path):
    status = cli.run(fast_config(target="in_range"), "control", out_dir=str(tmp_path))
    assert status == 0
    res_lines = (tmp_path / "residuals.csv").read_text().splitlines()
    assert res_lines[0] == "iter,residual"
    residuals = [float(line.split(",")[1]) for line in res_lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    curve_lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve_lines[0].startswith("alpha,final_residual")
    assert len(curve_lines) == 3
    finals = [float(line.split(",")[1]) for line in curve_lines[1:]]
    assert finals[1] < finals[0]
    assert (tmp_path / "control.csv").is_file()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["relative_residual"] < 0.5
    assert summary["unreachability_bound"] == 0.0


def test_sine_factors_built_once_per_time_grid(tmp_path, monkeypatch):
    """verify builds each of its two (T, n_steps) sine tables once, and a
    five-alpha control at either horizon after it builds none."""
    built = []
    real = waveop._sin_factors

    def counting(lambdas, times, T):
        built.append((T, len(times)))
        return real(lambdas, times, T)

    monkeypatch.setattr(waveop, "_sin_factors", counting)
    assert cli.run(ExperimentConfig(), "verify", out_dir=str(tmp_path / "verify")) == 0
    assert sorted(built) == sorted(set(built)) == [(0.3, 1025), (0.75, 1025)]
    built.clear()
    for T in (0.75, 0.3):
        cfg = ExperimentConfig(T=T, alphas=control_lab.DEFAULT_ALPHA_SCHEDULE)
        assert cli.run(cfg, "control", out_dir=str(tmp_path / f"control{T}")) == 0
    assert built == []


def test_control_solves_each_alpha_once(tmp_path, monkeypatch):
    """One multi-shift CGLS run solves the whole schedule, and the curve,
    the residual history and the control share it."""
    schedules = []
    real = control_lab._cgls

    def counting(*args):
        schedules.append(list(args[5]))
        return real(*args)

    monkeypatch.setattr(control_lab, "_cgls", counting)
    cfg = fast_config(alphas=control_lab.DEFAULT_ALPHA_SCHEDULE)
    assert cli.run(cfg, "control", out_dir=str(tmp_path)) == 0
    assert schedules == [list(cfg.alphas)]
    rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == list(cfg.alphas)
    last = rows[-1].split(",")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert float(last[1]) == summary["final_residual"]
    assert int(last[3]) == summary["iterations"]
    residuals = (tmp_path / "residuals.csv").read_text().splitlines()
    assert len(residuals) == summary["iterations"] + 2  # header, then g = 0 onwards


def test_h1star_artifacts(tmp_path):
    cfg = fast_config(target="smooth_interior", budget=60)
    status = cli.run(cfg, "h1star", out_dir=str(tmp_path))
    assert status == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["relative_residual"] < 0.2
    assert (tmp_path / "residuals.csv").is_file()
    assert (tmp_path / "control.csv").is_file()


# ---------------------------------------------------------------------------
# verification suite


def test_verify_suite_passes_at_desk_scale(tmp_path):
    status = cli.run(ExperimentConfig(), "verify", out_dir=str(tmp_path))
    assert status == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is True
    assert set(report["suites"]) == {
        "adjointness",
        "spectral",
        "regularizer",
        "finite_speed",
        "smoothing_identity",
        "observability",
        "synthesis",
    }
    for items in report["suites"].values():
        assert items, "every suite must report at least one measurement"
        for item in items:
            assert {"item", "measured", "passed"} <= set(item)
            assert item["passed"] is True


def test_verify_builds_its_domain_once(tmp_path, monkeypatch):
    built = []
    real_build = cli.build_domain
    monkeypatch.setattr(cli, "build_domain", lambda cfg: built.append(cfg) or real_build(cfg))
    cli.run(fast_config(), "verify", out_dir=str(tmp_path))
    assert len(built) == 1


# ---------------------------------------------------------------------------
# what consecutive runs share


def test_consecutive_runs_share_the_domain_eigenpairs_and_sines():
    """Two runs on one config get one domain, one set of read-only
    eigenpairs and one sine table, but each its own basis and factor object."""
    cfg = fast_config()
    domain = cli.build_domain(cfg)
    assert cli.build_domain(fast_config()) is domain
    assert not domain.coeff.flags.writeable
    first, second = cli.build_basis(cfg, domain), cli.build_basis(cfg)
    assert first is not second and first.sines is not second.sines
    for name in ("lambdas", "modes", "conormal_traces", "mass_weights", "boundary_weights"):
        assert getattr(first, name) is getattr(second, name)
        assert not getattr(first, name).flags.writeable
    fac, other = (waveop.modal_factors(b, cfg.T, cfg.n_steps) for b in (first, second))
    assert fac is not other and fac.V is other.V


def _process_memos() -> dict:
    """Every module-level _LAST_* dict of the wavecontrol modules, by name."""
    memos = {}
    for info in pkgutil.iter_modules(wavecontrol.__path__):
        module = importlib.import_module(f"wavecontrol.{info.name}")
        for key, value in vars(module).items():
            if key.startswith("_LAST_") and isinstance(value, dict):
                memos[f"{info.name}.{key}"] = value
    return memos


@pytest.mark.parametrize("step", ["fill", "check"])
def test_every_process_memo_is_emptied_between_tests(step):
    """The first case leaves an entry in every process-wide memo; the
    autouse fixture must have emptied them all before the second runs."""
    memos = _process_memos()
    known = {"cli._LAST_DOMAIN", "cli._LAST_BASIS", "waveop._LAST_SINES",
             "waveop._LAST_TRACE_ROW", "waveop._LAST_HARMONICS"}
    assert known <= set(memos)
    if step == "fill":
        for memo in memos.values():
            memo["left by the previous test"] = None
    else:
        assert [name for name, memo in memos.items() if memo] == []


def test_desk_runs_in_one_process_build_each_grid_table_once(tmp_path, monkeypatch):
    """observe at T = 0.3, then control, h1star and verify at 0.75: each
    horizon's sine table and trace template and verify's harmonic table are
    built once, and every artifact matches a run from cold memos byte for
    byte."""
    built = []
    for name in ("_sin_factors", "_trace_row", "_harmonic_table"):
        real = getattr(waveop, name)
        counting = lambda *args, name=name, real=real: built.append(name) or real(*args)
        monkeypatch.setattr(waveop, name, counting)
    runs = [("observe", ExperimentConfig(T=0.3)), ("control", ExperimentConfig()),
            ("h1star", ExperimentConfig(target="ramp")), ("verify", ExperimentConfig())]
    for sub, cfg in runs:
        assert cli.run(cfg, sub, out_dir=str(tmp_path / "warm" / sub)) == 0
    assert sorted(built) == ["_harmonic_table"] + ["_sin_factors"] * 2 + ["_trace_row"] * 2
    for sub, cfg in runs:
        for memo in _process_memos().values():
            memo.clear()
        assert cli.run(cfg, sub, out_dir=str(tmp_path / "cold" / sub)) == 0
    warm = sorted(p.relative_to(tmp_path / "warm") for p in (tmp_path / "warm").rglob("*.*"))
    cold = sorted(p.relative_to(tmp_path / "cold") for p in (tmp_path / "cold").rglob("*.*"))
    assert warm == cold and len(warm) > len(runs)
    for rel in warm:
        if rel.name != "manifest.json":  # wall-clock timings
            assert (tmp_path / "warm" / rel).read_bytes() == (tmp_path / "cold" / rel).read_bytes()


def test_coefficient_csv_is_read_on_every_run(tmp_path):
    """A table rewritten at the same path between two runs gives the new speed."""
    table = tmp_path / "coefficients.csv"
    cfg = fast_config(nx=65, coefficient_csv=str(table))
    fills = []
    for a11 in (1.0, 4.0):  # wave speed 1, then 2
        table.write_text("i,j,a11\n" + "".join(f"{i},0,{a11}\n" for i in range(65)))
        assert cli.run(cfg, "eikonal", out_dir=str(tmp_path / f"a{a11:g}")) == 0
        fills.append(json.loads((tmp_path / f"a{a11:g}" / "summary.json").read_text())["T_fill"])
    assert fills == [pytest.approx(0.5, abs=1e-12), pytest.approx(0.25, abs=1e-12)]


def test_a_run_on_another_config_frees_the_last_domain_eigenpairs_and_sines(tmp_path):
    """With the cyclic collector off, the memos alone keep the last domain,
    eigenpairs and sine table alive.  A run on another preset frees the
    domain and its eigenpairs, and the next sine table frees the last one."""
    cfg = fast_config()
    gc.collect()
    gc.disable()
    try:
        domain = cli.build_domain(cfg)
        basis = cli.build_basis(cfg, domain)
        sines = weakref.ref(waveop.modal_factors(basis, cfg.T, cfg.n_steps).V)
        kept = [weakref.ref(x) for x in (domain, basis.lambdas, basis.modes)]
        del domain, basis
        assert all(ref() is not None for ref in kept) and sines() is not None
        other = fast_config(preset="interval_bump", T=0.3)
        assert cli.run(other, "eikonal", out_dir=str(tmp_path / "eikonal")) == 0
        assert all(ref() is None for ref in kept) and sines() is not None
        assert cli.run(other, "control", out_dir=str(tmp_path / "control")) == 0
        assert sines() is None
    finally:
        gc.enable()


def test_a_coefficient_table_basis_is_not_kept(tmp_path):
    """A table's domain is new on every run, so its eigenpairs are never
    memoised: the preset domain and eigenpairs stay the only ones kept."""
    table = tmp_path / "coefficients.csv"
    table.write_text("i,j,a11\n" + "".join(f"{i},0,1\n" for i in range(129)))
    preset = cli.build_basis(fast_config())
    from_table = cli.build_basis(fast_config(coefficient_csv=str(table)))
    assert from_table.lambdas is not preset.lambdas
    assert cli.build_basis(fast_config()).lambdas is preset.lambdas


def test_verify_marches_the_eikonal_once(tmp_path, monkeypatch):
    """The finite-speed and observability suites read one distance field."""
    marched = []
    real = geometry.eikonal_distance
    monkeypatch.setattr(geometry, "eikonal_distance", lambda d: marched.append(d) or real(d))
    cli.run(fast_config(), "verify", out_dir=str(tmp_path))
    assert len(marched) == 1


def test_verify_report_items_and_bounds():
    report = cli.verify_suite(fast_config())
    listed = [
        (suite, item["item"], item["bound"])
        for suite, items in report["suites"].items()
        for item in items
    ]
    assert listed == [
        ("adjointness", "duality_relative_discrepancy_max_20_trials", 1e-12),
        ("spectral", "gram_identity_deviation", 1e-10),
        ("spectral", "eigenvalues_sorted_positive", 0.0),
        ("spectral", "lambda1_vs_analytic", 1e-3),
        ("regularizer", "beta_bounded_by_one", 1.0),
        ("regularizer", "beta_taylor_bound_small_phase", 1.0),
        ("regularizer", "regularizer_diagonal_in_modes", 1e-10),
        ("finite_speed", "pulse_mass_outside_filled_region", 1e-3),
        ("smoothing_identity", "mollified_control_vs_regularized_state_pairing", 1e-8),
        ("observability", "center_bump_trace_and_support", 1e-3),
        ("observability", "first_mode_trace_visible", 0.1),
        ("synthesis", "in_range_target_relative_residual", 1e-6),
        ("synthesis", "cg_residual_history_nonincreasing", 0.0),
        ("synthesis", "unreachable_bump_residual_ratio", 0.99),
    ]
    for items in report["suites"].values():
        for item in items:
            assert isinstance(item["passed"], bool)


def test_finite_speed_suite_drives_a_face_midpoint(monkeypatch):
    """On a 33^2 square the pulse sits on a face midpoint, not on the corner
    (boundary row 0) where every conormal trace vanishes, so the item
    measures a nonzero state; a zero state fails it instead of passing."""
    cfg = ExperimentConfig(preset="square", nx=33, ny=33, n_modes=40)
    domain = cli.build_domain(cfg)
    basis = cli.build_basis(cfg, domain)
    states = []
    real = cli.control_to_state

    def recording(f, b):
        states.append(real(f, b))
        return states[-1]

    monkeypatch.setattr(cli, "control_to_state", recording)
    dist = geometry.eikonal_distance(domain)
    (item,) = cli._suite_finite_speed(cfg, dist, basis, None)
    assert basis.h_norm(states[0]) > 1e-3
    assert item["measured"] > 0
    zero = np.zeros(domain.shape)
    monkeypatch.setattr(cli, "control_to_state", lambda f, b: zero)
    (item,) = cli._suite_finite_speed(cfg, dist, basis, None)
    assert item["measured"] == 0.0 and item["passed"] is False


@pytest.mark.parametrize(
    "overrides",
    [{}, {"preset": "square", "nx": 33, "ny": 33, "n_modes": 40}],
    ids=["desk", "square_33"],
)
def test_smoothing_suite_stacks_trials_per_mollifier_matrix(monkeypatch, overrides):
    """All ten trials share one class operator, one smoothing pass and one
    modal factor object, drawn in the per-trial order.

    The banded mollifier holds no n_t x n_t matrix, so the stack's row count
    is not capped: the 128 boundary rows of a 33^2 square take one pass too.
    """
    cfg = ExperimentConfig(**overrides)
    domain = cli.build_domain(cfg)
    basis = cli.build_basis(cfg, domain)
    built, passes, factors = [], [], []
    real_blocks, real_smooth = regularizer._toeplitz_blocks, cli.smooth_control
    real_factors = cli.modal_factors

    def counting_factors(*args):
        factors.append(args)
        return real_factors(*args)

    def counting_blocks(*args, **kwargs):
        built.append(args)
        return real_blocks(*args, **kwargs)

    def recording_smooth(f, *args):
        out = real_smooth(f, *args)
        passes.append(out.samples)
        return out

    monkeypatch.setattr(regularizer, "_toeplitz_blocks", counting_blocks)
    monkeypatch.setattr(cli, "smooth_control", recording_smooth)
    monkeypatch.setattr(cli, "modal_factors", counting_factors)
    rng = np.random.default_rng(cfg.seed)
    (item,) = cli._suite_smoothing_identity(cfg, None, basis, rng)
    assert item["passed"]
    assert len(built) == len(passes) == len(factors) == 1
    # the same draws in the interleaved order: f, then y, per trial
    redraw = np.random.default_rng(cfg.seed)
    controls = []
    for _ in range(10):
        controls.append(
            waveop.random_smooth_control(
                basis, cfg.T, redraw, n_steps=cfg.n_steps, support=(cfg.delta, cfg.T)
            )
        )
        waveop.random_state(basis, redraw)
    assert rng.bit_generator.state == redraw.bit_generator.state
    for f, rows in zip(controls, np.split(np.vstack(passes), 10)):
        expect = real_smooth(f, cfg.epsilon, cfg.delta).samples
        assert np.abs(rows - expect).max() <= 1e-14 * np.abs(expect).max()
    assert len(built) == 1 + 10  # the patch sees every build: one per trial above


def test_operators_on_one_basis_share_one_cylinder(monkeypatch):
    """observe, the forward map, the duality check, the smoothing suite and a
    synthesis on one basis, horizon and step count read one modal factor
    object: its sines and time weights are built once, and every pairing and
    expansion runs on its time weights."""
    cfg = ExperimentConfig()
    domain = cli.build_domain(cfg)
    basis = cli.build_basis(cfg, domain)
    sines, weights, seen = [], [], []

    def spy(owner, name, log):
        # log each call's first argument: the Factors object for its methods
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: log.append(args[0]) or real(*args))

    spy(waveop, "_sin_factors", sines)
    spy(waveop, "time_weights", weights)
    spy(waveop.Factors, "pair", seen)
    spy(waveop.Factors, "expand", seen)
    rng = np.random.default_rng(cfg.seed)
    y = presets.center_bump_target(domain)
    f = waveop.random_control(basis, cfg.T, rng, n_steps=cfg.n_steps)
    waveop.observe(y, cfg.T, basis, n_steps=cfg.n_steps)
    waveop.control_to_state(f, basis)
    waveop.verify_duality(f, y, basis)
    cli._suite_smoothing_identity(cfg, None, basis, rng)
    prob = control_lab.SynthesisProblem(target=y, T=cfg.T, budget=5, n_steps=cfg.n_steps)
    control_lab.synthesize_control(prob, basis)
    assert len(sines) == len(weights) == 1
    cylinder = waveop.modal_factors(basis, cfg.T, cfg.n_steps)
    assert len(seen) > 10 and all(fac.wt is cylinder.wt for fac in seen)
    assert [v for v in basis.sines.values() if isinstance(v, waveop.Factors)] == [cylinder]


def test_in_range_target_is_built_on_the_runs_time_grid():
    """The in_range target is the reference control's snapshot under the map
    on the run's n_steps grid, the map the run then solves with: the basis
    memo holds that cylinder only, and no DEFAULT_TIME_STEPS one."""
    cfg = fast_config(target="in_range")
    basis = cli.build_basis(cfg)
    y = cli._target_state(cfg, basis)
    assert [k for k in basis.sines if isinstance(k, tuple)] == [(cfg.T, 256)]
    rows = basis.domain.face_midpoint_rows()
    f = presets.stored_reference_control(cfg.T, 2, n_steps=256, rows=rows)
    assert np.array_equal(y, waveop.control_to_state(f, basis))


def test_verify_catches_broken_quadrature(tmp_path, monkeypatch, broken_duality):
    """A duality check with a wrong trapezoid rule on the observation side:
    only the adjoint-pair suite may notice, and it must."""
    monkeypatch.setattr(cli, "verify_duality", broken_duality)
    cfg = ExperimentConfig()
    status = cli.run(cfg, "verify", out_dir=str(tmp_path))
    assert status == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is False
    failing = {
        name
        for name, items in report["suites"].items()
        if any(not item["passed"] for item in items)
    }
    assert failing == {"adjointness"}


# ---------------------------------------------------------------------------
# entry point


def test_main_happy_path(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(FAST)
    out = tmp_path / "out"
    status = cli.main(
        ["eikonal", "--config", str(cfg_file), "--out-dir", str(out), "--seed", "7"]
    )
    assert status == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_main_reports_config_errors(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("epsilon = 0.7\ndelta = 0.2\n")
    status = cli.main(["eigen", "--config", str(cfg_file)])
    assert status == 2
    assert "config error" in capsys.readouterr().err


def test_main_rejects_ramp_on_square(tmp_path, capsys):
    cfg_file = tmp_path / "ramp.cfg"
    cfg_file.write_text("preset = square\ntarget = ramp\n")
    status = cli.main(["control", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
    assert status == 2
    assert "ramp" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["control", "h1star"])
def test_unconverged_run_writes_artifacts(tmp_path, subcommand):
    # the desk grid at a budget too small to converge
    cfg_file = tmp_path / "short.cfg"
    cfg_file.write_text("budget = 2\ntarget = in_range\n")
    out = tmp_path / "out"
    status = cli.main([subcommand, "--config", str(cfg_file), "--out-dir", str(out)])
    assert status == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["iterations"] == 2
    assert (out / "manifest.json").is_file()


def test_main_rejects_negative_seed(tmp_path):
    status = cli.main(["eigen", "--out-dir", str(tmp_path), "--seed", "-1"])
    assert status == 2


def test_main_rejects_missing_config(tmp_path):
    status = cli.main(["eigen", "--config", str(tmp_path / "absent.cfg")])
    assert status == 2


def test_console_entry_point(tmp_path):
    import subprocess
    import sys

    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(FAST)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "wavecontrol.cli",
            "eigen",
            "--config",
            str(cfg_file),
            "--out-dir",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "spectrum.csv").is_file()


# ---------------------------------------------------------------------------
# reproducibility


def test_same_seed_reproduces_artifacts_byte_for_byte(tmp_path):
    cfg_text = FAST + "target = in_range\nseed = 11\n"
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = parse_config(cfg_text)
        assert cli.run(cfg, "control", out_dir=str(out)) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name == "manifest.json":
            continue  # carries wall-clock timings
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_import_leaves_out_scipy_integrate():
    # the mollifier multipliers need no adaptive quadrature; importing
    # scipy.integrate would add its load time to every interpreter start
    src = str(Path(wavecontrol.__file__).resolve().parents[1])
    code = "import sys, wavecontrol.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_import_defers_random_polynomial_argparse(tmp_path):
    # verify draws from the stdlib Mersenne Twister, so no run loads
    # numpy.random (nor OpenSSL, which it loads through secrets); the
    # Gauss-Legendre rule is written out and argparse is for main alone;
    # verify's draws do not depend on whether numpy.random was loaded before
    src = str(Path(wavecontrol.__file__).resolve().parents[1])
    code = """if True:
        import json, sys
        if sys.argv[2] == "preload":
            import numpy.random
        def deferred():
            names = ("numpy.random", "numpy.polynomial", "argparse", "secrets", "_hashlib")
            return sorted(m for m in sys.modules if m in names or m.split(".")[0] == "scipy")
        import wavecontrol.cli as cli
        seen = {"import": deferred()}
        out = sys.argv[1]
        desk = cli.ExperimentConfig()
        seen["status"] = [cli.run(desk, "eikonal", out_dir=f"{out}/eikonal")]
        seen["eikonal"] = deferred()
        for sub in cli.SUBCOMMANDS[1:]:  # verify last
            seen["status"].append(cli.run(desk, sub, out_dir=f"{out}/{sub}"))
        seen["all"] = deferred()
        print(json.dumps(seen))
    """
    seen = {}
    for mode in ("fresh", "preload"):
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / mode), mode],
            cwd=src,
            capture_output=True,
            text=True,
            check=True,
        )
        seen[mode] = json.loads(out.stdout.strip().splitlines()[-1])
    assert seen["fresh"]["import"] == seen["fresh"]["eikonal"] == seen["fresh"]["all"] == []
    assert seen["fresh"]["status"] == seen["preload"]["status"] == [0] * len(cli.SUBCOMMANDS)
    reports = [(tmp_path / mode / "verify" / "report.json").read_bytes() for mode in seen]
    assert reports[0] == reports[1]


def test_verify_draw_source():
    # the stdlib-backed source that verify draws from: seeded, standard
    # normal within 5 sigma over 4e5 draws, integers in [low, high), and
    # accepted by the waveop helpers in place of a numpy Generator
    draws = cli._Draws(7)
    z = draws.standard_normal((400, 1000))
    assert z.shape == (400, 1000)
    assert np.array_equal(z, cli._Draws(7).standard_normal((400, 1000)))
    assert not np.array_equal(z[:2, :5], cli._Draws(8).standard_normal((2, 5)))
    n = z.size
    assert abs(z.mean()) <= 5 / np.sqrt(n)
    assert abs(z.var() - 1.0) <= 5 * np.sqrt(2.0 / n)
    assert cli._Draws(3).standard_normal((3,)).shape == (3,)  # odd counts too
    ks = [draws.integers(2, 9) for _ in range(500)]
    assert min(ks) == 2 and max(ks) == 8
    basis = cli.build_basis(ExperimentConfig(nx=33, n_modes=8))
    f = waveop.random_control(basis, 0.75, cli._Draws(0), n_steps=64)
    assert f.samples.shape == (2, 65) and np.isfinite(f.samples).all()
    assert np.array_equal(f.samples, cli._Draws(0).standard_normal((2, 65)))


def test_scipy_loads_only_where_an_operator_is_factored(tmp_path):
    # the desk interval runs on analytic modes and a 1D lift by elimination,
    # so neither the import nor h1star nor verify should pay for scipy, nor
    # the square_bump eikonal and eigensolve refusal; an fd eigensolve on
    # variable coefficients does load scipy.linalg (and with it numpy.random,
    # which scipy's array-API layer imports)
    src = str(Path(wavecontrol.__file__).resolve().parents[1])
    code = """if True:
        import json, sys
        import wavecontrol.cli as cli
        def scipy_modules():
            return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        out = sys.argv[1]
        seen = {"import": scipy_modules()}
        desk = cli.ExperimentConfig(nx=65, n_modes=16, target="ramp")
        seen["status"] = [cli.run(desk, sub, out_dir=f"{out}/{sub}") for sub in ("h1star", "verify")]
        bump2d = {"preset": "square_bump", "n_modes": 8}
        seen["status"].append(cli.run(cli.ExperimentConfig(**bump2d, nx=33, ny=33), "eikonal",
                                      out_dir=f"{out}/eikonal"))
        try:  # 71^2 interior unknowns: past the dense-eigensolve cap
            cli.run(cli.ExperimentConfig(**bump2d, nx=73, ny=73), "eigen", out_dir=f"{out}/cap")
        except ValueError as exc:
            seen["refusal"] = str(exc)
        seen["unfactored"] = scipy_modules() + [m for m in ("numpy.random",) if m in sys.modules]
        bump = cli.ExperimentConfig(preset="interval_bump", nx=65, n_modes=16)
        seen["status"].append(cli.run(bump, "eigen", out_dir=f"{out}/eigen"))
        seen["bump_linalg"] = "scipy.linalg" in sys.modules
        print(json.dumps(seen))
    """
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        cwd=src,
        capture_output=True,
        text=True,
        check=True,
    )
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    # 16 modes are too few for verify's finite-speed and bump bounds (exit 1),
    # but every run completes
    assert seen["status"] in ([0, 0, 0, 0], [0, 1, 0, 0])
    assert "limited to 5000 interior unknowns" in seen["refusal"]
    assert seen["import"] == []
    assert seen["unfactored"] == []
    assert seen["bump_linalg"]

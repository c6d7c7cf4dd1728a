"""Config parsing, subcommands, exit codes, and output files."""

import ast
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pseudomodes import ConfigError, lorentzian_to_poles, LorentzianSum, LorentzianTerm
import pseudomodes.cli
from pseudomodes._util import _Streams
from pseudomodes.cli import (
    MAX_CONFIG_DEPTH,
    RunConfig,
    build_model,
    cmd_map,
    cmd_validate,
    load_config,
    main,
    resolve_generator_kind,
    serialize_config,
    _observable_ops,
)
from pseudomodes.errors import ClassificationError, RegularizationError
from pseudomodes import dynamics
from pseudomodes.dynamics import (FRAMES, KINDS, MAX_TAYLOR_INTERVALS, Generator,
                                  build_generator, taylor_plan)
from pseudomodes.hilbert import Sector, SpaceLayout, basis_state
from pseudomodes.mapping import build_discrete_modes, two_mode_regularize
from pseudomodes.trajectories import NoJumpPropagator

SINGLE_DOC = {
    "spectral": {
        "type": "lorentzian_sum",
        "terms": [{"weight": 1.0, "center": 1.0, "width": 4.0}],
    },
    "system": {
        "energies": [0.0, 1.0],
        "channels": [{"frequency": 1.0, "strength": 1.0}],
    },
}

BAND_GAP_DOC = {
    "spectral": {
        "type": "lorentzian_sum",
        "terms": [
            {"weight": 2.0, "center": 1.0, "width": 2.0},
            {"weight": -1.0, "center": 1.0, "width": 1.0},
        ],
    },
    "system": {
        "energies": [0.0, 1.0],
        "channels": [{"frequency": 1.0, "strength": 1.0}],
    },
}

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

INFEASIBLE_DOC = {
    "spectral": {
        "type": "lorentzian_sum",
        "terms": [
            {"weight": 2.0, "center": 1.0, "width": 3.0},
            {"weight": -1.0, "center": 1.0, "width": 1.0},
        ],
    },
    "system": {
        "energies": [0.0, 1.0],
        "channels": [{"frequency": 1.0, "strength": 1.0}],
    },
}


def write_doc(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def with_run(doc, **run):
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in doc.items()}
    out["spectral"] = dict(doc["spectral"])
    out["system"] = dict(doc["system"])
    out["run"] = run
    return out


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_doc(tmp_path, SINGLE_DOC))
    assert isinstance(cfg, RunConfig)
    assert cfg.generator_kind == "auto"
    assert cfg.frame == "schrodinger"
    assert cfg.t_max == 10.0
    assert cfg.n_steps == 100
    assert cfg.fock_levels == 2
    assert cfg.initial_level == 1
    assert cfg.n_traj == 500
    assert cfg.seed == 0
    assert cfg.out_path is None
    assert cfg.observable_names is None
    assert cfg.system.dim == 2


def test_load_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("spectral: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, {"system": SINGLE_DOC["system"]}, "a.yaml"))
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, with_run(SINGLE_DOC, generator="magic"), "b.yaml"))
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, with_run(SINGLE_DOC, frame="rotating"), "c.yaml"))
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, with_run(SINGLE_DOC, t_max=-1.0), "d.yaml"))
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, with_run(SINGLE_DOC, n_steps=0), "e.yaml"))
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, with_run(SINGLE_DOC, initial_level=7), "f.yaml"))
    with pytest.raises(ConfigError, match=r"^run\.fock_levels must be at least 1"):
        load_config(write_doc(tmp_path, with_run(SINGLE_DOC, fock_levels=0), "g.yaml"))
    with pytest.raises(ConfigError, match=r"^run\.fock_levels\[1\] must be at least 1"):
        load_config(write_doc(tmp_path, with_run(BAND_GAP_DOC, fock_levels=[2, -1]), "g.yaml"))
    # physically inconsistent model data also surfaces as a config error
    doc = {
        "spectral": SINGLE_DOC["spectral"],
        "system": {"energies": [0.0, 1.0],
                   "channels": [{"frequency": 1.0, "strength": -2.0}]},
    }
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, doc, "h.yaml"))


@pytest.mark.parametrize("command", ["evolve", "trajectories"])
@pytest.mark.parametrize("block,key,value", [
    ("run", "t_max", math.nan),
    ("run", "t_max", math.inf),
    ("run", "step_scale", math.nan),  # a deleted key: refused as unknown, by name
    ("run", "step_scale", math.inf),
    ("trajectories", "seed", -1),
])
def test_bad_numeric_values_exit_2_naming_the_key(tmp_path, capsys, block, key,
                                                  value, command):
    doc = with_run(SINGLE_DOC, t_max=1.0, n_steps=10)
    doc["trajectories"] = {"n_traj": 5}
    doc[block][key] = value
    code = main([command, write_doc(tmp_path, doc), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and f"{block}.{key}" in err


RAW_POLES_DOC = {
    "spectral": {"type": "raw_poles",
                 "poles": [{"center": 1.0, "width": 4.0, "residue": [0.0, 1.0]}]},
    "system": SINGLE_DOC["system"],
}


def doc_with(tmp_path, path, value):
    """band_gap.yaml, or a raw-pole document for a pole key, with ``path`` set."""
    doc = (json.loads(json.dumps(RAW_POLES_DOC)) if "poles[" in path else
           yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8")))
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    return write_doc(tmp_path, doc)


@pytest.mark.parametrize("path", [
    "trajectory", "spectral.poles", "spectral.terms[0].wdth", "spectral.poles[0].weight",
    "system.channel", "system.channels[0].freq", "run.n_step", "run.step_scale",
    "trajectories.ntraj", "output.paths",
])
def test_unknown_keys_exit_2_naming_the_key_path(tmp_path, capsys, path):
    config = doc_with(tmp_path, path, 3)
    with pytest.raises(ConfigError, match=rf"^unknown key '{re.escape(path)}'"):
        load_config(config)
    code = main(["evolve", config, "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1 and f"'{path}'" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("path,value,message", [
    ("spectral.terms[1].width", "x", "spectral.terms[1].width must be a number"),
    ("spectral.poles[0].center", None, "spectral.poles[0].center must be a number"),
    ("system.channels[0].strength", True, "system.channels[0].strength must be a number"),
    ("run.fock_levels", [2, 2.5], "run.fock_levels[1] must be an integer"),
])
def test_type_errors_name_the_full_key_path(tmp_path, path, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(doc_with(tmp_path, path, value))


def tls_with_t_max(tmp_path, t_max):
    """tls_lorentzian.yaml with its run.t_max written as the YAML text ``t_max``."""
    text = (CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8")
    path = tmp_path / "t_max.yaml"
    path.write_text(text.replace("t_max: 2.5", f"t_max: {t_max}"), encoding="utf-8")
    return path


@pytest.mark.parametrize("text,value", [
    ("1e-3", 1e-3), ("2E5", 2e5), ("1e300", 1e300), ("1.5E3", 1500.0), (".5e1", 5.0),
])
def test_yaml_1_2_floats_are_numbers(tmp_path, text, value):
    assert yaml.safe_load(f"t_max: {text}") == {"t_max": text}  # YAML 1.1 reads a string
    assert load_config(tls_with_t_max(tmp_path, text)).t_max == value


@pytest.mark.parametrize("text", ['"1e-3"', "'2E5'", "x", "1e-3x"])
def test_quoted_or_malformed_numbers_are_refused(tmp_path, capsys, text):
    path = tls_with_t_max(tmp_path, text)
    with pytest.raises(ConfigError, match=r"^run\.t_max must be a number, got '"):
        load_config(path)
    assert main(["map", str(path)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def readme_config_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config format"):]
    start = section.index("```yaml\n") + len("```yaml\n")
    return section[start:section.index("\n```", start)]


def test_readme_config_block_loads(tmp_path):
    path = tmp_path / "readme.yaml"
    path.write_text(readme_config_block(), encoding="utf-8")
    cfg = load_config(path)
    assert set(cfg.raw) == {"spectral", "system", "run", "trajectories", "output"}
    assert list(_observable_ops(cfg)) == list(cfg.observable_names)


#: The numeric fields of the run and trajectories blocks.
NUMERIC_FIELDS = [f"run.{k}" for k in
                  ("t_max", "n_steps", "fock_levels", "initial_level")]
NUMERIC_FIELDS += ["trajectories.n_traj", "trajectories.seed"]

_field_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.integers(min_value=-3, max_value=12),
    st.booleans(),
    st.text(max_size=6),
)


def test_load_config_returns_a_config_or_raises_config_error(tmp_path):
    path = tmp_path / "fuzz.yaml"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.fixed_dictionaries({}, optional={k: _field_values for k in NUMERIC_FIELDS}))
    def check(fields):
        doc = with_run(SINGLE_DOC)
        doc["trajectories"] = {}
        for name, value in fields.items():
            block, key = name.split(".")
            doc[block][key] = value
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        try:
            cfg = load_config(path)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    check()


#: One field set to a value every command must refuse.
BREAKAGES = (
    ("spectral", "terms", [{"weight": 1.0, "center": 1.0, "width": 0.0}]),
    ("run", "generator", "bogus"),
    ("run", "frame", "bogus"),
    ("run", "fock_levels", 0),
    ("trajectories", "n_traj", 0),
    ("trajectories", "seed", -1),
    ("spectral", "terms", [{"weight": 1.0, "center": 1.0, "width": 1e300}]),
    ("spectral", "terms", [{"weight": 1.0, "center": 1e300, "width": 1.0}]),
)


@pytest.mark.parametrize("command", ["map", "evolve", "trajectories", "validate"])
@pytest.mark.parametrize("block,key,value", BREAKAGES)
def test_every_command_refuses_each_breakage(tmp_path, capsys, block, key, value, command):
    doc = with_run(SINGLE_DOC, t_max=1.0, n_steps=10)
    doc["trajectories"] = {"n_traj": 5}
    doc[block][key] = value
    assert main([command, write_doc(tmp_path, doc), "--out", str(tmp_path / "x.out")]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@st.composite
def _documents(draw):
    """Small whole run documents: one to three Lorentzian lines on a two-level system."""
    terms = [
        {"weight": draw(st.floats(-1.5, 2.0)), "center": draw(st.floats(-2.0, 2.0)),
         "width": draw(st.floats(0.5, 4.0))}
        for _ in range(draw(st.integers(1, 3)))
    ]
    terms[-1]["weight"] = 1.0 - sum(t["weight"] for t in terms[:-1])
    gap = draw(st.floats(0.5, 2.0))
    doc = {
        "spectral": {"type": "lorentzian_sum", "terms": terms},
        "system": {"energies": [0.0, gap],
                   "channels": [{"frequency": gap, "strength": draw(st.floats(0.0, 2.0))}]},
        "run": {"generator": draw(st.sampled_from(("auto",) + KINDS)),
                "frame": draw(st.sampled_from(FRAMES)),
                "t_max": draw(st.floats(0.0, 2.0)),
                "n_steps": draw(st.integers(1, 8)),
                "fock_levels": draw(st.integers(1, 2))},
        "trajectories": {"n_traj": draw(st.integers(1, 6)),
                         "seed": draw(st.integers(0, 2**64))},
    }
    broken = draw(st.none() | st.sampled_from(BREAKAGES))
    if broken is not None:
        block, key, value = broken
        doc[block][key] = value
    return doc


def test_main_returns_an_exit_code_for_any_document(tmp_path, capsys):
    path = tmp_path / "doc.yaml"
    out = str(tmp_path / "out.csv")

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(["map", "evolve", "trajectories", "validate"]), _documents())
    def check(command, doc):
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main([command, str(path), "--out", out]) in range(5)
        capsys.readouterr()

    check()


def test_raw_poles_config_matches_lorentzian_path(tmp_path):
    density = LorentzianSum((
        LorentzianTerm(weight=2.0, center=1.0, width=2.0),
        LorentzianTerm(weight=-1.0, center=1.0, width=1.0),
    ))
    expected = lorentzian_to_poles(density)
    doc = {
        "spectral": {
            "type": "raw_poles",
            "poles": [
                {"center": p.z.real, "width": -p.z.imag,
                 "residue": [p.residue.real, p.residue.imag]}
                for p in expected.poles
            ],
        },
        "system": BAND_GAP_DOC["system"],
    }
    cfg = load_config(write_doc(tmp_path, doc))
    assert cfg.density is None
    for got, want in zip(cfg.pole_set.poles, expected.poles):
        assert got.z == pytest.approx(want.z, abs=1e-15)
        assert got.residue == pytest.approx(want.residue, abs=1e-15)
    report = cmd_map(cfg)
    assert report.regularized is not None


def test_observable_tokens(tmp_path):
    doc = dict(SINGLE_DOC)
    doc["output"] = {"observables": ["pop_1", "coh_0_1"]}
    cfg = load_config(write_doc(tmp_path, doc))
    ops = _observable_ops(cfg)
    np.testing.assert_array_equal(ops["pop_1"], np.diag([0.0, 1.0]))
    want = np.zeros((2, 2), dtype=complex)
    want[1, 0] = 1.0  # tr(rho op) = <0|rho|1>
    np.testing.assert_array_equal(ops["coh_0_1"], want)
    cfg_default = load_config(write_doc(tmp_path, SINGLE_DOC, "d.yaml"))
    assert list(_observable_ops(cfg_default)) == ["pop_0", "pop_1"]
    for bad in ("pop_5", "xyz", "coh_0", "coh_a_b"):
        doc_bad = dict(SINGLE_DOC)
        doc_bad["output"] = {"observables": [bad]}
        with pytest.raises(ConfigError, match=f"^unknown observable '{bad}'"):
            load_config(write_doc(tmp_path, doc_bad, "bad_obs.yaml"))


@pytest.mark.parametrize("command", ["map", "evolve", "trajectories", "validate"])
def test_unknown_observable_exits_2_from_every_subcommand(tmp_path, capsys, command):
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["output"]["observables"] = ["bogus"]
    code = main([command, write_doc(tmp_path, doc), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: unknown observable 'bogus' (expected pop_<n>")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_validate_horizon_stops_at_t_max(tmp_path, monkeypatch):
    # A line 1e-7 wide decays over 5 / lambda_min = 5e7 time units: without
    # the cap each of the oracle's 50 rows spans 1e6, and its exponential
    # needs 202,021 Taylor sub-intervals.  The spy fails at the first such
    # plan instead of hanging.
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["spectral"]["terms"][0]["width"] = 1.0e-7
    spans = []
    plan = taylor_plan

    def counting(norm_rate, span):
        m, s = plan(norm_rate, span)
        assert s <= 1, f"{s} Taylor sub-intervals in one row"
        spans.append(s)
        return m, s

    monkeypatch.setattr(pseudomodes.dynamics, "taylor_plan", counting)
    summary = cmd_validate(load_config(write_doc(tmp_path, doc)))
    assert summary.passed
    # The oracle's 50 rows on [0, t_max] have 7 distinct spans but are one
    # uniform run, which forms U = exp(-i h D_l) once, the one history of a
    # Lindblad kind: one plan checks the span, one runs it.
    assert len(set(np.diff(np.linspace(0.0, doc["run"]["t_max"], 51)).tolist())) == 7
    assert len(spans) == 2


@pytest.mark.parametrize("command", ["map", "evolve", "trajectories", "validate"])
def test_validate_checks_no_time_past_t_max(tmp_path, capsys, command):
    # A weak coupling and one quantum per mode stay under the truncation
    # guard up to t_max 0.2, but not to 0.32: the equivalence grid, which
    # spans twice the horizon, ends at t_max like every other grid.
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    doc["system"]["channels"][0]["strength"] = 3e-3
    doc["run"].update(fock_levels=1, t_max=0.2, n_steps=50)
    assert main([command, write_doc(tmp_path, doc), "--out", str(tmp_path / "x.out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("horizon", [2.5, 5.0])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 1, 2**200, 20260817],
                         ids=["0", "7", "2**32-1", "2**32", "2**64+1", "2**200", "20260817"])
def test_validate_lags_are_numpys_default_rng_stream(seed, horizon):
    # validate's draw rule, pair k = horizon * draws 0 and 1 of stream k, is
    # numpy's default_rng over the Philox bit generator of that stream.
    n = np.arange(100)
    draws = (horizon * _Streams(seed, 50).draw(n // 2, n % 2)).reshape(50, 2)
    ref = np.array([np.random.default_rng(np.random.Philox(np.random.SeedSequence(
        seed, spawn_key=(k,)))).uniform(0.0, horizon, 2) for k in range(50)])
    assert draws.tobytes() == ref.tobytes()


@pytest.mark.parametrize("horizon", [2.5, 5.0])
def test_validate_lags_are_the_philox_streams(tmp_path, monkeypatch, horizon):
    # Pair k is draws 0 and 1 of the Philox stream SeedSequence(20260817,
    # spawn_key=(k,)), the trajectories' generator, bit for bit.
    lags = []
    mode_correlation = pseudomodes.cli.mode_correlation

    def keep(modes, j, k, tau):
        lags.append(tau.copy())
        return mode_correlation(modes, j, k, tau)

    monkeypatch.setattr(pseudomodes.cli, "mode_correlation", keep)
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    doc["run"]["t_max"] = horizon  # below 5 / lambda_min, so it is the horizon
    cmd_validate(load_config(write_doc(tmp_path, doc)))
    pairs = np.array([np.random.Generator(np.random.Philox(np.random.SeedSequence(
        20260817, spawn_key=(k,)))).uniform(0.0, horizon, 2) for k in range(50)])
    ref = (pairs[:, 0] + pairs[:, 1]) - pairs[:, 0]
    assert len(lags) == 1 and lags[0].tobytes() == ref.tobytes()


def test_no_subcommand_imports_numpy_random(tmp_path):
    # pytest itself imports numpy.random, so the runs need a fresh process.
    env = dict(os.environ, PYTHONPATH=str(Path(pseudomodes.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "from pseudomodes.cli import main\n"
        f"for config in ({str(CONFIGS / 'band_gap.yaml')!r}, "
        f"{str(CONFIGS / 'tls_lorentzian.yaml')!r}):\n"
        "    for command in ('map', 'evolve', 'trajectories', 'validate'):\n"
        f"        assert main([command, config, '--out', {str(tmp_path / 'x.out')!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["map", "evolve", "trajectories", "validate"])
def test_a_run_without_a_time_axis_runs_every_subcommand(tmp_path, capsys, command):
    # t_max 0 leaves the horizon 5 / lambda_min = 5e7 uncapped; validate has
    # no dynamics to check, so it reports its two dynamical checks as skipped.
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["spectral"]["terms"][0]["width"] = 1.0e-7
    doc["run"]["t_max"] = 0.0
    out = tmp_path / "x.out"
    assert main([command, write_doc(tmp_path, doc), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command == "validate":
        report = json.loads(out.read_text(encoding="utf-8"))
        statuses = {c["name"]: (c["status"], c["detail"]) for c in report["checks"]}
        for name in ("generator_equivalence", "oracle_population"):
            assert statuses[name] == ("skip", "the run has no time axis (t_max 0)")
        assert report["passed"]


def test_generator_kind_resolution():
    def modes_for(terms):
        density = LorentzianSum(tuple(LorentzianTerm(*t) for t in terms))
        return build_discrete_modes(lorentzian_to_poles(density), (1.0,))

    system = load_config(CONFIGS / "band_gap.yaml").system

    def kind_of(mode_set):
        layout = SpaceLayout(2, (2,) * len(mode_set))
        return build_generator(system, mode_set, layout, [(1,) + (0,) * len(mode_set)]).kind

    single = modes_for([(1.0, 1.0, 4.0)])
    assert resolve_generator_kind("auto", single) is single
    assert kind_of(single) == "lindblad_direct"
    gap = modes_for([(2.0, 1.0, 2.0), (-1.0, 1.0, 1.0)])
    rotated = resolve_generator_kind("auto", gap)
    expected = two_mode_regularize(gap)
    for mode_set in (rotated, resolve_generator_kind("lindblad_regularized", gap)):
        assert np.array_equal(mode_set.frequency_matrix, expected.frequency_matrix)
        assert np.array_equal(mode_set.coupling_matrix, expected.coupling_matrix)
        assert kind_of(mode_set) == "lindblad_regularized"
    infeasible = modes_for([(2.0, 1.0, 3.0), (-1.0, 1.0, 1.0)])
    assert resolve_generator_kind("auto", infeasible) is infeasible
    assert kind_of(infeasible) == "pathological"
    with pytest.raises(RegularizationError):
        resolve_generator_kind("lindblad_regularized", infeasible)
    triple = modes_for([(2.0, 0.0, 2.0), (-0.5, 0.0, 1.0), (-0.5, 0.0, 0.5)])
    assert len(triple) == 3
    assert resolve_generator_kind("auto", triple) is triple
    assert kind_of(triple) == "pathological"
    assert resolve_generator_kind("pathological", gap) is gap
    assert resolve_generator_kind("pathological", single) is single  # builds direct
    with pytest.raises(ClassificationError):
        resolve_generator_kind("lindblad_direct", gap)


def test_fock_levels_list_must_match_mode_count(tmp_path):
    doc = with_run(BAND_GAP_DOC, fock_levels=[2, 2, 2])
    cfg = load_config(write_doc(tmp_path, doc))
    with pytest.raises(ConfigError):
        build_model(cfg)


@pytest.mark.parametrize("command", ["map", "evolve", "trajectories", "validate"])
def test_a_fock_levels_list_of_the_wrong_length_is_refused_alike(tmp_path, capsys, command):
    # map builds the generator's layout to bound its norm, so it refuses the
    # list as the subcommands that propagate do, with a time axis or without.
    for t_max in (10.0, 0.0):
        doc = with_run(BAND_GAP_DOC, fock_levels=[2, 2, 2], t_max=t_max)
        assert main([command, write_doc(tmp_path, doc), "--out", str(tmp_path / "x.out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: run.fock_levels lists 3 modes but the "
                                "density has 2\n"), t_max
        assert captured.out == "" and not (tmp_path / "x.out").exists()


def test_cmd_map_band_gap_fields(tmp_path):
    cfg = load_config(write_doc(tmp_path, BAND_GAP_DOC))
    report = cmd_map(cfg)
    assert report.modes.classification == "complex"
    assert report.positivity.passed
    reg = report.regularized
    assert reg is not None
    assert reg.coupling_matrix[0, 0] == 0.0
    assert reg.coupling_matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert reg.frequency_matrix[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert reg.rates[0] == pytest.approx(0.0, abs=1e-12)
    assert reg.rates[1] == pytest.approx(3.0, abs=1e-12)
    assert report.rotation_check.max_deviation < 1e-8
    assert "regularized modes:" in report.text
    assert report.text.endswith("\n")


def test_cmd_map_real_family_has_no_rotation_section(tmp_path):
    cfg = load_config(write_doc(tmp_path, SINGLE_DOC))
    report = cmd_map(cfg)
    assert report.modes.classification == "all_real"
    assert report.regularized is None
    assert report.rotation_check is None
    assert "regularized" not in report.text


def test_main_map_writes_report(tmp_path, capsys):
    out = tmp_path / "map.txt"
    code = main(["map", write_doc(tmp_path, BAND_GAP_DOC), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == stdout
    assert "intermode hopping" in stdout


def test_main_evolve_writes_csv_and_plot(tmp_path, capsys):
    doc = with_run(SINGLE_DOC, t_max=2.0, n_steps=20)
    doc["output"] = {"observables": ["pop_1"]}
    csv_path = tmp_path / "trace.csv"
    code = main(["evolve", write_doc(tmp_path, doc), "--out", str(csv_path)])
    assert code == 0
    capsys.readouterr()
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,pop_1_re,pop_1_im,top_fock_pop,trace_err"
    assert len(lines) == 22  # header + 21 samples
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.0
    assert (tmp_path / "trace_plot.py").exists()


@pytest.mark.parametrize("name", ['we"ird.csv', "a\\N.csv", 'q"""\\x.csv', "tab\tand é.csv"])
def test_plot_script_is_valid_python_for_any_output_name(tmp_path, capsys, name):
    doc = with_run(SINGLE_DOC, t_max=1.0, n_steps=2)
    assert main(["evolve", write_doc(tmp_path, doc), "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    plot = (tmp_path / name).with_name(Path(name).stem + "_plot.py")
    tree = ast.parse(plot.read_text(encoding="utf-8"))
    compile(tree, str(plot), "exec")
    assert ast.get_docstring(tree, clean=False) == f"Plot the observable columns of {name}."
    assert name in [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]


def test_plot_script_of_an_ordinary_name_is_unchanged(tmp_path, capsys):
    doc = with_run(SINGLE_DOC, t_max=1.0, n_steps=2)
    assert main(["evolve", write_doc(tmp_path, doc), "--out", str(tmp_path / "tr.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "tr_plot.py").read_text(encoding="utf-8") == (
        pseudomodes.cli._PLOT_TEMPLATE.replace("{csv_name}", "tr.csv"))


def test_main_missing_output_path_is_config_error(tmp_path, capsys):
    code = main(["evolve", write_doc(tmp_path, SINGLE_DOC)])
    assert code == 2
    capsys.readouterr()


def test_main_exit_code_sequence(tmp_path, capsys):
    assert main(["map", str(tmp_path / "nope.yaml")]) == 2
    assert main(["map", write_doc(tmp_path, INFEASIBLE_DOC, "inf.yaml")]) == 3
    capsys.readouterr()


def test_main_truncation_abort(tmp_path, capsys):
    doc = with_run(SINGLE_DOC, fock_levels=1, t_max=2.0, n_steps=20)
    config = write_doc(tmp_path, doc)
    tails = {}
    for command in ("evolve", "trajectories"):
        csv_path = tmp_path / f"{command}.csv"
        assert main([command, config, "--out", str(csv_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("truncation abort: ") and err.count("\n") == 1
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith("# ABORTED t=")
        assert len(lines) >= 3  # header, the clean prefix, the abort line
        top = lines[0].split(",").index("top_fock_pop")
        assert all(float(row.split(",")[top]) <= 1e-6 for row in lines[1:-1])
        tails[command] = lines[-1].split()[2]
    assert tails["evolve"] == tails["trajectories"] == "t=0.10000000000000001"


def test_main_validate_passes_and_fails(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = main(["validate", write_doc(tmp_path, BAND_GAP_DOC), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["passed"] is True
    assert doc["classification"] == "complex"
    assert doc["n_modes"] == 2
    names = [c["name"] for c in doc["checks"]]
    assert "spectral_positivity" in names
    assert "correlation_equivalence" in names
    assert "rotation_closed_forms" in names
    assert "generator_equivalence" in names
    assert "oracle_population" in names
    for c in doc["checks"]:
        assert c["status"] in ("pass", "skip")
        assert set(c) == {"name", "status", "residual", "tolerance", "detail"}

    code = main(["validate", write_doc(tmp_path, INFEASIBLE_DOC, "inf.yaml"),
                 "--out", str(out)])
    assert code == 1
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["passed"] is False
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["spectral_positivity"]["status"] == "fail"
    assert by_name["rotation_closed_forms"]["status"] == "skip"


@pytest.mark.parametrize("command", ["map", "evolve", "trajectories", "validate"])
@pytest.mark.parametrize("config", ["band_gap.yaml", "tls_lorentzian.yaml"])
def test_interaction_frame_runs_every_subcommand(tmp_path, capsys, command, config):
    doc = yaml.safe_load((CONFIGS / config).read_text(encoding="utf-8"))
    doc["run"]["frame"] = "interaction"
    doc["output"]["path"] = str(tmp_path / "out.csv")
    assert main([command, write_doc(tmp_path, doc)]) == 0
    capsys.readouterr()


def test_trajectories_run_at_an_exceptional_point(tmp_path, capsys):
    # width 2.0 critically damps the single line: the drift is defective,
    # which an eigendecomposition-based propagator refused with exit 2
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["spectral"]["terms"][0]["width"] = 2.0
    path = write_doc(tmp_path, doc)
    columns = {}
    for command in ("evolve", "trajectories"):
        out = tmp_path / f"{command}.csv"
        assert main([command, path, "--out", str(out)]) == 0
        columns[command] = np.genfromtxt(out, delimiter=",", names=True)
    exact = columns["evolve"]["pop_1_re"]
    ens = columns["trajectories"]
    assert np.all(np.abs(ens["pop_1_re"] - exact) <= 3.0 * ens["pop_1_se"])


def test_trajectories_run_a_row_of_a_million_time_units(tmp_path, capsys):
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["run"].update(t_max=1e6, n_steps=1)
    doc["trajectories"]["n_traj"] = 20
    out = tmp_path / "long.csv"
    assert main(["trajectories", write_doc(tmp_path, doc), "--out", str(out)]) == 0
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert rows["t"].tolist() == [0.0, 1e6]
    assert rows["pop_1_re"].tolist() == [1.0, 0.0]


def test_validate_rotates_an_infeasible_pair_once(tmp_path, monkeypatch):
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    doc["spectral"]["terms"][0]["width"] = 3.0
    calls = []
    regularize = pseudomodes.cli.two_mode_regularize

    def counting(modes):
        calls.append(modes)
        return regularize(modes)

    monkeypatch.setattr(pseudomodes.cli, "two_mode_regularize", counting)
    summary = cmd_validate(load_config(write_doc(tmp_path, doc)))
    assert len(calls) == 1
    by_name = {c.name: c for c in summary.checks}
    assert by_name["rotation_closed_forms"].status == "skip"
    assert by_name["generator_equivalence"].status == "skip"
    assert by_name["oracle_population"].status == "pass"


def test_validate_builds_each_generator_once(tmp_path, monkeypatch):
    # band_gap: the uncorrected and the rotated generator; the oracle check
    # reuses the rotated one
    built = []
    build = pseudomodes.cli.build_generator

    def counting(system, modes, layout, *args):
        gen = build(system, modes, layout, *args)
        built.append(gen.kind)
        return gen

    monkeypatch.setattr(pseudomodes.cli, "build_generator", counting)
    summary = cmd_validate(load_config(CONFIGS / "band_gap.yaml"))
    assert built == ["pathological", "lindblad_regularized"]
    assert summary.passed
    built.clear()
    cmd_validate(load_config(CONFIGS / "tls_lorentzian.yaml"))
    assert built == ["lindblad_direct"]


#: band_gap.yaml changes whose rows need more than MAX_TAYLOR_INTERVALS Taylor
#: sub-intervals: one row of 1e300 time units, or couplings of 1e150.
LONG_ROWS = {
    "t_max": lambda doc: doc["run"].update(t_max=1e300, n_steps=1),
    "strength": lambda doc: doc["system"]["channels"][0].update(strength=1e150),
}


@pytest.mark.parametrize("command,case", [
    ("evolve", "t_max"), ("trajectories", "t_max"),
    ("evolve", "strength"), ("trajectories", "strength"), ("validate", "strength"),
])
def test_long_rows_are_refused_naming_the_longest_row_that_fits(tmp_path, capsys,
                                                                monkeypatch, command, case):
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    LONG_ROWS[case](doc)
    path = write_doc(tmp_path, doc)
    norms = []
    plan = taylor_plan

    def spy(norm_rate, span):
        norms.append(norm_rate)
        return plan(norm_rate, span)

    monkeypatch.setattr(pseudomodes.dynamics, "taylor_plan", spy)
    assert main([command, path, "--out", str(tmp_path / "long.out")]) == 2
    err = capsys.readouterr().err
    match = re.fullmatch(r"error: a row of \S+ time units is too long for the norm bound "
                         r"\S+; rows of at most (\S+) time units fit\n", err)
    assert match, err
    named = float(match.group(1))
    # The norm bound the refusing propagator planned on accepts the named row.
    assert plan(norms[-1], named)[1] <= MAX_TAYLOR_INTERVALS
    if command == "trajectories":  # and the no-jump propagator runs it
        gen = build_model(load_config(path))
        prop = NoJumpPropagator(gen.drift())
        assert np.isfinite(prop.apply(basis_state(gen.sector, 1), named)).all()


@pytest.mark.parametrize("t_max", [1e12, 1e300])
def test_trajectories_refuse_a_row_too_long_for_the_no_jump_propagator(tmp_path, capsys,
                                                                       t_max):
    # exp(-i D dt) is the 2**k-th power of exp(-i D dt / 2**k); beyond
    # MAX_TAYLOR_INTERVALS sub-intervals the squarings would lose the norm (a
    # no-jump norm of 0.66634 for the exact 2/3 at t_max = 1e12).
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    doc["run"].update(t_max=t_max, n_steps=1)
    path = write_doc(tmp_path, doc)
    assert main(["trajectories", path, "--out", str(tmp_path / "long.csv")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: a row of \S+ time units is too long for the norm bound "
                        r"\S+; rows of at most \S+ time units fit\n", err), err


def test_a_density_scan_beyond_the_float_range_ends_without_warnings(tmp_path, capsys):
    # Widths of 1e153 overflow (w - xi)**2 + lambda**2 in the density scan of
    # map and validate; the suite turns any warning into an error.
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    doc["spectral"]["terms"][0]["width"] = 1e153
    doc["spectral"]["terms"][1]["width"] = 1e152
    path = write_doc(tmp_path, doc)
    codes = {command: main([command, path, "--out", str(tmp_path / f"{command}.out")])
             for command in ("map", "evolve", "trajectories", "validate")}
    assert codes == {"map": 3, "evolve": 2, "trajectories": 2, "validate": 0}
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        "regularization infeasible", "error", "invalid model"]  # one line per refusal
    report = json.loads((tmp_path / "validate.out").read_text(encoding="utf-8"))
    assert report["checks"][0]["name"] == "spectral_positivity"
    assert report["checks"][0]["status"] == "pass"


def test_a_line_narrower_than_the_float_range_reads_inf_at_its_center(tmp_path, capsys):
    # D = 2 / width at the center of a line of width 1e-320 is beyond the
    # float range: +inf, not nan, and the scan passes without a warning (the
    # suite turns any warning into an error).  Every grid point is omega = 1.
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["spectral"]["terms"][0]["width"] = 1.0e-320
    path = write_doc(tmp_path, doc)
    assert main(["map", path, "--out", str(tmp_path / "map.out")]) == 0
    assert main(["validate", path, "--out", str(tmp_path / "validate.out")]) == 0
    capsys.readouterr()
    assert ("density positivity: min inf at omega=1 over 1000 points -> pass\n"
            in (tmp_path / "map.out").read_text(encoding="utf-8"))
    report = json.loads((tmp_path / "validate.out").read_text(encoding="utf-8"))
    assert report["checks"][0] == {"name": "spectral_positivity", "status": "pass",
                                   "residual": 0.0, "tolerance": 1e-12,
                                   "detail": "min density inf at omega=1"}


@pytest.mark.parametrize("command", ["map", "evolve", "trajectories", "validate"])
def test_an_infinite_norm_bound_is_refused_alike(tmp_path, capsys, command):
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    doc["system"]["energies"] = [0.0, 1e300]
    assert main([command, write_doc(tmp_path, doc), "--out", str(tmp_path / "x.out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unusable norm bound inf\n" and captured.out == ""
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("command", ["evolve", "trajectories"])
def test_a_grid_too_large_to_hold_is_a_config_error(tmp_path, capsys, command):
    # 2**60 rows: numpy refuses the grid's size before it allocates anything.
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    doc["run"]["n_steps"] = 2**60
    assert main([command, write_doc(tmp_path, doc), "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"config error: run.n_steps is {2**60}: "), captured.err
    assert not (tmp_path / "x.csv").exists()


def test_running_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 149. GiB for an array with shape (100001, 100001)"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(pseudomodes.cli, "evolve", exhausted)
    out = tmp_path / "x.csv"
    assert main(["evolve", str(CONFIGS / "band_gap.yaml"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: out of memory: {message}\n" and captured.out == ""
    assert not out.exists()


def spy_exponentials(monkeypatch):
    """Record Generator.apply's argument shapes, the shape of each matrix
    exponentiated and the number of exponentials formed."""
    seen = {"applied": [], "built": [], "formed": 0}
    apply, exponential = Generator.apply, dynamics.exponential

    def counting(self, rho):
        seen["applied"].append(rho.shape)
        return apply(self, rho)

    def building(a):
        seen["built"].append(a.shape)
        exp = exponential(a)

        def forming(h):
            seen["formed"] += 1
            return exp(h)

        return forming

    monkeypatch.setattr(Generator, "apply", counting)
    monkeypatch.setattr(dynamics, "exponential", building)
    return seen


def test_the_row_plan_follows_the_support_not_the_cutoff(tmp_path, capsys, monkeypatch):
    # |S| = 4 at every cutoff: the same ket rows, the same bits.  One
    # exponential, U, on the 4 x 4 identity, formed once for the one uniform
    # run of the 200 rows, and no application of L.
    seen = spy_exponentials(monkeypatch)
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    rows = {}
    for levels in (2, 6):
        doc["run"]["fock_levels"] = levels
        out = tmp_path / f"fock{levels}.csv"
        seen.update(applied=[], built=[], formed=0)
        assert main(["evolve", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        assert not seen["applied"]
        assert seen["built"] == [(4, 4)] and seen["formed"] == 1
        rows[levels] = out.read_bytes()
    capsys.readouterr()
    assert rows[2] == rows[6]


@pytest.mark.parametrize("name,d,pairs,pair_evolves",
                         [("band_gap", 4, 1, 2), ("tls_lorentzian", 3, 0, 0)])
def test_each_shipped_run_takes_the_path_its_grid_pays_for(tmp_path, capsys, monkeypatch,
                                                          name, d, pairs, pair_evolves):
    # Both shipped models start with one excitation, so every evolve of
    # evolve and validate takes ket rows, with no application of L: one
    # exponential, U, per evolve of a Lindblad kind, and U and V for the
    # pathological one, each linspace grid being one uniform run.  validate
    # runs the oracle's grid (51 points) on the run's generator and, for a
    # rotated pair, the equivalence check (41 points): one more evolve of
    # that generator and one of the uncorrected, pathological one, 3
    # exponentials.
    seen = spy_exponentials(monkeypatch)
    config = str(CONFIGS / f"{name}.yaml")
    assert main(["evolve", config, "--out", str(tmp_path / "x.csv")]) == 0
    assert seen["built"] == [(d, d)] and not seen["applied"]
    seen.update(applied=[], built=[], formed=0)
    assert cmd_validate(load_config(config)).passed
    assert seen["built"] == [(d, d)] * (1 + pairs * (1 + pair_evolves))
    assert seen["formed"] == 1 + 3 * pairs
    assert not seen["applied"]
    capsys.readouterr()


def test_a_row_map_refuses_a_row_too_long_for_its_plan(tmp_path, capsys, monkeypatch):
    seen = spy_exponentials(monkeypatch)
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["run"].update(t_max=1.0e12, n_steps=25)  # 25 rows of one span, 4e10
    assert main(["evolve", write_doc(tmp_path, doc), "--out", str(tmp_path / "x.csv")]) == 2
    assert seen["built"] == [(3, 3)] and not seen["applied"]
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: a row of 4e\+10 time units is too long for the norm bound "
                        r"\S+; rows of at most \S+ time units fit\n", err), err


def test_twenty_modes_run_on_their_sector_beyond_the_int64_range(tmp_path, capsys):
    # 20 lines at fock_levels 8: 2 * 9**20 = 2.4e19 product states, past int64,
    # but one excitation reaches 22 of them, the same 22 at fock_levels 2.
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["spectral"]["terms"] = [{"weight": 0.05, "center": 0.5 + 0.05 * k,
                                 "width": 1.0 + 0.1 * k} for k in range(20)]
    rows = {}
    for levels in (2, 8):
        doc["run"]["fock_levels"] = levels
        out = tmp_path / f"twenty_{levels}.csv"
        assert main(["evolve", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        rows[levels] = out.read_bytes()
        assert build_model(load_config(write_doc(tmp_path, doc))).dim == 22
    capsys.readouterr()
    assert rows[2] == rows[8]


def test_twenty_modes_take_the_closed_form(tmp_path, capsys, monkeypatch):
    # |S| = 22 and 500 rows: U on the 22 x 22 identity, formed once for the
    # one uniform run, and no application of L.
    seen = spy_exponentials(monkeypatch)
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["spectral"]["terms"] = [{"weight": 0.05, "center": 0.5 + 0.05 * k,
                                 "width": 1.0 + 0.1 * k} for k in range(20)]
    doc["run"].update(t_max=20.0, n_steps=500)
    assert main(["evolve", write_doc(tmp_path, doc), "--out", str(tmp_path / "x.csv")]) == 0
    capsys.readouterr()
    assert seen["built"] == [(22, 22)] and seen["formed"] == 1
    assert not seen["applied"]


def test_a_pure_start_forms_no_density_row(tmp_path, capsys, monkeypatch):
    # The 20-mode run (|S| = 22) and validate of band_gap.yaml (|S| = 4) start
    # from one ket: every row is read off the kets, so the record reduces and
    # diagonalizes no |S| x |S| block; positivity takes 2 x 2 Gram matrices.
    seen = {"blocks": [], "diagonalized": []}
    reduced = Sector.reduced

    def reducing(self, block):
        seen["blocks"].append(block.shape)
        return reduced(self, block)

    def spying(fn):
        def spied(a, *args, **kwargs):
            seen["diagonalized"].append(np.shape(a)[-2:])
            return fn(a, *args, **kwargs)
        return spied

    monkeypatch.setattr(Sector, "reduced", reducing)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(dynamics.np.linalg, name, spying(getattr(np.linalg, name)))
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    doc["spectral"]["terms"] = [{"weight": 0.05, "center": 0.5 + 0.05 * k,
                                 "width": 1.0 + 0.1 * k} for k in range(20)]
    doc["run"].update(t_max=20.0, n_steps=500)
    assert main(["evolve", write_doc(tmp_path, doc), "--out", str(tmp_path / "x.csv")]) == 0
    assert cmd_validate(load_config(str(CONFIGS / "band_gap.yaml"))).passed
    capsys.readouterr()
    assert not seen["blocks"]
    assert set(seen["diagonalized"]) == {(1, 1), (2, 2)}  # the start's support, then Gram


def test_deeply_nested_yaml_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.yaml"
    path.write_text("[" * 3000 + "]" * 3000, encoding="utf-8")
    assert main(["map", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("depth", [MAX_CONFIG_DEPTH + 1, 200_000])
def test_nesting_past_the_depth_bound_exits_2_in_process(tmp_path, capsys, depth):
    # Composing 200,000 levels would overflow the C stack of PyYAML's
    # libyaml loader: the depth is refused from the parse events first.
    path = tmp_path / "deep.yaml"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    assert main(["map", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "nested too deeply" in err


def test_nesting_at_the_depth_bound_is_parsed(tmp_path):
    path = tmp_path / "deep.yaml"
    depth = MAX_CONFIG_DEPTH - 1  # within the document's mapping
    path.write_text("spectral: " + "[" * depth + "]" * depth, encoding="utf-8")
    with pytest.raises(ConfigError, match="spectral must be a mapping"):
        load_config(path)


@pytest.mark.parametrize("config", ["band_gap.yaml", "tls_lorentzian.yaml", "README"])
def test_the_config_loader_reads_what_the_python_safe_loader_reads(tmp_path, config):
    if config == "README":
        path = tmp_path / "readme.yaml"
        path.write_text(readme_config_block(), encoding="utf-8")
    else:
        path = CONFIGS / config
    text = path.read_text(encoding="utf-8")
    assert load_config(path).raw == yaml.load(text, Loader=yaml.SafeLoader)


def test_evolve_output_is_deterministic(tmp_path, capsys):
    doc = with_run(SINGLE_DOC, t_max=1.0, n_steps=10)
    cfg_path = write_doc(tmp_path, doc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["evolve", cfg_path, "--out", str(a)]) == 0
    assert main(["evolve", cfg_path, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


@pytest.mark.parametrize("command", ["map", "validate"])
@pytest.mark.parametrize("config", ["band_gap.yaml", "tls_lorentzian.yaml"])
def test_report_output_is_deterministic(tmp_path, capsys, command, config):
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert main([command, str(CONFIGS / config), "--out", str(a)]) == 0
    assert main([command, str(CONFIGS / config), "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_direct_kind_refuses_complex_couplings(tmp_path, capsys):
    doc = yaml.safe_load((CONFIGS / "band_gap.yaml").read_text(encoding="utf-8"))
    doc["run"]["generator"] = "lindblad_direct"
    path = write_doc(tmp_path, doc)
    for command in ("evolve", "trajectories"):
        assert main([command, path, "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid model: couplings are complex")
        assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_pathological_on_real_couplings_is_the_direct_generator(tmp_path, capsys):
    doc = yaml.safe_load((CONFIGS / "tls_lorentzian.yaml").read_text(encoding="utf-8"))
    auto = tmp_path / "auto.csv"
    assert main(["evolve", write_doc(tmp_path, doc, "auto.yaml"), "--out", str(auto)]) == 0
    doc["run"]["generator"] = "pathological"
    path = write_doc(tmp_path, doc, "pathological.yaml")
    explicit = tmp_path / "pathological.csv"
    assert main(["evolve", path, "--out", str(explicit)]) == 0
    assert explicit.read_bytes() == auto.read_bytes()
    assert main(["trajectories", path, "--out", str(tmp_path / "traj.csv")]) == 0
    capsys.readouterr()


def test_correlation_check_reads_the_mode_set_the_run_is_built_from(monkeypatch):
    seen = []
    real = pseudomodes.cli.mode_correlation

    def spy(modes, *args):
        seen.append(modes)
        return real(modes, *args)

    monkeypatch.setattr(pseudomodes.cli, "mode_correlation", spy)
    for config, rotated in (("band_gap.yaml", True), ("tls_lorentzian.yaml", False)):
        seen.clear()
        cfg = load_config(CONFIGS / config)
        summary = cmd_validate(cfg)
        check = summary.checks[1]
        assert [c.name for c in summary.checks] == [
            "spectral_positivity", "correlation_equivalence", "rotation_closed_forms",
            "generator_equivalence", "oracle_population"]
        assert check.status == "pass"
        z = seen[0].frequency_matrix
        assert all(m is seen[0] for m in seen)
        assert (z[0, 1] != 0.0) if rotated else np.array_equal(z, np.diag(np.diag(z)))
        assert check.detail.startswith("rotated pair" if rotated else "mode sum")
        assert seen[0].is_all_real


def test_validate_skips_generator_equivalence_for_real_couplings():
    summary = cmd_validate(load_config(CONFIGS / "tls_lorentzian.yaml"))
    by_name = {c.name: c for c in summary.checks}
    assert by_name["generator_equivalence"].status == "skip"
    assert by_name["oracle_population"].status == "pass"
    assert summary.passed


def test_trajectories_csv_and_seed_override(tmp_path, capsys):
    doc = with_run(SINGLE_DOC, t_max=1.0, n_steps=10)
    doc["trajectories"] = {"n_traj": 20, "seed": 4}
    doc["output"] = {"observables": ["pop_1"]}
    cfg_path = write_doc(tmp_path, doc)
    a, b, c = (tmp_path / n for n in ("ta.csv", "tb.csv", "tc.csv"))
    assert main(["trajectories", cfg_path, "--out", str(a)]) == 0
    assert main(["trajectories", cfg_path, "--out", str(b)]) == 0
    assert main(["trajectories", cfg_path, "--out", str(c), "--seed", "5"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    lines = a.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,pop_1_re,pop_1_im,pop_1_se,top_fock_pop,trace_err"
    assert len(lines) == 12


def test_each_main_call_parses_its_own_arguments(tmp_path, monkeypatch, capsys):
    # The parser is built once per process, so no call may see the options
    # of the one before it.
    doc = with_run(SINGLE_DOC, t_max=1.0, n_steps=10)
    doc["trajectories"] = {"n_traj": 5, "seed": 4}
    cfg_path = write_doc(tmp_path, doc)
    seeds, validated = [], []
    run_trajectories, run_validate = pseudomodes.cli.cmd_trajectories, pseudomodes.cli.cmd_validate

    def trajectories(cfg, out, seed):
        seeds.append(seed)
        return run_trajectories(cfg, out, seed)

    def validate(cfg):
        validated.append(cfg.seed)
        return run_validate(cfg)

    monkeypatch.setattr(pseudomodes.cli, "cmd_trajectories", trajectories)
    monkeypatch.setattr(pseudomodes.cli, "cmd_validate", validate)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["trajectories", cfg_path, "--seed", "5", "--out", str(a)]) == 0
    assert main(["trajectories", cfg_path, "--out", str(b)]) == 0
    assert main(["validate", cfg_path]) in (0, 1)
    capsys.readouterr()
    assert seeds == [5, None] and validated == [4]
    assert a.read_bytes() != b.read_bytes()
    assert pseudomodes.cli._build_parser() is pseudomodes.cli._build_parser()


def test_t_max_zero_yields_single_row(tmp_path, capsys):
    doc = with_run(SINGLE_DOC, t_max=0.0)
    csv_path = tmp_path / "zero.csv"
    assert main(["evolve", write_doc(tmp_path, doc), "--out", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,")


def test_serialize_config_round_trip(tmp_path):
    doc = with_run(BAND_GAP_DOC, t_max=3.0, n_steps=30, fock_levels=[2, 3])
    doc["output"] = {"path": "x.csv", "observables": ["pop_0"]}
    cfg = load_config(write_doc(tmp_path, doc))
    text = serialize_config(cfg)
    again = tmp_path / "again.yaml"
    again.write_text(text, encoding="utf-8")
    cfg2 = load_config(again)
    assert serialize_config(cfg2) == text
    assert cfg2.fock_levels == cfg.fock_levels
    assert cfg2.t_max == cfg.t_max
    # A quoted path that would read as a YAML 1.2 float stays quoted.
    again.write_text(text.replace("path: x.csv", "path: '1e-3'"), encoding="utf-8")
    cfg3 = load_config(again)
    again.write_text(serialize_config(cfg3), encoding="utf-8")
    assert cfg3.out_path == load_config(again).out_path == "1e-3"


def test_plot_script_renders_png(tmp_path, capsys):
    pytest.importorskip("matplotlib")
    doc = with_run(SINGLE_DOC, t_max=1.0, n_steps=10)
    csv_path = tmp_path / "plotme.csv"
    assert main(["evolve", write_doc(tmp_path, doc), "--out", str(csv_path)]) == 0
    capsys.readouterr()
    script = tmp_path / "plotme_plot.py"
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "plotme.png").exists()


def test_console_entry_point(tmp_path):
    exe = shutil.which("pseudomodes")
    if exe is None:
        pytest.skip("console script is not on PATH")
    proc = subprocess.run([exe, "map", write_doc(tmp_path, SINGLE_DOC)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classification: all_real" in proc.stdout

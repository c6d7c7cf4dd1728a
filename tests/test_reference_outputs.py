"""Every CLI output of the shipped configs and the ladder, held against a
stored reference.

The references live in ``tests/reference/``: for ``configs/band_gap.yaml``
and ``configs/tls_lorentzian.yaml`` in both frames, the ``map`` report, the
``evolve`` CSV, the ``validate`` JSON and the ``trajectories`` CSVs at seeds
1 and 7; ``evolve`` and ``trajectories`` (seed 7) on the ladder of three
lines (``LADDER3``, ``tools/compare_outputs.ladder(3)``) in both frames; and
the jump records of ``mcwf_run`` on ``band_gap.yaml`` at seeds 1-8.  Map
reports, validate statuses and details, and jump records compare exactly;
CSV cells and validate residuals compare within ``TOL``.  An
interaction-frame output that equals its Schrodinger twin byte for byte
(every shipped start keeps its coherences at 0) is stored once, as the twin.

A change that moves an output on purpose rewrites the references,

    python3 tests/test_reference_outputs.py

and lists what moved in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
CONFIGS = {name: ROOT / "configs" / f"{name}.yaml" for name in ("band_gap", "tls_lorentzian")}
#: Largest |change - reference| of a CSV cell or a validate residual.
TOL = 1e-13
JUMP_SEEDS = range(1, 9)

#: ``tools/compare_outputs.ladder(3)``: levels 0, 1, 2, one channel at
#: frequency 1 and strength 1, started in level 2, three lines of weight 1/3,
#: centers 0.5 + k/3 and widths 1 + 2k/3, ``fock_levels: 3``.  It takes the
#: Taylor route in ``evolve`` and the row route in ``trajectories``.
LADDER3 = {
    "spectral": {"type": "lorentzian_sum", "terms": [
        {"weight": 1 / 3, "center": 0.5 + k / 3, "width": 1 + 2 * k / 3} for k in range(3)]},
    "system": {"energies": [0.0, 1.0, 2.0],
               "channels": [{"frequency": 1.0, "strength": 1.0}]},
    "run": {"generator": "auto", "t_max": 5.0, "n_steps": 50, "fock_levels": 3},
    "trajectories": {"n_traj": 500, "seed": 7},
    "output": {"observables": ["pop_1", "pop_2", "coh_1_2"]},
}


def _doc(model: str) -> dict:
    if model == "ladder3":
        return json.loads(json.dumps(LADDER3))
    return yaml.safe_load(CONFIGS[model].read_text(encoding="utf-8"))


def _runs() -> list[tuple[str, str, str, list[str]]]:
    """(reference file, model, frame, argv after the config path) of every run."""
    runs = []
    for model in (*CONFIGS, "ladder3"):
        for frame in ("schrodinger", "interaction"):
            stem = f"{model}-{frame}"
            if model != "ladder3":
                runs += [(f"{stem}-map.txt", model, frame, ["map"]),
                         (f"{stem}-evolve.csv", model, frame, ["evolve"]),
                         (f"{stem}-validate.json", model, frame, ["validate"])]
                seeds = (1, 7)
            else:
                runs.append((f"{stem}-evolve.csv", model, frame, ["evolve"]))
                seeds = (7,)
            runs += [(f"{stem}-trajectories-seed{s}.csv", model, frame,
                      ["trajectories", "--seed", str(s)]) for s in seeds]
    return runs


RUNS = _runs()


def write_config(path: Path, model: str, frame: str) -> Path:
    doc = _doc(model)
    doc["run"]["frame"] = frame
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def run_cli(config: Path, argv: list[str], out: Path) -> str:
    """The output file ``main`` writes for ``argv`` on ``config``."""
    from pseudomodes.cli import main

    command, *extra = argv
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(config), "--out", str(out)] + extra)
    assert code == 0, (command, config)
    return out.read_text(encoding="utf-8")


def jump_records(seed: int) -> str:
    """The jump records of ``mcwf_run`` on ``band_gap.yaml`` at ``seed``, as JSON."""
    from pseudomodes.cli import _time_grid, build_model, load_config
    from pseudomodes.hilbert import basis_state
    from pseudomodes.trajectories import TrajectoryConfig, mcwf_run

    cfg = load_config(CONFIGS["band_gap"])
    gen = build_model(cfg)
    result = mcwf_run(gen, basis_state(gen.sector, cfg.initial_level),
                      TrajectoryConfig(n_traj=cfg.n_traj, seed=seed, times=_time_grid(cfg)))
    return json.dumps([list(map(list, r)) for r in result.jump_records]) + "\n"


def reference(name: str) -> str:
    """The reference text of output file ``name``."""
    path = REFERENCE / name
    if not path.exists():
        path = REFERENCE / name.replace("-interaction-", "-schrodinger-")
    return path.read_text(encoding="utf-8")


def assert_same_output(name: str, text: str, expected: str) -> None:
    """``text`` against the reference text ``expected`` of file ``name``, by the
    rules of the module docstring."""
    if name.endswith(".csv"):
        rows, ref_rows = (list(csv.reader(t.splitlines())) for t in (text, expected))
        assert len(rows) == len(ref_rows), name
        assert rows[0] == ref_rows[0], name
        for row, ref in zip(rows[1:], ref_rows[1:]):
            if ref[0].startswith("#"):
                assert row == ref, name
                continue
            assert len(row) == len(ref), name
            worst = max(abs(float(a) - float(b)) for a, b in zip(row, ref))
            assert worst <= TOL, (name, row[0], worst)
    elif name.endswith("-validate.json"):
        doc, ref = json.loads(text), json.loads(expected)
        residuals = [[c.pop("residual") for c in d["checks"]] for d in (doc, ref)]
        assert doc == ref, name
        for a, b in zip(*residuals):
            assert (a is None) == (b is None), name
            if a is not None:
                assert abs(a - b) <= TOL, (name, a, b)
    else:
        assert text == expected, name


@pytest.mark.parametrize("name, model, frame, argv", RUNS, ids=[r[0] for r in RUNS])
def test_output_matches_its_reference(tmp_path, name, model, frame, argv):
    config = write_config(tmp_path / "config.yaml", model, frame)
    text = run_cli(config, argv, tmp_path / name)
    assert_same_output(name, text, reference(name))


@pytest.mark.parametrize("seed", JUMP_SEEDS)
def test_band_gap_jump_records_match_their_reference(seed):
    name = f"band_gap-jumps-seed{seed}.json"
    assert jump_records(seed) == reference(name)


def test_no_state_leaks_between_main_calls(tmp_path):
    """``validate`` and ``trajectories`` alternate on one config path whose
    text switches between the two shipped configs: each output equals the
    reference of the config it read, so nothing derived from a config or a
    seed outlives its call."""
    config = tmp_path / "config.yaml"
    for k, model in enumerate(["band_gap", "tls_lorentzian"] * 2 + ["band_gap"]):
        config.write_text(CONFIGS[model].read_text(encoding="utf-8"), encoding="utf-8")
        for argv, name in ((["validate"], f"{model}-schrodinger-validate.json"),
                           (["trajectories", "--seed", "7"],
                            f"{model}-schrodinger-trajectories-seed7.csv"),
                           (["trajectories", "--seed", "1"],
                            f"{model}-schrodinger-trajectories-seed1.csv")):
            text = run_cli(config, argv, tmp_path / f"{k}-{name}")
            assert_same_output(name, text, reference(name))


def regenerate() -> None:
    """Rewrite every reference file from the package on ``sys.path``; the
    Schrodinger runs come first, so a twin is read before its interaction run."""
    import tempfile

    REFERENCE.mkdir(exist_ok=True)
    for old in REFERENCE.iterdir():
        old.unlink()
    with tempfile.TemporaryDirectory() as work:
        for name, model, frame, argv in RUNS:
            config = write_config(Path(work) / "config.yaml", model, frame)
            text = run_cli(config, argv, Path(work) / name)
            if "-interaction-" not in name or text != reference(name):
                (REFERENCE / name).write_text(text, encoding="utf-8", newline="\n")
    for seed in JUMP_SEEDS:
        (REFERENCE / f"band_gap-jumps-seed{seed}.json").write_text(
            jump_records(seed), encoding="utf-8", newline="\n")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate()
    print(f"wrote {len(list(REFERENCE.iterdir()))} files to {REFERENCE}")

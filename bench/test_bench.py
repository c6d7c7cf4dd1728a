"""Tests of the benchmark itself: its gates, its exact counters, its output.

    python3 -m pytest bench -q

These are not part of the package's test suite.  The counter self-test runs
two traced solves of every workload in-process and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pseudomodes.cli as cli  # noqa: E402
from pseudomodes.dynamics import Generator  # noqa: E402
import run  # noqa: E402
from layers import EXACT_COUNTERS, LAYER_METRICS, Tracer, solve_metrics  # noqa: E402
from workloads import (  # noqa: E402
    ORACLE_TOL, WORKLOADS, binomial_bound, check_output, read_csv, reference_population,
)

#: Generator.apply calls per solve at the commit that defined the benchmark.
#: A change to the propagator moves these on purpose; its claim is then a
#: count, reported as such.
SEED_COMMIT_APPLY_CALLS = {
    "evolve_band_gap": 272_000,
    "evolve_fock4": 28_160,
    "trajectories_band_gap": 0,
    "validate_band_gap": 336_800,
}


def _setup(name: str, tmp_path: Path) -> tuple[Path, Path]:
    wl = WORKLOADS[name]
    config = wl.write_config(ROOT, tmp_path)
    return config, tmp_path / f"out_{{i}}{wl.output_suffix}"


def _solve(name: str, tmp_path: Path, seed: int, index: int = 0) -> Path:
    config, template = _setup(name, tmp_path)
    argv = [a.replace("{i}", str(index)) for a in WORKLOADS[name].argv(config, template, seed)]
    assert cli.main(argv) == 0
    return Path(str(template).replace("{i}", str(index)))


# ---------------------------------------------------------------------------
# BENCHMARK.json mirrors the definitions here


def test_benchmark_json_mirrors_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    for w in doc["workloads"]:
        assert w == {"name": w["name"], "why": WORKLOADS[w["name"]].why}
        assert len(w["why"]) <= 200
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
        assert 0.0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert doc["per_layer"] == [
        {"name": name, "unit": spec[0], "better": spec[1]} for name, spec in LAYER_METRICS.items()
    ]


# ---------------------------------------------------------------------------
# gates


def test_evolve_gate_rejects_a_perturbed_population(tmp_path):
    config, _ = _setup("evolve_fock4", tmp_path)
    p, _ = reference_population(config)
    header = "t,pop_1_re,pop_1_im,top_fock_pop,trace_err"

    def write(pop, trace_err=0.0, tail=""):
        path = tmp_path / "x.csv"
        rows = [f"{i},{float(v)!r},0,0,{trace_err!r}" for i, v in enumerate(pop)]
        path.write_text("\n".join([header, *rows]) + "\n" + tail, encoding="utf-8")
        return path

    wl = WORKLOADS["evolve_fock4"]
    assert check_output(wl, write(p), p, 500) is None
    bumped = p.copy()
    bumped[5] += 2 * ORACLE_TOL
    assert "off the oracle" in check_output(wl, write(bumped), p, 500)
    assert "trace_err" in check_output(wl, write(p, trace_err=1e-6), p, 500)
    assert "aborted" in check_output(wl, write(p, tail="# ABORTED t=1\n"), p, 500)
    assert "rows" in check_output(wl, write(p[:-1]), p, 500)


def test_validate_gate_needs_every_check_to_pass(tmp_path):
    wl = WORKLOADS["validate_band_gap"]
    path = tmp_path / "v.json"
    checks = [{"name": "a", "status": "pass"}, {"name": "b", "status": "skip"}]
    path.write_text(json.dumps({"checks": checks, "passed": True}), encoding="utf-8")
    assert "['b']" in check_output(wl, path, None, 0)
    checks[1]["status"] = "pass"
    path.write_text(json.dumps({"checks": checks, "passed": True}), encoding="utf-8")
    assert check_output(wl, path, None, 0) is None


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_trajectory_gate_holds_across_seeds(tmp_path, seed):
    wl = WORKLOADS["trajectories_band_gap"]
    out = _solve(wl.name, tmp_path, seed)
    p, _ = reference_population(tmp_path / "config.yaml")
    assert check_output(wl, out, p, 500) is None
    # The gate is not vacuous: a shift of twice the bound on any row fails it.
    header, rows, _ = read_csv(out)
    col = header.index("pop_1_re")
    i = int(np.argmax(binomial_bound(p, 500)))
    rows[i, col] += 2 * binomial_bound(p, 500)[i]
    shifted = tmp_path / "shifted.csv"
    shifted.write_text(",".join(header) + "\n" + "\n".join(
        ",".join(repr(float(x)) for x in row) for row in rows) + "\n", encoding="utf-8")
    assert check_output(wl, shifted, p, 500) is not None


def test_standard_error_gate_is_not_seed_safe(tmp_path):
    """Why the trajectory gate uses p (1 - p): before any trajectory jumps,
    the sample standard error collapses while the mean is still off."""
    out = _solve("trajectories_band_gap", tmp_path, seed=3)
    header, rows, _ = read_csv(out)
    p, _ = reference_population(tmp_path / "config.yaml")
    dev = np.abs(rows[:, header.index("pop_1_re")] - p)
    se = rows[:, header.index("pop_1_se")]
    assert np.any(dev > 5.0 * se)


# ---------------------------------------------------------------------------
# exact counters


def _traced_solve(tracer: Tracer, name: str, tmp_path: Path, index: int) -> dict:
    config, template = _setup(name, tmp_path)
    argv = [a.replace("{i}", str(index)) for a in WORKLOADS[name].argv(config, template, 7)]
    with tracer.solve(index):
        assert cli.main(argv) == 0
    return solve_metrics([s for s in tracer.spans if s["solve"] == index])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_counters_repeat(tmp_path, name):
    tracer = Tracer()
    first = _traced_solve(tracer, name, tmp_path, 1)
    second = _traced_solve(tracer, name, tmp_path, 2)
    assert {c: first[c] for c in EXACT_COUNTERS} == {c: second[c] for c in EXACT_COUNTERS}
    assert first["dynamics.apply_calls"] == SEED_COMMIT_APPLY_CALLS[name]
    if name == "evolve_band_gap":
        # Below this the wrappers are missing the propagation path.
        assert first["dynamics.evolve_s"] >= 0.8 * first["cli.main_s"]
    # Tracing leaves the program as it found it.
    assert not hasattr(cli.evolve, "__wrapped__")
    assert not hasattr(Generator.apply, "__wrapped__")


# ---------------------------------------------------------------------------
# the command itself


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "trajectories_band_gap",
         "--seed", "11", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = doc["per_layer"] if trace else doc["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    record = json.loads((ROOT / ".bench_work" / "records" /
                         f"trajectories_band_gap-seed11-trace{trace}.json").read_text())
    env = record["environment"]
    assert env["seed"] == 11 and env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"nproc", "cpu_model", "python", "numpy", "blas", "commit"} <= set(env)


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "evolve_fock4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

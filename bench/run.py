"""Benchmark of the pseudomodes CLI: one workload per call, or all of them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn

Run from anywhere inside a checkout; the program is imported from ``src/``.
All load comes from one client in a closed loop: the solves of a run execute
one after another in a single child process, with BLAS pinned to one thread.

--trace 0 reports the end-to-end metrics:
    setup_s       median cold start over fresh interpreters, one at a time,
                  half before and half after the solves
                  (import pseudomodes.cli, load_config, build_model)
    solve_s       median warm in-process time of one ``cli.main(argv)``
                  after one warm-up solve
    peak_rss_mib  peak resident memory of the solving process (os.wait4)
--trace 1 reruns the solves with spans around each module boundary (see
layers.py) and reports the per-layer metrics instead.

Every solve's output is checked (workloads.check_output); fail_frac is
``failed / attempted`` of the last line, a JSON object with the keys
correct, attempted, failed and metrics.  A full record of the run, with the
environment it ran in, is written under .bench_work/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Pinned in this process before numpy loads and in every child.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

#: Cold starts per run; setup_s is their median.
COLD_STARTS = 9
#: A run gives up (and prints no result) after this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(args: list[str], deadline: float, capture: bool) -> tuple[int, int, str]:
    """Run child.py to completion: (exit code, peak RSS in KiB, stdout)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
    )
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                out = proc.stdout.read().decode() if capture else ""
                return proc.returncode, usage.ru_maxrss, out
            if time.monotonic() > deadline:
                raise TimeoutError(f"child {args[0]} ran past the run budget")
            time.sleep(0.01)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def _coldstart(config: Path, deadline: float) -> float:
    rc, _, out = _spawn(["coldstart", str(config)], deadline, capture=True)
    if rc != 0:
        raise RuntimeError(f"cold start exited with {rc}")
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_PIN,
        "seed": seed,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import LAYER_METRICS, read_spans, run_metrics
    from workloads import WORKLOADS, check_output, reference_population

    wl = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    config = wl.write_config(ROOT, work)
    # References are computed once, outside every timed region.
    reference, n_traj = (None, 0) if wl.command == "validate" else reference_population(config)

    # Cold starts are split around the solves so that they sample the
    # machine at both ends of the run.
    cold = 0 if trace else COLD_STARTS
    setup = [_coldstart(config, deadline) for _ in range(cold // 2)]

    out_template = work / "out" / f"solve_{{i}}{wl.output_suffix}"
    job = {
        "argv": wl.argv(config, out_template, seed),
        "seconds": seconds,
        "trace": trace,
        "result": str(work / "solves.json"),
        "spans": str(work / "spans.jsonl"),
    }
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    rc, rss_kib, _ = _spawn(["solve", str(work / "job.json")], deadline, capture=False)
    if rc != 0:
        raise RuntimeError(f"solve process exited with {rc}")
    solves = json.loads((work / "solves.json").read_text(encoding="utf-8"))["solves"]
    setup += [_coldstart(config, deadline) for _ in range(cold - cold // 2)]

    failures = []
    for s in solves:
        out = Path(str(out_template).replace("{i}", str(s["index"])))
        reason = (f"exit code {s['rc']}" if s["rc"] != 0
                  else check_output(wl, out, reference, n_traj))
        if reason is not None:
            failures.append({"solve": s["index"], "reason": reason})

    untraced = [s["seconds"] for s in solves if not s["warmup"] and not s["traced"]]
    notes = {}
    if trace:
        traced = [s["seconds"] for s in solves if s["traced"]]
        values, unstable = run_metrics(read_spans(Path(job["spans"])), traced, untraced)
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
        failures += [{"solve": None, "reason": f"counter {c} differs between traced solves"}
                     for c in unstable]
        notes["trace.overhead_frac"] = (f"median of {len(traced)} traced vs "
                                        f"{len(untraced)} untraced solves")
    else:
        values = {"setup_s": median(setup), "solve_s": median(untraced),
                  "peak_rss_mib": rss_kib / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        notes["setup_s"] = f"median of {len(setup)} cold starts, before and after the solves"
        notes["solve_s"] = f"median of {len(untraced)} solves after 1 warm-up"
        notes["peak_rss_mib"] = "solving process, ru_maxrss"

    failed = sum(1 for f in failures if f["solve"] is not None)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "correct": not failures,
        "attempted": len(solves),
        "failed": failed,
        "fail_frac": failed / len(solves),
        "metrics": metrics,
        "notes": notes,
        "failures": failures,
        "run_s": time.monotonic() - started,
        "setup_samples": setup,
        "solves": solves,
    }


def _print_block(result: dict, record: Path) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:<31} {m['value']:>14.6g} {m['unit']:<8} {note}")
    print(f"  {'fail_frac':<31} {result['fail_frac']:>14.6g} {'ratio':<8} "
          f"{result['failed']} of {result['attempted']} solves failed their gate")
    for f in result["failures"]:
        print(f"  FAILED solve {f['solve']}: {f['reason']}", file=sys.stderr)
    print(f"  record {record}")


def _write_record(result: dict) -> Path:
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return path


def _check_tree() -> None:
    """Refuse to run unless the checkout holds the program and its configs."""
    needed = (SRC / "pseudomodes" / "cli.py", ROOT / "configs" / "band_gap.yaml")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"bench: {', '.join(missing)} not found; run inside a full checkout")
    sys.path.insert(0, str(SRC))
    import pseudomodes

    if SRC.resolve() not in Path(pseudomodes.__file__).resolve().parents:
        raise SystemExit(f"bench: imported pseudomodes from {pseudomodes.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_tree()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_block(result, _write_record(result))
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

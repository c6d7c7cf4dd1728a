"""Paired benchmark runs of two commits, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --seeds 201-210 \
        --out BENCH_<n>.json --summary "what the change does" [--traced-seed 211]

Each commit is written by ``git archive`` into its own checkout under
``.bench_work/pairs/`` (ignored), so both sides run from their committed files
with the benchmark code of their own commit, and the repository's git state
is left as it was.  For every workload and seed one run of each side
executes, one at a time, for every workload of BENCHMARK.json and its run
length (40 s):

    python3 bench/run.py --workload W --seed S --seconds 40 --trace 0

The side that runs first alternates with the seed's parity: the parent runs
first on odd seeds.  The output has the layout of BENCH_15.json: per pair the
end-to-end metrics of both sides and their solve counts; per metric each
side's q1, median and q3 (25th, 50th and 75th percentiles, linear
interpolation) and the number of pairs the change read lower in.  With
``--traced-seed`` one traced run (``--trace 1``) per side of each workload
adds its per-layer metrics: ``validate_band_gap`` runs every layer but
trajectories, and ``trajectories_band_gap`` runs trajectories.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = ROOT / ".bench_work" / "pairs"
SIDES = ("parent", "change")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


def checkout(rev: str) -> tuple[str, Path]:
    """The full hash of ``rev`` and a fresh copy of its committed files."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    where = PAIRS / sha[:12]
    if not where.is_dir():
        partial = where.with_name(where.name + ".partial")
        partial.mkdir(parents=True, exist_ok=True)
        proc = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
            archive.extractall(partial, filter="data")
        if proc.wait() != 0:
            raise SystemExit(f"git archive {sha} failed")
        partial.rename(where)
    return sha, where


def child(tree: Path, code: str, *args: str) -> str:
    """The standard output of the Python ``code`` run with ``args`` in the
    checkout ``tree``, on that checkout's package and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"a child run in {tree} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def bench(checkout_dir: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of bench/run.py in ``checkout_dir``: its summary line and record."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{SECONDS:g}", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout_dir, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout_dir} exited "
                         f"{done.returncode}:\n{done.stderr}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = checkout_dir / ".bench_work" / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"summary": summary, "environment": json.loads(record.read_text())["environment"]}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="N or FIRST-LAST")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--summary", required=True, help="one line: what the change does")
    parser.add_argument("--traced-seed", type=int)
    args = parser.parse_args(argv)

    revs = dict(zip(SIDES, (checkout(args.parent), checkout(args.change))))
    host = None
    workloads = {}
    for name in WORKLOADS:
        pairs = []
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            runs = {side: bench(revs[side][1], name, seed, 0) for side in order}
            host = host or {k: v for k, v in runs["change"]["environment"].items()
                            if k not in ("seed", "commit")}
            pair = {"seed": seed}
            for side in SIDES:
                metrics = runs[side]["summary"]["metrics"]
                pair.update({f"{side}_{m}": round(metrics[m]["value"], 5) for m in END_TO_END})
            for key in ("failed", "attempted"):
                pair.update({f"{side}_{key}": runs[side]["summary"][key] for side in SIDES})
            pairs.append(pair)
            print(json.dumps(pair), flush=True)
        workloads[name] = {"pairs": pairs}
        for m in END_TO_END:
            workloads[name][m] = {side: quartiles([p[f"{side}_{m}"] for p in pairs])
                                  for side in SIDES}
            workloads[name][m]["change_lower_in_pairs"] = sum(
                p[f"change_{m}"] < p[f"parent_{m}"] for p in pairs)
        workloads[name]["failed_solves"] = {side: sum(p[f"{side}_failed"] for p in pairs)
                                            for side in SIDES}

    result = {
        "change": args.summary,
        "command": (f"python3 bench/run.py --workload WORKLOAD --seed SEED "
                    f"--seconds {SECONDS:g} --trace 0"),
        "method": (f"{len(args.seeds)} alternating pairs per workload, one run each of the "
                   f"parent commit ({revs['parent'][0][:7]}) and of the change "
                   f"({revs['change'][0][:7]}) per seed, each from its own checkout written "
                   "by git archive under .bench_work/pairs/ (tools/bench_pairs.py), run one "
                   "at a time; the side that ran first alternates with the seed's parity "
                   "(parent first on odd seeds); q1, median and q3 are the 25th, 50th and "
                   "75th percentiles with linear interpolation."),
        "seeds": args.seeds,
        "host": host,
        "workloads": workloads,
    }
    if args.traced_seed is not None:
        result["traced"] = {"note": "one traced run per side and workload; per-layer "
                                    "medians as printed, tracing on"}
        for name in WORKLOADS:
            traced = result["traced"][name] = {
                "command": (f"python3 bench/run.py --workload {name} --seed "
                            f"{args.traced_seed} --seconds {SECONDS:g} --trace 1")}
            for side in SIDES:
                run = bench(revs[side][1], name, args.traced_seed, 1)
                traced[side] = {k: round(v["value"], 6)
                                for k, v in run["summary"]["metrics"].items()}
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

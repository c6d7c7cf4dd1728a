"""Paired timings of two commits on the trajectory routes no benchmark
workload reaches, and on the two benchmark solves in-process.

    python3 tools/route_pairs.py PARENT CHANGE [--pairs N]

``BENCHMARK.json`` times only ground-route workloads.  This times, in N
alternating pairs (10 by default):

- ``ladder_generator``: the row route of the tests' three-level ladder
  (``tests/test_trajectories.py``, |S| = 10), 500 trajectories on
  ``linspace(0, 20, 201)``, seed 7;
- ``ladder4`` and ``ladder10``: ``compare_outputs.ladder`` at N = 4 and
  N = 10 lines, 200 trajectories;
- ``ladder10_weak``: that ladder at N = 10 with strength 0.1 and 500
  trajectories, where most trajectories stay on the no-jump ket;
- ``nline200_read``: the first read of ``jump_counts`` on the N-line model
  (a two-level emitter, N lines of weight 1/N, centers 0.5 + k/N and widths
  1 + 20k/N) at N = 200 (|S| = 202, ``t_max: 20``, ``n_steps: 500``, 500
  trajectories, seed 7), after ``mcwf_run``;
- ``cli_trajectories`` and ``cli_validate``: one ``cli.main`` call on
  ``configs/band_gap.yaml``, ``trajectories --seed 7`` and ``validate``, the
  two solves ``BENCHMARK.json`` gates, each with a fresh ``--out`` name under
  ``.bench_work/route_pairs/``.  After a warm-up of ``CLI_CALLS`` calls, a
  run reports the shortest mean call of ``REPEATS`` rounds of ``CLI_CALLS``
  calls, so a cut of the fixed cost of a solve reads at a spread of a few
  percent before the benchmark's pair runs.

Each commit is written by ``git archive`` into its own checkout under
``.bench_work/pairs/`` (``bench_pairs.checkout``).  Each run is a child
process in its checkout with its own package and one BLAS thread
(``bench_pairs.child``): for a trajectory model it builds the model, makes
one untimed run, and reports the shortest of ``REPEATS`` timed ones.  The two sides of a pair run
one after the other, the parent first in odd pairs.  The report gives per
model each side's median and [q1, q3] (``bench_pairs.quartiles``), the pairs
the change ran faster in, and whether the jump records of the two sides are
identical (for the CLI models, whether their last outputs are).  Model
configs and outputs are written under ``.bench_work/route_pairs/``; nothing
is written elsewhere.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_pairs import ROOT, SIDES, checkout, child, quartiles
from compare_outputs import ladder

WORK = ROOT / ".bench_work" / "route_pairs"
REPEATS = 5
CLI_CALLS = 300
LINES = {"type": "lorentzian_sum", "terms": [
    {"weight": 1 / 200, "center": 0.5 + k / 200, "width": 1 + 20 * k / 200} for k in range(200)]}
#: The config of each trajectory model but ``ladder_generator``, which the
#: child builds, and the argv (before ``--out``) of each CLI model.
CONFIGS = {
    "ladder_generator": None,
    "ladder4": ladder(4, n_traj=200),
    "ladder10": ladder(10, n_traj=200),
    "ladder10_weak": ladder(10, 0.1),
    "nline200_read": {
        "spectral": LINES, "output": {"observables": ["pop_1"]},
        "system": {"energies": [0.0, 1.0], "channels": [{"frequency": 1.0, "strength": 1.0}]},
        "run": {"generator": "auto", "t_max": 20.0, "n_steps": 500, "fock_levels": 2},
        "trajectories": {"n_traj": 500, "seed": 7}},
    "cli_trajectories": ["trajectories", "configs/band_gap.yaml", "--seed", "7"],
    "cli_validate": ["validate", "configs/band_gap.yaml"],
}

#: Runs one model in a checkout with its own package and prints its shortest
#: time and a digest of its jump records as one JSON line.
CHILD = r'''
import hashlib, json, sys, time
from pathlib import Path
import numpy as np
import yaml
from pseudomodes import TrajectoryConfig, basis_state, mcwf_run
from pseudomodes.cli import _observable_ops, _time_grid, build_model, load_config

model, doc, path, repeats = sys.argv[1], json.loads(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4])
if model.startswith("cli_"):
    import contextlib, io
    from pseudomodes.cli import main
    calls, out = int(sys.argv[5]), path.with_suffix("")
    out.mkdir(parents=True, exist_ok=True)

    def call(k):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(doc + ["--out", str(out / f"{k}.out")]) == 0

    for k in range(calls):
        call(k)
    rounds = []
    for r in range(1, repeats + 1):
        begin = time.perf_counter()
        for k in range(r * calls, (r + 1) * calls):
            call(k)
        rounds.append((time.perf_counter() - begin) / calls)
    last = (out / f"{(repeats + 1) * calls - 1}.out").read_bytes()
    for name in out.iterdir():
        name.unlink()
    print(json.dumps({"seconds": min(rounds), "records": hashlib.sha256(last).hexdigest()[:16]}))
    sys.exit(0)
if doc is None:
    sys.path.insert(0, "tests")
    from test_trajectories import ladder_generator
    gen = ladder_generator()
    psi0 = basis_state(gen.sector, 2)
    ops = {"pop_2": np.diag([0.0, 0.0, 1.0]).astype(complex)}
    config = TrajectoryConfig(n_traj=500, seed=7, times=np.linspace(0.0, 20.0, 201))
else:
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    cfg = load_config(str(path))
    gen = build_model(cfg)
    psi0, ops = basis_state(gen.sector, cfg.initial_level), _observable_ops(cfg)
    config = TrajectoryConfig(n_traj=cfg.n_traj, seed=cfg.seed, times=_time_grid(cfg))


def timed():
    """Seconds of the timed part and the run: for the N-line read only the
    first read of jump_counts, else mcwf_run."""
    begin = time.perf_counter()
    result = mcwf_run(gen, psi0, config, observables=ops)
    if model == "nline200_read":
        begin = time.perf_counter()
    result.jump_counts
    return time.perf_counter() - begin, result


timed()
seconds, result = min((timed() for _ in range(repeats)), key=lambda run: run[0])
records = json.dumps([list(map(list, r)) for r in result.jump_records])
print(json.dumps({"seconds": seconds,
                  "records": hashlib.sha256(records.encode()).hexdigest()[:16]}))
'''


def run(tree, model: str) -> dict:
    """The shortest of ``REPEATS`` timed runs of ``model`` in the checkout ``tree``."""
    out = child(tree, CHILD, model, json.dumps(CONFIGS[model]), str(WORK / f"{model}.yaml"),
                str(REPEATS), str(CLI_CALLS))
    return json.loads(out.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    WORK.mkdir(parents=True, exist_ok=True)
    trees = dict(zip(SIDES, (checkout(args.parent)[1], checkout(args.change)[1])))
    for model in CONFIGS:
        runs = {side: [] for side in SIDES}
        for k in range(args.pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                runs[side].append(run(trees[side], model))
        seconds = {side: [r["seconds"] for r in runs[side]] for side in SIDES}
        wins = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
        same = all(p["records"] == c["records"] for p, c in zip(*runs.values()))
        parts = [f"{side} {q['median']:.5f} s [{q['q1']:.5f}, {q['q3']:.5f}]"
                 for side, q in ((side, quartiles(seconds[side])) for side in SIDES)]
        what = "outputs" if model.startswith("cli_") else "jump records"
        print(f"{model}: {', '.join(parts)}; change faster in {wins} of {args.pairs}; "
              f"{what} {'identical' if same else 'DIFFER'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

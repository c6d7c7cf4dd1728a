"""Paired timings of two commits on the trajectory routes no benchmark workload reaches.

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
  trajectories, seed 7), after ``mcwf_run``.

Each commit is written by ``git archive`` into its own checkout under
``.bench_work/pairs/`` (``bench_pairs.checkout``).  Each run is a child
process in its checkout with its own package and one BLAS thread
(``bench_pairs.child``): it builds the model, makes one untimed run, and
reports the shortest of ``REPEATS`` timed ones.  The two sides of a pair run
one after the other, the parent first in odd pairs.  The report gives per
model each side's median and [q1, q3] (``bench_pairs.quartiles``), the pairs
the change ran faster in, and whether the jump records of the two sides are
identical.  Model configs are written under ``.bench_work/route_pairs/``;
nothing is written elsewhere.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_pairs import ROOT, SIDES, checkout, child, quartiles
from compare_outputs import ladder

WORK = ROOT / ".bench_work" / "route_pairs"
REPEATS = 5
LINES = {"type": "lorentzian_sum", "terms": [
    {"weight": 1 / 200, "center": 0.5 + k / 200, "width": 1 + 20 * k / 200} for k in range(200)]}
#: The config of each model but ``ladder_generator``, which the child builds.
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
                str(REPEATS))
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
        parts = [f"{side} {q['median']:.4f} s [{q['q1']:.4f}, {q['q3']:.4f}]"
                 for side, q in ((side, quartiles(seconds[side])) for side in SIDES)]
        print(f"{model}: {', '.join(parts)}; change faster in {wins} of {args.pairs}; "
              f"jump records {'identical' if same else 'DIFFER'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

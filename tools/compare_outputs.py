"""Compare every CLI output of two commits.

    python3 tools/compare_outputs.py PARENT CHANGE

Each commit is written by ``git archive`` into its own checkout under
``.bench_work/pairs/`` (ignored; ``bench_pairs.checkout``).  In each, one
child process runs ``pseudomodes.cli.main`` for ``map``, ``evolve``,
``trajectories`` and ``validate`` on every shipped config (``configs/*.yaml``
of that commit) and on a two-excitation ladder, once per frame (``run.frame``
set to ``schrodinger`` and to ``interaction``), with ``trajectories`` at
seeds 1-8.  For each trajectory run it also writes the jump records of
``mcwf_run`` on the same model, grid and seed.  The shipped configs take the
one-excitation routes; the ladder of three lines (``ladder(3)``) takes the
Taylor route in ``evolve`` and the row route in ``trajectories``.  The
ladder runs again with strength 0.1 as ``ladder3_weak``, where most
trajectory rows stay on the no-jump ket that every trajectory shares.
Every file lands under ``.bench_work/compare/<commit>/`` with each run's
exit code in ``exit_codes.json``.

The report names the files that are byte-identical and, for the rest, the
largest absolute deviation per CSV column, per JSON check residual (with any
change of status) and per jump-record time, or the first differing line of a
text file.  It exits 0 when every file is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from bench_pairs import ROOT, checkout, child

OUT = ROOT / ".bench_work" / "compare"
SEEDS = range(1, 9)

#: Runs in each checkout with its own package: every run of every model, its
#: exit code and, for trajectories, the jump records of the same model and seed.
CHILD = r'''
import contextlib, io, json, sys
from pathlib import Path
import yaml
from pseudomodes.cli import _time_grid, build_model, load_config, main
from pseudomodes.hilbert import basis_state
from pseudomodes.trajectories import TrajectoryConfig, mcwf_run

out, seeds = Path(sys.argv[1]), [int(s) for s in sys.argv[2].split(",")]
codes = {}
models = [(config.stem, yaml.safe_load(config.read_text(encoding="utf-8")))
          for config in sorted(Path("configs").glob("*.yaml"))]
models += json.loads(sys.argv[3]).items()
for model, doc in models:
    for frame in ("schrodinger", "interaction"):
        doc["run"]["frame"] = frame
        stem = f"{model}-{frame}"
        path = out / f"{stem}.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        runs = [("map", f"{stem}-map.txt", []), ("evolve", f"{stem}-evolve.csv", []),
                ("validate", f"{stem}-validate.json", [])]
        runs += [("trajectories", f"{stem}-trajectories-seed{s}.csv", ["--seed", str(s)])
                 for s in seeds]
        for command, name, extra in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                codes[name] = [main([command, str(path), "--out", str(out / name)] + extra),
                               err.getvalue()]
        cfg = load_config(str(path))
        gen = build_model(cfg)
        for s in seeds:
            result = mcwf_run(gen, basis_state(gen.sector, cfg.initial_level),
                              TrajectoryConfig(n_traj=cfg.n_traj, seed=s, times=_time_grid(cfg)))
            (out / f"{stem}-jumps-seed{s}.json").write_text(
                json.dumps([list(map(list, r)) for r in result.jump_records]),
                encoding="utf-8")
(out / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True),
                                      encoding="utf-8")
'''


def ladder(n: int, strength: float = 1.0, n_traj: int = 500) -> dict:
    """The config of the ladder: levels 0, 1, 2, one channel at frequency 1
    and ``strength``, started in level 2, ``n`` lines of weight 1/n, centers
    0.5 + k/n and widths 1 + 2k/n, ``fock_levels: 3``, ``t_max: 5``,
    ``n_steps: 50``, ``n_traj`` trajectories at seed 7."""
    return {
        "spectral": {"type": "lorentzian_sum", "terms": [
            {"weight": 1 / n, "center": 0.5 + k / n, "width": 1 + 2 * k / n}
            for k in range(n)]},
        "system": {"energies": [0.0, 1.0, 2.0],
                   "channels": [{"frequency": 1.0, "strength": strength}]},
        "run": {"generator": "auto", "t_max": 5.0, "n_steps": 50, "fock_levels": 3},
        "trajectories": {"n_traj": n_traj, "seed": 7},
        "output": {"observables": ["pop_1", "pop_2", "coh_1_2"]},
    }


def run_outputs(sha: str, tree: Path) -> Path:
    """Every output of the checkout ``tree`` of commit ``sha``, written afresh."""
    out = OUT / sha[:12]
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    child(tree, CHILD, str(out), ",".join(map(str, SEEDS)),
          json.dumps({"ladder3": ladder(3), "ladder3_weak": ladder(3, 0.1)}))
    return out


def csv_deviation(a: Path, b: Path) -> str:
    """The largest |change - parent| per column, or why they cannot be compared."""
    def read(path):
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                 if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        return rows[0], [[float(x) for x in row] for row in rows[1:]]

    (head_a, rows_a), (head_b, rows_b) = read(a), read(b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return f"columns {head_a} -> {head_b}, rows {len(rows_a)} -> {len(rows_b)}"
    worst = {}
    for col, name in enumerate(head_a):
        dev = max((abs(ra[col] - rb[col]) for ra, rb in zip(rows_a, rows_b)), default=0.0)
        changed = sum(ra[col] != rb[col] for ra, rb in zip(rows_a, rows_b))
        if changed:
            worst[name] = f"{dev:.3e} ({changed} cells)"
    return ", ".join(f"{k} {v}" for k, v in worst.items()) or "same numbers, other text"


def json_deviation(a: Path, b: Path) -> str:
    """Per check of a validate report: any change of status and |residual change|."""
    checks_a = {c["name"]: c for c in json.loads(a.read_text(encoding="utf-8"))["checks"]}
    checks_b = {c["name"]: c for c in json.loads(b.read_text(encoding="utf-8"))["checks"]}
    parts = []
    for name in sorted(checks_a.keys() | checks_b.keys()):
        ca, cb = checks_a.get(name, {}), checks_b.get(name, {})
        if ca.get("status") != cb.get("status"):
            parts.append(f"{name} status {ca.get('status')} -> {cb.get('status')}")
        ra, rb = ca.get("residual"), cb.get("residual")
        if ra != rb:
            dev = abs(ra - rb) if None not in (ra, rb) else math.nan
            parts.append(f"{name} residual {ra!r} -> {rb!r} ({dev:.3e})")
        if ca.get("detail") != cb.get("detail"):
            parts.append(f"{name} detail changed")
    return ", ".join(parts) or "same checks, other text"


def jumps_deviation(a: Path, b: Path) -> str:
    """The largest |change - parent| of a jump time, or where the records part."""
    ja, jb = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    if [[c for _, c in r] for r in ja] != [[c for _, c in r] for r in jb]:
        return "different jumps or channels"
    dev = max((abs(x[0] - y[0]) for ra, rb in zip(ja, jb) for x, y in zip(ra, rb)),
              default=0.0)
    return f"jump times {dev:.3e}"


def text_deviation(a: Path, b: Path) -> str:
    lines_a = a.read_text(encoding="utf-8").splitlines()
    lines_b = b.read_text(encoding="utf-8").splitlines()
    for k, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            return f"line {k + 1}: {la!r} -> {lb!r}"
    return f"{len(lines_a)} -> {len(lines_b)} lines"


def deviation(a: Path, b: Path) -> str:
    if a.suffix == ".csv":
        return csv_deviation(a, b)
    if a.name == "exit_codes.json":
        return text_deviation(a, b)
    if "-jumps-" in a.name:
        return jumps_deviation(a, b)
    if a.suffix == ".json":
        return json_deviation(a, b)
    return text_deviation(a, b)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    dirs = [run_outputs(*checkout(rev)) for rev in (args.parent, args.change)]
    names = sorted({p.name for d in dirs for p in d.iterdir()})
    same, differ = [], []
    for name in names:
        a, b = (d / name for d in dirs)
        if not (a.exists() and b.exists()):
            differ.append(f"{name}: only in the {'change' if b.exists() else 'parent'}")
        elif a.read_bytes() == b.read_bytes():
            same.append(name)
        else:
            differ.append(f"{name}: {deviation(a, b)}")
    print(f"byte-identical ({len(same)} of {len(names)}):")
    print("\n".join(f"  {name}" for name in same))
    print(f"different ({len(differ)}):")
    print("\n".join(f"  {line}" for line in differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

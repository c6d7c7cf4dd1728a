"""Benchmark workloads: the YAML and argv each one feeds the CLI, and its gate.

Every workload starts from a shipped config, applies a fixed set of
overrides and writes the result to its own YAML file, so the program sees
only that file and its argv.  Each solve's output is then checked against a
reference computed once per benchmark process, outside every timed region.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

#: Accuracy gates.  The oracle tolerance is the project's own (ROADMAP:
#: "oracle population within 1e-6"); TRACE_TOL matches dynamics.TRACE_TOL.
ORACLE_TOL = 1e-6
TRACE_TOL = 1e-8
#: Trajectory means may sit this many binomial standard deviations off.
TRAJ_SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    why: str
    overrides: dict = field(default_factory=dict)

    def write_config(self, root: Path, work: Path) -> Path:
        doc = yaml.safe_load((root / self.config).read_text(encoding="utf-8"))
        doc = _merged(doc, self.overrides)
        path = work / "config.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
        return path

    def argv(self, config: Path, out: Path, seed: int) -> list[str]:
        """CLI argv for one solve; ``{i}`` in the output name is the solve index."""
        args = [self.command, str(config), "--out", str(out)]
        if self.command == "trajectories":
            # The CLI rejects negative seeds; any integer maps onto a valid one.
            args += ["--seed", str(seed % 2**32)]
        return args

    @property
    def output_suffix(self) -> str:
        return ".json" if self.command == "validate" else ".csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve_band_gap", "evolve", "configs/band_gap.yaml",
            "evolve on band_gap.yaml as shipped (d=18, 201 rows): the main command, "
            "~80% in Generator.apply, where exact propagation must show",
        ),
        Workload(
            "evolve_fock4", "evolve", "configs/band_gap.yaml",
            "evolve, band_gap.yaml with fock_levels 4, t_max 1, n_steps 10 (d=50): "
            "arithmetic-bound apply; shows what d^2 x d^2 operators cost in setup and memory",
            overrides={"run": {"fock_levels": 4, "t_max": 1.0, "n_steps": 10}},
        ),
        Workload(
            "trajectories_band_gap", "trajectories", "configs/band_gap.yaml",
            "trajectories, band_gap.yaml, 500 trajectories, --seed from the benchmark seed: "
            "only the jump unraveling; Generator.apply is never called",
        ),
        Workload(
            "validate_band_gap", "validate", "configs/band_gap.yaml",
            "validate on band_gap.yaml as shipped: every layer but trajectories, with "
            "336,800 RK4 Generator.apply calls, the rotation check and the oracle in one solve",
        ),
    )
}


def _merged(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merged(out[key], value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# references and gates


def reference_population(config: Path) -> tuple[np.ndarray, int]:
    """Excited population from the single-excitation oracle on the run grid,
    and the config's trajectory count.

    The oracle integrates the one-quantum amplitude equations, independent of
    the master equation and of the trajectory unraveling.
    """
    from pseudomodes.cli import load_config
    from pseudomodes.mapping import build_discrete_modes
    from pseudomodes.oracle import single_excitation_solve

    cfg = load_config(config)
    modes = build_discrete_modes(cfg.pole_set, cfg.system.strengths)
    grid = np.linspace(0.0, cfg.t_max, cfg.n_steps + 1)
    amp = single_excitation_solve(
        modes, cfg.system.strengths[0], cfg.system.frequencies[0], grid)
    return np.abs(amp.excited) ** 2, cfg.n_traj


def read_csv(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """Header, data rows and trailing comment lines of a CLI CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if l and not l.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(x) for x in l.split(",")] for l in body[1:]])
    return header, rows.reshape(len(body) - 1, len(header)), comments


def binomial_bound(p: np.ndarray, n: int) -> np.ndarray:
    """TRAJ_SIGMAS standard deviations of the mean of n [0, 1]-valued samples.

    By the Bhatia-Davis inequality a [0, 1]-valued observable with mean p has
    variance at most p (1 - p), so this bound does not collapse at rows
    where no trajectory has jumped yet, unlike the sample standard error.
    """
    var = np.clip(p * (1.0 - p), 0.0, None)
    return TRAJ_SIGMAS * np.sqrt(var / n)


def check_output(workload: Workload, path: Path, reference: np.ndarray | None,
                 n_traj: int) -> str | None:
    """None when the output passes its gate, otherwise the reason it fails."""
    if not path.is_file():
        return f"missing output {path.name}"
    if workload.command == "validate":
        doc = json.loads(path.read_text(encoding="utf-8"))
        bad = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
        if bad or not doc["passed"]:
            return f"validate checks not passed: {bad}"
        return None
    header, rows, comments = read_csv(path)
    if comments:
        return f"aborted run: {comments[-1]}"
    if rows.shape[0] != reference.size:
        return f"{rows.shape[0]} rows, expected {reference.size}"
    pop = rows[:, header.index("pop_1_re")]
    trace_err = float(rows[:, header.index("trace_err")].max())
    if not trace_err <= TRACE_TOL:
        return f"trace_err {trace_err:.3g} above {TRACE_TOL:g}"
    dev = np.abs(pop - reference)
    if workload.command == "evolve":
        worst = float(dev.max())
        if not worst <= ORACLE_TOL:
            return f"pop_1 off the oracle by {worst:.3g} (tolerance {ORACLE_TOL:g})"
        return None
    bound = binomial_bound(reference, n_traj)
    over = np.flatnonzero(~(dev <= bound))
    if over.size:
        i = int(over[0])
        return (f"pop_1 mean off the oracle by {dev[i]:.3g} at row {i}, "
                f"bound {bound[i]:.3g}")
    return None


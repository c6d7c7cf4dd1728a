"""Config-driven command line front end.

Subcommands:
    map           report the discrete-mode family (and its rotated form)
    evolve        integrate the master equation, write a CSV trace
    trajectories  run a stochastic wave-function ensemble, write a CSV trace
    validate      run the model's consistency checks, emit a JSON summary

Exit codes: 0 success, 1 validation-suite failure, 2 config error,
3 regularization infeasibility, 4 truncation abort.

Outputs are deterministic: identical configs produce byte-identical files.
Numbers are printed with 17 significant digits so CSV round-trips preserve
the underlying doubles exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .dynamics import (
    FRAMES,
    KINDS,
    MAX_TAYLOR_INTERVALS,
    TAYLOR_THETA,
    Generator,
    build_generator,
    equivalence_check,
    evolve,
    taylor_plan,
)
from .errors import (
    ClassificationError,
    ConfigError,
    EngineError,
    InvalidModelError,
    RegularizationError,
    StepUnderflowError,
    TruncationGuardError,
)
from .hilbert import (
    SpaceLayout,
    SystemSpec,
    basis_state,
    expectation,
    top_fock_populations,
    vacuum_embedding,
)
from .mapping import (
    ModeSet,
    RotationCheck,
    build_discrete_modes,
    mode_correlation,
    two_mode_regularize,
    verify_rotation_numeric,
)
from .oracle import single_excitation_solve
from .spectral import (
    POSITIVITY_FLOOR,
    CorrelationSpec,
    LorentzianSum,
    LorentzianTerm,
    Pole,
    PoleSet,
    PositivityReport,
    check_positivity_grid,
    correlation,
    default_grid,
    lorentzian_to_poles,
)
from .trajectories import TrajectoryConfig, mcwf_run

CORRELATION_TOL = 1e-12
ROTATION_TOL = 1e-8
EQUIVALENCE_TOL = 1e-8
ORACLE_TOL = 1e-6


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _require(block: dict, key: str, where: str) -> Any:
    if key not in block:
        raise ConfigError(f"missing key '{key}' in {where}")
    return block[key]


def _as_dict(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {type(value).__name__}")
    return value


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ConfigError(f"{where} is beyond the floating-point range") from None
    if not math.isfinite(out):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return out


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _entry_to_complex(value: Any, where: str) -> complex:
    """A matrix entry is either a real number or a [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_float(value[0], where), _as_float(value[1], where))
    raise ConfigError(f"{where} must be a number or a [re, im] pair, got {value!r}")


def _parse_matrix(value: Any, dim: int, where: str) -> np.ndarray:
    rows = _as_list(value, where)
    if len(rows) != dim:
        raise ConfigError(f"{where} must be {dim}x{dim}")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        cells = _as_list(row, f"{where}[{i}]")
        if len(cells) != dim:
            raise ConfigError(f"{where} must be {dim}x{dim}")
        for j, cell in enumerate(cells):
            out[i, j] = _entry_to_complex(cell, f"{where}[{i}][{j}]")
    return out


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description.

    Everything downstream (mode construction, generators, grids, outputs)
    derives from these fields; `raw` keeps the parsed document so a config
    can be re-serialized without loss.
    """

    pole_set: PoleSet
    density: LorentzianSum | None
    system: SystemSpec
    generator_kind: str
    frame: str
    t_max: float
    n_steps: int
    fock_levels: tuple[int, ...] | int
    initial_level: int
    step_scale: float
    n_traj: int
    seed: int
    out_path: str | None
    observable_names: tuple[str, ...] | None
    raw: dict


def _parse_spectral(block: dict) -> tuple[PoleSet, LorentzianSum | None]:
    kind = _require(block, "type", "spectral")
    if kind == "lorentzian_sum":
        items = _as_list(_require(block, "terms", "spectral"), "spectral.terms")
        terms = []
        for i, item in enumerate(items):
            d = _as_dict(item, f"spectral.terms[{i}]")
            terms.append(LorentzianTerm(
                weight=_as_float(_require(d, "weight", f"spectral.terms[{i}]"), "weight"),
                center=_as_float(_require(d, "center", f"spectral.terms[{i}]"), "center"),
                width=_as_float(_require(d, "width", f"spectral.terms[{i}]"), "width"),
            ))
        density = LorentzianSum(tuple(terms))
        return lorentzian_to_poles(density), density
    if kind == "raw_poles":
        items = _as_list(_require(block, "poles", "spectral"), "spectral.poles")
        poles = []
        for i, item in enumerate(items):
            d = _as_dict(item, f"spectral.poles[{i}]")
            center = _as_float(_require(d, "center", f"spectral.poles[{i}]"), "center")
            width = _as_float(_require(d, "width", f"spectral.poles[{i}]"), "width")
            residue = _entry_to_complex(
                _require(d, "residue", f"spectral.poles[{i}]"),
                f"spectral.poles[{i}].residue",
            )
            poles.append(Pole(z=complex(center, -width), residue=residue))
        return PoleSet(tuple(poles)), None
    raise ConfigError(
        f"spectral.type must be 'lorentzian_sum' or 'raw_poles', got {kind!r}"
    )


def _parse_system(block: dict) -> SystemSpec:
    energies = tuple(
        _as_float(x, f"system.energies[{i}]")
        for i, x in enumerate(_as_list(_require(block, "energies", "system"), "system.energies"))
    )
    dim = len(energies)
    channels = _as_list(_require(block, "channels", "system"), "system.channels")
    freqs, strengths, observables = [], [], []
    for i, item in enumerate(channels):
        d = _as_dict(item, f"system.channels[{i}]")
        freqs.append(_as_float(_require(d, "frequency", f"system.channels[{i}]"), "frequency"))
        strengths.append(_as_float(_require(d, "strength", f"system.channels[{i}]"), "strength"))
        if "observable" in d:
            observables.append(_parse_matrix(d["observable"], dim, f"system.channels[{i}].observable"))
        else:
            # Uniform coupling pattern; the gap filter keeps only the
            # matching transition elements anyway.
            observables.append(np.ones((dim, dim), dtype=complex))
    return SystemSpec(
        energies=energies,
        observables=tuple(observables),
        frequencies=tuple(freqs),
        strengths=tuple(strengths),
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML run description."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {p} is not valid YAML: {exc}") from exc
    doc = _as_dict(doc, "config document")

    try:
        pole_set, density = _parse_spectral(_as_dict(_require(doc, "spectral", "config"), "spectral"))
        system = _parse_system(_as_dict(_require(doc, "system", "config"), "system"))
    except (InvalidModelError, ValueError) as exc:
        raise ConfigError(f"invalid model in config {p}: {exc}") from exc

    run = _as_dict(doc.get("run", {}), "run")
    generator_kind = run.get("generator", "auto")
    if generator_kind not in ("auto",) + KINDS:
        raise ConfigError(
            f"run.generator must be 'auto' or one of {KINDS}, got {generator_kind!r}"
        )
    frame = run.get("frame", "schrodinger")
    if frame not in FRAMES:
        raise ConfigError(f"run.frame must be one of {FRAMES}, got {frame!r}")
    t_max = _as_float(run.get("t_max", 10.0), "run.t_max")
    if t_max < 0.0:
        raise ConfigError("run.t_max must be non-negative")
    n_steps = _as_int(run.get("n_steps", 100), "run.n_steps")
    if n_steps < 1:
        raise ConfigError("run.n_steps must be positive")
    fock_raw = run.get("fock_levels", 2)
    fock: tuple[int, ...] | int
    if isinstance(fock_raw, list):
        fock = tuple(_as_int(x, "run.fock_levels") for x in fock_raw)
    else:
        fock = _as_int(fock_raw, "run.fock_levels")
    initial_level = _as_int(run.get("initial_level", system.dim - 1), "run.initial_level")
    if not 0 <= initial_level < system.dim:
        raise ConfigError(
            f"run.initial_level must be in [0, {system.dim}), got {initial_level}"
        )
    step_scale = _as_float(run.get("step_scale", 1.0), "run.step_scale")
    if step_scale <= 0.0:
        raise ConfigError("run.step_scale must be positive")

    traj = _as_dict(doc.get("trajectories", {}), "trajectories")
    n_traj = _as_int(traj.get("n_traj", 500), "trajectories.n_traj")
    if n_traj < 1:
        raise ConfigError("trajectories.n_traj must be at least 1")
    seed = _as_int(traj.get("seed", 0), "trajectories.seed")
    if seed < 0:
        raise ConfigError(f"trajectories.seed must be non-negative, got {seed}")

    output = _as_dict(doc.get("output", {}), "output")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path must be a string")
    names_raw = output.get("observables")
    names = None
    if names_raw is not None:
        names = tuple(str(x) for x in _as_list(names_raw, "output.observables"))

    return RunConfig(
        pole_set=pole_set,
        density=density,
        system=system,
        generator_kind=generator_kind,
        frame=frame,
        t_max=t_max,
        n_steps=n_steps,
        fock_levels=fock,
        initial_level=initial_level,
        step_scale=step_scale,
        n_traj=n_traj,
        seed=seed,
        out_path=out_path,
        observable_names=names,
        raw=doc,
    )


def serialize_config(cfg: RunConfig) -> str:
    """Canonical YAML for a loaded config; reloading it runs identically."""
    return yaml.safe_dump(cfg.raw, sort_keys=True)


def _observable_ops(cfg: RunConfig) -> dict[str, np.ndarray]:
    """Resolve observable name tokens to system operators.

    pop_<n> is the population of level n; coh_<m>_<n> is the matrix element
    <m|rho_S|n>.  Default: populations of every level.
    """
    dim = cfg.system.dim
    names = cfg.observable_names
    if names is None:
        names = tuple(f"pop_{n}" for n in range(dim))
    ops: dict[str, np.ndarray] = {}
    for name in names:
        parts = name.split("_")
        try:
            if parts[0] == "pop" and len(parts) == 2:
                n = int(parts[1])
                if not 0 <= n < dim:
                    raise ValueError
                op = np.zeros((dim, dim), dtype=complex)
                op[n, n] = 1.0
            elif parts[0] == "coh" and len(parts) == 3:
                m, n = int(parts[1]), int(parts[2])
                if not (0 <= m < dim and 0 <= n < dim):
                    raise ValueError
                op = np.zeros((dim, dim), dtype=complex)
                op[n, m] = 1.0
            else:
                raise ValueError
        except ValueError:
            raise ConfigError(
                f"unknown observable '{name}' (expected pop_<n> or coh_<m>_<n> "
                f"with levels below {dim})"
            ) from None
        ops[name] = op
    return ops


def resolve_generator_kind(kind: str, modes: ModeSet) -> ModeSet:
    """The mode set to build the configured generator from.

    ``build_generator`` reads the kind off the set it gets.  'auto' keeps
    real couplings as they are and rotates a complex pair when the rotated
    rates stay non-negative, keeping the complex set otherwise.  An explicit
    ``lindblad_regularized`` request raises RegularizationError when the
    rotation is infeasible, and an explicit ``lindblad_direct`` one
    ClassificationError when the couplings are complex.  ``pathological`` on
    real couplings therefore builds the ``lindblad_direct`` generator, which
    is the same matrices.
    """
    if kind == "lindblad_regularized":
        return two_mode_regularize(modes)
    if kind == "lindblad_direct" and not modes.is_all_real:
        raise ClassificationError(
            "couplings are complex; a direct Lindblad form would be wrong. "
            "Use generator: pathological or lindblad_regularized."
        )
    if kind != "auto" or modes.is_all_real or len(modes) != 2:
        return modes
    try:
        return two_mode_regularize(modes)
    except RegularizationError:
        return modes


def _layout_for(cfg: RunConfig, n_modes: int) -> SpaceLayout:
    fock = cfg.fock_levels
    if isinstance(fock, int):
        levels = (fock,) * n_modes
    else:
        if len(fock) != n_modes:
            raise ConfigError(
                f"run.fock_levels lists {len(fock)} modes but the density has {n_modes}"
            )
        levels = fock
    return SpaceLayout(cfg.system.dim, levels)


def build_model(cfg: RunConfig) -> Generator:
    """The generator a config describes; it carries its layout and kind."""
    modes = build_discrete_modes(cfg.pole_set, cfg.system.strengths)
    mode_set = resolve_generator_kind(cfg.generator_kind, modes)
    layout = _layout_for(cfg, len(modes))
    return build_generator(cfg.system, mode_set, layout, cfg.frame)


def _check_row_length(gen: Generator, cfg: RunConfig) -> None:
    """Refuse rows whose exp(dt L) needs over MAX_TAYLOR_INTERVALS sub-intervals.

    The message names the smallest run.n_steps whose rows t_max / n_steps fit.
    """
    norm = gen.norm_estimate() * cfg.t_max
    no_row_fits = not 1.0 / cfg.step_scale <= MAX_TAYLOR_INTERVALS
    if gen.time_dependent or no_row_fits or not 0.0 < norm < math.inf:
        return  # nothing to plan, or evolve reports the unusable norm or step_scale

    def fits(n_steps: int) -> bool:
        try:
            taylor_plan(norm / n_steps, cfg.step_scale)
        except StepUnderflowError:
            return False
        return True

    if fits(cfg.n_steps):
        return
    # Shorter counts need more whole sub-intervals of the top degree than fit.
    cap = max(1, math.floor(MAX_TAYLOR_INTERVALS * cfg.step_scale))
    n_steps = math.ceil(norm / (TAYLOR_THETA[-1][1] * cap))
    while not fits(n_steps):
        n_steps += 1
    raise ConfigError(
        f"rows of {cfg.t_max / cfg.n_steps:.6g} time units need more than "
        f"{MAX_TAYLOR_INTERVALS} Taylor sub-intervals each; set run.n_steps "
        f"to at least {n_steps} (rows of {cfg.t_max / n_steps:.6g})"
    )


def _time_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.t_max == 0.0:
        return np.array([0.0])
    return np.linspace(0.0, cfg.t_max, cfg.n_steps + 1)


# ---------------------------------------------------------------------------
# map


@dataclass(frozen=True)
class MapReport:
    """Mode-family report produced by cmd_map."""

    modes: ModeSet
    positivity: PositivityReport
    regularized: ModeSet | None
    rotation_check: RotationCheck | None
    text: str


def _mode_lines(modes: ModeSet, coupling_text) -> list[str]:
    """One report line per mode: the diagonal of Z and the mode's couplings."""
    return [
        f"  mode {l}: frequency={_fmt(xi)} damping={_fmt(rate)} "
        f"couplings=[{', '.join(coupling_text(g) for g in column)}]"
        for l, (xi, rate, column) in enumerate(
            zip(modes.frequencies, modes.rates, modes.coupling_matrix.T))
    ]


def cmd_map(cfg: RunConfig) -> MapReport:
    """Build the discrete modes and, for a complex pair, their rotated form."""
    modes = build_discrete_modes(cfg.pole_set, cfg.system.strengths)
    report = check_positivity_grid(cfg.pole_set, default_grid(cfg.pole_set))
    lines = [
        f"classification: {modes.classification}",
        f"channel strengths: {', '.join(_fmt(w) for w in modes.strengths)}",
        "modes:",
        *_mode_lines(modes, lambda g: f"{g.real:.12g}{g.imag:+.12g}j"),
    ]
    lines.append(
        f"density positivity: min {_fmt(report.min_value)} at "
        f"omega={_fmt(report.min_location)} over {report.grid_size} points -> "
        f"{'pass' if report.passed else 'FAIL'}"
    )

    regularized = None
    check = None
    if not modes.is_all_real:
        # Raises on infeasible or unsupported families; the caller maps
        # those onto exit code 3.
        regularized = two_mode_regularize(modes)
        check = verify_rotation_numeric(modes, regularized)
        lines.append("regularized modes:")
        lines += _mode_lines(regularized, _fmt)
        hopping = regularized.frequency_matrix[0, 1].real
        lines.append(f"  intermode hopping: {_fmt(hopping)}")
        lines.append(
            f"  rotation verified numerically: max deviation {_fmt(check.max_deviation)} "
            f"over {check.candidates_checked} candidates"
        )
    text = "\n".join(lines) + "\n"
    return MapReport(modes, report, regularized, check, text)


# ---------------------------------------------------------------------------
# evolve / trajectories CSV plumbing


def _write_csv(path: Path, header: list[str], rows: list[list[float]],
               tail_comment: str | None = None) -> None:
    parts = [",".join(header)]
    for row in rows:
        parts.append(",".join(_fmt(x) for x in row))
    if tail_comment is not None:
        parts.append(f"# {tail_comment}")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot the observable columns of {csv_name}."""
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = Path(__file__).resolve().parent / "{csv_name}"
lines = [l for l in path.read_text(encoding="utf-8").splitlines()
         if l and not l.startswith("#")]
rows = list(csv.reader(lines))
header = rows[0]
data = [[float(x) for x in row] for row in rows[1:]]
if not data:
    raise SystemExit("no data rows in " + str(path))
cols = list(zip(*data))
fig, ax = plt.subplots(figsize=(7.0, 4.0))
for name, col in zip(header[1:], cols[1:]):
    if name.endswith("_re") or name == "top_fock_pop":
        ax.plot(cols[0], col, label=name)
ax.set_xlabel(header[0])
ax.set_ylabel("value")
ax.legend(loc="best", fontsize=8)
fig.tight_layout()
out = path.with_suffix(".png")
fig.savefig(out, dpi=150)
print("wrote", out)
'''


def _emit_plot_script(csv_path: Path) -> Path:
    script = csv_path.with_name(csv_path.stem + "_plot.py")
    script.write_text(_PLOT_TEMPLATE.format(csv_name=csv_path.name),
                      encoding="utf-8", newline="\n")
    return script


def _resolve_out(cfg: RunConfig, override: str | None) -> Path:
    out = override if override is not None else cfg.out_path
    if out is None:
        raise ConfigError("no output path: set output.path or pass --out")
    return Path(out)


@dataclass(frozen=True)
class RunOutput:
    csv_path: Path
    plot_path: Path
    aborted: bool


def cmd_evolve(cfg: RunConfig, out_override: str | None = None) -> RunOutput:
    """Integrate the configured master equation and write the CSV trace.

    On a truncation abort the rows accumulated so far are written, the file
    is closed with an `# ABORTED` comment line, and the error is re-raised
    for the exit-code mapping.
    """
    gen = build_model(cfg)
    _check_row_length(gen, cfg)
    ops = _observable_ops(cfg)
    grid = _time_grid(cfg)
    rho_s = np.zeros((cfg.system.dim, cfg.system.dim), dtype=complex)
    rho_s[cfg.initial_level, cfg.initial_level] = 1.0
    rho0 = vacuum_embedding(gen.layout, rho_s)

    header = ["t", *(f"{name}_{part}" for name in ops for part in ("re", "im")),
              "top_fock_pop", "trace_err"]
    csv_path = _resolve_out(cfg, out_override)

    def rows_from(result) -> list[list[float]]:
        rows = []
        for i, t in enumerate(result.times):
            row = [t]
            for name in ops:
                v = result.observables[name][i]
                row += [v.real, v.imag]
            row += [float(result.top_fock[i].max()), float(result.trace_error[i])]
            rows.append(row)
        return rows

    try:
        result = evolve(
            gen, rho0, grid, observables=ops,
            step_scale=cfg.step_scale, store_states=False,
        )
    except TruncationGuardError as exc:
        rows = rows_from(exc.partial) if exc.partial is not None else []
        tail = (
            f"ABORTED t={_fmt(exc.time)} top_fock_pop={_fmt(exc.population)} "
            "exceeds truncation guard"
        )
        _write_csv(csv_path, header, rows, tail_comment=tail)
        _emit_plot_script(csv_path)
        raise

    _write_csv(csv_path, header, rows_from(result))
    plot = _emit_plot_script(csv_path)
    return RunOutput(csv_path, plot, aborted=False)


def cmd_trajectories(cfg: RunConfig, out_override: str | None = None,
                     seed_override: int | None = None) -> RunOutput:
    """Run the stochastic unraveling ensemble and write mean/stderr columns."""
    gen = build_model(cfg)
    ops = _observable_ops(cfg)
    grid = _time_grid(cfg)
    psi0 = basis_state(gen.layout, cfg.initial_level)
    seed = cfg.seed if seed_override is None else seed_override
    traj_cfg = TrajectoryConfig(n_traj=cfg.n_traj, seed=seed, times=grid)
    ens = mcwf_run(gen, psi0, traj_cfg, observables=ops)

    header = ["t", *(f"{name}_{part}" for name in ops for part in ("re", "im", "se")),
              "top_fock_pop", "trace_err"]
    rows = []
    for i, t in enumerate(ens.times):
        row = [t]
        for name in ops:
            v = ens.observables[name][i]
            row += [v.real, v.imag, float(ens.stderr[name][i])]
        rho = ens.mean_density[i]
        row += [
            float(top_fock_populations(rho, gen.layout).max()),
            abs(float(np.trace(rho).real) - 1.0),
        ]
        rows.append(row)
    csv_path = _resolve_out(cfg, out_override)
    _write_csv(csv_path, header, rows)
    plot = _emit_plot_script(csv_path)
    return RunOutput(csv_path, plot, aborted=False)


# ---------------------------------------------------------------------------
# validate


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    residual: float | None
    tolerance: float | None
    detail: str


@dataclass(frozen=True)
class ValidationSummary:
    classification: str
    n_modes: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "classification": self.classification,
            "n_modes": self.n_modes,
            "checks": [asdict(c) for c in self.checks],
            "passed": self.passed,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _check(name: str, residual: float, tol: float, detail: str) -> CheckResult:
    status = "pass" if residual <= tol else "fail"
    return CheckResult(name, status, float(residual), float(tol), detail)


def _skip(name: str, detail: str) -> CheckResult:
    return CheckResult(name, "skip", None, None, detail)


def cmd_validate(cfg: RunConfig) -> ValidationSummary:
    """Run every consistency check applicable to the configured model."""
    modes = build_discrete_modes(cfg.pole_set, cfg.system.strengths)
    checks: list[CheckResult] = []
    horizon = 5.0 / float(modes.rates.min())

    # Density positivity on the default grid.
    rep = check_positivity_grid(cfg.pole_set, default_grid(cfg.pole_set))
    checks.append(CheckResult(
        "spectral_positivity",
        "pass" if rep.passed else "fail",
        float(max(0.0, -rep.min_value)),
        float(-POSITIVITY_FLOOR),
        f"min density {rep.min_value:.6g} at omega={rep.min_location:.6g}",
    ))

    # Correlation reconstructed from the damped-mode solution vs the pole sum.
    spec = CorrelationSpec(cfg.pole_set, cfg.system.strengths)
    worst = 0.0
    # All-zero strengths make every correlation vanish; compare absolutely then.
    scale = max(w * w for w in cfg.system.strengths) or 1.0
    # Lags t - s of 50 (t, s) pairs, drawn as s and then t - s per pair.
    draws = np.random.default_rng(20260817).uniform(0.0, horizon, size=(50, 2))
    lags = (draws[:, 0] + draws[:, 1]) - draws[:, 0]
    for j in range(modes.n_transitions):
        for k in range(modes.n_transitions):
            refs = correlation(spec, j, k, lags).tolist()
            vals = mode_correlation(modes, j, k, lags).tolist()
            for ref, val in zip(refs, vals):
                worst = max(worst, abs(val - ref) / max(abs(ref), 1e-6 * scale))
    checks.append(_check(
        "correlation_equivalence", worst, CORRELATION_TOL,
        "mode sum in the square-root gauge g_jl = W_j sqrt(-i r_l) vs the "
        "pole sum over the same poles, 50 random (t, s) pairs",
    ))

    # Rotation closed forms and the two-generator cross check.
    regularized = None
    if modes.is_all_real:
        checks.append(_skip("rotation_closed_forms", "couplings already real"))
    elif len(modes) != 2:
        checks.append(_skip(
            "rotation_closed_forms",
            f"{len(modes)} complex-coupled modes have no rotated form here",
        ))
    else:
        try:
            regularized = two_mode_regularize(modes)
        except RegularizationError as exc:
            checks.append(_skip("rotation_closed_forms", f"infeasible: {exc}"))
        else:
            rot = verify_rotation_numeric(modes, regularized)
            checks.append(_check(
                "rotation_closed_forms", rot.max_deviation, ROTATION_TOL,
                "closed-form rotated parameters vs numeric root search",
            ))

    eq_grid = np.linspace(0.0, 2.0 * horizon, 41)
    rho_s = np.zeros((cfg.system.dim, cfg.system.dim), dtype=complex)
    rho_s[cfg.initial_level, cfg.initial_level] = 1.0
    layout = _layout_for(cfg, len(modes))
    rotated = None
    if regularized is not None:
        uncorrected = build_generator(cfg.system, modes, layout)
        rotated = build_generator(cfg.system, regularized, layout)
        dev = equivalence_check(uncorrected, rotated, rho_s, eq_grid,
                                step_scale=cfg.step_scale)
        checks.append(_check(
            "generator_equivalence", dev, EQUIVALENCE_TOL,
            "reduced state: uncorrected generator vs rotated Lindblad form",
        ))
    elif modes.is_all_real:
        checks.append(_skip(
            "generator_equivalence",
            "couplings already real: the uncorrected form is the direct one",
        ))
    else:
        checks.append(_skip("generator_equivalence", "no second generator available"))

    # Reduced-population cross check against the single-excitation solver.
    if cfg.system.dim == 2 and cfg.system.n_channels == 1 and cfg.initial_level == 1:
        # The generator "auto" would build, reusing the rotated one above.
        gen = rotated if rotated is not None else build_generator(
            cfg.system, modes, layout)
        pop_grid = np.linspace(0.0, horizon, 51)
        res = evolve(gen, vacuum_embedding(layout, rho_s), pop_grid,
                     observables={"ee": np.diag([0.0, 1.0])}, store_states=False,
                     step_scale=cfg.step_scale)
        amp = single_excitation_solve(
            modes, cfg.system.strengths[0], cfg.system.frequencies[0], pop_grid)
        dev = float(np.abs(res.observables["ee"].real
                           - np.abs(amp.excited) ** 2).max())
        checks.append(_check(
            "oracle_population", dev, ORACLE_TOL,
            "excited population: master equation vs RK4 step-matrix power of "
            "the single-excitation amplitudes",
        ))
    else:
        checks.append(_skip(
            "oracle_population",
            "needs a two-level system with one channel starting excited",
        ))

    return ValidationSummary(
        classification=modes.classification,
        n_modes=len(modes),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudomodes",
        description="Simulate open quantum systems through damped discrete modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("map", "report the discrete-mode family for a spectral density"),
        ("evolve", "integrate the master equation and write a CSV trace"),
        ("trajectories", "average stochastic wave-function runs into a CSV trace"),
        ("validate", "run consistency checks and emit a JSON summary"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("config", help="path to a YAML run description")
        p.add_argument("--seed", type=int, default=None,
                       help="override trajectories.seed")
        p.add_argument("--out", default=None, help="override output.path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "map":
            report = cmd_map(cfg)
            sys.stdout.write(report.text)
            out = args.out if args.out is not None else cfg.out_path
            if out is not None:
                Path(out).write_text(report.text, encoding="utf-8", newline="\n")
            return 0
        if args.command == "evolve":
            output = cmd_evolve(cfg, out_override=args.out)
            print(f"wrote {output.csv_path}")
            print(f"wrote {output.plot_path}")
            return 0
        if args.command == "trajectories":
            output = cmd_trajectories(cfg, out_override=args.out,
                                      seed_override=args.seed)
            print(f"wrote {output.csv_path}")
            print(f"wrote {output.plot_path}")
            return 0
        summary = cmd_validate(cfg)
        text = summary.to_json() + "\n"
        sys.stdout.write(text)
        out = args.out if args.out is not None else cfg.out_path
        if out is not None:
            Path(out).write_text(text, encoding="utf-8", newline="\n")
        return 0 if summary.passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegularizationError as exc:
        print(f"regularization infeasible: {exc}", file=sys.stderr)
        return 3
    except TruncationGuardError as exc:
        print(f"truncation abort: {exc}", file=sys.stderr)
        return 4
    except (InvalidModelError, ClassificationError) as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

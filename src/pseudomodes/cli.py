"""Config-driven command line front end.

Subcommands:
    map           report the discrete-mode family (and its rotated form)
    evolve        integrate the master equation, write a CSV trace
    trajectories  run a stochastic wave-function ensemble, write a CSV trace
    validate      run the model's consistency checks, emit a JSON summary

Exit codes: 0 success, 1 validation-suite failure, 2 config error,
3 regularization infeasibility, 4 truncation abort.  A config key that no
block knows is a config error naming its full key path.

``evolve`` and ``trajectories`` share one CSV writer: a ``t`` column, then
``_re``/``_im`` (and for the ensemble ``_se``) columns per observable, then
the worst top Fock population and the trace error per row.  Both engines
record the Schrodinger picture; ``run.frame: interaction`` writes each
coherence column coh_m_n times exp(i (e_m - e_n) t).  Both stop on
the truncation guard of ``dynamics``, ``trajectories`` on the ensemble's
mean density; the clean rows are kept and the file ends in an
``# ABORTED`` line.

Outputs are deterministic: identical configs produce byte-identical files.
Every random number (``validate``'s lags, the trajectories' draws) comes
from one source, numpy's Philox streams computed in-package, bit for bit,
without importing ``numpy.random``.
Numbers are printed with 17 significant digits so CSV round-trips preserve
the underlying doubles exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from ._util import _Streams
from .dynamics import KINDS, Generator, build_generator, equivalence_check, evolve, taylor_plan
from .errors import (
    ClassificationError,
    ConfigError,
    EngineError,
    InvalidModelError,
    RegularizationError,
    TruncationGuardError,
)
from .hilbert import (
    SpaceLayout,
    SystemSpec,
    basis_state,
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
from .trajectories import EnsembleResult, TrajectoryConfig, mcwf_run

FRAMES = ("schrodinger", "interaction")
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


def _as_dict(value: Any, where: str, keys: tuple[str, ...]) -> dict:
    """The mapping at key path ``where`` ('' for the document), keys in ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(
            f"{where or 'config document'} must be a mapping, got {type(value).__name__}"
        )
    for key in value:
        if key not in keys:
            path = f"{where}.{key}" if where else str(key)
            raise ConfigError(f"unknown key {path!r} (expected one of: {', '.join(keys)})")
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


def _number(block: dict, key: str, where: str) -> float:
    return _as_float(_require(block, key, where), f"{where}.{key}")


def _as_int(value: Any, where: str, least: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{where} must be at least {least}, got {value}")
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
    n_traj: int
    seed: int
    out_path: str | None
    observable_names: tuple[str, ...] | None
    raw: dict


def _parse_spectral(value: Any) -> tuple[PoleSet, LorentzianSum | None]:
    kind = _require(_as_dict(value, "spectral", ("type", "terms", "poles")), "type", "spectral")
    if kind not in ("lorentzian_sum", "raw_poles"):
        raise ConfigError(
            f"spectral.type must be 'lorentzian_sum' or 'raw_poles', got {kind!r}"
        )
    key = "terms" if kind == "lorentzian_sum" else "poles"
    items = _as_list(_require(_as_dict(value, "spectral", ("type", key)), key, "spectral"),
                     f"spectral.{key}")
    if kind == "lorentzian_sum":
        terms = []
        for i, item in enumerate(items):
            where = f"spectral.terms[{i}]"
            d = _as_dict(item, where, ("weight", "center", "width"))
            terms.append(LorentzianTerm(
                weight=_number(d, "weight", where),
                center=_number(d, "center", where),
                width=_number(d, "width", where),
            ))
        density = LorentzianSum(tuple(terms))
        return lorentzian_to_poles(density), density
    poles = []
    for i, item in enumerate(items):
        where = f"spectral.poles[{i}]"
        d = _as_dict(item, where, ("center", "width", "residue"))
        center = _number(d, "center", where)
        width = _number(d, "width", where)
        residue = _entry_to_complex(_require(d, "residue", where), f"{where}.residue")
        poles.append(Pole(z=complex(center, -width), residue=residue))
    return PoleSet(tuple(poles)), None


def _parse_system(block: dict) -> SystemSpec:
    energies = tuple(
        _as_float(x, f"system.energies[{i}]")
        for i, x in enumerate(_as_list(_require(block, "energies", "system"), "system.energies"))
    )
    dim = len(energies)
    channels = _as_list(_require(block, "channels", "system"), "system.channels")
    freqs, strengths, observables = [], [], []
    for i, item in enumerate(channels):
        where = f"system.channels[{i}]"
        d = _as_dict(item, where, ("frequency", "strength", "observable"))
        freqs.append(_number(d, "frequency", where))
        strengths.append(_number(d, "strength", where))
        if "observable" in d:
            observables.append(_parse_matrix(d["observable"], dim, f"{where}.observable"))
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


#: Collections a config may nest; the shipped configs nest 4 deep.
MAX_CONFIG_DEPTH = 100


class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml where PyYAML has it, plus the YAML 1.2
    floats that YAML 1.1 reads as strings.

    YAML 1.1 wants a dot and a signed exponent, so PyYAML's resolver leaves
    ``1e-3``, ``2E5`` and ``1e300`` as strings.
    """


class _ConfigDumper(yaml.SafeDumper):
    """The safe dumper, quoting the strings that ``_ConfigLoader`` reads as floats."""


# Registered on the subclasses, so yaml.SafeLoader and SafeDumper stay as they are.
for _resolver in (_ConfigLoader, _ConfigDumper):
    _resolver.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML run description."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        # The parsers keep their own stacks, but composing a document
        # recurses once per level, in PyYAML's C extension as in its Python,
        # so the depth is bounded from the parse events first.  Each
        # collection starts at an indicator of its own ('[', '{', a '-'
        # entry, a ':' or '?' key), so a text with no more of these
        # characters than the bound nests within it and needs no such pass.
        if sum(map(text.count, "[{-:?")) > MAX_CONFIG_DEPTH:
            depth = 0
            for event in yaml.parse(text, Loader=_ConfigLoader):
                if isinstance(event, yaml.CollectionStartEvent):
                    depth += 1
                    if depth > MAX_CONFIG_DEPTH:
                        raise ConfigError(f"config {p} is nested too deeply to parse")
                elif isinstance(event, yaml.CollectionEndEvent):
                    depth -= 1
        doc = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {p} is not valid YAML: {exc}") from exc
    doc = _as_dict(doc, "", ("spectral", "system", "run", "trajectories", "output"))

    try:
        pole_set, density = _parse_spectral(_require(doc, "spectral", "config"))
        system = _parse_system(
            _as_dict(_require(doc, "system", "config"), "system", ("energies", "channels")))
    except (InvalidModelError, ValueError) as exc:
        raise ConfigError(f"invalid model in config {p}: {exc}") from exc

    run = _as_dict(doc.get("run", {}), "run", (
        "generator", "frame", "t_max", "n_steps", "fock_levels", "initial_level"))
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
    n_steps = _as_int(run.get("n_steps", 100), "run.n_steps", least=1)
    fock_raw = run.get("fock_levels", 2)
    fock: tuple[int, ...] | int
    if isinstance(fock_raw, list):
        fock = tuple(_as_int(x, f"run.fock_levels[{i}]", least=1)
                     for i, x in enumerate(fock_raw))
    else:
        fock = _as_int(fock_raw, "run.fock_levels", least=1)
    initial_level = _as_int(run.get("initial_level", system.dim - 1), "run.initial_level")
    if not 0 <= initial_level < system.dim:
        raise ConfigError(
            f"run.initial_level must be in [0, {system.dim}), got {initial_level}"
        )

    traj = _as_dict(doc.get("trajectories", {}), "trajectories", ("n_traj", "seed"))
    n_traj = _as_int(traj.get("n_traj", 500), "trajectories.n_traj", least=1)
    seed = _as_int(traj.get("seed", 0), "trajectories.seed", least=0)

    output = _as_dict(doc.get("output", {}), "output", ("path", "observables"))
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path must be a string")
    names_raw = output.get("observables")
    names = None
    if names_raw is not None:
        names = tuple(str(x) for x in _as_list(names_raw, "output.observables"))

    cfg = RunConfig(
        pole_set=pole_set,
        density=density,
        system=system,
        generator_kind=generator_kind,
        frame=frame,
        t_max=t_max,
        n_steps=n_steps,
        fock_levels=fock,
        initial_level=initial_level,
        n_traj=n_traj,
        seed=seed,
        out_path=out_path,
        observable_names=names,
        raw=doc,
    )
    _observable_ops(cfg)  # an unknown name is refused whatever the subcommand
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical YAML for a loaded config; reloading it runs identically."""
    return yaml.dump(cfg.raw, Dumper=_ConfigDumper, sort_keys=True)


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


def _start(cfg: RunConfig, layout: SpaceLayout) -> list[tuple[int, ...]]:
    """The label of the initial state: the initial level with every mode in vacuum."""
    return [(cfg.initial_level,) + (0,) * layout.n_modes]


def build_model(cfg: RunConfig) -> Generator:
    """The generator a config describes, on the sector of its initial state;
    it carries its sector and kind."""
    modes = build_discrete_modes(cfg.pole_set, cfg.system.strengths)
    mode_set = resolve_generator_kind(cfg.generator_kind, modes)
    layout = _layout_for(cfg, len(modes))
    return build_generator(cfg.system, mode_set, layout, _start(cfg, layout))


def _time_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.t_max == 0.0:
        return np.array([0.0])
    try:
        return np.linspace(0.0, cfg.t_max, cfg.n_steps + 1)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"run.n_steps is {cfg.n_steps}: a grid of that many rows does not "
                          f"fit in memory ({exc})") from None


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
    """Build the discrete modes and, for a complex pair, their rotated form.

    The generator of the mode set is built on the configured layout, so a
    ``run.fock_levels`` list of the wrong length is refused as the other
    subcommands refuse it, and so is a generator without a finite norm
    bound, with the line of every propagator (``taylor_plan``).
    """
    modes = build_discrete_modes(cfg.pole_set, cfg.system.strengths)
    layout = _layout_for(cfg, len(modes))
    taylor_plan(build_generator(cfg.system, modes, layout, _start(cfg, layout))
                .norm_estimate(), 0.0)
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


@dataclass(frozen=True)
class RunOutput:
    csv_path: Path
    plot_path: Path


def _output_path(out: str) -> Path:
    """The output file ``out``, refused before any run when it names a
    directory or lies in a directory that does not exist."""
    if os.path.isdir(out):
        raise ConfigError(f"output path {ascii(out)} is a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"output path {ascii(out)} is in a directory that does not exist")
    return Path(out)


def _write_text(path: Path, text: str) -> None:
    """Write an output file; a failed write, such as a refused permission, is
    an EngineError naming the file (exit 2)."""
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise EngineError(f"cannot write {ascii(str(path))}: {exc.strerror or exc}") from None


def _write_trace(cfg: RunConfig, out_override: str | None, run) -> RunOutput:
    """Run ``run(ops)`` and write its rows as the CSV trace plus a plot script.

    ``run`` returns an EvolutionResult or an EnsembleResult, whose rows also
    get a ``_se`` column after each observable's ``_re`` and ``_im``.  In the
    interaction frame each coherence coh_m_n is written times exp(i (e_m -
    e_n) t): the modes' part of H0 cancels under the partial trace.  The
    output path is resolved, and refused unless it encodes as UTF-8, before
    the run, as is one that names a directory or lies in a directory that
    does not exist (``_output_path``).  On a truncation abort the clean
    prefix is written, the file is closed with an `# ABORTED` comment line,
    and the error is re-raised for the exit-code mapping.
    """
    out = out_override if out_override is not None else cfg.out_path
    if out is None:
        raise ConfigError("no output path: set output.path or pass --out")
    try:
        out.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"output path {ascii(out)} is not valid UTF-8") from None
    csv_path, ops = _output_path(out), _observable_ops(cfg)
    plot = _output_path(str(csv_path.with_name(csv_path.stem + "_plot.py")))

    def write(result, tail: str | None = None) -> RunOutput:
        se = isinstance(result, EnsembleResult)
        parts = ("re", "im", "se") if se else ("re", "im")
        lines = [",".join(["t", *(f"{name}_{part}" for name in ops for part in parts),
                           "top_fock_pop", "trace_err"])]
        columns = [result.times]
        for name in ops:
            v = result.observables[name]
            if cfg.frame == "interaction" and name.startswith("coh_"):
                e_m, e_n = (cfg.system.energies[int(k)] for k in name.split("_")[1:])
                # + 0j turns the -0.0 of a rotated exact zero into 0.0
                v = v * np.exp(1j * (e_m - e_n) * result.times) + 0j
            columns += [v.real, v.imag, result.stderr[name]] if se else [v.real, v.imag]
        columns += [result.top_fock, result.trace_error]
        # "%.17g" of a float is _fmt's text
        row = ",".join(["%.17g"] * len(columns))
        lines += [row % x for x in zip(*(c.tolist() for c in columns))]
        if tail is not None:
            lines.append(f"# {tail}")
        _write_text(csv_path, "\n".join(lines) + "\n")
        # JSON escapes are valid in a Python string, so the name is one literal.
        name = json.dumps(csv_path.name, ensure_ascii=False)[1:-1]
        _write_text(plot, _PLOT_TEMPLATE.format(csv_name=name))
        return RunOutput(csv_path, plot)

    try:
        return write(run(ops))
    except TruncationGuardError as exc:
        write(exc.partial, f"ABORTED t={_fmt(exc.time)} top_fock_pop="
                           f"{_fmt(exc.population)} exceeds truncation guard")
        raise


def cmd_evolve(cfg: RunConfig, out_override: str | None = None) -> RunOutput:
    """Integrate the configured master equation and write the CSV trace."""
    def run(ops):
        gen = build_model(cfg)
        rho_s = np.zeros((cfg.system.dim, cfg.system.dim), dtype=complex)
        rho_s[cfg.initial_level, cfg.initial_level] = 1.0
        return evolve(gen, vacuum_embedding(gen.sector, rho_s), _time_grid(cfg),
                      observables=ops, store_states=False)

    return _write_trace(cfg, out_override, run)


def cmd_trajectories(cfg: RunConfig, out_override: str | None = None,
                     seed_override: int | None = None) -> RunOutput:
    """Run the stochastic unraveling ensemble and write mean/stderr columns."""
    def run(ops):
        gen = build_model(cfg)
        seed = cfg.seed if seed_override is None else seed_override
        traj_cfg = TrajectoryConfig(n_traj=cfg.n_traj, seed=seed, times=_time_grid(cfg))
        return mcwf_run(gen, basis_state(gen.sector, cfg.initial_level), traj_cfg,
                        observables=ops)

    return _write_trace(cfg, out_override, run)


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
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the summary's
        fields, each flat mapping written by json's C encoder with the
        separators that indentation puts between its items."""
        def flat(mapping: dict, indent: str) -> str:
            text = json.dumps(mapping, sort_keys=True, separators=(",\n" + indent, ": "))
            return "{\n" + indent + text[1:-1] + "\n" + indent[2:] + "}"

        checks = ",\n    ".join(
            flat({"name": c.name, "status": c.status, "residual": c.residual,
                  "tolerance": c.tolerance, "detail": c.detail}, " " * 6)
            for c in self.checks)
        rest = flat({"classification": self.classification, "n_modes": self.n_modes,
                     "passed": self.passed}, "  ")
        return ('{\n  "checks": ' + (f"[\n    {checks}\n  ]" if checks else "[]") + ",\n  "
                + rest[4:])


def _check(name: str, residual: float, tol: float, detail: str) -> CheckResult:
    status = "pass" if residual <= tol else "fail"
    return CheckResult(name, status, float(residual), float(tol), detail)


def _skip(name: str, detail: str) -> CheckResult:
    return CheckResult(name, "skip", None, None, detail)


def cmd_validate(cfg: RunConfig) -> ValidationSummary:
    """Run every consistency check applicable to the configured model."""
    modes = build_discrete_modes(cfg.pole_set, cfg.system.strengths)
    checks: list[CheckResult] = []
    # Five decay times of the slowest mode, but no longer than the run: a
    # narrow line would otherwise stretch every check's time axis without end.
    horizon = 5.0 / float(modes.rates.min())
    if cfg.t_max > 0.0:
        horizon = min(horizon, cfg.t_max)

    # Density positivity on the default grid.
    rep = check_positivity_grid(cfg.pole_set, default_grid(cfg.pole_set))
    checks.append(CheckResult(
        "spectral_positivity",
        "pass" if rep.passed else "fail",
        float(max(0.0, -rep.min_value)),
        float(-POSITIVITY_FLOOR),
        f"min density {rep.min_value:.6g} at omega={rep.min_location:.6g}",
    ))

    # Rotation closed forms: the rotated pair is the set "auto" runs.
    regularized = None
    if modes.is_all_real:
        rotation = _skip("rotation_closed_forms", "couplings already real")
    elif len(modes) != 2:
        rotation = _skip(
            "rotation_closed_forms",
            f"{len(modes)} complex-coupled modes have no rotated form here",
        )
    else:
        try:
            regularized = two_mode_regularize(modes)
        except RegularizationError as exc:
            rotation = _skip("rotation_closed_forms", f"infeasible: {exc}")
        else:
            rot = verify_rotation_numeric(modes, regularized)
            rotation = _check(
                "rotation_closed_forms", rot.max_deviation, ROTATION_TOL,
                "closed-form rotated parameters vs numeric root search",
            )

    # Correlation of the mode set the run generator is built from vs the pole sum.
    run_modes = modes if regularized is None else regularized
    spec = CorrelationSpec(cfg.pole_set, cfg.system.strengths)
    worst = 0.0
    # All-zero strengths make every correlation vanish; compare absolutely then.
    scale = max(w * w for w in cfg.system.strengths) or 1.0
    # Lags t - s of 50 (t, s) pairs, drawn as s and then t - s per pair:
    # pair k is draws 0 and 1 of the Philox stream SeedSequence(20260817,
    # spawn_key=(k,)), the trajectories' generator, scaled to [0, horizon).
    n = np.arange(100)
    draws = (horizon * _Streams(20260817, 50).draw(n // 2, n % 2)).reshape(50, 2)
    lags = (draws[:, 0] + draws[:, 1]) - draws[:, 0]
    for j in range(modes.n_transitions):
        for k in range(modes.n_transitions):
            refs = correlation(spec, j, k, lags).tolist()
            vals = mode_correlation(run_modes, j, k, lags).tolist()
            worst = max((worst, *(abs(val - ref) / max(abs(ref), 1e-6 * scale)
                                  for ref, val in zip(refs, vals))))
    used = (
        "mode sum in the square-root gauge g_jl = W_j sqrt(-i r_l) vs the pole "
        "sum over the same poles" if regularized is None else
        "rotated pair g^T exp(-i Z tau) g (real g, hopping in Z) vs the pole sum"
    )
    checks.append(_check(
        "correlation_equivalence", worst, CORRELATION_TOL,
        f"{used}, 50 random (t, s) pairs",
    ))
    checks.append(rotation)

    layout = _layout_for(cfg, len(modes))
    start = _start(cfg, layout)
    if cfg.t_max == 0.0:  # a run without a time axis has no dynamics to check
        checks += [_skip(name, "the run has no time axis (t_max 0)")
                   for name in ("generator_equivalence", "oracle_population")]
        return ValidationSummary(modes.classification, len(modes), tuple(checks))
    eq_grid = np.linspace(0.0, min(2.0 * horizon, cfg.t_max), 41)
    rho_s = np.zeros((cfg.system.dim, cfg.system.dim), dtype=complex)
    rho_s[cfg.initial_level, cfg.initial_level] = 1.0
    rotated = None
    if regularized is not None:
        uncorrected = build_generator(cfg.system, modes, layout, start)
        rotated = build_generator(cfg.system, regularized, layout, start)
        dev = equivalence_check(uncorrected, rotated, rho_s, eq_grid)
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
            cfg.system, modes, layout, start)
        pop_grid = np.linspace(0.0, horizon, 51)
        res = evolve(gen, vacuum_embedding(gen.sector, rho_s), pop_grid,
                     observables={"ee": np.diag([0.0, 1.0])}, store_states=False)
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


@functools.cache  # built once per process; parse_args leaves it as it was
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
        if name == "trajectories":
            p.add_argument("--seed", type=int, default=None,
                           help="override trajectories.seed")
        p.add_argument("--out", default=None, help="override output.path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command in ("evolve", "trajectories"):
            output = (cmd_evolve(cfg, args.out) if args.command == "evolve"
                      else cmd_trajectories(cfg, args.out, args.seed))
            print(f"wrote {output.csv_path}")
            print(f"wrote {output.plot_path}")
            return 0
        out = args.out if args.out is not None else cfg.out_path
        path = None if out is None else _output_path(out)
        if args.command == "map":
            text = cmd_map(cfg).text
            code = 0
        else:
            summary = cmd_validate(cfg)
            text = summary.to_json() + "\n"
            code = 0 if summary.passed else 1
        sys.stdout.write(text)
        if path is not None:
            _write_text(path, text)
        return code
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
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

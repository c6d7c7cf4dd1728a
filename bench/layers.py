"""Per-layer tracing: spans around the calls into each package module.

The program is not changed.  For a traced solve, wrappers are installed on
the names the callers actually look up and removed again afterwards:

* ``cli`` imports its callees by name, so ``pseudomodes.cli.evolve``,
  ``pseudomodes.cli.mcwf_run`` and so on are wrapped there;
* ``dynamics.equivalence_check`` reaches ``evolve`` through the ``dynamics``
  module's own global, and generator assembly and snapshot recording reach
  ``hilbert`` through names imported into ``dynamics``;
* the two hot leaves, ``Generator.apply`` and ``NoJumpPropagator.apply``, are
  patched on their classes.  They run hundreds of thousands of times per
  solve, so instead of one span per call they add a count, busy time and a
  computed FLOP count to the span that encloses them.

A span records name, start, end, parent and solve id.  Spans stay in memory
and are written out when the traced process ends.  Self time is a span's
duration minus what its child spans and leaf calls cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

#: (module whose global is wrapped, attribute, layer of the callee).
BOUNDARIES = (
    ("cli", "load_config", "cli"),
    ("cli", "lorentzian_to_poles", "spectral"),
    ("cli", "default_grid", "spectral"),
    ("cli", "check_positivity_grid", "spectral"),
    ("cli", "correlation", "spectral"),
    ("cli", "build_discrete_modes", "mapping"),
    ("cli", "two_mode_regularize", "mapping"),
    ("cli", "verify_rotation_numeric", "mapping"),
    ("cli", "basis_state", "hilbert"),
    ("cli", "vacuum_embedding", "hilbert"),
    ("cli", "top_fock_populations", "hilbert"),
    ("cli", "expectation", "hilbert"),
    ("cli", "build_generator", "dynamics"),
    ("cli", "evolve", "dynamics"),
    ("cli", "equivalence_check", "dynamics"),
    ("cli", "mcwf_run", "trajectories"),
    ("cli", "auxiliary_correlation_check", "oracle"),
    ("cli", "single_excitation_solve", "oracle"),
    ("dynamics", "evolve", "dynamics"),
    ("dynamics", "eigenoperator", "hilbert"),
    ("dynamics", "embed", "hilbert"),
    ("dynamics", "embed_system", "hilbert"),
    ("dynamics", "mode_ops", "hilbert"),
    ("dynamics", "partial_trace_modes", "hilbert"),
    ("dynamics", "top_fock_populations", "hilbert"),
    ("dynamics", "vacuum_embedding", "hilbert"),
    ("dynamics", "expectation", "hilbert"),
    ("trajectories", "embed_system", "hilbert"),
    ("oracle", "eval_density", "spectral"),
)

#: Computed, not measured: one d x d complex matrix product is 8 d^3 real
#: flops, and Generator.apply does two drift products plus two per jump op.
FLOP_FORMULA = "8 d^3 (2 + 2 n_jump) per Generator.apply, n_jump = channels with rate > 0"


def _apply_flop(gen) -> float:
    n_jump = sum(1 for rate, _ in gen.channels if rate > 0.0)
    return 8.0 * gen.dim ** 3 * (2 + 2 * n_jump)


#: (module, class, method, leaf name, flops of one call or None), patched on
#: the class.
LEAVES = (
    ("dynamics", "Generator", "apply", "dynamics.apply", _apply_flop),
    ("trajectories", "NoJumpPropagator", "apply", "trajectories.prop_apply", None),
)


class Tracer:
    """Collects spans of traced solves; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self._solve: int | None = None
        self._flop: dict = {}

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "solve": self._solve,
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": perf_counter(),
            "leaf": {},
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "trajectories.mcwf_run":
                span["counts"] = {"jumps": int(result.jump_counts.sum()),
                                  "n_traj": int(result.n_traj)}
            return result

        return traced

    def _wrap_leaf(self, name: str, fn, flop_of):
        stack = self._stack
        flop_cache = self._flop

        @functools.wraps(fn)
        def traced(obj, *args):
            t0 = perf_counter()
            out = fn(obj, *args)
            dt = perf_counter() - t0
            acc = stack[-1]["leaf"].get(name)
            if acc is None:
                acc = stack[-1]["leaf"][name] = [0, 0.0, 0.0]
            acc[0] += 1
            acc[1] += dt
            if flop_of is not None:
                flop = flop_cache.get(obj)
                if flop is None:
                    flop = flop_cache[obj] = flop_of(obj)
                acc[2] += flop
            return out

        return traced

    # -- installation --------------------------------------------------------

    @contextmanager
    def solve(self, index: int):
        """Trace one solve: wrappers in place, a root span named cli.main."""
        undo = []
        try:
            for modname, attr, layer in BOUNDARIES:
                mod = importlib.import_module(f"pseudomodes.{modname}")
                fn = getattr(mod, attr, None)
                if fn is None:  # no longer imported there, so no caller looks it up
                    continue
                undo.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", fn))
            for modname, clsname, attr, leaf, flop_of in LEAVES:
                cls = getattr(importlib.import_module(f"pseudomodes.{modname}"), clsname)
                fn = cls.__dict__[attr]
                undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap_leaf(leaf, fn, flop_of))
            self._solve = index
            root = self._open("cli.main")
            try:
                yield
            finally:
                self._close(root)
        finally:
            self._solve = None
            self._flop.clear()
            for obj, attr, fn in reversed(undo):
                setattr(obj, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# per-layer metrics


#: name -> (unit, better, should move, on, idle on).  Mirrored, without the
#: last three fields, by BENCHMARK.json's per_layer list.
LAYER_METRICS = {
    "cli.main_s": ("s", "lower", "solve_s", "all four: the traced solve, root span", "-"),
    "cli.load_config_s": ("s", "lower", "setup_s, solve_s", "all four", "-"),
    "cli.self_s": ("s", "lower", "setup_s, solve_s",
                   "all four; most on evolve_band_gap, trajectories_band_gap (201 rows)", "-"),
    "spectral.s": ("s", "lower", "setup_s; solve_s", "validate_band_gap", "trajectories_band_gap"),
    "spectral.calls": ("count", "lower", "setup_s; solve_s", "validate_band_gap",
                       "trajectories_band_gap"),
    "mapping.s": ("s", "lower", "setup_s; solve_s", "validate_band_gap", "evolve_fock4"),
    "mapping.verify_s": ("s", "lower", "solve_s", "validate_band_gap", "evolve_fock4"),
    "mapping.regularize_calls": ("count", "lower", "setup_s; solve_s", "validate_band_gap",
                                 "evolve_fock4"),
    "hilbert.s": ("s", "lower", "setup_s; solve_s", "evolve_fock4 (kron at d = 50)", "-"),
    "hilbert.calls": ("count", "lower", "setup_s; solve_s", "evolve_fock4", "-"),
    "dynamics.build_s": ("s", "lower", "setup_s", "evolve_fock4", "-"),
    "dynamics.evolve_s": ("s", "lower", "solve_s",
                          "evolve_band_gap, evolve_fock4, validate_band_gap",
                          "trajectories_band_gap"),
    "dynamics.evolve_self_s": ("s", "lower", "solve_s",
                               "evolve_band_gap, evolve_fock4, validate_band_gap",
                               "trajectories_band_gap"),
    "dynamics.evolve_calls": ("count", "lower", "solve_s",
                              "evolve_band_gap, evolve_fock4, validate_band_gap",
                              "trajectories_band_gap"),
    "dynamics.apply_calls": ("count", "lower", "solve_s", "evolve_band_gap (per-call overhead)",
                             "trajectories_band_gap"),
    "dynamics.apply_s": ("s", "lower", "solve_s", "evolve_band_gap", "trajectories_band_gap"),
    "dynamics.apply_us": ("us", "lower", "solve_s", "evolve_band_gap", "trajectories_band_gap"),
    "dynamics.apply_gflop": ("Gflop", "lower", "solve_s",
                             "evolve_fock4 (arithmetic-bound) vs evolve_band_gap "
                             "(overhead-bound); computed: " + FLOP_FORMULA, "-"),
    "dynamics.apply_gflops": ("Gflop/s", "higher", "solve_s",
                              "evolve_fock4 vs evolve_band_gap; computed flops / apply_s", "-"),
    "trajectories.mcwf_s": ("s", "lower", "solve_s", "trajectories_band_gap",
                            "evolve_band_gap, evolve_fock4, validate_band_gap"),
    "trajectories.mcwf_self_s": ("s", "lower", "solve_s", "trajectories_band_gap",
                                 "evolve_band_gap, evolve_fock4, validate_band_gap"),
    "trajectories.prop_apply_calls": ("count", "lower", "solve_s", "trajectories_band_gap",
                                      "evolve_band_gap, evolve_fock4, validate_band_gap"),
    "trajectories.prop_apply_s": ("s", "lower", "solve_s", "trajectories_band_gap",
                                  "evolve_band_gap, evolve_fock4, validate_band_gap"),
    "trajectories.jumps": ("count", "lower", "solve_s", "trajectories_band_gap",
                           "evolve_band_gap, evolve_fock4, validate_band_gap"),
    "trajectories.traj_per_s": ("1/s", "higher", "solve_s", "trajectories_band_gap",
                                "evolve_band_gap, evolve_fock4, validate_band_gap"),
    "oracle.s": ("s", "lower", "solve_s", "validate_band_gap", "the other three"),
    "oracle.calls": ("count", "lower", "solve_s", "validate_band_gap", "the other three"),
    "trace.overhead_frac": ("ratio", "lower",
                            "- (how far to trust the split: traced solve_s / untraced - 1)",
                            "all four", "-"),
}

#: Counters that must repeat exactly between traced solves of one input.
EXACT_COUNTERS = (
    "dynamics.apply_calls", "trajectories.prop_apply_calls", "trajectories.jumps",
    "mapping.regularize_calls", "dynamics.apply_gflop",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def solve_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced solve from its spans."""
    def dur(s):
        return s["end"] - s["start"]

    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)  # span id -> time its children and leaves cover
    leaf_total = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur(s)
        for name, (calls, secs, flop) in s["leaf"].items():
            covered[s["id"]] += secs
            acc = leaf_total[name]
            acc[0] += calls
            acc[1] += secs
            acc[2] += flop

    def self_time(s):
        return dur(s) - covered[s["id"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def outermost(layer):
        return [s for s in spans if _layer(s["name"]) == layer
                and (s["parent"] is None or _layer(by_id[s["parent"]]["name"]) != layer)]

    def total(group, f=dur) -> float:
        return sum((f(s) for s in group), 0.0)

    (root,) = [s for s in spans if s["parent"] is None]
    m = {
        "cli.main_s": dur(root),
        "cli.load_config_s": total(named("cli.load_config")),
        "cli.self_s": self_time(root),
    }
    for layer in ("spectral", "mapping", "hilbert", "oracle"):
        m[f"{layer}.s"] = total(outermost(layer))
        m[f"{layer}.calls"] = sum(1 for s in spans if _layer(s["name"]) == layer)
    m["mapping.verify_s"] = total(named("mapping.verify_rotation_numeric"))
    m["mapping.regularize_calls"] = len(named("mapping.two_mode_regularize"))
    m["dynamics.build_s"] = total(named("dynamics.build_generator"))
    evolves = named("dynamics.evolve")
    m["dynamics.evolve_s"] = total(evolves)
    m["dynamics.evolve_self_s"] = total(evolves, self_time)
    m["dynamics.evolve_calls"] = len(evolves)
    calls, secs, flop = leaf_total["dynamics.apply"]
    m["dynamics.apply_calls"] = calls
    m["dynamics.apply_s"] = secs
    m["dynamics.apply_us"] = 1e6 * secs / calls if calls else 0.0
    m["dynamics.apply_gflop"] = flop / 1e9
    m["dynamics.apply_gflops"] = flop / 1e9 / secs if secs else 0.0
    mcwf = named("trajectories.mcwf_run")
    mcwf_s = total(mcwf)
    calls, secs, _ = leaf_total["trajectories.prop_apply"]
    m["trajectories.mcwf_s"] = mcwf_s
    m["trajectories.mcwf_self_s"] = total(mcwf, self_time)
    m["trajectories.prop_apply_calls"] = calls
    m["trajectories.prop_apply_s"] = secs
    m["trajectories.jumps"] = sum(s["counts"]["jumps"] for s in mcwf)
    n_traj = sum(s["counts"]["n_traj"] for s in mcwf)
    m["trajectories.traj_per_s"] = n_traj / mcwf_s if mcwf_s else 0.0
    return m


def run_metrics(spans: list[dict], traced_s: list[float],
                untraced_s: list[float]) -> tuple[dict[str, float], list[str]]:
    """Medians over a run's traced solves, plus the tracing overhead.

    Also returns the exact counters that differed between traced solves;
    any entry there means the run is not reproducible.
    """
    per_solve = defaultdict(list)
    for s in spans:
        per_solve[s["solve"]].append(s)
    samples = [solve_metrics(group) for _, group in sorted(per_solve.items())]
    out = {name: median(m[name] for m in samples) for name in samples[0]}
    out["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0
    unstable = [c for c in EXACT_COUNTERS if len({m[c] for m in samples}) > 1]
    return out, unstable

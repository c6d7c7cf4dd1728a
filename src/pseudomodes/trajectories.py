"""Monte Carlo wave-function unraveling of the Lindblad-kind generators.

Standard first-order quantum-jump scheme (Dalibard, Castin and Molmer, PRL
68, 580 (1992)): between jumps the state follows the non-Hermitian drift
D = A - iK (so the squared norm decays monotonically, since K is positive
semidefinite); a jump fires when the norm crosses a uniform threshold; the
channel is drawn proportionally to 2 rate_k ||b_k psi||**2 and the state is
projected and renormalized.

The drift is time independent, so the no-jump evolution is the exact
exponential exp(-i D dt), formed by ``dynamics.exponential`` (which also
forms the exponentials of ``evolve``'s ket rows) from its truncated Taylor
series rather than by an eigendecomposition, which a defective drift (an
exceptional point) would not have.  Kets live on the generator's sector S,
the states its terms reach from the initial labels: the drift and the jumps
never leave it, so a ket carries only |S| amplitudes.

Every trajectory follows the no-jump ket psi until its first jump.  A run
reads psi off one ``dynamics.no_jump_history`` over the grid (one
exponential per uniform run, its rows filled by doubling, as ``evolve``'s
kets), and each trajectory's first jump falls in the first row whose norm
falls below its threshold, read off the running minimum of the norms by one
searchsorted.  The row route holds one ket per trajectory that has jumped,
in the order of the first jumps, and reads every other row off psi.  Each
output row is one product of the (m, |S|) stack of jumped kets with
exp(-i D h), h the mean span of the row's uniform run of the grid
(``_util.uniform_runs``), and one norm check.  The jumped kets that fall
below their thresholds in a row, from their row starts, and the
trajectories whose first jump falls in it, from psi at the row start, then
locate their jumps together: monotonicity of the norm lets a search from
the top of the row place each jump on a lattice of spacing q at most 1e-10
max(1, t), b bits of the lattice index per round (``digit_bits``).  A round
is one product per ket with the exponentials of the 2**b - 1 multiples of
one power-of-two step side by side, with masks choosing, for each ket, the
furthest multiple that keeps its norm at or above the threshold.  A ket
that jumps searches again from its jump with its new threshold.

Where every jump lands in one label g (``Generator.one_excitation_ground``),
as for one excitation with every mode in vacuum, a jumped ket is |g> for
good: the drift keeps that ray and no jump leaves it, so its norm never
falls again.  There the ensemble is psi and the number n_j(i) of
trajectories that have jumped by row i, and every row is recorded at once
and in closed form.  The samples of a row take two values, x = psi's value
on the m = n - n_j trajectories that have not jumped and O_gg on the rest,
so the mean is (m x + n_j O_gg) / n and the squared standard error
m n_j |x - O_gg|^2 / (n^2 (n - ddof)); the guards read the populations
(m |psi_k|^2 / |psi|^2 + n_j delta_kg) / n, and the mean density
(m psi psi^dag / |psi|^2 + n_j |g><g|) / n is formed only when it is read.
No (n_traj, n_t) sample array and no (n_t, |S|, |S|) density is held.
No recorded row depends on where in its row a jump falls, so the
search places the jumps only when the result's jump counts or records are
first read: up to the first row the truncation guard refuses, in one pass
for all the rows with crossings that share a jump lattice (the same step q
and the same count of steps).  The draws are functions of (stream, counter)
alone, so placing them later changes no bit.
The generator's frame only changes how the recorded states are viewed
(psi_I = exp(i H0 t) psi in the interaction frame); jumps and their times do
not depend on it.

Trajectory idx draws from stream idx of the package's one random source,
``_util._Streams``: numpy's ``Generator(Philox(SeedSequence(seed,
spawn_key=(idx,))))``, bit for bit, without building one or importing
``numpy.random``.  Philox is counter-based (Salmon, Moraes, Dror and Shaw,
SC'11): a draw is a function of the stream's key and a counter alone, so
the keys of all streams come from one pass of SeedSequence's hash, and the
draws of all the trajectories that jump together from one vectorized
Philox.  Draw 0 is the first threshold; the m-th jump takes draw 1 + 2m for
its channel and 2 + 2m for the next threshold.  A stack product
multiplies each ket by its own BLAS call of one fixed shape, so a ket's
result, and with it a trajectory's jumps, does not depend on how many others
run beside it or on their values.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._util import _Streams, as_complex_matrix, frozen, uniform_runs, validate_grid
from .errors import ClassificationError, InvalidModelError
from .dynamics import (BLOCK_ENTRIES, TRUNCATION_LIMIT, Generator, exponential,
                       no_jump_history, truncation_guard)

#: Relative precision of the jump times.
JUMP_TIME_TOL = 1e-10
#: Bits of the lattice index one jump search takes at most: a row of length
#: dt <= max(1, t) spans fewer than 2 / JUMP_TIME_TOL lattice steps.
SEARCH_LEVELS = math.ceil(math.log2(2.0 / JUMP_TIME_TOL))
#: Bits one round of the jump search resolves at most: the rounds fall as 1/b
#: while the candidates of a round grow as 2**b.  On band_gap.yaml (|S| = 4,
#: where DIGIT_ENTRIES alone would allow b = 8) mcwf_run ran fastest at b = 4
#: to 6, and 1.2 to 1.4 times as long at b = 8.
MAX_DIGIT_BITS = 5
#: Complex entries of the matrix one search round multiplies each ket with at
#: most, 64 KiB: past it a round's products outweigh the rounds it saves (in
#: the timings behind this bound, b = 3 ran fastest at |S| = 22 and b = 1 at
#: |S| = 78).
DIGIT_ENTRIES = BLOCK_ENTRIES // 16
#: Row exponentials a NoJumpPropagator keeps, the least recently used dropped
#: first: on the row route the one span of the uniform run its rows are in,
#: and the tails of the rows with jumps, one per row.
PROPAGATOR_CACHE = 4


def digit_bits(d: int) -> int:
    """Bits b of the lattice index that one search round resolves on a
    sector of d states: the largest b <= MAX_DIGIT_BITS whose 2**b - 1
    exponentials, side by side, hold at most DIGIT_ENTRIES complex numbers,
    and 1 at least (from d = 37 on)."""
    b = 1
    while b < MAX_DIGIT_BITS and ((2 << b) - 1) * d * d <= DIGIT_ENTRIES:
        b += 1
    return b


@dataclass(frozen=True)
class TrajectoryConfig:
    """Ensemble size, base seed and recording grid."""

    n_traj: int
    seed: int
    times: np.ndarray

    def __post_init__(self):
        if self.n_traj < 1:
            raise InvalidModelError("n_traj must be at least 1")
        if self.seed < 0:
            raise InvalidModelError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "times", frozen(validate_grid(self.times)))


JumpRecords = tuple[tuple[tuple[float, int], ...], ...]


@dataclass
class EnsembleResult:
    """Ensemble averages, errors, guard values of the mean density per row
    (worst top Fock population, |Re tr - 1|) and the raw jump bookkeeping.

    ``mean_density``, the (n_t, |S|, |S|) blocks on the generator's sector
    whose indices in the product space are ``support`` (every entry outside
    the block is 0), is formed on its first read by one call of
    ``form_density`` and kept: the ground route of ``mcwf_run`` holds no
    such array until then.  ``jump_counts`` (trajectory x channel) and
    ``jump_records`` (each trajectory's (time, channel) pairs) are formed the
    same way, by one call of ``place_jumps``: the ground route places its
    jumps only then.  Its ``n_traj`` trajectories drew from the streams
    ``SeedSequence(seed, spawn_key=(idx,))``, idx = 0 ... n_traj - 1."""

    times: np.ndarray
    support: np.ndarray
    observables: dict[str, np.ndarray]
    stderr: dict[str, np.ndarray]
    top_fock: np.ndarray
    trace_error: np.ndarray
    seed: int
    n_traj: int
    form_density: Callable[[], np.ndarray] | None = field(repr=False, compare=False)
    place_jumps: Callable[[], tuple[np.ndarray, JumpRecords]] | None = field(
        repr=False, compare=False)

    @functools.cached_property
    def mean_density(self) -> np.ndarray:
        density = self.form_density()
        self.form_density = None  # frees the run state it holds
        return density

    @functools.cached_property
    def _jumps(self) -> tuple[np.ndarray, JumpRecords]:
        jumps = self.place_jumps()
        self.place_jumps = None  # frees the run state it holds
        return jumps

    @property
    def jump_counts(self) -> np.ndarray:
        return self._jumps[0]

    @property
    def jump_records(self) -> JumpRecords:
        return self._jumps[1]


class NoJumpPropagator:
    """Exact no-jump propagator exp(-i D dt) for a time-independent drift D.

    exp(-i D h) is the ``exponential`` of A = -i D, planned on ||D||_F
    (which bounds ||A||), so a span is refused by the same ``taylor_plan``
    rule as a row of ``evolve``.  ``mcwf_run`` builds it from the
    generator's drift, so d here is |S|.

    ``exp(dt)`` is exp(-i D dt); the exponentials of the ``PROPAGATOR_CACHE``
    spans asked for last are kept.  ``apply`` takes a ket or an (n, d) stack
    of kets and multiplies each ket by its own (1, d) x (d, d) BLAS product,
    the product ``psi @ exp(dt).T`` of one ket psi, of a shape that does not
    depend on n, so no row of the result depends on how many other rows the
    stack has or on their values.  One (n, d) x (d, d) product would not do:
    its kernel follows n, and its row at n = 1 differs from the full stack's.

    ``multiples`` is the jump search's product: each ket of an (n, d) stack
    advanced by every multiple p 2**k, p = 1 ... 2**b - 1, of one
    power-of-two span, as one (1, d) x (d, (2**b - 1) d) product per ket,
    again of one fixed shape; b is ``digit_bits(d)``.  Its matrix, the
    transposed exponentials side by side, is formed from exp(-i D 2**k) by b
    doublings and kept under k, so rows in every octave of t share it.  The
    ceil(SEARCH_LEVELS / b) matrices of one search are kept, the least
    recently used dropped first, each at most DIGIT_ENTRIES complex numbers
    (64 KiB); each is formed from the uncached exponential, so the search
    holds one copy of each.
    """

    def __init__(self, drift: np.ndarray):
        exp = exponential(-1j * as_complex_matrix(drift, "drift"))
        self._exp = functools.lru_cache(PROPAGATOR_CACHE)(exp)
        self.bits = digit_bits(len(drift))
        # Bound to the exponential, not to self, so a propagator is freed
        # as soon as it is dropped.
        self._stack = functools.lru_cache(math.ceil(SEARCH_LEVELS / self.bits))(
            functools.partial(_multiples_stack, exp, self.bits))

    def exp(self, dt: float) -> np.ndarray:
        """exp(-i D dt) for dt >= 0."""
        return self._exp(dt)

    def apply(self, psi: np.ndarray, dt: float) -> np.ndarray:
        """exp(-i D dt) psi for dt >= 0."""
        u = self.exp(dt)
        return (np.atleast_2d(psi)[:, None, :] @ u.T)[:, 0, :].reshape(np.shape(psi))

    def multiples(self, psi: np.ndarray, k: int) -> np.ndarray:
        """(n, 2**b - 1, d): exp(-i D p 2**k) psi for p = 1 ... 2**b - 1 and
        each ket of the (n, d) stack ``psi``."""
        n, d = psi.shape
        return (psi[:, None, :] @ self._stack(k)).reshape(n, -1, d)


def _multiples_stack(exp, bits: int, k: int) -> np.ndarray:
    """exp(A p 2**k)^T for p = 1 ... 2**bits - 1, side by side, by ``bits``
    doublings of exp(A 2**k), h -> exp(h A) being ``exp``: each square also
    taken times every multiple before it."""
    u = exp(math.ldexp(1.0, k))
    mats = u[None]
    for _ in range(1, bits):
        u = u @ u
        mats = np.concatenate([mats, u[None], u @ mats])
    return mats.transpose(2, 0, 1).reshape(len(u), -1)


def _norm2(psi: np.ndarray):
    """Squared norm of a ket, or of each ket of an (n, d) stack in a fixed order."""
    return (psi.real**2 + psi.imag**2).sum(axis=-1)


def _lattice(t_lo: np.ndarray, t_hi: np.ndarray):
    """The jump lattice of each row (t_lo, t_hi): its step q = 2**e, the
    largest power of two within JUMP_TIME_TOL max(1, t_hi), and the split
    t_hi - t_lo = n q + rest with 0 <= rest < q, as arrays (e, n, rest)."""
    dt = t_hi - t_lo
    e = np.frexp(JUMP_TIME_TOL * np.maximum(1.0, t_hi))[1] - 1
    n = np.floor(np.ldexp(dt, -e))
    return e, n, dt - np.ldexp(n, e)


def mcwf_run(
    gen: Generator,
    psi0: np.ndarray,
    config: TrajectoryConfig,
    observables: dict[str, np.ndarray] | None = None,
) -> EnsembleResult:
    """Unravel a completely positive generator into quantum-jump trajectories.

    The generator must be of a Lindblad kind: the one-sided form admits jump
    probabilities exceeding unity and has no trajectory interpretation, so it
    is refused outright.  Zero-rate channels are kept in the channel indexing
    (they simply never fire), which keeps jump statistics aligned with the
    generator's channel list.

    ``psi0`` is the initial ket on ``gen.sector`` (``basis_state`` gives
    one).  Kets, the no-jump propagator, the jump operators and the
    observables all act on the sector S, and each row's mean density is an
    S x S block, so memory follows |S|, not d: the row route keeps every
    row's block, and the ground route forms them when ``mean_density`` is
    first read.

    The truncation guard of ``evolve`` runs on the populations of each row's
    mean density: TruncationGuardError carries the rows before the first one
    whose top Fock population exceeds the limit, with the jumps made up to
    that row.

    Both routes read a trajectory's rows before its first jump off one
    no-jump history psi, formed before the route is chosen.  When
    ``gen.one_excitation_ground()`` names a label g, the rows take the ground
    route of the module docstring, which places the jumps when the result's
    jump counts or records are first read; any other sector takes the row
    route, which holds one ket per trajectory that has jumped and places the
    jumps as they come, since they feed the rows.  The routes place the same
    jumps and give the same statistics up to rounding: the ground route's
    means and errors come from the closed forms, and a jumped trajectory
    reads O_gg itself, where the row route reads it through its ket.
    """
    if gen.kind not in ("lindblad_direct", "lindblad_regularized"):
        raise ClassificationError(
            f"generator kind {gen.kind!r} cannot be unraveled: jump "
            "probabilities can exceed unity; regularize to a Lindblad form first"
        )
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.size != gen.dim:
        raise InvalidModelError(
            f"initial state has dimension {psi0.size}, generator needs {gen.dim}"
        )
    if abs(_norm2(psi0) - 1.0) > 1e-10:
        raise InvalidModelError("initial state must be normalized")

    sector = gen.sector
    # Transposed, as they act on the kets of row stacks.
    obs_mats = {name: sector.operator(op, f"observable {name}").T
                for name, op in (observables or {}).items()}

    prop = NoJumpPropagator(gen.drift())
    channels = gen.channels
    # The channels that can fire: a positive rate and a nonempty map.
    open_ = [c for c, (rate, (rows, _, _)) in enumerate(channels) if rate > 0.0 and rows.size]

    t = config.times
    n_t = t.size
    n_traj = config.n_traj

    top_fock = np.empty(n_t)
    trace_error = np.empty(n_t)
    jump_counts = np.zeros((n_traj, len(channels)), dtype=np.int64)
    records: list[list[tuple[float, int]]] = [[] for _ in range(n_traj)]
    streams = _Streams(config.seed, n_traj)
    eta = streams.draw(np.arange(n_traj), np.zeros(n_traj, dtype=np.int64))
    view = gen.frame_view(kets=True)
    ddof = min(n_traj - 1, 1)  # a single trajectory has a zero error

    def made() -> tuple[np.ndarray, JumpRecords]:
        return jump_counts, tuple(tuple(r) for r in records)

    def finalize(upto: int, mean: dict[str, np.ndarray], err: dict[str, np.ndarray],
                 density: Callable[[], np.ndarray], place_jumps=made) -> EnsembleResult:
        """The result of the rows before ``upto``, given each observable's
        mean and standard error on at least those rows; ``density`` forms
        their mean density and ``place_jumps`` their jumps when first read,
        by default the jumps the run made, as a run makes none after its
        result."""
        return EnsembleResult(
            times=t[:upto].copy(),
            support=sector.support,
            observables={name: v[:upto].copy() for name, v in mean.items()},
            stderr={name: v[:upto].copy() for name, v in err.items()},
            top_fock=top_fock[:upto].copy(),
            trace_error=trace_error[:upto].copy(),
            seed=config.seed,
            n_traj=n_traj,
            form_density=density,
            place_jumps=place_jumps,
        )

    def jump(idx: np.ndarray, psi: np.ndarray, t_jump: np.ndarray) -> np.ndarray:
        """Project the kets ``psi`` of the trajectories ``idx`` that reached
        their thresholds at ``t_jump``; the normalized results.  The m-th
        jump of a trajectory draws its channel with draw 1 + 2m of its
        stream and its next threshold with draw 2 + 2m."""
        # One gather over the open channels' maps side by side, amp = v
        # psi[cols], gives each weight, 2 rate times the sum of |amp|**2 over
        # the channel's entries, and the jumped ket, from the drawn channel's
        # entries.  Drawn against the cumulative weights, no channel of
        # weight 0 can be.
        rates, maps = zip(*(channels[c] for c in open_))
        sizes = [len(rows) for rows, _, _ in maps]
        rows, cols, values = (np.concatenate(a) for a in zip(*maps))
        amp = values * psi[:, cols]
        weights = np.zeros((len(idx), len(channels)))
        weights[:, open_] = 2.0 * np.array(rates) * np.add.reduceat(
            amp.real**2 + amp.imag**2, np.cumsum([0] + sizes[:-1]), axis=1)
        cumulative = np.cumsum(weights, axis=1)
        total = cumulative[:, -1]
        if np.any(total <= 0.0):
            raise InvalidModelError(
                "norm decayed with no open emission channel; "
                "the generator data is inconsistent"
            )
        m = 2 * jump_counts[idx].sum(axis=1)
        draws = streams.draw(np.concatenate([idx, idx]), np.concatenate([1 + m, 2 + m]))
        ch = (cumulative <= (draws[:len(idx)] * total)[:, None]).sum(axis=1)
        k, e = np.nonzero(np.repeat(open_, sizes) == ch[:, None])
        post = np.zeros_like(psi)
        post[k, rows[e]] = amp[k, e]
        eta[idx] = draws[len(idx):]
        jump_counts[idx, ch] += 1
        for i, tj, c in zip(idx.tolist(), t_jump.tolist(), ch.tolist()):
            records[i].append((tj, c))
        return post / np.sqrt(_norm2(post))[:, None]

    def cross_row(idx: np.ndarray, psi: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray,
                  again: bool = True) -> np.ndarray:
        """Carry the trajectories ``idx`` over rows in which their norms fall
        below their thresholds; ``psi`` holds their kets at the row starts
        ``t_lo``, one each, and ``t_hi`` their row ends.

        Jumps are placed on each row's ``_lattice`` t_lo + p q, p = 0..n,
        which every row here shares in (e, n), with its own rest.  ``search``
        stops each ket just before the first lattice point below its
        threshold.  A ket that crosses at a lattice point jumps there and
        searches again from it with its new threshold; a ket that reaches
        p = n takes the step rest to t_hi and jumps there if it falls below.
        The kets that jump in one search pass jump together.  The results are
        written into ``psi``.  Without ``again`` every ket takes one pass: a
        ket that jumps does not search again, and one that reaches t_hi jumps
        there, as the row's product put it below its threshold.
        """
        e, n, rest = _lattice(t_lo, t_hi)
        e, n = int(e[0]), int(n[0])
        bits = prop.bits
        top = (1 << bits) - 1
        shifts = [max(s, 0) for s in range(n.bit_length() - bits, -bits, -bits)]

        def search(kets, at, th):
            """Move ``kets`` from the lattice points ``at`` through the digits
            of the lattice index, b bits each from the top of n down (the
            lowest digit may overlap the one above it), one product per ket
            and digit.  At the digit of 2**s q a ket takes the furthest
            multiple p 2**s q, p = 1 ... 2**b - 1, before its bound ``below``
            with no multiple up to it below its threshold ``th``, and the
            first multiple below becomes the bound.  Returns the bounds,
            starting at n + 1, the moved kets and, for the kets whose bound
            fell to n or less, their positions in the stack and their kets
            there."""
            th, rows = th[:, None], np.arange(len(at))
            below = np.full(len(at), n + 1, dtype=np.int64)
            kets_below = np.empty_like(kets)
            for s in shifts:
                room = np.minimum((below - 1 - at) >> s, top)
                if not room.any():
                    continue
                cand = prop.multiples(kets, e + s)
                k = np.minimum((_norm2(cand) >= th).cumprod(axis=1).sum(axis=1), room)
                down = np.flatnonzero(k < room)
                if down.size:
                    below[down] = at[down] + ((k[down] + 1) << s)
                    kets_below[down] = cand[down, k[down]]
                kets = np.where(k[:, None] > 0, cand[rows, k - 1], kets)
                at = at + (k << s)
            crossed = np.flatnonzero(below <= n)
            return below, kets, crossed, kets_below[crossed]

        live, at, kets = np.arange(idx.size), np.zeros(idx.size, dtype=np.int64), psi
        while live.size:
            below, kets, crossed, kets_below = search(kets, at, eta[idx[live]])
            done = below > n
            ended, end = live[done], kets[done]
            for r in np.unique(rest[ended]):  # one product per distinct rest
                if r > 0.0:
                    on = np.flatnonzero(rest[ended] == r)
                    end[on] = prop.apply(end[on], float(r))
            fell = (np.flatnonzero(_norm2(end) < eta[idx[ended]]) if again
                    else np.arange(ended.size))
            live, at = live[crossed], below[crossed]
            if fell.size or live.size:
                jumped = jump(idx[np.concatenate([ended[fell], live])],
                              np.concatenate([end[fell], kets_below]),
                              np.concatenate([t_hi[ended[fell]], np.minimum(
                                  t_lo[live] + np.ldexp(at, e), t_hi[live])]))
                end[fell], kets = jumped[:fell.size], jumped[fell.size:]
            psi[ended] = end
            if not again:
                break
        return psi

    # Every trajectory follows psi until its first jump, in the first row
    # i >= 1 with norm2[i] < eta (n_t for none, or if no channel is open);
    # then the number crossing in each row and that have jumped by each row.
    psi = no_jump_history(prop.exp, psi0, t)
    norm2 = _norm2(psi)
    first = 1 + np.searchsorted(-np.minimum.accumulate(norm2[1:]), -eta, side="right")
    if not open_:
        first[:] = n_t
    crossing = np.bincount(first, minlength=n_t + 1)[:n_t]
    jumped = np.cumsum(crossing)

    g = gen.one_excitation_ground()
    if g is not None:
        # Every jump lands on the ray of |g>, which the drift keeps and no
        # jump leaves, so a trajectory that has jumped is |g> from then on:
        # the rows are psi and the number of trajectories that have jumped.
        stay = n_traj - jumped
        kets = psi if view is None else view(psi, t[:, None])
        bra = kets.conj()
        # psi may have decayed to 0 in rows that every trajectory has left.
        w = np.zeros(n_t)
        np.divide(1.0, norm2, out=w, where=stay > 0)
        # Each row's samples are x on the m = stay trajectories that have not
        # jumped and O_gg on the rest: the module docstring's closed forms.
        spread = np.sqrt(stay * jumped / (n_traj - ddof)) / n_traj
        mean, err = {}, {}
        for name, mat_t in obs_mats.items():
            x = np.einsum("ni,ni->n", bra, kets @ mat_t) * w
            mean[name] = (stay * x + jumped * mat_t[g, g]) / n_traj
            err[name] = spread * np.abs(x - mat_t[g, g])
        w *= stay
        # The mean density's diagonal, (m |psi_k|**2 / |psi|**2 + n_j delta_kg) / n.
        populations = w[:, None] * (psi.real**2 + psi.imag**2)
        populations[:, g] += jumped
        populations /= n_traj
        trace_error[:] = np.abs(populations.sum(axis=1) - 1.0)
        top = sector.top_fock(populations)
        top_fock[:] = top.max(axis=1)
        bad = np.flatnonzero(top_fock > TRUNCATION_LIMIT)
        last = int(bad[0]) if bad.size else n_t - 1

        def mean_density(upto: int) -> np.ndarray:
            """(m psi psi^dag / |psi|**2 + n_j |g><g|) / n on the rows before
            upto, with the guards' populations on its diagonal."""
            rho = kets[:upto, :, None] * (bra[:upto] * (w[:upto, None] / n_traj))[:, None, :]
            np.einsum("nii->ni", rho)[...] = populations[:upto]
            return rho

        def place_jumps() -> tuple[np.ndarray, JumpRecords]:
            """The jumps, up to and including the first row the guard
            refuses: one search pass for the trajectories of all rows on one
            jump lattice."""
            rows = np.flatnonzero(crossing[:last + 1])
            e, n, _ = _lattice(t[rows - 1], t[rows])
            lattice = np.full(n_t + 1, -1)
            lattice[rows] = np.unique(np.stack([e, n]), axis=1, return_inverse=True)[1]
            for k in range(lattice.max() + 1):
                cross = np.flatnonzero(lattice[first] == k)
                i = first[cross]
                cross_row(cross, psi[i - 1], t[i - 1], t[i], again=False)
            return made()

        if bad.size:
            truncation_guard(top[last], float(t[last]), lambda: finalize(
                last, mean, err, lambda: mean_density(last), place_jumps))
        return finalize(n_t, mean, err, lambda: mean_density(n_t), place_jumps)

    # The row route records every sample and the mean density of each row as
    # it comes, since its jumps feed the rows.
    samples = {name: np.empty((n_traj, n_t), dtype=complex) for name in obs_mats}
    density_sum = np.empty((n_t, gen.dim, gen.dim), dtype=complex)

    def row_result(upto: int) -> EnsembleResult:
        """The result of the rows before ``upto``, from their samples."""
        rows = {name: v[:, :upto] for name, v in samples.items()}
        return finalize(upto, {name: v.mean(axis=0) for name, v in rows.items()},
                        {name: np.sqrt((v.real.var(axis=0, ddof=ddof)
                                        + v.imag.var(axis=0, ddof=ddof)) / n_traj)
                         for name, v in rows.items()},
                        lambda: density_sum[:upto] / n_traj)

    # The trajectories in the order of their first jumps.  In row i, row 0 of
    # the stack holds psi[i] and row 1 + k the ket of trajectory order[k],
    # for each k < jumped[i]; ``norms`` holds their squared norms.
    order = np.argsort(first, kind="stable")
    stack = np.empty((n_traj + 1, psi0.size), dtype=complex)
    stack[0], norms = psi[0], np.empty(n_traj + 1)

    def record(i: int) -> None:
        """Record row i of every trajectory off the stack's first 1 + jumped[i] kets."""
        kets, stay = stack[:1 + jumped[i]], n_traj - jumped[i]
        # psi's norm may underflow in rows that every trajectory has left.
        w = np.concatenate([[1.0 / norm2[i] if stay else 0.0], 1.0 / norms[1:len(kets)]])
        if view is not None:
            kets = view(kets, float(t[i]))
        bra = kets.conj()
        for name, mat_t in obs_mats.items():
            x = np.einsum("ni,ni->n", bra, kets @ mat_t) * w
            samples[name][:, i] = x[0]
            samples[name][order[:jumped[i]], i] = x[1:]
        w[0] *= stay
        density_sum[i] = kets.T @ (bra * w[:, None])
        rho = density_sum[i] / n_traj
        trace_error[i] = abs(float(np.trace(rho).real) - 1.0)
        top_fock[i] = truncation_guard(sector.top_fock(np.real(np.diagonal(rho))), float(t[i]),
                                       lambda: row_result(i))

    record(0)
    # Each row advances the held kets by the mean span of its uniform run, as
    # the rows of no_jump_history do: one exponential per run.
    bounds = uniform_runs(t)
    spans = np.repeat(np.diff(t[bounds]) / np.diff(bounds), np.diff(bounds))
    for i in range(1, n_t):
        # The trajectories whose first jump falls in this row join the held
        # kets at psi[i - 1].  They and the held kets that fall below their
        # thresholds cross the row from its start.
        held, now = 1 + jumped[i - 1], 1 + jumped[i]
        moved = prop.apply(stack[1:held], float(spans[i - 1]))
        norms[1:held] = _norm2(moved)
        cross = np.concatenate([1 + np.flatnonzero(norms[1:held] < eta[order[:held - 1]]),
                                np.arange(held, now)])
        stack[held:now] = stack[0]
        start = stack[cross]
        stack[0], stack[1:held] = psi[i], moved
        if cross.size:
            stack[cross] = cross_row(order[cross - 1], start, np.full(cross.size, t[i - 1]),
                                     np.full(cross.size, t[i]))
            norms[cross] = _norm2(stack[cross])
        record(i)

    return row_result(n_t)

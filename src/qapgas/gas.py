"""Adaptive-threshold Grover search over an encoded objective.

The driver follows the real-coefficient variant of the adaptive algorithm:
sample an initial state, set the threshold to its objective value, and then
repeatedly run `L` Grover steps (L drawn uniformly at random, growing the
draw range by a factor 8/7 on every failure, capped at sqrt(space size)),
re-evaluating each measured sample classically and lowering the threshold on
improvement.

Two interchangeable backends produce the per-iteration samples, and both
stand on one index.  The search space is enumerated once as int64
(value, state) keys, each state's exact value at the objective's common
denominator above its index, written straight from the same per-row and
row-pair tables for every kind (space.objective_values), and the keys are
sorted in place: as one run, or as two halves sorted at the same time on
two threads where two cores are usable.  The sorted keys are the index
(SearchSpace): each draw finds the key of its rank in the runs' merged
order and decodes its state's bitmask and value from it.

* ``emulated`` -- classical amplification model: a sample is marked
  (objective strictly below the threshold) with the exact Grover probability
  sin^2((2L+1) * asin(sqrt(t/|S|))) and drawn uniformly within its class.
* ``exact``    -- the actual circuit's statevector, in closed form.  Reading
  the QFT-loaded value register is a phase-estimation readout that sees a
  state only through its value, so each value level of the index is marked
  with one Fejer-kernel weight of its register offset; L Grover steps then
  follow from the marked mass (see ExactEngine).  At the default register
  scale every weight is 0 or 1 and the two backends draw the same states.
  Its ``prepared_state`` grid (phase ladder plus an FFT for the inverse QFT,
  unitarily identical to the gate-level construction) and ``grover_step``
  are the reference the tests check.

Query accounting: one iteration with L Grover applications costs L + 1
queries (the +1 is the state preparation/measurement).  The initial
classical sample is not counted; per-run reports carry both conventions.

The run loop (run_gas, which cdf_experiment and ``qap gas`` call once per
run): the draw range k after j failures in a row depends only on the space
size and the growth factor, so the runs of one (size, growth) pair share a
stage ladder, the list of those k and of their rotation spans, grown only
as far as the longest failure streak reached.  An iteration then costs one
uniform times its stage's span, one ``draw``, and one plain tuple appended
to the trace, whose query total is counted as the loop runs.  On the
inputs of one gas-n4 benchmark pass (1,920 runs to the optimum, 115k
iterations) that is about 1.6 us per iteration, per-run set-up included,
on a 2-core x86 host.
"""
from __future__ import annotations

import math
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .circuits import width_for_range
from .encodings import Formulation, FormulationKind
from .space import (
    EMULATION_SPACE_CAP,
    INDEX_BLOCK,
    SpaceScaleError,
    dicke_rank_decoder,
    dicke_rank_to_bits,
    index_parts,
    objective_denominator,
    objective_values,
    run_parts,
)

GROWTH_FACTOR = 8.0 / 7.0
# A KnownOptimum run stops once its threshold is within this of the optimum.
OPTIMUM_TOL = 1e-9
# Iterations served by one rng.random call of a run; the stream is read in
# order, so trajectories do not depend on this length.
UNIFORM_BLOCK = 64


def _grover_angle(fraction: float) -> float:
    """theta = asin(sqrt(fraction)): the prepared state's angle to the unmarked part."""
    return math.asin(math.sqrt(fraction))


def _rotated_probability(angle: float, rotations: int) -> float:
    """Marked probability sin^2((2L+1) angle) after L = `rotations` steps."""
    return math.sin((2 * rotations + 1) * angle) ** 2


def marked_probability(marked: int, size: int, rotations: int) -> float:
    """Probability sin^2((2L+1) asin(sqrt(marked / size))) that L = `rotations`
    Grover steps end on a marked state."""
    if not 0 <= marked <= size:
        raise ValueError("marked count out of range")
    return _rotated_probability(_grover_angle(marked / size), rotations)


# ---------------------------------------------------------------------------
# emulated backend
# ---------------------------------------------------------------------------


class LevelTable(NamedTuple):
    """Per run of equal sorted values: start rank, count, and value times objective_denominator."""

    starts: np.ndarray
    counts: np.ndarray
    numerators: np.ndarray


def _pieces(size: int) -> list[slice]:
    """The index_parts(size) pieces that each O(size) pass over a size-entry buffer runs as."""
    parts = index_parts(size)
    cuts = [size * part // parts for part in range(parts + 1)]
    return [slice(start, stop) for start, stop in zip(cuts, cuts[1:])]


def _each_block(size: int, task: Callable[[slice], object]) -> None:
    """task(rows) on every block of INDEX_BLOCK / parts entries of a size-entry buffer,
    each piece's blocks in order, the pieces at the same time (run_parts)."""
    pieces = _pieces(size)
    step = INDEX_BLOCK // len(pieces)

    def run(part: int) -> None:
        piece = pieces[part]
        for start in range(piece.start, piece.stop, step):
            task(slice(start, min(start + step, piece.stop)))

    run_parts(run, len(pieces))


def _key_decoder(
    view: memoryview | _MergedRuns, shift: int, den: int, to_bits: Callable[[int], int] | None
) -> Callable[[int], tuple[int, float]]:
    """entry(rank): the (bitmask, value) of view[rank], the rank-th sorted key.

    view is the memoryview of one sorted run, or the _MergedRuns of two.
    The state is key & mask, mapped by to_bits where the state is a Dicke
    rank; the value is (key >> shift) / den, an int over int division
    that rounds once, so it is np.divide's float of the int64 numerator bit
    for bit (objective_denominator keeps both below 2^53).  The key is read
    as a Python int with no numpy scalar.  The closure holds view and the
    decode constants, never the SearchSpace, so dropping the space frees the
    key buffer at once.
    """
    mask = (1 << shift) - 1
    if to_bits is None:
        def entry(rank: int) -> tuple[int, float]:
            key = view[rank]
            return key & mask, (key >> shift) / den
    else:
        def entry(rank: int) -> tuple[int, float]:
            key = view[rank]
            return to_bits(key & mask), (key >> shift) / den
    return entry


class _MergedRuns:
    """Two sorted runs of unique keys, read by rank as their merged order.

    self[rank] is the rank-th smallest key of both runs, found by a binary
    search over how many of the rank smallest come from the first run.  Both
    runs are read through memoryviews, as Python ints.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: np.ndarray, second: np.ndarray):
        self.first, self.second = memoryview(first), memoryview(second)

    def split(self, rank: int) -> int:
        """How many of the `rank` smallest keys (0 <= rank <= both lengths) lie in the first run."""
        first, second = self.first, self.second
        low = rank - len(second) if rank > len(second) else 0
        high = rank if rank < len(first) else len(first)
        # The count is the least i at which first[i] follows second[rank - 1 - i],
        # the second run's (rank - i)-th key; the test turns true once and stays
        # true as i grows.
        last = rank - 1
        while low < high:
            mid = (low + high) >> 1
            if first[mid] > second[last - mid]:
                high = mid
            else:
                low = mid + 1
        return low

    def __getitem__(self, rank: int) -> int:
        i = self.split(rank)
        j = rank - i
        first, second = self.first, self.second
        if j == len(second) or (i < len(first) and first[i] < second[j]):
            return first[i]
        return second[j]


class SearchSpace:
    """Enumerated objective values over a formulation's search space, as one sorted key buffer.

    The build enumerates keys, then sorts them.  objective_values(form, shift)
    writes each state's int64 key n * 2^shift + state straight from the row
    tables, with n the state's exact numerator at objective_denominator and
    2^shift above every state index; the index is those keys sorted in place.
    The keys are unique, so their sorted order is the (value, state) order:
    equal values are bit-equal floats, ties keep state-index order, and the
    order is the same on every host.  A draw reads the key of its rank and
    decodes it: the state is key & mask (on the Dicke space a support rank,
    mapped to its bitmask by dicke_rank_decoder) and the value
    (key >> shift) / den.  A threshold count is one binary search of a key
    bound per run, and class-uniform sampling is one lookup.  ``order`` and
    ``sorted_values``, every sorted state's bitmask and value, are unpacked
    from the keys on each access and not kept; ``levels``, the LevelTable of
    the values, is built on first access and kept.

    Split: each O(size) pass of the build (the last row of objective_values,
    the sort) and of the arrays built on access runs as two parts, one in
    the caller and one on a thread, when index_parts says so; otherwise as
    one part, with no thread, and the buffer is one sorted run.  Two parts
    each sort their own contiguous half of the buffer in place, at the same
    time, and leave two sorted runs.  Every state of the first run is below
    every state of the second, so each value level lists the first run's
    states and then the second's; the merged order is that of one full sort.
    A rank is read through _MergedRuns, a count sums one binary search per
    run, and ``levels``, ``order`` and ``sorted_values`` merge the runs on
    access.

    Memory: an instance holds one O(size) array, the key buffer (8 bytes
    per state; it is the buffer objective_values returns), and views of it.
    ``order`` (4 bytes per state, 8 above 31 variables) and
    ``sorted_values`` (8) are new arrays on every access, filled block by
    block, each block merged from the runs into a block-sized buffer.
    """

    def __init__(self, form: Formulation):
        self.form = form
        self.size = size = form.space_size
        self._shift = shift = (size - 1).bit_length()
        self._keys = keys = objective_values(form, shift=shift)
        self._den = den = objective_denominator(form)
        # Each part sorts its own piece: the buffer holds one sorted run per part.
        self._runs = runs = tuple(keys[piece] for piece in _pieces(size))
        run_parts(lambda part: runs[part].sort(), len(runs))
        # The smallest and largest numerators, off the runs' first and last keys.
        self._range = (min(int(r[0]) for r in runs) >> shift, max(int(r[-1]) for r in runs) >> shift)
        to_bits = dicke_rank_decoder(form.size_n) if form.kind is FormulationKind.QUBO_DICKE else None
        view = memoryview(keys) if len(runs) == 1 else _MergedRuns(*runs)
        self._entry = _key_decoder(view, shift, den, to_bits)
        self._last_count = (math.nan, 0, 0.0)

    def _each_sorted_block(self, task: Callable[[slice, np.ndarray], object]) -> None:
        """task(rows, keys) on every block of ranks (_each_block), with keys the sorted
        keys at those ranks: a view of the one run, or a block merged from the two."""
        keys, runs = self._keys, self._runs
        if len(runs) == 1:
            _each_block(self.size, lambda rows: task(rows, keys[rows]))
            return
        first, second = runs
        split = _MergedRuns(first, second).split

        def merge(rows: slice) -> None:
            # The ranks' keys are a contiguous stretch of each run, sorted
            # together (a stable sort merges the two sorted stretches).
            i, j = split(rows.start), split(rows.stop)
            block = np.concatenate((first[i:j], second[rows.start - i : rows.stop - j]))
            block.sort(kind="stable")
            task(rows, block)

        _each_block(self.size, merge)

    @property
    def order(self) -> np.ndarray:
        """Variable bitmask of each sorted state (Dicke ranks mapped), built on each access.

        int32, or uint64 above 31 variables, where a qubo-d mask at N=8 sets bit 63.
        """
        form = self.form
        order = np.empty(self.size, dtype=np.uint64 if form.num_vars > 31 else np.int32)
        mask = (1 << self._shift) - 1

        def fill(rows: slice, keys: np.ndarray) -> None:
            np.bitwise_and(keys, mask, out=order[rows], casting="unsafe")
            if form.kind is FormulationKind.QUBO_DICKE:
                order[rows] = dicke_rank_to_bits(form, order[rows])

        self._each_sorted_block(fill)
        return order

    @property
    def sorted_values(self) -> np.ndarray:
        """Value of each sorted state (float64, ascending), built on each access."""
        shift, den = self._shift, self._den
        values = np.empty(self.size)

        def fill(rows: slice, keys: np.ndarray) -> None:
            np.divide(keys >> shift, den, out=values[rows])

        self._each_sorted_block(fill)
        return values

    @cached_property
    def levels(self) -> LevelTable:
        """The LevelTable of the sorted values, read off the keys' exact numerators (int64).

        Each run's levels start where key >> shift differs from the key before
        it in the run; two runs' tables merge by numerator.
        """
        keys, shift = self._keys, self._shift
        found: dict[int, np.ndarray] = {}

        def scan(rows: slice) -> None:
            before = max(rows.start - 1, 0)
            level = keys[before : rows.stop] >> shift
            found[rows.start] = np.flatnonzero(level[1:] != level[:-1]) + (before + 1)

        _each_block(self.size, scan)
        # Every run starts a level, whatever the key before it in the buffer.
        run_starts = np.cumsum([0, *(run.size for run in self._runs[:-1])])
        starts = np.union1d(np.concatenate([*found.values()]), run_starts)
        numerators = keys[starts] >> shift
        counts = np.diff(starts, append=self.size)
        if len(self._runs) > 1:
            # A value's level holds its states of both runs, in run order.
            numerators, where = np.unique(numerators, return_inverse=True)
            counts, by_run = np.zeros(numerators.size, dtype=np.int64), counts
            np.add.at(counts, where, by_run)
            starts = np.cumsum(counts) - counts
        return LevelTable(starts, counts, numerators)

    def count_below(self, threshold: float) -> int:
        """Number of states whose value is strictly below `threshold` (all of them at NaN,
        which sorts last, as in np.searchsorted of sorted_values)."""
        (lo, hi), den = self._range, self._den
        if not threshold <= hi / den:  # above every value, or NaN
            return self.size
        if threshold <= lo / den:
            return 0
        # The smallest numerator n whose value n / den is at least the threshold;
        # the product rounds once, so ceil is at most a step off either way.
        n = math.ceil(threshold * den)
        while n / den < threshold:
            n += 1
        while (n - 1) / den >= threshold:
            n -= 1
        bound = np.int64(n << self._shift)
        return sum(int(run.searchsorted(bound)) for run in self._runs)

    def _recount(self, threshold: float) -> tuple[int, float]:
        """Marked count t and Grover angle at `threshold`, kept with it in _last_count.

        A GAS run keeps its threshold until a sample improves on it, so draw and
        sample recount only when the threshold changes.
        """
        t = self.count_below(threshold)
        angle = _grover_angle(t / self.size)
        self._last_count = (threshold, t, angle)
        return t, angle

    def uniform_sample(self, rng: np.random.Generator) -> tuple[int, float]:
        return self._entry(int(rng.integers(self.size)))

    def minimum(self) -> tuple[int, float]:
        return self._entry(0)

    def sample(self, threshold: float, rotations: int, rng: np.random.Generator) -> tuple[int, float]:
        """One measurement of G^L applied to the prepared state."""
        last, t, angle = self._last_count
        if threshold != last:
            t, angle = self._recount(threshold)
        if t == 0:
            rank = int(rng.integers(self.size))
        elif t == self.size or rng.random() < _rotated_probability(angle, rotations):
            rank = int(rng.integers(t))
        else:
            rank = int(rng.integers(t, self.size))
        return self._entry(rank)

    def draw(self, threshold: float, rotations: int, u_branch: float, u_rank: float) -> tuple[int, float]:
        """`sample` driven by two uniforms on [0, 1): the class, then the rank within it.

        The marked class is taken with probability sin^2((2L+1) angle), or
        always when every state is marked.
        """
        last, t, angle = self._last_count
        if threshold != last:
            t, angle = self._recount(threshold)
        size = self.size
        if t == size or u_branch < math.sin((2 * rotations + 1) * angle) ** 2:
            return self._entry(int(u_rank * t))
        return self._entry(t + int(u_rank * (size - t)))


# ---------------------------------------------------------------------------
# exact statevector backend
# ---------------------------------------------------------------------------


class ExactEngine(SearchSpace):
    """Statevector sampler equivalent to running the prepared circuit, in closed form.

    The preparation loads delta_x = scale*(E(x) - y) into an m-qubit value
    register (phase ladder, inverse QFT), so reading it is a phase-estimation
    readout: column x holds |a(delta_x - z)|^2 / |S| at register value z, with
    M = 2^m and the Fejer amplitude a(d) = sin(pi d) / (M sin(pi d / M)).
    State x is marked (sign bit set) with weight
    w(delta_x) = sum_{z=M/2}^{M-1} |a(delta_x - z)|^2, a function of E(x); so
    the engine is the SearchSpace index plus one weight per level of its
    ``levels`` table.  The marked mass sin^2(theta) is the mean of w,
    and the marked and unmarked parts have marginals p_m ~ w and p_u ~ 1 - w.
    A Grover step (sign-bit oracle, reflection about the prepared state)
    rotates the plane of those parts, so after L steps x is read with
    probability sin^2((2L+1)theta) p_m(x) + cos^2((2L+1)theta) p_u(x).  The
    weights take one kernel row per distinct fractional part of delta and one
    window sum per level; the 2^(n+m) amplitude grid is built only by
    ``prepared_state``, which with ``grover_step`` is the tests' reference.

    ``scale`` multiplies the objective inside the register (thresholds and
    reported values stay unscaled).  Its default, objective_denominator,
    makes every register value an integer and the oracle exact: each weight
    is 0 or 1, the marked mass is count_below / size, and ``draw`` is
    SearchSpace.draw bit for bit.
    """

    def __init__(self, form: Formulation, scale: float | None = None):
        if 1 << form.num_vars > EMULATION_SPACE_CAP:
            raise SpaceScaleError(f"2^{form.num_vars} bitmasks exceed the cap {EMULATION_SPACE_CAP}")
        super().__init__(form)
        self.scale = float(self._den if scale is None else scale)
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"register scale {scale!r} must be positive and finite")
        self.lo, self.hi = (n / self._den for n in self._range)
        span = self.scale * (self.hi - self.lo)
        self.width = width_for_range(-span, span)
        self._last_split = (math.nan, None)

    @property
    def values(self) -> np.ndarray:
        """Value of every variable bitmask, 0 off the support; built on each access."""
        values = np.zeros(1 << self.form.num_vars)
        values[self.order] = self.sorted_values
        return values

    @property
    def support(self) -> np.ndarray:
        """Whether each variable bitmask is in the search space; built on each access."""
        return np.bincount(self.order, minlength=1 << self.form.num_vars) > 0

    def _check_register(self, threshold: float) -> None:
        """Raise ValueError if scale*(E(x) - threshold) would wrap the value register."""
        m = self.width
        lo, hi = self.scale * (self.lo - threshold), self.scale * (self.hi - threshold)
        if width_for_range(lo, hi) > m:
            raise ValueError(f"threshold {threshold!r} overflows the {m}-qubit value register")

    def prepared_state(self, threshold: float) -> np.ndarray:
        """Grid (2^m, 2^n) of amplitudes after the preparation operator, built in place.

        The reference for the closed-form split.  Raises ValueError if
        scale*(E(x) - threshold) would wrap the register, and SpaceScaleError
        if the grid would hold more than EMULATION_SPACE_CAP amplitudes.
        """
        self._check_register(threshold)
        rows = 1 << self.width
        if rows << self.form.num_vars > EMULATION_SPACE_CAP:
            raise SpaceScaleError(
                f"{self.form.num_vars}+{self.width} qubits exceed the statevector cap"
            )
        values = self.values
        init = np.where(self.support, 1.0 / math.sqrt(self.size), 0.0)
        z = np.arange(rows)[:, np.newaxis]
        grid = np.zeros((rows, values.size), dtype=np.complex128)
        np.multiply(2 * math.pi * self.scale * (values - threshold), z, out=grid.imag)
        grid.imag /= rows
        np.exp(grid, out=grid)
        grid *= init / math.sqrt(rows)
        np.fft.fft(grid, axis=0, out=grid)
        grid /= math.sqrt(rows)
        return grid

    def grover_step(self, state: np.ndarray, prepared: np.ndarray) -> np.ndarray:
        """The sign-bit oracle (a Z on the top value qubit), then the reflection about `prepared`."""
        flipped = state.copy()
        flipped[state.shape[0] // 2:] *= -1.0
        overlap = np.vdot(prepared, flipped)
        return 2.0 * overlap * prepared - flipped

    def _level_weights(self, threshold: float) -> np.ndarray:
        """Marked weight w(delta) of each distinct support value at `threshold`."""
        self._check_register(threshold)
        den = self._den
        # A threshold that is the float of a value k/den stands for k exactly,
        # so an integer-making scale gives integer offsets, free of float dust.
        t = np.round(threshold * den)
        if t / den != threshold:
            t = threshold * den
        delta = self.scale * (self.levels.numerators - t) / den
        # round, not floor: f stays in [-1/2, 1/2], where sin(pi f) keeps its precision.
        whole = np.round(delta)
        frac = delta - whole
        # At f = 0 the kernel row is the indicator of j = 0 (mod M), so the
        # window (b, b + M/2] holds it exactly when b < 0: the register check
        # keeps b in [-M/2, M/2).  Rows are built only for the other parts.
        weights = (whole < 0).astype(np.float64)
        inexact = frac != 0.0
        if not inexact.any():
            return weights
        fracs, row = np.unique(frac[inexact], return_inverse=True)
        rows = 1 << self.width
        if fracs.size * rows > EMULATION_SPACE_CAP:
            raise SpaceScaleError(
                f"{fracs.size} kernel rows of {rows} points exceed the cap {EMULATION_SPACE_CAP}"
            )
        # |a(f + j)|^2 at j = 1..M, with each j taken mod M into (-M/2, M/2]
        # so that sin(pi d / M) keeps its relative precision; sin(pi d) is
        # +-sin(pi f), and d = f + j is never 0.
        half = rows // 2
        offsets = np.arange(1, rows + 1)
        offsets[half:] -= rows
        d = fracs[:, np.newaxis] + offsets
        kernel = (np.sin(np.pi * fracs)[:, np.newaxis] / (rows * np.sin(np.pi / rows * d))) ** 2
        # w(b + f) sums the row over j = b+1 .. b+M/2 (mod M): a circular
        # window starting at column b mod M.
        circle = np.concatenate([np.zeros((fracs.size, 1)), kernel, kernel[:, :half]], axis=1)
        prefix = np.cumsum(circle, axis=1)
        start = whole[inexact].astype(np.int64) % rows
        weights[inexact] = prefix[row, start + half] - prefix[row, start]
        return weights

    def _split(self, threshold: float) -> tuple[float, np.ndarray, np.ndarray, float]:
        """sin^2(theta), each level's per-state weights (1 - w, w), the
        cumulative masses count*(1 - w) and count*w over the levels, from 0,
        and theta.

        The split of the last threshold seen is kept: a GAS run keeps its
        threshold until a sample improves on it.
        """
        last, split = self._last_split
        if threshold == last:
            return split
        weights = self._level_weights(threshold)
        parts = np.stack([1.0 - weights, weights])
        cumulative = np.cumsum(np.pad(parts * self.levels.counts, ((0, 0), (1, 0))), axis=1)
        marked_mass = float(cumulative[1, -1] / self.size)
        split = (marked_mass, parts, cumulative, _grover_angle(marked_mass))
        self._last_split = (threshold, split)
        return split

    def variable_distribution(self, threshold: float, rotations: int) -> np.ndarray:
        """Distribution of the variable register after `rotations` Grover steps."""
        _, parts, cumulative, angle = self._split(threshold)
        p = _rotated_probability(angle, rotations)
        masses = cumulative[:, -1:]
        marginals = parts / np.where(masses > 0.0, masses, 1.0)
        probs = np.zeros(1 << self.form.num_vars)
        probs[self.order] = np.repeat((1.0 - p) * marginals[0] + p * marginals[1], self.levels.counts)
        return probs

    def sample(self, threshold: float, rotations: int, rng: np.random.Generator) -> tuple[int, float]:
        return self.draw(threshold, rotations, rng.random(), rng.random())

    def draw(self, threshold: float, rotations: int, u_branch: float, u_rank: float) -> tuple[int, float]:
        """`sample` driven by two uniforms on [0, 1): the branch, then its level by
        inverse CDF, and the rank within the level from the remainder of the target."""
        marked_mass, parts, cumulative, angle = self._split(threshold)
        p = 1.0 if marked_mass == 1.0 else _rotated_probability(angle, rotations)
        branch = int(u_branch < p)
        masses = cumulative[branch]
        target = u_rank * masses[-1]
        level = int(np.searchsorted(masses, target, side="right")) - 1
        # At weights 0 and 1 the masses are integer counts, so this is exact.
        offset = int((target - masses[level]) / parts[branch, level])
        starts, counts, _ = self.levels
        return self._entry(int(starts[level]) + min(offset, int(counts[level]) - 1))

    def sample_many(
        self, threshold: float, rotations: int, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized draw of `shots` variable-register measurements."""
        cumulative = np.cumsum(self.variable_distribution(threshold, rotations))
        cumulative /= cumulative[-1]
        return np.searchsorted(cumulative, rng.random(shots), side="right")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnownOptimum:
    """Stop once the threshold is within OPTIMUM_TOL of a known optimal value."""

    value: float


@dataclass(frozen=True)
class ThresholdStall:
    """Stop after this many consecutive non-improving iterations."""

    limit: int


@dataclass(frozen=True)
class IterationCap:
    """Stop only at the iteration cap."""


Termination = KnownOptimum | ThresholdStall | IterationCap


@dataclass(frozen=True)
class GasConfig:
    lambda_growth: float = GROWTH_FACTOR
    max_iterations: int = 100_000
    termination: Termination = IterationCap()
    backend: str = "emulated"
    seed: int | np.random.SeedSequence | None = None

    def __post_init__(self) -> None:
        if self.lambda_growth <= 1.0:
            raise ValueError("growth factor must exceed 1")
        if self.max_iterations < 1:
            raise ValueError("iteration cap must be positive")
        if self.backend not in ("emulated", "exact"):
            raise ValueError(f"unknown backend {self.backend!r}")


class GasIteration(NamedTuple):
    rotations: int
    bits: int
    value: float
    accepted: bool
    threshold_after: float
    k_after: float


@dataclass
class GasTrace:
    """One run: its initial sample, a plain (rotations, bits, value, accepted,
    threshold_after, k_after) tuple per iteration in ``records``, and its query
    total, counted by the loop (L + 1 per iteration)."""

    initial_bits: int
    initial_value: float
    records: list[tuple[int, int, float, bool, float, float]] = field(default_factory=list)
    queries: int = 0
    best_bits: int = 0
    best_value: float = math.inf
    found_optimum: bool | None = None
    stop_reason: str = "cap"

    @cached_property
    def iterations(self) -> list[GasIteration]:
        """The records as GasIterations, built on first access and kept."""
        return list(map(GasIteration._make, self.records))

    @property
    def thresholds(self) -> list[float]:
        return [record[4] for record in self.records]

    @property
    def queries_with_init(self) -> int:
        return self.queries + 1


def _rotation_span(k: float) -> int:
    """Number of Grover-step counts, {0, ..., ceil(k-1)}, that draw range k draws from."""
    return max(math.ceil(k - 1), 0) + 1


def draw_rotation_count(u: float, k: float) -> int:
    """Grover-step count, uniform on {0, ..., ceil(k-1)} for draw range k, from `u` uniform on [0, 1)."""
    return int(u * _rotation_span(k))


class _StageLadder:
    """The draw range k after each count of consecutive failures, and its rotation span.

    ``ks[j]`` is k after j failures in a row: 1, then k *= growth capped at
    sqrt(size), the run loop's own float recurrence, so every entry is the k
    that loop reached.  The lists grow by one entry when a run's failure
    streak first reaches their end, and stop at the cap, so they never hold
    more entries than the longest streak reached plus one.  Runs on several
    threads may share a ladder: it grows, and its length is read, under its lock.
    """

    __slots__ = ("ks", "spans", "_growth", "_cap", "_lock")

    def __init__(self, size: int, growth: float):
        self.ks, self.spans = [1.0], [1]
        self._growth, self._cap = growth, math.sqrt(size)
        self._lock = threading.Lock()

    def reach(self, stage: int) -> int:
        """Extend the ladder to `stage` (at most one past its end) unless k is capped;
        return its last stage, which is below `stage` only once k is capped."""
        with self._lock:
            ks = self.ks
            if len(ks) <= stage and ks[-1] != self._cap:
                k = ks[-1] * self._growth
                if k > self._cap:
                    k = self._cap
                ks.append(k)
                self.spans.append(_rotation_span(k))
            return len(ks) - 1


@lru_cache(maxsize=16)
def _stage_ladder(size: int, growth: float) -> _StageLadder:
    """The ladder shared by the runs of one (space size, growth factor); the 16 most recent are kept."""
    return _StageLadder(size, growth)


def run_gas(
    form: Formulation,
    config: GasConfig,
    space: SearchSpace | None = None,
    engine: ExactEngine | None = None,
) -> GasTrace:
    """Run the adaptive search until the configured termination triggers.

    The run's generator, seeded from ``config.seed``, gives one
    ``uniform_sample`` draw and then three uniforms per iteration: the
    rotation count, the branch and the rank within it.  Pass a prebuilt
    SearchSpace (emulated backend) or ExactEngine (exact backend) to
    amortize enumeration across many runs of the same formulation; passing
    the one that ``config.backend`` does not select raises ValueError.
    """
    if config.backend == "emulated":
        if engine is not None:
            raise ValueError("engine= needs backend='exact'; the emulated backend takes space=")
        sampler = space if space is not None else SearchSpace(form)
    else:
        if space is not None:
            raise ValueError("space= needs backend='emulated'; the exact backend takes engine=")
        sampler = engine if engine is not None else ExactEngine(form)
    rng = np.random.default_rng(config.seed)
    term = config.termination
    target = term.value + OPTIMUM_TOL if isinstance(term, KnownOptimum) else -math.inf
    limit = term.limit if isinstance(term, ThresholdStall) else math.inf
    ladder = _stage_ladder(sampler.size, config.lambda_growth)
    ks, spans = ladder.ks, ladder.spans
    last = ladder.reach(0)  # read under the ladder's lock: another run may be extending it

    bits0, value0 = sampler.uniform_sample(rng)
    best_bits, threshold = bits0, value0
    stage = stall = rotation_total = 0
    capped = False
    records: list[tuple[int, int, float, bool, float, float]] = []
    draw, record = sampler.draw, records.append
    width = at = 3 * UNIFORM_BLOCK
    uniforms: list[float] = []

    for _ in range(config.max_iterations):
        if threshold <= target or stall >= limit:
            break
        if at == width:
            uniforms, at = rng.random(width).tolist(), 0
        rotations = int(uniforms[at] * spans[stage])
        bits, value = draw(threshold, rotations, uniforms[at + 1], uniforms[at + 2])
        at += 3
        rotation_total += rotations
        if value < threshold:
            best_bits, threshold = bits, value
            stage = stall = 0
            record((rotations, bits, value, True, value, 1.0))
        else:
            stall += 1
            if stage < last:
                stage += 1
            elif not capped:
                last = ladder.reach(stage + 1)
                if stage < last:
                    stage += 1
                else:
                    capped = True
            record((rotations, bits, value, False, threshold, ks[stage]))

    found = threshold <= target if isinstance(term, KnownOptimum) else None
    if threshold <= target:
        reason = "optimum"
    elif stall >= limit:
        reason = "stall"
    else:
        reason = "cap"
    return GasTrace(
        initial_bits=bits0,
        initial_value=value0,
        records=records,
        queries=rotation_total + len(records),
        best_bits=best_bits,
        best_value=threshold,
        found_optimum=found,
        stop_reason=reason,
    )


# ---------------------------------------------------------------------------
# query-complexity experiments
# ---------------------------------------------------------------------------


@dataclass
class CdfResult:
    """Per-formulation query counts from repeated optimum-terminated runs."""

    runs: int
    queries: dict[str, np.ndarray]
    optimum: float

    def median(self, kind: str) -> float:
        return float(np.median(self.queries[kind]))

    def median_ratio(self, slow_kind: str, fast_kind: str) -> float:
        return self.median(slow_kind) / self.median(fast_kind)

    def cdf_rows(self, kind: str) -> list[tuple[int, float]]:
        ordered = np.sort(self.queries[kind])
        return [(int(q), (i + 1) / len(ordered)) for i, q in enumerate(ordered)]


def cdf_experiment(
    forms: dict[str, Formulation],
    optimum_value: float,
    runs: int,
    seed: int = 0,
    max_iterations: int = 100_000,
) -> CdfResult:
    """Repeated emulated runs per formulation, stopping at the known optimum.

    Each run gets an independent child seed of `seed`, so the whole table is
    reproducible.  Returns per-kind query counts (the L+1 convention).
    """
    root = np.random.SeedSequence(seed)
    result: dict[str, np.ndarray] = {}
    for kind, form in sorted(forms.items()):
        space = SearchSpace(form)
        seeds = root.spawn(runs)
        counts = np.empty(runs, dtype=np.int64)
        for r in range(runs):
            config = GasConfig(
                termination=KnownOptimum(optimum_value),
                seed=seeds[r],
                max_iterations=max_iterations,
            )
            trace = run_gas(form, config, space=space)
            if trace.found_optimum is not True:
                raise RuntimeError(
                    f"run {r} for {kind} hit the iteration cap before the optimum"
                )
            counts[r] = trace.queries
        result[kind] = counts
        del space
    return CdfResult(runs=runs, queries=result, optimum=optimum_value)

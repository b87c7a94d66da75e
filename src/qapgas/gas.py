"""Adaptive-threshold Grover search over an encoded objective.

The driver follows the real-coefficient variant of the adaptive algorithm:
sample an initial state, set the threshold to its objective value, and then
repeatedly run `L` Grover steps (L drawn uniformly at random, growing the
draw range by a factor 8/7 on every failure, capped at sqrt(space size)),
re-evaluating each measured sample classically and lowering the threshold on
improvement.

Two interchangeable backends produce the per-iteration samples, and both
stand on one index.  The search space is enumerated once as exact integer
values at the objective's common denominator, every kind from the same
per-row and row-pair tables (circuits.objective_values), and indexed by one
sort of packed (value, state) keys, keeping each state's bitmask
(SearchSpace).

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuits import (
    EMULATION_SPACE_CAP,
    SpaceScaleError,
    dicke_rank_to_bits,
    objective_denominator,
    objective_values,
    width_for_range,
)
from .encodings import Formulation, FormulationKind

GROWTH_FACTOR = 8.0 / 7.0
# Iterations served by one rng.random call of a run; the stream is read in
# order, so trajectories do not depend on this length.
UNIFORM_BLOCK = 64
# Entries per step of each pass of SearchSpace's build after objective_values;
# the pass's temporaries are this many entries long.
_INDEX_BLOCK = 1 << 16


def _grover_angle(fraction: float) -> float:
    """theta = asin(sqrt(fraction)): the prepared state's angle to the unmarked part."""
    return math.asin(math.sqrt(fraction))


def _rotated_probability(angle: float, rotations: int) -> float:
    """Marked probability sin^2((2L+1) angle) after L = `rotations` steps."""
    return math.sin((2 * rotations + 1) * angle) ** 2


def amplified_probability(fraction: float, rotations: int) -> float:
    """Marked probability sin^2((2L+1) asin(sqrt(fraction))) after L = `rotations` steps."""
    return _rotated_probability(_grover_angle(fraction), rotations)


def marked_probability(marked: int, size: int, rotations: int) -> float:
    """Probability that `rotations` Grover steps end on a marked state."""
    if not 0 <= marked <= size:
        raise ValueError("marked count out of range")
    return amplified_probability(marked / size, rotations)


# ---------------------------------------------------------------------------
# emulated backend
# ---------------------------------------------------------------------------


class SearchSpace:
    """Enumerated objective values over a formulation's search space.

    Values are held sorted; ``order`` holds the variable bitmask of each
    sorted state (for the Dicke space, of each sorted support rank), so
    threshold counts are binary searches and class-uniform sampling is an
    array lookup.  The index is one in-place sort of uint64 keys packing each
    state's exact integer value (at objective_denominator) above its state
    index: equal values are bit-equal floats, ties keep state-index order,
    and the order is the same on every host.

    Memory: the build holds the key buffer (8 bytes per state; it becomes
    ``sorted_values``) and ``order`` (4 or 8 bytes per state) plus a few
    blocks of temporaries.  Every pass after objective_values (packing the
    keys, unpacking them into values and order, mapping Dicke ranks to
    bitmasks) runs in place, _INDEX_BLOCK entries at a time.
    """

    def __init__(self, form: Formulation):
        size = form.space_size
        if size > EMULATION_SPACE_CAP:
            raise SpaceScaleError(
                f"search space of {size} states exceeds the enumeration cap {EMULATION_SPACE_CAP}"
            )
        self.size = size
        levels = objective_values(form)
        self._den = den = objective_denominator(form)
        lo = int(levels.min())
        span = int(levels.max()) - lo
        shift = (size - 1).bit_length()
        if span.bit_length() + shift > 64:
            raise SpaceScaleError(f"value span {span} and {shift} state bits overflow a 64-bit key")
        # One buffer, seen as int64 levels, uint64 keys and float64 values.
        key = levels.view(np.uint64)
        blocks = [slice(start, start + _INDEX_BLOCK) for start in range(0, size, _INDEX_BLOCK)]
        state = np.arange(min(size, _INDEX_BLOCK), dtype=np.uint64)
        for rows in blocks:  # key = (level - lo) << shift | state
            levels[rows] -= lo
            block = key[rows]
            block <<= shift
            block |= state[: block.size]
            state += _INDEX_BLOCK
        del state  # not held through the sort and the unpack
        key.sort()
        # Unsigned above 31 variables: a qubo-d mask at N=8 sets bit 63.
        order = np.empty(size, dtype=np.uint64 if form.num_vars > 31 else np.int32)
        values = key.view(np.float64)
        mask = (1 << shift) - 1
        for rows in blocks:
            np.bitwise_and(key[rows], mask, out=order[rows], casting="unsafe")
            if form.kind is FormulationKind.QUBO_DICKE:
                order[rows] = dicke_rank_to_bits(form, order[rows])
            key[rows] >>= shift
            levels[rows] += lo
            np.divide(levels[rows], den, out=values[rows])
        self.order = order
        self.sorted_values = values
        self._last_count = (math.nan, 0, 0.0)

    def count_below(self, threshold: float) -> int:
        """Number of states whose value is strictly below `threshold`."""
        return int(np.searchsorted(self.sorted_values, threshold, side="left"))

    def _marked(self, threshold: float, rotations: int) -> tuple[int, float]:
        """Marked count t and the probability of the marked class (exactly 1 when t = size).

        The count and Grover angle of the last threshold seen are cached: a
        GAS run keeps its threshold until a sample improves on it.
        """
        last, t, angle = self._last_count
        if threshold != last:
            t = self.count_below(threshold)
            angle = _grover_angle(t / self.size)
            self._last_count = (threshold, t, angle)
        if t == self.size:
            return t, 1.0
        return t, _rotated_probability(angle, rotations)

    def uniform_sample(self, rng: np.random.Generator) -> tuple[int, float]:
        rank = int(rng.integers(self.size))
        return int(self.order[rank]), float(self.sorted_values[rank])

    def minimum(self) -> tuple[int, float]:
        return int(self.order[0]), float(self.sorted_values[0])

    def sample(self, threshold: float, rotations: int, rng: np.random.Generator) -> tuple[int, float]:
        """One measurement of G^L applied to the prepared state."""
        t, p = self._marked(threshold, rotations)
        if t == 0:
            rank = int(rng.integers(self.size))
        elif t == self.size or rng.random() < p:
            rank = int(rng.integers(t))
        else:
            rank = int(rng.integers(t, self.size))
        return int(self.order[rank]), float(self.sorted_values[rank])

    def draw(self, threshold: float, rotations: int, u_branch: float, u_rank: float) -> tuple[int, float]:
        """`sample` driven by two uniforms on [0, 1): the class, then the rank within it."""
        t, p = self._marked(threshold, rotations)
        if u_branch < p:
            rank = int(u_rank * t)
        else:
            rank = t + int(u_rank * (self.size - t))
        return int(self.order[rank]), float(self.sorted_values[rank])


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
    the engine is the SearchSpace index plus one weight per value level (run
    of equal sorted values).  The marked mass sin^2(theta) is the mean of w,
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
        self.form = form
        self.scale = float(self._den if scale is None else scale)
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"register scale {scale!r} must be positive and finite")
        # The level table: the start rank and count of each run of equal
        # sorted values, and its value as an exact numerator over den.
        values = self.sorted_values
        self._starts = np.r_[0, np.flatnonzero(values[1:] != values[:-1]) + 1]
        self._counts = np.diff(self._starts, append=self.size)
        self._levels = np.rint(values[self._starts] * self._den)
        if not np.array_equal(self._levels / self._den, values[self._starts]):
            raise ValueError(f"a value level is not a multiple of 1/{self._den}")
        self.lo, self.hi = float(values[0]), float(values[-1])
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
        delta = self.scale * (self._levels - t) / den
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
        cumulative = np.cumsum(np.pad(parts * self._counts, ((0, 0), (1, 0))), axis=1)
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
        probs[self.order] = np.repeat((1.0 - p) * marginals[0] + p * marginals[1], self._counts)
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
        rank = self._starts[level] + min(offset, self._counts[level] - 1)
        return int(self.order[rank]), float(self.sorted_values[rank])

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
    """Stop once the threshold reaches a known optimal value."""

    value: float
    tol: float = 1e-9


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
    initial_bits: int
    initial_value: float
    iterations: list[GasIteration] = field(default_factory=list)
    best_bits: int = 0
    best_value: float = math.inf
    found_optimum: bool | None = None
    stop_reason: str = "cap"

    @property
    def thresholds(self) -> list[float]:
        return [it.threshold_after for it in self.iterations]

    @property
    def queries(self) -> int:
        return sum(it.rotations + 1 for it in self.iterations)

    @property
    def queries_with_init(self) -> int:
        return self.queries + 1


def draw_rotation_count(u: float, k: float) -> int:
    """Grover-step count, uniform on {0, ..., ceil(k-1)} for draw range k, from `u` uniform on [0, 1)."""
    return int(u * (max(math.ceil(k - 1), 0) + 1))


def _uniform_triples(rng: np.random.Generator):
    """The (rotation, branch, rank) uniforms of successive iterations, read in blocks."""
    while True:
        block = iter(rng.random(3 * UNIFORM_BLOCK).tolist())
        yield from zip(block, block, block)


def _make_sampler(form: Formulation, config: GasConfig, space, engine):
    if config.backend == "emulated":
        return space if space is not None else SearchSpace(form)
    return engine if engine is not None else ExactEngine(form)


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
    SearchSpace or ExactEngine to amortize enumeration across many runs of
    the same formulation.
    """
    sampler = _make_sampler(form, config, space, engine)
    rng = np.random.default_rng(config.seed)
    sqrt_cap = math.sqrt(sampler.size)
    term = config.termination
    target = term.value + term.tol if isinstance(term, KnownOptimum) else -math.inf
    limit = term.limit if isinstance(term, ThresholdStall) else math.inf

    bits0, value0 = sampler.uniform_sample(rng)
    trace = GasTrace(initial_bits=bits0, initial_value=value0)
    best_bits, threshold = bits0, value0
    k = 1.0
    stall = 0
    draw, record = sampler.draw, trace.iterations.append

    uniforms = zip(range(config.max_iterations), _uniform_triples(rng))
    for _, (u_rotation, u_branch, u_rank) in uniforms:
        if threshold <= target or stall >= limit:
            break
        rotations = draw_rotation_count(u_rotation, k)
        bits, value = draw(threshold, rotations, u_branch, u_rank)
        accepted = value < threshold
        if accepted:
            best_bits, threshold = bits, value
            k = 1.0
            stall = 0
        else:
            k = min(config.lambda_growth * k, sqrt_cap)
            stall += 1
        record(GasIteration(rotations, bits, value, accepted, threshold, k))

    trace.best_bits, trace.best_value = best_bits, threshold
    if isinstance(term, KnownOptimum):
        trace.found_optimum = threshold <= target
    if threshold <= target:
        trace.stop_reason = "optimum"
    elif stall >= limit:
        trace.stop_reason = "stall"
    return trace


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

"""Adaptive-threshold Grover search over an encoded objective.

The driver follows the real-coefficient variant of the adaptive algorithm:
sample an initial state, set the threshold to its objective value, and then
repeatedly run `L` Grover steps (L drawn uniformly at random, growing the
draw range by a factor 8/7 on every failure, capped at sqrt(space size)),
re-evaluating each measured sample classically and lowering the threshold on
improvement.

Two interchangeable backends produce the per-iteration samples:

* ``emulated`` -- classical amplification model.  The search space is
  enumerated once as exact integer values at the objective's common
  denominator (the Dicke space by one vectorized pass over its N^N row-wise
  assignments) and indexed by one sort of packed (value, state) keys, keeping
  each state's bitmask; a sample is marked (objective strictly below the
  threshold) with the exact Grover probability
  sin^2((2L+1) * asin(sqrt(t/|S|))) and drawn uniformly within its class.
* ``exact``    -- the actual circuit's statevector: a vectorized preparation
  (phase ladder plus an FFT for the inverse QFT), unitarily identical to the
  gate-level construction; L Grover steps then follow in closed form (see
  ExactEngine, whose ``grover_step`` is the reference the tests check).

Query accounting: one iteration with L Grover applications costs L + 1
queries (the +1 is the state preparation/measurement).  The initial
classical sample is not counted; per-run reports carry both conventions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuits import dicke_rank_to_bits, objective_denominator, objective_values, width_for_range
from .encodings import Formulation, FormulationKind

EMULATION_SPACE_CAP = 1 << 26
EXACT_VARIABLE_CAP = 20
GROWTH_FACTOR = 8.0 / 7.0
# Iterations served by one rng.random call of a run; the stream is read in
# order, so trajectories do not depend on this length.
UNIFORM_BLOCK = 64


class SpaceScaleError(ValueError):
    """Raised when a search space is too large to enumerate or simulate."""


def amplified_probability(fraction: float, rotations: int) -> float:
    """Marked probability sin^2((2L+1) asin(sqrt(fraction))) after L = `rotations` steps."""
    return math.sin((2 * rotations + 1) * math.asin(math.sqrt(fraction))) ** 2


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
    """

    def __init__(self, form: Formulation):
        size = form.space_size
        if size > EMULATION_SPACE_CAP:
            raise SpaceScaleError(
                f"search space of {size} states exceeds the enumeration cap {EMULATION_SPACE_CAP}"
            )
        self.size = size
        key = objective_values(form)
        den = objective_denominator(form)
        lo = int(key.min())
        span = int(key.max()) - lo
        shift = (size - 1).bit_length()
        if span.bit_length() + shift > 64:
            raise SpaceScaleError(f"value span {span} and {shift} state bits overflow a 64-bit key")
        key -= lo
        key = key.view(np.uint64)
        key <<= shift
        key |= np.arange(size, dtype=np.uint64)
        key.sort()
        order = np.empty(size, dtype=np.int64 if form.num_vars > 31 else np.int32)
        np.bitwise_and(key, (1 << shift) - 1, out=order, casting="unsafe")
        if form.kind is FormulationKind.QUBO_DICKE:
            order = dicke_rank_to_bits(form, order).astype(order.dtype)
        self.order = order
        key >>= shift
        levels = key.view(np.int64)
        levels += lo
        self.sorted_values = np.divide(levels, den, out=levels.view(np.float64))
        self._last_count = (math.nan, 0)

    def count_below(self, threshold: float) -> int:
        """Number of states whose value is strictly below `threshold`."""
        return int(np.searchsorted(self.sorted_values, threshold, side="left"))

    def _marked(self, threshold: float, rotations: int) -> tuple[int, float]:
        """Marked count t and the probability of the marked class (exactly 1 when t = size).

        The count of the last threshold seen is cached: a GAS run keeps its
        threshold until a sample improves on it.
        """
        last, t = self._last_count
        if threshold != last:
            t = self.count_below(threshold)
            self._last_count = (threshold, t)
        if t == self.size:
            return t, 1.0
        return t, marked_probability(t, self.size, rotations)

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


class ExactEngine:
    """Statevector sampler equivalent to running the prepared circuit.

    Works on the (value register) x (variable register) amplitude grid.  The
    preparation applies the initial superposition, the diagonal phase ladder
    for scale*(E(x) - y), and the inverse Fourier transform along the value
    axis.  A Grover step is the sign-bit oracle followed by the reflection
    about the prepared state, so L steps rotate the state in the plane of the
    prepared state's marked (sign bit set) and unmarked parts: x is read with
    probability sin^2((2L+1)theta) p_m(x) + cos^2((2L+1)theta) p_u(x), where
    sin^2(theta) is the marked mass and p_m, p_u are the parts' marginals.
    One split per threshold serves every L; `grover_step` is the test reference.

    ``scale`` multiplies the objective inside the register (thresholds and
    reported values stay unscaled); choosing a scale that makes all values
    integers makes the register readout, and hence the oracle, exact.
    """

    def __init__(self, form: Formulation, scale: float = 1.0):
        n = form.num_vars
        if n > EXACT_VARIABLE_CAP:
            raise SpaceScaleError(
                f"{n} binary variables exceed the exact backend cap {EXACT_VARIABLE_CAP}"
            )
        self.form = form
        self.size = form.space_size
        self.scale = float(scale)
        den = objective_denominator(form)
        self.values = form.poly.scaled(den).evaluate_table(np.int64) / den
        self.support = np.ones(1 << n, dtype=bool)
        if form.kind is FormulationKind.QUBO_DICKE:
            masks = dicke_rank_to_bits(form, np.arange(self.size))
            self.support = np.isin(np.arange(1 << n), masks)
        sup_vals = self.values[self.support]
        self.lo, self.hi = float(sup_vals.min()), float(sup_vals.max())
        span = self.scale * (self.hi - self.lo)
        self.width = width_for_range(-span, span)
        if n + self.width > 26:
            raise SpaceScaleError(
                f"{n}+{self.width} qubits exceed the statevector cap; "
                "use the emulated backend"
            )
        self._support_states = np.flatnonzero(self.support)
        amp = 1.0 / math.sqrt(self.size)
        self._init = np.where(self.support, amp, 0.0).astype(np.complex128)
        half = 1 << (self.width - 1)
        signs = np.ones(1 << self.width)
        signs[half:] = -1.0
        self._oracle = signs[:, np.newaxis]
        self._z = np.arange(1 << self.width)[:, np.newaxis]
        self._splits: dict[float, tuple[float, np.ndarray, np.ndarray]] = {}

    def prepared_state(self, threshold: float) -> np.ndarray:
        """Grid (2^m, 2^n) of amplitudes after the preparation operator, built in place.

        Raises ValueError if scale*(E(x) - threshold) would wrap the register.
        """
        m = self.width
        lo, hi = self.scale * (self.lo - threshold), self.scale * (self.hi - threshold)
        if width_for_range(lo, hi) > m:
            raise ValueError(f"threshold {threshold!r} overflows the {m}-qubit value register")
        rows = 1 << m
        grid = np.zeros((rows, self._init.size), dtype=np.complex128)
        np.multiply(2 * math.pi * self.scale * (self.values - threshold), self._z, out=grid.imag)
        grid.imag /= rows
        np.exp(grid, out=grid)
        grid *= self._init / math.sqrt(rows)
        np.fft.fft(grid, axis=0, out=grid)
        grid /= math.sqrt(rows)
        return grid

    def grover_step(self, state: np.ndarray, prepared: np.ndarray) -> np.ndarray:
        flipped = self._oracle * state
        overlap = np.vdot(prepared, flipped)
        return 2.0 * overlap * prepared - flipped

    def _split(self, threshold: float) -> tuple[float, np.ndarray, np.ndarray]:
        """sin^2(theta), rows (p_u, p_m) and their cumsums ending at exactly 1 (or all 0)."""
        split = self._splits.get(threshold)
        if split is None:
            if len(self._splits) > 512:
                self._splits.clear()
            probs = np.abs(self.prepared_state(threshold)) ** 2
            parts = probs.reshape(2, -1, probs.shape[1]).sum(axis=1)
            cumulative = np.cumsum(parts, axis=1)
            masses = cumulative[:, -1:]
            norm = np.where(masses > 0.0, masses, 1.0)
            split = (float(masses[1, 0] / masses.sum()), parts / norm, cumulative / norm)
            self._splits[threshold] = split
        return split

    def variable_distribution(self, threshold: float, rotations: int) -> np.ndarray:
        """Distribution of the variable register after `rotations` Grover steps."""
        marked_mass, marginals, _ = self._split(threshold)
        p = amplified_probability(marked_mass, rotations)
        return (1.0 - p) * marginals[0] + p * marginals[1]

    def _marked(self, threshold: float, rotations: int) -> tuple[bool, float, np.ndarray]:
        """Whether all mass is marked, the marked probability (then exactly 1), and the cumsums."""
        marked_mass, _, cumulative = self._split(threshold)
        if marked_mass == 1.0:
            return True, 1.0, cumulative
        return False, amplified_probability(marked_mass, rotations), cumulative

    def sample(self, threshold: float, rotations: int, rng: np.random.Generator) -> tuple[int, float]:
        certain, p, cumulative = self._marked(threshold, rotations)
        branch = int(certain or rng.random() < p)
        x = int(np.searchsorted(cumulative[branch], rng.random(), side="right"))
        return x, float(self.values[x])

    def draw(self, threshold: float, rotations: int, u_branch: float, u_rank: float) -> tuple[int, float]:
        """`sample` driven by two uniforms on [0, 1): the branch, then x by inverse CDF."""
        _, p, cumulative = self._marked(threshold, rotations)
        x = int(np.searchsorted(cumulative[int(u_branch < p)], u_rank, side="right"))
        return x, float(self.values[x])

    def sample_many(
        self, threshold: float, rotations: int, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized draw of `shots` variable-register measurements."""
        cumulative = np.cumsum(self.variable_distribution(threshold, rotations))
        cumulative /= cumulative[-1]
        return np.searchsorted(cumulative, rng.random(shots), side="right")

    def uniform_sample(self, rng: np.random.Generator) -> tuple[int, float]:
        states = self._support_states
        x = int(states[rng.integers(len(states))])
        return x, float(self.values[x])

    def minimum(self) -> tuple[int, float]:
        sup_vals = np.where(self.support, self.values, np.inf)
        x = int(np.argmin(sup_vals))
        return x, float(self.values[x])


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

    @property
    def classical_evaluations(self) -> int:
        return len(self.iterations) + 1


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

import dataclasses
import gc
import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from qapgas import gas as gas_module
from qapgas import space as space_module
from qapgas.encodings import (
    Formulation,
    FormulationKind,
    encode,
    encode_hubo_hw,
    encode_qubo_dicke,
    search_space_sizes,
)
from qapgas.gas import (
    OPTIMUM_TOL,
    UNIFORM_BLOCK,
    ExactEngine,
    GasConfig,
    GasIteration,
    GasTrace,
    IterationCap,
    KnownOptimum,
    SearchSpace,
    ThresholdStall,
    cdf_experiment,
    draw_rotation_count,
    marked_probability,
    run_gas,
)
from qapgas.polynomials import MultilinearPolynomial
from qapgas.qap import QapInstance, brute_force_optimum, generic_instance, objective, random_instance
from qapgas.samples import sample_instance, sample_optimum
from qapgas.space import (
    EMULATION_SPACE_CAP,
    INDEX_BLOCK,
    INDEX_PIECE,
    SpaceScaleError,
    dicke_rank_to_bits,
    index_parts,
    index_pieces,
    lower_rows,
    objective_denominator,
    objective_values,
    run_parts,
)


def dyadic_instance(n, seed):
    """Entries on the 0.5 grid: objectives are exact multiples of 0.25."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        mat = rng.integers(0, 3, size=(n, n)) / 2.0
        mat = np.triu(mat, 1)
        mats.append(mat + mat.T)
    return QapInstance(n, mats[0], mats[1], name=f"dyadic-{n}-{seed}")


def assert_marks_exactly_the_levels_below(engine, y, count_below):
    """The split at `y` has weight exactly 1 on the levels below y and exactly 0 on
    the rest, and its marked mass is count_below / size with ==."""
    marked_mass, (unmarked, marked), *_ = engine._split(y)
    assert marked_mass == count_below / engine.size
    below = engine.sorted_values[engine.levels.starts] < y
    np.testing.assert_array_equal(marked, below)
    np.testing.assert_array_equal(unmarked, ~below)


GUARD_SECONDS = 60
GUARDED_SCRIPT = """
import math, sys
from qapgas import encode, random_instance
from qapgas.circuits import width_for_range
from qapgas.gas import ExactEngine
form = encode(random_instance(3, 1), "hubo-hw")
for statement in sys.argv[1:]:
    try:
        exec(statement)
    except Exception as exc:
        print(type(exc).__name__)
    else:
        print("-")
"""


def exceptions_raised(*statements: str) -> list[str]:
    """The exception each statement raises ("-" for none), in a child interpreter that
    is killed after GUARD_SECONDS, so that a statement that loops fails the caller."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", GUARDED_SCRIPT, *statements],
        capture_output=True, text=True, timeout=GUARD_SECONDS, env=env, check=True,
    )
    return done.stdout.split()


class TestMarkedProbability:
    def test_everything_marked_is_certain(self):
        for rotations in range(4):
            assert marked_probability(8, 8, rotations) == pytest.approx(1.0)

    def test_zero_rotations_is_uniform(self):
        assert marked_probability(3, 8, 0) == pytest.approx(3 / 8)

    def test_single_marked_progression(self):
        assert marked_probability(1, 8, 1) == pytest.approx(25 / 32)
        assert marked_probability(1, 8, 2) == pytest.approx(0.9453125)

    def test_none_marked(self):
        assert marked_probability(0, 8, 3) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            marked_probability(9, 8, 0)


class TestSearchSpace:
    def test_sizes_per_kind(self):
        inst = random_instance(3, seed=1)
        assert SearchSpace(encode(inst, "qubo-h")).size == 2**9
        assert SearchSpace(encode(inst, "qubo-d")).size == 27
        assert SearchSpace(encode(inst, "hubo-hw")).size == 2**6

    def test_counts_below_threshold(self):
        inst = random_instance(3, seed=1)
        space = SearchSpace(encode(inst, "hubo-hw"))
        table = encode(inst, "hubo-hw").poly.evaluate_table()
        for y in (0.0, 1.0, 5.0, 100.0):
            assert space.count_below(y) == int((table < y).sum())

    def test_dicke_space_enumerates_assignments(self):
        inst = random_instance(3, seed=2)
        form = encode_qubo_dicke(inst)
        space = SearchSpace(form)
        bits = {int(space.order[r]) for r in range(space.size)}
        assert len(bits) == 27
        for x in bits:
            for row in range(3):
                assert bin((x >> (3 * row)) & 0b111).count("1") == 1

    def test_sample_unmarked_when_probability_zero(self):
        inst = random_instance(3, seed=3)
        space = SearchSpace(encode(inst, "hubo-hw"))
        rng = np.random.default_rng(0)
        y = float(space.sorted_values[0])  # nothing strictly below the minimum
        for _ in range(20):
            _, value = space.sample(y, 0, rng)
            assert value >= y

    def test_l0_sampling_is_uniform_over_classes(self):
        inst = random_instance(3, seed=4)
        space = SearchSpace(encode(inst, "hubo-hw"))
        y = float(np.quantile(space.sorted_values, 0.3))
        t = space.count_below(y)
        p = t / space.size
        rng = np.random.default_rng(42)
        shots = 20_000
        hits = sum(space.sample(y, 0, rng)[1] < y for _ in range(shots))
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(hits / shots - p) < 4 * sigma

    def test_dicke_space_at_n7_finds_the_optimum(self):
        inst = random_instance(7, seed=3)
        form = encode_qubo_dicke(inst)
        space = SearchSpace(form)
        assert space.order.dtype == np.uint64  # 49 variables
        perm, value = brute_force_optimum(inst)
        bits, found = space.minimum()
        assert found == pytest.approx(value, abs=1e-9)
        assert form.decode(bits) == perm

    def test_oversized_space_rejected(self):
        inst = random_instance(6, seed=0)
        with pytest.raises(SpaceScaleError):
            SearchSpace(encode(inst, "qubo-h"))  # 2^36

    @pytest.mark.parametrize("kind", ["qubo-h", "qubo-d", "hubo-hw"])
    def test_sorted_values_equal_exact_evaluation(self, kind):
        form = encode(random_instance(3, seed=5), kind)
        space = SearchSpace(form)
        for r in range(space.size):
            assert space.sorted_values[r] == float(form.poly.evaluate(int(space.order[r])))

    @pytest.mark.parametrize("kind", ["qubo-h", "qubo-d", "hubo-hw"])
    def test_packed_order_is_stable_sort_of_numerators(self, kind):
        form = encode(random_instance(4, seed=1), kind)
        space = SearchSpace(form)
        numerators = objective_values(form)
        ranks = np.argsort(numerators, kind="stable")
        if kind == "qubo-d":
            ranks = dicke_rank_to_bits(form, ranks)
        np.testing.assert_array_equal(space.order, ranks)
        assert space.sorted_values.tolist() == sorted(numerators / objective_denominator(form))

    # qubo-h N=4 is exactly one build block, hubo-hw N=6 several full blocks, qubo-d
    # N=7 (823,543 states) ends on a partial block, and the N=3 spaces are under one.
    @pytest.mark.parametrize(
        "kind, n", [("qubo-h", 4), ("hubo-hw", 6), ("qubo-d", 7), ("qubo-d", 3), ("hubo-hw", 3)]
    )
    def test_blockwise_index_equals_lexsort_reference(self, kind, n):
        form = encode(random_instance(n, seed=2), kind)
        space = SearchSpace(form)
        numerators = objective_values(form)
        ranks = np.lexsort((np.arange(form.space_size), numerators))
        order = dicke_rank_to_bits(form, ranks) if kind == "qubo-d" else ranks
        assert space.order.dtype == (np.uint64 if form.num_vars > 31 else np.int32)
        assert np.array_equal(space.order, order)
        assert space.sorted_values.dtype == np.float64
        assert np.array_equal(space.sorted_values, numerators[ranks] / objective_denominator(form))

    @pytest.mark.parametrize("kind, n", [("hubo-hw", 6), ("qubo-d", 7)])
    def test_build_peak_is_the_index_plus_a_few_blocks(self, kind, n):
        """numpy reports its buffers to tracemalloc, so the traced peak covers the build's arrays."""
        form = encode(random_instance(n, seed=2), kind)
        tracemalloc.start()
        try:
            space = SearchSpace(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The space holds one 8-byte key per state; order and sorted_values are built on access.
        assert peak <= form.space_size * 8 + 4 * INDEX_BLOCK * 8

    def test_piece_build_peak_is_the_state_array_plus_a_scratch_piece_per_thread(self):
        """A space of more than one piece holds a 4-byte state index per state; its
        traced build peak is within piece_build_bound, below the 8 bytes per state of
        a sorted key buffer."""
        form = encode(random_instance(5, seed=2), "qubo-h")
        size = form.space_size
        assert len(index_pieces(form)) == size // INDEX_PIECE
        tracemalloc.start()
        try:
            space = SearchSpace(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space._cells[0].size <= size // gas_module.PIECE_LEVEL_SHARE
        assert peak <= piece_build_bound(space) < 8 * size

    def test_fine_values_build_peak_is_the_key_buffer(self, monkeypatch):
        """hubo-hw N=7 on a 0.001 grid has about one value per state: its pieces pass the
        cell budget, so the build drops them and holds the sorted keys, and its traced
        peak is the key buffer plus one scratch piece and flag array per thread and the
        lower rows, however many values there are."""
        form = encode(generic_instance(7, seed=2), "hubo-hw")
        monkeypatch.setattr(space_module, "INDEX_PIECE", 1 << 18)
        size, pieces = form.space_size, index_pieces(form)
        assert len(pieces) == 8
        tracemalloc.start()
        try:
            space = SearchSpace(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space._states is None and space._keys.size == size
        assert len(space.levels.starts) > size // 2
        parts = index_parts(size)
        assert peak <= 8 * size + parts * 9 * len(pieces[0]) + 8 * len(lower_rows(form))

    def test_dicke_space_at_n8_finds_the_optimum(self):
        """64 variables: ranks need no 64-bit mask, and masks with bit 63 set decode."""
        form = encode_qubo_dicke(sample_instance(8))
        space = SearchSpace(form)
        perm, _ = sample_optimum(8)
        assert form.decode(space.minimum()[0]) == perm
        top = int(space.order[space.order >= np.uint64(1 << 63)][0])  # row 8 at location 8
        last = form.decode(top)
        assert last.mapping[7] == 8
        assert form.encode_permutation(last) == top

    def test_value_span_overflowing_the_key_rejected(self):
        # 12 state bits plus a span of 2^52 need 65 key bits.
        poly = MultilinearPolynomial(12, {(0,): 2**51, (1,): -(2**51)})
        inst = QapInstance(2, np.zeros((2, 2)), np.zeros((2, 2)))
        form = Formulation(FormulationKind.QUBO_HADAMARD, poly, 12, 2, (1.0, 1.0), inst)
        with pytest.raises(SpaceScaleError, match="64-bit key"):
            SearchSpace(form)

    def test_accepted_improvements_are_whole_levels(self):
        """Every accepted sample lowers the threshold by at least 1/den, never by float dust."""
        inst = random_instance(4, seed=1)
        form = encode_hubo_hw(inst)
        den = objective_denominator(form)
        space = SearchSpace(form)
        _, best = brute_force_optimum(inst)
        dust = 0
        for child in np.random.SeedSequence(7).spawn(300):
            trace = run_gas(form, GasConfig(termination=KnownOptimum(best), seed=child), space=space)
            assert trace.found_optimum is True
            before = trace.initial_value
            for it in trace.iterations:
                if it.accepted:
                    dust += round(before * den) - round(it.value * den) < 1
                    before = it.value
        assert dust == 0


def usable_cores(monkeypatch, count):
    """Make the index build see `count` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def full_sort_reference(form):
    """order and sorted_values from one np.sort of every packed key, in one piece."""
    numerators = objective_values(form)
    lo = int(numerators.min())
    shift = np.uint64((form.space_size - 1).bit_length())
    states = np.arange(form.space_size, dtype=np.uint64)
    keys = np.sort((numerators - lo).astype(np.uint64) << shift | states)
    ranks = keys & ((np.uint64(1) << shift) - np.uint64(1))
    order = dicke_rank_to_bits(form, ranks) if form.kind is FormulationKind.QUBO_DICKE else ranks
    values = ((keys >> shift).astype(np.int64) + lo) / objective_denominator(form)
    return order, values


# Bytes per cell that a piece index build may hold at once beside its state array,
# its scratch pieces and flags and the lower rows: the per-piece cell tables, then the
# merge's arrays and the level table.  About 40 where every state has its own value,
# about 20 on random_instance's qubo-h N=5.
CELL_BYTES = 48


def piece_build_bound(space):
    """The traced peak a piece index build of `space` may reach: 4 bytes per state, 9 per
    state of a piece on each build thread, the lower rows and CELL_BYTES per cell."""
    size, form = space.size, space.form
    scratch = index_parts(size) * 9 * len(index_pieces(form)[0])
    return 4 * size + scratch + 8 * len(lower_rows(form)) + CELL_BYTES * space._cells[0].size


def small_pieces(monkeypatch, piece, share=1):
    """Make the index build cut every space of more than `piece` states into pieces,
    and keep them while they hold at most size // `share` cells (by default, always);
    sorted keys are scanned for their levels `piece` keys at a time."""
    monkeypatch.setattr(space_module, "INDEX_PIECE", piece)
    monkeypatch.setattr(gas_module, "INDEX_PIECE", piece)
    monkeypatch.setattr(gas_module, "PIECE_LEVEL_SHARE", share)


class TestSplitBuild:
    # qubo-h N=4 is exactly one block, so one part; hubo-hw N=6 is a power-of-two
    # number of blocks, and qubo-d N=7 (823,543 states) is not a multiple of the block.
    # The last entry is a piece size that cuts the space into several pieces: two
    # digit blocks each on qubo-h N=4 (R=16), one on hubo-hw N=6 (R=8), and two on
    # qubo-d N=7 (R=7), whose last piece holds one.
    SPACES = [("qubo-h", 4, 1, 1 << 13), ("hubo-hw", 6, 2, 1 << 12), ("qubo-d", 7, 2, 1 << 18)]

    @pytest.mark.parametrize("split", [False, True], ids=["one-piece", "pieces"])
    @pytest.mark.parametrize("kind, n, parts, piece", SPACES)
    def test_two_core_build_equals_one_full_sort(self, monkeypatch, kind, n, parts, piece, split):
        usable_cores(monkeypatch, 2)
        if split:
            small_pieces(monkeypatch, piece)
        form = encode(random_instance(n, seed=2), kind)
        assert index_parts(form.space_size) == parts
        assert (len(index_pieces(form)) > 1) == split
        space = SearchSpace(form)
        assert (space._keys is None) == split
        order, values = full_sort_reference(form)
        assert np.array_equal(space.order, order)
        assert np.array_equal(space.sorted_values, values)

    @pytest.mark.parametrize("split", [False, True], ids=["one-piece", "pieces"])
    @pytest.mark.parametrize("kind, n, parts, piece", SPACES)
    def test_one_usable_core_gives_the_same_arrays(self, monkeypatch, kind, n, parts, piece, split):
        if split:
            small_pieces(monkeypatch, piece)
        form = encode(random_instance(n, seed=2), kind)
        usable_cores(monkeypatch, 2)
        two_numerators, two = objective_values(form), SearchSpace(form)
        usable_cores(monkeypatch, 1)
        assert index_parts(form.space_size) == 1
        one_numerators, one = objective_values(form), SearchSpace(form)
        assert np.array_equal(one_numerators, two_numerators)
        assert one.order.dtype == two.order.dtype
        assert np.array_equal(one.order, two.order)
        assert np.array_equal(one.sorted_values, two.sorted_values)
        assert all(np.array_equal(a, b) for a, b in zip(one.levels, two.levels))

    @pytest.mark.parametrize("split", [False, True], ids=["one-piece", "pieces"])
    @pytest.mark.parametrize("kind, n, parts, piece", SPACES)
    def test_levels_equal_the_runs_of_sorted_values(self, monkeypatch, kind, n, parts, piece, split):
        usable_cores(monkeypatch, 2)
        if split:
            small_pieces(monkeypatch, piece)
        form = encode(random_instance(n, seed=2), kind)
        space = SearchSpace(form)
        values = space.sorted_values
        starts = np.r_[0, np.flatnonzero(values[1:] != values[:-1]) + 1]
        assert np.array_equal(space.levels.starts, starts)
        assert np.array_equal(space.levels.counts, np.diff(starts, append=space.size))
        assert np.array_equal(space.levels.numerators / objective_denominator(form), values[starts])

    def test_part_count_rule(self, monkeypatch):
        usable_cores(monkeypatch, 2)
        assert index_parts(INDEX_BLOCK) == 1
        assert index_parts(INDEX_BLOCK + 1) == 2
        usable_cores(monkeypatch, 1)
        assert index_parts(EMULATION_SPACE_CAP) == 1
        # Without an affinity call, the core count decides.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert index_parts(EMULATION_SPACE_CAP) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert index_parts(EMULATION_SPACE_CAP) == 1

    def test_one_block_builds_start_no_thread(self, monkeypatch):
        usable_cores(monkeypatch, 2)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        SearchSpace(encode(random_instance(4, seed=2), "qubo-h"))  # 2^16 states: one block
        for kind in ("qubo-h", "qubo-d", "hubo-hw"):
            SearchSpace(encode(random_instance(4, seed=3), kind))
            ExactEngine(encode(random_instance(3, seed=1), kind))
        assert started == []
        SearchSpace(encode(random_instance(6, seed=2), "hubo-hw"))  # 2^18 states: four blocks
        assert started

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        usable_cores(monkeypatch, 2)
        small_pieces(monkeypatch, 1 << 18)  # four pieces, dealt to two threads
        form = encode(random_instance(7, seed=2), "qubo-d")
        original = gas_module.run_parts

        def failing_in_workers(task, parts):
            def failing_task(part):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("worker half failed")
                return task(part)

            return original(failing_task, parts)

        monkeypatch.setattr(gas_module, "run_parts", failing_in_workers)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker half failed"):
            SearchSpace(form)
        assert threading.active_count() == before

    def test_caller_exception_waits_for_the_worker(self):
        finished = []

        def task(part):
            if part == 0:
                raise ValueError("caller half failed")
            time.sleep(0.05)
            finished.append(part)

        before = threading.active_count()
        with pytest.raises(ValueError, match="caller half failed"):
            run_parts(task, 2)
        assert finished == [1]
        assert threading.active_count() == before


TOP_UNIFORM = float(np.nextafter(1.0, 0.0))  # the largest value rng.random() can return


class TestRotationDraw:
    def test_inclusive_range(self):
        rng = np.random.default_rng(0)
        draws = {draw_rotation_count(u, 8 / 7) for u in rng.random(200)}
        assert draws == {0, 1}

    def test_k_one_always_zero(self):
        rng = np.random.default_rng(0)
        assert {draw_rotation_count(u, 1.0) for u in rng.random(50)} == {0}


class TestUniformDraws:
    def test_largest_uniform_stays_below_every_size(self):
        """int(u * m) for u < 1 reaches m - 1 and never m, for every size a draw scales by."""
        sizes = {m for e in range(27) for m in (2**e - 1, 2**e, 2**e + 1) if m > 0}
        sizes |= {
            m for n in range(2, 8) for m in search_space_sizes(n) if m <= EMULATION_SPACE_CAP
        }
        for m in sorted(sizes):
            assert int(TOP_UNIFORM * m) == m - 1 < m
        for k in (1.0, 8 / 7, 2.5, math.sqrt(2**16)):
            assert draw_rotation_count(TOP_UNIFORM, k) == math.ceil(k - 1)
            assert draw_rotation_count(0.0, k) == 0

    def test_extreme_uniforms_pick_the_ends_of_each_class(self):
        space = SearchSpace(encode(random_instance(3, seed=6), "hubo-hw"))
        values = space.sorted_values
        # Thresholds out of order, so the cached count must follow each change;
        # the last two mark nothing and everything.
        for y in (float(values[40]), float(values[3]), float(values[40]), values[0], values[-1] + 1):
            t = space.count_below(y)
            for rotations in (0, 2):
                marked_top = space.draw(y, rotations, 0.0, TOP_UNIFORM)
                unmarked_first = space.draw(y, rotations, TOP_UNIFORM, 0.0)
                unmarked_top = space.draw(y, rotations, TOP_UNIFORM, TOP_UNIFORM)
                if 0 < t < space.size:
                    assert marked_top[1] == values[t - 1] < y
                    assert unmarked_first[1] == values[t] >= y
                assert unmarked_top[1] == values[-1]
                assert space.draw(y, rotations, 0.0, 0.0)[1] == values[0]

    def test_exact_draws_land_on_the_support(self):
        engine = ExactEngine(encode_qubo_dicke(dyadic_instance(3, seed=23)), scale=4.0)
        y = float(np.median(engine.values[engine.support]))
        for u_branch in (0.0, 0.5, TOP_UNIFORM):
            for u_rank in (0.0, 0.5, TOP_UNIFORM):
                x, value = engine.draw(y, 1, u_branch, u_rank)
                assert engine.support[x]
                assert value == engine.values[x]

    def test_exact_draws_on_a_rank_grid_follow_the_distribution(self):
        """With fractional register offsets, evenly spaced rank uniforms in each branch,
        mixed by the marked mass, hit every state within 1/shots of its L = 0 probability."""
        form = encode(random_instance(3, seed=208), "hubo-hw")
        engine = ExactEngine(form, scale=0.37)
        y = float(engine.sorted_values[engine.size // 2])
        marked_mass = engine._split(y)[0]
        shots = 20_000
        mix = np.zeros(1 << form.num_vars)
        for u_branch, share in ((0.0, marked_mass), (TOP_UNIFORM, 1.0 - marked_mass)):
            for u_rank in (np.arange(shots) + 0.5) / shots:
                mix[engine.draw(y, 0, u_branch, u_rank)[0]] += share / shots
        np.testing.assert_allclose(mix, engine.variable_distribution(y, 0), rtol=0, atol=1.5 / shots)


def fraction_form():
    """A qubo-h formulation on two rows of three variables with denominator 21, not a power of two."""
    poly = MultilinearPolynomial(
        6,
        {
            (): Fraction(2, 7),
            (0,): Fraction(1, 3),
            (1, 4): Fraction(-5, 7),
            (2,): Fraction(4, 3),
            (3, 5): Fraction(-1, 21),
            (0, 1): Fraction(10, 3),
        },
    )
    inst = QapInstance(2, np.zeros((2, 2)), np.zeros((2, 2)))
    return Formulation(FormulationKind.QUBO_HADAMARD, poly, 6, 2, (1.0, 1.0), inst)


def assert_draws_read_the_arrays(space, ranks, arrays=None):
    """minimum, uniform_sample and draw return (int(order[r]), float(sorted_values[r]))
    at every rank r they pick, as a Python int and float; `arrays` replaces the
    space's own (order, sorted_values)."""
    order, values = arrays if arrays is not None else (space.order, space.sorted_values)

    def assert_entry(entry, rank):
        assert type(entry[0]) is int and type(entry[1]) is float
        assert entry == (int(order[rank]), float(values[rank]))

    assert_entry(space.minimum(), 0)
    for seed in range(20):
        rank = int(np.random.default_rng(seed).integers(space.size))
        assert_entry(space.uniform_sample(np.random.default_rng(seed)), rank)
    # At the minimum nothing is marked, so the rank uniform alone picks the rank.
    for rank in ranks:
        assert_entry(space.draw(values[0], 1, 0.5, (rank + 0.5) / space.size), rank)
    # With no Grover step the marked probability is t / size, in (0, 1) here.
    y = float(values[space.size // 2])
    t = int(np.searchsorted(values, y, side="left"))
    assert 0 < t < space.size
    for u in (0.0, 0.25, 0.5, TOP_UNIFORM):
        assert_entry(space.draw(y, 0, 0.0, u), int(u * t))
        assert_entry(space.draw(y, 0, TOP_UNIFORM, u), t + int(u * (space.size - t)))


def assert_counts_are_searchsorted(space):
    """count_below is searchsorted(sorted_values, x, "left") at every level value, both
    float neighbours of it, +-inf and NaN (which numpy sorts last)."""
    values = space.sorted_values
    levels = values[space.levels.starts]
    xs = np.concatenate(
        [
            levels,
            np.nextafter(levels, -np.inf),
            np.nextafter(levels, np.inf),
            [-np.inf, np.inf, np.nan, -1e300, 1e300],
        ]
    )
    for x in xs.tolist():
        assert space.count_below(x) == int(np.searchsorted(values, x, side="left")), x


class TestKeyDecode:
    """Draws and counts decoded from the sorted keys equal reads of the unpacked arrays."""

    @pytest.mark.parametrize("kind", ["qubo-h", "qubo-d", "hubo-hw"])
    def test_n3_draws_and_counts(self, kind):
        space = SearchSpace(encode(random_instance(3, seed=31), kind))
        assert_draws_read_the_arrays(space, range(space.size))
        assert_counts_are_searchsorted(space)

    def test_qubo_d_n6_draws_and_counts(self):
        """36 variables: uint64 masks."""
        space = SearchSpace(encode_qubo_dicke(random_instance(6, seed=32)))
        ranks = np.random.default_rng(0).integers(space.size, size=300).tolist()
        assert_draws_read_the_arrays(space, [0, *ranks, space.size - 1])
        assert_counts_are_searchsorted(space)

    def test_non_dyadic_denominator_counts(self):
        space = SearchSpace(fraction_form())
        assert objective_denominator(space.form) == 21
        assert_draws_read_the_arrays(space, range(space.size))
        assert_counts_are_searchsorted(space)

    def test_qubo_d_n8_draws_masks_with_bit_63(self):
        space = SearchSpace(encode_qubo_dicke(sample_instance(8)))
        top = np.flatnonzero(space.order >= np.uint64(1 << 63))
        rng = np.random.default_rng(1)
        ranks = [0, *rng.choice(top, size=100).tolist(), *rng.integers(space.size, size=100).tolist()]
        assert_draws_read_the_arrays(space, ranks)

    def test_holds_only_the_key_buffer(self):
        space = SearchSpace(encode(random_instance(4, seed=33), "hubo-hw"))
        arrays = [v for v in vars(space).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0].dtype == np.int64 and arrays[0].size == space.size
        assert space.order is not space.order  # built on each access, not kept

    @pytest.mark.parametrize("sampler", [SearchSpace, ExactEngine])
    def test_freed_by_reference_counting(self, sampler):
        """Dropping the last reference frees the key buffer at once (TestPieceIndex
        checks the same of a piece index's state array)."""
        gc.disable()
        try:
            space = sampler(encode(random_instance(6, seed=2), "hubo-hw"))
            space.draw(float(space.minimum()[1]) + 1.0, 1, 0.5, 0.5)
            space.levels
            space_ref, keys_ref = weakref.ref(space), weakref.ref(space._keys)
            del space
            assert space_ref() is None
            assert keys_ref() is None
        finally:
            gc.enable()


def mixed_sign_form():
    """A qubo-h formulation of three rows of six variables (2^18 states, more than
    one build block) whose values are negative, zero and positive."""
    terms = {
        (): -7, (0,): -5, (1, 4): 3, (2, 7): -11, (8,): 13, (9, 15): -2,
        (12,): Fraction(9, 2), (16, 17): -9, (5, 13): 6, (3, 10, 11): -1,
    }
    inst = QapInstance(3, np.zeros((3, 3)), np.zeros((3, 3)))
    return Formulation(
        FormulationKind.QUBO_HADAMARD, MultilinearPolynomial(18, terms), 18, 3, (1.0, 1.0), inst
    )


def key_width_form(coefficient, term):
    """12 variables in two rows of six (12 state bits), valued coefficient * the
    product of `term`'s variables: the keys reach coefficient * 2^12 plus the
    largest state index."""
    poly = MultilinearPolynomial(12, {term: coefficient})
    inst = QapInstance(2, np.zeros((2, 2)), np.zeros((2, 2)))
    return Formulation(FormulationKind.QUBO_HADAMARD, poly, 12, 2, (1.0, 1.0), inst)


# A term within row 0, and one across rows 0 and 1, read from a row-pair table.
KEY_WIDTH_TERMS = [(0,), (0, 6)]


def four_level_form():
    """Values x16 + 2 x17 over 18 variables in three rows of six: four levels of 2^16
    states, each the 16 last-row digit blocks whose digit has bits 4 and 5 equal to the
    level."""
    poly = MultilinearPolynomial(18, {(16,): 1, (17,): 2})
    inst = QapInstance(3, np.zeros((3, 3)), np.zeros((3, 3)))
    return Formulation(FormulationKind.QUBO_HADAMARD, poly, 18, 3, (1.0, 1.0), inst)


def hubo_hw_6():
    return encode(random_instance(6, seed=2), "hubo-hw")


def generic_hubo_hw_6():
    """hubo-hw N=6 on a 0.001 grid: about one distinct value per state."""
    return encode(generic_instance(6, seed=2), "hubo-hw")


# Spaces cut into several pieces, and the piece size that cuts them: one digit block
# per piece on hubo-hw N=6 (8 pieces, on both instances) and on the four-level form
# (64 pieces, whose levels start on piece boundaries), two on qubo-d N=7 (4 pieces,
# the last holding one), and four on the mixed-sign form (16 pieces).
PIECE_SPACES = [
    pytest.param(hubo_hw_6, 1 << 12, id="hubo-hw-6"),
    pytest.param(generic_hubo_hw_6, 1 << 12, id="generic-hubo-hw-6"),
    pytest.param(lambda: encode(random_instance(7, seed=2), "qubo-d"), 1 << 18, id="qubo-d-7"),
    pytest.param(mixed_sign_form, 1 << 14, id="mixed-sign"),
    pytest.param(four_level_form, 1 << 12, id="four-levels"),
]


def piece_space(monkeypatch, cores, make, piece, sampler=SearchSpace, share=1):
    """`sampler` of make() built with `cores` usable cores, cut into pieces of `piece`
    states and held as a piece index (see small_pieces for `share`)."""
    usable_cores(monkeypatch, cores)
    small_pieces(monkeypatch, piece, share)
    space = sampler(make())
    assert len(index_pieces(space.form)) > 1
    assert space._keys is None and space._states is not None
    return space


@pytest.mark.parametrize("cores", [1, 2])
class TestPieceIndex:
    """A space of more than one piece holds an int32 state index, one sorted segment per
    piece, read through its cell table: every array, level, count and draw equals one
    full sort of packed (value, state) keys, at either thread count and however fine
    the values."""

    @pytest.mark.parametrize("make, piece", PIECE_SPACES)
    def test_arrays_and_levels_equal_one_full_sort(self, monkeypatch, cores, make, piece):
        space = piece_space(monkeypatch, cores, make, piece)
        order, values = full_sort_reference(space.form)
        assert space.order.dtype == (np.uint64 if space.form.num_vars > 31 else np.int32)
        assert np.array_equal(space.order, order)
        assert np.array_equal(space.sorted_values, values)
        numerators = np.sort(objective_values(space.form))
        starts = np.r_[0, np.flatnonzero(numerators[1:] != numerators[:-1]) + 1]
        assert space.levels.starts.tolist() == starts.tolist()
        assert space.levels.counts.tolist() == np.diff(starts, append=space.size).tolist()
        assert space.levels.numerators.tolist() == numerators[starts].tolist()

    @pytest.mark.parametrize("make, piece", PIECE_SPACES)
    def test_counts_equal_one_full_sort(self, monkeypatch, cores, make, piece):
        space = piece_space(monkeypatch, cores, make, piece)
        _, values = full_sort_reference(space.form)
        levels = values[space.levels.starts]
        rng = np.random.default_rng(cores)
        xs = [
            *levels, *np.nextafter(levels, -np.inf), *np.nextafter(levels, np.inf),
            *rng.uniform(values[0] - 1, values[-1] + 1, 200), -np.inf, np.inf, np.nan,
        ]
        for x in map(float, xs):
            assert space.count_below(x) == int(np.searchsorted(values, x, side="left")), x

    @pytest.mark.parametrize("make, piece", PIECE_SPACES)
    def test_draws_equal_one_full_sort(self, monkeypatch, cores, make, piece):
        """At every level's first and last rank, on both sides of every piece boundary,
        and at random ranks."""
        space = piece_space(monkeypatch, cores, make, piece)
        starts, counts, _ = space.levels
        boundaries = [p.start for p in index_pieces(space.form)[1:]]
        ranks = np.concatenate(
            [
                starts,
                starts + counts - 1,
                boundaries,
                np.subtract(boundaries, 1),
                np.random.default_rng(cores).integers(space.size, size=300),
            ]
        )
        assert_draws_read_the_arrays(space, ranks.tolist(), full_sort_reference(space.form))

    @pytest.mark.parametrize("make, piece", [p for p in PIECE_SPACES if p.id != "qubo-d-7"])
    def test_exact_engine_draws_equal_search_space_draws(self, monkeypatch, cores, make, piece):
        space = piece_space(monkeypatch, cores, make, piece)
        engine = piece_space(monkeypatch, cores, make, piece, ExactEngine)
        values = space.sorted_values
        uniforms = (0.0, 0.3, 0.7, TOP_UNIFORM)
        for y in (values[0], values[space.size // 2], values[-1], values[-1] + 1.0):
            for rotations in (0, 1, 3):
                for u_branch in uniforms:
                    for u_rank in uniforms:
                        draw = (float(y), rotations, u_branch, u_rank)
                        assert engine.draw(*draw) == space.draw(*draw)

    def test_levels_start_on_piece_boundaries(self, monkeypatch, cores):
        space = piece_space(monkeypatch, cores, four_level_form, 1 << 12)
        starts, counts, numerators = space.levels
        assert starts.tolist() == [0, 1 << 16, 2 << 16, 3 << 16]
        assert counts.tolist() == [1 << 16] * 4
        assert numerators.tolist() == [0, 1, 2, 3]
        assert set(starts.tolist()) <= {p.start for p in index_pieces(space.form)}
        assert_draws_read_the_arrays(space, [0, *(starts - 1)[1:], *starts, space.size - 1])

    def test_holds_a_four_byte_state_index_and_few_cells(self, monkeypatch, cores):
        """The state array and three int32 entries per cell, at most size //
        PIECE_LEVEL_SHARE cells: under 4.75 bytes per state."""
        share = gas_module.PIECE_LEVEL_SHARE
        space = piece_space(monkeypatch, cores, mixed_sign_form, 1 << 14, share=share)
        arrays = [v for v in vars(space).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is space._states
        assert space._states.dtype == np.int32 and space._states.size == space.size
        assert all(table.dtype == np.int32 and table.size <= space.size // share for table in space._cells)
        assert space._states.nbytes + sum(table.nbytes for table in space._cells) < 4.75 * space.size

    def test_build_peak_with_one_value_per_state(self, monkeypatch, cores):
        """Every cell admitted (share 1) on a space of about one value per state: the
        build stays within piece_build_bound, a fixed cost per cell."""
        usable_cores(monkeypatch, cores)
        small_pieces(monkeypatch, 1 << 17)
        form = encode(generic_instance(7, seed=2), "qubo-d")
        tracemalloc.start()
        try:
            space = SearchSpace(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space._cells[0].size > 0.99 * space.size
        assert peak <= piece_build_bound(space)

    def test_cells_past_the_budget_hold_sorted_keys(self, monkeypatch, cores):
        """A space is held as pieces while its cells fit in size // PIECE_LEVEL_SHARE,
        and as its sorted keys from one cell more: both hold the same index."""
        space = piece_space(monkeypatch, cores, hubo_hw_6, 1 << 12)
        cells = space._cells[0].size
        share = space.size // cells  # the budget is at least the cells, and one share more is below
        assert space.size // (share + 1) < cells <= space.size // share
        order, values = full_sort_reference(space.form)
        for held_as_pieces, layout_share in ((True, share), (False, share + 1)):
            small_pieces(monkeypatch, 1 << 12, layout_share)
            layout = SearchSpace(space.form)
            assert (layout._states is not None) == held_as_pieces
            assert (layout._keys is not None) == (not held_as_pieces)
            assert np.array_equal(layout.order, order)
            assert np.array_equal(layout.sorted_values, values)
            assert all(np.array_equal(a, b) for a, b in zip(layout.levels, space.levels))
            ranks = np.random.default_rng(cores).integers(space.size, size=200).tolist()
            assert_draws_read_the_arrays(layout, ranks, (order, values))

    @pytest.mark.parametrize("sampler", [SearchSpace, ExactEngine])
    def test_freed_by_reference_counting(self, monkeypatch, cores, sampler):
        """Dropping the last reference frees the index at once: no reference cycle
        waits for the cycle collector while the next space is built."""
        gc.disable()
        try:
            space = piece_space(monkeypatch, cores, hubo_hw_6, 1 << 12, sampler)
            space.draw(float(space.minimum()[1]) + 1.0, 1, 0.5, 0.5)
            space.levels  # kept on the instance once built
            space_ref, states_ref = weakref.ref(space), weakref.ref(space._states)
            del space
            assert space_ref() is None
            assert states_ref() is None
        finally:
            gc.enable()


class TestFusedKeys:
    """The keys the value tables write directly, sorted, equal one full sort of
    packed (value, state) keys, signs, both part counts and both index layouts included."""

    @pytest.mark.parametrize("split", [False, True], ids=["one-piece", "pieces"])
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize(
        "make, piece",
        [
            pytest.param(lambda: encode(random_instance(6, seed=4), "hubo-hw"), 1 << 15, id="hubo-hw-6"),
            pytest.param(lambda: encode(random_instance(7, seed=4), "qubo-d"), 1 << 17, id="qubo-d-7"),
            pytest.param(lambda: encode(random_instance(4, seed=4), "qubo-h"), 1 << 14, id="qubo-h-4"),
            pytest.param(mixed_sign_form, 1 << 13, id="mixed-sign"),
        ],
    )
    def test_levels_and_counts_equal_one_full_sort(self, monkeypatch, cores, make, piece, split):
        usable_cores(monkeypatch, cores)
        if split:
            small_pieces(monkeypatch, piece)
        form = make()
        assert (len(index_pieces(form)) > 1) == split
        space = SearchSpace(form)
        assert (space._keys is None) == split
        order, values = full_sort_reference(form)
        numerators = np.sort(objective_values(form))
        starts = np.r_[0, np.flatnonzero(numerators[1:] != numerators[:-1]) + 1]
        assert space.levels.starts.tolist() == starts.tolist()
        assert space.levels.counts.tolist() == np.diff(starts, append=space.size).tolist()
        assert space.levels.numerators.tolist() == numerators[starts].tolist()
        rng = np.random.default_rng(cores)
        thresholds = [*rng.uniform(values[0] - 1, values[-1] + 1, 200), *rng.choice(values, 50)]
        for y in thresholds:
            assert space.count_below(float(y)) == int(np.searchsorted(values, y, side="left"))
        ranks = [*rng.integers(space.size, size=200).tolist(), space.size // 2 - 1, space.size // 2]
        assert_draws_read_the_arrays(space, ranks, (order, values))

    @pytest.mark.parametrize("split", [False, True], ids=["one-piece", "pieces"])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_mixed_signs_run_as_parts(self, monkeypatch, cores, split):
        usable_cores(monkeypatch, cores)
        if split:
            small_pieces(monkeypatch, 1 << 14)
        form = mixed_sign_form()
        assert index_parts(form.space_size) == cores
        assert (len(index_pieces(form)) > 1) == split
        space = SearchSpace(form)
        assert objective_denominator(form) == 2
        assert space.minimum()[1] < 0 < space.sorted_values[-1]
        assert space.count_below(0.0) == int((objective_values(form) < 0).sum())
        assert_counts_are_searchsorted(space)

    @pytest.mark.parametrize("term", KEY_WIDTH_TERMS)
    @pytest.mark.parametrize("extreme", [2**51 - 1, -(2**51)])
    def test_extreme_keys_inside_the_width_are_admitted(self, extreme, term):
        """At 12 state bits the keys hold values in [-2^51, 2^51): the last key is
        2^63 - 1, or the first is -2^63."""
        space = SearchSpace(key_width_form(extreme, term))
        # The extreme index among the states that set every variable of the term.
        state = 4095 if extreme > 0 else sum(1 << v for v in term)
        rank = space.size - 1 if extreme > 0 else 0
        assert space.order[rank] == state and space.sorted_values[rank] == extreme
        below = space.size - (space.size >> len(term)) if extreme > 0 else 0
        assert space.count_below(float(extreme)) == below

    @pytest.mark.parametrize("term", KEY_WIDTH_TERMS)
    @pytest.mark.parametrize("extreme", [2**51, -(2**51) - 1])
    def test_keys_just_outside_the_width_are_refused(self, extreme, term):
        form = key_width_form(extreme, term)
        with pytest.raises(SpaceScaleError, match="64-bit key"):
            SearchSpace(form)
        with pytest.raises(SpaceScaleError, match="64-bit key"):
            objective_values(form, shift=12)
        mask = sum(1 << v for v in term)
        assert objective_values(form).tolist() == [extreme * (s & mask == mask) for s in range(4096)]


class TestRunGas:
    def test_thresholds_never_increase(self):
        inst = random_instance(3, seed=10)
        form = encode(inst, "hubo-hw")
        trace = run_gas(form, GasConfig(max_iterations=300, seed=1))
        ys = [trace.initial_value] + trace.thresholds
        assert all(b <= a for a, b in zip(ys, ys[1:]))

    def test_k_capped_by_sqrt_space(self):
        inst = random_instance(3, seed=10)
        form = encode(inst, "hubo-hw")
        trace = run_gas(form, GasConfig(max_iterations=500, seed=2))
        cap = math.sqrt(form.space_size)
        assert all(it.k_after <= cap + 1e-9 for it in trace.iterations)

    def test_stalls_at_optimum_and_grows_k(self):
        inst = random_instance(3, seed=11)
        form = encode(inst, "hubo-hw")
        space = SearchSpace(form)
        _, best = space.minimum()
        config = GasConfig(termination=ThresholdStall(25), seed=3, max_iterations=1000)
        trace = run_gas(form, config, space=space)
        if trace.best_value == pytest.approx(best):
            ks = [it.k_after for it in trace.iterations[-25:]]
            assert ks[-1] == pytest.approx(math.sqrt(form.space_size))
        assert trace.stop_reason in ("stall", "cap")

    def test_known_optimum_terminates_and_decodes(self):
        inst = random_instance(3, seed=12)
        perm_opt, value_opt = brute_force_optimum(inst)
        for kind in FormulationKind:
            form = encode(inst, kind)
            config = GasConfig(termination=KnownOptimum(value_opt), seed=4)
            trace = run_gas(form, config)
            assert trace.found_optimum is True
            perm = form.decode(trace.best_bits)
            assert perm is not None
            assert objective(inst, perm) == pytest.approx(value_opt, abs=1e-9)

    def test_replay_is_deterministic(self):
        inst = random_instance(3, seed=13)
        form = encode(inst, "qubo-d")
        config = GasConfig(max_iterations=100, seed=99)
        a = run_gas(form, config)
        b = run_gas(form, config)
        assert [it.value for it in a.iterations] == [it.value for it in b.iterations]
        assert a.queries == b.queries

    def test_query_count_convention(self):
        inst = random_instance(3, seed=14)
        form = encode(inst, "hubo-hw")
        trace = run_gas(form, GasConfig(max_iterations=50, seed=5))
        assert trace.queries == sum(it.rotations + 1 for it in trace.iterations)
        assert trace.queries_with_init == trace.queries + 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GasConfig(lambda_growth=1.0)
        with pytest.raises(ValueError):
            GasConfig(backend="quantum")

    def test_sampler_the_backend_does_not_select_raises(self):
        """A prebuilt sampler is never silently replaced by a fresh one of the other backend."""
        form = encode(random_instance(3, seed=14), "hubo-hw")
        with pytest.raises(ValueError, match="engine= needs backend='exact'"):
            run_gas(form, GasConfig(seed=5), engine=ExactEngine(form))
        with pytest.raises(ValueError, match="space= needs backend='emulated'"):
            run_gas(form, GasConfig(backend="exact", seed=5), space=SearchSpace(form))


    # SHA-256 of repr((initial_bits, initial_value, iterations)) of 400-iteration runs on
    # random_instance(4, 1) at seeds 0..4, recorded when the index still kept its unpacked
    # arrays.  The exact engine at its default scale draws what the emulated one draws,
    # so its hubo-hw runs have the same digests.
    TRAJECTORY_DIGESTS = {
        "qubo-d": [
            "317b27e69648cf182688c5b0be5243d7a48182cc29d3c51ddb584e2cc73a59cb",
            "5bdf90e0bc4f59c84929f2c237b49bbde59f1f0803ea51032c0bfc3947a5a3b2",
            "47838de69140c630c64d8bc212aca7b28eaff84b8f6306a515060baa9dc733a9",
            "36c41b28c8d54632d9baa4fec5d94be5cb3120565e5149757e9c0d117011b304",
            "b31e7d526087eefae62a30662a96d1bee93d10d4d854ae457f8b00583025fabc",
        ],
        "qubo-h": [
            "6f2dddfeb47b4fb7ddea3ac1efc036ac83338dae05e58c81beb176c6168a2186",
            "118931e8d8b7610169682bd2d5d7510673be7e7a0de24fd554b015d67ae89a3d",
            "d13451e457c107e9c05f50450ba0a763b53ea34c34ad976a839949da93e73e02",
            "76631528aebbeb2890a8591c8c2406bfbe27b8170013688a370a53efa29a88e1",
            "11c95f837597d60343b8197fcbaeb449402366f8562986c7a7626a3692a371da",
        ],
        "hubo-hw": [
            "0f6e0f60d9752acbb72900dc55498fa4c935877f54ea4552617144c75c0f7ec5",
            "8095500ce9ec13aec9a4dd8dfb7ed15c4c1a99a1f6eab4c60d6f84c5065d15e2",
            "601c311278a43620b733d15327a033f60713fc85e6728ea92e521d36d5054c77",
            "351d25913e13dab358ac50937d739de56d78392e3fb96bc13a9165de1045dfb7",
            "bc8e2036ee3e098111c98e8da57b6b30078d266bed545e7cc39f9e866bc9d9ee",
        ],
    }

    @staticmethod
    def trajectory_digest(trace):
        record = (trace.initial_bits, trace.initial_value, trace.iterations)
        return hashlib.sha256(repr(record).encode()).hexdigest()

    @pytest.mark.parametrize("kind", ["qubo-d", "qubo-h", "hubo-hw"])
    def test_seeded_trajectories_are_pinned(self, kind):
        form = encode(random_instance(4, 1), kind)
        space = SearchSpace(form)
        digests = [
            self.trajectory_digest(run_gas(form, GasConfig(seed=seed, max_iterations=400), space=space))
            for seed in range(5)
        ]
        assert digests == self.TRAJECTORY_DIGESTS[kind]

    def test_seeded_exact_trajectories_are_pinned(self):
        form = encode(random_instance(4, 1), "hubo-hw")
        engine = ExactEngine(form)
        digests = [
            self.trajectory_digest(
                run_gas(form, GasConfig(backend="exact", seed=seed, max_iterations=400), engine=engine)
            )
            for seed in range(5)
        ]
        assert digests == self.TRAJECTORY_DIGESTS["hubo-hw"]

    # SHA-256 digests recorded while run_gas still re-derived its draw range from a float k
    # on every iteration and built one GasIteration per iteration.
    def test_cdf_query_arrays_are_pinned(self):
        inst = random_instance(4, 1)
        _, best = brute_force_optimum(inst)
        forms = {k.value: encode(inst, k) for k in FormulationKind}
        res = cdf_experiment(forms, best, runs=40, seed=11)
        arrays = {kind: counts.tolist() for kind, counts in sorted(res.queries.items())}
        digest = hashlib.sha256(repr(arrays).encode()).hexdigest()
        assert digest == "69e285bb54f35c3344d192a1192083526b1ca1321ca18f26f2c8056df02551f6"

    def test_stall_trajectory_is_pinned(self):
        form = encode(random_instance(4, 1), "hubo-hw")
        config = GasConfig(termination=ThresholdStall(25), seed=3, max_iterations=1000)
        trace = run_gas(form, config)
        assert trace.stop_reason == "stall"
        digest = self.trajectory_digest(trace)
        assert digest == "43fcbf18d340ca5a2995fc8bd70ac6c4e4de53fb2b987f36a687cf362480dfb6"

    def test_leaky_exact_trajectory_is_pinned(self):
        """At scale 4 the register of dyadic_instance(3, 21) reads levels with weights
        strictly between 0 and 1."""
        form = encode_hubo_hw(dyadic_instance(3, seed=21))
        engine = ExactEngine(form, scale=4.0)
        trace = run_gas(form, GasConfig(backend="exact", seed=6, max_iterations=200), engine=engine)
        digest = self.trajectory_digest(trace)
        assert digest == "6bd4b362a12cbf96a82ae7238db92360dd4b8d2caf2643b4f58b24c30fd3a7fa"



def reference_uniform_triples(rng):
    """The (rotation, branch, rank) uniforms of successive iterations, read in blocks."""
    while True:
        block = iter(rng.random(3 * UNIFORM_BLOCK).tolist())
        yield from zip(block, block, block)


def reference_run_gas(form, config, sampler):
    """run_gas as one plain loop: the draw range re-derived from a float k on every
    iteration by draw_rotation_count, and one GasIteration per iteration."""
    rng = np.random.default_rng(config.seed)
    sqrt_cap = math.sqrt(sampler.size)
    term = config.termination
    target = term.value + OPTIMUM_TOL if isinstance(term, KnownOptimum) else -math.inf
    limit = term.limit if isinstance(term, ThresholdStall) else math.inf

    bits0, value0 = sampler.uniform_sample(rng)
    iterations = []
    best_bits, threshold = bits0, value0
    k = 1.0
    stall = 0
    uniforms = zip(range(config.max_iterations), reference_uniform_triples(rng))
    for _, (u_rotation, u_branch, u_rank) in uniforms:
        if threshold <= target or stall >= limit:
            break
        rotations = draw_rotation_count(u_rotation, k)
        bits, value = sampler.draw(threshold, rotations, u_branch, u_rank)
        accepted = value < threshold
        if accepted:
            best_bits, threshold = bits, value
            k = 1.0
            stall = 0
        else:
            k *= config.lambda_growth
            if k > sqrt_cap:
                k = sqrt_cap
            stall += 1
        iterations.append(GasIteration(rotations, bits, value, accepted, threshold, k))

    stop_reason = "optimum" if threshold <= target else "stall" if stall >= limit else "cap"
    return GasTrace(
        initial_bits=bits0,
        initial_value=value0,
        records=iterations,
        queries=sum(it.rotations + 1 for it in iterations),
        best_bits=best_bits,
        best_value=threshold,
        found_optimum=threshold <= target if isinstance(term, KnownOptimum) else None,
        stop_reason=stop_reason,
    )


@pytest.fixture(scope="module")
def reference_samplers():
    """(formulation, sampler, optimum) per backend and kind: random_instance(4, 1) on the
    emulated and the default-scale exact backend, and a leaky scale-4 exact engine."""
    inst = random_instance(4, 1)
    _, best = brute_force_optimum(inst)
    samplers = {}
    for kind in ("qubo-d", "qubo-h", "hubo-hw"):
        form = encode(inst, kind)
        samplers["emulated", kind] = (form, SearchSpace(form), best)
        samplers["exact", kind] = (form, ExactEngine(form), best)
    leaky = dyadic_instance(3, seed=21)
    form = encode_hubo_hw(leaky)
    samplers["leaky", "hubo-hw"] = (form, ExactEngine(form, scale=4.0), brute_force_optimum(leaky)[1])
    return samplers


REFERENCE_SAMPLERS = [
    *((backend, kind) for backend in ("emulated", "exact") for kind in ("qubo-d", "qubo-h", "hubo-hw")),
    ("leaky", "hubo-hw"),
]


def longest_failure_streak(trace):
    longest = streak = 0
    for record in trace.records:
        streak = 0 if record[3] else streak + 1
        longest = max(longest, streak)
    return longest


class TestDriverLoop:
    @pytest.mark.parametrize("growth", [8 / 7, 1.5, 2.0])
    @pytest.mark.parametrize("backend,kind", REFERENCE_SAMPLERS)
    def test_runs_equal_the_reference_loop(self, reference_samplers, backend, kind, growth):
        form, sampler, best = reference_samplers[backend, kind]
        config_backend = "emulated" if backend == "emulated" else "exact"
        shared = {"space" if backend == "emulated" else "engine": sampler}
        for termination in (IterationCap(), ThresholdStall(25), KnownOptimum(best)):
            for cap in (1, 63, 64, 65, 200):
                for seed in range(2):
                    config = GasConfig(
                        lambda_growth=growth, max_iterations=cap, termination=termination,
                        backend=config_backend, seed=seed,
                    )
                    trace = run_gas(form, config, **shared)
                    assert trace == reference_run_gas(form, config, sampler)

    def test_ladder_near_growth_one_grows_only_with_the_streak(self):
        """At lambda = 1 + 1e-12, k takes ~10^12 failures to reach its cap; the stage lists
        grow only as far as the longest failure streak, within a wall budget."""
        form = encode(random_instance(4, 1), "qubo-h")
        space = SearchSpace(form)
        config = GasConfig(lambda_growth=1 + 1e-12, max_iterations=3000, seed=7)
        gas_module._stage_ladder.cache_clear()
        start = time.perf_counter()
        trace = run_gas(form, config, space=space)
        assert time.perf_counter() - start < 5.0
        reference = reference_run_gas(form, config, space)
        assert [it.k_after for it in trace.iterations] == [it.k_after for it in reference.iterations]
        ladder = gas_module._stage_ladder(space.size, config.lambda_growth)
        longest = longest_failure_streak(trace)
        assert longest > 1000
        assert len(ladder.ks) == len(ladder.spans) == longest + 1 <= config.max_iterations + 1

    def test_threads_share_one_ladder(self):
        """Runs on several threads extend one fresh ladder at once: every trace still
        equals the reference loop's, and the ladder grows only with the longest streak."""
        form = encode(random_instance(4, 1), "hubo-hw")
        runs, growth = 8, 1.01
        spaces = [SearchSpace(form) for _ in range(runs)]
        configs = [GasConfig(lambda_growth=growth, max_iterations=1000, seed=seed) for seed in range(runs)]
        traces = [None] * runs
        start = threading.Barrier(runs)

        def work(run):
            start.wait(timeout=60)
            traces[run] = run_gas(form, configs[run], space=spaces[run])

        gas_module._stage_ladder.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(run,)) for run in range(runs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for trace, config, space in zip(traces, configs, spaces):
            assert trace == reference_run_gas(form, config, space)
        ladder = gas_module._stage_ladder(form.space_size, growth)
        longest = max(longest_failure_streak(trace) for trace in traces)
        assert len(ladder.ks) == len(ladder.spans) <= longest + 1
        assert ladder.ks[-1] == math.sqrt(form.space_size)

    def test_ladder_cache_is_bounded(self):
        form = encode(random_instance(3, seed=14), "hubo-hw")
        space = SearchSpace(form)
        for step in range(40):
            run_gas(form, GasConfig(lambda_growth=1.01 + step / 100, max_iterations=5, seed=1), space=space)
        assert gas_module._stage_ladder.cache_info().currsize <= 16

    def test_trace_surface(self):
        form = encode(random_instance(3, seed=14), "hubo-hw")
        space = SearchSpace(form)
        config = GasConfig(max_iterations=80, seed=5)
        trace = run_gas(form, config, space=space)
        iterations = trace.iterations
        assert isinstance(iterations, list) and len(iterations) == 80
        assert all(type(it) is GasIteration for it in iterations)
        assert trace.iterations is iterations
        assert trace.queries == sum(it.rotations + 1 for it in iterations)
        assert trace.queries_with_init == trace.queries + 1
        assert trace.thresholds == [it.threshold_after for it in iterations]
        twin = run_gas(form, config, space=space)
        assert twin == trace
        *same, last = twin.records
        changed = dataclasses.replace(twin, records=[*same, (*last[:-1], last[-1] + 1.0)])
        assert changed != trace


class TestExactEngine:
    def test_matches_gate_level_preparation(self):
        inst = dyadic_instance(3, seed=21)
        form = encode_hubo_hw(inst)
        engine = ExactEngine(form, scale=4.0)
        from qapgas.circuits import build_state_prep
        from qapgas.sim import StateVector

        prep = build_state_prep(form, engine.width, threshold=1.5, scale=4.0)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        gate_grid = sv.amplitudes.reshape(1 << engine.width, 1 << form.num_vars)
        np.testing.assert_allclose(gate_grid, engine.prepared_state(1.5), atol=1e-12)

    def test_exact_run_finds_optimum(self):
        inst = dyadic_instance(3, seed=22)
        form = encode_hubo_hw(inst)
        _, best = brute_force_optimum(inst)
        engine = ExactEngine(form, scale=4.0)
        config = GasConfig(termination=KnownOptimum(best), backend="exact", seed=6)
        trace = run_gas(form, config, engine=engine)
        assert trace.found_optimum is True
        assert trace.best_value == pytest.approx(best, abs=1e-9)

    def test_dicke_support_masks_infeasible(self):
        inst = dyadic_instance(3, seed=23)
        form = encode_qubo_dicke(inst)
        engine = ExactEngine(form, scale=4.0)
        y = float(np.median(engine.values[engine.support]))
        probs = engine.variable_distribution(y, 0)
        assert probs[engine.support].sum() == pytest.approx(1.0)
        assert int(engine.support.sum()) == 27

    def test_threshold_outside_register_raises(self):
        """scale*(E - y) must fit the register; a wrapped readout would mark wrongly."""
        form = encode_qubo_dicke(dyadic_instance(3, seed=23))
        engine = ExactEngine(form, scale=4.0)
        for y in (100.0, engine.lo - 1e6):
            with pytest.raises(ValueError):
                engine.variable_distribution(y, 0)
            with pytest.raises(ValueError):
                engine.sample(y, 1, np.random.default_rng(0))
        # Thresholds at both ends of the support fit: nothing, or all but the top, is marked.
        probs = engine.variable_distribution(engine.lo, 0)
        assert probs[engine.support].sum() == pytest.approx(1.0)
        assert engine._split(engine.lo)[0] == pytest.approx(0.0, abs=1e-12)
        top = engine.values[engine.support] >= engine.hi
        assert engine._split(engine.hi)[0] == pytest.approx(1.0 - top.sum() / 27, abs=1e-12)

    @pytest.mark.parametrize(
        "make_form, scale",
        [
            (lambda: encode_hubo_hw(dyadic_instance(3, seed=26)), 4.0),
            (lambda: encode_hubo_hw(random_instance(3, seed=26)), 1.0),
            (lambda: encode_qubo_dicke(dyadic_instance(3, seed=26)), 4.0),
            (lambda: encode(random_instance(3, seed=208), "qubo-h"), 1.0),
            # Integer offsets, which the grid's phases carry with float dust.
            (lambda: encode(random_instance(3, seed=208), "qubo-d"), 100.0),
            (lambda: encode(random_instance(3, seed=208), "hubo-hw"), 0.37),
        ],
        ids=[
            "hubo-hw-exact-register", "hubo-hw-leaky-oracle", "qubo-d",
            "qubo-h-scale-1", "qubo-d-scale-100", "hubo-hw-non-dyadic-scale",
        ],
    )
    def test_closed_form_matches_iterated_grover_steps(self, make_form, scale):
        engine = ExactEngine(make_form(), scale=scale)
        values = np.sort(engine.values[engine.support])
        for q in (0.1, 0.5, 0.9):
            y = float(values[int(q * (values.size - 1))])
            prepared = engine.prepared_state(y)
            state = prepared
            for rotations in range(13):
                probs = np.sum(np.abs(state) ** 2, axis=0)
                np.testing.assert_allclose(
                    engine.variable_distribution(y, rotations), probs / probs.sum(),
                    rtol=0, atol=1e-12,
                )
                state = engine.grover_step(state, prepared)

    @pytest.mark.parametrize("kind", ["qubo-h", "qubo-d", "hubo-hw"])
    def test_values_equal_search_space_values(self, kind):
        form = encode(random_instance(3, seed=5), kind)
        space = SearchSpace(form)
        engine = ExactEngine(form)
        assert engine.values[space.order].tolist() == space.sorted_values.tolist()

    @pytest.mark.parametrize(
        "kind, n", [("qubo-h", 3), ("qubo-d", 3), ("hubo-hw", 3), ("hubo-hw", 4)]
    )
    def test_integer_register_marks_exactly_the_states_below(self, kind, n):
        """At a scale that makes every value an integer, each weight is 0 or 1: the marked
        mass is count_below / size exactly, and the two parts are the two value classes."""
        form = encode(random_instance(n, seed=208), kind)
        engine = ExactEngine(form, scale=100.0)
        space = SearchSpace(form)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            y = float(space.sorted_values[int(q * (space.size - 1))])
            assert_marks_exactly_the_levels_below(engine, y, space.count_below(y))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["qubo-h", "qubo-d", "hubo-hw"])
    def test_default_scale_runs_equal_emulated_runs(self, kind, n):
        """At the default scale every weight is 0 or 1, so the exact backend draws exactly
        what the emulated one draws: the same initial state and the same iterations."""
        inst = random_instance(n, seed=208)
        form = encode(inst, kind)
        _, best = brute_force_optimum(inst)
        engine, space = ExactEngine(form), SearchSpace(form)
        for child in np.random.SeedSequence(n).spawn(200):
            exact = GasConfig(termination=KnownOptimum(best), backend="exact", seed=child)
            emulated = GasConfig(termination=KnownOptimum(best), seed=child)
            assert run_gas(form, exact, engine=engine) == run_gas(form, emulated, space=space)

    @pytest.mark.slow
    def test_default_scale_is_exact_at_n8(self):
        """hubo-hw at N=8 (2^24 states): the median threshold marks exactly the levels
        below it, and a seeded exact run reaches the optimum."""
        form = encode(sample_instance(8), "hubo-hw")
        engine = ExactEngine(form)
        y = float(engine.sorted_values[engine.size // 2])
        assert_marks_exactly_the_levels_below(engine, y, engine.count_below(y))
        _, best = sample_optimum(8)
        config = GasConfig(termination=KnownOptimum(best), backend="exact", seed=8)
        assert run_gas(form, config, engine=engine).found_optimum is True

    def test_non_finite_bounds_and_bad_scales_raise(self):
        """Each statement once hung or marked the wrong states; run in a child interpreter
        with a timeout, a hang fails the test instead of hanging it."""
        statements = (
            "width_for_range(-math.inf, 0.0)",
            "width_for_range(math.nan, 0.0)",
            "width_for_range(0.0, math.nan)",
            "ExactEngine(form, scale=100.0).variable_distribution(math.inf, 0)",
            "ExactEngine(form, scale=math.nan)",
            "ExactEngine(form, scale=math.inf)",
            "ExactEngine(form, scale=-1.0)",
            "ExactEngine(form, scale=0.0)",
        )
        assert exceptions_raised(*statements) == ["ValueError"] * len(statements)

    def test_variable_cap(self):
        inst = random_instance(6, seed=0)
        with pytest.raises(SpaceScaleError):
            ExactEngine(encode(inst, "qubo-d"))  # 36 variables

    def test_register_too_wide_for_the_weight_table(self):
        """A kernel row of 2^37 points is refused before anything of that size is allocated."""
        form = encode(random_instance(3, seed=5), "hubo-hw")
        engine = ExactEngine(form, scale=1e9)
        assert engine.width > 32
        y = float(np.median(engine.values))
        with pytest.raises(SpaceScaleError):
            engine.variable_distribution(y, 1)
        with pytest.raises(SpaceScaleError):
            engine.prepared_state(y)

    @pytest.mark.slow
    def test_backend_sampling_distributions_agree(self):
        """Chi-square agreement of marked frequencies per (threshold, L) pair."""
        from scipy.stats import chi2_contingency

        inst = dyadic_instance(3, seed=24)
        form = encode_hubo_hw(inst)
        engine = ExactEngine(form, scale=4.0)
        space = SearchSpace(form)
        rng = np.random.default_rng(7)
        shots = 4000
        quantiles = (0.15, 0.5, 0.9)
        for q in quantiles:
            y = float(np.quantile(space.sorted_values, q))
            for rotations in (0, 1, 2):
                exact_hits = sum(engine.sample(y, rotations, rng)[1] < y for _ in range(shots))
                emul_hits = sum(space.sample(y, rotations, rng)[1] < y for _ in range(shots))
                if exact_hits in (0, shots) and emul_hits in (0, shots):
                    assert exact_hits == emul_hits
                    continue
                table = [
                    [exact_hits, shots - exact_hits],
                    [emul_hits, shots - emul_hits],
                ]
                _, p, _, _ = chi2_contingency(table)
                assert p > 0.01, f"backends disagree at y={y} L={rotations}"

    @pytest.mark.slow
    def test_full_runs_accept_at_matching_rates(self):
        """Acceptance-event statistics agree between backends within 3 sigma."""
        inst = dyadic_instance(3, seed=25)
        form = encode_hubo_hw(inst)
        _, best = brute_force_optimum(inst)
        engine = ExactEngine(form, scale=4.0)
        space = SearchSpace(form)
        runs = 60
        stats = {}
        for backend in ("exact", "emulated"):
            root = np.random.SeedSequence(2024)
            queries, accepts = [], []
            for r, child in enumerate(root.spawn(runs)):
                config = GasConfig(
                    termination=KnownOptimum(best), backend=backend, seed=child,
                    max_iterations=3000,
                )
                kwargs = {"engine": engine} if backend == "exact" else {"space": space}
                trace = run_gas(form, config, **kwargs)
                assert trace.found_optimum is True
                queries.append(trace.queries)
                accepts.append(sum(it.accepted for it in trace.iterations))
            stats[backend] = (np.mean(queries), np.std(queries, ddof=1) / math.sqrt(runs),
                              np.mean(accepts))
        mean_gap = abs(stats["exact"][0] - stats["emulated"][0])
        pooled = math.hypot(stats["exact"][1], stats["emulated"][1])
        assert mean_gap < 3 * pooled


class TestCdfExperiment:
    @pytest.mark.slow
    def test_medians_order_with_search_space_sizes(self):
        """Across seeded instances and sizes, median queries follow the
        search-space chain: dicke <= hubo (~equal at powers of two) < conventional."""
        runs = 300
        for n in (3, 4, 5):
            for seed in (1, 2, 3):
                inst = random_instance(n, seed=seed)
                _, best = brute_force_optimum(inst)
                forms = {k.value: encode(inst, k) for k in FormulationKind}
                res = cdf_experiment(forms, best, runs=runs, seed=n * 10 + seed)
                assert res.median("qubo-d") <= 1.25 * res.median("hubo-hw")
                assert res.median("hubo-hw") < res.median("qubo-h")
                assert res.median("qubo-d") < res.median("qubo-h")

    def test_counts_equal_per_child_runs(self):
        """cdf_experiment's counts are those of run_gas on each child seed, for every kind."""
        inst = random_instance(4, seed=1)
        _, best = brute_force_optimum(inst)
        forms = {k.value: encode(inst, k) for k in FormulationKind}
        runs, seed = 20, 5
        res = cdf_experiment(forms, best, runs=runs, seed=seed)
        root = np.random.SeedSequence(seed)
        longest = 0
        for kind, form in sorted(forms.items()):
            space = SearchSpace(form)
            traces = [
                run_gas(form, GasConfig(termination=KnownOptimum(best), seed=child), space=space)
                for child in root.spawn(runs)
            ]
            np.testing.assert_array_equal(res.queries[kind], [tr.queries for tr in traces])
            longest = max(longest, *(len(tr.iterations) for tr in traces))
        assert longest > UNIFORM_BLOCK  # some run refilled its block of uniforms

    def test_deterministic_and_sorted(self):
        inst = sample_instance(3)
        _, best = brute_force_optimum(inst)
        forms = {k.value: encode(inst, k) for k in FormulationKind}
        a = cdf_experiment(forms, best, runs=40, seed=9)
        b = cdf_experiment(forms, best, runs=40, seed=9)
        for kind in forms:
            np.testing.assert_array_equal(a.queries[kind], b.queries[kind])
        rows = a.cdf_rows("qubo-d")
        assert rows[-1][1] == pytest.approx(1.0)
        assert all(r1[0] <= r2[0] for r1, r2 in zip(rows, rows[1:]))

    def test_median_ratio_orders_by_space_size(self):
        inst = sample_instance(3)
        _, best = brute_force_optimum(inst)
        forms = {k.value: encode(inst, k) for k in FormulationKind}
        res = cdf_experiment(forms, best, runs=150, seed=10)
        assert res.median_ratio("qubo-h", "qubo-d") > 1.0

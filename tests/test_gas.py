import math

import numpy as np
import pytest

from qapgas.circuits import dicke_rank_to_bits, objective_denominator, objective_values
from qapgas.encodings import (
    Formulation,
    FormulationKind,
    encode,
    encode_hubo_hw,
    encode_qubo_dicke,
    search_space_sizes,
)
from qapgas.gas import (
    EMULATION_SPACE_CAP,
    UNIFORM_BLOCK,
    ExactEngine,
    GasConfig,
    KnownOptimum,
    SearchSpace,
    SpaceScaleError,
    ThresholdStall,
    cdf_experiment,
    draw_rotation_count,
    marked_probability,
    run_gas,
)
from qapgas.polynomials import MultilinearPolynomial
from qapgas.qap import QapInstance, brute_force_optimum, objective, random_instance
from qapgas.samples import sample_instance


def dyadic_instance(n, seed):
    """Entries on the 0.5 grid: objectives are exact multiples of 0.25."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        mat = rng.integers(0, 3, size=(n, n)) / 2.0
        mat = np.triu(mat, 1)
        mats.append(mat + mat.T)
    return QapInstance(n, mats[0], mats[1], name=f"dyadic-{n}-{seed}")


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
        assert space.order.dtype == np.int64  # 49 variables
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
            marked_mass, (unmarked, marked), _ = engine._split(y)
            assert marked_mass == space.count_below(y) / space.size
            assert not marked[engine.values >= y].any()
            assert not unmarked[engine.values < y].any()

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

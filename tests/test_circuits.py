import math

import numpy as np
import pytest

from qapgas.analysis import (
    cnot_total,
    controlled_rotation_count,
    qubo_rotation_histogram,
    register_widths,
)
from qapgas.circuits import (
    Circuit,
    Gate,
    build_dicke,
    build_grover_operator,
    build_state_prep,
    circuit_from_text,
    circuit_to_text,
    count_gates,
    dicke_gates,
    dicke_rank_to_bits,
    invert_gates,
    iqft_gates,
    objective_denominator,
    objective_values,
    qft_gates,
    reduce_angle,
    substitute_rz,
    value_bounds,
    value_register_width,
)
from qapgas.encodings import (
    Formulation,
    FormulationKind,
    encode,
    encode_hubo_hw,
    encode_qubo,
    encode_qubo_dicke,
)
from qapgas.gas import ExactEngine, SearchSpace
from qapgas.polynomials import MultilinearPolynomial
from qapgas.qap import QapInstance, dense_instance, generic_instance, random_instance
from qapgas.samples import sample_instance
from qapgas.sim import StateVector, readout_value, readout_vars


def toy_formulation(poly: MultilinearPolynomial) -> Formulation:
    """Wrap a bare polynomial for circuit tests in one row block (instance fields unused)."""
    inst = QapInstance(2, np.zeros((2, 2)), np.zeros((2, 2)))
    return Formulation(
        FormulationKind.QUBO_HADAMARD, poly, poly.num_vars, 1, (1.0, 1.0), inst
    )


FIG_POLY = MultilinearPolynomial(3, {(): 1, (0,): 2, (0, 1, 2): -3})


class TestGateRecords:
    def test_angle_required_for_parametric(self):
        with pytest.raises(ValueError):
            Gate("phase", (0,))
        with pytest.raises(ValueError):
            Gate("h", (0,), 1.0)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("cnot", (1, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("toffoli", (0, 1, 2))

    def test_circuit_bounds_checked(self):
        with pytest.raises(ValueError):
            Circuit(1, 0, [Gate("h", (3,))])

    def test_reduce_angle_window(self):
        assert reduce_angle(math.pi) == pytest.approx(-math.pi)
        assert reduce_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)
        assert reduce_angle(math.pi / 4) == pytest.approx(math.pi / 4)
        assert reduce_angle(2 * math.pi) == pytest.approx(0.0)


class TestValueRegisterWidth:
    def test_small_range(self):
        # values in [0, 3]: need -4 <= 0 and 3 < 4 -> m = 3
        form = toy_formulation(MultilinearPolynomial(2, {(0,): 1, (1,): 2}))
        assert value_register_width(form) == 3

    def test_fig_configuration(self):
        assert value_register_width(toy_formulation(FIG_POLY)) == 3

    def test_threshold_shift_widens(self):
        form = toy_formulation(MultilinearPolynomial(2, {(0,): 1, (1,): 2}))
        assert value_register_width(form, y_max_shift=3.0) == 4

    def test_coefficient_bound_dominates_exhaustive(self):
        form = encode_qubo(random_instance(3, seed=9))
        exhaustive = value_register_width(form)
        coeff_bound = value_register_width(form, y_max_shift=0.0)
        # same call path here; compare against the pure coefficient bound
        from qapgas.circuits import value_bounds, width_for_range

        lo, hi = value_bounds(form, exhaustive_limit=0)  # force coefficient bound
        assert width_for_range(lo, hi) >= exhaustive
        assert coeff_bound == exhaustive


class TestStatePrep:
    def test_fig_structure(self):
        prep = build_state_prep(toy_formulation(FIG_POLY), width=3)
        counts = count_gates(prep)
        # one constant ladder (uncontrolled), one 1-controlled, one 3-controlled
        assert counts.term_rank_histogram == {1: 3, 3: 3}
        uncontrolled = [
            g for g in prep.gates if g.kind == "phase" and g.qubits[0] >= prep.num_vars
        ]
        assert len(uncontrolled) == 3
        # theta = 2*pi*a/2^m: a=1 -> pi/4 on the weight-1 value qubit
        assert uncontrolled[0].angle == pytest.approx(math.pi / 4)
        one_controlled = [g for g in prep.gates if g.kind == "cphase" and len(g.qubits) == 2
                          and g.qubits[0] < prep.num_vars]
        assert one_controlled[0].angle == pytest.approx(math.pi / 2)
        assert one_controlled[0].qubits[0] == 0  # controlled on x1

    def test_readout_all_inputs(self):
        prep = build_state_prep(toy_formulation(FIG_POLY), width=3)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        probs = sv.probabilities().reshape(8, 8)
        for x in range(8):
            expected = int(FIG_POLY.evaluate(x)) % 8
            column = probs[:, x]
            assert column[expected] == pytest.approx(1 / 8, abs=1e-10)
            assert column.sum() == pytest.approx(1 / 8, abs=1e-10)

    def test_threshold_shifts_readout(self):
        prep = build_state_prep(toy_formulation(FIG_POLY), width=3, threshold=2.0)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        probs = sv.probabilities().reshape(8, 8)
        for x in range(8):
            expected = (int(FIG_POLY.evaluate(x)) - 2) % 8
            assert probs[expected, x] == pytest.approx(1 / 8, abs=1e-10)

    def test_real_coefficients_peak_at_nearest_integer(self):
        poly = MultilinearPolynomial(2, {(): 0.3, (0,): 1.4, (1,): -2.2})
        prep = build_state_prep(toy_formulation(poly), width=4)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        probs = sv.probabilities().reshape(16, 4)
        for x in range(4):
            expected = round(float(poly.evaluate(x))) % 16
            assert int(np.argmax(probs[:, x])) == expected

    def test_scale_makes_decimal_values_exact(self):
        poly = MultilinearPolynomial(2, {(0,): 0.25, (1,): 0.5})
        form = toy_formulation(poly)
        prep = build_state_prep(form, width=4, scale=4.0)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        probs = sv.probabilities().reshape(16, 4)
        for x in range(4):
            expected = int(4 * float(poly.evaluate(x))) % 16
            assert probs[expected, x] == pytest.approx(1 / 4, abs=1e-10)

    def test_hubo_readout_matches_table(self):
        form = encode_hubo_hw(random_instance(2, seed=3))
        width = value_register_width(form)
        prep = build_state_prep(form, width, scale=1.0)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        probs = sv.probabilities().reshape(1 << width, 1 << form.num_vars)
        table = form.poly.evaluate_table()
        for x in range(1 << form.num_vars):
            peak = int(np.argmax(probs[:, x]))
            value = peak - (1 << width) if peak >= 1 << (width - 1) else peak
            assert value == round(table[x])

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            build_state_prep(toy_formulation(FIG_POLY), width=0)


class TestIqft:
    def test_single_qubit_is_hadamard(self):
        gates = iqft_gates([0])
        assert [g.kind for g in gates] == ["h"]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_inverse_of_qft(self, m):
        rng = np.random.default_rng(m)
        amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        amps /= np.linalg.norm(amps)
        sv = StateVector(m, amps)
        sv.apply_all(qft_gates(range(m)))
        sv.apply_all(iqft_gates(range(m)))
        np.testing.assert_allclose(sv.amplitudes, amps, atol=1e-10)

    def test_qft_of_basis_state(self):
        m = 3
        for v in range(8):
            amps = np.zeros(8, dtype=complex)
            amps[v] = 1.0
            sv = StateVector(m, amps)
            sv.apply_all(qft_gates(range(m)))
            expected = np.exp(2j * math.pi * v * np.arange(8) / 8) / math.sqrt(8)
            np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-10)

    def test_integer_polynomial_pipeline_exact(self):
        rng = np.random.default_rng(7)
        for n, m in [(2, 4), (3, 5), (4, 5)]:
            terms = {}
            for _ in range(5):
                size = int(rng.integers(0, n + 1))
                key = tuple(sorted(rng.choice(n, size=size, replace=False)))
                terms[key] = terms.get(key, 0) + int(rng.integers(-3, 4))
            poly = MultilinearPolynomial(n, terms)
            span = float(sum(abs(c) for c in poly.terms.values()))
            if span >= 2 ** (m - 1):
                continue
            prep = build_state_prep(toy_formulation(poly), width=m)
            sv = StateVector(prep.num_qubits).apply_all(prep.gates)
            probs = sv.probabilities().reshape(1 << m, 1 << n)
            for x in range(1 << n):
                expected = int(poly.evaluate(x)) % (1 << m)
                assert probs[expected, x] == pytest.approx(1 / (1 << n), abs=1e-9)


class TestDicke:
    @staticmethod
    def assert_uniform_weight_state(n, k):
        circuit = build_dicke(n, k)
        sv = StateVector(n).apply_all(circuit.gates, validate=True)
        target = 1.0 / math.sqrt(math.comb(n, k))
        for i in range(1 << n):
            expected = target if bin(i).count("1") == k else 0.0
            assert abs(sv.amplitudes[i] - expected) < 1e-10

    def test_four_choose_two(self):
        self.assert_uniform_weight_state(4, 2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_weight_one_is_w_state(self, n):
        self.assert_uniform_weight_state(n, 1)

    def test_nine_choose_four(self):
        self.assert_uniform_weight_state(9, 4)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_uniformity_all_weights(self, n):
        for k in range(1, n + 1):
            self.assert_uniform_weight_state(n, k)

    def test_row_blocks_span_assignment_space(self):
        n = 3
        gates = []
        for row in range(n):
            gates.extend(dicke_gates(range(row * n, (row + 1) * n), 1))
        sv = StateVector(n * n).apply_all(gates)
        expected = 1.0 / math.sqrt(n**n)
        support = 0
        for i in range(1 << (n * n)):
            amp = sv.amplitudes[i]
            rows_ok = all(
                bin((i >> (r * n)) & ((1 << n) - 1)).count("1") == 1 for r in range(n)
            )
            if rows_ok:
                support += 1
                assert abs(amp - expected) < 1e-10
            else:
                assert abs(amp) < 1e-12
        assert support == n**n

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            build_dicke(4, 0)
        with pytest.raises(ValueError):
            build_dicke(4, 5)


class TestGroverOperator:
    def build(self, poly, width):
        prep = build_state_prep(toy_formulation(poly), width=width)
        return prep, build_grover_operator(prep)

    def test_no_marked_states_is_stationary(self):
        poly = MultilinearPolynomial(3, {(): 1})  # E = 1 everywhere, nothing below 0
        prep, grover = self.build(poly, 3)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        before = sv.marginal(range(3))
        sv.apply_all(grover.gates)
        np.testing.assert_allclose(sv.marginal(range(3)), before, atol=1e-10)

    def test_single_marked_rotation_sequence(self):
        poly = MultilinearPolynomial(3, {(): 1, (0, 1, 2): -2})  # only 111 negative
        prep, grover = self.build(poly, 3)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        theta = math.asin(math.sqrt(1 / 8))
        for rotations in range(4):
            marked = sv.marginal(range(3))[7]
            assert marked == pytest.approx(math.sin((2 * rotations + 1) * theta) ** 2, abs=1e-10)
            sv.apply_all(grover.gates)

    def test_l1_probability_value(self):
        assert math.sin(3 * math.asin(math.sqrt(1 / 8))) ** 2 == pytest.approx(25 / 32)

    def test_prep_unitarity(self):
        prep, _ = self.build(FIG_POLY, 3)
        rng = np.random.default_rng(0)
        amps = rng.normal(size=1 << prep.num_qubits) + 1j * rng.normal(size=1 << prep.num_qubits)
        amps /= np.linalg.norm(amps)
        sv = StateVector(prep.num_qubits, amps)
        sv.apply_all(prep.gates)
        sv.apply_all(invert_gates(prep.gates))
        np.testing.assert_allclose(sv.amplitudes, amps, atol=1e-10)

    def test_oracle_marks_exactly_negative_values(self):
        prep = build_state_prep(toy_formulation(FIG_POLY), width=3, threshold=2.0)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        reference = sv.amplitudes.copy()
        sv.apply(Gate("z", (prep.sign_qubit,)))
        flipped = sv.amplitudes / np.where(np.abs(reference) > 1e-12, reference, 1.0)
        grid = flipped.reshape(8, 8)
        for x in range(8):
            value = int(FIG_POLY.evaluate(x)) - 2
            row = value % 8
            expected = -1.0 if value < 0 else 1.0
            assert grid[row, x].real == pytest.approx(expected, abs=1e-9)


class TestCountCrossChecks:
    @pytest.mark.parametrize("n", [2, 3])
    def test_qubo_histogram_matches_formulas(self, n):
        form = encode_qubo(dense_instance(n, seed=0))
        m = register_widths(n, "qubo-h")[1]
        prep = build_state_prep(form, m)
        counts = count_gates(prep)
        expected = qubo_rotation_histogram(n)
        assert counts.term_rank_histogram == {k: v * m for k, v in expected.items()}
        assert counts.cnot_rz_model == cnot_total(n, "qubo-h", "rz", m).total
        assert counts.cnot_rz_model == (m + 1) * n**4 + (m - 1) * n**2
        assert counts.cnot_r_model == cnot_total(n, "qubo-h", "r", m).total

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hubo_histogram_matches_formulas(self, n):
        form = encode_hubo_hw(dense_instance(n, seed=0))
        m = register_widths(n, "hubo-hw")[1]
        prep = build_state_prep(form, m)
        counts = count_gates(prep)
        for k, gates in counts.term_rank_histogram.items():
            assert gates == controlled_rotation_count(n, k, m)
        assert counts.cnot_rz_model == cnot_total(n, "hubo-hw", "rz", m).total
        assert counts.cnot_r_model == cnot_total(n, "hubo-hw", "r", m).total

    def test_hadamard_count_by_initialization(self):
        n = 3
        qubo = encode(dense_instance(n, seed=0), "qubo-h")
        dicke = encode(dense_instance(n, seed=0), "qubo-d")
        m = register_widths(n, "qubo-h")[1]
        h_conventional = count_gates(build_state_prep(qubo, m)).initial_hadamard_count
        h_dicke = count_gates(build_state_prep(dicke, m)).initial_hadamard_count
        assert h_conventional == n * n + m
        assert h_dicke == m

    def test_iqft_gates_not_counted_as_terms(self):
        prep = build_state_prep(toy_formulation(FIG_POLY), width=4)
        counts = count_gates(prep)
        assert counts.iqft_cphase_count == 6  # C(4,2) controlled phases in the IQFT

    def test_whole_ladders_enforced(self):
        gates = [Gate("cphase", (0, 2), 0.5)]
        broken = Circuit(2, 2, gates)
        with pytest.raises(ValueError, match="ladder"):
            count_gates(broken)


class TestRzSubstitution:
    def test_probabilities_preserved_through_full_pipeline(self):
        form = encode_hubo_hw(random_instance(2, seed=1))
        prep = build_state_prep(form, width=6)
        grover = build_grover_operator(prep)
        twin_prep = substitute_rz(prep)
        twin_grover = substitute_rz(grover)
        a = StateVector(prep.num_qubits).apply_all(prep.gates).apply_all(grover.gates)
        b = (
            StateVector(prep.num_qubits)
            .apply_all(twin_prep.gates)
            .apply_all(twin_grover.gates)
        )
        np.testing.assert_allclose(a.probabilities(), b.probabilities(), atol=1e-10)

    def test_substitution_swaps_term_gates_only(self):
        prep = build_state_prep(toy_formulation(FIG_POLY), width=3)
        twin = substitute_rz(prep)
        n = prep.num_vars
        for gate in twin.gates:
            if gate.kind in ("phase", "cphase") and gate.qubits[-1] >= n:
                # surviving phases belong to the inverse Fourier transform
                assert all(q >= n for q in gate.qubits)
        assert any(g.kind == "crz" for g in twin.gates)
        assert any(g.kind == "rz" for g in twin.gates)
        assert count_gates(twin).term_rank_histogram == count_gates(prep).term_rank_histogram


class TestSerialization:
    def test_roundtrip(self):
        prep = build_state_prep(toy_formulation(FIG_POLY), width=3)
        again = circuit_from_text(circuit_to_text(prep))
        assert again == prep

    def test_dicke_roundtrip(self):
        circuit = build_dicke(5, 2)
        again = circuit_from_text(circuit_to_text(circuit))
        assert again == circuit

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            circuit_from_text("h 0\n")


class TestReadoutHelpers:
    def test_twos_complement_split(self):
        circuit = Circuit(2, 3)
        bits = 0b101_10  # vars = 10, value register raw = 101 -> -3
        assert readout_vars(bits, circuit) == 0b10
        assert readout_value(bits, circuit) == -3
        bits = 0b011_01
        assert readout_value(bits, circuit) == 3


class TestObjectiveValues:
    @pytest.mark.parametrize(
        "kind, n",
        [("qubo-h", 2), ("qubo-h", 3)]
        + [("qubo-d", n) for n in (2, 3, 4, 5)]
        + [("hubo-hw", n) for n in (2, 3, 4)],
    )
    @pytest.mark.parametrize("make", [random_instance, generic_instance, dense_instance])
    def test_numerators_equal_exact_evaluation(self, make, kind, n):
        form = encode(make(n, seed=40 + n), kind)
        den = objective_denominator(form)
        values = objective_values(form)
        assert values.dtype == np.int64
        states = np.arange(form.space_size)
        if kind == "qubo-d":
            states = dicke_rank_to_bits(form, states)
        assert values.tolist() == [form.poly.evaluate(int(s)) * den for s in states]

    @pytest.mark.parametrize("kind", list(FormulationKind))
    def test_term_over_three_row_blocks_rejected(self, kind):
        """Row tables hold terms of at most two rows; a wider term raises, never mis-evaluates."""
        width = 2 if kind is FormulationKind.HUBO_HW else 3
        poly = MultilinearPolynomial(3 * width, {(): 1, (0,): 2, (0, width, 2 * width): -3})
        inst = QapInstance(3, np.zeros((3, 3)), np.zeros((3, 3)))
        form = Formulation(kind, poly, 3 * width, 3, (1.0, 1.0), inst)
        for compute in (objective_values, value_bounds, SearchSpace):
            with pytest.raises(ValueError, match="spans 3 row blocks"):
                compute(form)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("make", [random_instance, generic_instance, dense_instance])
    def test_power_of_two_hubo_space_relabels_dicke_space(self, make, n):
        """At N = 2^k every hubo-hw code is a location, so the row penalty vanishes and
        the hubo-hw space holds exactly the qubo-d values.  Their query laws are then
        identical: criterion 8's N=4 median ratio of 1 is a theorem, not a statistic."""
        for seed in range(5):
            inst = make(n, seed=seed)
            assert_same_values(encode_qubo_dicke(inst), encode_hubo_hw(inst))

    def test_power_of_two_hubo_space_relabels_dicke_space_at_n8(self):
        inst = sample_instance(8)
        assert_same_values(encode_qubo_dicke(inst), encode_hubo_hw(inst))


class TestDickeEnumeration:
    def test_rank_to_bits_is_mixed_radix(self):
        n = 4
        form = encode_qubo_dicke(random_instance(n, seed=1))

        def reference(rank):
            return sum(1 << (i * n + (rank // n**i) % n) for i in range(n))

        ranks = np.arange(n**n)
        masks = dicke_rank_to_bits(form, ranks)
        assert masks.dtype == np.uint64
        assert masks.tolist() == [reference(int(r)) for r in ranks]
        assert len(set(masks.tolist())) == n**n
        for rank in (0, 1, n, n**n - 1):
            assert int(dicke_rank_to_bits(form, rank)) == reference(rank)

    def test_off_grid_coefficients_raise(self):
        form = encode_qubo_dicke(off_grid_instance())
        with pytest.raises(ValueError, match="common denominator"):
            objective_values(form)

    @pytest.mark.parametrize("kind", ["qubo-h", "hubo-hw"])
    def test_off_grid_hypercube_coefficients_raise(self, kind):
        form = encode(off_grid_instance(), kind)
        for compute in (objective_values, value_bounds, SearchSpace, ExactEngine):
            with pytest.raises(ValueError, match="common denominator"):
                compute(form)


def assert_same_values(form: Formulation, other: Formulation) -> None:
    """Same denominator and the same sorted numerators: the two spaces are relabellings."""
    assert objective_denominator(form) == objective_denominator(other)
    values = objective_values(form)
    values.sort()
    other_values = objective_values(other)
    other_values.sort()
    assert np.array_equal(values, other_values)


def off_grid_instance() -> QapInstance:
    """Entries 1/p for six large primes: a common denominator far beyond 2^53."""
    primes = (999_983, 999_979, 999_961, 999_959, 999_953, 999_931)
    flow = np.zeros((3, 3))
    dist = np.zeros((3, 3))
    for (i, j), p, q in zip(((0, 1), (0, 2), (1, 2)), primes[:3], primes[3:]):
        flow[i, j] = flow[j, i] = 1 / p
        dist[i, j] = dist[j, i] = 1 / q
    return QapInstance(3, flow, dist)

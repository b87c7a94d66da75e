import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from qapgas import space as space_module
from qapgas.analysis import (
    ALL_KINDS,
    cnot_total,
    controlled_rotation_count,
    qubo_rotation_histogram,
    register_widths,
)
from qapgas.circuits import (
    TWO_PI,
    Circuit,
    Gate,
    GateCounts,
    build_dicke,
    build_grover_operator,
    build_state_prep,
    circuit_from_text,
    circuit_to_text,
    count_gates,
    dicke_gates,
    invert_gates,
    iqft_gates,
    phase_polynomial_gates,
    qft_gates,
    reduce_angle,
    substitute_rz,
    width_for_range,
)
from qapgas.encodings import (
    Formulation,
    FormulationKind,
    encode,
    encode_hubo_hw,
    encode_qubo,
)
from qapgas.polynomials import MultilinearPolynomial
from qapgas.qap import QapInstance, dense_instance, generic_instance, random_instance
from qapgas.sim import StateVector, readout_value, readout_vars
from qapgas.space import value_bounds


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
        with pytest.raises(ValueError, match="outside"):
            Circuit(3, 0, [Gate("h", (0,)), Gate("cnot", (2, -1)), Gate("x", (1,))])

    def test_circuit_holds_only_gate_records(self):
        with pytest.raises(TypeError, match="Gate records"):
            Circuit(2, 0, [Gate("h", (0,)), ("h", (1,), None)])

    @pytest.mark.parametrize(
        "kind, qubits, angle",
        [
            ("h", (0, 1), None),
            ("h", (), None),
            ("x", (0, 1), None),
            ("z", (0, 1), None),
            ("ry", (0, 1), 0.3),
            ("phase", (0, 1), 0.3),
            ("rz", (), 0.3),
            ("cnot", (0,), None),
            ("cnot", (0, 1, 2), None),
            ("swap", (0, 1, 2), None),
            ("swap", (0,), None),
            ("cry", (0,), 0.3),
            ("cphase", (0,), 0.3),
            ("crz", (1,), 0.3),
        ],
    )
    def test_arity_checked(self, kind, qubits, angle):
        with pytest.raises(ValueError, match="takes"):
            Gate(kind, qubits, angle)

    def test_multi_controlled_kinds_take_any_number_of_controls(self):
        for kind in ("cry", "cphase", "crz"):
            assert Gate(kind, (0, 1), 0.3).controls == (0,)
            assert Gate(kind, (4, 0, 2, 1), 0.3).controls == (4, 0, 2)

    def test_tuple_record(self):
        gate = Gate("cphase", [np.int64(3), 0, 5], 0.25)
        assert gate == ("cphase", (3, 0, 5), 0.25)
        assert isinstance(gate, tuple) and all(type(q) is int for q in gate.qubits)
        assert (gate.kind, gate.qubits, gate.angle) == tuple(gate)
        assert (gate.target, gate.controls) == (5, (3, 0))
        assert Gate("swap", (0, 1)).controls == ()
        assert repr(gate) == "Gate(kind='cphase', qubits=(3, 0, 5), angle=0.25)"
        assert hash(gate) == hash(Gate("cphase", (3, 0, 5), 0.25))
        assert len({gate, Gate("cphase", (3, 0, 5), 0.25), Gate("h", (0,))}) == 2
        assert pickle.loads(pickle.dumps(gate)) == gate
        with pytest.raises(AttributeError):
            gate.angle = 1.0

    def test_reduce_angle_window(self):
        assert reduce_angle(math.pi) == pytest.approx(-math.pi)
        assert reduce_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)
        assert reduce_angle(math.pi / 4) == pytest.approx(math.pi / 4)
        assert reduce_angle(2 * math.pi) == pytest.approx(0.0)


class TestValueRegisterWidth:
    def test_small_range(self):
        # values in [0, 3]: need -4 <= 0 and 3 < 4 -> m = 3
        form = toy_formulation(MultilinearPolynomial(2, {(0,): 1, (1,): 2}))
        assert width_for_range(*value_bounds(form)) == 3

    def test_fig_configuration(self):
        assert width_for_range(*value_bounds(toy_formulation(FIG_POLY))) == 3

    def test_threshold_shift_widens(self):
        form = toy_formulation(MultilinearPolynomial(2, {(0,): 1, (1,): 2}))
        lo, hi = value_bounds(form)
        assert width_for_range(lo - 3.0, hi + 3.0) == 4

    def test_coefficient_bound_dominates_exhaustive(self, monkeypatch):
        form = encode_qubo(random_instance(3, seed=9))
        exhaustive = width_for_range(*value_bounds(form))
        monkeypatch.setattr(space_module, "EXHAUSTIVE_LIMIT", 0)  # force the coefficient bound
        lo, hi = value_bounds(form)
        assert width_for_range(lo, hi) >= exhaustive


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
        width = width_for_range(*value_bounds(form))
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

    @pytest.mark.parametrize(
        "line", ["h", "cphase 0,1 0.5 junk", "h 0 0.5", "phase 0", "cnot 0,1 x", "ry 0,1 0.2"]
    )
    def test_malformed_line_named(self, line):
        with pytest.raises(ValueError, match="line 3"):
            circuit_from_text(f"circuit 2 0\nh 0\n{line}\nx 1\n")


class TestReadoutHelpers:
    def test_twos_complement_split(self):
        circuit = Circuit(2, 3)
        bits = 0b101_10  # vars = 10, value register raw = 101 -> -3
        assert readout_vars(bits, circuit) == 0b10
        assert readout_value(bits, circuit) == -3
        bits = 0b011_01
        assert readout_value(bits, circuit) == 3


# SHA-256 of circuit_to_text for build_state_prep and build_grover_operator on
# generic_instance(n, 100 + n) at the closed-form register width, recorded from
# the per-gate builder that the phase ladder replaced.  A change to any gate,
# qubit order or angle bit shows up here.
GOLDEN_DIGESTS = {
    ("hubo-hw", 2): ("b692702dc5381a24e6412ad78cad7d863e2d85885615be6e779193884696793a", "baa6049b4a7568087beda44648b2f310e26a0b981de88d40746c831078ace784"),
    ("qubo-d", 2): ("1360229f436f299728008bfdf94bbe0cb452cac0fee77df0febfafd6806e9d64", "95f22a648f50f5daecf465007a8f7d432bf83297a1f19b2e9dfd29caf5cd204a"),
    ("qubo-h", 2): ("eeb131208e0971eaf8cd3b37f61d5192b985d8b9cea5fc68d2d942501f9a358d", "9773f9b41039fc4bb0b6f1df28d6d30526c6263f3d63d18233b9e8a3835cee43"),
    ("hubo-hw", 3): ("361e862c2801c378dc251c4464092a3147300e25cf052733063fa5702825b96d", "a9369d599b5143f57293add749c013d1a21f9fbc6e76f36c3552434396c69355"),
    ("qubo-d", 3): ("674c6b5d557533eb679f5203e29a424a6b50a9cb97511848413d65029a4db5f9", "be15c30045764078e263898ab8b489fab13ac846d74589278fd0c24cc0d1f3c7"),
    ("qubo-h", 3): ("6214202cf909844197bcdc91571629fe3926007ebca550e4fe9a67126bcb30e5", "63f288b9081e0c68e14f1d575b0274290de130f2ccc401feed102afe3f1da9a5"),
    ("hubo-hw", 4): ("adc5ff1e730b2a422ed2dd5436e2bea1ebb7f838f7af9190d3c2f705c47ecb71", "3e3250f357ee356e0b7738bb6375b318758efefcfba8138cb9a61939f28c7aec"),
    ("qubo-d", 4): ("bcfeec4bebf48e055235c8ae1294f0dc8f4a7ced44ccb43b9609f392aa5438b5", "93753e13a31d78536b01cb7eeeb289110f8f977a21e7b7bf8e316ffbe1306d09"),
    ("qubo-h", 4): ("5a1625396a4355c7f737aab69daa30674b68f99d38091e29aa46bc8324cb3781", "edac50a00ae23c193ef874dd5e40db28d8f0e40768ca08bffefd642e0b843dbd"),
    ("hubo-hw", 5): ("c1c09cf12b9746d2d6fc036dd868dd87f3fc7c4047c90d22351fdb45b7a4ec29", "31422172cdad6d5945c03c8fed0acfb89c2cbdf102903664b4e71eb1ab3b7c5c"),
    ("qubo-d", 5): ("42c177eae210aa024350b40494d617db5d7109f0c589e1e51846f6354129a9e0", "e7b7b8130d21739866be3a2dd641510749ad1724bc66e81782794825b47acc2f"),
    ("qubo-h", 5): ("9cf9de159698134593ae60bca50cc9c30faacafe51f9f8a162e4d1fafa8b6e4f", "438ca2e4c3cea8f9df9115fa79915fcf2a2185f8fbb8eb073e7c12933e5f374f"),
    ("hubo-hw", 8): ("e489fc9fdac310261f09a9c9438877d123d36771c30274ad122a00f6dbbfa6f2", "02579d238f31dd9a5a71f2d343d81bb7b4c27d9690f1b4946a7981e6a5ecd101"),
}
# hubo-hw on generic_instance(3, 7) at width 9, threshold 1.25 and scale 3.5:
# the preparation, and the Rz substitute of its Grover step.
GOLDEN_SCALED = ("80f43ee6364ed619dc062493005c7c5a850aff9f7c677c98a8ee315ff49d4fdc", "67fc7c1fe2d5fa3e71d8a0105aa98ec5a7566d94b206431097914d08202ba602")


def _digest(circuit: Circuit) -> str:
    return hashlib.sha256(circuit_to_text(circuit).encode()).hexdigest()


class TestGoldenCircuits:
    @pytest.mark.parametrize("kind, n", sorted(GOLDEN_DIGESTS))
    def test_built_circuits_match_digests(self, kind, n):
        form = encode(generic_instance(n, 100 + n), kind)
        prep = build_state_prep(form, register_widths(n, kind)[1])
        grover = build_grover_operator(prep)
        assert (_digest(prep), _digest(grover)) == GOLDEN_DIGESTS[kind, n]

    def test_shifted_scaled_circuit_matches_digest(self):
        form = encode(generic_instance(3, 7), "hubo-hw")
        prep = build_state_prep(form, 9, threshold=1.25, scale=3.5)
        twin = substitute_rz(build_grover_operator(prep))
        assert (_digest(prep), _digest(twin)) == GOLDEN_SCALED

    def test_ladder_angles_are_reduce_angle_bit_for_bit(self):
        rng = np.random.default_rng(13)
        terms = {(): 0.37}
        for _ in range(40):
            key = tuple(sorted(rng.choice(6, size=int(rng.integers(1, 4)), replace=False)))
            terms[key] = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, 7))
        poly = MultilinearPolynomial(6, terms)
        for m in (1, 5, 12, 21):
            gates = phase_polynomial_gates(poly, 6, range(6, 6 + m), shift=-2.5)
            a = [0.37 - 2.5] + [float(poly.terms[k]) for k in sorted(poly.terms, key=lambda k: (len(k), k)) if k]
            expected = [reduce_angle((1 << r) * (TWO_PI * c / (1 << m))) for c in a for r in range(m)]
            assert [g.angle for g in gates] == expected
            assert all(type(g.angle) is float for g in gates)

    def test_ladder_rejects_bad_qubits_and_angles(self):
        poly = MultilinearPolynomial(3, {(0, 1): 1.0})
        with pytest.raises(ValueError, match="overlaps"):
            phase_polynomial_gates(poly, 3, [1, 4])
        with pytest.raises(ValueError, match="duplicate"):
            phase_polynomial_gates(poly, 3, [3, 3])
        with pytest.raises(ValueError, match="not finite"):
            phase_polynomial_gates(poly, 3, [3, 4], shift=math.inf)


def _reference_counts(circuit: Circuit) -> GateCounts:
    """count_gates written gate by gate, with the ladder cost formulas inline."""
    n, m = circuit.num_vars, circuit.num_value
    kinds: dict = {}
    ranks: dict = {}
    cry: dict = {}
    hadamards = iqft = init_cnot = constants = 0
    seen_phase = False
    for gate in circuit.gates:
        kinds[gate.kind] = kinds.get(gate.kind, 0) + 1
        seen_phase |= gate.kind in ("phase", "cphase", "rz", "crz")
        in_value = [q >= n for q in gate.qubits]
        if gate.kind == "h" and not seen_phase:
            hadamards += 1
        elif gate.kind == "cnot" and not any(in_value):
            init_cnot += 1
        elif gate.kind == "cry":
            cry[len(gate.controls)] = cry.get(len(gate.controls), 0) + 1
        elif gate.kind in ("cphase", "crz") and all(in_value):
            iqft += 1
        elif gate.kind in ("cphase", "crz") and in_value[-1] and not any(in_value[:-1]):
            ranks[len(gate.controls)] = ranks.get(len(gate.controls), 0) + 1
        elif gate.kind in ("phase", "rz") and in_value[0]:
            constants += 1
    ladders = {k: g // m for k, g in ranks.items()} if m else {}
    constants //= max(m, 1)
    cnot_r = sum(2**k * m * t for k, t in ladders.items())
    return GateCounts(
        num_qubits=circuit.num_qubits,
        num_value=m,
        kind_totals=kinds,
        term_rank_histogram=ranks,
        initial_hadamard_count=hadamards,
        iqft_cphase_count=iqft,
        init_cnot_count=init_cnot,
        init_controlled_ry=cry,
        cnot_r_model=cnot_r,
        cnot_rz_model=sum((2 * m + 2 * (k - 1)) * t for k, t in ladders.items()),
        rotations_r_model=cnot_r + m * constants,
        rotations_rz_model=m * (sum(ladders.values()) + constants),
    )


def _random_counting_circuit(rng: np.random.Generator, n: int, m: int) -> Circuit:
    """Whole term ladders mixed with every kind, including cphase and crz gates
    whose qubits mix the variable and value registers (neither IQFT nor term gates)."""
    var, val = list(range(n)), list(range(n, n + m))

    def pick(pool, count):
        return [int(q) for q in rng.choice(pool, size=count, replace=False)]

    def angle():
        return float(rng.uniform(-math.pi, math.pi))

    # A leading Hadamard layer of random size: these count as initial Hadamards.
    gates = [Gate("h", (q,)) for q in pick(var + val, int(rng.integers(0, n + m + 1)))]
    for _ in range(int(rng.integers(10, 30))):
        choice = int(rng.integers(9))
        controlled = ("cphase", "crz")[rng.integers(2)]
        if choice == 0:  # a whole term ladder, or a constant ladder
            controls = pick(var, int(rng.integers(0, min(n, 3) + 1)))
            kind = controlled if controls else ("phase", "rz")[rng.integers(2)]
            gates.extend(Gate(kind, (*controls, t), angle()) for t in val)
        elif choice == 1 and m > 1:  # IQFT-like: every qubit in the value register
            gates.append(Gate(controlled, pick(val, int(rng.integers(2, m + 1))), angle()))
        elif choice == 2:  # mixed controls, value target
            gates.append(Gate(controlled, (*pick(var, 1), *pick(val, 1)), angle()))
            if m > 1:
                control, target = pick(val, 2)
                gates.append(Gate(controlled, (control, *pick(var, 1), target), angle()))
        elif choice == 3 and n > 1:  # variable target
            gates.append(Gate(controlled, (*pick(val, 1), *pick(var, 2)), angle()))
            gates.append(Gate(controlled, pick(var, 2), angle()))
        elif choice == 4:
            gates.append(Gate(("phase", "rz")[rng.integers(2)], pick(var + val, 1), angle()))
        elif choice == 5:
            gates.append(Gate(("h", "x", "z")[rng.integers(3)], pick(var + val, 1)))
        elif choice == 6 and n > 1:
            gates.append(Gate("cnot", pick(var, 2)))
            gates.append(Gate(("cnot", "swap")[rng.integers(2)], (*pick(var, 1), *pick(val, 1))))
        elif choice == 7:
            size = int(rng.integers(2, n + m + 1))
            gates.append(Gate("cry", pick(var + val, size), angle()))
        else:
            gates.append(Gate("ry", pick(var + val, 1), angle()))
    return Circuit(n, m, gates)


class TestCountGatesReference:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_built_and_substituted_circuits(self, kind, n):
        form = encode(generic_instance(n, 100 + n), kind)
        prep = build_state_prep(form, register_widths(n, kind)[1])
        grover = build_grover_operator(prep)
        for circuit in (prep, grover, substitute_rz(prep), substitute_rz(grover)):
            assert count_gates(circuit) == _reference_counts(circuit)

    def test_dicke_and_empty_circuits(self):
        hadamards_only = Circuit(2, 1, [Gate("h", (0,)), Gate("x", (1,)), Gate("h", (2,))])
        for circuit in (build_dicke(7, 3), build_dicke(1, 1), Circuit(3, 2), hadamards_only):
            assert count_gates(circuit) == _reference_counts(circuit)

    def test_random_circuits(self):
        rng = np.random.default_rng(99)
        compared = 0
        for trial in range(150):
            circuit = _random_counting_circuit(rng, 1 + trial % 5, 1 + trial % 4)
            expected = _reference_counts(circuit)
            if any(g % circuit.num_value for g in expected.term_rank_histogram.values()):
                with pytest.raises(ValueError, match="ladder"):
                    count_gates(circuit)
                continue
            assert count_gates(circuit) == expected
            assert count_gates(substitute_rz(circuit)) == _reference_counts(substitute_rz(circuit))
            compared += 1
        assert compared >= 50


# Per-gate references: the record-by-record ladder emitter, adjoint and Rz
# substitution that the column store replaced, kept to pin its output.
def _reference_ladder(poly, value_qubits, shift):
    value_qubits = tuple(value_qubits)
    coeffs = dict(poly.float_terms())
    constant = shift + coeffs.pop((), 0.0)
    keys = sorted(coeffs, key=lambda k: (len(k), k))
    values = [coeffs[key] for key in keys]
    if constant != 0.0:
        keys.insert(0, ())
        values.insert(0, constant)
    m = len(value_qubits)
    gates = []
    for controls, a in zip(keys, values):
        kind = "cphase" if controls else "phase"
        for r, target in enumerate(value_qubits):
            angle = reduce_angle((1 << r) * (TWO_PI * a / (1 << m)))
            gates.append(tuple.__new__(Gate, (kind, controls + (target,), angle)))
    return gates


def _reference_invert(gates):
    out = []
    for gate in reversed(gates):
        kind, qubits, angle = gate
        out.append(gate if angle is None else tuple.__new__(Gate, (kind, qubits, -angle)))
    return out


def _reference_substitute(gates, n):
    swapped = []
    for gate in gates:
        kind, qubits, angle = gate
        if kind == "phase":
            gate = tuple.__new__(Gate, ("rz", qubits, angle))
        elif kind == "cphase" and qubits[-1] >= n and max(qubits[:-1]) < n:
            gate = tuple.__new__(Gate, ("crz", qubits, angle))
        swapped.append(gate)
    return swapped


def _reference_prep(form, width):
    n = form.num_vars
    gates = []
    if form.kind is FormulationKind.QUBO_DICKE:
        block = form.row_width
        for i in range(form.size_n):
            gates.extend(dicke_gates(list(range(i * block, (i + 1) * block)), 1))
    else:
        gates.extend(Gate("h", (q,)) for q in range(n))
    value_qubits = list(range(n, n + width))
    gates.extend(Gate("h", (q,)) for q in value_qubits)
    gates.extend(_reference_ladder(form.poly, value_qubits, 0.0))
    gates.extend(_reference_invert(qft_gates(value_qubits)))
    return gates


def _reference_grover(prep_gates, num_qubits):
    everything = tuple(range(num_qubits))
    flips = [Gate("x", (q,)) for q in everything]
    return [Gate("z", (num_qubits - 1,)), *_reference_invert(prep_gates), *flips,
            Gate("cphase", everything, math.pi), *flips, *prep_gates]


def _assert_same_records(gates, reference):
    gates = list(gates)
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python number.
    assert list(map(repr, gates)) == list(map(repr, reference))
    assert all(type(g) is Gate for g in gates)
    assert all(type(q) is int for g in gates for q in g.qubits)
    assert all(type(g.angle) is float for g in gates if g.angle is not None)


class TestColumnStore:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_records_equal_per_gate_reference(self, kind, n):
        form = encode(generic_instance(n, 100 + n), kind)
        width = register_widths(n, kind)[1]
        prep = build_state_prep(form, width)
        grover = build_grover_operator(prep)
        reference = _reference_prep(form, width)
        reference_grover = _reference_grover(reference, prep.num_qubits)
        _assert_same_records(prep.gates, reference)
        _assert_same_records(grover.gates, reference_grover)
        _assert_same_records(
            substitute_rz(grover).gates, _reference_substitute(reference_grover, form.num_vars)
        )

    def test_ladder_and_adjoint_equal_references(self):
        rng = np.random.default_rng(5)
        poly = MultilinearPolynomial(5, {(): 0.5, (1,): -2.25, (0, 3): 7.0, (2, 3, 4): 1e5})
        _assert_same_records(phase_polynomial_gates(poly, 5, [5, 6, 7], shift=-0.75),
                             _reference_ladder(poly, (5, 6, 7), -0.75))
        assert phase_polynomial_gates(MultilinearPolynomial(2), 2, [2, 3]) == []
        for trial in range(20):
            gates = list(_random_counting_circuit(rng, 1 + trial % 5, 1 + trial % 4).gates)
            _assert_same_records(invert_gates(gates), _reference_invert(gates))
        assert invert_gates([]) == []

    def test_view(self):
        gates = [Gate("h", (0,)), Gate("cphase", (2, 0, 1), -0.5), Gate("swap", (1, 2)),
                 Gate("ry", (2,), 0.0), Gate("cry", (0, 1, 2), 1.5)]
        view = Circuit(3, 0, gates).gates
        assert len(view) == 5 and len(Circuit(3, 0).gates) == 0
        assert list(view) == gates and tuple(view) == tuple(gates)
        assert view[1] == gates[1] and view[-1] == gates[-1] and view[-5] == gates[0]
        assert view[1:4] == tuple(gates[1:4]) and view[::-2] == tuple(gates[::-2])
        assert view[4:1] == () and view[-2:] == tuple(gates[-2:])
        assert view[np.int64(2)] == gates[2]
        for index in (5, -6):
            with pytest.raises(IndexError):
                view[index]
        assert type(view[3].angle) is float and view[0].angle is None

    def test_circuit_equality(self):
        gates = [Gate("h", (0,)), Gate("phase", (1,), 0.25), Gate("cnot", (0, 1))]
        circuit = Circuit(1, 1, gates)
        # h and cnot carry NaN in the angle column: equal circuits still compare equal.
        assert circuit == Circuit(1, 1, gates) == circuit_from_text(circuit_to_text(circuit))
        assert circuit != Circuit(2, 0, gates)
        assert circuit != Circuit(1, 1, gates[:2])
        assert circuit != Circuit(1, 1, [gates[0], Gate("phase", (1,), 0.5), gates[2]])
        assert circuit != Circuit(1, 1, [gates[0], Gate("rz", (1,), 0.25), gates[2]])
        assert circuit != Circuit(1, 1, [gates[0], gates[1], Gate("cnot", (1, 0))])
        assert circuit != gates
        assert pickle.loads(pickle.dumps(circuit)) == circuit
        with pytest.raises(AttributeError):
            circuit.num_vars = 2

    def test_tallies_keep_first_appearance_order(self):
        rng = np.random.default_rng(17)
        circuits = [build_dicke(7, 3), build_state_prep(encode(generic_instance(3, 4), "hubo-hw"), 9)]
        circuits += [_random_counting_circuit(rng, 1 + t % 5, 1) for t in range(40)]
        for circuit in circuits:
            counts, expected = count_gates(circuit), _reference_counts(circuit)
            for field in ("kind_totals", "term_rank_histogram", "init_controlled_ry"):
                assert list(getattr(counts, field).items()) == list(getattr(expected, field).items())

    def test_build_and_count_memory_per_gate(self):
        # The tuple-record builder peaked near 252 B per gate here; the columns
        # with their temporaries stay below half of that.
        form = encode(generic_instance(8, 108), "qubo-h")
        width = register_widths(8, "qubo-h")[1]
        tracemalloc.start()
        try:
            prep = build_state_prep(form, width)
            count_gates(prep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * len(prep.gates)


class TestGateInputs:
    @pytest.mark.parametrize("angle", [np.float64(0.1), np.float32(0.1), np.int64(2), 3])
    def test_angle_stored_as_float(self, angle):
        gate = Gate("phase", (0,), angle)
        assert type(gate.angle) is float and gate.angle == float(angle)

    @pytest.mark.parametrize("angle", [np.float64(0.5), np.float32(0.1), np.float64(-1e-300)])
    def test_numpy_angle_roundtrips_through_text(self, angle):
        circuit = Circuit(2, 1, [Gate("h", (0,)), Gate("phase", (2,), angle),
                                 Gate("cphase", (0, 1, 2), angle)])
        text = circuit_to_text(circuit)
        assert "np." not in text
        assert circuit_from_text(text) == circuit

    @pytest.mark.parametrize("qubit", [1.7, 1.0, np.float64(1.0), "1", None])
    def test_non_integer_qubit_rejected(self, qubit):
        with pytest.raises(ValueError, match="not an integer"):
            Gate("cnot", (0, qubit))

    def test_numpy_integer_qubits_accepted(self):
        gate = Gate("cnot", (np.int32(0), np.uint8(1)))
        assert gate.qubits == (0, 1) and all(type(q) is int for q in gate.qubits)

    def test_qubit_beyond_int64_is_outside(self):
        with pytest.raises(ValueError, match="outside"):
            Circuit(1, 0, [Gate("h", (1 << 70,))])


class TestRegisterSizes:
    @pytest.mark.parametrize("num_vars, num_value", [(-1, -3), (-1, 0), (2, -1)])
    def test_negative_registers_rejected(self, num_vars, num_value):
        with pytest.raises(ValueError, match=">= 0"):
            Circuit(num_vars, num_value, [])

    @pytest.mark.parametrize("header", ["circuit 1", "circuit 1 x", "circuit 1 2 3", "circuit 1.5 0"])
    def test_bad_header_names_line_one(self, header):
        with pytest.raises(ValueError, match="line 1"):
            circuit_from_text(f"{header}\nh 0\n")

    def test_negative_header_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            circuit_from_text("circuit -1 0\n")

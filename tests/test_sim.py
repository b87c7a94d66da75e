import math

import numpy as np
import pytest

from qapgas.circuits import Gate, build_dicke, build_state_prep
from qapgas.encodings import encode_hubo_hw
from qapgas.qap import random_instance
from qapgas.sim import MAX_QUBITS, RegisterScaleError, StateVector, run_circuit


class TestSingleGates:
    def test_hadamard_on_zero(self):
        sv = StateVector(1).apply(Gate("h", (0,)))
        np.testing.assert_allclose(sv.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_cnot_flips_conditionally(self):
        sv = StateVector(2)
        sv.apply(Gate("x", (0,)))  # |x0=1, x1=0>
        sv.apply(Gate("cnot", (0, 1)))
        expected = np.zeros(4)
        expected[0b11] = 1.0
        np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-12)

    def test_phase_and_rz_give_same_distribution(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        a = StateVector(3, amps).apply(Gate("phase", (1,), 0.7))
        b = StateVector(3, amps).apply(Gate("rz", (1,), 0.7))
        np.testing.assert_allclose(a.probabilities(), b.probabilities(), atol=1e-12)
        # and they differ exactly by the global half-angle phase
        np.testing.assert_allclose(a.amplitudes * np.exp(-0.35j), b.amplitudes, atol=1e-12)

    def test_swap(self):
        sv = StateVector(2).apply(Gate("x", (0,))).apply(Gate("swap", (0, 1)))
        expected = np.zeros(4)
        expected[0b10] = 1.0
        np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-12)

    def test_z_flips_sign(self):
        sv = StateVector(1).apply(Gate("h", (0,))).apply(Gate("z", (0,)))
        np.testing.assert_allclose(
            sv.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-12
        )

    def test_controlled_phase_masks_all_qubits(self):
        sv = StateVector(3)
        for q in range(3):
            sv.apply(Gate("h", (q,)))
        sv.apply(Gate("cphase", (0, 1, 2), math.pi))
        amps = sv.amplitudes
        assert amps[0b111] == pytest.approx(-amps[0b000])
        for i in range(7):
            assert amps[i] == pytest.approx(amps[0])

    def test_cry_only_acts_under_controls(self):
        sv = StateVector(2).apply(Gate("cry", (0, 1), 1.1))
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-12)

    def test_gate_out_of_range(self):
        with pytest.raises(IndexError):
            StateVector(1).apply(Gate("h", (4,)))


class TestNormAndUnitarity:
    def test_norm_preserved_through_random_circuit(self):
        rng = np.random.default_rng(4)
        sv = StateVector(4)
        kinds = ["h", "x", "z", "ry", "phase", "rz"]
        for _ in range(60):
            kind = kinds[rng.integers(len(kinds))]
            q = int(rng.integers(4))
            angle = float(rng.uniform(-math.pi, math.pi))
            gate = Gate(kind, (q,), angle if kind in ("ry", "phase", "rz") else None)
            sv.apply(gate)
            assert abs(sv.norm() - 1.0) < 1e-9

    def test_validate_flag_checks_every_gate(self):
        circuit = build_dicke(6, 3)
        StateVector(6).apply_all(circuit.gates, validate=True)


class TestMeasurement:
    def test_basis_state_is_certain(self):
        sv = StateVector(3).apply(Gate("x", (1,)))
        rng = np.random.default_rng(0)
        assert all(sv.measure_all(rng) == 0b010 for _ in range(16))

    def test_uniform_two_qubits(self):
        sv = StateVector(2).apply(Gate("h", (0,))).apply(Gate("h", (1,)))
        rng = np.random.default_rng(123)
        counts = np.zeros(4)
        shots = 100_000
        for _ in range(shots):
            counts[sv.measure_all(rng)] += 1
        np.testing.assert_allclose(counts / shots, 0.25, atol=0.01)

    def test_dicke_sampling_frequencies(self):
        circuit = build_dicke(4, 2)
        sv = StateVector(4).apply_all(circuit.gates)
        rng = np.random.default_rng(7)
        counts = {}
        shots = 60_000
        for _ in range(shots):
            outcome = sv.measure_all(rng)
            counts[outcome] = counts.get(outcome, 0) + 1
        weight2 = [i for i in range(16) if bin(i).count("1") == 2]
        assert set(counts) <= set(weight2)
        for state in weight2:
            assert counts[state] / shots == pytest.approx(1 / 6, abs=0.02)

    def test_run_circuit_returns_state(self):
        circuit = build_dicke(3, 1)
        bits, sv = run_circuit(circuit, seed=5)
        assert bin(bits).count("1") == 1
        assert abs(sv.norm() - 1.0) < 1e-12

    def test_measurement_deterministic_under_seed(self):
        circuit = build_dicke(5, 2)
        assert run_circuit(circuit, seed=11)[0] == run_circuit(circuit, seed=11)[0]


class TestScaleCap:
    def test_rejects_oversized_register(self):
        with pytest.raises(RegisterScaleError, match="emulated"):
            StateVector(MAX_QUBITS + 1)

    def test_cap_is_26(self):
        assert MAX_QUBITS == 26


class TestGroverStepDistribution:
    @pytest.mark.slow
    def test_hubo_step_matches_analytic_probabilities(self):
        """Sampling one amplified step reproduces the rotation formula within 3 sigma."""
        inst = random_instance(3, seed=51)
        form = encode_hubo_hw(inst)
        from qapgas.circuits import build_grover_operator
        from qapgas.gas import SearchSpace, marked_probability

        space = SearchSpace(form)
        threshold = float(np.quantile(space.sorted_values, 0.4))
        t = space.count_below(threshold)
        rotations = 1
        scale = 100.0
        from qapgas.circuits import width_for_range

        lo, hi = space.sorted_values[0], space.sorted_values[-1]
        width = width_for_range(scale * (lo - hi), scale * (hi - lo))
        prep = build_state_prep(form, width, threshold=threshold, scale=scale)
        grover = build_grover_operator(prep)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        for _ in range(rotations):
            sv.apply_all(grover.gates)
        table = form.poly.evaluate_table()
        marked_states = np.flatnonzero(table < threshold)
        var_probs = sv.marginal(range(form.num_vars))
        p_model = marked_probability(t, space.size, rotations)

        rng = np.random.default_rng(99)
        shots = 10_000
        hits = 0
        cumulative = np.cumsum(var_probs)
        marked_set = set(int(s) for s in marked_states)
        for _ in range(shots):
            x = int(np.searchsorted(cumulative, rng.random(), side="right"))
            hits += x in marked_set
        sigma = math.sqrt(p_model * (1 - p_model) / shots)
        assert abs(hits / shots - p_model) < 3 * sigma

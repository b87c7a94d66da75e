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
        with pytest.raises(IndexError):
            StateVector(2).apply(Gate("h", (-1,)))
        # A bad gate inside a diagonal run, or behind valid gates, is refused
        # before any gate of the batch touches the state.
        sv = StateVector(3).apply_all([Gate("h", (q,)) for q in range(3)])
        before = sv.amplitudes.copy()
        for bad in (Gate("cphase", (0, 3), 0.4), Gate("x", (-1,)), Gate("crz", (-2, 1), 0.3)):
            batch = [Gate("phase", (0,), 0.7), bad, Gate("z", (1,)), Gate("h", (2,))]
            with pytest.raises(IndexError):
                sv.apply_all(batch)
            np.testing.assert_array_equal(sv.amplitudes, before)


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


def _operator(num_qubits: int, factors: dict) -> np.ndarray:
    """Kronecker product of 2x2 factors, the identity on unlisted qubits (top qubit first)."""
    out = np.ones((1, 1), dtype=complex)
    for q in reversed(range(num_qubits)):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


_ONE = np.diag([0.0, 1.0])


def _single_qubit_matrix(kind: str, angle: float | None) -> np.ndarray:
    if kind == "h":
        return np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    if kind in ("x", "cnot"):
        return np.array([[0, 1], [1, 0]])
    if kind == "z":
        return np.diag([1, -1])
    if kind in ("phase", "cphase"):
        return np.diag([1, np.exp(1j * angle)])
    if kind in ("rz", "crz"):
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    c, s = math.cos(angle / 2), math.sin(angle / 2)  # ry, cry
    return np.array([[c, -s], [s, c]])


def _reference_unitary(num_qubits: int, gate: Gate) -> np.ndarray:
    """The gate's full unitary, built from Kronecker products alone."""
    if gate.kind == "swap":
        qa, qb = gate.qubits
        units = [np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2)]
        return sum(
            _operator(num_qubits, {qa: units[2 * i + j], qb: units[2 * j + i]})
            for i in range(2) for j in range(2)
        )
    u = _single_qubit_matrix(gate.kind, gate.angle)
    factors = {q: _ONE for q in gate.controls}
    factors[gate.target] = u - np.eye(2)
    return np.eye(1 << num_qubits) + _operator(num_qubits, factors)


def _random_circuit(rng: np.random.Generator, num_qubits: int) -> list[Gate]:
    """Segments of diagonal runs, x runs and the remaining kinds, in random order."""
    def qubits(count):
        return tuple(int(q) for q in rng.permutation(num_qubits)[:count])

    def angle():
        return float(rng.uniform(-math.pi, math.pi))

    def diagonal_gate():
        kind = ("z", "phase", "rz", "cphase", "crz")[rng.integers(5)]
        if kind in ("cphase", "crz"):
            return Gate(kind, qubits(int(rng.integers(1, num_qubits + 1))), angle())
        return Gate(kind, qubits(1), None if kind == "z" else angle())

    gates: list[Gate] = []
    for _ in range(int(rng.integers(4, 10))):
        segment = int(rng.integers(4))
        if segment == 0:  # a diagonal run, sometimes ending on an all-qubit cphase
            gates.extend(diagonal_gate() for _ in range(int(rng.integers(1, 8))))
            if rng.random() < 0.3:
                gates.append(Gate("cphase", qubits(num_qubits), angle()))
        elif segment == 1:  # an x run; qubits may repeat
            gates.extend(Gate("x", qubits(1)) for _ in range(int(rng.integers(1, 6))))
        else:
            kinds = ["h", "ry", "cry"] + (["swap", "cnot"] if num_qubits > 1 else [])
            kind = kinds[rng.integers(len(kinds))]
            if kind == "h":
                gates.append(Gate("h", qubits(1)))
            elif kind in ("swap", "cnot"):
                gates.append(Gate(kind, qubits(2)))
            else:
                size = 1 if kind == "ry" else int(rng.integers(1, num_qubits + 1))
                gates.append(Gate(kind, qubits(size), angle()))
    return gates


class TestAgainstKroneckerReference:
    def _check(self, num_qubits: int, gates: list[Gate], rng: np.random.Generator) -> None:
        amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
        amps /= np.linalg.norm(amps)
        expected = amps.copy()
        for gate in gates:
            expected = _reference_unitary(num_qubits, gate) @ expected
        fused = StateVector(num_qubits, amps).apply_all(gates)
        np.testing.assert_allclose(fused.amplitudes, expected, rtol=0, atol=1e-12)
        single = StateVector(num_qubits, amps).apply_all(gates, validate=True)
        np.testing.assert_allclose(single.amplitudes, expected, rtol=0, atol=1e-12)

    def test_random_circuits_match_kronecker_products(self):
        rng = np.random.default_rng(2024)
        kinds: set[str] = set()
        for trial in range(120):
            num_qubits = 1 + trial % 6
            gates = _random_circuit(rng, num_qubits)
            kinds.update(g.kind for g in gates)
            self._check(num_qubits, gates, rng)
        assert kinds == {"h", "x", "z", "swap", "cnot", "phase", "rz", "ry", "cry", "cphase", "crz"}

    def test_back_to_back_diagonal_runs_and_repeated_x(self):
        rng = np.random.default_rng(7)
        gates = [
            Gate("h", (0,)), Gate("h", (1,)), Gate("h", (2,)), Gate("h", (3,)),
            Gate("crz", (0, 2, 3), 0.9), Gate("rz", (1,), -1.3), Gate("cphase", (3, 1), 2.2),
            Gate("z", (0,)), Gate("crz", (3, 0), -0.4), Gate("phase", (2,), 0.6),
            Gate("cphase", (0, 1, 2, 3), math.pi),
            Gate("x", (1,)), Gate("x", (3,)), Gate("x", (1,)), Gate("x", (0,)),
            Gate("rz", (2,), 0.8), Gate("crz", (1, 2), 1.7), Gate("cphase", (0, 1, 2, 3), -0.5),
            Gate("h", (2,)),
            Gate("crz", (0, 1, 3, 2), 2.9), Gate("z", (3,)),
        ]
        self._check(4, gates, rng)


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
    def test_power_of_two_case_matches_exact_engine(self):
        """hubo-hw at N=4 (23 qubits at the default scale): prep plus one Grover
        step on the statevector gives the exact engine's marginal."""
        from qapgas.circuits import build_grover_operator
        from qapgas.gas import ExactEngine

        form = encode_hubo_hw(random_instance(4, 1))
        engine = ExactEngine(form)
        threshold = float(engine.sorted_values[engine.size // 2])
        prep = build_state_prep(form, engine.width, threshold=threshold, scale=engine.scale)
        assert prep.num_qubits == 23
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        sv.apply_all(build_grover_operator(prep).gates)
        simulated = sv.marginal(range(form.num_vars))
        expected = engine.variable_distribution(threshold, 1)
        np.testing.assert_allclose(simulated, expected, rtol=0, atol=1e-9)

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

import math
import tracemalloc

import numpy as np
import pytest

from qapgas.analysis import ALL_KINDS, register_widths
from qapgas.circuits import (
    Gate, build_dicke, build_grover_operator, build_state_prep, dicke_gates, iqft_gates, qft_gates,
)
from qapgas.encodings import encode, encode_hubo_hw
from qapgas.qap import random_instance
from qapgas.sim import MAX_QUBITS, StateVector, _fourier_spans, _subset_products, run_circuit
from qapgas.space import SpaceScaleError


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

    def test_norm_is_the_square_root_of_the_summed_squares(self):
        rng = np.random.default_rng(41)
        for n in range(1, 13):
            sv = StateVector(n, _random_state(rng, n) * rng.uniform(0.5, 2.0))
            old = float(np.sqrt(np.sum(np.abs(sv.amplitudes) ** 2)))
            assert abs(sv.norm() - old) <= 1e-14 * old
        sv = StateVector(16, _random_state(rng, 16))
        tracemalloc.start()
        try:
            sv.norm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sv.amplitudes.nbytes // 64

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

    # Controlled kinds take at least two qubits, so a 1-qubit circuit has none.
    controlled = num_qubits > 1

    def diagonal_gate():
        kinds = ("z", "phase", "rz") + (("cphase", "crz") if controlled else ())
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("cphase", "crz"):
            return Gate(kind, qubits(int(rng.integers(2, num_qubits + 1))), angle())
        return Gate(kind, qubits(1), None if kind == "z" else angle())

    gates: list[Gate] = []
    for _ in range(int(rng.integers(4, 10))):
        segment = int(rng.integers(4))
        if segment == 0:  # a diagonal run, sometimes ending on an all-qubit cphase
            gates.extend(diagonal_gate() for _ in range(int(rng.integers(1, 8))))
            if controlled and rng.random() < 0.3:
                gates.append(Gate("cphase", qubits(num_qubits), angle()))
        elif segment == 1:  # an x run; qubits may repeat
            gates.extend(Gate("x", qubits(1)) for _ in range(int(rng.integers(1, 6))))
        else:
            kinds = ["h", "ry"] + (["cry", "swap", "cnot"] if controlled else [])
            kind = kinds[rng.integers(len(kinds))]
            if kind == "h":
                gates.append(Gate("h", qubits(1)))
            elif kind in ("swap", "cnot"):
                gates.append(Gate(kind, qubits(2)))
            else:
                size = 1 if kind == "ry" else int(rng.integers(2, num_qubits + 1))
                gates.append(Gate(kind, qubits(size), angle()))
    return gates


def _random_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def _check_runs(num_qubits: int, gates: list[Gate], rng: np.random.Generator, reference) -> None:
    """Fused runs and gate-by-gate application both match ``reference(amps, gates)``."""
    amps = _random_state(rng, num_qubits)
    expected = reference(amps.copy(), gates)
    fused = StateVector(num_qubits, amps).apply_all(gates)
    np.testing.assert_allclose(fused.amplitudes, expected, rtol=0, atol=1e-12)
    single = StateVector(num_qubits, amps).apply_all(gates, validate=True)
    np.testing.assert_allclose(single.amplitudes, expected, rtol=0, atol=1e-12)


def _kronecker_reference(num_qubits: int):
    def reference(amps, gates):
        for gate in gates:
            amps = _reference_unitary(num_qubits, gate) @ amps
        return amps
    return reference


class TestAgainstKroneckerReference:
    def _check(self, num_qubits: int, gates: list[Gate], rng: np.random.Generator) -> None:
        _check_runs(num_qubits, gates, rng, _kronecker_reference(num_qubits))

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


def _random_runs(rng: np.random.Generator, num_qubits: int) -> list[Gate]:
    """Long runs of one class each: Hadamards and swaps with repeats, diagonal
    runs whose terms often share qubits, and x runs."""
    def qubits(count):
        return tuple(int(q) for q in rng.permutation(num_qubits)[:count])

    def angle():
        return float(rng.uniform(-math.pi, math.pi))

    gates: list[Gate] = []
    for _ in range(int(rng.integers(3, 8))):
        segment = int(rng.integers(4 if num_qubits > 1 else 3))
        length = int(rng.integers(1, 3 * num_qubits + 2))
        if segment == 0:
            gates.extend(Gate("h", qubits(1)) for _ in range(length))
        elif segment == 1:
            gates.extend(Gate("x", qubits(1)) for _ in range(length))
        elif segment == 2:
            # A diagonal run; with a shared qubit every term contains it.
            shared = qubits(1) if rng.random() < 0.5 else ()
            for _ in range(length):
                others = tuple(q for q in qubits(int(rng.integers(1, num_qubits + 1))) if q not in shared)
                kind = ("z", "phase", "rz", "cphase", "crz")[rng.integers(5)]
                if kind in ("cphase", "crz") and len(shared + others) < 2:
                    kind = "phase" if kind == "cphase" else "rz"
                if kind in ("z", "phase", "rz"):
                    gate_qubits = shared or others[:1]
                    if kind == "rz" and shared:
                        kind = "phase"  # rz adds a global term, which no qubit is in
                else:
                    # crz's target carries the term without the controls; with
                    # a shared qubit it goes among the controls.
                    gate_qubits = shared + others if shared and kind == "crz" else others + shared
                gates.append(Gate(kind, gate_qubits, None if kind == "z" else angle()))
        else:
            gates.extend(Gate("swap", qubits(2)) for _ in range(length))
    return gates


class TestRunKernels:
    """Each run kernel against Kronecker products, on runs chosen to reach its branches."""

    def _check(self, num_qubits: int, gates: list[Gate], seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        _check_runs(num_qubits, gates, rng, _kronecker_reference(num_qubits))

    def test_random_runs(self):
        rng = np.random.default_rng(515)
        kinds: set[str] = set()
        for trial in range(90):
            num_qubits = 1 + trial % 6
            gates = _random_runs(rng, num_qubits)
            kinds.update(g.kind for g in gates)
            _check_runs(num_qubits, gates, rng, _kronecker_reference(num_qubits))
        assert kinds == {"h", "x", "z", "swap", "phase", "rz", "cphase", "crz"}

    def test_hadamard_runs(self):
        for n in range(1, 7):
            for q in range(n):
                self._check(n, [Gate("h", (q,))])
            layer = [Gate("h", (q,)) for q in range(n)]
            self._check(n, layer)
            self._check(n, layer + layer[::2])  # H H = I on the even qubits
        self._check(6, [Gate("h", (q,)) for q in (0, 2, 3, 5)])
        self._check(6, [Gate("h", (q,)) for q in (5, 1, 4, 1, 0, 4, 3)])
        self._check(3, [Gate("h", (1,)), Gate("h", (1,))])

    def test_swap_runs(self):
        self._check(6, [Gate("swap", (q, q + 1)) for q in range(5)])
        self._check(6, [Gate("swap", (0, 5)), Gate("swap", (5, 2)), Gate("swap", (2, 0))])
        self._check(4, [Gate("swap", (1, 3)), Gate("swap", (3, 1))])  # cancels
        self._check(5, [Gate("swap", (0, 1)), Gate("swap", (2, 3)), Gate("swap", (0, 1))])
        self._check(2, [Gate("swap", (0, 1))] * 3)
        # Swaps composed into one window of qubits 1..4 with h and cry gates.
        gates = [Gate("h", (2,)), Gate("swap", (1, 3)), Gate("cry", (3, 4, 2), 0.7),
                 Gate("swap", (4, 2)), Gate("h", (1,))]
        amps = _random_state(np.random.default_rng(6), 6)
        sv = _CountingState(6, amps)
        sv.writes = 0
        held = sv.amplitudes
        sv.apply_all(gates)
        assert sv.writes == 0
        np.testing.assert_allclose(held, _per_gate_reference(6)(amps, gates), rtol=0, atol=1e-12)
        _check_runs(6, gates, np.random.default_rng(7), _per_gate_reference(6))

    def test_diagonal_runs_with_shared_qubits(self):
        self._check(4, [
            Gate("cphase", (0, 2), 0.4), Gate("crz", (2, 3), -1.1), Gate("z", (2,)),
            Gate("phase", (2,), 0.9), Gate("cphase", (1, 3, 2), 2.1),
        ])
        # Two adjacent qubits in every term, and every qubit in every term.
        self._check(5, [Gate("cphase", (1, 2, 4), 0.7), Gate("crz", (2, 0, 1), 1.3), Gate("cphase", (2, 1), -0.2)])
        self._check(3, [Gate("cphase", (0, 1, 2), 0.5), Gate("crz", (2, 0, 1), -2.5)])

    def test_rz_mixes_keep_every_qubit(self):
        # rz adds a term over no qubit, so nothing may be sliced off.
        self._check(3, [Gate("rz", (1,), 0.8), Gate("crz", (0, 1), 1.9)])
        self._check(4, [Gate("crz", (0, 1), 0.6), Gate("crz", (2, 1), -1.4)])
        self._check(4, [Gate("crz", (3, 2), 0.6), Gate("cphase", (3, 0), 1.2), Gate("rz", (0,), -0.3)])

    def test_cancelling_angles(self):
        sv = StateVector(3, _random_state(np.random.default_rng(3), 3))
        before = sv.amplitudes.copy()
        sv.apply_all([Gate("phase", (1,), 0.7), Gate("phase", (1,), -0.7)])
        np.testing.assert_array_equal(sv.amplitudes, before)
        self._check(4, [
            Gate("rz", (0,), 0.4), Gate("crz", (1, 0), 0.3), Gate("cphase", (2, 3), 1.0),
            Gate("rz", (0,), -0.4), Gate("crz", (1, 0), -0.3),
        ])

    def test_z_on_one_qubit(self):
        self._check(1, [Gate("z", (0,))])
        self._check(1, [Gate("phase", (0,), 0.3), Gate("z", (0,))])
        self._check(1, [Gate("rz", (0,), 1.2)])


def _per_gate_reference(num_qubits: int):
    """Gate by gate on the flat array: a 2x2 Hadamard on the target's halves,
    an explicit phase per basis state, index permutations for x, cnot and
    swap, and each ry or cry amplitude mixed with its partner across the
    target."""
    index = np.arange(1 << num_qubits)

    def bit(q):
        return (index >> q) & 1

    def reference(amps, gates):
        for kind, qubits, angle in gates:
            on = np.prod([bit(q) for q in qubits[:-1]], axis=0) if len(qubits) > 1 else 1
            target = bit(qubits[-1])
            if kind == "h":
                pair = amps.reshape(-1, 2, 1 << qubits[0])
                amps = np.stack([pair[:, 0] + pair[:, 1], pair[:, 0] - pair[:, 1]], axis=1)
                amps = amps.reshape(-1) / math.sqrt(2)
            elif kind == "x":
                amps = amps[index ^ (1 << qubits[0])]
            elif kind == "cnot":
                amps = amps[index ^ (on << qubits[1])]
            elif kind == "swap":
                a, b = qubits
                amps = amps[index ^ ((bit(a) ^ bit(b)) * ((1 << a) | (1 << b)))]
            elif kind in ("ry", "cry"):
                # [[c, -s], [s, c]]: the 0 half takes -s times its partner, the 1 half +s.
                c, s = math.cos(angle / 2), math.sin(angle / 2)
                partner = amps[index ^ (1 << qubits[-1])]
                amps = np.where(on, c * amps + (2 * target - 1) * s * partner, amps)
            elif kind in ("z", "phase", "cphase", "rz", "crz"):
                if kind == "z":
                    phase = math.pi * target
                elif kind in ("phase", "cphase"):
                    phase = angle * on * target
                else:  # rz, crz
                    phase = angle * on * (target - 0.5)
                amps = amps * np.exp(1j * phase)
            else:
                raise ValueError(f"no reference for gate kind {kind!r}")
        return amps
    return reference


class TestRunKernelsWide:
    """At 10-12 qubits Hadamard layers split into several blocks of four and
    cross from the right product (top qubit <= 3) to the left one."""

    def test_against_per_gate_reference(self):
        rng = np.random.default_rng(88)
        for num_qubits in (10, 11, 12):
            layer = [Gate("h", (q,)) for q in range(num_qubits)]
            lone = [Gate("h", (q,)) for q in range(num_qubits)[::-1]]
            _check_runs(num_qubits, layer, rng, _per_gate_reference(num_qubits))
            for gate in lone:
                _check_runs(num_qubits, [gate], rng, _per_gate_reference(num_qubits))
            for _ in range(4):
                gates = layer + _random_runs(rng, num_qubits) + layer[1::3]
                _check_runs(num_qubits, gates, rng, _per_gate_reference(num_qubits))

    def test_phase_ladder_and_inverse_qft(self):
        """A preparation circuit: Hadamards, a full phase ladder, the inverse QFT."""
        form = encode_hubo_hw(random_instance(2, 5))
        prep = build_state_prep(form, 9, threshold=0.5, scale=4.0)
        assert 10 <= prep.num_qubits <= 12
        _check_runs(prep.num_qubits, list(prep.gates), np.random.default_rng(9),
                    _per_gate_reference(prep.num_qubits))


class TestFourierKernel:
    """Exact QFT and inverse-QFT blocks on two or more qubits run as one FFT
    over their register; anything else, however close, takes the gate
    kernels.  Both paths match the per-gate reference."""

    def _check(self, num_qubits: int, gates: list[Gate], spans, rng: np.random.Generator) -> None:
        assert _fourier_spans(tuple(gates)) == spans
        _check_runs(num_qubits, gates, rng, _per_gate_reference(num_qubits))

    def test_blocks_at_the_bottom_middle_and_top(self):
        rng = np.random.default_rng(41)
        for num_qubits in (8, 10, 12):
            for m in range(1, 9):
                for lo in sorted({0, (num_qubits - m) // 2, num_qubits - m}):
                    for block in (qft_gates(range(lo, lo + m)), iqft_gates(range(lo, lo + m))):
                        # m = 1 is one plain Hadamard.
                        spans = [(0, len(block))] if m > 1 else []
                        self._check(num_qubits, block, spans, rng)
        assert qft_gates([3]) == iqft_gates([3]) == [Gate("h", (3,))]

    def test_grover_shaped_sequence(self):
        """z on the sign qubit, QFT on the value register, a phase ladder,
        Hadamards on every qubit, then the inverse QFT."""
        rng = np.random.default_rng(42)
        n, lo = 11, 4
        value = range(lo, n)
        qft, iqft = qft_gates(value), iqft_gates(value)
        ladder = [
            Gate("cphase", (v, t), 0.37 * (v + 1) + 0.11 * t) for v in range(lo) for t in value
        ] + [Gate("phase", (t,), -0.5 * t) for t in value]
        hadamards = [Gate("h", (q,)) for q in range(n)]
        gates = [Gate("z", (n - 1,))] + qft + ladder + hadamards + iqft
        end = len(gates)
        self._check(n, gates, [(1, 1 + len(qft)), (end - len(iqft), end)], rng)
        # Back to back on one register: the two blocks cancel.
        self._check(n, qft + iqft, [(0, len(qft)), (len(qft), 2 * len(qft))], rng)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_builder_swaps_lie_inside_fourier_blocks(self, kind, n):
        """Every swap of a preparation or Grover circuit belongs to a Fourier
        block, so none reaches the real-gate kernel."""
        form = encode(random_instance(n, 30 + n), kind)
        for width in (1, 2, register_widths(n, kind)[1]):
            prep = build_state_prep(form, width)
            for circuit in (prep, build_grover_operator(prep)):
                gates = circuit.gates
                spans = _fourier_spans(gates)
                swaps = [i for i, gate in enumerate(gates) if gate.kind == "swap"]
                assert all(any(start <= i < stop for start, stop in spans) for i in swaps)
                assert bool(swaps) == (width > 1)

    def test_near_misses_take_the_gate_path(self):
        rng = np.random.default_rng(43)
        n = 10
        for block in (qft_gates(range(2, 8)), iqft_gates(range(2, 8))):
            swaps = [i for i, gate in enumerate(block) if gate.kind == "swap"]
            phases = [i for i, gate in enumerate(block) if gate.kind == "cphase"]
            for i in phases[:: len(phases) - 1]:
                moved = list(block)
                kind, qubits, angle = block[i]
                moved[i] = Gate(kind, qubits, math.nextafter(angle, math.inf))
                self._check(n, moved, [], rng)
            self._check(n, block[: swaps[-1]] + block[swaps[-1] + 1 :], [], rng)
            self._check(n, [Gate("x", (0,))] + block[: len(block) - 3], [], rng)
        for qubits in (range(7, 1, -1), [0, 2, 3, 5], [1, 2, 4, 5, 6]):
            for block in (qft_gates(qubits), iqft_gates(qubits)):
                self._check(n, block, [], rng)


def _real_run(rng: np.random.Generator, num_qubits: int, length: int) -> list[Gate]:
    """One run of real gates: h, x and ry, and cry and cnot on two or more qubits."""
    kinds = ("h", "x", "ry") + (("cry", "cnot") if num_qubits > 1 else ())
    gates = []
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        size = int(rng.integers(2, num_qubits + 1)) if kind == "cry" else 2 if kind == "cnot" else 1
        qubits = tuple(int(q) for q in rng.permutation(num_qubits)[:size])
        angle = float(rng.uniform(-math.pi, math.pi)) if kind in ("ry", "cry") else None
        gates.append(Gate(kind, qubits, angle))
    return gates


class _CountingState(StateVector):
    """A StateVector that counts how often ``amplitudes`` is rebound."""

    __slots__ = ("writes",)

    @property
    def amplitudes(self):
        return StateVector.amplitudes.__get__(self)

    @amplitudes.setter
    def amplitudes(self, value):
        self.writes = getattr(self, "writes", 0) + 1
        StateVector.amplitudes.__set__(self, value)


class TestRealKernel:
    """Runs of h, x, ry, cry and cnot, composed per window of adjacent qubits."""

    def _check(self, num_qubits: int, gates: list[Gate], seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        _check_runs(num_qubits, gates, rng, _kronecker_reference(num_qubits))

    def test_mixed_runs(self):
        rng = np.random.default_rng(1917)
        kinds: set[str] = set()
        for trial in range(60):
            num_qubits = 1 + trial % 6
            gates = _real_run(rng, num_qubits, int(rng.integers(1, 4 * num_qubits + 2)))
            kinds.update(g.kind for g in gates)
            _check_runs(num_qubits, gates, rng, _kronecker_reference(num_qubits))
        assert kinds == {"h", "x", "ry", "cry", "cnot"}

    def test_windows_across_the_product_boundary(self):
        # Windows whose top qubit is 3 take the right product, from 4 the left one.
        self._check(6, [Gate("h", (3,)), Gate("cnot", (3, 4)), Gate("ry", (4,), 0.7), Gate("h", (2,))])
        self._check(6, [Gate("x", (0,)), Gate("cry", (1, 3), 1.1), Gate("h", (4,)), Gate("cnot", (4, 3))])
        self._check(6, [Gate("cry", (5, 2), -0.4), Gate("h", (1,)), Gate("cnot", (0, 3)), Gate("x", (4,))])
        self._check(5, [Gate("h", (q,)) for q in (4, 0, 3, 1, 2)] + [Gate("cnot", (3, 4))])

    def test_gates_that_cancel_in_one_window(self):
        self._check(3, [Gate("h", (1,)), Gate("h", (1,))])
        self._check(4, [Gate("x", (2,)), Gate("h", (0,)), Gate("x", (2,))])
        self._check(6, [Gate("h", (4,)), Gate("x", (5,)), Gate("h", (4,)), Gate("x", (5,))])
        sv = StateVector(3, _random_state(np.random.default_rng(5), 3))
        before = sv.amplitudes.copy()
        sv.apply_all([Gate("x", (2,)), Gate("cnot", (0, 1)), Gate("cnot", (0, 1)), Gate("x", (2,))])
        np.testing.assert_allclose(sv.amplitudes, before, rtol=0, atol=1e-15)

    def test_gates_wider_than_a_window(self):
        self._check(6, [Gate("cnot", (0, 5))])
        self._check(6, [Gate("cnot", (5, 1)), Gate("cry", (0, 4), 0.9)])
        self._check(6, [Gate("cry", (0, 3, 5), -1.3), Gate("cry", (5, 4, 2, 0), 2.2)])
        layer = [Gate("h", (q,)) for q in range(6)]
        self._check(6, layer + [Gate("cnot", (0, 5)), Gate("h", (2,)), Gate("cry", (4, 0), 0.5)] + layer)

    def test_a_run_within_four_qubits_is_one_product(self):
        rng = np.random.default_rng(12)
        runs = (
            [Gate("h", (3,)), Gate("cnot", (3, 4)), Gate("cry", (5, 4), 0.3), Gate("x", (6,)),
             Gate("ry", (5,), -0.8), Gate("h", (6,)), Gate("cnot", (6, 3))],
            [Gate("x", (0,)), Gate("h", (2,)), Gate("cry", (0, 2, 3), 1.4), Gate("cnot", (1, 0))],
            [Gate("h", (7,)), Gate("ry", (7,), 0.2)],
        )
        for gates in runs:
            amps = _random_state(rng, 8)
            sv = _CountingState(8, amps)
            sv.writes = 0
            held = sv.amplitudes
            sv.apply_all(gates)
            assert sv.writes == 0
            expected = _kronecker_reference(8)(amps, gates)
            np.testing.assert_allclose(held, expected, rtol=0, atol=1e-12)

    def test_per_gate_reference_matches_kronecker_products(self):
        rng = np.random.default_rng(31)
        kinds: set[str] = set()
        for trial in range(30):
            num_qubits = 1 + trial % 5
            gates = _random_circuit(rng, num_qubits)
            kinds.update(g.kind for g in gates)
            amps = _random_state(rng, num_qubits)
            np.testing.assert_allclose(
                _per_gate_reference(num_qubits)(amps, gates),
                _kronecker_reference(num_qubits)(amps, gates), rtol=0, atol=1e-12,
            )
        assert kinds == {"h", "x", "z", "swap", "cnot", "phase", "rz", "ry", "cry", "cphase", "crz"}
        with pytest.raises(ValueError, match="no reference"):
            _per_gate_reference(2)(np.ones(4), [("toffoli", (0, 1), None)])


class TestRealKernelWide:
    """Dicke blocks and layers at 9-12 qubits against the per-gate reference."""

    def test_dicke_rows_then_a_hadamard_layer(self):
        rng = np.random.default_rng(3)
        for num_qubits in (9, 10, 12):
            rows = [g for lo, k in ((0, 1), (3, 2), (6, 1)) for g in dicke_gates([lo, lo + 1, lo + 2], k)]
            layer = [Gate("h", (q,)) for q in range(num_qubits)]
            _check_runs(num_qubits, rows + layer, rng, _per_gate_reference(num_qubits))

    def test_dicke_states_on_nine_qubits(self):
        rng = np.random.default_rng(4)
        for k in range(1, 10):
            _check_runs(9, list(build_dicke(9, k).gates), rng, _per_gate_reference(9))

    def test_descending_hadamards_then_ascending_x(self):
        rng = np.random.default_rng(5)
        for num_qubits in (10, 11, 12):
            gates = [Gate("h", (q,)) for q in reversed(range(num_qubits))]
            gates += [Gate("x", (q,)) for q in range(num_qubits)]
            _check_runs(num_qubits, gates, rng, _per_gate_reference(num_qubits))


# Beside the state, the traced peak may hold a window's product buffer
# (128 KiB), a piece's temporaries, a diagonal run's 1 MiB factor table and
# numpy's iterator buffers (three of 8,192 elements): 4 MiB at any register
# size.
_ALLOWANCE = 4 << 20


class TestTemporaryMemory:
    @pytest.mark.parametrize("n", [18, 20])
    def test_one_state_beyond_the_state(self, n):
        """The traced peak of a whole iteration and a marginal, state
        included, is one state plus a fixed allowance, at 18 and 20 qubits:
        windows, wide swaps, long-range cphase and crz runs and the marginal
        all work in place."""
        gates = (
            [Gate("h", (q,)) for q in range(n)]
            + [Gate("cphase", (q, (q + 5) % n), 0.1 * q) for q in range(n)]
            + [Gate("crz", (q, (q + 3) % n), 0.2 * q) for q in range(n)]
            + [Gate("x", (q,)) for q in range(0, n, 2)]
            + [Gate("swap", (q, n - 1 - q)) for q in range(n // 2)]
            + [Gate("h", (q,)) for q in (1, 4, 9, 17)]
            + [Gate("ry", (3,), 0.4), Gate("cnot", (2, 7))]
        )
        tracemalloc.start()
        try:
            sv = StateVector(n)
            sv.apply_all(gates)
            marginal = sv.marginal([n - 1, 0, 7, 12])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(sv.norm() - 1.0) < 1e-12
        assert abs(marginal.sum() - 1.0) < 1e-12
        assert peak <= sv.amplitudes.nbytes + _ALLOWANCE

    def test_fourier_blocks_over_twenty_qubits_run_in_place(self):
        """A QFT and an inverse QFT over all 20 qubits, and a pair over the top
        14 as in a 20-qubit GAS iteration: ``amplitudes`` is never rebound,
        the traced peak stays far below one state, and each pair restores
        the state."""
        n = 20
        amps = _random_state(np.random.default_rng(20), n)
        sv = _CountingState(n, amps)
        for qubits in (range(n), range(6, n)):
            gates = qft_gates(qubits) + iqft_gates(qubits)
            sv.writes = 0
            tracemalloc.start()
            try:
                sv.apply_all(gates)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sv.writes == 0
            assert peak <= sv.amplitudes.nbytes // 16
            np.testing.assert_allclose(sv.amplitudes, amps, rtol=0, atol=1e-12)


def _per_axis_products(index: np.ndarray, seeds: np.ndarray, width: int) -> np.ndarray:
    """The per-axis subset-product transform: the seeds in a table of ones,
    then one pass per index bit multiplying each entry into the entry with
    that bit set."""
    factor = np.ones(1 << width, dtype=np.complex128)
    factor[index] = seeds
    for j in range(width):
        pair = factor.reshape(-1, 2, 1 << j)
        pair[:, 1] *= pair[:, 0]
    return factor


def _ladder_masks(rng: np.random.Generator, variables: int, width: int, subsets: int) -> list[int]:
    """Seed masks shaped like a phase ladder: subsets of the low `variables`
    bits, each times every one of the high bits."""
    low = {int(m) for m in rng.integers(1, 1 << variables, subsets)} | {1 << q for q in range(variables)}
    return sorted(m | 1 << h for m in low for h in range(variables, width))


class TestSubsetProducts:
    """The diagonal kernel's split build against the per-axis transform."""

    def _check(self, masks, width: int, rng: np.random.Generator) -> None:
        index = np.array(sorted(masks), dtype=np.int64)
        seeds = np.exp(1j * rng.uniform(-math.pi, math.pi, index.size))
        table = _subset_products(index.tolist(), seeds.tolist(), width)
        assert table.shape == (1 << width,)
        assert np.max(np.abs(table - _per_axis_products(index, seeds, width))) <= 1e-13
        assert np.max(np.abs(np.abs(table) - 1.0)) <= 1e-13

    def test_empty_set_gives_ones(self):
        for width in (0, 1, 5):
            table = _subset_products([], [], width)
            np.testing.assert_array_equal(table, np.ones(1 << width))

    def test_one_seed_at_zero(self):
        rng = np.random.default_rng(0)
        for width in (0, 1, 3, 10):
            self._check([0], width, rng)

    def test_dense_sets(self):
        rng = np.random.default_rng(1)
        for width in (1, 2, 5, 10):
            self._check(range(1 << width), width, rng)

    def test_seeds_with_several_high_bits(self):
        rng = np.random.default_rng(2)
        for width in (4, 8, 12):
            high = rng.integers(0, 1 << (width // 2), 40) << (width - width // 2)
            low = rng.integers(0, 1 << (width - width // 2), 40)
            masks = {int(m) for m in high | low} | {(1 << width) - 1, 1 << (width - 1)}
            self._check(masks, width, rng)
            # Seeds confined to the middle bits, copied up from a short table.
            self._check({int(m) << 2 for m in rng.integers(0, 1 << (width - 4), 12)}, width, rng)

    def test_ladder_shaped_sets(self):
        rng = np.random.default_rng(3)
        for width in range(2, 15):
            for variables in {1, width // 2, width - 1}:
                masks = _ladder_masks(rng, variables, width, 3 * width)
                self._check(masks, width, rng)
                # rz terms add seeds over the controls alone, below the high bits.
                self._check(set(masks) | {m & ((1 << variables) - 1) for m in masks[::3]}, width, rng)

    def test_ladder_runs_over_every_qubit_stay_within_one_state(self):
        """Two phase ladders over all 18 qubits, a Hadamard between them: each
        factor table covers the lowest 16 qubits and multiplies a slice of
        the state in place."""
        n, variables = 18, 12
        rng = np.random.default_rng(18)
        ladder = [
            Gate("cphase", tuple(q for q in range(n) if m >> q & 1), 0.3 + 0.01 * i)
            for i, m in enumerate(_ladder_masks(rng, variables, n, 40))
        ]
        gates = [Gate("h", (q,)) for q in range(n)] + ladder + [Gate("h", (0,))] + ladder[::-1]
        tracemalloc.start()
        try:
            sv = StateVector(n)
            sv.apply_all(gates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(sv.norm() - 1.0) < 1e-12
        assert peak <= sv.amplitudes.nbytes + _ALLOWANCE


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

    def test_draw_stays_inside_the_register(self):
        """The last cumulative sum can fall below the pairwise sum of the
        probabilities; the largest draw must still name the last state."""
        sv = StateVector(12, _random_state(np.random.default_rng(0), 12))
        probs = sv.probabilities()
        assert np.cumsum(probs)[-1] < probs.sum()

        class LargestDraw:
            def random(self):
                return 1.0 - 2.0**-53

        assert sv.measure_all(LargestDraw()) == (1 << 12) - 1

    def test_marginal_matches_a_count_over_basis_states(self):
        """Qubit lists in any order, within and across the marginal's row of
        2^13 amplitudes, against a weighted count of each basis state's bits."""
        rng = np.random.default_rng(45)
        for n in (1, 3, 10, 13, 14, 17):
            sv = StateVector(n, _random_state(rng, n))
            probs = np.abs(sv.amplitudes) ** 2
            states = np.arange(1 << n)
            lists = [[], [0], [n - 1, 0][: n], list(range(n)), rng.permutation(n).tolist()]
            lists += [rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist() for _ in range(4)]
            for qubits in lists:
                key = sum(((states >> q) & 1) << j for j, q in enumerate(qubits))
                expected = np.bincount(key, probs, minlength=1 << len(qubits)) if qubits else [probs.sum()]
                np.testing.assert_allclose(sv.marginal(qubits), expected, rtol=0, atol=1e-13)

    def test_marginal_rejects_qubit_outside_register(self):
        sv = StateVector(3)
        for qubits in ([3], [-1], [0, 5]):
            with pytest.raises(IndexError, match="outside 3-qubit register"):
                sv.marginal(qubits)

    def test_marginal_rejects_repeated_qubit(self):
        sv = StateVector(3)
        with pytest.raises(ValueError, match="qubit 0 listed twice"):
            sv.marginal([0, 0])
        with pytest.raises(ValueError, match="qubit 2 listed twice"):
            sv.marginal([2, 1, 2])

    def test_measurement_deterministic_under_seed(self):
        circuit = build_dicke(5, 2)
        assert run_circuit(circuit, seed=11)[0] == run_circuit(circuit, seed=11)[0]


class TestScaleCap:
    def test_rejects_oversized_register(self):
        with pytest.raises(SpaceScaleError, match="emulated"):
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
    @pytest.mark.parametrize("twin", [False, True], ids=["phase", "rz"])
    def test_power_of_two_dicke_case_matches_exact_engine(self, twin):
        """qubo-d on sample_instance(4) at scale 1 (16 + 9 = 25 qubits): prep
        plus L = 0 and 1 Grover steps, with the phase ladder or its Rz
        substitute, give the exact engine's marginal.  147 of the engine's
        152 level weights are fractional, so its Fejer-weight path is
        checked against gates."""
        from qapgas.circuits import substitute_rz
        from qapgas.gas import ExactEngine
        from qapgas.samples import sample_instance

        form = encode(sample_instance(4), "qubo-d")
        engine = ExactEngine(form, scale=1)
        threshold = float(engine.sorted_values[engine.size // 2])
        weights = engine._level_weights(threshold)
        assert np.count_nonzero((weights > 0) & (weights < 1)) == 147 and weights.size == 152
        prep = build_state_prep(form, engine.width, threshold=threshold, scale=engine.scale)
        assert prep.num_qubits == 25
        grover = build_grover_operator(prep)
        if twin:
            prep, grover = substitute_rz(prep), substitute_rz(grover)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        for rotations in range(2):
            if rotations:
                sv.apply_all(grover.gates)
            simulated = sv.marginal(range(form.num_vars))
            expected = engine.variable_distribution(threshold, rotations)
            np.testing.assert_allclose(simulated, expected, rtol=0, atol=1e-9)

    @pytest.mark.slow
    @pytest.mark.parametrize("twin", [False, True], ids=["phase", "rz"])
    @pytest.mark.parametrize("kind", ["qubo-d", "qubo-h"])
    def test_steps_match_exact_engine(self, kind, twin):
        """sample_instance(3) at the engine's default scale (22 qubits for
        qubo-d, which starts from the Dicke state, 24 for qubo-h): prep plus
        L = 0, 1 and 2 Grover steps, with the phase ladder or its Rz
        substitute, give the exact engine's marginal."""
        from qapgas.circuits import build_grover_operator, substitute_rz
        from qapgas.encodings import encode
        from qapgas.gas import ExactEngine
        from qapgas.samples import sample_instance

        form = encode(sample_instance(3), kind)
        engine = ExactEngine(form)
        threshold = float(engine.sorted_values[engine.size // 2])
        prep = build_state_prep(form, engine.width, threshold=threshold, scale=engine.scale)
        grover = build_grover_operator(prep)
        if twin:
            prep, grover = substitute_rz(prep), substitute_rz(grover)
        sv = StateVector(prep.num_qubits).apply_all(prep.gates)
        for rotations in range(3):
            if rotations:
                sv.apply_all(grover.gates)
            simulated = sv.marginal(range(form.num_vars))
            expected = engine.variable_distribution(threshold, rotations)
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

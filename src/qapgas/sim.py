"""Dense statevector simulator for small registers.

Amplitudes are indexed little-endian: basis state i has qubit q at bit q of
i, matching the circuit module's conventions.  The register is capped at 26
qubits (a 1 GiB amplitude array); anything larger belongs to the emulated
search backend, not to exact simulation.

Gates are applied in runs, one kernel per gate class.  A preparation circuit
is nearly all diagonal phase gates, and a run of them is a phase polynomial
over its qubits: the run costs one subset-sum table over its support and one
multiply of the state, instead of one strided pass per gate.  A run of x
gates is one flip of the state; Hadamards act in place.  No kernel holds more
than 1.5 states of temporary memory (see ``StateVector.apply_all``).
"""
from __future__ import annotations

import math
from itertools import groupby

import numpy as np

from .circuits import Circuit, Gate
from .polynomials import MultilinearPolynomial

MAX_QUBITS = 26


_DIAGONAL = frozenset({"z", "phase", "rz", "cphase", "crz"})


def _run_class(gate: Gate) -> str:
    """Gates of one class next to each other form one run for `apply_all`."""
    return "diagonal" if gate.kind in _DIAGONAL else gate.kind


class RegisterScaleError(ValueError):
    """Raised when a statevector register would exceed the dense-simulation cap."""


class StateVector:
    """Mutable dense state of `num_qubits` qubits, initially |0...0>."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if num_qubits > MAX_QUBITS:
            raise RegisterScaleError(
                f"{num_qubits} qubits exceeds the {MAX_QUBITS}-qubit statevector cap; "
                "use the emulated search backend for larger spaces"
            )
        self.num_qubits = num_qubits
        if amplitudes is None:
            self.amplitudes = np.zeros(1 << num_qubits, dtype=np.complex128)
            self.amplitudes[0] = 1.0
        else:
            amplitudes = np.asarray(amplitudes, dtype=np.complex128)
            if amplitudes.shape != (1 << num_qubits,):
                raise ValueError("amplitude array has wrong length")
            self.amplitudes = amplitudes.copy()

    # -- helpers -------------------------------------------------------------

    def _view(self) -> np.ndarray:
        return self.amplitudes.reshape([2] * self.num_qubits)

    def _slices(self, assignment: dict[int, int]) -> tuple:
        """Index of the block where each assigned qubit has its bit; it selects
        a view, 0-d when every qubit is assigned."""
        sel: list = [slice(None)] * self.num_qubits
        for qubit, bit in assignment.items():
            sel[self.num_qubits - 1 - qubit] = bit
        return (*sel, Ellipsis)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes)

    # -- gate application ------------------------------------------------------

    def apply(self, gate: Gate) -> "StateVector":
        return self.apply_all((gate,))

    def apply_all(self, gates, validate: bool = False) -> "StateVector":
        """Apply `gates` in order, one maximal run of same-class gates at a time.

        Every gate's qubits are checked against the register before any gate
        is applied, so an IndexError leaves the amplitudes as they were.

        A run of consecutive diagonal gates (z, phase, rz, cphase, crz) is
        one phase polynomial over the run's support: phase and cphase add
        a*prod(b), z adds pi*b, and rz and crz add a*prod(controls)*(b_t - 1/2).
        Its table over the support comes from one subset-sum transform
        (``MultilinearPolynomial.evaluate_table``), and the state is
        multiplied once by cos + i sin of it, broadcast over the other
        qubits.  A run of x gates is one flip over the axes of the qubits
        flipped an odd number of times.  Hadamards and ry/cry rotate the two
        halves of their target in place; swap and cnot exchange two quarters.

        Temporary memory stays within 1.5 states: a diagonal run over every
        qubit holds its float table and complex factor (24 bytes per
        amplitude), a flip one copy of the state, an ry one state, and the
        other kernels at most half of one.

        With ``validate`` every gate is applied as a run of one and the norm
        is checked after it.
        """
        gates = tuple(gates)
        n = self.num_qubits
        for gate in gates:
            if not all(0 <= q < n for q in gate.qubits):
                raise IndexError(f"gate {gate} outside {n}-qubit register")
        if validate:
            runs = ((_run_class(gate), (gate,)) for gate in gates)
        else:
            runs = ((cls, tuple(run)) for cls, run in groupby(gates, key=_run_class))
        for cls, run in runs:
            if cls == "diagonal":
                self._apply_phases(run)
            elif cls == "x":
                self._apply_flips(run)
            else:
                kernel = self._GATE_KERNELS[cls]
                for gate in run:
                    kernel(self, gate)
            if validate and abs(self.norm() - 1.0) > 1e-9:
                raise AssertionError(f"norm drifted after {run[0]}")
        return self

    def _apply_phases(self, run: tuple[Gate, ...]) -> None:
        support = sorted({q for gate in run for q in gate.qubits})
        var = {q: i for i, q in enumerate(support)}
        terms: dict[tuple[int, ...], float] = {}
        for gate in run:
            bits = tuple(var[q] for q in gate.qubits)
            angle = math.pi if gate.kind == "z" else gate.angle
            if gate.kind in ("rz", "crz"):
                terms[bits[:-1]] = terms.get(bits[:-1], 0.0) - 0.5 * angle
            terms[bits] = terms.get(bits, 0.0) + angle
        table = MultilinearPolynomial(len(support), terms).evaluate_table()
        factor = np.empty(table.size, dtype=np.complex128)
        np.cos(table, out=factor.real)
        np.sin(table, out=factor.imag)
        del table
        # Table axes follow the support's qubits from the top, like the
        # state's; adjacent axes that are both in or both out are merged.
        inside = set(support)
        state_shape: list[int] = []
        factor_shape: list[int] = []
        last = None
        for q in reversed(range(self.num_qubits)):
            on = q in inside
            if on == last:
                state_shape[-1] *= 2
                factor_shape[-1] *= 2 if on else 1
            else:
                state_shape.append(2)
                factor_shape.append(2 if on else 1)
            last = on
        view = self.amplitudes.reshape(state_shape)
        view *= factor.reshape(factor_shape)

    def _apply_flips(self, run: tuple[Gate, ...]) -> None:
        flipped: set[int] = set()
        for gate in run:
            flipped ^= set(gate.qubits)
        if flipped:
            view = self._view()
            view[...] = np.flip(view, axis=tuple(self.num_qubits - 1 - q for q in flipped)).copy()

    def _apply_hadamard(self, gate: Gate) -> None:
        (q,) = gate.qubits
        pair = self.amplitudes.reshape(-1, 2, 1 << q)
        a, b = pair[:, 0], pair[:, 1]
        s = 1.0 / math.sqrt(2.0)
        a += b  # a + b
        a *= s  # (a + b) s
        b *= -2.0 * s  # -2 b s
        b += a  # (a - b) s

    def _apply_rotation(self, gate: Gate) -> None:
        """ry and cry: [[c, -s], [s, c]] on the target's halves under the controls."""
        view = self._view()
        on = {q: 1 for q in gate.controls}
        a = view[self._slices({**on, gate.target: 0})]
        b = view[self._slices({**on, gate.target: 1})]
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        sb = b * s
        b *= c
        b += a * s  # s a + c b
        a *= c
        a -= sb  # c a - s b

    def _apply_exchange(self, gate: Gate) -> None:
        """swap and cnot: exchange two quarters of the state."""
        if gate.kind == "swap":
            qa, qb = gate.qubits
            lo, hi = {qa: 0, qb: 1}, {qa: 1, qb: 0}
        else:
            control, target = gate.qubits
            lo, hi = {control: 1, target: 0}, {control: 1, target: 1}
        view = self._view()
        lo, hi = view[self._slices(lo)], view[self._slices(hi)]
        saved = lo.copy()
        lo[...] = hi
        hi[...] = saved

    _GATE_KERNELS = {
        "h": _apply_hadamard,
        "ry": _apply_rotation,
        "cry": _apply_rotation,
        "swap": _apply_exchange,
        "cnot": _apply_exchange,
    }

    # -- measurement -----------------------------------------------------------

    def measure_all(self, rng: np.random.Generator) -> int:
        """Sample a basis state (as a little-endian integer) from |amp|^2."""
        probs = self.probabilities()
        total = probs.sum()
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ValueError(f"state is not normalized (sum of probabilities {total})")
        cumulative = np.cumsum(probs)
        return int(np.searchsorted(cumulative, rng.random() * total, side="right"))

    def marginal(self, qubits) -> np.ndarray:
        """Probability distribution over the listed qubits, qubits[0] least significant."""
        qubits = list(qubits)
        probs = self.probabilities().reshape([2] * self.num_qubits)
        axes_keep = [self.num_qubits - 1 - q for q in qubits]
        drop = tuple(ax for ax in range(self.num_qubits) if ax not in axes_keep)
        marg = probs.sum(axis=drop) if drop else probs
        # Surviving axes sit in ascending order; put qubits[0] at the last
        # (least significant) axis of the flattened result.
        current = sorted(axes_keep)
        desired = [self.num_qubits - 1 - q for q in reversed(qubits)]
        marg = np.transpose(marg, [current.index(ax) for ax in desired])
        return np.ascontiguousarray(marg).reshape(-1)


def run_circuit(
    circuit: Circuit, seed: int | None = None, validate: bool = False
) -> tuple[int, StateVector]:
    """Apply all gates to |0...0>, then measure every qubit once.

    Returns the sampled basis state (little-endian integer) and the
    pre-measurement statevector for assertions.
    """
    sv = StateVector(circuit.num_qubits)
    sv.apply_all(circuit.gates, validate=validate)
    rng = np.random.default_rng(seed)
    return sv.measure_all(rng), sv


def signed_value(raw: int, m: int) -> int:
    """Integer held by an m-bit two's-complement register reading `raw`."""
    return raw - (1 << m) if raw >= 1 << (m - 1) else raw


def readout_value(bits: int, circuit: Circuit) -> int:
    """Two's-complement value register extracted from a measured basis state."""
    m = circuit.num_value
    return signed_value((bits >> circuit.num_vars) & ((1 << m) - 1), m)


def readout_vars(bits: int, circuit: Circuit) -> int:
    return bits & ((1 << circuit.num_vars) - 1)

"""Dense statevector simulator for small registers.

Amplitudes are indexed little-endian: basis state i has qubit q at bit q of
i, matching the circuit module's conventions.  The register is capped at 26
qubits (a 1 GiB amplitude array); anything larger belongs to the emulated
search backend, not to exact simulation.
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, Gate

MAX_QUBITS = 26


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
        sel: list = [slice(None)] * self.num_qubits
        for qubit, bit in assignment.items():
            sel[self.num_qubits - 1 - qubit] = bit
        return tuple(sel)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes)

    # -- gate application ------------------------------------------------------

    def apply(self, gate: Gate) -> "StateVector":
        if any(q >= self.num_qubits for q in gate.qubits):
            raise IndexError(f"gate {gate} outside {self.num_qubits}-qubit register")
        view = self._view()
        kind = gate.kind
        if kind == "h":
            (q,) = gate.qubits
            a0 = view[self._slices({q: 0})].copy()
            a1 = view[self._slices({q: 1})].copy()
            inv = 1.0 / math.sqrt(2.0)
            view[self._slices({q: 0})] = (a0 + a1) * inv
            view[self._slices({q: 1})] = (a0 - a1) * inv
        elif kind == "x":
            (q,) = gate.qubits
            lo, hi = self._slices({q: 0}), self._slices({q: 1})
            a0 = view[lo].copy()
            view[lo] = view[hi]
            view[hi] = a0
        elif kind == "z":
            (q,) = gate.qubits
            view[self._slices({q: 1})] *= -1.0
        elif kind == "phase":
            (q,) = gate.qubits
            view[self._slices({q: 1})] *= np.exp(1j * gate.angle)
        elif kind == "rz":
            (q,) = gate.qubits
            view[self._slices({q: 0})] *= np.exp(-0.5j * gate.angle)
            view[self._slices({q: 1})] *= np.exp(0.5j * gate.angle)
        elif kind == "ry":
            self._rotate_y(view, {}, gate.qubits[0], gate.angle)
        elif kind == "swap":
            qa, qb = gate.qubits
            lo = self._slices({qa: 0, qb: 1})
            hi = self._slices({qa: 1, qb: 0})
            tmp = view[lo].copy()
            view[lo] = view[hi]
            view[hi] = tmp
        elif kind == "cnot":
            control, target = gate.qubits
            lo = self._slices({control: 1, target: 0})
            hi = self._slices({control: 1, target: 1})
            tmp = view[lo].copy()
            view[lo] = view[hi]
            view[hi] = tmp
        elif kind == "cphase":
            sel = self._slices({q: 1 for q in gate.qubits})
            view[sel] *= np.exp(1j * gate.angle)
        elif kind == "crz":
            on = {q: 1 for q in gate.controls}
            view[self._slices({**on, gate.target: 0})] *= np.exp(-0.5j * gate.angle)
            view[self._slices({**on, gate.target: 1})] *= np.exp(0.5j * gate.angle)
        elif kind == "cry":
            self._rotate_y(view, {q: 1 for q in gate.controls}, gate.target, gate.angle)
        else:  # pragma: no cover - Gate constructor rejects unknown kinds
            raise ValueError(f"unsupported gate kind {kind!r}")
        return self

    def _rotate_y(self, view: np.ndarray, controls: dict[int, int], target: int, angle: float) -> None:
        lo = self._slices({**controls, target: 0})
        hi = self._slices({**controls, target: 1})
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        a0 = view[lo].copy()
        a1 = view[hi].copy()
        view[lo] = c * a0 - s * a1
        view[hi] = s * a0 + c * a1

    def apply_all(self, gates, validate: bool = False) -> "StateVector":
        for gate in gates:
            self.apply(gate)
            if validate and abs(self.norm() - 1.0) > 1e-9:
                raise AssertionError(f"norm drifted after {gate}")
        return self

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

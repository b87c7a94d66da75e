"""Dense statevector simulator for small registers.

Amplitudes are indexed little-endian: basis state i has qubit q at bit q of
i, matching the circuit module's conventions.  The register is capped at
EMULATION_SPACE_CAP amplitudes, 26 qubits (a 1 GiB amplitude array); anything
larger belongs to the emulated search backend, not to exact simulation.

Gates are applied in runs of one gate class, each run in one pass over the
register where it can be.  A run of Hadamards is H on the qubits it hits an
odd number of times, applied as one real Walsh-matrix product per block of
up to four adjacent qubits.  A run of diagonal phase gates is a phase
polynomial over its qubits: its complex factor table comes from one
subset-product transform of e^{i theta} seeds, and the state is multiplied
by it once.  A run of x gates is one flip of the state and a run of swaps
one axis permutation, each copied once.  No kernel holds more than one
state of temporary memory, and a kernel may replace ``amplitudes`` with a
new array (see ``StateVector.apply_all``).
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import groupby
from operator import and_, or_

import numpy as np

from .circuits import EMULATION_SPACE_CAP, Circuit, Gate, SpaceScaleError, gate_outside

MAX_QUBITS = EMULATION_SPACE_CAP.bit_length() - 1


_DIAGONAL = frozenset({"z", "phase", "rz", "cphase", "crz"})

# Hadamards are applied in blocks of at most this many adjacent qubits; at 20
# qubits a layer took 13.5-15 ms in blocks of 4, 14-24 ms in blocks of 3 and
# 19-27 ms in blocks of 5 (2-core x86 host, OpenBLAS).
_HADAMARD_BLOCK = 4

# _WALSH[g] is H tensored g times: the matrix of Hadamards on g adjacent qubits.
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_WALSH = [reduce(np.kron, [_H] * g, np.ones((1, 1))) for g in range(_HADAMARD_BLOCK + 1)]


def _run_class(gate: Gate) -> str:
    """Gates of one class next to each other form one run for `apply_all`."""
    return "diagonal" if gate.kind in _DIAGONAL else gate.kind


def _axis_runs(num_qubits: int, key) -> list[list]:
    """The state's axes, top qubit first, with adjacent qubits of equal
    ``key(q)`` merged into one: a list of [key, axis length] pairs."""
    axes: list[list] = []
    for q in reversed(range(num_qubits)):
        k = key(q)
        if axes and axes[-1][0] == k:
            axes[-1][1] *= 2
        else:
            axes.append([k, 2])
    return axes


class StateVector:
    """Mutable dense state of `num_qubits` qubits, initially |0...0>."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if num_qubits > MAX_QUBITS:
            raise SpaceScaleError(
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

        Each run class has one kernel:

        * h: H on the qubits the run hits an odd number of times, split into
          blocks of at most four adjacent qubits.  On the state's float view,
          a block of g qubits from qubit lo whose top qubit is at most 3
          right-multiplies the (rows, 2^(lo+g+1)) view by W_g (x) I; any
          other left-multiplies the (rows, 2^g, 2^(lo+1)) view by the Walsh
          matrix W_g.
        * diagonal (z, phase, rz, cphase, crz): one phase polynomial over
          the run's support.  phase and cphase add a*prod(b), z adds pi*b,
          and rz and crz add a*prod(controls)*(b_t - 1/2).  Each term seeds
          e^{i a} at its mask in a table of ones, one subset-product
          transform makes every entry the product of its subsets' seeds, and
          the state is multiplied once, broadcast over the other qubits.
          The phase is 0 wherever a qubit that every term contains is 0, so
          only the slice where all such qubits are 1 is multiplied.
        * x: one flip over the axes of the qubits flipped an odd number of
          times; swap: one permutation of the qubits' axes.  Each is copied
          once.
        * ry and cry rotate the two halves of their target in place; cnot
          exchanges two quarters.  These go gate by gate.

        Temporary memory stays within one state: a Hadamard block or a copy
        writes one new state, a diagonal table over every qubit is one
        state, an ry holds one state and a cnot a quarter.  Kernels may
        replace ``amplitudes`` with a new array, so a reference taken before
        the call can hold the old state.

        With ``validate`` every gate is applied as a run of one and the norm
        is checked after it.
        """
        gates = tuple(gates)
        n = self.num_qubits
        bad = gate_outside(gates, n)
        if bad is not None:
            raise IndexError(f"gate {bad} outside {n}-qubit register")
        if validate:
            runs = ((_run_class(gate), (gate,)) for gate in gates)
        else:
            runs = ((cls, tuple(run)) for cls, run in groupby(gates, key=_run_class))
        for cls, run in runs:
            self._KERNELS[cls](self, run)
            if validate and abs(self.norm() - 1.0) > 1e-9:
                raise AssertionError(f"norm drifted after {run[0]}")
        return self

    def _apply_hadamards(self, run: tuple[Gate, ...]) -> None:
        odd: set[int] = set()
        for _, qubits, _ in run:
            odd ^= set(qubits)
        blocks: list[list[int]] = []
        for q in sorted(odd):
            if blocks and blocks[-1][-1] == q - 1 and len(blocks[-1]) < _HADAMARD_BLOCK:
                blocks[-1].append(q)
            else:
                blocks.append([q])
        for block in blocks:
            lo, g = block[0], len(block)
            walsh = _WALSH[g]
            # Below qubit 4 the left product would be many tiny matrix
            # products; one product with a small Kronecker matrix is faster.
            # No view of the old state outlives its product, so the old
            # state is freed as soon as ``amplitudes`` is rebound.
            floats = self.amplitudes.view(np.float64)
            if block[-1] <= 3:
                new = floats.reshape(-1, 2 << (lo + g)) @ np.kron(walsh, np.eye(2 << lo))
            else:
                new = walsh @ floats.reshape(-1, 1 << g, 2 << lo)
            del floats
            self.amplitudes = new.view(np.complex128).reshape(-1)

    def _apply_phases(self, run: tuple[Gate, ...]) -> None:
        terms: dict[int, float] = {}
        for kind, qubits, angle in run:
            mask = 0
            for q in qubits:
                mask |= 1 << q
            if kind == "z":
                angle = math.pi
            elif kind in ("rz", "crz"):
                controls = mask ^ (1 << qubits[-1])
                terms[controls] = terms.get(controls, 0.0) - 0.5 * angle
            terms[mask] = terms.get(mask, 0.0) + angle
        terms = {mask: angle for mask, angle in terms.items() if angle}
        if not terms:
            return
        common = reduce(and_, terms)
        support = reduce(or_, terms) & ~common
        free = [q for q in range(self.num_qubits) if support >> q & 1]
        # Table index i has bit j set when qubit free[j] is 1.
        masks = np.fromiter(terms, dtype=np.int64, count=len(terms))
        index = np.zeros_like(masks)
        for j, q in enumerate(free):
            index |= (masks >> q & 1) << j
        factor = np.ones(1 << len(free), dtype=np.complex128)
        factor[index] = np.exp(1j * np.fromiter(terms.values(), dtype=np.float64, count=len(terms)))
        for j in range(len(free)):
            pair = factor.reshape(-1, 2, 1 << j)
            pair[:, 1] *= pair[:, 0]
        # The table's axes follow the free qubits from the top, like the
        # state's; adjacent qubits of one kind share an axis.
        axes = _axis_runs(
            self.num_qubits, lambda q: "free" if support >> q & 1 else "one" if common >> q & 1 else "out"
        )
        view = self.amplitudes.reshape([size for _, size in axes])
        block = view[tuple(slice(size - 1, None) if key == "one" else slice(None) for key, size in axes)]
        block *= factor.reshape([size if key == "free" else 1 for key, size in axes])

    def _apply_flips(self, run: tuple[Gate, ...]) -> None:
        flipped: set[int] = set()
        for _, qubits, _ in run:
            flipped ^= set(qubits)
        if flipped:
            axes = _axis_runs(self.num_qubits, flipped.__contains__)
            view = self.amplitudes.reshape([size for _, size in axes])
            turned = tuple(i for i, (key, _) in enumerate(axes) if key)
            self.amplitudes = np.flip(view, axis=turned).copy().reshape(-1)

    def _apply_swaps(self, run: tuple[Gate, ...]) -> None:
        # source[q] is the qubit whose bit the run moves to qubit q.
        source = list(range(self.num_qubits))
        for _, (a, b), _ in run:
            source[a], source[b] = source[b], source[a]
        if source == list(range(self.num_qubits)):
            return
        # Qubits the run leaves in place share axes; each moved one has its own.
        axes = _axis_runs(self.num_qubits, lambda q: q if source[q] != q else -1)
        position = {key: i for i, (key, _) in enumerate(axes)}
        view = self.amplitudes.reshape([size for _, size in axes])
        order = [i if key == -1 else position[source[key]] for i, (key, _) in enumerate(axes)]
        self.amplitudes = view.transpose(order).copy().reshape(-1)

    def _apply_rotations(self, run: tuple[Gate, ...]) -> None:
        """ry and cry: [[c, -s], [s, c]] on the target's halves under the controls."""
        view = self._view()
        for gate in run:
            on = {q: 1 for q in gate.controls}
            a = view[self._slices({**on, gate.target: 0})]
            b = view[self._slices({**on, gate.target: 1})]
            c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
            sb = b * s
            b *= c
            b += a * s  # s a + c b
            a *= c
            a -= sb  # c a - s b

    def _apply_cnots(self, run: tuple[Gate, ...]) -> None:
        """Exchange the target's two quarters under the control, gate by gate."""
        view = self._view()
        for gate in run:
            control, target = gate.qubits
            lo = view[self._slices({control: 1, target: 0})]
            hi = view[self._slices({control: 1, target: 1})]
            saved = lo.copy()
            lo[...] = hi
            hi[...] = saved

    _KERNELS = {
        "h": _apply_hadamards,
        "diagonal": _apply_phases,
        "x": _apply_flips,
        "swap": _apply_swaps,
        "ry": _apply_rotations,
        "cry": _apply_rotations,
        "cnot": _apply_cnots,
    }

    # -- measurement -----------------------------------------------------------

    def measure_all(self, rng: np.random.Generator) -> int:
        """Sample a basis state (as a little-endian integer) from |amp|^2."""
        probs = self.probabilities()
        total = probs.sum()
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ValueError(f"state is not normalized (sum of probabilities {total})")
        # Drawn against the last cumulative sum, not the pairwise `total`:
        # the two can differ in the last bits, and a draw past the end would
        # name a basis state outside the register.
        cumulative = np.cumsum(probs)
        return int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))

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

"""Dense statevector simulator for small registers.

Amplitudes are indexed little-endian: basis state i has qubit q at bit q of
i, matching the circuit module's conventions.  The register is capped at
EMULATION_SPACE_CAP amplitudes, 26 qubits (a 1 GiB amplitude array); anything
larger belongs to the emulated search backend, not to exact simulation.

Gates are applied in runs of one gate class, each in as few passes over the
register as it can be (see ``StateVector.apply_all``): a block that is
exactly the builder's QFT or inverse QFT on two or more adjacent qubits as
one in-place FFT along the register's axis, a run of real gates (h, x, ry,
cry, cnot, swap) as one composed real matrix per window of at most four
adjacent qubits, and a run of diagonal phase gates as unit-modulus factor
tables of at most 2^16 entries, each multiplied into a slice of the state.
Every kernel works on the state in place, at most 2^14 floats (128 KiB) at
a time, and never rebinds ``amplitudes``: beside the state it holds one
128 KiB buffer, a chunk's temporaries and a 1 MiB table, so a simulation
needs one state of memory.  `StateVector.marginal` sums chunk by chunk;
`StateVector.probabilities`, and with it `measure_all` and ``qap
simulate``, still returns a half-state array of |amp|^2 by design.  On a
2-core x86 host, prep plus one Grover step takes 0.10-0.14 s at 20 qubits
(hubo-hw, N=3, scale 100, 1,992 gates), 0.50-0.64 s at 22 (qubo-d, N=3),
1.1-1.2 s at 23 (hubo-hw, N=4), 2.5-2.7 s at 24 (qubo-h, N=3) and 5.0-5.3 s
at 25 (qubo-d, N=4, scale 1), in a process that peaks at 549 MB.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache, reduce
from itertools import groupby
from operator import and_, itemgetter, or_

import numpy as np

from .circuits import Circuit, Gate, gate_outside, iqft_gates, qft_gates
from .space import EMULATION_SPACE_CAP, SpaceScaleError

MAX_QUBITS = EMULATION_SPACE_CAP.bit_length() - 1


_DIAGONAL = frozenset({"z", "phase", "rz", "cphase", "crz"})
_REAL = frozenset({"h", "x", "ry", "cry", "cnot", "swap"})

# A run of real gates is composed into one matrix per window of at most this
# many adjacent qubits; at 20 qubits a Hadamard layer took 13.5-15 ms in
# windows of 4, 14-24 ms in windows of 3 and 19-27 ms in windows of 5 (2-core
# x86 host, OpenBLAS).
_WINDOW = 4

# Every kernel walks the state in pieces of at most this many float64s
# (128 KiB), and a window's product goes through one buffer of that size, so
# no kernel holds more than a few pieces beside the state.  At 20 qubits a
# GAS iteration's windows took 39-47 ms in pieces of 2^14, and 42-45 ms, with
# outliers of 126 ms, in pieces of 2^15, where OpenBLAS threads each product
# (2-core x86 host).
_CHUNK = 1 << 14

# A diagonal run's factor table covers at most this many free qubits (2^16
# entries, 1 MiB); the free qubits above them select slices of the state.
_TABLE_BITS = 16

# Target matrices [[a, b], [c, d]] of the fixed real gates, as (a, b, c, d).
_HALF = math.sqrt(0.5)
_FLIP = (0.0, 1.0, 1.0, 0.0)
_TARGETS = {"h": (_HALF, _HALF, _HALF, -_HALF), "x": _FLIP, "cnot": _FLIP}


def _run_class(gate: Gate) -> str:
    """Gates of one class next to each other form one run for `apply_all`."""
    kind = gate.kind
    return "diagonal" if kind in _DIAGONAL else "real" if kind in _REAL else kind


@cache
def _fourier_block(lo: int, m: int, inverse: bool) -> tuple[Gate, ...]:
    """The builder's QFT (or inverse QFT) gates on qubits lo..lo+m-1.

    Spans are looked up only after every qubit is checked against the
    register, so the cache holds at most 2 * MAX_QUBITS^2 blocks.
    """
    qubits = range(lo, lo + m)
    return tuple(iqft_gates(qubits) if inverse else qft_gates(qubits))


def _fourier_spans(gates: tuple[Gate, ...]) -> list[tuple[int, int]]:
    """(start, stop) of each span of `gates` that is exactly a QFT or inverse
    QFT on two or more adjacent qubits, left to right and disjoint.

    Each Hadamard is tried as the h(top) that opens a QFT on lo..top, followed
    by cphase(top - 1, top), ..., cphase(lo, top), and as the h(lo) that
    follows the m // 2 swaps of an inverse QFT, the last of them swap(lo,
    top).  A candidate counts only when its gates equal the builder's, kind,
    qubits and angle; the builder's angles are finite and nonzero, so float
    equality is bit equality.
    """
    spans: list[tuple[int, int]] = []
    end = 0
    for i, (kind, qubits, _) in enumerate(gates):
        if kind != "h" or i < end:
            continue
        q = qubits[0]
        candidates = []
        swap = gates[i - 1] if i else None
        if swap and swap[0] == "swap" and swap[1][0] == q < swap[1][1]:
            m = swap[1][1] - q + 1
            candidates.append((i - m // 2, _fourier_block(q, m, True)))
        j = i + 1
        while j < len(gates) and gates[j][0] == "cphase" and gates[j][1] == (q - (j - i), q):
            j += 1
        if j > i + 1:
            candidates.append((i, _fourier_block(q - (j - i - 1), j - i, False)))
        for start, block in candidates:
            if start >= end and gates[start : start + len(block)] == block:
                spans.append((start, start + len(block)))
                end = start + len(block)
                break
    return spans


def _runs(gates: tuple[Gate, ...]):
    """(class, run) pairs for `StateVector.apply_all`: each exact QFT or
    inverse-QFT block as one "fourier" run, and maximal runs of one gate
    class between them."""
    done = 0
    for start, stop in [*_fourier_spans(gates), (len(gates), len(gates))]:
        for cls, run in groupby(gates[done:start], key=_run_class):
            yield cls, tuple(run)
        if start < stop:
            yield "fourier", gates[start:stop]
        done = stop


def _apply_real_gate(array: np.ndarray, num_qubits: int, gate: Gate, base: int = 0) -> None:
    """Apply a real gate in place to the rows of `array`, shape (2^num_qubits, batch).

    Row i has qubit base + j at bit j; each column (the real and imaginary
    parts of a state, or a window identity's basis vectors) is transformed
    alike.  The 2x2 target matrix mixes the target's halves where the
    controls are 1, piece by piece (`_pieces`), so no temporary exceeds
    _CHUNK entries; swap(a, b) is cnot(a, b), cnot(b, a), cnot(a, b).
    """
    kind, qubits, angle = gate
    if kind == "swap":
        a, b = qubits
        for pair in ((a, b), (b, a), (a, b)):
            _apply_real_gate(array, num_qubits, Gate("cnot", pair), base)
        return
    if kind in _TARGETS:
        a, b, c, d = _TARGETS[kind]
    else:  # ry, cry
        a = d = math.cos(angle / 2.0)
        c = math.sin(angle / 2.0)
        b = -c
    view = array.reshape([2] * num_qubits + [-1])
    index: list = [slice(None)] * num_qubits
    for q in qubits[:-1]:
        index[num_qubits - 1 - (q - base)] = 1
    # The controlled block, its target axis moved to the front: the
    # target's axis in the view, less the control axes above it.
    target = qubits[-1]
    axis = num_qubits - 1 - (target - base) - sum(q > target for q in qubits[:-1])
    block = view[tuple(index)]
    block = block.transpose(axis, *range(axis), *range(axis + 1, block.ndim))
    for low, high in _pieces(block, _CHUNK):
        new_low = low * a
        new_low += high * b
        high *= d
        high += low * c
        low[...] = new_low


def _pieces(block: np.ndarray, size: int):
    """Views block[:, i_1, ..., i_j] over every index of a prefix of block's
    later axes, the shortest prefix whose views hold at most `size` entries
    (or all but the last axis); a block of at most `size` entries is one piece."""
    if block.size <= size:
        yield block
        return
    j, tail = 1, block.size
    while tail > size and j < block.ndim - 1:
        tail //= block.shape[j]
        j += 1
    for index in np.ndindex(*block.shape[1:j]):
        yield block[(slice(None), *index)]


def _chunks(view: np.ndarray, size: int):
    """Slices of `view`, shape (outer, mid, inner), of at most `size` entries
    each: runs of whole outer rows where one fits, else runs of the inner
    axis of one row; a view of at most `size` entries is one chunk."""
    if view.size <= size:
        yield view
        return
    outer, mid, inner = view.shape
    rows = size // (mid * inner)
    if rows:
        for r in range(0, outer, rows):
            yield view[r : r + rows]
    else:
        step = size // mid
        for r in range(outer):
            for c in range(0, inner, step):
                yield view[r : r + 1, :, c : c + step]


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


def _subset_products(index: list[int], seeds: list[complex], width: int) -> np.ndarray:
    """Table of 2^width entries whose entry i is the product of the seeds at
    every index that is a subset of i's bits (indices ascending, below 2^width).

    The table is built in place, split by split on its top index bit: the
    low half is the table of the seeds without that bit, and the high half
    is first the table of the seeds with it, then multiplied by the low
    half.  Seeds whose indices all lie below 2^t are built over the first
    2^t entries, which are then copied up by broadcasting; no seeds give
    ones.  A phase ladder, whose seeds are subsets of the variables times
    one value qubit, so costs about 2^width contiguous multiplies and as
    many copied entries, not the width * 2^(width-1) strided multiplies of
    a per-axis transform.  No split allocates a temporary.
    """
    table = np.empty(1 << width, dtype=np.complex128)
    _fill_products(table, index, seeds, 0, len(index), 0)
    return table


def _fill_products(
    table: np.ndarray, index: list[int], seeds: list[complex], lo: int, hi: int, base: int
) -> None:
    """Fill `table`, the factor table's entries from `base` on, from the seeds
    at index[lo:hi], which all lie in [base, base + table.size)."""
    if lo == hi:
        table[...] = 1.0
        return
    span = 1 << (index[hi - 1] - base).bit_length()
    if span < table.size:
        _fill_products(table[:span], index, seeds, lo, hi, base)
        table[span:].reshape(-1, span)[...] = table[:span]
    elif span == 1:
        table[0] = seeds[lo]
    else:
        half = span >> 1
        mid = bisect_left(index, base + half, lo, hi)
        _fill_products(table[:half], index, seeds, lo, mid, base)
        _fill_products(table[half:], index, seeds, mid, hi, base + half)
        table[half:] *= table[:half]


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
            # Written, not calloc'ed: the kernels read before they write, and
            # a read of an untouched calloc'ed page maps the zero page, so
            # each later write would fault a 4 KiB page (1.4-1.6 s at 25
            # qubits, against 0.1-0.4 s to write the zeros).
            self.amplitudes = np.empty(1 << num_qubits, dtype=np.complex128)
            self.amplitudes.fill(0.0)
            self.amplitudes[0] = 1.0
        else:
            amplitudes = np.asarray(amplitudes, dtype=np.complex128)
            if amplitudes.shape != (1 << num_qubits,):
                raise ValueError("amplitude array has wrong length")
            self.amplitudes = amplitudes.copy()

    # -- helpers -------------------------------------------------------------

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)

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

        * fourier: a span that is exactly ``qft_gates`` or ``iqft_gates`` on
          qubits lo..lo+m-1, m >= 2, gate for gate with the same kinds,
          qubits and angles (`_fourier_spans`), is one length-2^m DFT along
          the middle axis of the (rows, 2^m, 2^lo) view, in place: numpy's
          ifft for the QFT and fft for the inverse, both with the unitary
          norm.  Every other gate, however close to such a block, goes to
          the kernels below.
        * real (h, x, ry, cry, cnot, swap): disjoint windows of at most four
          adjacent qubits.  A gate joins the windows it overlaps or,
          overlapping none, the nearest one, while the span stays within
          four qubits; else the windows it overlaps are applied first and
          it starts its own.  A window's gates are composed in order, by
          `_apply_real_gate` on its identity, into one real 2^w x 2^w
          matrix M.  On the state's float view, a window from qubit lo with
          top qubit at most 3 right-multiplies the (rows, 2^(top+2)) view
          by M^T (x) I; any other left-multiplies the (rows, 2^w, 2^(lo+1))
          view by M.  Either product goes chunk by chunk (`_chunks`) into
          one buffer and is copied back.  A gate spanning more than four
          qubits is applied alone, by `_apply_real_gate` on the state's
          float view, piece by piece.
        * diagonal (z, phase, rz, cphase, crz): one phase polynomial over
          the run's support.  phase and cphase add a*prod(b), z adds pi*b,
          and rz and crz add a*prod(controls)*(b_t - 1/2).  Each term is a
          seed e^{i a} at its mask, and each amplitude is multiplied by
          the product of the seeds at its subsets.  The phase is 0 wherever
          a qubit that every term contains is 0, so only the slice where
          all such qubits are 1 is multiplied.  Of the other qubits in the
          support, the lowest 16 are the table's and the rest are top
          qubits.  The seeds are grouped by their top part p, and each
          group's table over the low qubits, whose entry i is the product
          of the group's seeds at i's subsets, multiplies the slice where
          p's qubits are 1, broadcast over the others: entry (P, i) gets
          the product over p within P of table_p(i).  `_subset_products`
          builds a table in place, split by split on its top index bit, so
          a k-qubit phase ladder costs about 2^k contiguous multiplies and
          copies rather than k*2^(k-1) strided multiplies.  A ladder's
          seeds carry at most one top (value) qubit each, so it multiplies
          the whole state at most once, plus one half-state slice per top
          qubit.

        The builders emit swaps only inside Fourier blocks, so the real
        kernel meets a swap only in a hand-written gate list.

        Every kernel works on ``amplitudes`` in place and never rebinds it,
        so a reference taken before the call holds the result.  Beside the
        state a kernel holds at most one product buffer of 2^14 floats
        (128 KiB), temporaries of one piece of at most that size, and a
        factor table of at most 2^16 entries (1 MiB); an FFT writes into
        the state.

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
            runs = _runs(gates)
        for cls, run in runs:
            self._KERNELS[cls](self, run)
            if validate and abs(self.norm() - 1.0) > 1e-9:
                raise AssertionError(f"norm drifted after {run[0]}")
        return self

    def _apply_real(self, run: tuple[Gate, ...]) -> None:
        # Pending windows (lo, hi, gates) over disjoint spans of qubits lo..hi.
        windows: list[tuple[int, int, list[Gate]]] = []
        for gate in run:
            lo, hi = min(gate[1]), max(gate[1])
            hit = [w for w in windows if w[0] <= hi and lo <= w[1]]
            # A gate joins the windows it overlaps or, overlapping none, the nearest.
            join = hit or sorted(windows, key=lambda w: max(hi, w[1]) - min(lo, w[0]))[:1]
            bottom = min([lo, *(w[0] for w in join)])
            top = max([hi, *(w[1] for w in join)])
            if top - bottom >= _WINDOW:
                # Too wide: the windows it overlaps are applied, and it starts alone.
                for window in hit:
                    windows.remove(window)
                    self._apply_window(*window)
                join, bottom, top = [], lo, hi
            for window in join:
                windows.remove(window)
            if top - bottom < _WINDOW:
                windows.append((bottom, top, [g for w in join for g in w[2]] + [gate]))
            else:
                _apply_real_gate(self.amplitudes.view(np.float64).reshape(-1, 2), self.num_qubits, gate)
        for window in windows:
            self._apply_window(*window)

    def _apply_window(self, lo: int, hi: int, gates: list[Gate]) -> None:
        """Multiply the composed matrix of `gates` on qubits lo..hi into the
        state, one chunk at a time through one buffer."""
        width = hi - lo + 1
        matrix = np.eye(1 << width)
        for gate in gates:
            _apply_real_gate(matrix, width, gate, lo)
        floats = self.amplitudes.view(np.float64)
        # Below qubit 4 the left product would be many tiny matrix products;
        # one product with a small Kronecker matrix is faster.
        if hi <= 3:
            kron = np.kron(matrix.T, np.eye(2 << lo))
            view = floats.reshape(-1, 1, len(kron))

            def product(chunk, out):
                np.matmul(chunk[:, 0], kron, out=out[:, 0])
        else:
            view = floats.reshape(-1, 1 << width, 2 << lo)

            def product(chunk, out):
                np.matmul(matrix, chunk, out=out)
        buffer = np.empty(min(_CHUNK, floats.size))
        for chunk in _chunks(view, buffer.size):
            out = buffer[: chunk.size].reshape(chunk.shape)
            product(chunk, out)
            chunk[...] = out

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
        # In mask order, which is also the order of their table indices.
        terms = {mask: angle for mask, angle in sorted(terms.items()) if angle}
        if not terms:
            return
        common = reduce(and_, terms)
        support = reduce(or_, terms) & ~common
        free = [q for q in range(self.num_qubits) if support >> q & 1]
        low = free[:_TABLE_BITS]
        lows = reduce(or_, (1 << q for q in low), 0)
        # Table index i has bit j set when qubit low[j] is 1.
        masks = np.fromiter(terms, dtype=np.int64, count=len(terms))
        index = np.zeros_like(masks)
        for j, q in enumerate(low):
            index |= (masks >> q & 1) << j
        seeds = np.exp(1j * np.fromiter(terms.values(), dtype=np.float64, count=len(terms)))
        # The top qubits lie above the low ones, so the masks, ascending,
        # come in runs of one top part p, each ascending in its table index.
        # Run p's table multiplies the slice where p's qubits are 1, so
        # entry (P, i) gets the product over p within P of table_p(i): the
        # product of the seeds at its subsets.
        tops = (masks & (support & ~lows)).tolist()
        for part, run in groupby(zip(tops, index.tolist(), seeds.tolist()), key=itemgetter(0)):
            _, run_index, run_seeds = zip(*run)
            ones = common | part
            # The table's axes follow the low qubits from the top, like the
            # state's; adjacent qubits of one kind share an axis.
            axes = _axis_runs(
                self.num_qubits, lambda q: "low" if lows >> q & 1 else "one" if ones >> q & 1 else "out"
            )
            view = self.amplitudes.reshape([size for _, size in axes])
            block = view[tuple(slice(size - 1, None) if key == "one" else slice(None) for key, size in axes)]
            # One table at a time: it is freed when the multiply ends.
            block *= _subset_products(list(run_index), list(run_seeds), len(low)).reshape(
                [size if key == "low" else 1 for key, size in axes]
            )

    def _apply_fourier(self, run: tuple[Gate, ...]) -> None:
        # The QFT maps |x> to 2^(-m/2) sum_y e^{+2 pi i xy / 2^m} |y> on the
        # register's axis: numpy's ifft with the unitary norm, and the
        # inverse QFT its fft.  Both write in place through ``out``.
        qubits = {q for gate in run for q in gate[1]}
        view = self.amplitudes.reshape(-1, 1 << len(qubits), 1 << min(qubits))
        transform = np.fft.fft if run[0][0] == "swap" else np.fft.ifft
        transform(view, axis=1, norm="ortho", out=view)

    _KERNELS = {"real": _apply_real, "diagonal": _apply_phases, "fourier": _apply_fourier}

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
        """Probability distribution over the listed qubits, qubits[0] least significant.

        Raises IndexError for a qubit outside the register and ValueError for
        a qubit listed twice.
        """
        qubits = list(qubits)
        seen: set[int] = set()
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise IndexError(f"qubit {q} outside {self.num_qubits}-qubit register")
            if q in seen:
                raise ValueError(f"qubit {q} listed twice")
            seen.add(q)
        # Rows of 2^local amplitudes, summed one at a time: each row's squared
        # floats over its dropped qubits add into the accumulator row that its
        # kept qubits above the row select.  A state of one row is summed
        # directly.  The real and imaginary parts are added last, once.
        kept = sorted(qubits)
        local = min(self.num_qubits, _CHUNK.bit_length() - 2)
        axes = _axis_runs(local, lambda q: q in seen)
        shape = [size for _, size in axes] + [2]
        drop = tuple(i for i, (keep, _) in enumerate(axes) if not keep)
        floats = self.amplitudes.view(np.float64)
        if local == self.num_qubits:
            acc = np.square(floats).reshape(shape).sum(axis=drop)
        else:
            above = [q - local for q in kept if q >= local]
            rows = floats.reshape(-1, 2 << local)
            numbers = np.arange(len(rows))
            targets = np.zeros_like(numbers)
            for j, q in enumerate(above):
                targets |= (numbers >> q & 1) << j
            acc = np.zeros((1 << len(above), 2 << (len(kept) - len(above))))
            squares = np.empty(rows.shape[1])
            for row, target in zip(rows, targets.tolist()):
                np.square(row, out=squares)
                acc[target] += squares.reshape(shape).sum(axis=drop).reshape(-1)
        acc = acc.reshape(-1, 2).sum(axis=1)
        # acc's axes are the kept qubits, top first; put qubits[0] at the
        # last (least significant) axis of the flattened result.
        axis = {q: len(kept) - 1 - i for i, q in enumerate(kept)}
        marg = np.transpose(acc.reshape([2] * len(kept)), [axis[q] for q in reversed(qubits)])
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

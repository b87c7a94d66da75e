"""Gate-level circuit IR for the adaptive Grover search pipeline.

Register layout and conventions, fixed here and relied on everywhere:

* Qubits are little-endian: basis-state index i has qubit q at bit q.
* A circuit with ``num_vars = n`` and ``num_value = m`` places the binary
  variables on qubits [0, n) (variable v on qubit v) and the value register
  on qubits [n, n+m), with qubit n+r carrying weight 2^r.  The top qubit
  n+m-1 is the two's-complement sign bit, so the threshold oracle is a single
  Z there.
* Each objective term with coefficient a becomes m phase rotations, one per
  value qubit, controlled on the term's variables: qubit n+r receives angle
  2^r * (2*pi*a / 2^m), reduced to [-pi, pi).  The inverse Fourier transform
  then turns the accumulated phases into the binary value of E(x) - y.

A gate is read and written as an immutable (kind, qubits, angle) tuple
record, Gate, with int qubits and a float angle.  For controlled kinds
(cphase, crz, cry, cnot) the last listed qubit is the target and the rest
are controls; "phase" is the diagonal [[1, 0], [0, e^{i*theta}]] gate and
"rz" its traceless twin.  h, x, z, ry, phase and rz act on exactly one
qubit, swap and cnot on exactly two, and cry, cphase and crz on at least two.

A Circuit stores its gates as four columns (GateColumns): a kind code per
gate (its index in KIND_NAMES), a qubit count per gate, all qubits in one
flat array, and an angle per gate (NaN where the kind takes none).  The
builders, the adjoint, the Rz substitution and count_gates work on whole
columns with numpy; a phase ladder of t terms over m value qubits is a few
array operations, not t*m Python records.  ``Circuit.gates`` builds the
tuple of Gate records (int qubits, float angles) from the columns on each
read; the simulator and the serializer read it.

Validation happens where an invariant is introduced, once.  ``Gate(...)``
checks kind, arity, distinct integer qubits and the angle, and stores the
angle as a float.  The phase ladder checks the value register and that no
term touches it (a polynomial's terms hold distinct variables by
construction); the adjoint and the Rz substitution derive their columns
from already checked ones.  ``Circuit`` checks its register sizes, that a
gate list holds Gate records, and range-checks all qubits with one min and
one max over the flat column.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .encodings import Formulation, FormulationKind
from .polynomials import MultilinearPolynomial

TWO_PI = 2.0 * math.pi

# Number of qubits each kind acts on: (least, most), None for no upper limit.
_ARITY: dict[str, tuple[int, int | None]] = {
    **dict.fromkeys(("h", "x", "z", "ry", "phase", "rz"), (1, 1)),
    **dict.fromkeys(("swap", "cnot"), (2, 2)),
    **dict.fromkeys(("cry", "cphase", "crz"), (2, None)),
}
GATE_KINDS = frozenset(_ARITY)
# A circuit's kind column holds each gate's index in this tuple.
KIND_NAMES = tuple(_ARITY)
_CODE = {kind: code for code, kind in enumerate(KIND_NAMES)}
_CONTROLLED = frozenset({"cnot", "cry", "cphase", "crz"})
_PARAMETRIC = frozenset({"phase", "rz", "ry", "cry", "cphase", "crz"})


def _kinds_table(*kinds: str) -> np.ndarray:
    """Boolean table over kind codes, True at the given kinds: table[kind_column] tests each gate."""
    table = np.zeros(len(KIND_NAMES), dtype=bool)
    table[[_CODE[kind] for kind in kinds]] = True
    return table


def _qubit_index(q) -> int:
    try:
        return int(operator.index(q))
    except TypeError:
        raise ValueError(f"qubit {q!r} is not an integer") from None


class Gate(tuple):
    """One gate, the immutable tuple record (kind, qubits, angle).

    The constructor is the one validating path: it raises ValueError for an
    unknown kind, a qubit that is not an integer (numpy integers are
    accepted), a qubit count the kind does not take, a repeated qubit, a
    missing or non-finite angle on a parametric kind, or an angle on any
    other kind.  Qubits are stored as a tuple of ints and the angle as a
    float.
    """

    __slots__ = ()

    def __new__(cls, kind: str, qubits: Iterable[int], angle: float | None = None) -> "Gate":
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        qubits = tuple(map(_qubit_index, qubits))
        least, most = _ARITY[kind]
        if len(qubits) < least or (most is not None and len(qubits) > most):
            takes = f"exactly {least}" if least == most else f"at least {least}"
            raise ValueError(f"gate {kind} takes {takes} qubits, got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in gate {kind} {qubits}")
        if kind in _PARAMETRIC:
            if angle is None or not math.isfinite(angle):
                raise ValueError(f"gate {kind} needs a finite angle")
            angle = float(angle)
        elif angle is not None:
            raise ValueError(f"gate {kind} takes no angle")
        return tuple.__new__(cls, (kind, qubits, angle))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Gate(kind={self[0]!r}, qubits={self[1]!r}, angle={self[2]!r})"

    kind = property(itemgetter(0))
    qubits = property(itemgetter(1))
    angle = property(itemgetter(2))

    @property
    def target(self) -> int:
        return self[1][-1]

    @property
    def controls(self) -> tuple[int, ...]:
        return self[1][:-1] if self[0] in _CONTROLLED else ()


class GateColumns(NamedTuple):
    """A gate list as columns: kind codes (int8), qubit counts and flat qubits (intp), angles."""

    kind: np.ndarray
    size: np.ndarray
    qubits: np.ndarray
    angle: np.ndarray


def _qubit_columns(qubit_tuples: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Qubit count per gate and the flat qubit array; ValueError for a qubit beyond int64."""
    size = np.fromiter(map(len, qubit_tuples), np.intp, len(qubit_tuples))
    try:
        flat = np.fromiter(chain.from_iterable(qubit_tuples), np.intp, int(size.sum()))
    except OverflowError:
        raise ValueError("gate qubit outside the int64 range") from None
    return size, flat


def _columns_of(gates: Sequence[Gate]) -> GateColumns:
    """Columns of a list of Gate records."""
    kinds, qubits, angles = zip(*gates) if gates else ((), (), ())
    size, flat = _qubit_columns(qubits)
    return GateColumns(
        np.fromiter(map(_CODE.__getitem__, kinds), np.int8, len(kinds)),
        size,
        flat,
        np.array([math.nan if a is None else a for a in angles], dtype=np.float64),
    )


def _join(*parts: GateColumns) -> GateColumns:
    """The gate lists one after the other."""
    return GateColumns(*map(np.concatenate, zip(*parts)))


def _adjoint(columns: GateColumns) -> GateColumns:
    """Adjoint of a gate list: reversed gate order, each gate's qubits kept, angles negated."""
    kind, size, qubits, angle = columns
    back = size[::-1]
    # Reversed gate g starts at old offset starts[::-1][g]; its new offset is new_starts[g].
    starts = np.cumsum(size) - size
    new_starts = np.cumsum(back) - back
    gather = np.arange(qubits.size) + np.repeat(starts[::-1] - new_starts, back)
    return GateColumns(kind[::-1], back, qubits[gather], -angle[::-1])


_record = partial(tuple.__new__, Gate)


def _records(columns: GateColumns) -> list[Gate]:
    """Gate records of the columns, with int qubits and float angles (None for NaN)."""
    kind, size, qubits, angle = columns
    flat = iter(qubits.tolist())
    return list(map(_record, zip(
        map(KIND_NAMES.__getitem__, kind.tolist()),
        [tuple(islice(flat, s)) for s in size.tolist()],
        [None if a != a else a for a in angle.tolist()],
    )))


def _first_outside(size: np.ndarray, flat: np.ndarray, num_qubits: int) -> int | None:
    """Index of the first gate with a qubit outside [0, num_qubits), or None.

    All qubits are checked with one min and one max over the flat column;
    the gates are searched only when one is out of range.
    """
    if not flat.size or (flat.min() >= 0 and flat.max() < num_qubits):
        return None
    first_bad = int(np.argmax((flat < 0) | (flat >= num_qubits)))
    return int(np.searchsorted(np.cumsum(size), first_bad, side="right"))


def gate_outside(gates: Sequence[Gate], num_qubits: int) -> Gate | None:
    """First gate with a qubit outside [0, num_qubits), or None."""
    index = _first_outside(*_qubit_columns([gate[1] for gate in gates]), num_qubits)
    return None if index is None else gates[index]


def _columns_equal(a: GateColumns, b: GateColumns) -> bool:
    return all(
        np.array_equal(x, y, equal_nan=x.dtype.kind == "f") for x, y in zip(a, b)
    )


class Circuit:
    """Ordered gates over a variable register and an optional value register.

    ``Circuit(num_vars, num_value, gates)`` takes a list of Gate records and
    stores them as GateColumns (``columns``); ``gates`` builds the tuple of
    records back on each read.  Raises ValueError for a negative register
    size or a qubit outside the registers and TypeError for a gate that is
    not a Gate record.  Circuits are immutable and equal when their
    registers and columns are (NaN angles compare equal).
    """

    __slots__ = ("num_vars", "num_value", "columns")

    def __init__(self, num_vars: int, num_value: int, gates: Iterable[Gate] = ()):
        gates = tuple(gates)
        if not set(map(type, gates)) <= {Gate}:
            raise TypeError("circuit gates must be Gate records")
        self._set(num_vars, num_value, _columns_of(gates))

    @classmethod
    def _from_columns(cls, num_vars: int, num_value: int, columns: GateColumns) -> "Circuit":
        """Circuit over columns derived from checked gates; registers and qubit ranges are checked."""
        circuit = object.__new__(cls)
        circuit._set(num_vars, num_value, columns)
        return circuit

    def _set(self, num_vars: int, num_value: int, columns: GateColumns) -> None:
        if num_vars < 0 or num_value < 0:
            raise ValueError(f"register sizes must be >= 0, got {num_vars} and {num_value}")
        for column in columns:
            column.flags.writeable = False
        setter = partial(object.__setattr__, self)
        setter("num_vars", num_vars)
        setter("num_value", num_value)
        setter("columns", columns)
        bad = _first_outside(columns.size, columns.qubits, self.num_qubits)
        if bad is not None:
            raise ValueError(f"gate {self.gates[bad]} outside {self.num_qubits}-qubit register")

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            (self.num_vars, self.num_value) == (other.num_vars, other.num_value)
            and _columns_equal(self.columns, other.columns)
        )

    __hash__ = None

    def __reduce__(self):
        return (Circuit, (self.num_vars, self.num_value, self.gates))

    def __repr__(self) -> str:
        return (
            f"Circuit(num_vars={self.num_vars}, num_value={self.num_value}, "
            f"gates=<{self.columns.kind.size} gates>)"
        )

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(_records(self.columns))

    @property
    def num_qubits(self) -> int:
        return self.num_vars + self.num_value

    @property
    def value_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.num_vars, self.num_qubits))

    @property
    def sign_qubit(self) -> int:
        if self.num_value == 0:
            raise ValueError("circuit has no value register")
        return self.num_qubits - 1


def reduce_angle(theta: float) -> float:
    """Map an angle to the canonical window [-pi, pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta >= math.pi:
        theta -= TWO_PI
    elif theta < -math.pi:
        theta += TWO_PI
    return theta


def invert_gates(gates: Sequence[Gate]) -> list[Gate]:
    """Adjoint of a gate list: reversed order, parametric angles negated."""
    return _records(_adjoint(_columns_of(gates)))


def _register_split(columns: GateColumns, num_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """Per gate: how many of its qubits lie in the value register, and whether its target does."""
    in_value = columns.qubits >= num_vars
    ends = np.cumsum(columns.size)
    value_count = np.add.reduceat(in_value, ends - columns.size, dtype=np.intp)
    return value_count, in_value[ends - 1]


def substitute_rz(circuit: Circuit) -> Circuit:
    """Swap the objective-term phase gates for their traceless rotation twins.

    A term gate differs from its rotation twin only by a phase that is
    constant on each variable-register basis state, which commutes with the
    oracle and cancels inside the conjugated reflection, so all measurement
    statistics are preserved while the decomposition cost drops.  Gates
    inside the inverse Fourier transform or the diffusion reflection take
    part in later interference and are left alone.
    """
    columns = circuit.columns
    value_count, target_in_value = _register_split(columns, circuit.num_vars)
    kind = columns.kind.copy()
    term = (kind == _CODE["cphase"]) & target_in_value & (value_count == 1)
    kind[kind == _CODE["phase"]] = _CODE["rz"]
    kind[term] = _CODE["crz"]
    return Circuit._from_columns(
        circuit.num_vars, circuit.num_value, columns._replace(kind=kind)
    )


# ---------------------------------------------------------------------------
# value-register sizing
# ---------------------------------------------------------------------------


def width_for_range(lo: float, hi: float) -> int:
    """Smallest m with -2^(m-1) <= lo and hi < 2^(m-1); ValueError if a bound is not finite."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"no register holds the range [{lo!r}, {hi!r}]")
    m = 1
    while not (-(2 ** (m - 1)) <= lo and hi < 2 ** (m - 1)):
        m += 1
    return m


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def qft_gates(qubits: Sequence[int]) -> list[Gate]:
    """Fourier transform on a little-endian register (qubits[0] = weight 1)."""
    m = len(qubits)
    gates: list[Gate] = []
    for j in range(m - 1, -1, -1):
        gates.append(Gate("h", (qubits[j],)))
        for i in range(j - 1, -1, -1):
            gates.append(Gate("cphase", (qubits[i], qubits[j]), math.pi / 2 ** (j - i)))
    for i in range(m // 2):
        gates.append(Gate("swap", (qubits[i], qubits[m - 1 - i])))
    return gates


def iqft_gates(qubits: Sequence[int]) -> list[Gate]:
    """Inverse Fourier transform; for m = 1 this is a single Hadamard."""
    return invert_gates(qft_gates(qubits))


def phase_polynomial_gates(
    poly: MultilinearPolynomial,
    num_vars: int,
    value_qubits: Sequence[int],
    shift: float = 0.0,
) -> list[Gate]:
    """Controlled phase ladder writing (poly(x) + shift) into the value phases.

    Emits m rotations per term, ordered constant first and then by ascending
    order and variable tuple, so the circuit layout mirrors the objective.
    Raises ValueError for a repeated value qubit, a term on the value
    register or a non-finite angle.
    """
    return _records(_ladder_columns(poly, value_qubits, shift))


def _ladder_columns(
    poly: MultilinearPolynomial, value_qubits: Sequence[int], shift: float
) -> GateColumns:
    """The phase ladder of phase_polynomial_gates as columns.

    Terms are sorted by order, so the terms of each order k form one block:
    its (terms, m, k + 1) qubit array holds each term's controls repeated m
    times with the value qubits tiled after them as targets.
    """
    value_qubits = tuple(map(_qubit_index, value_qubits))
    m = len(value_qubits)
    value_set = set(value_qubits)
    if len(value_set) != m:
        raise ValueError(f"duplicate qubit in value register {value_qubits}")
    coeffs = dict(poly.float_terms())
    constant = shift + coeffs.pop((), 0.0)
    keys = sorted(coeffs, key=lambda k: (len(k), k))
    values = [coeffs[key] for key in keys]
    if constant != 0.0:
        keys.insert(0, ())
        values.insert(0, constant)
    if not value_set.isdisjoint(chain.from_iterable(keys)):
        bad = next(key for key in keys if not value_set.isdisjoint(key))
        raise ValueError(f"term {bad} overlaps the value register")
    angles = _ladder_angles(values, m)
    order, controls = _qubit_columns(keys)
    size = np.repeat(order + 1, m)
    qubits = np.empty(int(size.sum()), dtype=np.intp)
    start = end = 0
    for k, count in enumerate(np.bincount(order).tolist()):
        block = qubits[end : end + count * m * (k + 1)].reshape(count, m, k + 1)
        block[:, :, :k] = controls[start : start + count * k].reshape(count, 1, k)
        block[:, :, k] = value_qubits
        start += count * k
        end += block.size
    kind = np.where(size > 1, _CODE["cphase"], _CODE["phase"]).astype(np.int8)
    return GateColumns(kind, size, qubits, angles.ravel())


def _ladder_angles(coeffs: Sequence[float], m: int) -> np.ndarray:
    """Row a, column r: reduce_angle(2^r * (2*pi*a / 2^m)), bit for bit, in one numpy pass.

    fmod is exact and so are the products by powers of two, so the numpy
    ufuncs give the same floats as math.fmod in reduce_angle.  Raises
    ValueError when an angle is not finite.
    """
    theta = TWO_PI * np.asarray(coeffs, dtype=np.float64) / (1 << m)
    angles = theta[:, None] * (2.0 ** np.arange(m))
    if not np.isfinite(angles).all():
        raise ValueError("phase ladder angle is not finite")
    np.fmod(angles, TWO_PI, out=angles)
    high, low = angles >= math.pi, angles < -math.pi
    angles[high] -= TWO_PI
    angles[low] += TWO_PI
    return angles


def build_state_prep(
    form: Formulation,
    width: int,
    threshold: float = 0.0,
    scale: float = 1.0,
) -> Circuit:
    """State-preparation circuit: init layer, phase ladder, inverse QFT.

    After this circuit, measuring the registers yields a search-space state x
    together with scale*(E(x) - threshold) rounded into an m-bit two's
    complement value (exact whenever the scaled coefficients are integers).
    The init layer is row-wise Dicke blocks for the Dicke formulation and
    Hadamards otherwise.
    """
    if width < 1:
        raise ValueError("value register needs at least one qubit")
    if form.poly.degree() > form.num_vars:
        raise ValueError("malformed formulation: term order exceeds variable count")
    n = form.num_vars
    gates: list[Gate] = []
    if form.kind is FormulationKind.QUBO_DICKE:
        block = form.row_width
        for i in range(form.size_n):
            gates.extend(dicke_gates(list(range(i * block, (i + 1) * block)), 1))
    else:
        gates.extend(Gate("h", (q,)) for q in range(n))
    value_qubits = list(range(n, n + width))
    gates.extend(Gate("h", (q,)) for q in value_qubits)
    scaled = form.poly.scaled(Fraction(scale).limit_denominator(10**9))
    columns = _join(
        _columns_of(gates),
        _ladder_columns(scaled, value_qubits, -scale * threshold),
        _adjoint(_columns_of(qft_gates(value_qubits))),
    )
    return Circuit._from_columns(n, width, columns)


def build_grover_operator(prep: Circuit) -> Circuit:
    """One Grover step for a built preparation circuit.

    Applies, in order: the sign-bit oracle, the inverse preparation, a
    reflection about the all-zeros state, and the preparation again.  The
    middle reflection equals 2|0><0| - 1 up to a global phase.
    """
    all_qubits = tuple(range(prep.num_qubits))
    flips = _columns_of([Gate("x", (q,)) for q in all_qubits])
    columns = _join(
        _columns_of([Gate("z", (prep.sign_qubit,))]),
        _adjoint(prep.columns),
        flips,
        _columns_of([Gate("cphase", all_qubits, math.pi)]),
        flips,
        prep.columns,
    )
    return Circuit._from_columns(prep.num_vars, prep.num_value, columns)


# ---------------------------------------------------------------------------
# Dicke state preparation
# ---------------------------------------------------------------------------


def _split_rotation(
    stay_amp2: Fraction | float, gates: list[Gate], controls: tuple[int, ...], target: int
) -> None:
    """Controlled Ry moving amplitude from `stay` onto the shifted branch."""
    c = math.sqrt(min(1.0, max(0.0, float(stay_amp2))))
    theta = 2.0 * math.acos(c)
    kind = "cry" if controls else "ry"
    gates.append(Gate(kind, controls + (target,), -theta))


def _scs_gates(block: Sequence[int], max_weight: int) -> list[Gate]:
    """Split & cyclic shift on a block: detaches the last qubit of the block.

    For each input weight l <= max_weight the block's trailing l ones are
    split into a keep branch (amplitude sqrt(l/s)) and a branch whose one at
    the last qubit moves to the top of the run (amplitude sqrt(1 - l/s)).
    """
    s = len(block)
    gates: list[Gate] = []
    last = block[s - 1]
    for weight in range(1, max_weight + 1):
        dest = block[s - 1 - weight]
        gates.append(Gate("cnot", (last, dest)))
        controls = (dest,) if weight == 1 else (dest, block[s - weight])
        _split_rotation(Fraction(weight, s), gates, controls, last)
        gates.append(Gate("cnot", (last, dest)))
    return gates


def _equal_superposition_cascade(block: Sequence[int]) -> list[Gate]:
    """Unitary turning |0..01..1> (any trailing weight) into the uniform
    fixed-weight superposition on the block, via nested split-shift gates."""
    gates: list[Gate] = []
    for size in range(len(block), 1, -1):
        gates.extend(_scs_gates(block[:size], size - 1))
    return gates


def _weight_distribution_gates(block: Sequence[int], first: int, max_weight: int) -> list[Gate]:
    """Split a trailing run of up to max_weight ones across two sub-blocks.

    The input run (possibly straddling the cut) is redistributed so that a
    final count of w ones lands as (i in the first sub-block's tail,
    w - i in the second's tail) with the hypergeometric amplitude
    sqrt(C(first, i) * C(rest, w-i) / C(s, w)).  Implemented as a cascade of
    boundary-conditioned rotations that move one one at a time across the
    cut; gates are ordered so that configurations reached by distinct input
    weights never alias.
    """
    s = len(block)
    rest = s - first
    steps: list[tuple[int, int, int]] = []  # (source_run, weight, tail_len)
    for w in range(1, max_weight + 1):
        lo = max(0, w - rest)
        hi = min(w, first)
        for alpha in range(lo, hi):
            steps.append((w - alpha, w, alpha))
    # Larger source runs first; among equal runs, smaller input weight first.
    steps.sort(key=lambda t: (-t[0], t[1]))

    gates: list[Gate] = []
    for beta, w, alpha in steps:
        lo = max(0, w - rest)
        hi = min(w, first)
        weights2 = [
            math.comb(first, i) * math.comb(rest, w - i) for i in range(lo, hi + 1)
        ]
        remaining = sum(weights2[alpha - lo :])
        stay = Fraction(weights2[alpha - lo], remaining)
        source = block[s - beta]
        dest = block[first - 1 - alpha]
        controls = [dest]
        if alpha >= 1:
            controls.append(block[first - alpha])
        if beta >= 2:
            controls.append(block[s - beta + 1])
        inverted: int | None = None
        if beta <= rest - 1:
            inverted = block[s - beta - 1]
            controls.append(inverted)
            gates.append(Gate("x", (inverted,)))
        gates.append(Gate("cnot", (source, dest)))
        _split_rotation(stay, gates, tuple(controls), source)
        gates.append(Gate("cnot", (source, dest)))
        if inverted is not None:
            gates.append(Gate("x", (inverted,)))
    return gates


def dicke_gates(block: Sequence[int], k: int) -> list[Gate]:
    """Gate list preparing the uniform weight-k superposition on `block`."""
    n = len(block)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    gates: list[Gate] = [Gate("x", (q,)) for q in block[n - k :]]

    def recurse(sub: Sequence[int]) -> None:
        size = len(sub)
        if size <= 1:
            return
        if size <= k:
            gates.extend(_equal_superposition_cascade(sub))
            return
        first = (size + 1) // 2
        gates.extend(_weight_distribution_gates(sub, first, min(k, size)))
        recurse(sub[:first])
        recurse(sub[first:])

    recurse(list(block))
    return gates


def build_dicke(n: int, k: int) -> Circuit:
    """Circuit preparing the n-qubit, weight-k Dicke state from all zeros."""
    return Circuit(n, 0, dicke_gates(list(range(n)), k))


# ---------------------------------------------------------------------------
# gate accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateCounts:
    """Exact tallies for a built circuit plus modeled CNOT decomposition costs.

    ``term_rank_histogram`` maps k to the number of k-controlled single-qubit
    phase rotations whose controls all lie in the variable register and whose
    target is a value qubit: exactly the objective-term gates, m per term.
    CNOT totals price those term gates only (the published comparisons omit
    the inverse-QFT and any initialization layer); the other layers are
    reported separately.
    """

    num_qubits: int
    num_value: int
    kind_totals: dict[str, int]
    term_rank_histogram: dict[int, int]
    initial_hadamard_count: int
    iqft_cphase_count: int
    init_cnot_count: int
    init_controlled_ry: dict[int, int]
    cnot_r_model: int
    cnot_rz_model: int
    rotations_r_model: int
    rotations_rz_model: int


def ladder_cnots(terms_per_rank: dict[int, int], m: int, model: str) -> int:
    """CNOTs of t_k phase ladders with k controls each over m value qubits.

    Model "rz": a k-controlled ladder costs 2m + 2(k-1) CNOTs.  Model "r":
    each of its m k-controlled rotations costs 2^k CNOTs.
    """
    if model == "rz":
        return sum((2 * m + 2 * (k - 1)) * t for k, t in terms_per_rank.items())
    if model == "r":
        return sum((1 << k) * m * t for k, t in terms_per_rank.items())
    raise ValueError(f"unknown cost model {model!r}")


_PHASE_LIKE = _kinds_table("phase", "cphase", "rz", "crz")
_CONTROLLED_PHASE = _kinds_table("cphase", "crz")
_SINGLE_PHASE = _kinds_table("phase", "rz")


def _tally(values: np.ndarray) -> dict[int, int]:
    """Count of each value (non-negative ints), keyed in order of first appearance."""
    counts = np.bincount(values)
    present = np.flatnonzero(counts).tolist()
    first = [int(np.argmax(values == v)) for v in present]
    return {v: int(counts[v]) for _, v in sorted(zip(first, present))}


def count_gates(circuit: Circuit) -> GateCounts:
    """Tally a circuit and price its term gates under both cost models.

    CNOTs follow ladder_cnots.  Rotations: under model "rz" a ladder costs
    m traceless rotations, under model "r" every k-controlled rotation costs
    2^k of them.  Each gate is classified once, on the circuit's columns:
    its kind, its qubit count, how many of its qubits lie in the value
    register and whether its target does.  Every dict keeps the order in
    which its keys first appear in the circuit.
    """
    n, m = circuit.num_vars, circuit.num_value
    kind, size, _, _ = circuit.columns
    value_count, target_in_value = _register_split(circuit.columns, n)
    phase_like = _PHASE_LIKE[kind]
    first_phase = int(np.argmax(phase_like)) if phase_like.any() else kind.size
    controlled_phase = _CONTROLLED_PHASE[kind]
    term = controlled_phase & target_in_value & (value_count == 1)
    hist = _tally(size[term] - 1)
    constant_gates = np.count_nonzero(_SINGLE_PHASE[kind] & target_in_value)
    if m:
        for k, gates_k in hist.items():
            if gates_k % m:
                raise ValueError("term gates do not group into whole phase ladders")
    terms_per_rank = {k: gates_k // m for k, gates_k in hist.items()} if m else {}
    constant_terms = int(constant_gates) // max(m, 1)
    cnot_rz = ladder_cnots(terms_per_rank, m, "rz")
    cnot_r = ladder_cnots(terms_per_rank, m, "r")
    rot_rz = m * (sum(terms_per_rank.values()) + constant_terms)
    rot_r = cnot_r + m * constant_terms
    return GateCounts(
        num_qubits=circuit.num_qubits,
        num_value=m,
        kind_totals={KIND_NAMES[code]: total for code, total in _tally(kind).items()},
        term_rank_histogram=hist,
        initial_hadamard_count=int(np.count_nonzero(kind[:first_phase] == _CODE["h"])),
        iqft_cphase_count=int(np.count_nonzero(controlled_phase & (value_count == size))),
        init_cnot_count=int(np.count_nonzero((kind == _CODE["cnot"]) & (value_count == 0))),
        init_controlled_ry=_tally(size[kind == _CODE["cry"]] - 1),
        cnot_r_model=cnot_r,
        cnot_rz_model=cnot_rz,
        rotations_r_model=rot_r,
        rotations_rz_model=rot_rz,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def circuit_to_text(circuit: Circuit) -> str:
    """One gate per line: kind, qubits, optional angle (repr-exact floats)."""
    lines = [f"circuit {circuit.num_vars} {circuit.num_value}"]
    for gate in circuit.gates:
        parts = [gate.kind, ",".join(str(q) for q in gate.qubits)]
        if gate.angle is not None:
            parts.append(repr(gate.angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Inverse of circuit_to_text; ValueError naming the line when one is malformed."""
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("circuit "):
        raise ValueError("missing circuit header line")
    number, header = lines[0]
    try:
        n, m = map(int, header.split()[1:])
    except ValueError:
        raise ValueError(
            f"line {number}: header must be 'circuit <num_vars> <num_value>': {header!r}"
        ) from None
    gates = []
    for number, ln in lines[1:]:
        parts = ln.split()
        fields = 3 if parts[0] in _PARAMETRIC else 2
        if len(parts) != fields:
            raise ValueError(f"line {number}: expected {fields} fields, got {len(parts)}: {ln!r}")
        try:
            qubits = tuple(int(q) for q in parts[1].split(","))
            gates.append(Gate(parts[0], qubits, float(parts[2]) if fields == 3 else None))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}: {ln!r}") from exc
    return Circuit(n, m, gates)

"""Binary-optimization encodings of QAP instances.

Three formulations are supported:

* ``qubo-h``  -- quadratic objective over N^2 one-hot variables with row and
  column penalties, searched over the full hypercube (Hadamard start).
* ``qubo-d``  -- same variables but the search is restricted to states whose
  row blocks each have Hamming weight 1, so only the column penalty remains.
* ``hubo-hw`` -- each row's location index is binary-encoded with N*ceil(log2 N)
  variables using a code table ordered by descending Hamming weight, giving a
  higher-order objective with fewer terms.

All three are one quadratic form in the per-row location indicators I_ij,
built by ``_encode``: the QUBO kinds take I_ij = x_(i*N + j), hubo-hw takes
the code indicator of ``assignment_indicator_poly`` in its place.

Variable ordering is row-major: variable index = row * row_width + offset,
where row_width is N for the QUBO encodings and B = ceil(log2 N) for hubo-hw.
Encoder coefficients are exact Fractions so that term counting never depends
on floating-point cancellation.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import MultilinearPolynomial
from .qap import Permutation, QapInstance


class FormulationKind(str, enum.Enum):
    QUBO_HADAMARD = "qubo-h"
    QUBO_DICKE = "qubo-d"
    HUBO_HW = "hubo-hw"


def default_penalty(n: int) -> int:
    """Default penalty coefficient: N^2 dominates any feasible objective value."""
    return n * n


def num_code_bits(n: int) -> int:
    return max(1, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class CodeTable:
    """Binary codes for location indices, sorted by descending Hamming weight.

    codes[j] is the big-endian bit tuple assigned to location j (0-based).
    Ties in weight break toward the larger big-endian value, so e.g. N=8 gives
    111, 110, 101, 011, 100, 010, 001, 000.  For N not a power of two only the
    first N rows of the full table are kept.
    """

    n: int
    bits_b: int
    codes: tuple[tuple[int, ...], ...]

    def weights(self) -> list[int]:
        return [sum(code) for code in self.codes]

    def code_to_location(self) -> dict[tuple[int, ...], int]:
        return {code: j for j, code in enumerate(self.codes)}


def build_code_table(n: int) -> CodeTable:
    if n < 2:
        raise ValueError(f"code table needs n >= 2, got {n}")
    bits = num_code_bits(n)
    codes = sorted(itertools.product((0, 1), repeat=bits), key=lambda c: (sum(c), c), reverse=True)
    return CodeTable(n, bits, tuple(codes[:n]))


def assignment_indicator_poly(
    table: CodeTable, row: int, location: int, num_vars: int | None = None
) -> MultilinearPolynomial:
    """Indicator that `row` is assigned to `location`, as a multilinear polynomial.

    The product over code bits of ``1 - b + (2b - 1) x`` expands to normal
    form over the row's own variables; it is 1 exactly when the row's bits
    equal the location's code.  Indices are 0-based.
    """
    if not 0 <= row < table.n:
        raise IndexError(f"row {row} out of range for N={table.n}")
    if not 0 <= location < len(table.codes):
        raise IndexError(f"location {location} out of range for table of {len(table.codes)}")
    bits = table.bits_b
    if num_vars is None:
        num_vars = table.n * bits
    poly = MultilinearPolynomial.constant(num_vars, Fraction(1))
    for r, bit in enumerate(table.codes[location]):
        var = row * bits + r
        factor = MultilinearPolynomial(
            num_vars, {(): Fraction(1 - bit), (var,): Fraction(2 * bit - 1)}
        )
        poly = poly * factor
    return poly


@dataclass(frozen=True)
class Formulation:
    """A binary objective plus everything needed to search and decode it."""

    kind: FormulationKind
    poly: MultilinearPolynomial
    num_vars: int
    size_n: int
    penalties: tuple[float, ...]
    instance: QapInstance
    code_table: CodeTable | None = None

    @property
    def row_width(self) -> int:
        return self.num_vars // self.size_n

    @property
    def space_size(self) -> int:
        """Size of the initial superposition's support."""
        n = self.size_n
        if self.kind is FormulationKind.QUBO_DICKE:
            return n**n
        return 1 << self.num_vars

    def evaluate(self, x: int) -> float:
        return float(self.poly.evaluate(x))

    def encode_permutation(self, perm: Permutation) -> int:
        """Bitmask whose decode() is the given permutation."""
        if len(perm) != self.size_n:
            raise ValueError("permutation size mismatch")
        mask = 0
        if self.kind is FormulationKind.HUBO_HW:
            assert self.code_table is not None
            bits = self.code_table.bits_b
            for i, loc in enumerate(perm.mapping):
                code = self.code_table.codes[loc - 1]
                for r, bit in enumerate(code):
                    if bit:
                        mask |= 1 << (i * bits + r)
        else:
            n = self.size_n
            for i, loc in enumerate(perm.mapping):
                mask |= 1 << (i * n + (loc - 1))
        return mask

    def decode(self, x: int) -> Permutation | None:
        """Permutation encoded by bitmask x, or None if infeasible."""
        n = self.size_n
        if self.kind is FormulationKind.HUBO_HW:
            assert self.code_table is not None
            bits = self.code_table.bits_b
            lookup = self.code_table.code_to_location()
            mapping = []
            for i in range(n):
                code = tuple((x >> (i * bits + r)) & 1 for r in range(bits))
                loc = lookup.get(code)
                if loc is None:
                    return None
                mapping.append(loc + 1)
        else:
            mapping = []
            for i in range(n):
                row = [(x >> (i * n + j)) & 1 for j in range(n)]
                if sum(row) != 1:
                    return None
                mapping.append(row.index(1) + 1)
        if len(set(mapping)) != n:
            return None
        return Permutation(tuple(mapping))


def _fraction_matrix(mat: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(v).limit_denominator(10**6) for v in row] for row in mat]


def _transpose_product(x: list[list], y: list[list]) -> list[list]:
    """x^T y for two matrices with the same rows, skipping zero entries."""
    out = [[0] * len(y[0]) for _ in x[0]]
    for x_row, y_row in zip(x, y):
        for p, a in enumerate(x_row):
            if a:
                for q, b in enumerate(y_row):
                    if b:
                        out[p][q] += a * b
    return out


def _encode(
    inst: QapInstance,
    kind: FormulationKind,
    basis: list[tuple[int, ...]],
    amat: list[list],
    width: int,
    lam_row: float | None,
    lam_col: float,
    code_table: CodeTable | None = None,
) -> Formulation:
    """The QAP objective plus squared one-hot penalties over location indicators.

    Row i owns variables i*width .. i*width + width - 1; x_S^(i) is the
    product of row i's variables i*width + v for v in the local monomial S.
    The indicator of "row i at location j" is I_ij = sum_S amat[j][S] x_S^(i).
    With A = amat, C the distance matrix and s = 1^T A,

        sum_ik f_ik sum_jl c_jl I_ij I_kl
          + lr sum_i (sum_j I_ij - 1)^2 + lc sum_j (sum_i I_ij - 1)^2
        = sum_ik sum_ST [f_ik A^T C A + lr delta_ik s s^T + lc A^T A]_ST x_S^(i) x_T^(k)
          - 2 (lr + lc) sum_i sum_S s_S x_S^(i) + (lr + lc) N,

    so three basis-sized matrices and one pass over row pairs give the whole
    polynomial.  Without lam_row (the Dicke space, whose rows are one-hot by
    construction) the row penalty is left out.
    """
    lams = (lam_col,) if lam_row is None else (lam_row, lam_col)
    if min(lams) <= 0:
        raise ValueError("penalty coefficients must be positive")
    n = inst.size_n
    flow = _fraction_matrix(inst.flow)
    dist = _fraction_matrix(inst.dist)
    lr = Fraction(0) if lam_row is None else Fraction(lam_row).limit_denominator(10**6)
    lc = Fraction(lam_col).limit_denominator(10**6)
    rows, cols = range(n), range(len(basis))
    s = [sum(amat[j][p] for j in rows) for p in cols]
    obj = _transpose_product(amat, _transpose_product(list(zip(*dist)), amat))  # A^T (C A)
    gram = _transpose_product(amat, amat)

    def nonzero(mat: list[list], weight: Fraction) -> list[tuple[int, int, Fraction]]:
        return [(p, q, weight * v) for p, row in enumerate(mat) for q, v in enumerate(row) if v]

    objective = nonzero(obj, 1)
    row_pen = nonzero([[a * b for b in s] for a in s], lr) if lr else []
    same_row_pen = row_pen + nonzero(gram, lc)
    # x_S^(i) x_T^(k) and x_T^(k) x_S^(i) get the same column weight: A^T A is symmetric.
    cross_row_pen = nonzero(gram, 2 * lc)
    linear = [(p, -2 * (lr + lc) * v) for p, v in enumerate(s) if v]
    unions = [[tuple(sorted(set(a) | set(b))) for b in basis] for a in basis]
    keys = [[tuple(i * width + v for v in mono) for mono in basis] for i in rows]
    acc: dict[tuple[int, ...], Fraction] = {(): (lr + lc) * n}

    def add(key: tuple[int, ...], coeff: Fraction) -> None:
        old = acc.get(key)
        acc[key] = coeff if old is None else old + coeff

    for i in rows:
        row_keys, fii = keys[i], flow[i][i]
        for p, v in linear:
            add(row_keys[p], v)
        same = [[tuple(i * width + v for v in u) for u in union_row] for union_row in unions]
        for p, q, v in same_row_pen:
            add(same[p][q], v)
        if fii:
            for p, q, v in objective:
                add(same[p][q], fii * v)
        for k in range(i + 1, n):
            # Rows are ordered, disjoint blocks, so a cross-row key is a concatenation.
            other_keys, fik, fki = keys[k], flow[i][k], flow[k][i]
            for p, q, v in cross_row_pen:
                add(row_keys[p] + other_keys[q], v)
            if fik:
                for p, q, v in objective:
                    add(row_keys[p] + other_keys[q], fik * v)
            if fki:  # the (k, i) term f_ki M_ST x_S^(k) x_T^(i)
                for p, q, v in objective:
                    add(row_keys[q] + other_keys[p], fki * v)

    poly = MultilinearPolynomial(n * width, acc)
    penalties = tuple(float(lam) for lam in lams)
    return Formulation(kind, poly, n * width, n, penalties, inst, code_table=code_table)


def _one_hot_basis(n: int) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
    """The QUBO indicator I_ij is the variable x_(i*N + j) itself: A = identity, width N."""
    return [(j,) for j in range(n)], [[int(j == p) for p in range(n)] for j in range(n)], n


def encode_qubo(
    inst: QapInstance, lam_row: float | None = None, lam_col: float | None = None
) -> Formulation:
    """Conventional QUBO over N^2 variables with both one-hot penalties."""
    n = inst.size_n
    lam_row = default_penalty(n) if lam_row is None else lam_row
    lam_col = default_penalty(n) if lam_col is None else lam_col
    return _encode(inst, FormulationKind.QUBO_HADAMARD, *_one_hot_basis(n), lam_row, lam_col)


def encode_qubo_dicke(inst: QapInstance, lam_col: float | None = None) -> Formulation:
    """QUBO searched over row-wise weight-1 states; only the column penalty remains."""
    n = inst.size_n
    lam_col = default_penalty(n) if lam_col is None else lam_col
    return _encode(inst, FormulationKind.QUBO_DICKE, *_one_hot_basis(n), None, lam_col)


def encode_hubo_hw(
    inst: QapInstance, lam_row: float | None = None, lam_col: float | None = None
) -> Formulation:
    """Higher-order encoding over N*B variables via the descending-weight codes.

    The QUBO's one-hot variable is replaced by the code indicator of
    assignment_indicator_poly; the monomials of a row's B bits form the
    basis.  lam_row defaults to 1 (the row constraint is nearly built in; it
    only has to discourage rows decoding to a discarded code), lam_col to N^2.
    """
    n = inst.size_n
    lam_row = 1.0 if lam_row is None else lam_row
    lam_col = default_penalty(n) if lam_col is None else lam_col
    table = build_code_table(n)
    bits = table.bits_b
    indicators = [assignment_indicator_poly(table, 0, j, bits).terms for j in range(n)]
    basis = sorted({key for terms in indicators for key in terms}, key=lambda k: (len(k), k))
    amat = [[terms.get(key, 0) for key in basis] for terms in indicators]
    return _encode(
        inst, FormulationKind.HUBO_HW, basis, amat, bits, lam_row, lam_col, code_table=table
    )


def encode(inst: QapInstance, kind: FormulationKind | str, **kwargs) -> Formulation:
    kind = FormulationKind(kind)
    if kind is FormulationKind.QUBO_HADAMARD:
        return encode_qubo(inst, **kwargs)
    if kind is FormulationKind.QUBO_DICKE:
        return encode_qubo_dicke(inst, **kwargs)
    return encode_hubo_hw(inst, **kwargs)


def search_space_sizes(n: int) -> tuple[int, int, int]:
    """Exact search-space sizes (QUBO w/ Dicke, HUBO-HW, conventional QUBO).

    Returns (N^N, 2^(N*ceil(log2 N)), 2^(N^2)); the chain
    N^N <= 2^(N*ceil(log2 N)) < 2^(N^2) holds for every N >= 2, with the first
    pair equal exactly when N is a power of two.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    dicke = n**n
    hubo = 1 << (n * num_code_bits(n))
    conventional = 1 << (n * n)
    assert dicke <= hubo < conventional
    return dicke, hubo, conventional


@dataclass(frozen=True)
class TermCensus:
    """Term counts of an encoded objective.

    distinct_terms counts the monomials actually stored in the expanded
    polynomial.  structural_terms additionally counts, once per row, the
    weight-zero code's indicator as its own generator even though its
    expansion is the constant 1; this matches the closed-form accounting in
    which single indicators are enumerated per (row, location) pair.  The two
    differ (by exactly N) only for hubo-hw with N a power of two.
    """

    distinct_terms: int
    structural_terms: int
    controlled_per_order: dict[int, int]
    constant_generators: int


def term_census(form: Formulation) -> TermCensus:
    hist = form.poly.order_histogram()
    controlled = {k: v for k, v in hist.items() if k > 0}
    distinct = form.poly.term_count()
    zero_codes = 0
    if form.kind is FormulationKind.HUBO_HW:
        assert form.code_table is not None
        zero_codes = sum(1 for w in form.code_table.weights() if w == 0)
    duplicate_constants = zero_codes * form.size_n
    return TermCensus(
        distinct_terms=distinct,
        structural_terms=distinct + duplicate_constants,
        controlled_per_order=controlled,
        constant_generators=1 + duplicate_constants,
    )

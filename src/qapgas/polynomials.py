"""Multilinear polynomials over binary variables.

A polynomial is a sparse map from monomials to coefficients.  A monomial is a
sorted tuple of distinct 0-based variable indices; the empty tuple is the
constant term.  Idempotence (x*x = x) is applied on every multiplication, and
coefficients that combine to exact zero are dropped, so every stored
polynomial is in multilinear normal form.

Coefficients may be int, float, or Fraction.  The encoders use Fraction so
that term counting is immune to floating-point dust; numeric consumers call
float_terms()/evaluate_table() which convert once.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Coeff = Union[int, float, Fraction]
Monomial = tuple[int, ...]
BitInput = Union[int, Sequence[int]]


def _as_monomial(vars_: Iterable[int]) -> Monomial:
    if type(vars_) is tuple:
        # Already a monomial (a strictly increasing tuple of ints >= 0), as the
        # encoders and the algebra below hand them over: taken as it is.
        last = -1
        for v in vars_:
            if type(v) is not int or v <= last:
                break
            last = v
        else:
            return vars_
    key = tuple(sorted(set(int(v) for v in vars_)))
    if any(v < 0 for v in key):
        raise ValueError(f"variable indices must be >= 0, got {key}")
    return key


class MultilinearPolynomial:
    """Immutable multilinear polynomial on num_vars binary variables."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Monomial, Coeff] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        clean: dict[Monomial, Coeff] = {}
        for vars_, coeff in (terms or {}).items():
            key = _as_monomial(vars_)
            if key and key[-1] >= num_vars:
                raise ValueError(f"variable {key[-1]} out of range for num_vars={num_vars}")
            old = clean.get(key)
            acc = coeff if old is None else old + coeff
            if acc == 0:
                clean.pop(key, None)
            else:
                clean[key] = acc
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MultilinearPolynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, num_vars: int, value: Coeff) -> "MultilinearPolynomial":
        return cls(num_vars, {(): value})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "MultilinearPolynomial":
        return cls(num_vars, {(index,): 1})

    # -- algebra ------------------------------------------------------------

    def _check_same_space(self, other: "MultilinearPolynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"operand variable counts differ: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        self._check_same_space(other)
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc.get(key, 0) + coeff
        return MultilinearPolynomial(self.num_vars, acc)

    def __sub__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        return self + other.scaled(-1)

    def __mul__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        self._check_same_space(other)
        acc: dict[Monomial, Coeff] = {}
        for key_a, ca in self.terms.items():
            set_a = set(key_a)
            for key_b, cb in other.terms.items():
                key = tuple(sorted(set_a.union(key_b)))
                acc[key] = acc.get(key, 0) + ca * cb
        return MultilinearPolynomial(self.num_vars, acc)

    def scaled(self, factor: Coeff) -> "MultilinearPolynomial":
        """factor * self; an exact (int or Fraction) factor of 1 returns self, as it is immutable."""
        if factor == 1 and isinstance(factor, (int, Fraction)):
            return self
        if factor == 0:
            return MultilinearPolynomial(self.num_vars)
        return MultilinearPolynomial(
            self.num_vars, {k: factor * c for k, c in self.terms.items()}
        )

    def shifted(self, delta: Coeff) -> "MultilinearPolynomial":
        """Add a constant to the polynomial."""
        acc = dict(self.terms)
        acc[()] = acc.get((), 0) + delta
        return MultilinearPolynomial(self.num_vars, acc)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultilinearPolynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"MultilinearPolynomial({self.num_vars}, 0)"
        parts = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            mono = "*".join(f"x{v}" for v in key) or "1"
            parts.append(f"{self.terms[key]}*{mono}")
        return f"MultilinearPolynomial({self.num_vars}, {' + '.join(parts)})"

    # -- queries ------------------------------------------------------------

    @property
    def constant_term(self) -> Coeff:
        return self.terms.get((), 0)

    def term_count(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def order_histogram(self) -> dict[int, int]:
        """Number of stored monomials per order (constant = order 0)."""
        hist: dict[int, int] = {}
        for key in self.terms:
            hist[len(key)] = hist.get(len(key), 0) + 1
        return hist

    def abs_coeff_sum(self) -> float:
        return float(sum(abs(c) for c in self.terms.values()))

    def float_terms(self) -> list[tuple[Monomial, float]]:
        return [(k, float(c)) for k, c in self.terms.items()]

    # -- evaluation ---------------------------------------------------------

    def _bits_to_mask(self, x: BitInput) -> int:
        if isinstance(x, int):
            if x < 0 or x >= (1 << self.num_vars):
                raise ValueError(f"bitmask {x} out of range for {self.num_vars} variables")
            return x
        if len(x) != self.num_vars:
            raise ValueError(f"input length {len(x)} != num_vars {self.num_vars}")
        return sum(1 << v for v, bit in enumerate(x) if bit)

    def evaluate(self, x: BitInput) -> Coeff:
        """Value at a point: sum of coefficients whose variables are all 1.

        Accepts either a sequence of bits (index = variable) or an integer
        bitmask with variable v at bit v.
        """
        mask = self._bits_to_mask(x)
        total: Coeff = 0
        for key, coeff in self.terms.items():
            active = True
            for v in key:
                if not (mask >> v) & 1:
                    active = False
                    break
            if active:
                total += coeff
        return total

    def evaluate_table(self) -> np.ndarray:
        """float64 values on the whole hypercube, indexed by bitmask (variable v = bit v).

        Computed with an in-place subset-sum (zeta) transform: seed each
        monomial's coefficient at its own mask, then accumulate along every
        variable axis.  O(n * 2^n) numpy work instead of O(terms * 2^n).
        """
        from .space import EMULATION_SPACE_CAP, SpaceScaleError  # space imports this via encodings

        n = self.num_vars
        if 1 << n > EMULATION_SPACE_CAP:
            raise SpaceScaleError(f"a table of 2^{n} values exceeds the cap {EMULATION_SPACE_CAP}")
        table = np.zeros(1 << n)
        for key, coeff in self.terms.items():
            table[sum(1 << v for v in key)] += float(coeff)
        view = table.reshape([2] * n) if n else table
        for axis in range(n):
            sel_hi: list = [slice(None)] * n
            sel_lo: list = [slice(None)] * n
            sel_hi[n - 1 - axis] = 1
            sel_lo[n - 1 - axis] = 0
            view[tuple(sel_hi)] += view[tuple(sel_lo)]
        return table

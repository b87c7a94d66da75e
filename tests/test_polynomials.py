import itertools
from fractions import Fraction

import numpy as np
import pytest

from qapgas.polynomials import MultilinearPolynomial


def naive_value(terms, bits):
    """Reference evaluator: literal sum over monomials."""
    total = 0
    for key, coeff in terms.items():
        if all(bits[v] for v in key):
            total += coeff
    return total


def random_poly(rng, num_vars, num_terms):
    terms = {}
    for _ in range(num_terms):
        size = int(rng.integers(0, num_vars + 1))
        key = tuple(sorted(rng.choice(num_vars, size=size, replace=False)))
        terms[key] = terms.get(key, 0) + float(rng.normal())
    return MultilinearPolynomial(num_vars, terms)


class TestNormalForm:
    def test_variable_squared_is_itself(self):
        x1 = MultilinearPolynomial.variable(2, 0)
        assert (x1 * x1) == x1

    def test_one_minus_x_squared(self):
        p = MultilinearPolynomial(1, {(): 1, (0,): -1})
        assert p * p == p

    def test_binomial_with_idempotence(self):
        p = MultilinearPolynomial(2, {(0,): 1, (1,): 1})
        expected = MultilinearPolynomial(2, {(0,): 1, (1,): 1, (0, 1): 2})
        assert p * p == expected

    def test_cancellation_drops_terms(self):
        p = MultilinearPolynomial(2, {(0,): 1})
        q = MultilinearPolynomial(2, {(0,): -1, (1,): 2})
        assert (p + q).terms == {(1,): 2}

    def test_unsorted_keys_are_normalized(self):
        p = MultilinearPolynomial(3, {(2, 0): 1.5})
        assert list(p.terms) == [(0, 2)]

    def test_keys_in_any_form_are_normalized(self):
        p = MultilinearPolynomial(
            5, {(1, 1, 0): 1, (np.int64(2), 4): 2, (4, 2): 3, frozenset({3}): 4, (0, 1): Fraction(1, 2)}
        )
        assert p.terms == {(0, 1): Fraction(3, 2), (2, 4): 5, (3,): 4}
        assert all(type(v) is int for key in p.terms for v in key)
        with pytest.raises(ValueError, match=">= 0"):
            MultilinearPolynomial(3, {(-1, 2): 1})
        with pytest.raises(ValueError, match=">= 0"):
            MultilinearPolynomial(3, {(2, -1): 1})

    def test_renormalizing_is_a_noop(self):
        rng = np.random.default_rng(5)
        p = random_poly(rng, 6, 25)
        assert MultilinearPolynomial(p.num_vars, p.terms) == p

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            MultilinearPolynomial(2, {(3,): 1})

    def test_mismatched_spaces_rejected(self):
        p = MultilinearPolynomial(2, {(0,): 1})
        q = MultilinearPolynomial(3, {(0,): 1})
        with pytest.raises(ValueError, match="differ"):
            _ = p + q
        with pytest.raises(ValueError, match="differ"):
            _ = p * q


class TestEvaluation:
    def test_constant(self):
        p = MultilinearPolynomial.constant(3, 5)
        for bits in itertools.product((0, 1), repeat=3):
            assert p.evaluate(bits) == 5

    def test_three_variable_example_at_all_ones(self):
        p = MultilinearPolynomial(3, {(): 1, (0,): 2, (0, 1, 2): -3})
        assert p.evaluate((1, 1, 1)) == 0
        assert p.evaluate((1, 0, 0)) == 3

    def test_against_naive_reference(self):
        rng = np.random.default_rng(11)
        for num_vars in (1, 4, 7, 10):
            p = random_poly(rng, num_vars, 40)
            for mask in range(1 << num_vars):
                bits = [(mask >> v) & 1 for v in range(num_vars)]
                assert p.evaluate(mask) == pytest.approx(naive_value(p.terms, bits))

    def test_bitmask_and_sequence_agree(self):
        p = MultilinearPolynomial(4, {(0, 3): 2, (1,): -1})
        for mask in range(16):
            bits = [(mask >> v) & 1 for v in range(4)]
            assert p.evaluate(mask) == p.evaluate(bits)

    def test_length_mismatch_rejected(self):
        p = MultilinearPolynomial(3, {(0,): 1})
        with pytest.raises(ValueError, match="length"):
            p.evaluate((1, 0))

    def test_table_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(2)
        p = random_poly(rng, 8, 60)
        table = p.evaluate_table()
        for mask in range(256):
            assert table[mask] == pytest.approx(float(p.evaluate(mask)), abs=1e-12)

    def test_fraction_coefficients_stay_exact(self):
        p = MultilinearPolynomial(2, {(0,): Fraction(1, 3), (0, 1): Fraction(2, 3)})
        assert p.evaluate((1, 1)) == Fraction(1)


class TestAlgebraProperties:
    def test_mul_commutes_and_distributes(self):
        rng = np.random.default_rng(8)

        def int_poly():
            p = random_poly(rng, 5, 12)
            return MultilinearPolynomial(
                5, {k: int(round(3 * c)) for k, c in p.terms.items()}
            )

        a, b, c = int_poly(), int_poly(), int_poly()
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_scaling(self):
        p = MultilinearPolynomial(2, {(0,): 3, (): 1})
        assert p.scaled(0).term_count() == 0
        assert p.scaled(2).terms == {(0,): 6, (): 2}

    def test_exact_unit_scaling_returns_the_same_polynomial(self):
        p = MultilinearPolynomial(2, {(0,): Fraction(3, 4), (): 1})
        assert p.scaled(1) is p
        assert p.scaled(Fraction(1)) is p
        as_float = p.scaled(1.0)
        assert as_float == p and all(type(c) is float for c in as_float.terms.values())

    def test_shifted_adds_constant(self):
        p = MultilinearPolynomial(2, {(0,): 3})
        assert p.shifted(5).constant_term == 5
        assert p.shifted(5).shifted(-5).constant_term == 0

    def test_histogram_and_degree(self):
        p = MultilinearPolynomial(4, {(): 1, (0,): 1, (1,): 1, (0, 1, 2): 4})
        assert p.degree() == 3
        assert p.order_histogram() == {0: 1, 1: 2, 3: 1}

from itertools import groupby

import numpy as np
import pytest

from qapgas.encodings import (
    Formulation,
    FormulationKind,
    encode,
    encode_hubo_hw,
    encode_qubo_dicke,
)
from qapgas.gas import ExactEngine, SearchSpace
from qapgas.polynomials import MultilinearPolynomial
from qapgas.qap import QapInstance, dense_instance, generic_instance, random_instance
from qapgas.samples import sample_instance
from qapgas.space import (
    EMULATION_SPACE_CAP,
    _check_key_width,
    _integer_terms,
    _row_tables,
    dicke_rank_decoder,
    dicke_rank_to_bits,
    objective_denominator,
    objective_values,
    value_bounds,
)


class TestObjectiveValues:
    @pytest.mark.parametrize(
        "kind, n",
        [("qubo-h", 2), ("qubo-h", 3)]
        + [("qubo-d", n) for n in (2, 3, 4, 5)]
        + [("hubo-hw", n) for n in (2, 3, 4)],
    )
    @pytest.mark.parametrize("make", [random_instance, generic_instance, dense_instance])
    def test_numerators_equal_exact_evaluation(self, make, kind, n):
        form = encode(make(n, seed=40 + n), kind)
        den = objective_denominator(form)
        values = objective_values(form)
        assert values.dtype == np.int64
        states = np.arange(form.space_size)
        if kind == "qubo-d":
            states = dicke_rank_to_bits(form, states)
        assert values.tolist() == [form.poly.evaluate(int(s)) * den for s in states]

    @pytest.mark.parametrize("kind", list(FormulationKind))
    def test_term_over_three_row_blocks_rejected(self, kind):
        """Row tables hold terms of at most two rows; a wider term raises, never mis-evaluates."""
        width = 2 if kind is FormulationKind.HUBO_HW else 3
        poly = MultilinearPolynomial(3 * width, {(): 1, (0,): 2, (0, width, 2 * width): -3})
        inst = QapInstance(3, np.zeros((3, 3)), np.zeros((3, 3)))
        form = Formulation(kind, poly, 3 * width, 3, (1.0, 1.0), inst)
        for compute in (objective_values, value_bounds, SearchSpace):
            with pytest.raises(ValueError, match="spans 3 row blocks"):
                compute(form)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("make", [random_instance, generic_instance, dense_instance])
    def test_power_of_two_hubo_space_relabels_dicke_space(self, make, n):
        """At N = 2^k every hubo-hw code is a location, so the row penalty vanishes and
        the hubo-hw space holds exactly the qubo-d values.  Their query laws are then
        identical: criterion 8's N=4 median ratio of 1 is a theorem, not a statistic."""
        for seed in range(5):
            inst = make(n, seed=seed)
            assert_same_values(encode_qubo_dicke(inst), encode_hubo_hw(inst))

    def test_power_of_two_hubo_space_relabels_dicke_space_at_n8(self):
        inst = sample_instance(8)
        assert_same_values(encode_qubo_dicke(inst), encode_hubo_hw(inst))


class TestKeyWidth:
    @pytest.mark.parametrize("make", [random_instance, generic_instance, dense_instance])
    def test_every_instance_within_the_cap_is_admitted(self, make):
        """Every kind at N=2..8 and seeds 1..5 fits a 64-bit key by its row tables'
        bounds alone, checked with no enumeration."""
        admitted = 0
        for n in range(2, 9):
            for kind in FormulationKind:
                for seed in range(1, 6):
                    form = encode(make(n, seed=seed), kind)
                    if form.space_size <= EMULATION_SPACE_CAP:
                        tables = _row_tables(form, _integer_terms(form)[1])
                        _check_key_width(tables, (form.space_size - 1).bit_length())
                        admitted += 1
        assert admitted == 5 * (4 + 7 + 7)  # qubo-h up to N=5, qubo-d and hubo-hw up to N=8


class TestDickeEnumeration:
    def test_rank_to_bits_is_mixed_radix(self):
        n = 4
        form = encode_qubo_dicke(random_instance(n, seed=1))

        def reference(rank):
            return sum(1 << (i * n + (rank // n**i) % n) for i in range(n))

        ranks = np.arange(n**n)
        masks = dicke_rank_to_bits(form, ranks)
        assert masks.dtype == np.uint64
        assert masks.tolist() == [reference(int(r)) for r in ranks]
        assert len(set(masks.tolist())) == n**n
        for rank in (0, 1, n, n**n - 1):
            assert int(dicke_rank_to_bits(form, rank)) == reference(rank)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_scalar_rank_decoder_matches_rank_to_bits(self, n):
        form = encode_qubo_dicke(random_instance(n, seed=1))
        masks = dicke_rank_to_bits(form, np.arange(n**n)).tolist()
        decode = dicke_rank_decoder(n)
        assert [decode(rank) for rank in range(n**n)] == masks
        assert all(type(decode(rank)) is int for rank in (0, n**n - 1))

    def test_off_grid_coefficients_raise(self):
        form = encode_qubo_dicke(off_grid_instance())
        with pytest.raises(ValueError, match="common denominator"):
            objective_values(form)

    @pytest.mark.parametrize("kind", ["qubo-h", "hubo-hw"])
    def test_off_grid_hypercube_coefficients_raise(self, kind):
        form = encode(off_grid_instance(), kind)
        for compute in (objective_values, value_bounds, SearchSpace, ExactEngine):
            with pytest.raises(ValueError, match="common denominator"):
                compute(form)


def assert_same_values(form: Formulation, other: Formulation) -> None:
    """Same denominator and the same sorted numerators: the two spaces are relabellings."""
    assert objective_denominator(form) == objective_denominator(other)
    values = objective_values(form)
    values.sort()
    other_values = objective_values(other)
    other_values.sort()
    assert np.array_equal(values, other_values)


def off_grid_instance() -> QapInstance:
    """Entries 1/p for six large primes: a common denominator far beyond 2^53."""
    primes = (999_983, 999_979, 999_961, 999_959, 999_953, 999_931)
    flow = np.zeros((3, 3))
    dist = np.zeros((3, 3))
    for (i, j), p, q in zip(((0, 1), (0, 2), (1, 2)), primes[:3], primes[3:]):
        flow[i, j] = flow[j, i] = 1 / p
        dist[i, j] = dist[j, i] = 1 / q
    return QapInstance(3, flow, dist)


def exact_level_table(form: Formulation) -> tuple[list[int], list[int], list[int]]:
    """Start rank, count and value times den of each run of equal values, from a sort
    of form.poly.evaluate's exact Fractions over the whole space."""
    den = objective_denominator(form)
    states = np.arange(form.space_size)
    if form.kind is FormulationKind.QUBO_DICKE:
        states = dicke_rank_to_bits(form, states)
    starts, counts, numerators = [], [], []
    for numerator, run in groupby(sorted(form.poly.evaluate(int(s)) * den for s in states)):
        starts.append(sum(counts))
        counts.append(len(list(run)))
        assert numerator.denominator == 1
        numerators.append(int(numerator))
    return starts, counts, numerators


class TestLevelTable:
    @pytest.mark.parametrize(
        "kind, n", [("qubo-h", 3), ("qubo-d", 3), ("hubo-hw", 3), ("qubo-d", 4)]
    )
    def test_levels_group_the_exact_values(self, kind, n):
        form = encode(random_instance(n, seed=60 + n), kind)
        starts, counts, numerators = exact_level_table(form)
        space = SearchSpace(form)
        levels = space.levels
        assert levels.numerators.dtype == np.int64
        assert levels.starts.tolist() == starts
        assert levels.counts.tolist() == counts
        assert levels.numerators.tolist() == numerators
        assert space.levels is levels  # built once and kept

        # The engine reads the same table: at the default scale it marks exactly
        # the levels below the threshold, with their counts as masses.
        engine = ExactEngine(form)
        assert engine.levels.starts.tolist() == starts
        assert engine.levels.counts.tolist() == counts
        assert engine.levels.numerators.tolist() == numerators
        t = numerators[len(numerators) // 2]
        _, (_, marked), cumulative, _ = engine._split(t / objective_denominator(form))
        below = [numerator < t for numerator in numerators]
        assert marked.tolist() == below
        assert cumulative[1, 1:].tolist() == np.cumsum(np.multiply(counts, below)).tolist()

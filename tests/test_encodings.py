import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from qapgas.encodings import (
    FormulationKind,
    assignment_indicator_poly,
    build_code_table,
    encode,
    encode_hubo_hw,
    encode_qubo,
    encode_qubo_dicke,
    search_space_sizes,
    term_census,
)
from qapgas.polynomials import MultilinearPolynomial
from qapgas.qap import (
    Permutation,
    QapInstance,
    dense_instance,
    generic_instance,
    objective,
    random_instance,
)
from qapgas.samples import SAMPLE_SIZES, sample_instance

ALL_KINDS = tuple(FormulationKind)


def all_permutations(n):
    return [Permutation(m) for m in itertools.permutations(range(1, n + 1))]


class TestCodeTable:
    def test_n4_table(self):
        table = build_code_table(4)
        assert table.codes == ((1, 1), (1, 0), (0, 1), (0, 0))

    def test_n8_table(self):
        table = build_code_table(8)
        assert table.codes == (
            (1, 1, 1),
            (1, 1, 0),
            (1, 0, 1),
            (0, 1, 1),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (0, 0, 0),
        )

    def test_n3_truncates_last_row(self):
        assert build_code_table(3).codes == ((1, 1), (1, 0), (0, 1))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_ordering_invariant(self, n):
        table = build_code_table(n)
        assert len(set(table.codes)) == n
        for a, b in zip(table.codes, table.codes[1:]):
            wa, wb = sum(a), sum(b)
            assert wa >= wb
            if wa == wb:
                assert int("".join(map(str, a)), 2) > int("".join(map(str, b)), 2)


class TestAssignmentIndicator:
    def test_n8_location5_expansion(self):
        # code (1,0,0): x1 * (1-x2) * (1-x3) over the row's three bits
        table = build_code_table(8)
        poly = assignment_indicator_poly(table, row=0, location=4)
        assert poly.terms == {
            (0,): Fraction(1),
            (0, 1): Fraction(-1),
            (0, 2): Fraction(-1),
            (0, 1, 2): Fraction(1),
        }

    def test_n4_location1_is_the_pair(self):
        table = build_code_table(4)
        poly = assignment_indicator_poly(table, row=0, location=0)
        assert poly.terms == {(0, 1): Fraction(1)}

    def test_indicator_matches_code_lookup(self):
        table = build_code_table(6)
        bits = table.bits_b
        for row in range(6):
            for loc in range(6):
                poly = assignment_indicator_poly(table, row, loc)
                for pattern in itertools.product((0, 1), repeat=bits):
                    x = [0] * (6 * bits)
                    x[row * bits : (row + 1) * bits] = pattern
                    expected = 1 if pattern == table.codes[loc] else 0
                    assert poly.evaluate(x) == expected

    @pytest.mark.parametrize("n_pow", [2, 4, 8])
    def test_full_table_indicators_sum_to_one(self, n_pow):
        table = build_code_table(n_pow)
        bits = table.bits_b
        total = MultilinearPolynomial(n_pow * bits)
        for loc in range(n_pow):
            total = total + assignment_indicator_poly(table, 0, loc)
        assert total.terms == {(): Fraction(1)}

    def test_out_of_range_indices(self):
        table = build_code_table(4)
        with pytest.raises(IndexError):
            assignment_indicator_poly(table, 4, 0)
        with pytest.raises(IndexError):
            assignment_indicator_poly(table, 0, 7)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_within_row_products_collapse_to_earlier_terms(self, n):
        """Product of two distinct kept-code monomials is a kept monomial of
        no-later table index."""
        table = build_code_table(n)
        supports = [frozenset(r for r, b in enumerate(code) if b) for code in table.codes]
        index_of = {s: i for i, s in enumerate(supports)}
        for j in range(n):
            for l in range(j + 1, n):
                union = supports[j] | supports[l]
                assert union in index_of
                assert index_of[union] <= j


class TestEncodingEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_permutations_evaluate_to_objective(self, n, kind):
        inst = random_instance(n, seed=100 + n)
        form = encode(inst, kind)
        for perm in all_permutations(n):
            bits = form.encode_permutation(perm)
            assert form.evaluate(bits) == pytest.approx(objective(inst, perm), abs=1e-9)
            assert form.decode(bits) == perm

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_decode_rejects_infeasible(self, kind):
        inst = random_instance(3, seed=7)
        form = encode(inst, kind)
        assert form.decode(0) is None  # all zeros: nothing assigned anywhere

    def test_hubo_decode_discarded_code(self):
        inst = random_instance(3, seed=7)
        form = encode_hubo_hw(inst)
        # rows decode via codes 11,10,01; bit pattern 00 in row 0 is discarded
        bits = form.encode_permutation(Permutation((1, 2, 3)))
        row0_mask = 0b11
        assert form.decode(bits & ~row0_mask) is None

    def test_hubo_decode_duplicate_location(self):
        inst = random_instance(3, seed=7)
        form = encode_hubo_hw(inst)
        table = form.code_table
        bits = 0
        for row in (0, 1, 2):
            code = table.codes[0]  # everyone at location 1
            for r, b in enumerate(code):
                if b:
                    bits |= 1 << (row * table.bits_b + r)
        assert form.decode(bits) is None

    def test_qubo_decode_multibit_row(self):
        inst = random_instance(3, seed=7)
        form = encode_qubo(inst)
        bits = form.encode_permutation(Permutation((1, 2, 3)))
        assert form.decode(bits | 0b10) is None  # second bit in row 0 set


class TestPenaltyStructure:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_penalty_vanishes_on_permutations(self, kind):
        inst = random_instance(4, seed=31)
        zeroed = encode(inst, kind)
        for perm in all_permutations(4)[:6]:
            bits = zeroed.encode_permutation(perm)
            assert zeroed.evaluate(bits) == pytest.approx(objective(inst, perm), abs=1e-9)

    def test_dicke_column_collision_penalty_value(self):
        inst = random_instance(3, seed=5)
        lam = 9.0
        form = encode_qubo_dicke(inst, lam_col=lam)
        # rows 0 and 1 both at column 0, row 2 at column 2: one column with
        # count 2 (dev 1), one with count 0 (dev 1), one with count 1.
        bits = (1 << 0) | (1 << 3) | (1 << 8)
        raw = inst.flow[0, 1] * inst.dist[0, 0] * 2 + inst.flow[0, 2] * inst.dist[0, 2] * 2
        raw += inst.flow[1, 2] * inst.dist[0, 2] * 2
        expected_penalty = lam * ((2 - 1) ** 2 + (0 - 1) ** 2)
        assert form.evaluate(bits) == pytest.approx(raw + expected_penalty, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_penalty_dominance_exhaustive(self, n, kind):
        """With default penalties, every infeasible state beats no feasible one."""
        inst = random_instance(n, seed=55 + n)
        form = encode(inst, kind)
        table = form.poly.evaluate_table()
        feasible_min = min(
            form.evaluate(form.encode_permutation(p)) for p in all_permutations(n)
        )
        if form.kind is FormulationKind.QUBO_DICKE:
            from qapgas.space import dicke_rank_to_bits

            states = [dicke_rank_to_bits(form, r) for r in range(n**n)]
        else:
            states = range(1 << form.num_vars)
        for x in states:
            if form.decode(int(x)) is None:
                assert table[x] > feasible_min + 1e-9

    def test_rejects_nonpositive_penalties(self):
        inst = random_instance(3, seed=1)
        with pytest.raises(ValueError):
            encode_qubo(inst, lam_row=0)
        with pytest.raises(ValueError):
            encode_hubo_hw(inst, lam_col=-1)


def asymmetric_instance(n, seed):
    """Non-symmetric flows and distances with a nonzero diagonal, on a 0.001 grid."""
    rng = np.random.default_rng(seed)
    flow, dist = (rng.integers(1, 1001, size=(n, n)) / 1000.0 for _ in range(2))
    return QapInstance(n, flow, dist)


def location_indicators(form, x):
    """I[i][j] = 1 when row i of bitmask x reads as location j (one-hot bit or code)."""
    n, width = form.size_n, form.row_width
    rows = [tuple((x >> (i * width + r)) & 1 for r in range(width)) for i in range(n)]
    if form.code_table is None:
        return [list(row) for row in rows]
    return [[int(row == code) for code in form.code_table.codes] for row in rows]


def frac(v):
    """The exact coefficient the encoders take for a float entry or penalty."""
    return Fraction(float(v)).limit_denominator(10**6)


def defined_value(flow, dist, lam_row, lam_col, ind):
    """sum f_ik c_jl I_ij I_kl plus both squared one-hot penalties, in Fractions."""
    n = len(ind)
    ones = [(i, j) for i in range(n) for j in range(n) if ind[i][j]]
    value = sum(flow[i][k] * dist[j][l] for i, j in ones for k, l in ones)
    if lam_row is not None:
        value += lam_row * sum((sum(row) - 1) ** 2 for row in ind)
    value += lam_col * sum((sum(row[j] for row in ind) - 1) ** 2 for j in range(n))
    return value


class TestEveryCoefficient:
    """The encoded polynomial equals its definition on the whole hypercube.

    A pseudo-Boolean function has exactly one multilinear form, so agreeing
    on every state in exact arithmetic pins every coefficient.
    """

    CASES = [
        ("qubo-h", n, pen) for n in (2, 3) for pen in ({}, {"lam_row": 2.5, "lam_col": 0.3})
    ] + [
        ("qubo-d", n, pen) for n in (2, 3) for pen in ({}, {"lam_col": 7.25})
    ] + [
        ("hubo-hw", n, pen) for n in (2, 3, 4) for pen in ({}, {"lam_row": 2.5, "lam_col": 0.3})
    ]

    @pytest.mark.parametrize("kind,n,penalties", CASES)
    @pytest.mark.parametrize("make", [generic_instance, random_instance, asymmetric_instance])
    def test_matches_definition_on_every_state(self, kind, n, penalties, make):
        inst = make(n, 11 + n)
        form = encode(inst, kind, **penalties)
        defaults = {
            "qubo-h": (n * n, n * n), "qubo-d": (None, n * n), "hubo-hw": (1, n * n)
        }[kind]
        lam_row = penalties.get("lam_row", defaults[0])
        lam_row = None if lam_row is None else frac(lam_row)
        lam_col = frac(penalties.get("lam_col", defaults[1]))
        flow, dist = ([[frac(v) for v in row] for row in mat] for mat in (inst.flow, inst.dist))
        for x in range(1 << form.num_vars):
            ind = location_indicators(form, x)
            assert form.poly.evaluate(x) == defined_value(flow, dist, lam_row, lam_col, ind), x


class TestPinnedTerms:
    """The encoded terms -- keys, order, values and types -- are pinned.

    Each digest is the SHA-256 of the repr of [list(form.poly.terms.items())
    for N = 2..8] (the bundled sizes in that range for sample_instance),
    recorded when the encoder still summed Fractions term by term.
    """

    MAKERS = {
        "generic": lambda n: generic_instance(n, 5),
        "random": lambda n: random_instance(n, 5),
        "dense": lambda n: dense_instance(n, 5),
        "sample": sample_instance,
    }
    DIGESTS = {
    ("generic", "qubo-h", "default"): "587167f69d32e1813b8eaba663689ddcce7baf2a6774eba304d97b39cb025e7e",
    ("generic", "qubo-h", "custom"): "8feb9e0c0ad0a1d05d10c61d0086c762a7919e107662e260f0cab06266c4c284",
    ("generic", "qubo-d", "default"): "af4de1151badbbbce83084b9b8c3d316acfe58e2f0ecfb5ce143646a014d09b8",
    ("generic", "qubo-d", "custom"): "f9d86b37e55ddb993de9c732f14ec00fa7d775814220dbcbee212b67b53b8f74",
    ("generic", "hubo-hw", "default"): "3f09792b4371c452ed3b6ae712d3ea05d36691666b266209f4593ba76a526412",
    ("generic", "hubo-hw", "custom"): "cc6c6f8917b495a4ec1aab28a0425136046c30371bcbfad8e1ed4682159c8c63",
    ("random", "qubo-h", "default"): "9967511c4972bce9adbea536d95e3b62cdf80e0b5f45dead471f1a3b23552735",
    ("random", "qubo-h", "custom"): "8ef6f2e7631f7a919acdbb4bf95a1e0e89c38c539a1eeb774311e0ec02085259",
    ("random", "qubo-d", "default"): "87a363b4658c2a3fb79248b65d487063542fcf03a55fab096af284cd8623184a",
    ("random", "qubo-d", "custom"): "2334c2d0be68935ed2e7996ee1a125da2a379fae0b87500359e9f3f122549d6f",
    ("random", "hubo-hw", "default"): "65fb78bb78c78adbdd33cb24aa3ee7ea8a477ab9b17d6b92efad511fd4fec9d1",
    ("random", "hubo-hw", "custom"): "ee9520321e7b142bb3cb3345cfe582fd52e6b299ce25e3773626f6544e16270f",
    ("dense", "qubo-h", "default"): "9d3bfdd737597d5d65c99c9243fdaf763abd2d9ad9683dd5bcc72f7a683d1ef4",
    ("dense", "qubo-h", "custom"): "a00fceb686dd1df04af0a079c40e4cbe1b1ea762d7aa284299497a9060020ed7",
    ("dense", "qubo-d", "default"): "5724c67c8d403cfb99498ee5930765f54e7035bf8f7b3db1b4bdfc474bed901e",
    ("dense", "qubo-d", "custom"): "5a3544e7951a02eedb7cd44927b9e8d6a639471703e8daf028a51aad5bd32b52",
    ("dense", "hubo-hw", "default"): "16adcfaaa9ad46fc45ed253d6695d8fdfacd07efe2aae6ba1793dffb4cbedf67",
    ("dense", "hubo-hw", "custom"): "a57c99d717b79239afe8ff5bd3ccea5c02f3ee7a4e9e02fe28e55c127a10033b",
    ("sample", "qubo-h", "default"): "04fd00b7d21eae14e5f580079d4fae3aa5a3f76b9f7aee12b94d05613fab9dd3",
    ("sample", "qubo-h", "custom"): "9e167ed57827c2a678402522b187199461781c0c6b1be39196ae7b86bfc40992",
    ("sample", "qubo-d", "default"): "1c3762f14fbc8a56c6c1d64bf50bdd68e8415e8226d2d82e71b40f684829cb91",
    ("sample", "qubo-d", "custom"): "23a59bc86574e7294fac414990fc76321c763086b9aebff2426c4ae6af36894b",
    ("sample", "hubo-hw", "default"): "b274c3f1d761e8c8298808356d80b7c6c30c58376cb9feff6253df1b2fe1a98b",
    ("sample", "hubo-hw", "custom"): "4b05695fb1cf8962030d814342ae277e6eaf9200b0eb02d02facba5fc37cb97a",
    }

    @pytest.mark.parametrize("maker,kind,penalties", sorted(DIGESTS))
    def test_terms_match_pinned_digest(self, maker, kind, penalties):
        pen = {}
        if penalties == "custom":
            pen = {"lam_col": 0.3} if kind == "qubo-d" else {"lam_row": 2.5, "lam_col": 0.3}
        sizes = [n for n in range(2, 9) if maker != "sample" or n in SAMPLE_SIZES]
        terms = [list(encode(self.MAKERS[maker](n), kind, **pen).poly.terms.items()) for n in sizes]
        assert all(type(c) is Fraction for form_terms in terms for _, c in form_terms)
        digest = hashlib.sha256(repr(terms).encode()).hexdigest()
        assert digest == self.DIGESTS[maker, kind, penalties]


class TestInexactInputsRaise:
    """A value the encoders' exact coefficients cannot hold is refused, never rounded."""

    @pytest.mark.parametrize("lam", [1e-7, 1e-9, 0.1234567])
    def test_penalty_that_would_round_raises(self, lam):
        inst = random_instance(3, seed=1)
        with pytest.raises(ValueError, match="denominator"):
            encode_qubo(inst, lam_row=lam)
        with pytest.raises(ValueError, match="denominator"):
            encode_qubo_dicke(inst, lam_col=lam)
        with pytest.raises(ValueError, match="denominator"):
            encode_hubo_hw(inst, lam_col=lam)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("matrix", ["flow", "dist"])
    def test_entry_that_would_round_raises(self, kind, matrix):
        inst = random_instance(3, seed=1)
        mats = {"flow": inst.flow.copy(), "dist": inst.dist.copy()}
        mats[matrix][0, 1] = mats[matrix][1, 0] = 0.1234567
        with pytest.raises(ValueError, match="denominator"):
            encode(QapInstance(3, mats["flow"], mats["dist"]), kind)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_entries_that_round_trip_encode_exactly(self, kind):
        """1/p for primes just below 10**6 round-trip: encoded, exact optimum."""
        primes = (999_983, 999_979, 999_961)
        flow = np.zeros((3, 3))
        for (i, j), p in zip(((0, 1), (0, 2), (1, 2)), primes):
            flow[i, j] = flow[j, i] = 1 / p
        dist = np.full((3, 3), 1 / 3)
        inst = QapInstance(3, flow, dist)
        form = encode(inst, kind)
        for perm in all_permutations(3):
            value = form.poly.evaluate(form.encode_permutation(perm))
            assert value == 2 * sum(Fraction(1, p) for p in primes) / 3

    def test_entries_a_few_ulps_off_are_read_as_their_fraction(self):
        """0.6 / 0.8 is 0.7499999999999999 in floats: it stands for 3/4."""
        inst = random_instance(3, seed=1)

        def with_entry(value):
            flow = inst.flow.copy()
            flow[0, 1] = flow[1, 0] = value
            return QapInstance(3, flow, inst.dist)

        exact = encode(with_entry(0.75), "qubo-h").poly
        for value in (0.6 / 0.8, float(np.nextafter(0.75, 1.0))):
            assert value != 0.75
            assert encode(with_entry(value), "qubo-h").poly == exact
            assert encode_qubo(inst, lam_row=value).poly == encode_qubo(inst, lam_row=0.75).poly

    def test_every_bundled_sample_encodes(self):
        for n in SAMPLE_SIZES:
            for kind in ALL_KINDS:
                encode(sample_instance(n), kind)


def term_formula(n, kind):
    if kind in ("qubo-h", "qubo-d"):
        return (n**4 + n**2) // 2 + 1
    if n & (n - 1) == 0:
        return (n**4 - 3 * n**3 + 5 * n**2 - n + 2) // 2
    return (n**4 - n**3 + 2 * n**2 + 2) // 2


class TestTermCounts:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_qubo_counts_match_formula(self, n):
        inst = generic_instance(n, seed=5)
        for builder in (encode_qubo, encode_qubo_dicke):
            census = term_census(builder(inst))
            assert census.distinct_terms == term_formula(n, "qubo-h")
            assert census.structural_terms == census.distinct_terms

    @pytest.mark.parametrize("n", range(2, 9))
    def test_hubo_counts_match_formula(self, n):
        census = term_census(encode_hubo_hw(generic_instance(n, seed=5)))
        assert census.structural_terms == term_formula(n, "hubo-hw")
        power_of_two = n & (n - 1) == 0
        expected_gap = n if power_of_two else 0
        assert census.structural_terms - census.distinct_terms == expected_gap

    def test_specific_counts(self):
        inst4 = generic_instance(4, seed=5)
        inst3 = generic_instance(3, seed=5)
        assert term_census(encode_qubo(inst4)).distinct_terms == 137
        assert term_census(encode_hubo_hw(inst4)).structural_terms == 71
        assert term_census(encode_hubo_hw(inst3)).distinct_terms == 37

    def test_degenerate_instances_only_lose_terms(self):
        sparse = random_instance(4, seed=17)  # grid entries, zero diagonal
        census = term_census(encode_hubo_hw(sparse))
        assert census.distinct_terms <= term_formula(4, "hubo-hw") - 4

    def test_hubo_degree_is_twice_code_width(self):
        inst = generic_instance(5, seed=5)
        form = encode_hubo_hw(inst)
        assert form.poly.degree() == 2 * form.code_table.bits_b


class TestSearchSpaceSizes:
    def test_power_of_two_collapses_first_pair(self):
        assert search_space_sizes(4) == (256, 256, 65536)

    def test_n5(self):
        assert search_space_sizes(5) == (3125, 32768, 33554432)

    def test_n2(self):
        assert search_space_sizes(2) == (4, 4, 16)

    @pytest.mark.parametrize("n", range(2, 33))
    def test_chain_and_equality_condition(self, n):
        dicke, hubo, conventional = search_space_sizes(n)
        assert dicke <= hubo < conventional
        assert (dicke == hubo) == (n & (n - 1) == 0)

    def test_formulation_space_sizes_agree(self):
        inst = random_instance(5, seed=1)
        dicke, hubo, conventional = search_space_sizes(5)
        assert encode_qubo(inst).space_size == conventional
        assert encode_qubo_dicke(inst).space_size == dicke
        assert encode_hubo_hw(inst).space_size == hubo


class TestVariableOrdering:
    def test_qubo_row_major(self):
        inst = random_instance(3, seed=2)
        form = encode_qubo(inst)
        bits = form.encode_permutation(Permutation((2, 3, 1)))
        assert bits == (1 << 1) | (1 << (3 + 2)) | (1 << (6 + 0))

    def test_hubo_row_major_bits(self):
        inst = random_instance(3, seed=2)
        form = encode_hubo_hw(inst)
        bits = form.encode_permutation(Permutation((1, 2, 3)))
        # codes: loc1=11, loc2=10, loc3=01; row stride 2
        assert bits == (0b11 << 0) | (0b01 << 2) | (0b10 << 4)

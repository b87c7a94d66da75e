import math

import pytest

from qapgas.analysis import (
    ALL_KINDS,
    cnot_total,
    controlled_rotation_count,
    controlled_rotation_count_pow2,
    distinct_term_count_formula,
    hubo_rotation_histogram,
    metrics_csv,
    metrics_rows,
    objective_upper_bound,
    qubo_rotation_histogram,
    register_widths,
    term_count_formula,
)
from qapgas.encodings import build_code_table, num_code_bits, term_census
from qapgas.qap import generic_instance
from qapgas.encodings import encode_hubo_hw, encode_qubo


class TestTermFormulas:
    @pytest.mark.parametrize(
        "n,kind,expected",
        [
            (4, "qubo-h", 137),
            (4, "qubo-d", 137),
            (4, "hubo-hw", 71),
            (3, "hubo-hw", 37),
            (2, "qubo-h", 11),
            (8, "hubo-hw", 1437),
        ],
    )
    def test_values(self, n, kind, expected):
        assert term_count_formula(n, kind) == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_formula_matches_expansion_census(self, n):
        inst = generic_instance(n, seed=5)
        assert term_census(encode_qubo(inst)).distinct_terms == term_count_formula(n, "qubo-h")
        census = term_census(encode_hubo_hw(inst))
        assert census.structural_terms == term_count_formula(n, "hubo-hw")
        assert census.distinct_terms == distinct_term_count_formula(n, "hubo-hw")

    @pytest.mark.parametrize("n", range(2, 33))
    def test_hubo_never_exceeds_qubo(self, n):
        assert term_count_formula(n, "hubo-hw") < term_count_formula(n, "qubo-h")

    def test_difference_grows_with_n(self):
        # The advantage jumps at powers of two (3N^3/2 - 2N^2 + N/2 there vs
        # N^3/2 - N^2/2 elsewhere), so monotonicity holds per parity class.
        diff = lambda n: term_count_formula(n, "qubo-h") - term_count_formula(n, "hubo-hw")
        pow2 = [diff(n) for n in (2, 4, 8, 16, 32)]
        general = [diff(n) for n in range(2, 33) if n & (n - 1)]
        assert all(b > a for a, b in zip(pow2, pow2[1:]))
        assert all(b > a for a, b in zip(general, general[1:]))


class TestRegisterWidths:
    def test_hubo_n4_example(self):
        # bound 16 + 4 + 16*12 = 212 < 256 = 2^8 -> m = 9
        assert objective_upper_bound(4, "hubo-hw") == 212
        assert register_widths(4, "hubo-hw") == (8, 9)

    def test_qubo_n4_example(self):
        # bound 256 + 2*16*4*9 = 1408 < 2048 = 2^11 -> m = 12
        assert objective_upper_bound(4, "qubo-h") == 1408
        assert register_widths(4, "qubo-h") == (16, 12)

    def test_value_register_grows_logarithmically(self):
        # Doubling N adds at most 6 value qubits (the QUBO bound scales a bit
        # faster than 2^5 at finite N, so 6 is attained occasionally).
        for n in range(2, 65):
            for kind in ALL_KINDS:
                m1 = register_widths(n, kind)[1]
                m2 = register_widths(2 * n, kind)[1]
                assert 0 <= m2 - m1 <= 6

    @pytest.mark.parametrize("n", range(3, 65))
    def test_hubo_needs_fewest_qubits(self, n):
        totals = {kind: sum(register_widths(n, kind)) for kind in ALL_KINDS}
        assert totals["hubo-hw"] == min(totals.values())
        assert totals["hubo-hw"] < totals["qubo-h"]

    def test_fig_compat_penalty_increases_bound(self):
        loose = register_widths(8, "hubo-hw")[1]
        strict = register_widths(8, "hubo-hw", fig_compat=True)[1]
        assert strict >= loose


class TestRotationCounts:
    def test_qubo_histogram(self):
        assert qubo_rotation_histogram(4) == {1: 16, 2: 120}

    def test_n4_k2_closed_form(self):
        # (C(4,2)*(C(4,2)-2*C(2,2)) + 4*C(2,2)) = 6*4+4 = 28 ladders
        m = register_widths(4, "hubo-hw")[1]
        assert controlled_rotation_count_pow2(4, 2) == 28 * m
        assert controlled_rotation_count(4, 2) == 28 * m

    def test_top_order_is_row_pairs_only(self):
        for n in (2, 4, 8):
            b = num_code_bits(n)
            m = register_widths(n, "hubo-hw")[1]
            assert controlled_rotation_count_pow2(n, 2 * b) == math.comb(n, 2) * m

    def test_n3_worked_example(self):
        table = build_code_table(3)
        assert table.weights() == [2, 1, 1]
        weights = table.weights()
        pair_sums = sorted(a + b for a in weights for b in weights)
        assert pair_sums == [2, 2, 2, 2, 3, 3, 3, 3, 4]
        m = register_widths(3, "hubo-hw")[1]
        assert controlled_rotation_count(3, 2) == (1 * 3 + 4 * 3) * m

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_general_path_reproduces_convolution(self, n):
        b = num_code_bits(n)
        for k in range(1, 2 * b + 1):
            assert controlled_rotation_count(n, k, 1) == controlled_rotation_count_pow2(n, k, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_histogram_total_matches_census(self, n):
        inst = generic_instance(n, seed=5)
        census = term_census(encode_hubo_hw(inst))
        hist = hubo_rotation_histogram(n)
        assert hist == census.controlled_per_order
        assert sum(hist.values()) == term_count_formula(n, "hubo-hw") - census.constant_generators

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            controlled_rotation_count_pow2(3, 1)
        with pytest.raises(ValueError):
            controlled_rotation_count_pow2(4, 5)


class TestCnotTotals:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_qubo_rz_equals_closed_form(self, n):
        m = register_widths(n, "qubo-h")[1]
        res = cnot_total(n, "qubo-h", "rz", m)
        assert res.total == res.closed_form == (m + 1) * n**4 + (m - 1) * n**2

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_hubo_rz_bounded_by_closed_form(self, n):
        res = cnot_total(n, "hubo-hw", "rz")
        assert res.total <= res.closed_form

    def test_difference_grows_like_n4(self):
        gaps = []
        for n in (4, 8, 16):
            m = register_widths(n, "qubo-h")[1]
            mp = register_widths(n, "hubo-hw")[1]
            gaps.append(
                cnot_total(n, "qubo-h", "rz", m).total - cnot_total(n, "hubo-hw", "rz", mp).total
            )
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[2] > 16**4

    def test_r_model_is_heavier_for_high_orders(self):
        rz = cnot_total(8, "hubo-hw", "rz").total
        r = cnot_total(8, "hubo-hw", "r").total
        assert r > rz

    def test_model_name_checked(self):
        with pytest.raises(ValueError):
            cnot_total(4, "qubo-h", "cz")


class TestMetricsTable:
    def test_rows_cover_all_kinds(self):
        rows = metrics_rows(2, 6)
        assert len(rows) == 5 * 3
        by_kind = {r.kind for r in rows}
        assert by_kind == set(ALL_KINDS)

    def test_term_difference_positive_and_increasing(self):
        rows = metrics_rows(2, 16, kinds=("qubo-h", "hubo-hw"))
        diffs = {}
        for row in rows:
            diffs.setdefault(row.n, {})[row.kind] = row.term_count
        deltas = {n: d["qubo-h"] - d["hubo-hw"] for n, d in sorted(diffs.items())}
        assert all(v > 0 for v in deltas.values())
        for cls in (lambda n: n & (n - 1) == 0, lambda n: n & (n - 1) != 0):
            seq = [deltas[n] for n in sorted(deltas) if cls(n)]
            assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_search_space_column(self):
        rows = {r.kind: r for r in metrics_rows(5, 5)}
        assert rows["qubo-d"].search_space == 5**5
        assert rows["hubo-hw"].search_space == 2**15
        assert rows["qubo-h"].search_space == 2**25

    def test_csv_has_difference_columns(self):
        text = metrics_csv(metrics_rows(2, 4))
        header = text.splitlines()[0].split(",")
        assert "term_diff_vs_hubo" in header
        assert "cnot_rz_diff_vs_hubo" in header
        assert len(text.splitlines()) == 1 + 3 * 3

    def test_csv_text_is_pinned(self):
        header = (
            "n,kind,term_count,distinct_terms,qubits_vars,qubits_value,qubits_total,"
            "cnot_r_model,cnot_rz_model,search_space,term_diff_vs_hubo,cnot_rz_diff_vs_hubo"
        )
        rows = [
            "2,qubo-h,11,11,4,7,11,224,152,16,5,120",
            "2,qubo-d,11,11,4,6,10,192,132,4,5,100",
            "2,hubo-hw,6,4,2,5,7,40,32,4,0,0",
            "3,qubo-h,46,46,9,10,19,1620,972,512,9,300",
            "3,qubo-d,46,46,9,9,18,1458,882,27,9,210",
            "3,hubo-hw,37,37,6,8,14,1728,672,64,0,0",
            "4,qubo-h,137,137,16,12,28,6144,3504,65536,66,2128",
            "4,qubo-d,137,137,16,11,27,5632,3232,256,66,1856",
            "4,hubo-hw,71,67,8,9,17,3744,1376,256,0,0",
            "5,qubo-h,326,326,25,14,39,17500,9700,33554432,50,2100",
            "5,qubo-d,326,326,25,13,38,16250,9050,3125,50,1450",
            "5,hubo-hw,276,276,15,11,26,54450,7600,32768,0,0",
            "6,qubo-h,667,667,36,15,51,38880,21240,68719476736,90,4476",
            "6,qubo-d,667,667,36,14,50,36288,19908,46656,90,3144",
            "6,hubo-hw,577,577,18,12,30,105408,16764,262144,0,0",
            "7,qubo-h,1226,1226,49,16,65,76832,41552,562949953421312,147,8456",
            "7,qubo-d,1226,1226,49,15,64,72030,39102,823543,147,6006",
            "7,hubo-hw,1079,1079,21,13,34,186914,33096,2097152,0,0",
            "8,qubo-h,2081,2081,64,17,81,139264,74752,18446744073709551616,644,30880",
            "8,qubo-d,2081,2081,64,16,80,131072,70592,16777216,644,26720",
            "8,hubo-hw,1437,1429,24,13,37,248768,43872,16777216,0,0",
            "9,qubo-h,3322,3322,81,18,99,236196,126036,2417851639229258349412352,324,16578",
            "9,qubo-d,3322,3322,81,17,98,223074,119394,387420489,324,9936",
            "9,hubo-hw,2998,2998,36,14,50,2072448,109458,68719476736,0,0",
        ]
        assert metrics_csv(metrics_rows(2, 9)) == "\r\n".join([header, *rows, ""])
        # Without a hubo-hw row of the same size the difference columns are empty.
        qubo_h = [
            "2,qubo-h,11,11,4,7,11,224,152,16,,",
            "3,qubo-h,46,46,9,10,19,1620,972,512,,",
            "4,qubo-h,137,137,16,12,28,6144,3504,65536,,",
        ]
        assert metrics_csv(metrics_rows(2, 4, kinds=("qubo-h",))) == "\r\n".join([header, *qubo_h, ""])

"""Acceptance suite: one test per shipped correctness criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure).
Criteria 6-8 are statistical experiments marked `slow`; run the whole file
with plain `pytest tests/test_acceptance.py` (default) or skip the long ones
with `-m "not slow"`.
"""
import math
import time

import numpy as np
import pytest

from qapgas.analysis import (
    cnot_total,
    controlled_rotation_count,
    register_widths,
    term_count_formula,
)
from qapgas.circuits import (
    build_dicke,
    build_state_prep,
    count_gates,
)
from qapgas.encodings import (
    FormulationKind,
    build_code_table,
    encode,
    encode_hubo_hw,
    encode_qubo,
    encode_qubo_dicke,
    num_code_bits,
    search_space_sizes,
    term_census,
)
from qapgas.gas import (
    ExactEngine,
    GasConfig,
    KnownOptimum,
    SearchSpace,
    cdf_experiment,
    run_gas,
)
from qapgas.polynomials import MultilinearPolynomial
from qapgas.qap import (
    Permutation,
    QapInstance,
    brute_force_optimum,
    dense_instance,
    generic_instance,
    objective,
    random_instance,
)
import itertools


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status}{suffix}")


def test_criterion_1_dicke_correctness():
    start = time.time()
    ok = True
    from qapgas.sim import StateVector

    circuit = build_dicke(4, 2)
    amps = StateVector(4).apply_all(circuit.gates).amplitudes
    target = 1 / math.sqrt(6)
    for i in range(16):
        expected = target if bin(i).count("1") == 2 else 0.0
        ok &= abs(amps[i] - expected) <= 1e-10

    for n in range(1, 10):
        for k in range(1, min(n, 4) + 1):
            amps = StateVector(n).apply_all(build_dicke(n, k).gates).amplitudes
            t = 1 / math.sqrt(math.comb(n, k))
            for i in range(1 << n):
                expected = t if bin(i).count("1") == k else 0.0
                ok &= abs(amps[i] - expected) <= 1e-10
    elapsed = time.time() - start
    report(1, "Dicke state uniformity", ok and elapsed < 1.0, f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_value_register_readout():
    start = time.time()
    from qapgas.sim import StateVector

    from qapgas.encodings import Formulation

    poly = MultilinearPolynomial(3, {(): 1, (0,): 2, (0, 1, 2): -3})
    inst = QapInstance(2, np.zeros((2, 2)), np.zeros((2, 2)))
    form = Formulation(FormulationKind.QUBO_HADAMARD, poly, 3, 2, (1.0, 1.0), inst)
    prep = build_state_prep(form, width=3, threshold=0.0)
    sv = StateVector(prep.num_qubits).apply_all(prep.gates)
    probs = sv.probabilities().reshape(8, 8)
    ok = True
    for x in range(8):
        expected_row = int(poly.evaluate(x)) % 8
        ok &= probs[expected_row, x] == pytest.approx(1 / 8, abs=1e-10)
        ok &= probs[:, x].sum() == pytest.approx(1 / 8, abs=1e-10)
    elapsed = time.time() - start
    report(2, "value-register two's-complement readout", ok and elapsed < 1.0, f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_3_term_count_closed_forms():
    start = time.time()
    ok = True
    details = []
    for n in range(2, 9):
        inst = generic_instance(n, seed=5)
        for build in (encode_qubo, encode_qubo_dicke):
            census = term_census(build(inst))
            ok &= census.distinct_terms == term_count_formula(n, "qubo-h")
        census = term_census(encode_hubo_hw(inst))
        ok &= census.structural_terms == term_count_formula(n, "hubo-hw")
        power_of_two = n & (n - 1) == 0
        ok &= census.structural_terms - census.distinct_terms == (n if power_of_two else 0)
        if n in (3, 4):
            details.append(f"N={n}: hubo={census.structural_terms}")
    inst4 = generic_instance(4, seed=5)
    ok &= term_census(encode_qubo(inst4)).distinct_terms == 137
    ok &= term_census(encode_hubo_hw(inst4)).structural_terms == 71
    ok &= term_census(encode_hubo_hw(generic_instance(3, seed=5))).distinct_terms == 37
    elapsed = time.time() - start
    report(3, "term-count closed forms N=2..8", ok and elapsed < 10, f"{'; '.join(details)}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 10


def test_criterion_4_gate_count_cross_check():
    start = time.time()
    ok = True
    for n in (2, 3, 4):
        m_q = register_widths(n, "qubo-h")[1]
        prep = build_state_prep(encode_qubo(dense_instance(n, seed=0)), m_q)
        counts = count_gates(prep)
        ok &= counts.term_rank_histogram == {1: n * n * m_q, 2: math.comb(n * n, 2) * m_q}
        ok &= counts.cnot_rz_model == (m_q + 1) * n**4 + (m_q - 1) * n**2
        ok &= counts.cnot_rz_model == cnot_total(n, "qubo-h", "rz", m_q).total
        ok &= counts.cnot_r_model == cnot_total(n, "qubo-h", "r", m_q).total

        m_h = register_widths(n, "hubo-hw")[1]
        prep = build_state_prep(encode_hubo_hw(dense_instance(n, seed=0)), m_h)
        counts = count_gates(prep)
        for k, gates in counts.term_rank_histogram.items():
            ok &= gates == controlled_rotation_count(n, k, m_h)
        ok &= counts.cnot_rz_model == cnot_total(n, "hubo-hw", "rz", m_h).total
        ok &= counts.cnot_r_model == cnot_total(n, "hubo-hw", "r", m_h).total
        if n & (n - 1) == 0:
            bound = (m_h + num_code_bits(n)) * n**4
            ok &= counts.cnot_rz_model <= bound
    elapsed = time.time() - start
    report(4, "gate counts match closed forms N=2..4", ok and elapsed < 10, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 10


def test_criterion_5_general_gate_formula_worked_example():
    table = build_code_table(3)
    weights = table.weights()
    ok = weights == [2, 1, 1]
    pair_sums = [a + b for a in weights for b in weights]
    ok &= sorted(pair_sums) == sorted([4, 3, 3, 3, 2, 2, 3, 2, 2])
    m = register_widths(3, "hubo-hw")[1]
    ok &= controlled_rotation_count(3, 2, m) == 15 * m
    ok &= controlled_rotation_count(3, 2, 1) == (1 * 3 + 4 * 3)
    report(5, "size-3 worked gate-count example", ok, f"15*m with m={m}")
    assert ok


@pytest.mark.slow
def test_criterion_6_backend_equivalence():
    from scipy.stats import chi2_contingency

    start = time.time()
    rng = np.random.default_rng(606)
    shots = 10_000
    ok = True
    pairs = []
    for n in (3, 4):
        form = encode_hubo_hw(random_instance(n, seed=208))
        engine = ExactEngine(form, scale=100.0)
        space = SearchSpace(form)
        for q in (0.2, 0.5, 0.8):
            y = float(space.sorted_values[int(q * (space.size - 1))])
            for rotations in (0, 1, 2, 5):
                exact_marks = int(
                    (engine.values[engine.sample_many(y, rotations, shots, rng)] < y).sum()
                )
                emul_marks = sum(space.sample(y, rotations, rng)[1] < y for _ in range(shots))
                if {exact_marks, emul_marks} <= {0, shots}:
                    ok &= exact_marks == emul_marks
                    continue
                _, p, _, _ = chi2_contingency(
                    [[exact_marks, shots - exact_marks], [emul_marks, shots - emul_marks]]
                )
                pairs.append(p)
                ok &= p > 0.01
    elapsed = time.time() - start
    report(6, "exact vs emulated backend equivalence", ok and elapsed < 300,
           f"min p={min(pairs):.3f} over {len(pairs)} pairs, {elapsed:.0f}s")
    assert ok
    assert elapsed < 300


@pytest.mark.slow
def test_criterion_7_gas_reaches_optimum():
    start = time.time()
    ok = True
    runs = 100
    kinds = list(FormulationKind)
    for n in (3, 4, 5):
        for seed in (1, 2, 3):
            inst = random_instance(n, seed=seed)
            _, best = brute_force_optimum(inst)
            for kind in kinds:
                form = encode(inst, kind)
                space = SearchSpace(form)
                root = np.random.SeedSequence(n * 1000 + seed * 10 + kinds.index(kind))
                for child in root.spawn(runs):
                    trace = run_gas(
                        form,
                        GasConfig(termination=KnownOptimum(best), seed=child),
                        space=space,
                    )
                    ok &= trace.found_optimum is True
                    ok &= abs(trace.best_value - best) <= 1e-9
                del space
    elapsed = time.time() - start
    report(7, "optimum found in 100% of runs (N=3..5, all encodings)",
           ok and elapsed < 600, f"{elapsed:.0f}s")
    assert ok
    assert elapsed < 600


@pytest.mark.slow
def test_criterion_8_query_complexity_ratios():
    from qapgas.samples import sample_instance

    start = time.time()
    runs = 1000
    ok = True
    details = []

    inst4 = sample_instance(4)
    _, best4 = brute_force_optimum(inst4)
    forms4 = {k.value: encode(inst4, k) for k in FormulationKind}
    res4 = cdf_experiment(forms4, best4, runs=runs, seed=404)
    ratio_dicke_hubo = res4.median_ratio("qubo-d", "hubo-hw")
    ok &= 0.5 <= ratio_dicke_hubo <= 2.0
    best_proposed = min(res4.median("qubo-d"), res4.median("hubo-hw"))
    speedup4 = res4.median("qubo-h") / best_proposed
    ok &= speedup4 >= 5.0
    details.append(f"N=4 dicke/hubo={ratio_dicke_hubo:.2f} speedup={speedup4:.1f}x")

    inst5 = sample_instance(5)
    _, best5 = brute_force_optimum(inst5)
    forms5 = {k.value: encode(inst5, k) for k in FormulationKind}
    res5 = cdf_experiment(forms5, best5, runs=runs, seed=505)
    speedup5 = res5.median_ratio("qubo-h", "qubo-d")
    ok &= speedup5 >= 10.0
    ok &= res5.median("qubo-d") <= res5.median("hubo-hw")
    details.append(
        f"N=5 conv/dicke={speedup5:.1f}x dicke_med={res5.median('qubo-d'):.0f} "
        f"hubo_med={res5.median('hubo-hw'):.0f}"
    )

    elapsed = time.time() - start
    report(8, "query-complexity orderings", ok and elapsed < 1800,
           f"{'; '.join(details)}, {elapsed:.0f}s")
    assert ok
    assert elapsed < 1800


def test_criterion_9_search_space_chain():
    start = time.time()
    ok = True
    for n in range(2, 33):
        dicke, hubo, conventional = search_space_sizes(n)
        ok &= dicke <= hubo < conventional
        ok &= (dicke == hubo) == (n & (n - 1) == 0)
        ok &= dicke == n**n
        ok &= hubo == 2 ** (n * num_code_bits(n))
        ok &= conventional == 2 ** (n * n)
    elapsed = time.time() - start
    report(9, "search-space chain N=2..32", ok and elapsed < 1.0, f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_10_encoding_equivalence():
    start = time.time()
    ok = True
    for n in (2, 3, 4, 5):
        inst = random_instance(n, seed=777 + n)
        forms = [encode(inst, kind) for kind in FormulationKind]
        for mapping in itertools.permutations(range(1, n + 1)):
            perm = Permutation(mapping)
            reference = objective(inst, perm)
            for form in forms:
                bits = form.encode_permutation(perm)
                ok &= abs(form.evaluate(bits) - reference) <= 1e-9
                ok &= form.decode(bits) == perm
    elapsed = time.time() - start
    report(10, "encoding equivalence on permutations N<=5", ok and elapsed < 60, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 60

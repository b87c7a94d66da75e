"""Closed-form metric calculators and comparison tables.

Everything here is a pure function of the problem size N (plus a penalty
convention), mirroring the algebraic analysis of the three formulations:
term counts, register widths, controlled-rotation histograms, CNOT totals
under the phase-gate and traceless-rotation decomposition models, and the
search-space sizes.  The circuit module's empirical tallies must reproduce
these numbers exactly at desk scale; tests enforce that.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass, fields

from .circuits import ladder_cnots, width_for_range
from .encodings import build_code_table, num_code_bits, search_space_sizes

QUBO_KINDS = ("qubo-h", "qubo-d")
ALL_KINDS = ("qubo-h", "qubo-d", "hubo-hw")


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def term_count_formula(n: int, kind: str) -> int:
    """Maximum number of objective terms after expansion.

    QUBO (either initialization): N^4/2 + N^2/2 + 1.  The hubo-hw count is
    N^4/2 - N^3/2 + N^2 + 1 in general and
    N^4/2 - 3N^3/2 + 5N^2/2 - N/2 + 1 when N is a power of two; the
    power-of-two case enumerates the N weight-zero indicators separately even
    though their expansions merge into the constant, so it exceeds the
    distinct-monomial count by exactly N there (see TermCensus).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if kind in QUBO_KINDS:
        return (n**4 + n**2) // 2 + 1
    if kind == "hubo-hw":
        if is_power_of_two(n):
            return (n**4 - 3 * n**3 + 5 * n**2 - n + 2) // 2
        return (n**4 - n**3 + 2 * n**2 + 2) // 2
    raise ValueError(f"unknown formulation kind {kind!r}")


def distinct_term_count_formula(n: int, kind: str) -> int:
    """Distinct monomials of a generic instance's expanded objective."""
    formula = term_count_formula(n, kind)
    if kind == "hubo-hw" and is_power_of_two(n):
        return formula - n
    return formula


# ---------------------------------------------------------------------------
# register widths
# ---------------------------------------------------------------------------


def objective_upper_bound(n: int, kind: str, penalties: tuple[float, ...] | None = None) -> float:
    """Worst-case objective value used to size the value register.

    QUBO: N^4 + (lam_row + lam_col) * N * (N-1)^2.  hubo-hw: N^2 + lam_row*N
    + lam_col*N*(N-1).  Defaults: every QUBO penalty N^2; hubo-hw row penalty
    1 and column penalty N^2.
    """
    if kind in QUBO_KINDS:
        if penalties is None:
            penalties = (n * n, n * n) if kind == "qubo-h" else (n * n,)
        lam_sum = sum(penalties)
        return n**4 + lam_sum * n * (n - 1) ** 2
    if kind == "hubo-hw":
        if penalties is None:
            penalties = (1, n * n)
        lam_row, lam_col = penalties
        return n**2 + lam_row * n + lam_col * n * (n - 1)
    raise ValueError(f"unknown formulation kind {kind!r}")


def register_widths(
    n: int, kind: str, penalties: tuple[float, ...] | None = None, fig_compat: bool = False
) -> tuple[int, int]:
    """(binary variables, value qubits) for a formulation of size n.

    The value register is the smallest m with bound < 2^(m-1); the bound is
    the closed-form worst case above.  ``fig_compat`` prices hubo-hw with
    both penalties at N^2 instead of the default small row penalty.
    """
    if kind in QUBO_KINDS:
        n_vars = n * n
    elif kind == "hubo-hw":
        n_vars = n * num_code_bits(n)
        if fig_compat and penalties is None:
            penalties = (n * n, n * n)
    else:
        raise ValueError(f"unknown formulation kind {kind!r}")
    bound = objective_upper_bound(n, kind, penalties)
    return n_vars, width_for_range(-bound, bound)


# ---------------------------------------------------------------------------
# controlled-rotation counts
# ---------------------------------------------------------------------------


def qubo_rotation_histogram(n: int) -> dict[int, int]:
    """Objective terms of each order for the QUBO encodings (generic instance)."""
    return {1: n * n, 2: math.comb(n * n, 2)}


def hubo_rotation_histogram(n: int) -> dict[int, int]:
    """hubo-hw objective terms of each order k >= 1 (generic instance).

    Built from the code table: a term of order k is either a single
    indicator monomial of weight k (N rows times the weight-k codes) or a
    cross-row product whose weights sum to k.  Weight-zero codes contribute
    no controlled gate and are excluded; this makes the census agree with the
    convolution form at powers of two.
    """
    table = build_code_table(n)
    weights = [w for w in table.weights() if w > 0]
    pair_sums: dict[int, int] = {}
    for wa in weights:
        for wb in weights:
            pair_sums[wa + wb] = pair_sums.get(wa + wb, 0) + 1
    hist: dict[int, int] = {}
    for k in range(1, 2 * table.bits_b + 1):
        singles = sum(1 for w in weights if w == k) * n
        pairs = pair_sums.get(k, 0) * math.comb(n, 2)
        if singles or pairs:
            hist[k] = singles + pairs
    return hist


def controlled_rotation_count(n: int, k: int, m_value: int | None = None) -> int:
    """Number of k-controlled phase rotations in the hubo-hw preparation.

    Counts single-qubit rotations, i.e. (terms of order k) * m'.  Valid for
    every N; at powers of two it reproduces the convolution closed form.
    """
    if m_value is None:
        m_value = register_widths(n, "hubo-hw")[1]
    return hubo_rotation_histogram(n).get(k, 0) * m_value


def controlled_rotation_count_pow2(n: int, k: int, m_value: int | None = None) -> int:
    """Convolution closed form for N = 2^B: valid for 1 <= k <= 2B.

    For k <= B:  [C(N,2) * (C(2B,k) - 2*C(B,k)) + N * C(B,k)] * m'.
    For k  > B:  C(N,2) * C(2B,k) * m'.
    """
    if not is_power_of_two(n):
        raise ValueError(f"closed form requires a power-of-two size, got {n}")
    b = num_code_bits(n)
    if not 1 <= k <= 2 * b:
        raise ValueError(f"order k={k} outside 1..{2 * b}")
    if m_value is None:
        m_value = register_widths(n, "hubo-hw")[1]
    pairs = math.comb(n, 2)
    if k <= b:
        terms = pairs * (math.comb(2 * b, k) - 2 * math.comb(b, k)) + n * math.comb(b, k)
    else:
        terms = pairs * math.comb(2 * b, k)
    return terms * m_value


# ---------------------------------------------------------------------------
# CNOT totals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnotTotal:
    """Exact modeled total plus the matching closed form, when one exists.

    For the qubo kinds under the "rz" model, closed_form is exact:
    (m+1)N^4 + (m-1)N^2.  For hubo-hw under "rz" it is the upper bound
    (m'+B)N^4 (meaningful at powers of two).  Under the "r" model there is no
    published closed form and closed_form is None.
    """

    total: int
    closed_form: int | None


def cnot_total(n: int, kind: str, model: str, m_value: int | None = None) -> CnotTotal:
    """Modeled CNOT count of the preparation's term gates, priced by ladder_cnots."""
    if m_value is None:
        m_value = register_widths(n, kind)[1]
    hist = qubo_rotation_histogram(n) if kind in QUBO_KINDS else hubo_rotation_histogram(n)
    total = ladder_cnots(hist, m_value, model)
    closed: int | None = None
    if model == "rz":
        if kind in QUBO_KINDS:
            closed = (m_value + 1) * n**4 + (m_value - 1) * n**2
        else:
            closed = (m_value + num_code_bits(n)) * n**4
    return CnotTotal(total=total, closed_form=closed)


# ---------------------------------------------------------------------------
# metric tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRow:
    n: int
    kind: str
    term_count: int
    distinct_terms: int
    qubits_vars: int
    qubits_value: int
    qubits_total: int
    cnot_r_model: int
    cnot_rz_model: int
    search_space: int

    def __post_init__(self) -> None:
        if min(self.term_count, self.cnot_r_model, self.cnot_rz_model) < 0:
            raise ValueError("counts must be nonnegative")


def metrics_row(n: int, kind: str, fig_compat: bool = False) -> MetricsRow:
    n_vars, m = register_widths(n, kind, fig_compat=fig_compat)
    dicke, hubo, conventional = search_space_sizes(n)
    space = {"qubo-h": conventional, "qubo-d": dicke, "hubo-hw": hubo}[kind]
    return MetricsRow(
        n=n,
        kind=kind,
        term_count=term_count_formula(n, kind),
        distinct_terms=distinct_term_count_formula(n, kind),
        qubits_vars=n_vars,
        qubits_value=m,
        qubits_total=n_vars + m,
        cnot_r_model=cnot_total(n, kind, "r", m).total,
        cnot_rz_model=cnot_total(n, kind, "rz", m).total,
        search_space=space,
    )


def metrics_rows(
    n_min: int, n_max: int, kinds: tuple[str, ...] = ALL_KINDS, fig_compat: bool = False
) -> list[MetricsRow]:
    return [
        metrics_row(n, kind, fig_compat=fig_compat)
        for n in range(n_min, n_max + 1)
        for kind in kinds
    ]


def metrics_csv(rows: list[MetricsRow]) -> str:
    """CSV table with the per-size QUBO minus HUBO difference columns."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([f.name for f in fields(MetricsRow)] + ["term_diff_vs_hubo", "cnot_rz_diff_vs_hubo"])
    hubo_by_n = {r.n: r for r in rows if r.kind == "hubo-hw"}
    for row in rows:
        hubo = hubo_by_n.get(row.n)
        term_diff = row.term_count - hubo.term_count if hubo else ""
        cnot_diff = row.cnot_rz_model - hubo.cnot_rz_model if hubo else ""
        writer.writerow([*astuple(row), term_diff, cnot_diff])
    return out.getvalue()

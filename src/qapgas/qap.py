"""Quadratic assignment problem instances, objective evaluation, and ground truth.

An instance assigns N facilities to N locations.  Flow and distance matrices
are normalized so every entry lies in [0, 1]; the objective of a permutation
``phi`` is ``sum_ij flow[i, j] * dist[phi(i), phi(j)]``, equivalently the
matrix inner product ``<F, P C P^T>`` with P the permutation matrix.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

BRUTE_FORCE_MAX_N = 10


class OracleScaleError(ValueError):
    """Raised when a brute-force ground-truth request exceeds desk scale."""


@dataclass(frozen=True)
class QapInstance:
    """Flow/distance matrices with entries in [0, 1], plus a text label."""

    size_n: int
    flow: np.ndarray
    dist: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        flow = np.asarray(self.flow, dtype=float)
        dist = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "flow", flow)
        object.__setattr__(self, "dist", dist)
        n = self.size_n
        if n < 2:
            raise ValueError(f"instance size must be >= 2, got {n}")
        for label, mat in (("flow", flow), ("dist", dist)):
            if mat.shape != (n, n):
                raise ValueError(f"{label} matrix must be {n}x{n}, got {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{label} matrix contains non-finite entries")
            if mat.min() < 0.0 or mat.max() > 1.0:
                raise ValueError(f"{label} entries must lie in [0, 1]")
        flow.setflags(write=False)
        dist.setflags(write=False)


@dataclass(frozen=True)
class Permutation:
    """Assignment of facilities to locations: facility i -> mapping[i] (1-based)."""

    mapping: tuple[int, ...] = field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(int(v) for v in self.mapping))
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"mapping {self.mapping} is not a permutation of 1..{n}")

    def __len__(self) -> int:
        return len(self.mapping)

    def matrix(self) -> np.ndarray:
        n = len(self.mapping)
        p = np.zeros((n, n))
        p[np.arange(n), np.asarray(self.mapping) - 1] = 1.0
        return p


def objective(inst: QapInstance, perm: Permutation) -> float:
    """Total assignment cost ``sum_ij f_ij * c_{phi(i) phi(j)}``."""
    if len(perm) != inst.size_n:
        raise ValueError(f"permutation length {len(perm)} != instance size {inst.size_n}")
    loc = np.asarray(perm.mapping) - 1
    return float(np.sum(inst.flow * inst.dist[np.ix_(loc, loc)]))


def objective_matrix_form(inst: QapInstance, perm: Permutation) -> float:
    """Same cost computed as ``<F, P C P^T>``; agrees with objective() to 1e-12."""
    if len(perm) != inst.size_n:
        raise ValueError(f"permutation length {len(perm)} != instance size {inst.size_n}")
    p = perm.matrix()
    return float(np.sum(inst.flow * (p @ inst.dist @ p.T)))


def brute_force_optimum(inst: QapInstance) -> tuple[Permutation, float]:
    """Exhaustive minimum over all N! permutations.

    Ties break toward the lexicographically smallest mapping, which is the
    natural iteration order of itertools.permutations.  Refuses N > 10.
    """
    n = inst.size_n
    if n > BRUTE_FORCE_MAX_N:
        raise OracleScaleError(
            f"oracle scale exceeded: brute force supports N <= {BRUTE_FORCE_MAX_N}, got {n}"
        )
    flow, dist = inst.flow, inst.dist
    best_val = np.inf
    best_map: tuple[int, ...] | None = None
    for mapping in itertools.permutations(range(n)):
        loc = np.asarray(mapping)
        val = float(np.sum(flow * dist[np.ix_(loc, loc)]))
        if val < best_val:
            best_val = val
            best_map = mapping
    assert best_map is not None
    return Permutation(tuple(m + 1 for m in best_map)), best_val


def parse_qaplib(text: str | bytes) -> QapInstance:
    """Parse a QAPLIB-style ``.dat`` stream: N, then F row-major, then C row-major.

    Each matrix is divided by its own maximum entry so coefficients land in
    [0, 1]; an all-zero matrix is left unchanged.  The tokens are read as
    exact fractions and each quotient is rounded once, so 0.6 / 0.8 is 0.75.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    tokens = text.split()
    if not tokens:
        raise ValueError("parse error: empty input")
    values = []
    for pos, tok in enumerate(tokens):
        try:
            values.append(Fraction(tok))
        except ValueError:
            raise ValueError(f"parse error: non-numeric token {tok!r} at position {pos}") from None
    n = int(values[0])
    if n != values[0] or n < 2:
        raise ValueError(f"parse error: invalid size token {values[0]} at position 0")
    expected = 1 + 2 * n * n
    if len(values) != expected:
        raise ValueError(
            f"parse error: expected {expected} tokens for N={n}, got {len(values)} "
            f"(stream ends at position {len(values) - 1})"
        )

    def normalize(entries: list[Fraction]) -> np.ndarray:
        top = max(entries)
        return np.array([float(v / top) if top > 0 else float(v) for v in entries]).reshape(n, n)

    flow, dist = normalize(values[1 : 1 + n * n]), normalize(values[1 + n * n :])
    return QapInstance(n, flow, dist, name=f"qaplib-n{n}")


def format_qaplib(inst: QapInstance) -> str:
    """Serialize an instance back to the whitespace-separated .dat layout."""
    lines = [str(inst.size_n)]
    for mat in (inst.flow, inst.dist):
        lines.append("")
        lines.extend(" ".join(f"{v:g}" for v in row) for row in mat)
    return "\n".join(lines) + "\n"


def random_instance(n: int, seed: int, name: str = "") -> QapInstance:
    """Symmetric zero-diagonal instance with entries drawn from {0.0, 0.1, ..., 1.0}."""
    if n < 2:
        raise ValueError(f"instance size must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        mat = rng.integers(0, 11, size=(n, n)) / 10.0
        mat = np.triu(mat, k=1)
        mats.append(mat + mat.T)
    return QapInstance(n, mats[0], mats[1], name=name or f"random-n{n}-s{seed}")


def dense_instance(n: int, seed: int, name: str = "") -> QapInstance:
    """Like random_instance but with strictly positive off-diagonal entries.

    Coefficient-generic off the diagonal: no off-diagonal product can vanish,
    so expanded objectives keep their full cross-row term structure.
    """
    if n < 2:
        raise ValueError(f"instance size must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        mat = rng.integers(1, 11, size=(n, n)) / 10.0
        mat = np.triu(mat, k=1)
        mats.append(mat + mat.T)
    return QapInstance(n, mats[0], mats[1], name=name or f"dense-n{n}-s{seed}")


def generic_instance(n: int, seed: int, name: str = "") -> QapInstance:
    """Symmetric instance with strictly positive entries everywhere, 0.001 grid.

    Keeping the diagonal positive and the grid fine makes coefficient
    coincidences (equal diagonal entries, vanishing sums) implausible, so the
    encoded objectives realize the maximal term structure that the counting
    formulas describe.  Not a physical QAP (self-flow is nonzero); intended
    for structural checks.
    """
    if n < 2:
        raise ValueError(f"instance size must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        mat = rng.integers(1, 1001, size=(n, n)) / 1000.0
        mats.append(np.triu(mat, 0) + np.triu(mat, 1).T)
    return QapInstance(n, mats[0], mats[1], name=name or f"generic-n{n}-s{seed}")

"""The search spaces the adaptive search runs over, enumerated exactly.

A formulation's space is the support of its initial superposition: every
bitmask of the hypercube kinds (qubo-h, hubo-hw), the N^N row-wise
assignments of the Dicke-initialized kind (qubo-d).  objective_values lists
every state's exact int64 numerator over objective_denominator, or its int64
sort key, for all three kinds from the same per-row and row-pair tables, for
the whole space or for one piece of it (index_pieces); dicke_rank_to_bits
maps Dicke ranks to bitmasks (dicke_rank_decoder one rank at a time), and
value_bounds bounds the values.  The cap, the pieces and the part helpers
that run an O(size) pass on index_parts threads are shared with
SearchSpace's index build in gas, which enumerates the keys and sorts them.
"""
from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache, partial

import numpy as np

from .encodings import Formulation, FormulationKind

# Largest number of states (or amplitudes) that is ever enumerated, tabulated or simulated.
EMULATION_SPACE_CAP = 1 << 26


class SpaceScaleError(ValueError):
    """Raised when a search space is too large to enumerate or simulate."""


EXHAUSTIVE_LIMIT = 1 << 20


def value_bounds(form: Formulation) -> tuple[float, float]:
    """Bounds on the objective over the formulation's search space.

    Exact (by enumeration) while the space is at most EXHAUSTIVE_LIMIT states;
    otherwise the sum of absolute coefficients bounds both sides.
    """
    if form.space_size <= EXHAUSTIVE_LIMIT:
        values = objective_values(form)
        den = objective_denominator(form)
        return float(values.min() / den), float(values.max() / den)
    total = form.poly.abs_coeff_sum()
    return -total, total


def objective_denominator(form: Formulation) -> int:
    """Common denominator of the objective: the LCM of its coefficients' denominators.

    Every objective value is an integer multiple of 1/denominator.  Raises
    ValueError when denominator * sum|c| reaches 2^53, where those integers,
    and the floats divided from them, would no longer be exact.
    """
    return _integer_terms(form)[0]


def _integer_terms(form: Formulation) -> tuple[int, list[int]]:
    """objective_denominator and den * c of every term, in form.poly.terms order.

    The exact arithmetic runs once per formulation (Formulation keeps it);
    the 2^53 guard is checked on every call.
    """
    den, numerators = form._integer_terms
    if max(den, sum(map(abs, numerators))) >= 2**53:
        raise ValueError("coefficients' common denominator is too large for exact float64 values")
    return den, numerators


# A space of at most this many states runs each O(size) pass in one part (index_parts).
INDEX_BLOCK = 1 << 16

# States per piece of a SearchSpace index: a space of more is enumerated and sorted
# piece by piece (index_pieces), each piece into an int64 scratch buffer per build
# thread (16 MiB each).
INDEX_PIECE = 1 << 21


def index_parts(size: int) -> int:
    """Parts (1 or 2) that each O(size) pass of an index build over `size` states runs as.

    Two when the space spans more than one INDEX_BLOCK and this process may run
    on at least two cores; otherwise one, with no thread.  The parts share the
    work; the index they build is the same for either count.
    """
    if size <= INDEX_BLOCK:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return 2 if cores >= 2 else 1


def index_pieces(form: Formulation) -> list[range]:
    """The state-index ranges a SearchSpace of `form` is built in, in order.

    One range, the whole space, when it holds at most INDEX_PIECE states.
    Otherwise runs of whole last-row digit blocks (R^(n-1) states each, the
    most significant digit of objective_values' index), as many per piece as
    fit in INDEX_PIECE and at least one; the last piece may hold fewer.
    Raises SpaceScaleError when the space exceeds EMULATION_SPACE_CAP.
    """
    size = form.space_size
    if size > EMULATION_SPACE_CAP:
        raise SpaceScaleError(f"space of {size} states exceeds the cap {EMULATION_SPACE_CAP}")
    if size <= INDEX_PIECE:
        return [range(size)]
    block = size // _radix(form)
    step = max(INDEX_PIECE // block, 1) * block
    return [range(start, min(start + step, size)) for start in range(0, size, step)]


def _radix(form: Formulation) -> int:
    """R, the number of values of a row's digit (row_digit_bits)."""
    return form.size_n if form.kind is FormulationKind.QUBO_DICKE else 1 << form.row_width


def run_parts(task: Callable[[int], object], parts: int) -> None:
    """Run task(0), ..., task(parts - 1): part 0 in the caller, every other part on a thread.

    The parts run at the same time where task releases the GIL, as numpy's
    array passes do.  Every thread is joined before this returns or raises,
    and an exception raised in a worker part is re-raised here.
    """
    errors: list[BaseException] = []

    def work(part: int) -> None:
        try:
            task(part)
        except BaseException as exc:  # handed to the caller, which re-raises it
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(part,)) for part in range(1, parts)]
    for worker in workers:
        worker.start()
    try:
        task(0)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


# objective_values folds the rows below the first R^h >= _FOLD_BLOCK into one block, so
# every broadcast add over the table runs along contiguous inner runs at least this long:
# numpy's in-place adds slow down on much shorter ones.
_FOLD_BLOCK = 4096


def objective_values(
    form: Formulation,
    shift: int = 0,
    piece: range | None = None,
    out: np.ndarray | None = None,
    lower: np.ndarray | None = None,
) -> np.ndarray:
    """int64 numerators of the objective on every state, over objective_denominator(form).

    Row i of a state has a digit d_i in [0, R): its local bit pattern on the
    hypercube kinds (R = 2^row_width), its location on the Dicke-initialized
    space (R = N); see row_digit_bits.  The table's index is sum_i d_i * R^i
    (row 0 least significant): the variable bitmask itself on the hypercube,
    the mixed-radix rank of the row-wise assignment on the Dicke space.
    Every term must touch at most two row blocks, as every encoder's does, so

        value(d) = c + sum_i T_i[d_i] + sum_{i<k} T_ik[d_i, d_k]

    with per-row and row-pair tables read off form.poly at the denominator;
    a term over three or more row blocks, or variables that do not split
    into size_n equal row blocks, raise ValueError.  The sums are exact, so
    values / den is float(form.poly.evaluate(bits)) bit for bit.  Raises
    SpaceScaleError, before enumerating, when the space exceeds
    EMULATION_SPACE_CAP.

    The table grows one row at a time, in place.  The last row writes all
    but 1/R of it, so its digits other than 0 are dealt to index_parts(size)
    parts that run at the same time (two threads on a space of more than
    one INDEX_BLOCK with two usable cores), each with its own increment of
    at most R * _FOLD_BLOCK entries; digit 0, whose block is the old table,
    grows after they join.  Integer sums make both part counts bit-identical.

    With shift > 0 (2^shift > every index), each entry is instead the key
    n * 2^shift + index of a state with numerator n, sorting as (value,
    index): the tables are scaled by 2^shift and row i's per-row table adds
    d_i * R^i.  SpaceScaleError is raised, before enumerating, unless the
    sums of the tables' minima and maxima keep every key in int64 (partial
    sums may wrap: int64 adds are exact modulo 2^64).

    With `piece`, a range of whole last-row digit blocks (index_pieces), and
    `lower`, the table of the rows below the last at this shift (lower_rows),
    which the pieces of one space share, only the entries of states
    piece.start .. piece.stop - 1 are returned, grown from `lower` by the
    last row in one part; the two come together.  With `out`, an int64
    buffer of at least len(piece) (or size) entries, the table is written
    into its first entries and that view is returned.
    """
    if (piece is None) != (lower is None):
        raise ValueError("a piece is enumerated from its space's lower_rows, and only a piece")
    tables, folded = _key_tables(form, shift)
    size, radix = form.space_size, tables.shape[2]
    block = size // radix
    whole = piece is None
    piece = range(size) if whole else piece
    if piece.step != 1 or not 0 <= piece.start < piece.stop <= size or piece.start % block or piece.stop % block:
        raise ValueError(f"{piece} is not a run of whole blocks of {block} states")
    table = np.empty(len(piece), dtype=np.int64) if out is None else out[: len(piece)]
    first, stop = piece.start // block, piece.stop // block
    if whole:
        _grow_lower_rows(table, tables, folded)
        # Every other digit reads the lower rows in the first digit's block, so that
        # digit grows last, in place, after the parts have joined.
        lower, skip = table[:block], first + 1
    else:
        skip = first
    # The last row writes all of the table but the lower rows' block; its digits are dealt
    # to index_parts(size) parts in turn, or run in one part on a piece.
    low = min(tables.shape[0] - 1, folded)
    parts = index_parts(size) if whole else 1
    grow = partial(_grow_row, table, tables, tables.shape[0] - 1, low, first=first, source=lower)
    run_parts(lambda part: grow(range(stop - parts + part, skip - 1, -parts)), parts)
    if skip > first:
        grow((first,))
    return table


def lower_rows(form: Formulation, shift: int = 0) -> np.ndarray:
    """The table objective_values(form, shift) grows over every row below the last,
    R^(n-1) entries, before its last row: what the pieces of one space share."""
    tables, folded = _key_tables(form, shift)
    table = np.empty(form.space_size // tables.shape[2], dtype=np.int64)
    _grow_lower_rows(table, tables, folded)
    return table


def _key_tables(form: Formulation, shift: int) -> tuple[np.ndarray, int]:
    """objective_values' row-pair tables at `shift`, checked, and the rows it folds."""
    size = form.space_size
    if size > EMULATION_SPACE_CAP:
        raise SpaceScaleError(f"space of {size} states exceeds the cap {EMULATION_SPACE_CAP}")
    if form.num_vars != form.size_n * form.row_width:
        raise ValueError(f"{form.num_vars} variables do not split into {form.size_n} row blocks")
    tables = _row_tables(form, _integer_terms(form)[1])
    n, radix = tables.shape[1:3]
    if shift:
        _check_key_width(tables, shift)
        tables <<= shift
        for k in range(n):
            tables[k, k] += (np.arange(radix) * radix**k)[:, None]
    return tables, next((h for h in range(n) if radix**h >= _FOLD_BLOCK), n)


def _grow_lower_rows(table: np.ndarray, tables: np.ndarray, folded: int) -> None:
    """Grow the rows below the last into the table's first R^(n-1) entries, in place."""
    radix = tables.shape[2]
    table[:1] = 0
    for k in range(tables.shape[0] - 1):
        # Digit 0's block is the old table, so it grows last.
        _grow_row(table, tables, k, min(k, folded), range(radix - 1, 0, -1))
        _grow_row(table, tables, k, min(k, folded), (0,))


def _check_key_width(tables: np.ndarray, shift: int) -> None:
    """Raise SpaceScaleError unless n * 2^shift + index fits int64 for every n the
    row tables allow: the sums of the per-row and row-pair tables' minima and maxima."""
    n = tables.shape[0]
    rows, pairs = tables[np.arange(n), np.arange(n), :, 0], tables[np.triu_indices(n, 1)]
    low = int(rows.min(axis=1).sum() + pairs.min(axis=(1, 2)).sum())
    high = int(rows.max(axis=1).sum() + pairs.max(axis=(1, 2)).sum())
    if not -(1 << 63 - shift) <= low <= high < 1 << 63 - shift:
        raise SpaceScaleError(f"values in [{low}, {high}] and {shift} state bits overflow a 64-bit key")


def _grow_row(
    table: np.ndarray,
    tables: np.ndarray,
    k: int,
    low: int,
    digits: Iterable[int],
    first: int = 0,
    source: np.ndarray | None = None,
) -> None:
    """Grow the table by row k's axis at `digits`, in place.

    The table holds rows < k in its first R^k entries (old), or `source`
    holds them; block d - first of the grown table is new[d, rest] =
    old[rest] + inc[low] + the pair tables of the unfolded rows low..k-1 at
    d, where inc holds T_k[d] and the pair tables of the folded rows below
    `low` at d.
    """
    radix = tables.shape[2]
    filled = radix**k
    block = (table[:filled] if source is None else source).reshape(-1, radix**low)
    inc = np.empty(radix**low, dtype=np.int64)
    for d in digits:
        grown = table[(d - first) * filled : (d - first + 1) * filled].reshape(-1, radix**low)
        inc[:] = tables[k, k, d, 0]
        for i in range(low):
            _add_pair(inc, tables[i, k, :, d : d + 1], i, low)
        np.add(block, inc, out=grown)
        for i in range(low, k):
            _add_pair(grown, tables[i, k, :, d : d + 1], i, k)


def _add_pair(table: np.ndarray, pair: np.ndarray, i: int, k: int) -> None:
    """Add pair[d_i, d_k] in place to a table over rows < k, led by row k's digits in pair."""
    radix = pair.shape[0]
    view = table.reshape(-1, radix ** (k - 1 - i), radix, radix**i)
    view += pair.T[:, None, :, None]


def _row_tables(form: Formulation, numerators: Sequence[int]) -> np.ndarray:
    """den * the objective as row-pair tables T[i, k][d_i, d_k], shape (N, N, R, R), i <= k.

    A term over rows i < k is seeded in T[i, k] at its two local masks.  A
    term within row i is seeded in T[i, i] with the empty mask second, so
    T[i, i][d, d'] = T_i[d] for every d'; T_0 also holds the constant.  One
    0/1 matrix Z[d, m] = (m lies within row_digit_bits[d]) over the masks in
    use turns the seeds S into the tables: T = Z S Z^T.
    """
    width = form.row_width
    seeded: list[tuple[int, int, int, int, int]] = []
    for key, num in zip(form.poly.terms, numerators):
        masks: dict[int, int] = {}
        for v in key:
            row, bit = divmod(v, width)
            masks[row] = masks.get(row, 0) | 1 << bit
        if len(masks) > 2:
            raise ValueError(f"term {key} spans {len(masks)} row blocks; at most two are tabulated")
        (i, mask_i), *other = masks.items() or [(0, 0)]
        k, mask_k = other[0] if other else (i, 0)
        seeded.append((i, k, mask_i, mask_k, num))
    local = sorted({0}.union(*(term[2:4] for term in seeded)))
    column = {m: u for u, m in enumerate(local)}
    patterns = row_digit_bits(form).tolist()
    zeta = np.array([[(p & m) == m for m in local] for p in patterns], dtype=np.int64)
    seeds = np.zeros((form.size_n, form.size_n, len(local), len(local)), dtype=np.int64)
    for i, k, mask_i, mask_k, num in seeded:
        seeds[i, k, column[mask_i], column[mask_k]] = num
    return zeta @ seeds @ zeta.T


def row_digit_bits(form: Formulation) -> np.ndarray:
    """uint64 local bit pattern of each value of a row's digit.

    On the hypercube kinds a row's digit is its bit pattern (R = 2^row_width
    values); on the Dicke space it is the row's location j, whose pattern is
    the single bit j (R = N values).
    """
    if form.kind is FormulationKind.QUBO_DICKE:
        return np.left_shift(np.uint64(1), np.arange(form.size_n, dtype=np.uint64))
    return np.arange(1 << form.row_width, dtype=np.uint64)


def dicke_rank_to_bits(form: Formulation, ranks) -> np.ndarray:
    """uint64 bitmasks of the rank-th row-wise assignments (scalar or array of ranks).

    Row i's digit is the mixed-radix digit (rank // N^i) % N, as in
    objective_values; its row_digit_bits pattern sits at bit i*N.  The low
    and the high half of the rows are each looked up in one small table,
    built once per N.
    """
    n = form.size_n
    split = n // 2
    low_rows, high_rows = _dicke_half_tables(n)
    ranks = np.asarray(ranks)
    flat = ranks.reshape(-1)
    high = flat // n**split
    bits = high_rows[high]
    bits |= low_rows[np.remainder(flat, n**split, out=high)]
    return bits.reshape(ranks.shape)


@lru_cache(maxsize=None)
def dicke_rank_decoder(n: int) -> Callable[[int], int]:
    """dicke_rank_to_bits for one int rank at size n: a function from rank to int bitmask.

    It reads the same two half tables, as Python lists, so mapping the rank of
    a single draw is two list lookups and no array.
    """
    low_rows, high_rows = (table.tolist() for table in _dicke_half_tables(n))
    base = n ** (n // 2)

    def bits(rank: int) -> int:
        return high_rows[rank // base] | low_rows[rank % base]

    return bits


@lru_cache(maxsize=None)
def _dicke_half_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only bitmasks of rows [0, n//2) and [n//2, n), indexed by their mixed-radix digits."""
    patterns = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))  # row_digit_bits on the Dicke space
    tables = [np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64)]
    split = n // 2
    for row in range(n):
        half = int(row >= split)
        shifted = patterns << np.uint64(row * n)
        tables[half] = (shifted[:, None] | tables[half]).ravel()  # row's digit most significant
    for table in tables:
        table.flags.writeable = False
    return tables[0], tables[1]

"""Closed-form combinatorics for the defining set built from one digit word.

Everything here is exact integer arithmetic.  The driving object is the
parameter tuple (q, m, t, a, b) describing the word

    u = a ... a b 0 ... 0      (m-t-1 copies of a, one b, t zeros)

whose rotation orbits' descendants form the defining set T.  The counting
layer never materializes T: it computes |T| by classifying words by their
exact pattern-occurrence counts (k, ell), counting a relaxed family in
closed form, and inverting a two-parameter binomial transform.

The relaxed counts A_{r,s} fill one table over the down-set of admissible
pairs.  Each entry is a power product in a and b times a pattern-word count
that depends on the shape (m, t) alone.  The inversion is separable, a Taylor
shift by -1 along each row and then along each column, so it takes O(P m)
additions for P admissible pairs and no binomial coefficient; |T| is the
table's alternating sum.

Each point has one table, held flat row by row with the |T| that is
summed as it is built.  The last few points' tables are memoized, so
dimension, closed_size_T and class_sizes at one point build it once.  At
t = m-1 the word u = b 0^(m-1) has no a-digit and |T| is a-free, so
dimension reads it from the raw point; it normalizes only for is_bch and
delta, and its check that n is not in T reads the same |T|.

With a = b every row s >= 1 carries (a-b)^s = 0, so the answer lives in
row 0: the table is row 0 padded with zeros, and the inversion is row 0's
Taylor shift alone.  That is every q = 2 point and the BCH points with
a = b = q-1.

What depends on the shape alone is built once per shape: its row lengths,
row 0 of the pattern-word counts, and its layout record; the other rows
of pattern-word counts only once a point with a != b asks for them.  The
(r, s) keys and the compiled inversion depend on the row lengths alone,
so they live in one record per row layout, shared by every shape with
that layout and made on first read.  The inversion runs as steps
compiled once, read row by row in Horner's order: for a != b the plan of
the shape's layout, the whole two-dimensional transform; for a = b the
plan of the one-row layout of row 0, its Taylor shift alone.  A step
combines a run of entries with another run; one of at most three entries
is stored as that many one-entry steps, so a small table runs as a few
scalar operations and a large one as whole slices, and a plan holds
O(P + R^2) steps for R rows.  A table has at most PATTERN_TABLE_CAP
entries, and the check reads its size in closed form before anything is
built.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb
from operator import add, sub
from typing import NamedTuple

from .errors import ConsistencyError, ParameterError, ResourceLimitError, ZeroCodeError

__all__ = [
    "CodeParams",
    "AdmissiblePair",
    "admissible_pairs",
    "count_pattern_words",
    "count_matrix_entries",
    "count_class",
    "class_sizes",
    "closed_size_T",
]


@lru_cache(maxsize=None)
def _is_prime_power(n: int) -> bool:
    """Memoized: every CodeParams, normalized copies too, re-validates q."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # n itself is prime


class _CodeParamsFields(NamedTuple):
    q: int
    m: int
    t: int
    a: int
    b: int


class CodeParams(_CodeParamsFields):
    """Parameter tuple (q, m, t, a, b).

    q is a prime power >= 2, m >= 1, 0 <= t <= m-1, and 1 <= a, b <= q-1.
    The counting and dimension layers additionally require b <= a; the
    bound layer accepts a and b independently but needs m >= 2 and rejects
    the degenerate zero-code point a = b = q-1, t = 0.

    A NamedTuple whose constructor validates: it unpacks as (q, m, t, a, b)
    and compares equal to that plain tuple.
    """

    __slots__ = ()

    def __new__(cls, q: int, m: int, t: int, a: int, b: int) -> "CodeParams":
        if not _is_prime_power(q):
            raise ParameterError(f"q must be a prime power >= 2, got {q}")
        if m < 1:
            raise ParameterError(f"m must be >= 1, got {m}")
        if not 0 <= t <= m - 1:
            raise ParameterError(f"need 0 <= t <= m-1, got t={t}, m={m}")
        for name, v in (("a", a), ("b", b)):
            if not 1 <= v <= q - 1:
                raise ParameterError(f"need 1 <= {name} <= q-1, got {name}={v}, q={q}")
        return tuple.__new__(cls, (q, m, t, a, b))

    @property
    def n(self) -> int:
        return self.q**self.m - 1

    @property
    def index_size(self) -> int:
        """Number of indices in [0, n], i.e. q^m."""
        return self.q**self.m

    @property
    def is_bch(self) -> bool:
        """With a = q-1 the cyclic code is the narrow-sense primitive BCH code
        of designed distance (b+1) q^{m-t-1}."""
        return self.a == self.q - 1

    @property
    def designed_distance(self) -> int:
        return (self.b + 1) * self.q ** (self.m - self.t - 1)

    @property
    def is_degenerate(self) -> bool:
        """True for the zero-code point: every index lands in T."""
        return self.a == self.b == self.q - 1 and self.t == 0

    def require_counting_regime(self) -> None:
        if self.b > self.a:
            raise ParameterError(
                f"counting and dimension formulas need b <= a, got a={self.a}, b={self.b}"
            )

    def require_bound_regime(self) -> None:
        q, m, t, a, b = self
        if m < 2:
            raise ParameterError(f"dual-distance bounds need m >= 2, got m={m}")
        if a == b == q - 1 and t == 0:  # is_degenerate
            raise ZeroCodeError(
                "a = b = q-1 with t = 0 gives the zero code; no dual bound exists"
            )

    def normalized(self) -> "CodeParams":
        """With t = m-1 the word u = b 0^(m-1) has no a-digit, so everything
        is a-free there; this copy fixes a = b for the three callers that
        need it: dimension, whose is_bch and delta must not depend on the
        supplied a; brute_class_census, which then scans (b+1)^m words, not
        (a+1)^m; and verify, which keys each code's checks by it."""
        if self.t == self.m - 1 and self.a != self.b:
            return CodeParams(self.q, self.m, self.t, self.b, self.b)
        return self


#: An admissible occurrence-count pair (k, ell).
AdmissiblePair = tuple[int, int]


def admissible_pairs(m: int, t: int) -> list[AdmissiblePair]:
    """All pairs (k, ell) != (0, 0) with k(t+1) + ell(t+2) <= m: the counting
    table's keys but (0, 0), so PATTERN_TABLE_CAP applies.

    Enumerated with ell ascending and k ascending within each ell, matching
    the order the occurrence classes are reported in.
    """
    if m < 1 or not 0 <= t <= m - 1:
        raise ParameterError(f"need 0 <= t <= m-1, got t={t}, m={m}")
    return [(k, ell) for ell, n in enumerate(_row_lengths(m, t)) for k in range(n)][1:]


def _check_admissible(k: int, ell: int, m: int, t: int) -> None:
    if m < 1 or not 0 <= t <= m - 1:
        raise ParameterError(f"need 0 <= t <= m-1, got t={t}, m={m}")
    if k < 0 or ell < 0 or (k, ell) == (0, 0):
        raise ParameterError(f"(k, ell) = ({k}, {ell}) is not admissible")
    if k * (t + 1) + ell * (t + 2) > m:
        raise ParameterError(
            f"(k, ell) = ({k}, {ell}) violates k(t+1) + ell(t+2) <= {m}"
        )


def _pattern_words(k: int, ell: int, m: int, t: int) -> int:
    """The pattern-word count m C(blocks, k) C(blocks - k, ell) / blocks."""
    blocks = m - k * t - ell * (t + 1)  # block count after collapsing zero runs
    value, rem = divmod(m * comb(blocks, k) * comb(blocks - k, ell), blocks)
    if rem:
        raise ConsistencyError(
            f"non-integral word count for (k, ell, m, t) = ({k}, {ell}, {m}, {t})"
        )
    return value


def count_pattern_words(k: int, ell: int, m: int, t: int) -> int:
    """Number of length-m cyclic symbol words made of exactly k blocks x0^t,
    ell blocks y0^{t+1} and filler symbols z:

        m / (m - kt - ell(t+1)) * (m - kt - ell(t+1))! / (k! ell! (m - k(t+1) - ell(t+2))!)

    The rational prefactor always cancels; a non-integer result would be an
    internal error.
    """
    _check_admissible(k, ell, m, t)
    return _pattern_words(k, ell, m, t)


#: Largest counting table of one shape (m, t), in entries with (0, 0)
#: included: P = sum over s of (m - s(t+2)) // (t+1) + 1.  Inverting it
#: costs O(P m) big-integer additions; past the cap the counting raises
#: ResourceLimitError before it builds anything.
PATTERN_TABLE_CAP = 1 << 16


def _table_size(m: int, t: int) -> int:
    """P, the table's entry count, in closed form: (m - s(t+2)) // (t+1) is
    (m - s) // (t+1) - s, and the floors j // c over j = 0 .. n sum to
    c k(k-1)/2 + k(n + 1 - kc) with k = n // c, which is 0 at n = -1."""
    c, rows = t + 1, m // (t + 2) + 1

    def floors(n: int) -> int:
        k = n // c
        return c * k * (k - 1) // 2 + k * (n + 1 - k * c)

    return floors(m) - floors(m - rows) - rows * (rows - 1) // 2 + rows


def _row_lengths(m: int, t: int) -> tuple[int, ...]:
    """The table's row lengths: row s holds r = 0 .. (m - s(t+2)) // (t+1).
    The cap is checked on the closed-form size first, so a refused shape
    costs a few operations at any m."""
    size = _table_size(m, t)
    if size > PATTERN_TABLE_CAP:
        raise ResourceLimitError(
            f"the counting table of (m, t) = ({m}, {t}) has {size} entries,"
            f" past the pattern table cap of {PATTERN_TABLE_CAP}"
        )
    return tuple((m - s * (t + 2)) // (t + 1) + 1 for s in range(m // (t + 2) + 1))


class _Shape:
    """What every point of the shape (m, t) reads: the table's row lengths
    and entry count, row 0 of the pattern-word counts W_{r,0}, with
    W_{0,0} = 0, and the layout records of its rows and of row 0 alone."""

    def __init__(self, m: int, t: int) -> None:
        self.lengths = _row_lengths(m, t)
        self.size = sum(self.lengths)
        self.row0 = (0, *(_pattern_words(r, 0, m, t) for r in range(1, self.lengths[0])))
        self.layout = _layout(self.lengths)
        self.row0_layout = _layout(self.lengths[:1])

    @property
    def keys(self) -> tuple[AdmissiblePair, ...]:
        """(r, s) of each flat entry, row by row, (0, 0) first."""
        return self.layout.keys


@lru_cache(maxsize=None)
def _shape(m: int, t: int) -> _Shape:
    """The shape's record; like galois._build the memo is unbounded, one
    entry per shape used."""
    return _Shape(m, t)


@lru_cache(maxsize=None)
def _pattern_rows(m: int, t: int) -> tuple[tuple[int, ...], ...]:
    """rows[s][r] = the pattern-word count W_{r,s} over the down-set
    r(t+1) + s(t+2) <= m, with W_{0,0} = 0: the shape of the A table.

    W depends on the shape (m, t) alone, so every q, a and b of one shape
    shares this table.  Row 0 is the shape record's own; the other rows
    are made here, which only a point with a != b asks for.  The memo is
    unbounded, one entry per such shape."""
    shape = _shape(m, t)
    return (shape.row0,) + tuple(
        tuple(_pattern_words(r, s, m, t) for r in range(n))
        for s, n in enumerate(shape.lengths[1:], 1)
    )


def count_matrix_entries(r: int, s: int, params: CodeParams) -> int:
    """Total entry count A_{r,s} of the occurrence matrix: every pattern word
    with b^r (a-b)^s (a+1)^{m - r(t+1) - s(t+2)} digit assignments."""
    params.require_counting_regime()
    _check_admissible(r, s, params.m, params.t)
    entries = _table(params).entries
    return entries[sum(_shape(params.m, params.t).lengths[:s]) + r]


class _Table(NamedTuple):
    """The A table of one point and the |T| it gives."""

    size: int  # |T| = 1 + sum of (-1)^(r+s+1) A_{r,s}
    entries: tuple[int, ...]  # A_{r,s} in the shape's key order, A_{0,0} = 0 first


@lru_cache(maxsize=8)
def _table(p: CodeParams) -> _Table:
    """The A table of the point p, flat, row s holding A_{r,s} for r = 0 ..
    (m - s(t+2)) // (t+1): the pattern-word count W_{r,s} times
    b^r (a-b)^s (a+1)^{m - r(t+1) - s(t+2)}.

    Each row is built from its last entry, which has the least power of
    a + 1, moving left by a factor (a+1)^(t+1) and down by b, so only the
    powers the table uses are made; the row's alternating sum goes into
    |T| as the row is made.  With a = b only row 0 is made, from the
    shape's W_{r,0}, and zeros fill the rest.  The memo holds the last few
    points, so dimension, closed_size_T and class_sizes at one point build
    one table."""
    m, t, a, b = p.m, p.t, p.a, p.b
    shape = _shape(m, t)
    step = (a + 1) ** (t + 1)
    entries: list[int] = []
    alt = 0  # sum of (-1)^(r+s) A_{r,s}
    lead = 1  # (a - b)^s
    for s, words in enumerate((shape.row0,) if a == b else _pattern_rows(m, t)):
        r = len(words) - 1
        power = lead * (a + 1) ** (m - s * (t + 2) - r * (t + 1))
        weight = b**r  # exact as r falls
        row = []
        for w in reversed(words):
            row.append(weight * power * w)
            power *= step
            weight //= b
        row.reverse()
        entries += row
        alt_s = sum(row[::2]) - sum(row[1::2])
        alt += -alt_s if s % 2 else alt_s
        lead *= a - b
    entries += [0] * (shape.size - len(entries))  # rows s >= 1 at a = b
    return _Table(1 - alt, tuple(entries))


# A step of at most this many entries is stored as one-entry steps.
_SCALAR_STEP = 3

# Steps and (k, ell) keys recur from layout to layout; every layout record
# holds the one shared copy of each.
_interned: dict[tuple[int, ...], tuple[int, ...]] = {}


def _intern(items: list) -> list:
    return list(map(_interned.setdefault, items, items))


def _expand(steps: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """The steps as stored: one of more than _SCALAR_STEP entries as it is,
    a shorter one as its one-entry steps in ascending order."""
    out = []
    for dst, src, n in steps:
        if n > _SCALAR_STEP:
            out.append((dst, src, n))
        else:
            out += zip(range(dst, dst + n), range(src, src + n), [1] * n)
    return _intern(out)


def _shift_steps(offset: int, n: int) -> list[tuple[int, int, int]]:
    """The Taylor shift f(x) -> f(x -+ 1) of the row of n entries at offset,
    one coefficient at a time: a step (dst, src, k) takes x[dst + i] to
    op(x[dst + i], x[src + i]) for i < k, all from the values before the
    step.  One-entry steps in ascending order do the same, since a row step
    reads only entries after the ones it writes."""
    return [(offset + i, offset + i + 1, n - 1 - i) for i in range(n - 2, -1, -1)]


def _compile(lengths: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The transform of the table with these row lengths, as steps in
    Horner's order: the Taylor shift of each row, then the same down every
    column, where a step combines row s with the leading part of row s + 1
    (the table is a down-set, so every term is present).  With one row it
    is that row's Taylor shift alone."""
    offsets = list(accumulate(lengths, initial=0))
    steps = _expand([step for o, n in zip(offsets, lengths) for step in _shift_steps(o, n)])
    column: list[tuple[int, int, int]] = []
    for s in range(len(lengths) - 2, -1, -1):
        # Horner's step s down the columns runs rows s, s + 1, ... in order
        column = _expand([(offsets[s], offsets[s + 1], lengths[s + 1])]) + column
        steps += column
    return tuple(steps)


class _Layout:
    """What class_sizes reads of a table with the given row lengths, made
    on first read: the (r, s) key of each flat entry and the compiled
    transform.  Many shapes share one layout, and the one-row layout of a
    row-0 length serves every point with a = b whose row 0 has it."""

    def __init__(self, lengths: tuple[int, ...]) -> None:
        self.lengths = lengths

    @cached_property
    def keys(self) -> tuple[AdmissiblePair, ...]:
        """(r, s) of each flat entry, row by row, (0, 0) first."""
        return tuple(_intern([key for s, n in enumerate(self.lengths)
                              for key in zip(range(n), [s] * n)]))

    @cached_property
    def plan(self) -> tuple[tuple[int, int, int], ...]:
        return _compile(self.lengths)


@lru_cache(maxsize=None)
def _layout(lengths: tuple[int, ...]) -> _Layout:
    """The layout's record; the memo is unbounded, one entry per row
    layout used, and shapes already hold theirs."""
    return _Layout(lengths)


def _run_plan(x: list[int], steps, op) -> None:
    """Run transform steps in order on the flat table x, in place."""
    for dst, src, n in steps:
        if n == 1:
            x[dst] = op(x[dst], x[src])
        else:
            end = dst + n
            x[dst:end] = map(op, x[dst:end], x[src:src + n])


def class_sizes(params: CodeParams) -> dict[AdmissiblePair, int]:
    """Exact size B_{k,ell} of every occurrence class, by binomial inversion:

        B_{k,ell} = sum_{(r,s)} (-1)^{r+s-k-ell} C(r,k) C(s,ell) A_{r,s}

    The transform is separable: a Taylor shift by -1 along r in every row
    of the A table, then along s in every column, in O(P m) additions for
    P admissible pairs and no binomial coefficient.  With a != b it runs as
    the plan of the shape's row layout, compiled once for every shape with
    that layout, on the table read row by row.  With a = b only row 0 is
    nonzero, and its Taylor shift alone is the transform: the plan of the
    one-row layout of row 0, with no plan of more rows compiled.  The
    forward identity A_{r,s} = sum C(k,r) C(ell,s) B_{k,ell}, the same
    steps by +1, is re-checked on the whole table after inversion; a
    failure, or a negative class size, would be an internal error.
    Classes come in the table's order: ell ascending, then k ascending.
    """
    params.require_counting_regime()
    a_flat = _table(params).entries
    shape = _shape(params.m, params.t)
    layout = shape.layout
    steps = (shape.row0_layout if params.a == params.b else layout).plan
    x = list(a_flat)
    _run_plan(x, steps, sub)
    sizes = dict(zip(layout.keys, x))
    del sizes[(0, 0)]
    if min(sizes.values()) < 0:
        (k, ell), size = next(item for item in sizes.items() if item[1] < 0)
        raise ConsistencyError(
            f"negative class size B_{{{k},{ell}}} = {size} at {tuple(params)}"
        )
    _run_plan(x, steps, add)
    x[0] = a_flat[0]  # B_{0,0} is no class size
    if tuple(x) != a_flat:
        r, s = next(key for key, u, v in zip(layout.keys, x, a_flat) if u != v)
        raise ConsistencyError(
            f"binomial inversion round trip failed at (r, s) = ({r}, {s})"
        )
    return sizes


def count_class(k: int, ell: int, params: CodeParams) -> int:
    """Exact number of words whose occurrence profile is exactly (k, ell)."""
    params.require_counting_regime()
    _check_admissible(k, ell, params.m, params.t)
    return class_sizes(params)[(k, ell)]


def closed_size_T(params: CodeParams) -> int:
    """|T| = 1 + sum over admissible (r, s) of (-1)^(r+s+1) A_{r,s}.

    The alternating sum of the A table is the sum of all class sizes by
    inclusion-exclusion, so no class size is inverted; the +1 is the zero
    word.  The point's table carries it.
    """
    params.require_counting_regime()
    return _table(params).size

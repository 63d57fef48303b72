"""Independent brute-force implementations of every closed form, plus
exhaustive code-level verification on instances small enough to enumerate.

Nothing here reuses a closed-form path it is meant to check: the defining
set is rebuilt from its definition (descendants of word rotations), the
occurrence-class sizes are re-counted by scanning every digit word whose
digits are all <= a, and dimensions come from generator-polynomial degrees.
Dual minimum distances come from an exhaustive weight distribution of
whichever side has fewer codewords when one fits DEFAULT_DISTANCE_BUDGET,
the one cap on the codewords a distance search generates: the dual, or
the primal code, whose distribution the MacWilliams identities turn into
the dual's exactly.  When neither fits, Chen's cyclic Brouwer-Zimmermann
walk bounds the dual's minimum weight from below, ceil(n(w+1)/k) after
level w, on one window of k consecutive coordinates, until the lightest
codeword found meets the bound; it takes cyclic codes and their
extensions only, and checks the shift.  Every walk weighs codewords by
popcount: over GF(2) of bit masks, over other fields of one-hot words, a
table of combinations of rows at a time.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from operator import xor
from typing import TYPE_CHECKING, Mapping

from .cosets import DefiningSet, _check_cap, leader
from .errors import ConsistencyError, ParameterError, ResourceLimitError
from .galois import FieldContext, Polynomial, generator_polynomial, poly_divmod, syndromes
from .qadic import profile_counts

if TYPE_CHECKING:
    from .counting import CodeParams

__all__ = [
    "DistanceResult",
    "brute_T",
    "brute_class_census",
    "segment_class_sizes",
    "brute_dimension",
    "code_rows",
    "dual_min_distance",
    "macwilliams",
    "minimum_weight",
    "weight_distribution",
    "affine_invariance_probe",
    "brute_max_prefix",
]

DEFAULT_DISTANCE_BUDGET = 1 << 21  # read when each search starts


def brute_T(params: CodeParams) -> DefiningSet:
    """T straight from the definition: enumerate the digitwise descendants
    of the word u = a...a b 0...0 and union their rotation orbits.

    Words are raw digit tuples, lowest power first; the rotation by j is
    the circular right shift digits[m-j:] + digits[:m-j], read back by
    Horner's rule.
    """
    params.require_counting_regime()
    p = params.normalized()
    q, m, t, a, b = p.astuple()
    _check_cap(q, m)
    u_digits = [a] * (m - t - 1) + [b] + [0] * t
    members: set[int] = set()
    for digs in product(*[range(d + 1) for d in u_digits]):
        twice = digs + digs
        for j in range(m):
            value = 0
            for d in reversed(twice[m - j:2 * m - j]):
                value = value * q + d
            members.add(value)
    return DefiningSet.from_members(q, m, members)


def brute_class_census(params: CodeParams) -> dict[tuple[int, int], int]:
    """Count every value of [0, n] whose digits are all <= a by its exact
    occurrence profile (k, ell), keeping only (k, ell) != (0, 0).  Values
    with a larger digit have no profile, so only the (a+1)^m digit words
    with every digit <= a are scanned."""
    params.require_counting_regime()
    p = params.normalized()
    q, m, t, a, b = p.astuple()
    _check_cap(q, m)
    census: dict[tuple[int, int], int] = {}
    for digits in product(range(a + 1), repeat=m):
        k, ell, _ = profile_counts(digits, m, a, b, t)
        if k or ell:
            key = (k, ell)
            census[key] = census.get(key, 0) + 1
    return census


def segment_class_sizes(params: CodeParams) -> dict[tuple[int, int], int]:
    """The occurrence-class sizes by a segment DP, in time polynomial in m.

    A word with a nonzero digit splits cyclically into segments h 0^r.  A
    segment adds one to k when h <= b and r >= t, and one to ell when
    b < h <= a and r >= t+1, so the segments of length L = r+1 together
    weigh w(L) = b x^[r>=t] + (a-b) y^[r>=t+1].  The segment covering
    position 0 starts at one of its L positions, and the rest of the word
    is a linear sequence of segments, whose weights total S(j) over length
    j: S(0) = 1 and S(j) = sum_L w(L) S(j-L).  So B_{k,ell} is the
    coefficient of x^k y^ell in sum_L L w(L) S(m-L) (Stanley, EC1 4.7).
    Only the nonzero classes other than (0, 0) are returned."""
    params.require_counting_regime()
    p = params.normalized()
    m, t, a, b = p.m, p.t, p.a, p.b

    def weight(length: int) -> Counter:
        w: Counter = Counter()
        w[(1, 0) if length > t else (0, 0)] += b
        if a > b:
            w[(0, 1) if length > t + 1 else (0, 0)] += a - b
        return w

    def times(poly: Counter, w: Counter, scale: int, out: Counter) -> None:
        for (k, ell), c in poly.items():
            for (dk, dl), cw in w.items():
                out[(k + dk, ell + dl)] += scale * c * cw

    weights = [None] + [weight(length) for length in range(1, m + 1)]
    S = [Counter({(0, 0): 1})]
    for j in range(1, m + 1):
        total: Counter = Counter()
        for length in range(1, j + 1):
            times(S[j - length], weights[length], 1, total)
        S.append(total)
    sizes: Counter = Counter()
    for length in range(1, m + 1):
        times(S[m - length], weights[length], length, sizes)
    return {kl: v for kl, v in sorted(sizes.items()) if kl != (0, 0)}


@lru_cache(maxsize=8)
def _generator(field: FieldContext, D: DefiningSet) -> Polynomial:
    """g(x) of the cyclic code whose defining set is D minus {0, n}, built
    once per (field, D) for the few most recent pairs, so that a point's
    dimension check and its probe share one product of minimal polynomials."""
    if (field.q, field.m) != (D.q, D.m):
        raise ParameterError("field and defining set disagree on (q, m)")
    return generator_polynomial(field, [s for s in D if 0 < s < D.n])


def brute_dimension(field: FieldContext, D: DefiningSet) -> int:
    """n minus the generator-polynomial degree for the cyclic code whose
    defining set is D with the extension index 0 (and n, if present) removed."""
    return field.n - _generator(field, D).degree


@dataclass(frozen=True)
class DistanceResult:
    """Result of a minimum-weight search.

    kind is "exact" when the value is established: every nonzero codeword
    of the side walked was covered, or the Brouwer-Zimmermann lower bound
    ceil(n(w+1)/k) after level w met the lightest codeword found.
    "budget-exhausted" reports the smallest weight seen, which is only an
    upper bound on the true minimum.  route names the method:
    "dual-enumeration" walks the dual itself, "macwilliams" walks the
    primal code and transforms its weight distribution, and
    "brouwer-zimmermann" runs Chen's cyclic walk, minimum_weight, on the
    dual rows.  enumerated counts the codewords generated, never more than
    DEFAULT_DISTANCE_BUDGET: q^k - 1 of the side walked on the two
    exhaustive routes.  count is the number of codewords of weight value
    there, and None on "brouwer-zimmermann", which does not establish it.
    """

    kind: str
    value: int
    enumerated: int
    route: str
    count: int | None


def code_rows(
    field: FieldContext, D: DefiningSet, extended: bool = False
) -> tuple[list[list[int]], list[list[int]]]:
    """Generator rows (primal, dual) of the cyclic code whose defining set is
    D minus {0, n}, or with extended=True of its length-(n+1) extension.

    The primal rows are the shifts of g(x), which _generator builds once
    per (field, D), and the dual rows the shifts of the reciprocal of
    h(x) = (x^n - 1) / g(x).  The extension puts the overall parity at
    position 0, and (x, y) lies in its dual exactly when y - x*1 lies in the
    cyclic dual, so the extended dual is spanned by the all-ones word and
    the cyclic dual rows behind a zero.
    """
    base, n = field.base, field.n
    g = list(_generator(field, D).coeffs)
    xn1 = (base.neg(1),) + (0,) * (n - 1) + (1,)
    h, rem = poly_divmod(base, xn1, g)
    if rem:
        raise ParameterError("generator polynomial does not divide x^n - 1")
    dual = _shifts(list(reversed(h)), n)
    if not extended:
        return _shifts(g, n), dual
    return _extend_rows(field, g, n), [[1] * (n + 1)] + [[0] + r for r in dual]


def _shifts(poly: list[int], n: int) -> list[list[int]]:
    """The length-n rows x^i poly(x) for every i that keeps the degree below n."""
    return [[0] * i + poly + [0] * (n - len(poly) - i) for i in range(n - len(poly) + 1)]


def _parity(field: FieldContext, word: list[int]) -> int:
    """Minus the sum of the word's coordinates, taken through the GF(q) tables."""
    sums, _, neg = _field_tables(field)
    total = 0
    for c in word:
        total = sums[total][c]
    return neg[total]


def _extend_rows(field: FieldContext, g: list[int], n: int) -> list[list[int]]:
    """The shifts of g behind the overall parity coordinate, position 0.
    Every shift sums to g(1), so each row's parity is the one -g(1)."""
    head = _parity(field, g)
    return [[head] + r for r in _shifts(g, n)]


# The walks tabulate every combination of as many low rows as fit this many
# words, and weigh each further word against the whole table at once.
_TABLE_WORDS = 256


def _table_rows(q: int, k: int) -> int:
    """How many of k rows the walks tabulate: q^rows <= _TABLE_WORDS."""
    low = 0
    while low < k and q ** (low + 1) <= _TABLE_WORDS:
        low += 1
    return low


def _mask(row: list[int], value: int) -> int:
    """The coordinates of row equal to value, as a bit mask."""
    return sum(1 << j for j, c in enumerate(row) if c == value)


def _gf3_add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Sum of two GF(3) words held as bitplanes (P, M): P marks the
    coordinates equal to 1 and M those equal to 2 (Boothby & Bradshaw)."""
    t = (x[0] | y[1]) ^ (x[1] | y[0])
    return (x[1] | y[1]) ^ t, (x[0] | y[0]) ^ t


@lru_cache(maxsize=32)
def _field_tables(field: FieldContext) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Addition, multiplication and negation tables of GF(field.q), built
    once per field; callers only read them."""
    base, q = field.base, field.q
    return ([[base.add(x, y) for y in range(q)] for x in range(q)],
            [[base.mul(c, x) for x in range(q)] for c in range(q)],
            [base.neg(x) for x in range(q)])


class _GF2Words:
    """Words of length n as the walks hold them, and how they are weighed.

    Each word class has zero, add, multiples(row) (c times the row for
    every encoding c, zero first), key, negkey and shift, such that
    popcount(key(c) ^ negkey(t)) is weight(c + t) << shift, and deepest,
    the most rows a suffix table of minimum_weight sums.  Over GF(2) a
    word is a bit mask, and key and negkey are the mask itself.
    """

    zero, shift, add, deepest = 0, 0, xor, 3
    key = negkey = int  # the identity on masks, without a Python call

    @staticmethod
    def multiples(row: list[int]) -> list[int]:
        return [0, _mask(row, 1)]


class _GF3Words:
    """GF(3) words as two bitplanes (P, M), where 2 times a word swaps its
    planes, weighed by their one-hot forms as in _OneHotWords: three n-bit
    planes marking the coordinates equal to 0, to 1 (P) and to 2 (M)."""

    zero, shift, add, deepest = (0, 0), 1, staticmethod(_gf3_add), 3

    def __init__(self, n: int):
        self.n, self.ones = n, (1 << n) - 1

    @staticmethod
    def multiples(row: list[int]) -> list[tuple[int, int]]:
        p, m = _mask(row, 1), _mask(row, 2)
        return [(0, 0), (p, m), (m, p)]

    def key(self, w: tuple[int, int]) -> int:
        p, m = w
        return (self.ones ^ (p | m)) | p << self.n | m << 2 * self.n

    def negkey(self, w: tuple[int, int]) -> int:
        p, m = w
        return (self.ones ^ (p | m)) | m << self.n | p << 2 * self.n


class _OneHotWords:
    """Words over any other GF(q) as lists of field encodings, added through
    a q-by-q table and weighed by their one-hot forms: q planes of n bits,
    plane x marking the coordinates equal to x.  The one-hot words of c and
    of -t agree at a coordinate exactly when c + t is 0 there and differ in
    two bits otherwise, so the shift is 1.  A plane is read off the word's
    encodings as bytes, translated to binary digits.

    A sum is a Python pass over the n coordinates, so a table of sums of
    three rows would cost more to build than the short blocks it saves:
    these words stop at pairs."""

    shift, deepest = 1, 2

    def __init__(self, field: FieldContext, n: int):
        self.n, self.zero = n, [0] * n
        self._sum, self._mul, neg = _field_tables(field)
        values = bytes(range(field.q))

        def planes(image) -> list[bytes]:
            # plane x: the digit 1 for the encodings whose image is x
            return [bytes.maketrans(values, bytes(b"01"[image[v] == x] for v in values))
                    for x in values]

        self._planes, self._negplanes = planes(values), planes(neg)

    def add(self, x: list[int], y: list[int]) -> list[int]:
        return [self._sum[a][b] for a, b in zip(x, y)]

    def multiples(self, row: list[int]) -> list[list[int]]:
        return [[mc[x] for x in row] for mc in self._mul]

    def _onehot(self, w: list[int], planes: list[bytes]) -> int:
        digits = b"0" + bytes(reversed(w))
        return sum(int(digits.translate(p), 2) << x * self.n for x, p in enumerate(planes))

    def key(self, w: list[int]) -> int:
        return self._onehot(w, self._planes)

    def negkey(self, w: list[int]) -> int:
        return self._onehot(w, self._negplanes)


def _words(field: FieldContext, n: int):
    """The word class of field.q for words of length n."""
    if field.q == 2:
        return _GF2Words()
    if field.q == 3:
        return _GF3Words(n)
    return _OneHotWords(field, n)


def _odometer(deltas: list[list], add, zero):
    """Every combination of k rows, zero first, one digit move a step:
    deltas[i][c] is added when digit i leaves coefficient encoding c, and
    the q moves of one digit's cycle sum to zero."""
    q = len(deltas[0]) if deltas else 1
    msg = [0] * len(deltas)
    cw = zero
    yield cw
    for _ in range(q ** len(deltas) - 1):
        i = 0
        while True:
            cw = add(cw, deltas[i][msg[i]])
            msg[i] += 1
            if msg[i] < q:
                break
            msg[i] = 0
            i += 1
        yield cw


def _histogram(field: FieldContext, rows: list[list[int]]) -> Counter:
    """Weights of all q^k codewords, the zero word included: a table holds
    negkey of every combination of the low rows, and the odometer walks the
    high rows, one key a block.  Moving a digit from encoding c to the next
    adds (next - c) times its row, so every GF(q) multiple is reached even
    when q is not prime."""
    q, sub = field.q, field.base.sub
    words = _words(field, len(rows[0]) if rows else 0)
    multiples = [words.multiples(row) for row in rows]
    low = _table_rows(q, len(rows))
    table = [words.zero]
    for ms in multiples[:low]:
        table += [words.add(t, m) for m in ms[1:] for t in table]
    table = list(map(words.negkey, table))
    steps = [sub((c + 1) % q, c) for c in range(q)]
    deltas = [[ms[s] for s in steps] for ms in multiples[low:]]
    hist: Counter = Counter()
    for cw in map(words.key, _odometer(deltas, words.add, words.zero)):
        hist.update(map(int.bit_count, map(cw.__xor__, table)))
    if words.shift:
        hist = Counter({w >> words.shift: c for w, c in hist.items()})
    return hist


def weight_distribution(field: FieldContext, rows: list[list[int]]) -> dict[int, int]:
    """Weight histogram of all q^k - 1 nonzero codewords spanned by the k
    linearly independent rows over GF(field.q).

    Raises ResourceLimitError when q^k - 1 exceeds DEFAULT_DISTANCE_BUDGET.
    """
    codewords = field.q ** len(rows) - 1
    if codewords > DEFAULT_DISTANCE_BUDGET:
        raise ResourceLimitError(f"{codewords} codewords exceed the cap {DEFAULT_DISTANCE_BUDGET}")
    hist = _histogram(field, rows)
    # the zero word is the walk's first and, the rows being independent, only
    if hist[0] != 1:
        raise ConsistencyError(f"{hist[0]} zero codewords: the rows are dependent")
    del hist[0]
    return dict(hist)


def macwilliams(q: int, length: int, A: Mapping[int, int]) -> dict[int, int]:
    """Weight distribution B of the dual of a q-ary linear code of this
    length whose full weight distribution (weight 0 included) is A:
    B_j = (1/|C|) sum_i A_i K_j(i), with the Krawtchouk values K_j(i) from
    their three-term recurrence in exact integers.

    Raises ConsistencyError unless |C| = sum A is a power of q, |C| divides
    every sum, no B_j is negative and sum B = q^length / |C|.
    """
    size = sum(A.values())
    k = 0
    while q**k < size:
        k += 1
    if q**k != size:
        raise ConsistencyError(f"code size {size} is not a power of {q}")
    sums = [0] * (length + 1)
    for i, a in A.items():
        prev, cur = 0, 1
        for j in range(length + 1):
            sums[j] += a * cur
            prev, cur = cur, (
                ((length - j) * (q - 1) + j - q * i) * cur - (q - 1) * (length - j + 1) * prev
            ) // (j + 1)
    B = {}
    for j, s in enumerate(sums):
        b, r = divmod(s, size)
        if r or b < 0:
            raise ConsistencyError(
                f"MacWilliams sum at weight {j} is {s}, not a nonnegative multiple of |C| = {size}"
            )
        if b:
            B[j] = b
    if sum(B.values()) != q ** (length - k):
        raise ConsistencyError(f"dual weights sum to {sum(B.values())}, not {q}^{length - k}")
    return B


def _systematic(field: FieldContext, rows: list[list[int]], first: int) -> list[list[int]]:
    """The generator matrix of the code spanned by rows that is systematic
    on the window of its k = len(rows) columns from first: Gauss-Jordan
    elimination over GF(q), row i pivoting on column first + i.  Any k
    consecutive coordinates of a cyclic [n, k] code are an information set,
    so a missing pivot means that the rows are dependent."""
    k = len(rows)
    sums, mul, neg = _field_tables(field)
    mat = [list(r) for r in rows]
    for top in range(k):
        col = first + top
        found = next((i for i in range(top, k) if mat[i][col]), None)
        if found is None:
            raise ConsistencyError(f"rank {top} < {k} on the window: the rows are dependent")
        mat[top], mat[found] = mat[found], mat[top]
        lead = mul[field.base.inv(mat[top][col])]
        pivot = mat[top] = [lead[x] for x in mat[top]]
        for i, row in enumerate(mat):
            if i != top and row[col]:
                f = mul[neg[row[col]]]
                mat[i] = [sums[x][f[y]] for x, y in zip(row, pivot)]
    return mat


def _check_shift(field: FieldContext, mat: list[list[int]], first: int) -> None:
    """Raises ConsistencyError unless the cyclic shift i -> i+1 of the
    coordinates from first on, fixing those before it, maps the code of the
    systematic matrix onto itself.  The shift is checked, never trusted:
    each row, moved, must be the combination of the rows whose coefficients
    it holds in the window."""
    sums, mul, _ = _field_tables(field)
    for row in mat:
        moved = row[:first] + row[-1:] + row[first:-1]
        span = [0] * len(row)
        for c, other in zip(moved[first:first + len(mat)], mat):
            if c:
                scaled = mul[c]
                span = [sums[x][scaled[y]] for x, y in zip(span, other)]
        if span != moved:
            raise ConsistencyError("the cyclic shift does not map the code onto itself")


# minimum_weight weighs each prefix against a table of the sums of as many
# later rows as keep it at most this many entries.  The cap bounds memory
# only: every depth walks the same words.
_SUFFIX_ENTRIES = 1 << 16


def _suffix_table(words, multiples: list[list], depth: int) -> tuple[list[int], list[int]]:
    """negkey of every sum of exactly depth rows with nonzero coefficients,
    in lexicographic order of (row, coefficient) pairs, and offsets: the
    sums whose rows all come at or after row s start at offsets[s].

    The sums of depth rows that start at row a are its multiples plus each
    sum of depth - 1 rows starting after a, so each depth is built from the
    one before."""
    k = len(multiples)
    sums, offsets = [words.zero], [0] * (k + 1)
    for _ in range(depth):
        grown, starts = [], []
        for a in range(k):
            starts.append(len(grown))
            tails = sums[offsets[a + 1]:]
            grown += [words.add(h, t) for h in multiples[a][1:] for t in tails]
        starts.append(len(grown))
        sums, offsets = grown, starts
    return list(map(words.negkey, sums)), offsets


def _prefixes(words, multiples: list[list], count: int, stop: int):
    """(sum, index after its last row) for every choice of count >= 1 rows
    among the first stop, depth first, the first row with coefficient 1 and
    the others with every nonzero coefficient."""

    def grow(acc, start: int, left: int, coefficients: slice):
        for i in range(start, stop - left + 1):
            for m in multiples[i][coefficients]:
                if left == 1:
                    yield words.add(acc, m), i + 1
                else:
                    yield from grow(words.add(acc, m), i + 1, left - 1, slice(1, None))

    return grow(words.zero, 0, count, slice(1, 2))


def minimum_weight(field: FieldContext, rows: list[list[int]]) -> DistanceResult:
    """Minimum nonzero weight of the cyclic code spanned by the linearly
    independent rows over GF(field.q), by Chen's cyclic variant of the
    Brouwer-Zimmermann algorithm (Chen 1970; Zimmermann 1996; Grassl 2006).

    Rows of length n = field.n span a cyclic code; rows of length n + 1 span
    its extension, with the parity at coordinate 0, as code_rows builds it.
    Any other length, or k > n rows, raises ParameterError.  One systematic
    matrix on the window of the k cyclic coordinates [0, k), or [1, k + 1)
    on the extension, walks level w = 1, 2, ...: every combination of
    exactly w of its rows, with the leading coefficient 1.  _check_shift
    checks that the shift maps the code onto itself, and raises
    ConsistencyError if not.  Summed over the n shifts of a codeword, each
    of its cyclic nonzeros falls in the window exactly k times; so a
    codeword none of whose shifts was generated by level w has more than w
    nonzeros in every shifted window, and weighs at least ceil(n(w+1)/k).
    The walk stops as soon as the lightest codeword generated is that
    light: kind "exact".  After DEFAULT_DISTANCE_BUDGET codewords it stops
    with kind "budget-exhausted", and value is then only an upper bound.

    Level w takes prefixes of w - depth rows depth first and weighs each
    against a table of every sum of depth later rows, so memory stays at
    the table.  depth is w - 1 up to the largest depth at most
    words.deepest whose table, comb(k, depth) (q-1)^depth entries, and
    every shallower one fit _SUFFIX_ENTRIES: three rows over GF(2) and
    GF(3), two over the one-hot fields, down to one row, or none.
    Prefixes and tables both list their rows in lexicographic order, so
    the walk generates the same codewords in the same order at any depth,
    and every result is the same.  The route is "brouwer-zimmermann" and
    count is None: the walk does not establish how many codewords have the
    minimum weight.
    """
    if not rows:
        raise ParameterError("no rows: the code has no nonzero codeword")
    k, n, length = len(rows), field.n, len(rows[0])
    first = length - n  # 0 on a cyclic code, 1 on its extension
    if first not in (0, 1) or k > n:
        raise ParameterError(f"{k} rows of length {length} span no cyclic code of length {n}"
                             " or extension of one")
    mat = _systematic(field, rows, first)
    _check_shift(field, mat, first)
    words = _words(field, length)
    multiples = [words.multiples(row) for row in mat]
    deepest = 0
    while (deepest < words.deepest
           and comb(k, deepest + 1) * (field.q - 1) ** (deepest + 1) <= _SUFFIX_ENTRIES):
        deepest += 1
    route, budget = "brouwer-zimmermann", DEFAULT_DISTANCE_BUDGET
    best, left = length, budget
    heaviest = length << words.shift
    for w in range(1, k + 1):
        depth = min(deepest, w - 1)
        if depth == w - 1:  # one row deeper than the level before
            table, offsets = _suffix_table(words, multiples, depth)
        for acc, after in _prefixes(words, multiples, w - depth, k - depth):
            start, key = offsets[after], words.key(acc)
            weights = map(int.bit_count, map(key.__xor__, table[start:start + left]))
            best = min(best, min(weights, default=heaviest) >> words.shift)
            if start + left < len(table):  # the budget ends inside this block
                return DistanceResult("budget-exhausted", best, budget, route, None)
            left -= len(table) - start
        if best <= -(-n * (w + 1) // k):
            break
    return DistanceResult("exact", best, budget - left, route, None)


def dual_min_distance(
    field: FieldContext, D: DefiningSet, extended: bool = False
) -> DistanceResult:
    """Minimum nonzero weight of the dual code, by the first of three routes
    that applies.

    With extended=False the code is the cyclic one on [1, n-1] exponents of
    D; with extended=True it is the length-(n+1) extension (defining set
    including 0).  When the primal code has strictly fewer codewords than
    the dual and all q^k - 1 of its nonzero ones fit DEFAULT_DISTANCE_BUDGET,
    they are enumerated and the MacWilliams identities give the dual's
    distribution (route "macwilliams").  Otherwise, when the dual's nonzero
    codewords fit, the dual is walked (route "dual-enumeration").  Otherwise
    minimum_weight runs Chen's cyclic Brouwer-Zimmermann walk on the dual
    rows (route "brouwer-zimmermann"); only this route can end
    "budget-exhausted", and it leaves count None.  That walk uses the cyclic
    shift, which it checks; the affine group is not used: that invariance
    is what verify tests, and the distance must not rest on it.
    """
    primal, dual = code_rows(field, D, extended)
    if not dual:
        raise ParameterError("dual code is trivial; no nonzero codeword exists")
    q = field.q
    if len(primal) < len(dual) and q ** len(primal) - 1 <= DEFAULT_DISTANCE_BUDGET:
        B = macwilliams(q, len(dual[0]), {0: 1, **weight_distribution(field, primal)})
        del B[0]
        side, route = primal, "macwilliams"
    elif q ** len(dual) - 1 <= DEFAULT_DISTANCE_BUDGET:
        B = weight_distribution(field, dual)
        side, route = dual, "dual-enumeration"
    else:
        return minimum_weight(field, dual)
    value = min(B)
    return DistanceResult("exact", value, q ** len(side) - 1, route, B[value])


@lru_cache(maxsize=32)
def _zech(field: FieldContext) -> list[int]:
    """zech[k] = log(1 + alpha^k), or -1 where that sum is zero, built once
    per field from its public exp, log and add; callers only read it."""
    return [field.log(x) if x else -1 for x in (field.add(1, field.exp(k)) for k in range(field.n))]


def affine_invariance_probe(
    field: FieldContext,
    params: CodeParams,
    trials: int = 100,
    seed: int = 0,
    defining_set: DefiningSet | None = None,
) -> bool:
    """Sample random extended codewords and random coordinate maps
    g -> u g + v (u nonzero), and test membership via the syndromes at the
    defining-set exponents.  Returns True iff every trial stays inside the code.

    A codeword is a random combination of the primal rows of the extended
    code, the shifts of g(x) behind their parity coordinate; the dual rows
    are never built.  Codewords are summed through GF(q) tables, each row
    over its support only, and coordinates move by logarithms:
    u alpha^i + v is alpha^(log u + i) when v = 0, and
    alpha^(log v + zech(log u - log v + i)) otherwise, with the Zech list
    built once per field.  The draws from random.Random(seed) are, in
    order, one coefficient per row, u and v.  galois.syndromes evaluates the
    moved word and stops at the first nonzero syndrome.

    The default T is brute_T(params), built from the definition; a caller
    that has built it already passes it as defining_set.  defining_set also
    overrides it with a deliberately broken (non-descendant-closed) set,
    which is how the probe is given negative controls.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    T = brute_T(params) if defining_set is None else defining_set
    g = list(_generator(field, T).coeffs)
    q, n, span = field.q, field.n, len(g)
    sums, mul, _ = _field_tables(field)
    # row i is c g(x) x^i behind the parity c (-g(1)) that every row shares:
    # zero outside position 0 and positions 1 + i .. i + span
    parity = _parity(field, g)
    scaled = [[mc[x] for x in g] for mc in mul]
    heads = [mc[parity] for mc in mul]
    rng = random.Random(seed)
    # over GF(q) S(qs) = S(s)^q: one exponent in [0, n-1] per coset decides
    exponents = sorted({leader(s, T.q, T.m) for s in T if s < T.n})
    # coordinate order: index 0 is the zero element, index 1 + i is alpha^i
    zech = _zech(field)
    powers = list(range(1, n + 1))
    for _ in range(trials):
        cw = [0] * (n + 1)
        for lo in range(1, n - span + 2):
            coef = rng.randrange(q)
            if coef:
                cw[0] = sums[cw[0]][heads[coef]]
                cw[lo:lo + span] = [sums[x][y] for x, y in zip(cw[lo:lo + span], scaled[coef])]
        u = rng.randrange(1, field.order)
        v = rng.randrange(field.order)
        # index 0, the zero element, goes to v
        lu = field.log(u)
        if v:
            lv = field.log(v)
            shift = (lu - lv) % n
            targets = [1 + lv] + [0 if z < 0 else 1 + (lv + z) % n
                                  for z in zech[shift:] + zech[:shift]]
        else:
            targets = [0] + powers[lu:] + powers[:lu]
        permuted = [0] * (n + 1)
        for target, c in zip(targets, cw):
            permuted[target] = c
        if any(syndromes(field, permuted, exponents)):
            return False
    return True


def brute_max_prefix(Tperp: DefiningSet) -> int | None:
    """Smallest s outside Tperp with [0, s) inside it; None when Tperp is
    the whole index range.  One ascending pass over the members: the first
    member that differs from its position marks the gap."""
    s = 0
    for member in Tperp:
        if member != s:
            return s
        s += 1
    return None if s == Tperp.q**Tperp.m else s

"""Independent brute-force implementations of every closed form, plus
exhaustive code-level verification on instances small enough to enumerate.

Nothing here reuses a closed-form path it is meant to check: the defining
set is rebuilt from its definition (descendants of word rotations), the
occurrence-class sizes are re-counted by scanning every digit word whose
digits are all <= a, dimensions come from generator-polynomial degrees, and
dual minimum distances come from an exhaustive weight distribution of
whichever side has fewer codewords: the dual itself, or the primal code,
whose distribution the MacWilliams identities turn into the dual's exactly.
The GF(2) and GF(3) walks count weights by popcount over bit masks, a
table of low-row combinations at a time; other q add one row per step.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import islice, product
from typing import TYPE_CHECKING, Mapping

from .cosets import DefiningSet, _check_cap
from .errors import ConsistencyError, ParameterError
from .galois import FieldContext, generator_polynomial, poly_divmod, syndrome
from .qadic import profile_counts

if TYPE_CHECKING:
    from .counting import CodeParams

__all__ = [
    "DistanceResult",
    "brute_T",
    "brute_class_census",
    "brute_dimension",
    "code_rows",
    "dual_min_distance",
    "macwilliams",
    "weight_distribution",
    "affine_invariance_probe",
    "brute_max_prefix",
]

DEFAULT_DISTANCE_BUDGET = 1 << 21


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


def brute_dimension(field: FieldContext, D: DefiningSet) -> int:
    """n minus the generator-polynomial degree for the cyclic code whose
    defining set is D with the extension index 0 (and n, if present) removed."""
    if (field.q, field.m) != (D.q, D.m):
        raise ParameterError("field and defining set disagree on (q, m)")
    cyclic_part = [s for s in D if 0 < s < D.n]
    return field.n - generator_polynomial(field, cyclic_part).degree


@dataclass(frozen=True)
class DistanceResult:
    """Result of a minimum-weight search.

    kind is "exact" only when every nonzero codeword of the enumerated side
    was covered; "budget-exhausted" reports the best (smallest) weight seen,
    which is only an upper bound on the true minimum.  route names the side
    walked: "dual-enumeration" walks the dual itself, "macwilliams" walks the
    primal code and transforms its weight distribution.  count is the number
    of codewords of weight value (among those seen, when budget-exhausted).
    """

    kind: str
    value: int
    enumerated: int
    route: str
    count: int


def code_rows(
    field: FieldContext, D: DefiningSet, extended: bool = False
) -> tuple[list[list[int]], list[list[int]]]:
    """Generator rows (primal, dual) of the cyclic code whose defining set is
    D minus {0, n}, or with extended=True of its length-(n+1) extension.

    The primal rows are shifts of g(x), the dual rows shifts of the
    reciprocal of h(x) = (x^n - 1) / g(x).  The extension puts the overall
    parity at position 0, and (x, y) lies in its dual exactly when y - x*1
    lies in the cyclic dual, so the extended dual is spanned by the all-ones
    word and the cyclic dual rows behind a zero.
    """
    if (field.q, field.m) != (D.q, D.m):
        raise ParameterError("field and defining set disagree on (q, m)")
    base, n = field.base, field.n
    g = list(generator_polynomial(field, [s for s in D if 0 < s < D.n]).coeffs)
    xn1 = (base.neg(1),) + (0,) * (n - 1) + (1,)
    h, rem = poly_divmod(base, xn1, g)
    if rem:
        raise ParameterError("generator polynomial does not divide x^n - 1")
    hstar = list(reversed(h))
    primal = [[0] * i + g + [0] * (n - len(g) - i) for i in range(n - len(g) + 1)]
    dual = [[0] * i + hstar + [0] * (n - len(hstar) - i) for i in range(len(g) - 1)]
    if extended:
        primal = _extend_rows(field, primal)
        dual = [[1] * (n + 1)] + [[0] + r for r in dual]
    return primal, dual


def _extend_rows(field: FieldContext, rows: list[list[int]]) -> list[list[int]]:
    """Prepend the overall parity coordinate: position 0 holds minus the sum."""
    base = field.base
    out = []
    for r in rows:
        total = 0
        for c in r:
            total = base.add(total, c)
        out.append([base.neg(total)] + r)
    return out


# The GF(2) and GF(3) kernels tabulate every combination of this many low
# rows and walk the remaining rows one block of the table at a time.
_TABLE_ROWS = {2: 8, 3: 5}


def _blocks(table: list[int], count: int, high_words):
    """Split the first count codewords into blocks: one per high-row word
    (from the iterator high_words, zero first), each covering the table or,
    for the last, a prefix of it."""
    full, rest = divmod(count, len(table))
    for _ in range(full):
        yield next(high_words), table
    if rest:
        yield next(high_words), table[:rest]


def _gray_masks(masks: list[int]):
    """Every GF(2) combination of masks, zero first, one XOR a step."""
    cw = 0
    yield cw
    for idx in range(1, 1 << len(masks)):
        cw ^= masks[(idx & -idx).bit_length() - 1]
        yield cw


def _histogram_gf2(rows: list[list[int]], count: int) -> Counter:
    """Weights of the first count codewords: a row is a bit mask, and the
    weight of a word is the popcount of its mask."""
    masks = [sum(1 << j for j, c in enumerate(row) if c) for row in rows]
    low = _TABLE_ROWS[2]
    table = [0]
    for r in masks[:low]:
        table += [t ^ r for t in table]
    hist: Counter = Counter()
    for cw, block in _blocks(table, count, _gray_masks(masks[low:])):
        hist.update(map(int.bit_count, map(cw.__xor__, block)))
    return hist


def _gf3_add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Sum of two GF(3) words held as bitplanes (P, M): P marks the
    coordinates equal to 1 and M those equal to 2 (Boothby & Bradshaw)."""
    t = (x[0] | y[1]) ^ (x[1] | y[0])
    return (x[1] | y[1]) ^ t, (x[0] | y[0]) ^ t


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


def _onehot(plus: int, minus: int, n: int) -> int:
    """Three n-bit planes: the coordinates equal to 0, to 1 (plus) and to
    2 (minus)."""
    return (((1 << n) - 1) ^ (plus | minus)) | plus << n | minus << 2 * n


def _histogram_gf3(rows: list[list[int]], count: int) -> Counter:
    """Weights of the first count codewords, each held as two bitplanes.

    The inner loop compares one-hot words.  Those of c and -t agree at a
    coordinate exactly when c + t is 0 there and differ in two bits
    otherwise, so the weight of c + t is popcount(onehot(c) ^ onehot(-t)) / 2.
    """
    n = len(rows[0]) if rows else 0
    planes = [
        (sum(1 << j for j, c in enumerate(row) if c == 1),
         sum(1 << j for j, c in enumerate(row) if c == 2))
        for row in rows
    ]
    low = _TABLE_ROWS[3]
    words = [(0, 0)]
    for r in planes[:low]:
        once = [_gf3_add(w, r) for w in words]
        words += once + [_gf3_add(w, r) for w in once]
    table = [_onehot(m, p, n) for p, m in words]  # -t swaps the planes of t
    # every GF(3) step adds 1, so each digit move adds the row itself
    high_words = _odometer([[r] * 3 for r in planes[low:]], _gf3_add, (0, 0))
    high = (_onehot(p, m, n) for p, m in high_words)
    hist: Counter = Counter()
    for cw, block in _blocks(table, count, high):
        hist.update(map(int.bit_count, map(cw.__xor__, block)))
    return Counter({w // 2: c for w, c in hist.items()})


def _histogram_odometer(field: FieldContext, rows: list[list[int]], count: int) -> Counter:
    """Weights of the first count codewords, one field vector a step.
    Moving a digit from c to the next encoding adds (next - c) times its
    row, so every GF(q) multiple is reached even when q is not prime."""
    base, q = field.base, field.q
    deltas = []
    for row in rows:
        steps = [[base.mul(base.sub((c + 1) % q, c), x) for x in row] for c in range(q)]
        deltas.append([([j for j, x in enumerate(st) if x], st) for st in steps])

    def add(cw: list[int], delta) -> list[int]:
        # in place: each word is weighed before the walk moves on
        support, step = delta
        for j in support:
            cw[j] = base.add(cw[j], step[j])
        return cw

    words = _odometer(deltas, add, [0] * (len(rows[0]) if rows else 0))
    return Counter(len(w) - w.count(0) for w in islice(words, count))


def weight_distribution(
    field: FieldContext, rows: list[list[int]], budget: int = DEFAULT_DISTANCE_BUDGET
) -> tuple[dict[int, int], int]:
    """Weight histogram of the nonzero codewords spanned by the linearly
    independent rows over GF(field.q), and how many were enumerated.

    At most budget nonzero codewords are covered; the walk is exhaustive
    exactly when the count returned is q^k - 1.
    """
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    q = field.q
    steps = min(q ** len(rows) - 1, budget)
    if q == 2:
        hist = _histogram_gf2(rows, steps + 1)
    elif q == 3:
        hist = _histogram_gf3(rows, steps + 1)
    else:
        hist = _histogram_odometer(field, rows, steps + 1)
    # the zero word is the walk's first and, the rows being independent, only
    if hist[0] != 1:
        raise ConsistencyError(f"{hist[0]} zero codewords: the rows are dependent")
    del hist[0]
    return dict(hist), steps


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


def dual_min_distance(
    field: FieldContext,
    D: DefiningSet,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    extended: bool = False,
) -> DistanceResult:
    """Minimum nonzero weight of the dual code, from an exact weight
    distribution of whichever side has fewer codewords.

    With extended=False the code is the cyclic one on [1, n-1] exponents of
    D; with extended=True it is the length-(n+1) extension (defining set
    including 0).  When the primal code has strictly fewer codewords than
    the dual and all q^k - 1 of its nonzero ones fit the budget, they are
    enumerated and the MacWilliams identities give the dual's distribution
    (route "macwilliams"); otherwise the dual is walked (route
    "dual-enumeration"), and a budget overrun downgrades the result to
    "budget-exhausted" instead of returning a wrong exact value.
    """
    primal, dual = code_rows(field, D, extended)
    if not dual:
        raise ParameterError("dual code is trivial; no nonzero codeword exists")
    q = field.q
    if len(primal) < len(dual) and q ** len(primal) - 1 <= budget:
        A, steps = weight_distribution(field, primal, budget)
        B = macwilliams(q, len(dual[0]), {0: 1, **A})
        del B[0]
        kind, route = "exact", "macwilliams"
    else:
        B, steps = weight_distribution(field, dual, budget)
        kind = "exact" if steps == q ** len(dual) - 1 else "budget-exhausted"
        route = "dual-enumeration"
    value = min(B)
    return DistanceResult(kind, value, steps, route, B[value])


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

    The default T is brute_T's, built from the definition.  defining_set
    overrides it, which is how a deliberately broken (non-descendant-closed)
    set is probed as a negative control.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    T = brute_T(params) if defining_set is None else defining_set
    rows, _ = code_rows(field, T, extended=True)
    base = field.base
    rng = random.Random(seed)
    exponents = [s for s in T if s < T.n]  # evaluation exponents live in [0, n-1]
    # coordinate order: index 0 is the zero element, index 1 + i is alpha^i
    enc_of_pos = [0] + [field.exp(i) for i in range(field.n)]
    pos_of_enc = [0] * field.order
    for pos, enc in enumerate(enc_of_pos):
        pos_of_enc[enc] = pos
    for _ in range(trials):
        cw = [0] * (field.n + 1)
        for row in rows:
            coef = rng.randrange(field.q)
            if coef:
                for j, c in enumerate(row):
                    if c:
                        cw[j] = base.add(cw[j], base.mul(coef, c))
        u = rng.randrange(1, field.order)
        v = rng.randrange(field.order)
        permuted = [0] * (field.n + 1)
        for pos in range(field.n + 1):
            target = field.add(field.mul(u, enc_of_pos[pos]), v)
            permuted[pos_of_enc[target]] = cw[pos]
        if any(syndrome(field, permuted, s) for s in exponents):
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

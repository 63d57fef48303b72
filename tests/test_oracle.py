import ast
import random
from collections import Counter
from itertools import combinations, product
from math import comb, gcd
from pathlib import Path

import pytest

import cyclocode

from cyclocode import cli, galois, oracle
from cyclocode.cosets import DefiningSet, leader, union_cosets
from cyclocode.counting import CodeParams, class_sizes, closed_size_T
from cyclocode.defsets import (
    bch_set,
    build_T,
    descendant_closure,
    dimension,
    dual_set,
    dual_set_pattern,
)
from cyclocode.errors import ConsistencyError, ParameterError, ResourceLimitError
from cyclocode.galois import field_make, poly_divmod
from cyclocode.oracle import (
    _suffix_table,
    _table_rows,
    _words,
    affine_invariance_probe,
    brute_T,
    brute_class_census,
    brute_dimension,
    brute_max_prefix,
    code_rows,
    dual_min_distance,
    macwilliams,
    minimum_weight,
    segment_class_sizes,
    weight_distribution,
)


@pytest.fixture(autouse=True)
def _fresh_oracle_memos():
    """Every test starts from empty oracle memos, so a count of walks or of
    cache hits, and a check that a patched helper is reached, does not
    depend on which tests ran before it."""
    for memo in (oracle._dual, oracle._generator):
        memo.cache_clear()


T_LISTING_3_4_1_2_1 = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
    21, 24, 27, 28, 29, 30, 31, 32, 33, 36, 37, 39, 42, 45, 46, 48, 51, 54,
    55, 56, 57, 58, 59, 63, 64, 72, 73,
]


def test_brute_T_examples():
    T = brute_T(CodeParams(3, 4, 1, 2, 1))
    assert T.members() == T_LISTING_3_4_1_2_1 and max(T) == 73
    T = brute_T(CodeParams(2, 4, 2, 1, 1))
    assert T == union_cosets([0, 1, 3], 2, 4)
    assert len(T) == 9
    # the word u = a...a b 0...0 itself is always a member
    p = CodeParams(5, 3, 1, 3, 2)
    u = 3 + 2 * 5  # digits (3, 2, 0)
    assert u in brute_T(p)


def test_brute_T_equals_build_T_small_grid():
    for q, mmax in [(2, 8), (3, 5), (4, 3), (5, 3)]:
        for m in range(1, mmax + 1):
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, a + 1):
                        p = CodeParams(q, m, t, a, b)
                        assert brute_T(p) == build_T(p), p


def test_census_matches_class_sizes():
    p = CodeParams(3, 4, 1, 2, 1)
    assert brute_class_census(p) == {(1, 0): 32, (2, 0): 2, (0, 1): 12}
    sizes = class_sizes(p)
    assert closed_size_T(p) == sum(sizes.values()) + 1


def test_necklace_periods_sum_to_every_word():
    # each necklace is the least rotation of its class, with its least
    # period, and the classes it stands for cover all k^n words once
    for k in range(2, 6):
        for n in range(1, 9):
            if k**n > 5000:
                continue
            necklaces = [(tuple(word), p) for word, p in oracle._necklaces(k, n)]
            assert sum(p for _, p in necklaces) == k**n, (k, n)
            assert len(set(necklaces)) == len(necklaces)
            for word, p in necklaces:
                rotations = {word[i:] + word[:i] for i in range(n)}
                assert word == min(rotations) and len(rotations) == p, (k, n, word)


def _product_census(params):
    """The census over every word by itertools.product, one word at a time."""
    p = params.normalized()
    q, m, t, a, b = p
    census = {}
    for digits in product(range(a + 1), repeat=m):
        k, ell = oracle.profile_counts(digits, m, a, b, t)
        if k or ell:
            census[(k, ell)] = census.get((k, ell), 0) + 1
    return census


def test_census_equals_the_product_reference():
    points = [CodeParams(q, m, t, a, b) for q in (2, 3, 4, 5)
              for m in range(1, 13) if q**m <= 5000
              for t in range(m) for a in range(1, q) for b in range(1, a + 1)]
    assert len(points) == 438
    for p in points:
        assert brute_class_census(p) == _product_census(p), p


def test_segment_class_sizes_match_census_small_grid():
    for q, mmax in [(2, 7), (3, 5), (4, 4), (5, 3)]:
        for m in range(1, mmax + 1):
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, a + 1):
                        p = CodeParams(q, m, t, a, b)
                        assert segment_class_sizes(p) == brute_class_census(p), p


@pytest.mark.parametrize("point", [(2, 200, 1, 1, 1), (2, 120, 0, 1, 1), (3, 60, 0, 2, 1)])
def test_segment_class_sizes_match_class_sizes_at_large_m(point):
    p = CodeParams(*point)
    segments, sizes = segment_class_sizes(p), class_sizes(p)
    # class_sizes lists every admissible pair, the empty classes too
    assert set(segments) <= set(sizes)
    for kl, size in sizes.items():
        assert segments.get(kl, 0) == size, kl


def test_brute_dimension_examples():
    F = field_make(2, 4)
    assert brute_dimension(F, build_T(CodeParams(2, 4, 2, 1, 1))) == 7
    assert brute_dimension(F, build_T(CodeParams(2, 4, 1, 1, 1))) == 1
    assert brute_dimension(F, DefiningSet.from_members(2, 4, [0])) == 15
    F3 = field_make(3, 4)
    assert brute_dimension(F3, build_T(CodeParams(3, 4, 1, 2, 1))) == 34


def test_dual_min_distance_examples():
    F = field_make(2, 4)
    # repetition code: dual is the even-weight code, read off the primal's
    # single nonzero codeword by the MacWilliams identities.  Its one
    # nonzero, alpha^0, is not primitive, so the whole code is walked
    res = dual_min_distance(F, build_T(CodeParams(2, 4, 1, 1, 1)))
    assert (res.kind, res.value, res.route) == ("exact", 2, "macwilliams")
    assert res.enumerated == 2**1 - 1
    assert res.count == 15 * 14 // 2  # every weight-2 word is even
    # the [15, 7] double-error-correcting code: dual distance 4
    T = build_T(CodeParams(2, 4, 2, 1, 1))
    res = dual_min_distance(F, T)
    assert (res.kind, res.value) == ("exact", 4)
    ext = oracle._dual_walk(F, T, extended=True)
    assert (ext.kind, ext.value) == ("exact", 4)
    # the primal [15, 7] walked modulo the shift: 2 * 2^(7 - 4) - 1 codewords
    assert (res.route, res.enumerated, ext.route, ext.enumerated) == (
        "macwilliams", 15, "macwilliams", 15)
    # the public extended call derives the walk's result from the cyclic
    # one, 15 words of weight 4 times 16 / (16 - 4), and walks nothing
    assert dual_min_distance(F, T, extended=True) == ("exact", 4, 0, "affine-transitive", 20)
    assert ext.count == 20
    # (2,4,3,1,1): dual dimension 4 against primal 11, so the dual is walked.
    # It is the simplex code, one minimal ideal: W' = 0, and the n shifts of
    # e are its 15 nonzero words, all of weight 8
    res = dual_min_distance(F, build_T(CodeParams(2, 4, 3, 1, 1)))
    assert (res.kind, res.value, res.route) == ("exact", 8, "dual-enumeration")
    assert res.enumerated == 2 * 2**0 - 1 and res.count == 15


def test_dual_min_distance_budget(monkeypatch):
    F = field_make(2, 4)
    T = build_T(CodeParams(2, 4, 1, 1, 1))
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", 100)
    # the primal has one nonzero codeword, well inside the budget
    res = dual_min_distance(F, T)
    assert (res.kind, res.value, res.route, res.enumerated) == ("exact", 2, "macwilliams", 1)
    # (2,4,2,1,1): 127 primal and 255 dual nonzero codewords, both over 100,
    # so Brouwer-Zimmermann runs on the dual.  Level 1 of the [15, 8] cyclic
    # dual, 8 codewords, finds weight 4 and proves ceil(15 * 2 / 8) = 4; the
    # [16, 9] extended dual needs its 9 codewords for ceil(15 * 2 / 9) = 4
    T = build_T(CodeParams(2, 4, 2, 1, 1))
    got = [dual_min_distance(F, T), oracle._dual_walk(F, T, extended=True)]
    assert [(r.kind, r.value, r.route, r.count, r.enumerated) for r in got] == [
        ("exact", 4, "brouwer-zimmermann", None, 8),
        ("exact", 4, "brouwer-zimmermann", None, 9),
    ]
    # the public extended call derives d from the cyclic walk, count None
    assert dual_min_distance(F, T, extended=True) == (
        "exact", 4, 0, "affine-transitive", None)
    # a budget that ends inside that walk leaves only an upper bound; the
    # exact answer memoized under the budget of 100 is not served under 7
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", 7)
    res = dual_min_distance(F, T)
    assert (res.kind, res.route, res.enumerated) == ("budget-exhausted", "brouwer-zimmermann", 7)
    assert res.value >= 4
    # and the extended call then walks its own dual, as it did before
    ext = dual_min_distance(F, T, extended=True)
    assert ext == oracle._dual_walk(F, T, extended=True)
    assert (ext.kind, ext.route, ext.enumerated) == ("budget-exhausted", "brouwer-zimmermann", 7)
    # (3,3,2,2,2): the [26, 6] cyclic dual, d = 15, stops after level 3,
    # 6 + 30 + 80 codewords: ceil(26 * 3 / 6) = 13 < 15 <= ceil(26 * 4 / 6)
    F3 = field_make(3, 3)
    T3 = build_T(CodeParams(3, 3, 2, 2, 2))
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", 200)
    res = dual_min_distance(F3, T3)
    assert (res.kind, res.value, res.route, res.enumerated) == (
        "exact", 15, "brouwer-zimmermann", 116)
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", 50)
    res = dual_min_distance(F3, T3)
    assert (res.kind, res.route, res.enumerated) == ("budget-exhausted", "brouwer-zimmermann", 50)
    assert res.value >= 15


def test_extended_fallback_walks_once_per_code_and_budget(monkeypatch):
    # (7,1,0,a,4) is one Reed-Solomon code for a = 4, 5, 6.  Under a budget
    # of 3 its cyclic walk ends "budget-exhausted", so the extended call
    # walks the extended dual; a second point of the code reuses that walk
    F = field_make(7, 1)
    walks = Counter()
    walk = oracle._dual_walk
    monkeypatch.setattr(oracle, "_dual_walk", lambda field, D, extended:
                        walks.update([extended]) or walk(field, D, extended))
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", 3)
    got = [dual_min_distance(F, build_T(CodeParams(7, 1, 0, a, 4)), extended=True)
           for a in (5, 6)]
    assert walks == {False: 1, True: 1}
    assert got[0] == got[1] == walk(F, build_T(CodeParams(7, 1, 0, 4, 4)), True)
    assert (got[0].kind, got[0].route, got[0].enumerated) == (
        "budget-exhausted", "brouwer-zimmermann", 3)
    # a smaller budget is never served the answer walked under a larger one
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", 2)
    res = dual_min_distance(F, build_T(CodeParams(7, 1, 0, 6, 4)), extended=True)
    assert walks == {False: 2, True: 2}
    assert (res.kind, res.enumerated) == ("budget-exhausted", 2)


def test_dual_min_distance_nonbinary():
    F = field_make(3, 3)
    T = build_T(CodeParams(3, 3, 2, 2, 2))  # |T*| = 6
    res = dual_min_distance(F, T)
    # the [26, 6] dual walked modulo the shift: 2 * 3^(6 - 3) - 1 codewords
    assert (res.kind, res.route, res.enumerated) == ("exact", "dual-enumeration", 2 * 3**3 - 1)
    ext = dual_min_distance(F, T, extended=True)
    assert ext.kind == "exact" and ext.value == res.value
    # 312 words of weight 15 times 27 / (27 - 15), as the [27, 7] walk counts
    assert (ext.route, ext.enumerated, ext.count) == ("affine-transitive", 0, 702)
    walked = oracle._dual_walk(F, T, extended=True)
    assert (walked.kind, walked.value, walked.count) == ("exact", res.value, 702)


def _orbit_sides(q, top, words):
    """(field, point, extended, which, rows, side) for every side of
    code_rows at q^m <= top and b <= a whose q^k is at most words."""
    m = 1
    while q**m <= top:
        F = field_make(q, m)
        for t in range(m):
            for a in range(1, q):
                for b in range(1, a + 1):
                    T = build_T(CodeParams(q, m, t, a, b))
                    for extended in (False, True):
                        sides = oracle._sides(F, T, extended)
                        for which, side in zip(("primal", "dual"), sides):
                            rows = oracle._rows(F, side[0], extended)
                            if rows and q ** len(rows) <= words:
                                yield F, (q, m, t, a, b), extended, which, rows, side
        m += 1


@pytest.mark.parametrize("q,top,orbit_sides", [
    (2, 32, 33), (3, 27, 38), (4, 16, 37), (5, 25, 54), (7, 49, 101)])
def test_orbit_distribution_equals_the_whole_walk(q, top, orbit_sides):
    # GF(2) and GF(3) words, and one-hot words at q = 4, 5 and 7: walked
    # modulo the shift, every side of both codes has the distribution of
    # its whole walk, from 2 q^(k - m) - 1 codewords, or q^k - 1 where no
    # nonzero is primitive, as at every side with k < m.  At GF(2), n = 1
    # and the extended dual's nonzero 0 has gcd(0, 1) = 1: that side counts
    # as an orbit, and its count is the same either way, 2 q^(k-1) - 1
    orbits = 0
    for F, point, extended, which, rows, side in _orbit_sides(q, top, 3**10):
        A, walked = oracle._side_distribution(F, rows, side, extended)
        assert A == {0: 1, **weight_distribution(F, rows)}, (point, extended, which)
        primitive = any(gcd(s, F.n) == 1 for s in side[1])
        k = len(rows)
        assert walked == (2 * q ** (k - F.m) - 1 if primitive else q**k - 1), (point, which)
        orbits += primitive
    assert orbits == orbit_sides


def test_orbit_walk_falls_back_without_a_primitive_nonzero(monkeypatch):
    F = field_make(2, 4)
    calls = Counter()
    whole = oracle.weight_distribution

    def counting(field, rows):
        calls[len(rows)] += 1
        return whole(field, rows)

    monkeypatch.setattr(oracle, "weight_distribution", counting)
    # the repetition code's one nonzero is alpha^0, and gcd(0, 15) = 15: the
    # primal is walked whole, both codes
    T = build_T(CodeParams(2, 4, 1, 1, 1))
    got = [dual_min_distance(F, T, extended) for extended in (False, True)]
    # the extended call derives its result from the cyclic walk, whose
    # memoized result it reads: one walk for the pair of calls
    assert [(r.route, r.enumerated, r.count) for r in got] == [
        ("macwilliams", 1, 105), ("affine-transitive", 0, 120)]
    assert calls == {1: 1}
    # the extended primal walked directly counts the same 120 words
    res = oracle._dual_walk(F, T, extended=True)
    assert (res.route, res.enumerated, res.count) == ("macwilliams", 1, 120)
    assert calls == {1: 2}
    # the [15, 7] primal has alpha^0 and the coset of 7 as nonzeros: orbit
    calls.clear()
    res = dual_min_distance(F, build_T(CodeParams(2, 4, 2, 1, 1)))
    assert (res.route, res.enumerated) == ("macwilliams", 15) and not calls


def _split_side(F, point, extended=False, which=1):
    T = build_T(CodeParams(*point))
    side = oracle._sides(F, T, extended)[which]
    return side, oracle._rows(F, side[0], extended)


def test_orbit_split_refuses_a_coset_that_is_not_primitive():
    F = field_make(2, 4)
    (poly, nonzeros), _ = _split_side(F, (2, 4, 2, 1, 1), which=0)
    # the [15, 7] primal: nonzeros alpha^0 and the cosets of 5 and 7
    assert nonzeros == [0, 5, 7, 10, 11, 13, 14]
    _, e = oracle._orbit_split(F, poly, 7)
    # e is (x^n - 1) / f for the minimal polynomial f of alpha^7, padded to n
    xn1 = (1,) + (0,) * (F.n - 1) + (1,)
    quotient, rem = poly_divmod(F.base, xn1, oracle.minimal_polynomial(F, 7).coeffs)
    assert rem == () and e == list(quotient) + [0] * (F.n - len(quotient))
    # 5 has a coset of 2 and gcd 5; 0 has gcd 15
    for s in (5, 0):
        with pytest.raises(ConsistencyError, match="not primitive"):
            oracle._orbit_split(F, poly, s)
    # 3 has gcd 3, though its coset has m = 4 members
    with pytest.raises(ConsistencyError, match="gcd\\(s, n\\) = 3"):
        oracle._orbit_split(F, poly, 3)
    # 1 is primitive but a zero of the code: f does not divide h
    with pytest.raises(ConsistencyError, match="does not divide the check polynomial"):
        oracle._orbit_split(F, poly, 1)
    with pytest.raises(ConsistencyError, match="does not divide x\\^n - 1"):
        oracle._orbit_split(F, poly + [1], 7)


def test_ideal_word_refuses_a_minimal_polynomial_that_does_not_divide(monkeypatch):
    # x^4 + 1 = (x + 1)^4 over GF(2) is no factor of x^15 - 1: the remainder
    # of the division that builds e is tested, and the distance stops with
    # the ConsistencyError that the command line turns into exit status 5
    F = field_make(2, 4)
    T = build_T(CodeParams(2, 4, 2, 1, 1))
    (poly, _), _ = _split_side(F, (2, 4, 2, 1, 1), which=0)
    monkeypatch.setattr(oracle, "minimal_polynomial",
                        lambda field, s: oracle.Polynomial((1, 0, 0, 0, 1)))
    with pytest.raises(ConsistencyError, match="alpha\\^7 does not divide x\\^n - 1"):
        oracle._orbit_split(F, poly, 7)
    with pytest.raises(ConsistencyError, match="alpha\\^\\d+ does not divide x\\^n - 1"):
        dual_min_distance(F, T)
    monkeypatch.undo()
    assert dual_min_distance(F, T).kind == "exact"


@pytest.mark.parametrize("extended", [False, True])
def test_orbit_distribution_checks_its_walks(extended):
    # the [26, 6] cyclic dual of (3,3,2,2,2), or its [27, 7] extension
    F = field_make(3, 3)
    (poly, nonzeros), rows = _split_side(F, (3, 3, 2, 2, 2), extended)
    s = next(s for s in nonzeros if gcd(s, F.n) == 1)
    rest_poly, e = oracle._orbit_split(F, poly, s)
    rest, e = oracle._rows(F, rest_poly, extended), oracle._word(F, e, extended)
    k = len(rows)
    A = oracle._orbit_distribution(F, rest, e, k)
    assert A == {0: 1, **weight_distribution(F, rows)}
    # an e taken from inside W': the coset walk meets the zero word
    inside = [F.base.add(x, y) for x, y in zip(rest[0], rest[-1])]
    with pytest.raises(ConsistencyError, match="e lies in the code"):
        oracle._orbit_distribution(F, rest, inside, k)
    # dependent rows: the walk of W' meets the zero word twice
    with pytest.raises(ConsistencyError, match="rows are dependent"):
        oracle._orbit_distribution(F, rest + [rest[0]], e, k + 1)
    # one row short of W': both walks pass, the total does not
    with pytest.raises(ConsistencyError, match="sums to"):
        oracle._orbit_distribution(F, rest[:-1], e, k)


@pytest.mark.parametrize("point,extended,route", [
    ((3, 3, 2, 2, 2), False, "dual-enumeration"),
    ((2, 4, 2, 1, 1), True, "macwilliams"),
])
def test_a_wrong_coset_fails_the_macwilliams_check(monkeypatch, point, extended, route):
    # e moved off M_s by one unit coordinate: the orbit identity then gives
    # q^k words that are not a code's distribution, and the transform on
    # either route refuses it.  The extended case walks the extended dual
    # itself, which the public call would derive from the cyclic one
    F = field_make(point[0], point[1])
    T = build_T(CodeParams(*point))
    distance = oracle._dual_walk if extended else dual_min_distance
    assert distance(F, T, extended).route == route
    oracle._dual.cache_clear()  # the patched call walks again
    word = oracle._word

    def moved(field, e, extended):
        out = word(field, e, extended)
        out[-1] = field.base.add(out[-1], 1)
        return out

    monkeypatch.setattr(oracle, "_word", moved)
    with pytest.raises(ConsistencyError, match="MacWilliams sum"):
        distance(F, T, extended)


def test_dual_route_transform_must_give_the_primal_size(monkeypatch):
    # a distribution of one row fewer is a true code's, so the transform
    # divides, but it totals 3^21, not the [26, 20] primal's 3^20 words
    F = field_make(3, 3)
    T = build_T(CodeParams(3, 3, 2, 2, 2))
    _, dual = code_rows(F, T)
    short = {0: 1, **weight_distribution(F, dual[:-1])}
    monkeypatch.setattr(oracle, "_side_distribution",
                        lambda field, rows, side, extended: (short, 0))
    with pytest.raises(ConsistencyError, match="not 1 and 3\\^20"):
        dual_min_distance(F, T)


def test_primal_route_transform_must_give_the_dual_size(monkeypatch):
    # the mirror on the macwilliams route: a [15, 6] distribution transforms
    # cleanly but totals 2^9 words, not the [15, 8] dual's 2^8
    F = field_make(2, 4)
    T = build_T(CodeParams(2, 4, 2, 1, 1))
    assert dual_min_distance(F, T).route == "macwilliams"
    primal, _ = code_rows(F, T)
    short = {0: 1, **weight_distribution(F, primal[:-1])}
    monkeypatch.setattr(oracle, "_side_distribution",
                        lambda field, rows, side, extended: (short, 0))
    oracle._dual.cache_clear()  # the patched call walks again
    with pytest.raises(ConsistencyError, match="not 1 and 2\\^8"):
        dual_min_distance(F, T)


def _brute_weights(field, rows):
    """The weight of every combination of rows, one coefficient vector at a
    time, in message order (row 0's coefficient fastest): the reference for
    every kernel."""
    base = field.base
    for coefs in product(range(field.q), repeat=len(rows)):
        word = [0] * len(rows[0])
        for c, row in zip(reversed(coefs), rows):
            word = [base.add(w, base.mul(c, x)) for w, x in zip(word, row)]
        yield len(word) - word.count(0)


def _brute_distribution(field, rows):
    hist = Counter(_brute_weights(field, rows))
    hist[0] -= 1
    return {w: c for w, c in hist.items() if c}


# q = 4 and q = 8 check that every GF(q) multiple of a row is reached, not
# only the sums of copies of it, and their codes span several table blocks
@pytest.mark.parametrize("q,m,t,a,b", [
    (2, 4, 2, 1, 1), (2, 5, 3, 1, 1), (3, 2, 1, 2, 2), (3, 3, 2, 2, 1), (4, 2, 1, 3, 1),
    (4, 2, 1, 3, 2), (5, 2, 1, 4, 2), (8, 2, 1, 7, 1), (8, 2, 0, 1, 1),
])
def test_histogram_kernels_match_brute_force(q, m, t, a, b):
    F = field_make(q, m)
    for extended in (False, True):
        primal, dual = code_rows(F, build_T(CodeParams(q, m, t, a, b)), extended)
        for rows in (primal, dual):
            if q ** len(rows) > 3000:
                continue
            expect = _brute_distribution(F, rows)
            assert weight_distribution(F, rows) == expect
            # Brouwer-Zimmermann finds the same minimum
            res = minimum_weight(F, rows)
            assert (res.kind, res.value) == ("exact", min(expect)), res


@pytest.mark.parametrize("q", [2, 3])
def test_suffix_table_lists_every_sum_of_depth_rows_in_order(q):
    # the direct enumeration: every combination of depth rows times every
    # nonzero coefficient vector, summed by field arithmetic and put in the
    # walk's order, lexicographic in (row, coefficient) pairs
    F = field_make(q, 2)
    base = F.base
    rng = random.Random(q)
    rows = [[rng.randrange(q) for _ in range(10)] for _ in range(6)]
    words = _words(F, 10)
    multiples = [words.multiples(row) for row in rows]
    for depth in range(4):
        choices = sorted(
            (pair for idx in combinations(range(len(rows)), depth)
             for coefs in product(range(1, q), repeat=depth)
             for pair in [tuple(zip(idx, coefs))]),
        )
        expect = []
        for pair in choices:
            word = [0] * 10
            for i, c in pair:
                word = [base.add(w, base.mul(c, x)) for w, x in zip(word, rows[i])]
            expect.append(words.negkey(words.multiples(word)[1]))
        table, offsets = _suffix_table(words, multiples, depth)
        assert table == expect, depth
        assert len(table) == comb(len(rows), depth) * (q - 1) ** depth
        # offsets[s]: where the sums whose rows all come at or after s begin
        firsts = [pair[0][0] if pair else len(rows) for pair in choices]
        assert offsets == [sum(f < s for f in firsts) for s in range(len(rows) + 1)], depth


def test_suffix_depth_cap_changes_no_result(monkeypatch):
    # caps that allow triples, pairs, one row and no row: every depth walks
    # the same codewords in the same order, budget or none, and no table
    # passes the cap but the one-entry table of no rows
    cases = [(2, 6, 3, 1, 1, False), (2, 5, 2, 1, 1, True), (3, 3, 2, 2, 2, False),
             (5, 2, 1, 4, 4, False)]
    reached: dict[int, set[int]] = {}

    def capped(words, multiples, depth):
        table, offsets = _suffix_table(words, multiples, depth)
        assert depth == 0 or len(table) <= oracle._SUFFIX_ENTRIES, (depth, len(table))
        reached[cap_depth].add(depth)
        return table, offsets

    monkeypatch.setattr(oracle, "_suffix_table", capped)
    for q, m, t, a, b, extended in cases:
        F = field_make(q, m)
        _, dual = code_rows(F, build_T(CodeParams(q, m, t, a, b)), extended)
        k = len(dual)
        caps = {3: oracle._SUFFIX_ENTRIES, 2: comb(k, 2) * (q - 1) ** 2, 1: k * (q - 1), 0: 0}
        for budget in (None, 500):
            results = []
            for cap_depth, cap in caps.items():
                reached.setdefault(cap_depth, set())
                with monkeypatch.context() as mp:
                    if budget:
                        mp.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", budget)
                    mp.setattr(oracle, "_SUFFIX_ENTRIES", cap)
                    results.append(minimum_weight(F, dual))
            assert len(set(results)) == 1, (q, m, t, a, b, extended, budget, results)
    # each cap holds every walk to its depth, and some walk reaches it
    assert reached == {3: {0, 1, 2, 3}, 2: {0, 1, 2}, 1: {0, 1}, 0: {0}}


def test_brouwer_zimmermann_result_at_2_6_3_1_1():
    # k = 24 on the cyclic dual, 25 on the extended one, n = 63: level 4
    # proves ceil(63 * 5 / 24) = 14 and ceil(63 * 5 / 25) = 13 < 14, so the
    # extended walk needs level 5 to prove ceil(63 * 6 / 25) = 16 > 14
    F = field_make(2, 6)
    T = build_T(CodeParams(2, 6, 3, 1, 1))
    got = [dual_min_distance(F, T), oracle._dual_walk(F, T, extended=True)]
    assert [(r.kind, r.value, r.enumerated, r.route) for r in got] == [
        ("exact", 14, 12950, "brouwer-zimmermann"),
        ("exact", 14, 68405, "brouwer-zimmermann"),
    ]
    # the public extended call derives d = 14 from the cyclic walk instead
    assert dual_min_distance(F, T, extended=True) == (
        "exact", 14, 0, "affine-transitive", None)


def test_walk_matches_the_distribution():
    # every dual with q <= 5, q^m <= 64 and q^k <= 3 * 10^5, both codes:
    # GF(2) and GF(3) words, and one-hot words at q = 4 and 5
    walks = 0
    for q in (2, 3, 4, 5):
        m = 1
        while q**m <= 64:
            F = field_make(q, m)
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, a + 1):
                        T = build_T(CodeParams(q, m, t, a, b))
                        for extended in (False, True):
                            _, dual = code_rows(F, T, extended)
                            if not dual or q ** len(dual) > 3 * 10**5:
                                continue
                            res = minimum_weight(F, dual)
                            d = min(weight_distribution(F, dual))
                            point = (q, m, t, a, b, extended)
                            assert (res.kind, res.value) == ("exact", d), (point, res)
                            assert res.enumerated < q ** len(dual), point
                            walks += 1
            m += 1
    assert walks > 100


def test_walk_checks_the_shift():
    F = field_make(2, 4)
    T = build_T(CodeParams(2, 4, 2, 1, 1))
    _, dual = code_rows(F, T)
    # two columns swapped: the window is the same information set, but the
    # cyclic shift no longer maps the code onto itself
    swapped = [[r[1], r[0]] + r[2:] for r in dual]
    with pytest.raises(ConsistencyError, match="onto itself"):
        minimum_weight(F, swapped)
    with pytest.raises(ParameterError, match="no cyclic code"):
        minimum_weight(F, [r[:-1] for r in dual])
    with pytest.raises(ConsistencyError, match="dependent"):
        minimum_weight(F, dual[:-1] + [dual[0]])


def test_gf2_and_gf3_kernels_span_several_blocks():
    # more rows than the table holds, so the high-row walk takes several steps
    for q, m, t in [(2, 4, 2), (3, 3, 1)]:
        F = field_make(q, m)
        _, dual = code_rows(F, build_T(CodeParams(q, m, t, 1, 1)), extended=True)
        assert len(dual) > _table_rows(q, len(dual))
        hist = weight_distribution(F, dual)
        assert Counter({0: 1, **hist}) == Counter(_brute_weights(F, dual))


def test_weight_distribution_refuses_a_walk_past_the_cap(monkeypatch):
    F = field_make(2, 4)
    _, dual = code_rows(F, build_T(CodeParams(2, 4, 2, 1, 1)))  # 8 rows, 255 nonzero words
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", 255)
    assert sum(weight_distribution(F, dual).values()) == 255
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", 254)
    with pytest.raises(ResourceLimitError, match="255 codewords exceed the cap 254"):
        weight_distribution(F, dual)


def test_minimum_weight_budget_and_bad_rows(monkeypatch):
    F = field_make(2, 4)
    _, dual = code_rows(F, build_T(CodeParams(2, 4, 2, 1, 1)))
    full = minimum_weight(F, dual)
    assert (full.kind, full.value, full.count) == ("exact", 4, None)
    # every budget short of that walk ends it with an upper bound only
    assert full.enumerated == 8
    for budget in (1, 4, full.enumerated - 1):
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", budget)
            res = minimum_weight(F, dual)
        assert (res.kind, res.enumerated) == ("budget-exhausted", budget) and res.value >= 4
    # over GF(3) only words with leading coefficient 1 are generated: level 1
    # of this [8, 4] dual, 4 words, proves weight >= ceil(8 * 2 / 4) = 4 and
    # finds d = 4
    F3 = field_make(3, 2)
    _, dual3 = code_rows(F3, build_T(CodeParams(3, 2, 1, 2, 2)))
    res = minimum_weight(F3, dual3)
    assert (res.kind, res.value, res.enumerated) == ("exact", 4, 4)
    with pytest.raises(ParameterError):
        minimum_weight(F, [])
    with pytest.raises(ConsistencyError, match="dependent"):
        minimum_weight(F, dual + [dual[0]])


def _krawtchouk(j, i, length, q):
    return sum((-1) ** s * comb(i, s) * comb(length - i, j - s) * (q - 1) ** (j - s)
               for s in range(j + 1))


def test_macwilliams_examples():
    hamming = {0: 1, 3: 7, 4: 7, 7: 1}
    simplex = {0: 1, 4: 7}
    assert macwilliams(2, 7, hamming) == simplex
    assert macwilliams(2, 7, simplex) == hamming
    assert macwilliams(3, 4, {0: 1, 3: 8}) == {0: 1, 3: 8}  # the self-dual [4, 2, 3]


@pytest.mark.parametrize("q,m,t,a,b", [(2, 4, 2, 1, 1), (3, 2, 1, 2, 2)])
def test_macwilliams_recurrence_equals_krawtchouk_definition(q, m, t, a, b):
    F = field_make(q, m)
    primal, dual = code_rows(F, build_T(CodeParams(q, m, t, a, b)), extended=True)
    length = len(dual[0])
    A = {0: 1, **_brute_distribution(F, primal)}
    size = q ** len(primal)
    sums = [sum(c * _krawtchouk(j, i, length, q) for i, c in A.items())
            for j in range(length + 1)]
    assert all(s % size == 0 for s in sums)
    expect = {j: s // size for j, s in enumerate(sums) if s}
    assert macwilliams(q, length, A) == expect == {0: 1, **_brute_distribution(F, dual)}


@pytest.mark.parametrize("A,reason", [
    # one weight-3 word of the [7, 4] Hamming code moved to weight 4
    ({0: 1, 3: 6, 4: 8, 7: 1}, "sum at weight 1 is -2"),
    # the weight-7 word moved to weight 4: the sums are not multiples of 16
    ({0: 1, 3: 7, 4: 8}, "sum at weight 1 is 6"),
    ({0: 1, 3: 7, 4: 7}, "15 is not a power of 2"),
    # sixteen zero words: every sum divides, but the dual totals 2^7
    ({0: 16}, "dual weights sum to 128, not 2\\^3"),
])
def test_macwilliams_rejects_a_corrupted_distribution(A, reason):
    with pytest.raises(ConsistencyError, match=reason):
        macwilliams(2, 7, A)


def test_dual_min_distance_rejects_mismatched_field():
    F = field_make(2, 4)
    for extended in (False, True):
        with pytest.raises(ParameterError):
            dual_min_distance(F, DefiningSet.from_members(2, 3, [1, 2, 4]), extended)


def _refuse_probe(field, T):
    raise AssertionError("the syndrome probe ran on the distance path")


def test_extended_distance_walks_without_the_affine_verdict(monkeypatch):
    # the coset of 1 dropped from T(2,4,2,1,1): the affine group does not act
    # on the extended code, whose dual has d = 4 against the cyclic dual's 6,
    # so deriving one from the other would be wrong; the extended dual is
    # walked, and the public call equals that walk
    F = field_make(2, 4)
    broken = union_cosets([0, 3], 2, 4)
    assert not oracle._probe_verdict(F, broken)
    # the distance path reads the p-adic criterion and never runs the probe
    monkeypatch.setattr(oracle, "_probe_verdict", _refuse_probe)
    walks = []
    walk = oracle._dual_walk
    monkeypatch.setattr(oracle, "_dual_walk",
                        lambda field, D, extended: walks.append(extended) or walk(field, D, extended))
    cyclic, ext = (dual_min_distance(F, broken, extended) for extended in (False, True))
    assert walks == [False, True]
    assert ext == walk(F, broken, True) == ("exact", 4, 31, "dual-enumeration", 5)
    assert (cyclic.kind, cyclic.value) == ("exact", 6)


def test_extended_distance_of_a_trivial_cyclic_dual_is_the_all_ones_code():
    # D = {0}: the cyclic code is all of GF(2)^15 and its dual is zero, so the
    # cyclic call refuses; the extended dual is the code of the all-ones word
    F = field_make(2, 4)
    D = DefiningSet.from_members(2, 4, [0])
    with pytest.raises(ParameterError, match="trivial"):
        dual_min_distance(F, D)
    assert dual_min_distance(F, D, extended=True) == ("exact", 16, 1, "dual-enumeration", 1)


def test_derived_count_must_divide_exactly(monkeypatch):
    # the [15, 8] cyclic dual of (2,4,2,1,1) has 15 words of weight 4, and
    # 15 * 16 / 12 = 20; one word more, 16 * 16 = 256, is no multiple of 12:
    # no group transitive on 16 coordinates fits, and the call stops with
    # the ConsistencyError that the command line turns into exit status 5
    F = field_make(2, 4)
    T = build_T(CodeParams(2, 4, 2, 1, 1))
    cyclic = dual_min_distance(F, T)
    assert cyclic.count == 15
    monkeypatch.setattr(oracle, "_dual",
                        lambda field, D, extended, budget: cyclic._replace(count=16))
    with pytest.raises(ConsistencyError, match="16 cyclic dual words of weight 4"):
        dual_min_distance(F, T, extended=True)


def test_affine_invariance_probe_accepts_closed_sets():
    for q, m, t in [(2, 4, 2), (3, 3, 1)]:
        p = CodeParams(q, m, t, q - 1, 1)
        F = field_make(q, m)
        assert affine_invariance_probe(F, p)


def test_affine_invariance_probe_detects_broken_set():
    # drop the coset of 1 from T for (2,4,2,1,1): descendants go missing
    F = field_make(2, 4)
    p = CodeParams(2, 4, 2, 1, 1)
    broken = union_cosets([0, 3], 2, 4)
    assert not affine_invariance_probe(F, p, defining_set=broken)


def _dropped_cosets(q, top):
    """(field, point, D) for every set D made by dropping one nonzero coset
    from T at a point with b <= a and q^m <= top."""
    m = 1
    while q**m <= top:
        F = field_make(q, m)
        n = q**m - 1
        for t in range(m):
            for a in range(1, q):
                for b in range(1, a + 1):
                    p = CodeParams(q, m, t, a, b)
                    T = brute_T(p)
                    for lead in sorted({leader(s, q, m) for s in T if 0 < s < n}):
                        yield F, p, DefiningSet.from_members(
                            q, m, [s for s in T if s in (0, n) or leader(s, q, m) != lead])
        m += 1


def _q_adically_closed(D):
    cyclic = D.difference(DefiningSet.from_members(D.q, D.m, [D.n]))
    return descendant_closure(cyclic) == cyclic


# (rejected, accepted) dropped-coset controls at each prime q
DROPPED_COSET_SPLIT = {2: (56, 20), 3: (36, 18), 5: (88, 30), 7: (334, 63)}


@pytest.mark.parametrize("q", sorted(DROPPED_COSET_SPLIT))
def test_affine_invariance_probe_on_every_dropped_coset(q):
    # negative controls: drop one nonzero coset from T at every point with
    # q^m <= 64.  The check must reject each set whose descendant closure
    # breaks (index n, the extension's own position, aside) and accept each
    # one that stays closed, whose code is still affine-invariant: 514
    # rejected and 131 accepted over the four primes.  The p-adic criterion
    # that the distance path reads gives the same verdict on each.
    verdicts = Counter()
    for F, p, D in _dropped_cosets(q, 64):
        ok = affine_invariance_probe(F, p, defining_set=D)
        assert ok == _q_adically_closed(D) == oracle._p_adic_verdict(F, D), (
            tuple(p), sorted(D))
        verdicts[ok] += 1
    assert (verdicts[False], verdicts[True]) == DROPPED_COSET_SPLIT[q]


def _closed_under(members, p):
    """Whether members holds each member less p^i for every nonzero base-p
    digit i, and so every p-adic descendant of its members."""
    return all(s - p**i in members
               for s in members for i in range(s.bit_length()) if s // p**i % p)


def _p_adically_closed(D, p):
    """The criterion on the set the extended code has: D minus {n} plus {0}."""
    return _closed_under(set(D) - {D.n} | {0}, p)


@pytest.mark.parametrize("q,p,top,traps", [(4, 2, 64, 24), (8, 2, 64, 85), (9, 3, 81, 74)])
def test_affine_invariance_probe_follows_the_p_adic_criterion(q, p, top, traps):
    # at q = p^e with e > 1, Kasami, Lin & Peterson (1967) and Delsarte
    # (1970) close T under p-adic descendants, not q-adic ones: a dropped
    # coset that leaves the set p-adically closed but not q-adically closed
    # still gives an affine-invariant code, and must be accepted
    trapped = 0
    for F, point, D in _dropped_cosets(q, top):
        closed = _p_adically_closed(D, p)
        assert affine_invariance_probe(F, point, defining_set=D) == closed, (
            tuple(point), sorted(D))
        assert oracle._p_adic_verdict(F, D) == closed, (tuple(point), sorted(D))
        trapped += closed and not _q_adically_closed(D)
    assert trapped == traps


def _coset_unions():
    """(field, D) for every union of at most three nonzero cosets, with and
    without 0 and n, at five small fields: 676 sets."""
    for q, m in [(2, 3), (2, 4), (2, 5), (3, 2), (4, 2)]:
        F, n = field_make(q, m), q**m - 1
        leaders = sorted({leader(s, q, m) for s in range(1, n)})
        for size in range(4):
            for chosen in combinations(leaders, size):
                for ends in ((), (0,), (n,), (0, n)):
                    yield F, union_cosets(chosen + ends, q, m)


def test_p_adic_verdict_equals_the_probe_on_unions_of_cosets():
    # the extended code has D minus {n} plus {0}, and the criterion reads
    # that set in base p; reading base q at q = 4, D without 0 added, or D
    # with n kept each gives another verdict than the probe somewhere
    mutants = {
        "base q": lambda D, p: _closed_under(set(D) - {D.n} | {0}, D.q),
        "no 0 added": lambda D, p: _closed_under(set(D) - {D.n}, p),
        "n kept": lambda D, p: _closed_under(set(D) | {0}, p),
    }
    missed = Counter()
    sets = 0
    for F, D in _coset_unions():
        probe = oracle._probe_verdict(F, D)
        assert oracle._p_adic_verdict(F, D) == probe == _p_adically_closed(D, F.p), sorted(D)
        for name, mutant in mutants.items():
            missed[name] += mutant(D, F.p) != probe
        sets += 1
    assert sets == 676
    assert missed == {"base q": 16, "no 0 added": 46, "n kept": 54}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_every_extended_row_sums_to_zero(q):
    # the parity -g(1) cancels each shift's sum g(1), so the syndrome at
    # exponent 0, the sum of the coordinates, is 0 on every row
    m = 1
    while q**m <= 81:
        F = field_make(q, m)
        for t in range(m):
            for a in range(1, q):
                rows, _ = code_rows(F, build_T(CodeParams(q, m, t, a, 1)), extended=True)
                for row in rows:
                    total = 0
                    for c in row:
                        total = F.base.add(total, c)
                    assert total == 0, (q, m, t, a, row)
        m += 1


def test_affine_invariance_probe_never_asks_for_exponent_zero(monkeypatch):
    asked = Counter()
    real = oracle.syndromes

    def recording(field, word, exponents):
        exponents = list(exponents)
        asked.update(exponents)
        return real(field, word, exponents)

    monkeypatch.setattr(oracle, "syndromes", recording)
    verdicts = Counter()
    for q in (2, 3, 4):
        for F, p, D in _dropped_cosets(q, 16):
            verdicts[affine_invariance_probe(F, p, defining_set=D)] += 1
            verdicts[affine_invariance_probe(F, p)] += 1
    assert verdicts[True] and verdicts[False] and asked
    assert 0 not in asked


def test_affine_invariance_probe_rejects_mismatched_field():
    F = field_make(2, 4)
    with pytest.raises(ParameterError, match="disagree"):
        oracle._p_adic_verdict(F, DefiningSet.from_members(2, 3, [0, 1, 2, 4]))
    with pytest.raises(ParameterError, match="disagree"):
        affine_invariance_probe(F, CodeParams(2, 3, 1, 1, 1))
    with pytest.raises(ParameterError, match="disagree"):
        affine_invariance_probe(F, CodeParams(2, 4, 1, 1, 1),
                                defining_set=DefiningSet.from_members(2, 3, [0, 1, 2, 4]))
    with pytest.raises(ParameterError, match="disagree"):
        brute_dimension(F, DefiningSet.from_members(2, 3, [1, 2, 4]))


def test_probe_given_brute_T_answers_as_the_default():
    for q, m, t in [(2, 4, 2), (3, 3, 1)]:
        p = CodeParams(q, m, t, q - 1, 1)
        F = field_make(q, m)
        assert (affine_invariance_probe(F, p, defining_set=brute_T(p))
                == affine_invariance_probe(F, p))


def test_verify_point_builds_one_generator_and_one_definitional_T(monkeypatch):
    # the dimension check and the probe share one g(x), and the probe is
    # handed the T that verify built from the definition
    counts = Counter()

    def counting(name):
        original = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("generator_polynomial", "brute_T"):
        monkeypatch.setattr(oracle, name, counting(name))
    oracle._generator.cache_clear()
    for point in [(2, 4, 1, 1, 1), (3, 3, 1, 2, 1), (4, 2, 0, 3, 2)]:
        params = CodeParams(*point)
        assert params.normalized() == params
        counts.clear()
        checks, _ = cli._verify_code(params)
        assert checks["affine invariance probe"] == "", point
        assert counts == {"generator_polynomial": 1, "brute_T": 1}, point
    # brute_dimension then code_rows on one (field, D): one product of
    # minimal polynomials between them
    oracle._generator.cache_clear()
    counts.clear()
    F, T = field_make(2, 5), build_T(CodeParams(2, 5, 2, 1, 1))
    k = brute_dimension(F, T)
    primal, _ = code_rows(F, T, extended=True)
    assert len(primal) == k and counts["generator_polynomial"] == 1


def test_verify_computes_each_probe_verdict_and_generator_once(monkeypatch, capsys):
    # at t = m - 1 every a gives the same T, and verify runs a code's checks
    # once per normalized point, so its 370 probe rows come from 76 exact
    # checks about 76 distinct (field, T) pairs, and each g(x) is computed
    # once (184 generators without the _generator memo)
    built = []
    original = oracle.generator_polynomial

    def counting(field, exponents):
        built.append((field.q, field.m))
        return original(field, exponents)

    monkeypatch.setattr(oracle, "generator_polynomial", counting)
    asked = []
    probe = oracle._probe_verdict

    def recording(field, T):
        asked.append((field, T))
        return probe(field, T)

    monkeypatch.setattr(oracle, "_probe_verdict", recording)
    oracle._generator.cache_clear()
    assert cli.main(["verify", "--max-n", "16", "--no-timestamp"]) == 0
    capsys.readouterr()
    assert len(asked) == 76
    assert len(built) == 76
    assert len(set(asked)) == 76
    # a set that is not descendant-closed is rejected
    assert not probe(field_make(2, 4), union_cosets([0, 3], 2, 4))


def test_verify_computes_each_minimal_polynomial_once(monkeypatch, capsys):
    # verify --max-n 16 asks for 77 distinct (field, s); without the memo
    # the generators computed a minimal polynomial 341 times
    memo = galois.minimal_polynomial
    asked = []

    def recording(field, s):
        asked.append((field, s))
        return memo(field, s)

    monkeypatch.setattr(galois, "minimal_polynomial", recording)
    oracle._generator.cache_clear()
    memo.cache_clear()
    assert cli.main(["verify", "--max-n", "16", "--no-timestamp"]) == 0
    capsys.readouterr()
    assert memo.cache_info().misses == 77 == len(set(asked))
    for field, s in set(asked):
        assert memo(field, s) == memo.__wrapped__(field, s), (field.q, field.m, s)


def test_verify_point_builds_one_dual_set(monkeypatch, capsys):
    # the reflection check and the prefix scan read one dual set: one per
    # code, built at its normalized point, for the 385 points with b <= a,
    # and one at each of the 8 points with b > a (m = 2 and q = 3 or 4);
    # 393 calls when every point built its own
    calls = []
    original = cli.defsets.dual_set_pattern
    monkeypatch.setattr(cli.defsets, "dual_set_pattern",
                        lambda params: calls.append(params) or original(params))
    assert cli.main(["verify", "--max-n", "16", "--no-timestamp"]) == 0
    capsys.readouterr()
    assert len(calls) == 99 == len(set(calls))
    codes = [p for p in calls if p.b <= p.a]
    assert len(codes) == 91 and all(p.normalized() == p for p in codes)
    assert sorted((p.q, p.m) for p in calls if p.b > p.a) == [(3, 2)] * 2 + [(4, 2)] * 6


def test_code_level_routes_agree_at_a_point_and_its_normalized_twin(monkeypatch, capsys):
    # verify runs a code's checks at the first point of params.normalized()
    # and reuses their outcomes at the later ones.  That is sound because
    # each route they read gives one result at a point and at its twin:
    # over the counting-regime points of verify --max-n 16 and the
    # t = m - 1 rows up to q^m <= 100
    def grid(top, rows):
        return [CodeParams(q, m, t, a, b) for q in galois.SUPPORTED_Q
                for m in range(1, 8) if q**m <= top for t in rows(m)
                for a in range(1, q) for b in range(1, a + 1)]

    small = grid(16, range)
    points = set(small + grid(100, lambda m: [m - 1]))
    assert len(small) == 385 and len({p.normalized() for p in small}) == 91

    def routes(p):
        T = build_T(p)
        bch = bch_set(p.q, p.m, p.designed_distance)
        return (T, brute_T(p), closed_size_T(p), class_sizes(p), brute_class_census(p),
                dual_set_pattern(p), dimension(p).dim,
                T.difference(DefiningSet.from_members(p.q, p.m, [0])) == bch)

    twins = [p for p in points if p.normalized() != p]
    assert len(twins) == 970
    for p in twins:
        assert routes(p) == routes(p.normalized()), p
    # and one verify run asks for each of the 91 codes' sets once
    calls = Counter()
    for name in ("brute_T", "brute_class_census"):
        original = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda p, name=name, original=original:
                            calls.update([name]) or original(p))
    assert cli.main(["verify", "--max-n", "16", "--no-timestamp"]) == 0
    capsys.readouterr()
    assert calls == {"brute_T": 91, "brute_class_census": 91}


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_extend_rows_equals_field_arithmetic(q):
    # each shift of g behind minus its own sum, taken row by row
    F = field_make(q, 2)
    base = F.base
    rng = random.Random(q)
    for length in [1, 2, F.n // 2, F.n] * 3:
        g = [rng.randrange(q) for _ in range(length - 1)] + [rng.randrange(1, q)]
        expect = []
        for i in range(F.n - length + 1):
            row = [0] * i + g + [0] * (F.n - length - i)
            total = 0
            for c in row:
                total = base.add(total, c)
            expect.append([base.neg(total)] + row)
        assert oracle._rows(F, g, True) == expect, g


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_extended_dual_is_the_extended_code_of_the_dual_set(q):
    # the extended dual's generator h*(x) / (x - 1), made monic, is g(x) of
    # the dual defining set; and its rows span the code of the all-ones
    # word over the shifts of h* behind a zero, the same systematic matrix
    m = 1
    while q**m <= 64:
        F = field_make(q, m)
        base = F.base
        for t in range(m):
            for a in range(1, q):
                for b in range(1, a + 1):
                    T = build_T(CodeParams(q, m, t, a, b))
                    poly, nonzeros = oracle._sides(F, T, True)[1]
                    lead = base.inv(poly[-1])
                    monic = tuple(base.mul(lead, c) for c in poly)
                    assert monic == oracle._generator(F, dual_set(T)).coeffs, (q, m, t, a, b)
                    assert nonzeros[0] == 0
                    xn1 = (base.neg(1),) + (0,) * (F.n - 1) + (1,)
                    h, rem = poly_divmod(base, xn1, oracle._generator(F, T).coeffs)
                    hstar, n, d = list(h[::-1]), F.n, len(h)
                    assert not rem
                    ones = [[1] * (n + 1)] + [[0] * (1 + i) + hstar + [0] * (n - d - i)
                                              for i in range(n - d + 1)]
                    rows = oracle._rows(F, poly, True)
                    assert (oracle._systematic(F, rows, 1)
                            == oracle._systematic(F, ones, 1)), (q, m, t, a, b)
        m += 1


def test_brute_max_prefix_examples():
    assert brute_max_prefix(dual_set_pattern(CodeParams(3, 4, 1, 2, 1))) == 7
    assert brute_max_prefix(dual_set_pattern(CodeParams(3, 3, 0, 1, 1))) == 13
    assert brute_max_prefix(dual_set_pattern(CodeParams(2, 4, 1, 1, 1))) == 1
    assert brute_max_prefix(DefiningSet.full(2, 3)) is None
    assert brute_max_prefix(DefiningSet.empty(2, 3)) == 0


def test_dual_distance_agrees_with_reflection_route():
    # the dual defining set computed two ways feeds the same code
    p = CodeParams(2, 4, 2, 1, 1)
    T = build_T(p)
    assert dual_set_pattern(p) == dual_set(T)


def _imported_modules(module: str) -> set[str]:
    """Every module name the source of cyclocode.<module> imports at run
    time; imports under ``if TYPE_CHECKING:`` serve annotations only."""
    tree = ast.parse((Path(cyclocode.__file__).parent / f"{module}.py").read_text())
    typing_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and getattr(block.test, "id", None) == "TYPE_CHECKING"
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    names = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return names


def _imports(module: str, target: str) -> bool:
    return any(target in name.split(".") for name in _imported_modules(module))


@pytest.mark.parametrize("module", ["oracle", "qadic"])
def test_oracles_do_not_import_the_mask_kernel(module):
    assert _imports("bounds", "defsets")  # the check sees the kernel where it is
    assert not _imports(module, "defsets")


@pytest.mark.parametrize("module", ["oracle", "qadic"])
def test_oracles_do_not_import_the_closed_forms(module):
    assert _imports("bounds", "counting")
    assert not _imports(module, "counting")

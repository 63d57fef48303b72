import ast
import random
from collections import Counter
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

import cyclocode

from cyclocode import cli, oracle
from cyclocode.cosets import DefiningSet, leader, union_cosets
from cyclocode.counting import CodeParams, class_sizes, closed_size_T
from cyclocode.defsets import build_T, descendant_closure, dual_set, dual_set_pattern
from cyclocode.errors import ConsistencyError, ParameterError, ResourceLimitError
from cyclocode.galois import field_make
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
    # single nonzero codeword by the MacWilliams identities
    res = dual_min_distance(F, build_T(CodeParams(2, 4, 1, 1, 1)))
    assert (res.kind, res.value, res.route) == ("exact", 2, "macwilliams")
    assert res.enumerated == 2**1 - 1
    assert res.count == 15 * 14 // 2  # every weight-2 word is even
    # the [15, 7] double-error-correcting code: dual distance 4
    T = build_T(CodeParams(2, 4, 2, 1, 1))
    res = dual_min_distance(F, T)
    assert (res.kind, res.value) == ("exact", 4)
    ext = dual_min_distance(F, T, extended=True)
    assert (ext.kind, ext.value) == ("exact", 4)
    # (2,4,3,1,1): dual dimension 4 against primal 11, so the dual is walked
    res = dual_min_distance(F, build_T(CodeParams(2, 4, 3, 1, 1)))
    assert (res.kind, res.value, res.route) == ("exact", 8, "dual-enumeration")
    assert res.enumerated == 2**4 - 1 and res.count == 15  # the simplex code


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
    got = [dual_min_distance(F, T, extended) for extended in (False, True)]
    assert [(r.kind, r.value, r.route, r.count, r.enumerated) for r in got] == [
        ("exact", 4, "brouwer-zimmermann", None, 8),
        ("exact", 4, "brouwer-zimmermann", None, 9),
    ]
    # a budget that ends inside that walk leaves only an upper bound
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_BUDGET", 7)
    res = dual_min_distance(F, T)
    assert (res.kind, res.route, res.enumerated) == ("budget-exhausted", "brouwer-zimmermann", 7)
    assert res.value >= 4
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


def test_dual_min_distance_nonbinary():
    F = field_make(3, 3)
    T = build_T(CodeParams(3, 3, 2, 2, 2))  # |T*| = 6
    res = dual_min_distance(F, T)
    assert res.kind == "exact" and res.enumerated == 3**6 - 1
    ext = dual_min_distance(F, T, extended=True)
    assert ext.kind == "exact" and ext.value == res.value


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
    got = [dual_min_distance(F, T, extended) for extended in (False, True)]
    assert [(r.kind, r.value, r.enumerated, r.route) for r in got] == [
        ("exact", 14, 12950, "brouwer-zimmermann"),
        ("exact", 14, 68405, "brouwer-zimmermann"),
    ]


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
    with pytest.raises(ParameterError):
        dual_min_distance(F, DefiningSet.from_members(2, 3, [1, 2, 4]))


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
    # rejected and 131 accepted over the four primes.
    verdicts = Counter()
    for F, p, D in _dropped_cosets(q, 64):
        ok = affine_invariance_probe(F, p, defining_set=D)
        assert ok == _q_adically_closed(D), (p.astuple(), sorted(D))
        verdicts[ok] += 1
    assert (verdicts[False], verdicts[True]) == DROPPED_COSET_SPLIT[q]


def _p_adically_closed(D, p):
    """Whether D minus {n} holds each member less p^i for every nonzero
    base-p digit i, and so every p-adic descendant of its members."""
    members = set(D) - {D.n}
    return all(s - p**i in members
               for s in members for i in range(s.bit_length()) if s // p**i % p)


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
            point.astuple(), sorted(D))
        trapped += closed and not _q_adically_closed(D)
    assert trapped == traps


def test_affine_invariance_probe_rejects_mismatched_field():
    F = field_make(2, 4)
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
        counts.clear()
        checks = dict(cli._verify_point(CodeParams(*point)))
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
        assert oracle._extend_rows(F, g, F.n) == expect, g


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

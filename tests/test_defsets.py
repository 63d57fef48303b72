import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cyclocode import defsets
from cyclocode.bounds import max_zero_prefix
from cyclocode.cosets import DEFAULT_INDEX_CAP, DefiningSet, union_cosets
from cyclocode.counting import CodeParams, closed_size_T
from cyclocode.defsets import (
    DimensionReport,
    bch_set,
    build_T,
    descendant_closure,
    dimension,
    dual_set,
    dual_set_pattern,
)
from cyclocode.errors import (
    ConsistencyError,
    ParameterError,
    ResourceLimitError,
    ZeroCodeError,
)
from cyclocode.oracle import brute_T, brute_max_prefix
from cyclocode.qadic import matches_dual_exclusion

T_LISTING_3_4_1_2_1 = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
    21, 24, 27, 28, 29, 30, 31, 32, 33, 36, 37, 39, 42, 45, 46, 48, 51, 54,
    55, 56, 57, 58, 59, 63, 64, 72, 73,
]


def test_build_T_examples():
    assert build_T(CodeParams(3, 4, 1, 2, 1)).members() == T_LISTING_3_4_1_2_1
    assert build_T(CodeParams(2, 4, 1, 1, 1)).members() == list(range(15))
    assert build_T(CodeParams(2, 1, 0, 1, 1)).members() == [0, 1]


def test_build_T_respects_cap():
    # q^m = 2^29 is over the 2^28 index cap; the check comes before any
    # 64-MiB digit mask is built.
    assert DEFAULT_INDEX_CAP == 1 << 28
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=str(DEFAULT_INDEX_CAP)):
            build_T(CodeParams(2, 29, 1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_descendant_closure_examples():
    for params in [CodeParams(3, 4, 1, 2, 1), CodeParams(2, 5, 2, 1, 1)]:
        T = build_T(params)
        assert descendant_closure(T) == T
    zero_only = DefiningSet.from_members(3, 3, [0])
    assert descendant_closure(zero_only) == zero_only
    top_only = DefiningSet.from_members(3, 3, [26])
    assert descendant_closure(top_only) == DefiningSet.full(3, 3)


CLOSURE_SHAPES = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9, 16, 27)
                  for m in range(1, 13) if q**m <= 4096]


@pytest.mark.parametrize("q,m", CLOSURE_SHAPES, ids=[f"{q}-{m}" for q, m in CLOSURE_SHAPES])
def test_descendant_closure_matches_naive(q, m):
    # every value whose digits all lie at or under some member's
    digits = [tuple(s // q**i % q for i in range(m)) for s in range(q**m)]
    rng = random.Random(q * 100 + m)
    samples = [[], [q**m - 1]] + [rng.sample(range(q**m), min(q**m, rng.randrange(1, 6)))
                                  for _ in range(3)]
    if (q, m) == (3, 3):
        samples.append([5, 21])
    for members in samples:
        D = DefiningSet.from_members(q, m, members)
        naive = [s for s, ds in enumerate(digits)
                 if any(all(x <= y for x, y in zip(ds, digits[d])) for d in members)]
        assert descendant_closure(D).members() == naive, members


def test_dual_set_examples():
    D = build_T(CodeParams(2, 4, 1, 1, 1))  # [0, 14]
    assert dual_set(D).members() == [0]
    assert dual_set(dual_set(D)) == D
    assert dual_set(DefiningSet.empty(2, 4)) == DefiningSet.full(2, 4)


def test_dual_set_pattern_examples():
    p = CodeParams(3, 4, 1, 2, 1)
    dp = dual_set_pattern(p)
    assert dp == dual_set(build_T(p))
    assert all(s in dp for s in range(7))
    assert 7 not in dp
    assert dual_set_pattern(CodeParams(2, 4, 1, 1, 1)).members() == [0]


def test_dual_set_pattern_matches_reflection_on_small_grid():
    for q, mmax in [(2, 6), (3, 4), (4, 3), (5, 2)]:
        for m in range(1, mmax + 1):
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, a + 1):
                        p = CodeParams(q, m, t, a, b)
                        assert dual_set_pattern(p) == dual_set(build_T(p)), p


def test_bch_set_examples():
    assert bch_set(2, 4, 8).members() == list(range(1, 15))
    assert bch_set(2, 4, 2).members() == [1, 2, 4, 8]
    # delta = 2 always gives the coset of 1
    for q, m in [(2, 4), (3, 3), (5, 2)]:
        from cyclocode.cosets import coset_of

        assert bch_set(q, m, 2).members() == list(coset_of(1, q, m).elements)
    with pytest.raises(ParameterError):
        bch_set(2, 4, 16)
    with pytest.raises(ParameterError):
        bch_set(2, 4, 1)


def test_bch_dimension_closed_form():
    # Aly, Klappenecker and Sarvepalli (IEEE TIT 2007): for
    # 2 <= delta <= q^ceil(m/2) + 1 the narrow-sense primitive BCH code has
    # dimension n - m ceil((delta - 1)(1 - 1/q))
    points = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = 1
        while q**m <= 2 * 10**4:
            n = q**m - 1
            for delta in range(2, min(q ** -(-m // 2) + 1, n) + 1):
                expected = n - m * -(-(delta - 1) * (q - 1) // q)
                assert n - len(bch_set(q, m, delta)) == expected, (q, m, delta)
                points += 1
            m += 1
    assert points == 2490


def test_bch_identity_when_a_is_top():
    # with a = q-1: T minus {0} is exactly the BCH defining set
    for q, mmax in [(2, 6), (3, 4), (5, 3)]:
        for m in range(1, mmax + 1):
            for t in range(m):
                for b in range(1, q):
                    p = CodeParams(q, m, t, q - 1, b)
                    if p.is_degenerate:
                        continue
                    T = build_T(p)
                    zero = DefiningSet.from_members(q, m, [0])
                    assert T.difference(zero) == bch_set(q, m, p.designed_distance), p


def test_dimension_examples():
    rep = dimension(CodeParams(3, 4, 1, 2, 1))
    assert (rep.size_T, rep.dim, rep.is_bch, rep.delta) == (47, 34, True, 18)
    rep = dimension(CodeParams(2, 4, 2, 1, 1))
    assert (rep.dim, rep.delta) == (7, 4)
    rep = dimension(CodeParams(2, 4, 1, 1, 1))
    assert (rep.dim, rep.delta) == (1, 8)
    # a < q-1 is not a BCH point
    rep = dimension(CodeParams(3, 3, 1, 1, 1))
    assert not rep.is_bch and rep.delta is None


def test_dimension_rejects_zero_code():
    for point in [(3, 3, 0, 2, 2), (2, 1, 0, 1, 1)]:
        with pytest.raises(ZeroCodeError) as info:
            dimension(CodeParams(*point))
        assert str(info.value) == ("a = b = q-1 with t = 0 makes T the whole index range"
                                   " (zero code)")


def test_dimension_report_checks_dim_against_size_T():
    p = CodeParams(3, 4, 1, 2, 1)
    assert DimensionReport(p, 47, 34, True, 18) == dimension(p)
    with pytest.raises(ConsistencyError, match=r"^dimension must equal q\^m - \|T\|$"):
        DimensionReport(params=p, size_T=47, dim=35, is_bch=True, delta=18)


def test_dimension_rejects_n_in_T(monkeypatch):
    points = []

    def whole_range(params):
        points.append(params)
        return params.index_size

    monkeypatch.setattr(defsets, "closed_size_T", whole_range)
    with pytest.raises(ConsistencyError, match="n = 80 unexpectedly belongs to T"):
        dimension(CodeParams(3, 4, 1, 2, 1))
    assert points == [(3, 4, 1, 2, 1)]


def test_dimension_rejects_n_in_T_at_the_normalized_point(monkeypatch):
    # at t = m - 1 with a != b the message names the normalized point, and
    # |T| is still read at the raw one
    points = []
    monkeypatch.setattr(defsets, "closed_size_T",
                        lambda params: points.append(params) or params.index_size)
    with pytest.raises(ConsistencyError) as info:
        dimension(CodeParams(3, 3, 2, 2, 1))
    assert str(info.value) == "n = 26 unexpectedly belongs to T at (3, 3, 2, 1, 1)"
    assert points == [(3, 3, 2, 2, 1)]


def _query_points():
    """The benchmark's queries points: every 4th point of its grid (m from
    2 to a limit per q, every t and b <= a, the zero-code point left out),
    then the worked example if it is not among them."""
    limits = {2: 56, 3: 32, 4: 20, 5: 20, 7: 8, 8: 8, 9: 8, 16: 8, 27: 8}
    grid = [(q, m, t, a, b) for q, m_max in limits.items() for m in range(2, m_max + 1)
            for t in range(m) for a in range(1, q) for b in range(1, a + 1)
            if not (a == b == q - 1 and t == 0)]
    points = grid[::4]
    return points + [p for p in [(3, 4, 1, 2, 1), (2, 4, 2, 1, 1)] if p not in points]


def test_dimension_report_is_read_from_the_normalized_point():
    # at every queries point the report is the one built from the
    # normalized point's properties, a t = m - 1 point with a != b too
    points = [CodeParams(*p) for p in _query_points()]
    assert len(points) == 6456
    normalized = 0
    for params in points:
        p = params.normalized()
        normalized += p != params
        size = closed_size_T(params)
        expect = (p, size, p.index_size - size, p.is_bch,
                  p.designed_distance if p.is_bch else None)
        report = dimension(params)
        assert report == expect and type(report.params) is CodeParams, params
    assert normalized > 0


def test_dimension_rejects_b_above_a_at_any_t():
    for point in [(3, 3, 2, 1, 2), (3, 3, 1, 1, 2)]:
        with pytest.raises(ParameterError) as info:
            dimension(CodeParams(*point))
        assert str(info.value) == "counting and dimension formulas need b <= a, got a=1, b=2"


def test_n_is_in_T_exactly_when_T_is_the_whole_range():
    # T is descendant-closed and n's word tops the digitwise order, so the
    # check dimension reads from |T| agrees with the definition everywhere
    points = [CodeParams(q, m, t, a, b) for q in (2, 3, 4, 5, 7, 8, 9)
              for m in range(1, 11) if q**m <= 1000
              for t in range(m) for a in range(1, q) for b in range(1, a + 1)]
    assert len(points) == 778
    for p in points:
        assert (p.n in brute_T(p)) == p.is_degenerate == (closed_size_T(p) == p.q**p.m), p
    assert sum(p.is_degenerate for p in points) == 32  # one per (q, m)


def test_dimension_matches_materialized_sets():
    for q, mmax in [(2, 7), (3, 4), (4, 3)]:
        for m in range(1, mmax + 1):
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, a + 1):
                        p = CodeParams(q, m, t, a, b)
                        if p.is_degenerate:
                            continue
                        assert dimension(p).dim == p.index_size - len(build_T(p)), p


def test_union_cosets_subsumes_T():
    # T is rotation-closed, so re-seeding from its members is a no-op
    p = CodeParams(3, 4, 1, 2, 1)
    T = build_T(p)
    assert union_cosets(T.members(), 3, 4) == T
    assert closed_size_T(p) == len(T)


# (q, m) with q^m <= 1024, so the per-value oracles stay fast.
SMALL_QM = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9) for m in range(1, 11) if q**m <= 1024]


@st.composite
def code_params(draw, b_le_a: bool) -> CodeParams:
    q, m = draw(st.sampled_from(SMALL_QM))
    t = draw(st.integers(0, m - 1))
    a = draw(st.integers(1, q - 1))
    b = draw(st.integers(1, a if b_le_a else q - 1))
    return CodeParams(q, m, t, a, b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(code_params(b_le_a=True))
def test_build_T_equals_definition(p):
    assert build_T(p) == brute_T(p)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(code_params(b_le_a=False))
def test_dual_set_pattern_equals_per_value_exclusion(p):
    q, m, t, a, b = p
    expected = [
        s for s in range(q**m)
        if not matches_dual_exclusion(s, q, m, a, b, t)
    ]
    assert dual_set_pattern(p).members() == expected


def test_build_T_at_2_20_is_all_but_the_top():
    p = CodeParams(2, 20, 1, 1, 1)
    T = build_T(p)
    assert list(T) == list(range(2**20 - 1))
    assert len(T) == closed_size_T(p)
    assert T.is_rotation_closed()
    assert brute_max_prefix(dual_set_pattern(p)) == max_zero_prefix(p)


@pytest.mark.parametrize(
    "params,size_T",
    [(CodeParams(5, 10, 8, 4, 1), 81), (CodeParams(3, 13, 4, 2, 1), 112_633)],
)
def test_dual_pattern_matches_reflection_at_scale(params, size_T):
    T = build_T(params)
    dual = dual_set_pattern(params)
    assert len(T) == closed_size_T(params) == size_T
    assert dual == dual_set(T)
    assert len(dual) == params.index_size - closed_size_T(params)

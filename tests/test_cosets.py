import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclocode.cosets import (
    DEFAULT_INDEX_CAP,
    DefiningSet,
    coset_of,
    leader,
    union_cosets,
)
from cyclocode.errors import ParameterError, ResourceLimitError


def test_coset_examples():
    c = coset_of(0, 3, 4)
    assert c.elements == (0,) and c.size == 1
    c = coset_of(5, 2, 4)
    assert c.elements == (5, 10) and c.leader == 5
    c = coset_of(29, 3, 4)
    assert c.elements == (7, 21, 29, 63)
    assert c.leader == 7 and c.size == 4


def test_leader_examples():
    assert leader(0, 3, 4) == 0
    assert leader(63, 3, 4) == 7
    assert leader(10, 2, 4) == 5


def test_top_value_is_a_fixed_point():
    assert coset_of(80, 3, 4).elements == (80,)
    assert coset_of(15, 2, 4).elements == (15,)


@pytest.mark.parametrize("q,m", [(2, 6), (3, 4), (5, 3)])
def test_coset_is_the_orbit_of_multiplication_by_q(q, m):
    # coset_of rotates digits; on [1, n-1] that is multiplication by q mod n
    n = q**m - 1
    for s in range(1, n):
        orbit = sorted({s * q**j % n for j in range(m)})
        assert coset_of(s, q, m).elements == tuple(orbit)


@pytest.mark.parametrize("q,m", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_coset_size_divides_m(q, m):
    for s in range(q**m):
        assert m % coset_of(s, q, m).size == 0


def test_union_cosets_examples():
    assert union_cosets([], 2, 4).cardinality == 0
    D = union_cosets(range(1, 8), 2, 4)
    assert D.members() == list(range(1, 15))
    assert D.cardinality == 14
    D = union_cosets(range(8), 3, 4)
    assert set(coset_of(7, 3, 4).elements) <= set(D)


def test_union_cosets_idempotent_and_order_free():
    a = union_cosets([3, 1, 5], 2, 4)
    b = union_cosets([5, 1, 3], 2, 4)
    assert a == b
    # adding members of already-included cosets changes nothing
    c = union_cosets([3, 1, 5, 6, 10, 2], 2, 4)
    assert c == a


def test_union_cosets_range_error():
    with pytest.raises(ParameterError):
        union_cosets([16], 2, 4)


def test_materialization_cap():
    # q^m = 2^29 is over the 2^28 index cap, checked before the 64-MiB mask
    # of DefiningSet.full would be built
    tracemalloc.start()
    try:
        for make in (DefiningSet.empty, DefiningSet.full):
            with pytest.raises(ResourceLimitError, match=str(DEFAULT_INDEX_CAP)):
                make(2, 29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ResourceLimitError):
        union_cosets([1], 2, 40)


def test_defining_set_ops():
    D = DefiningSet.from_members(2, 3, [0, 1, 2, 4])
    assert len(D) == 4
    assert 4 in D and 3 not in D
    assert D.members() == [0, 1, 2, 4]
    assert D.complement().members() == [3, 5, 6, 7]
    # reflection maps s -> 7 - s
    assert D.reflect().members() == [3, 5, 6, 7]
    assert D.reflect().reflect() == D
    assert D.union(D.complement()) == DefiningSet.full(2, 3)
    assert D.difference(DefiningSet.from_members(2, 3, [0])).members() == [1, 2, 4]


@pytest.mark.parametrize("q,m", [(2, 5), (3, 3), (5, 2)])
def test_reflect_matches_naive(q, m):
    import random

    rng = random.Random(7)
    n = q**m - 1
    for _ in range(20):
        members = [s for s in range(q**m) if rng.random() < 0.4]
        D = DefiningSet.from_members(q, m, members)
        assert sorted(n - s for s in members) == D.reflect().members()


def test_rotation_closure_flag():
    assert union_cosets([1, 3], 2, 4).is_rotation_closed()
    assert not DefiningSet.from_members(2, 4, [1, 3]).is_rotation_closed()
    # 0 and n never break closure
    assert DefiningSet.from_members(2, 4, [0, 15]).is_rotation_closed()


# Index-range sizes q^m: 25, 27 and 49 are not multiples of 8.
ITER_QM = [(2, 3), (2, 6), (5, 2), (3, 3), (7, 2), (2, 10), (3, 5)]


@st.composite
def member_sets(draw):
    q, m = draw(st.sampled_from(ITER_QM))
    top = q**m - 1
    members = draw(
        st.one_of(
            st.just(set()),
            st.just(set(range(top + 1))),
            st.just({top}),
            st.sets(st.integers(0, top)),
            st.sets(st.integers(0, top)).map(lambda s: s | {top}),
        )
    )
    return q, m, members


@settings(max_examples=200, deadline=None, derandomize=True)
@given(member_sets())
@example((5, 2, set()))
@example((5, 2, set(range(25))))
@example((3, 3, {26}))
@example((2, 3, {0, 7}))
def test_iteration_is_sorted_members(case):
    q, m, members = case
    assert list(DefiningSet.from_members(q, m, members)) == sorted(members)

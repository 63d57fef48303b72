import pytest

from cyclocode.errors import ParameterError
from cyclocode.qadic import matches_dual_exclusion, profile_counts


def digits_of(s, q, m):
    """The length-m digit word of s in radix q, lowest power first."""
    return [s // q**i % q for i in range(m)]


def test_pattern_profile_examples():
    # (m, a, b, t) = (4, 2, 1, 1)
    assert profile_counts([1, 0, 1, 0], 4, 2, 1, 1) == (2, 0)
    assert profile_counts([2, 0, 0, 1], 4, 2, 1, 1) == (0, 1)
    assert profile_counts([0, 0, 0, 0], 4, 2, 1, 1) == (0, 0)
    assert profile_counts([2, 2, 2, 2], 4, 1, 1, 1) == (0, 0)


def test_pattern_profile_occupancy_invariant():
    # occurrences occupy disjoint cyclic spans, so k(t+1) + ell(t+2) <= m
    q, m = 3, 5
    for t in range(m):
        for s in range(q**m):
            k, ell = profile_counts(digits_of(s, q, m), m, 2, 1, t)
            assert k * (t + 1) + ell * (t + 2) <= m


def naive_profile(digits, m, a, b, t):
    """(k, ell) straight from the definition, one head at a time."""

    def zeros_after(i, count):
        return all(digits[(i + j) % m] == 0 for j in range(1, count + 1))

    k = sum(1 for i, h in enumerate(digits) if 1 <= h <= b and zeros_after(i, t))
    ell = sum(1 for i, h in enumerate(digits) if b < h <= a and zeros_after(i, t + 1))
    return k, ell


@pytest.mark.parametrize("q, m_max", [(2, 6), (3, 4), (4, 3), (5, 2)])
def test_pattern_profile_matches_the_definition(q, m_max):
    for m in range(1, m_max + 1):
        words = [digits_of(s, q, m) for s in range(q**m)]
        # the zero-free words take the no-zero-run shortcut, the zero word
        # the all-zero one
        assert [q - 1] * m in words and [0] * m in words
        for digits in words:
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, a + 1):
                        assert profile_counts(digits, m, a, b, t) == naive_profile(
                            digits, m, a, b, t
                        ), (digits, a, b, t)


def test_matches_dual_exclusion_rejects_bad_input():
    with pytest.raises(ParameterError):
        matches_dual_exclusion(0, 3, 4, 3, 1, 1)  # a > q-1
    with pytest.raises(ParameterError):
        matches_dual_exclusion(0, 3, 4, 2, 0, 1)  # b < 1
    with pytest.raises(ParameterError):
        matches_dual_exclusion(0, 3, 4, 2, 1, 4)  # t > m-1
    with pytest.raises(ParameterError):
        matches_dual_exclusion(0, 1, 4, 1, 1, 1)  # radix 1
    for s in (-1, 81):  # outside [0, q^m - 1]
        with pytest.raises(ParameterError):
            matches_dual_exclusion(s, 3, 4, 2, 1, 1)
    assert matches_dual_exclusion(80, 3, 4, 2, 1, 1)


T_LISTING_3_4_1_2_1 = frozenset(
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
     21, 24, 27, 28, 29, 30, 31, 32, 33, 36, 37, 39, 42, 45, 46, 48, 51, 54,
     55, 56, 57, 58, 59, 63, 64, 72, 73]
)


def test_matches_dual_exclusion_against_reflection():
    # oracle: s is excluded from the dual set iff n - s lies in T, with T
    # taken from the explicit 47-element listing for (q,m,t,a,b)=(3,4,1,2,1)
    q, m, a, b, t = 3, 4, 2, 1, 1
    n = 80
    for s in range(81):
        expected = (n - s) in T_LISTING_3_4_1_2_1
        assert matches_dual_exclusion(s, q, m, a, b, t) == expected
    # spot values pinned by the same oracle
    assert matches_dual_exclusion(73, q, m, a, b, t) is True
    assert matches_dual_exclusion(74, q, m, a, b, t) is True  # 80-74=6 is in T
    assert matches_dual_exclusion(80, q, m, a, b, t) is True


def test_matches_dual_exclusion_all_top_word():
    for q, m, t in [(2, 4, 1), (3, 3, 2), (5, 2, 1)]:
        assert matches_dual_exclusion(q**m - 1, q, m, q - 1, q - 1, t)
        assert matches_dual_exclusion(q**m - 1, q, m, 1, 1, t)


def test_matches_dual_exclusion_independent_a_b():
    # b may exceed a here; checked against the complement characterization:
    # a word is excluded iff its digit complement is zero or has a head x in
    # [1, b] followed by t zeros, or a head y in [b+1, a] followed by t+1
    # zeros, with every digit outside the occurrence at most a
    q, m, t = 4, 3, 1

    def head_at(comp, i, lo, hi, zeros, a):
        h = comp[i]
        if not lo <= h <= hi:
            return False
        if any(comp[(i + 1 + j) % m] for j in range(zeros)):
            return False
        return all(comp[j] <= a for j in range(m) if j != i)

    for a in range(1, q):
        for b in range(1, q):
            for s in range(q**m):
                comp = [q - 1 - d for d in digits_of(s, q, m)]
                # the zero complement word is always in T (s = n reflects to 0)
                expected = not any(comp) or any(
                    head_at(comp, i, 1, b, t, a)
                    or head_at(comp, i, b + 1, a, t + 1, a)
                    for i in range(m)
                )
                assert matches_dual_exclusion(s, q, m, a, b, t) == expected, (s, a, b)

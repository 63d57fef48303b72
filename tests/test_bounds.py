import math
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from cyclocode import bounds
from cyclocode.bounds import (
    CASE_LABELS,
    BoundCertificate,
    audit,
    build_certificate,
    classify_case,
    max_zero_prefix,
    stated_bound,
    verify_certificate,
)
from cyclocode.counting import CodeParams
from cyclocode.defsets import dual_set_pattern
from cyclocode.errors import ParameterError, ZeroCodeError
from cyclocode.galois import SUPPORTED_Q
from cyclocode.oracle import brute_max_prefix
from cyclocode.qadic import matches_dual_exclusion


def _bound_grid(qs, max_index):
    """All parameters in the bound regime, a and b independent."""
    out = []
    for q in qs:
        m = 2
        while q**m <= max_index:
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, q):
                        p = CodeParams(q, m, t, a, b)
                        if not p.is_degenerate:
                            out.append(p)
            m += 1
    return out


def test_max_zero_prefix_examples():
    assert max_zero_prefix(CodeParams(3, 4, 1, 2, 1)) == 7
    assert max_zero_prefix(CodeParams(5, 10, 8, 4, 1)) == 5**9 - 2 == 1953123
    for q, m, t in [(3, 4, 1), (5, 3, 2), (4, 5, 3)]:
        assert max_zero_prefix(CodeParams(q, m, t, q - 1, q - 1)) == q**t - 1


def test_max_zero_prefix_m_equals_t_plus_1_ignores_a():
    # the word u = b 0...0 has no a-digits, so every a gives the same value
    for q, m, b in [(4, 2, 1), (5, 3, 2), (5, 2, 1)]:
        t = m - 1
        vals = {max_zero_prefix(CodeParams(q, m, t, a, b)) for a in range(1, q)}
        assert vals == {q**m - b * q ** (m - 1) - 1}


def test_max_zero_prefix_matches_scan():
    for p in _bound_grid((2, 3, 4, 5), 1500):
        assert max_zero_prefix(p) == brute_max_prefix(dual_set_pattern(p)), p


def test_regime_rejections():
    with pytest.raises(ZeroCodeError):
        max_zero_prefix(CodeParams(3, 3, 0, 2, 2))
    with pytest.raises(ParameterError):
        max_zero_prefix(CodeParams(3, 1, 0, 1, 1))
    with pytest.raises(ZeroCodeError):
        stated_bound(CodeParams(2, 4, 0, 1, 1))


def test_classify_examples():
    assert classify_case(CodeParams(5, 10, 8, 4, 1)) == "case5"
    assert classify_case(CodeParams(5, 10, 2, 4, 1)) == "case1"
    assert classify_case(CodeParams(5, 10, 7, 4, 4)) == "case9"


def test_classify_total_and_exclusive():
    # raw case predicates evaluated independently: exactly one must hold
    def predicates(p):
        q, m, t, a, b = p
        top = q - 1
        first = a == top and b != top
        second = a == top and b == top
        return {
            "case1": first and t >= 1 and m >= 2 * t + 5,
            "case2": first and t >= 1 and m == 2 * t + 4,
            "case3": first and t >= 1 and m == 2 * t + 3,
            "case4": first and t >= 1 and t + 3 <= m <= 2 * t + 2,
            "case5": first and m == t + 2,
            "case6": first and m == t + 1,
            "case7": first and t == 0 and m >= 3,
            "case8": second and t >= 1 and m >= 2 * t + 2,
            "case9": second and t >= 1 and t + 2 <= m <= 2 * t + 1,
            "case10": second and t >= 1 and m == t + 1,
            "case11": a != top,
        }

    seen = set()
    for q in (2, 3, 4, 5, 7):
        for m in range(2, 13):
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, q):
                        p = CodeParams(q, m, t, a, b)
                        if p.is_degenerate:
                            continue
                        preds = predicates(p)
                        hits = [c for c, on in preds.items() if on]
                        assert len(hits) == 1, (p, hits)
                        assert classify_case(p) == hits[0]
                        seen.add(hits[0])
    assert seen == set(CASE_LABELS)


def test_certificate_worked_example():
    p = CodeParams(3, 4, 1, 2, 1)
    cert = build_certificate(p)
    assert cert.case_id == "case4"
    assert (cert.v, cert.z, cert.s_set, cert.claimed_bound) == (7, 9, (1,), 9)
    result = verify_certificate(cert, p)
    assert result.passed and result.mode == "full"
    assert result.certified_bound == 9
    assert stated_bound(p) == 9


def test_certificate_large_bch_point():
    p = CodeParams(5, 10, 8, 4, 1)
    cert = build_certificate(p)
    assert cert.case_id == "case5"
    assert cert.z == 5**9
    assert cert.s_set == (1, 2)
    assert cert.claimed_bound == 1953126
    result = verify_certificate(cert, p)
    assert result.passed and result.mode == "full"
    assert result.certified_bound == 1953126
    assert result.checked == (cert.s_size + 1) * cert.v == 5_859_369


def test_certificate_empty_S_cases():
    for p in [CodeParams(3, 2, 1, 1, 1), CodeParams(4, 3, 1, 2, 1)]:
        assert classify_case(p) == "case11"
        cert = build_certificate(p)
        assert cert.s_set == () and cert.s_size == 0
        assert cert.claimed_bound == max_zero_prefix(p) + 1
        assert verify_certificate(cert, p).passed


def test_tampered_certificate_fails():
    p = CodeParams(3, 4, 1, 2, 1)
    good = build_certificate(p)
    bad = BoundCertificate(
        case_id=good.case_id, v=good.v, z=good.z,
        s_set=(0,) + good.s_set, s_size=good.s_size + 1,
        s_min=0, s_max=good.s_max, claimed_bound=good.claimed_bound + 1,
    )
    result = verify_certificate(bad, p)
    assert not result.passed
    structure = dict((n, (ok, d)) for n, ok, d in result.conditions)["structure"]
    assert not structure[0] and "zero in S" in structure[1]

    bad_gcd = BoundCertificate(
        case_id=good.case_id, v=good.v, z=40,  # gcd(40, 80) != 1
        s_set=good.s_set, s_size=good.s_size,
        s_min=good.s_min, s_max=good.s_max, claimed_bound=good.claimed_bound,
    )
    assert not verify_certificate(bad_gcd, p).passed

    bad_v = BoundCertificate(
        case_id=good.case_id, v=good.v + 5, z=good.z,
        s_set=good.s_set, s_size=good.s_size,
        s_min=good.s_min, s_max=good.s_max, claimed_bound=good.claimed_bound,
    )
    result = verify_certificate(bad_v, p)
    assert not result.passed
    assert any(n == "prefix" and not ok for n, ok, _ in result.conditions)


def test_translates_are_checked_whatever_the_structure_says():
    # a failed structure condition leaves no condition reading "pass"
    # unchecked: an explicit S has its translates walked all the same
    p = CodeParams(3, 4, 1, 2, 1)
    result = verify_certificate(build_certificate(p)._replace(z=2), p)
    assert result.conditions == (
        ("structure", False, "gcd(z=2, 80) != 1"),
        ("prefix", True, "[0, v) lies in the dual defining set"),
        ("translates", False, "residue of s=1, w=5 is excluded"),
    )
    assert not result.passed and result.checked == 13

    p = CodeParams(2, 6, 2, 1, 1)
    good = build_certificate(p)
    assert (good.v, good.s_set) == (3, (1, 2))
    result = verify_certificate(good._replace(z=3), p)
    assert result.conditions[0] == ("structure", False, "gcd(z=3, 63) != 1")
    assert result.conditions[2] == ("translates", False, "residue of s=1, w=0 is excluded")
    assert not result.passed and result.checked == 4
    zero = good._replace(s_set=(0,) + good.s_set, s_size=3, s_min=0)
    result = verify_certificate(zero, p)
    assert result.conditions[0] == ("structure", False, "zero in S")
    assert result.conditions[2][:2] == ("translates", True)
    # the prefix and the three translates, v values each
    assert not result.passed and result.checked == 4 * good.v


def test_stated_bound_table2_spots():
    q, m = 5, 10
    spots = {(8, 1): 1953126, (7, 4): 78204, (2, 1): 615, (4, 4): 3121, (3, 4): 621}
    for (t, b), want in spots.items():
        assert stated_bound(CodeParams(q, m, t, 4, b)) == want


def test_stated_equals_certified_outside_case8():
    for p in _bound_grid((2, 3, 4, 5), 3000):
        cert = build_certificate(p)
        st = stated_bound(p)
        if cert.case_id == "case8":
            assert st == cert.claimed_bound + 1, p  # the known off-by-one
        else:
            assert st == cert.claimed_bound, p


def test_audit_rows():
    row = audit(CodeParams(3, 4, 1, 2, 1))
    assert (row.stated, row.certified, row.mismatch) == (9, 9, 0)
    assert row.verified_ok and row.stated_sound

    row = audit(CodeParams(5, 10, 8, 4, 1))
    assert (row.stated, row.certified) == (1953126, 1953126)

    # the S-set here is forced empty and the closed form overshoots by one
    row = audit(CodeParams(2, 4, 1, 1, 1))
    assert row.case_id == "case8"
    assert (row.stated, row.certified, row.mismatch) == (3, 2, 1)
    assert row.verified_ok and not row.stated_sound


def test_gap_condition_on_constructed_certificates():
    # Roos's condition on M = {0} u S: max M - min M + 1 - |M| <= v - 1
    for p in _bound_grid((3, 4, 5), 3000):
        cert = build_certificate(p)
        if cert.s_size > 0:
            assert cert.s_min > 0 and cert.s_max - cert.s_size <= cert.v - 1, p
            assert math.gcd(cert.z, p.n) == 1


def test_gap_condition_reads_the_hull_of_zero_and_S():
    # the hull of S = {5, 6} alone has no gap, but {0, 5, 6} has 4 > v - 1
    p = CodeParams(2, 4, 1, 1, 1)
    cert = BoundCertificate(
        case_id="case8", v=2, z=1, s_set=(5, 6), s_size=2,
        s_min=5, s_max=6, claimed_bound=5,
    )
    result = verify_certificate(cert, p)
    assert not result.passed and result.certified_bound is None
    structure = dict((n, (ok, d)) for n, ok, d in result.conditions)["structure"]
    assert structure == (False, "gap condition fails: {0} u S has 4 gaps > v - 1 = 1")


def test_stated_S_fields_must_match_S():
    # a repeated shift or a misstated hull must not buy a larger bound
    p = CodeParams(3, 4, 1, 2, 1)
    good = build_certificate(p)
    for s_set, s_max in [(good.s_set * 2, good.s_max), (good.s_set + (11,), good.s_max)]:
        bad = BoundCertificate(
            case_id=good.case_id, v=good.v, z=good.z, s_set=s_set,
            s_size=len(s_set), s_min=good.s_min, s_max=s_max,
            claimed_bound=good.v + len(s_set) + 1,
        )
        result = verify_certificate(bad, p)
        assert not result.passed and result.certified_bound is None
        assert result.conditions[0] == (
            "structure", False, "S does not have the stated size, min and max")


def test_every_case_has_small_fully_verified_instances():
    by_case = defaultdict(list)
    for p in _bound_grid((2, 3, 4, 5, 7), 20000):
        by_case[classify_case(p)].append(p)
    assert set(by_case) == set(CASE_LABELS)
    for case, plist in by_case.items():
        verified = 0
        for p in plist:
            cert = build_certificate(p)
            if (cert.s_size + 1) * cert.v > 200000:
                continue
            result = verify_certificate(cert, p)
            assert result.mode == "full"
            assert result.passed, (case, p, result.conditions)
            assert result.certified_bound == cert.v + cert.s_size + 1
            verified += 1
            if verified == 3:
                break
        assert verified == 3, f"{case}: only {verified} instances verified"


def _reference_verify(cert, p):
    """(passed, certified_bound, conditions) of a certificate, testing one
    value at a time through the per-value exclusion pattern."""
    q, m, t, a, b = p
    n, v = p.n, cert.v

    def member(value):
        return not matches_dual_exclusion(value, q, m, a, b, t)

    ok_structure, detail = True, "gcd, zero-exclusion and gap conditions hold"
    if math.gcd(cert.z, n) != 1:
        ok_structure, detail = False, f"gcd(z={cert.z}, {n}) != 1"
    elif 0 in cert.s_set:
        ok_structure, detail = False, "zero in S"
    elif len(set(cert.s_set)) != cert.s_size or cert.s_size and (
        (min(cert.s_set), max(cert.s_set)) != (cert.s_min, cert.s_max)
    ):
        ok_structure, detail = False, "S does not have the stated size, min and max"
    elif cert.s_size > 0 and cert.s_max - cert.s_size > v - 1:
        ok_structure, detail = (
            False,
            f"gap condition fails: {{0}} u S has {cert.s_max - cert.s_size} gaps > v - 1 = {v - 1}",
        )
    conditions = [("structure", ok_structure, detail)]
    bad = next((w for w in range(v) if not member(w)), None)
    conditions.append(("prefix", bad is None, "[0, v) lies in the dual defining set"
                       if bad is None else f"prefix value {bad} is excluded"))
    trans = "all translated intervals lie in the dual defining set"
    ok_trans = True
    if cert.s_size > 0 and ok_structure:
        for s in cert.s_set:
            base = s * cert.z % n
            bad = next((w for w in range(v) if not member((base + w) % n)), None)
            if bad is not None:
                ok_trans, trans = False, f"residue of s={s}, w={bad} is excluded"
                break
    conditions.append(("translates", ok_trans, trans))
    passed = all(ok for _, ok, _ in conditions)
    return passed, cert.claimed_bound if passed else None, tuple(conditions)


def _with_v(cert, v):
    return BoundCertificate(cert.case_id, v, cert.z, cert.s_set, cert.s_size,
                            cert.s_min, cert.s_max, v + cert.s_size + 1)


@pytest.mark.parametrize("stretch", [16384, 9])
def test_interval_check_matches_per_value_reference(stretch):
    # v + 16384 runs every interval many turns round n (n <= 3000 here);
    # v + 9 stops short of a turn on all but the smallest n.
    points = failing = 0
    for p in _bound_grid((2, 3, 4, 5), 3000):
        good = build_certificate(p)
        lengthened = (good.v + 1, good.v + 7, good.v + stretch)
        for cert in (good, *(_with_v(good, v) for v in lengthened)):
            result = verify_certificate(cert, p)
            assert result.mode == "full", p
            got = (result.passed, result.certified_bound, result.conditions)
            assert got == _reference_verify(cert, p), (p, cert)
            failing += not result.passed
        points += 1
    assert points == 420
    assert failing >= 3 * points


def test_value_before_the_top_is_always_excluded():
    # q^m - 2 has the word (q-2, q-1, ..., q-1), which every (a, b, t)
    # excludes, so no translate that wraps at n can pass on real parameters.
    for p in _bound_grid((2, 3, 4, 5), 3000):
        q, m, t, a, b = p
        assert matches_dual_exclusion(p.n - 1, q, m, a, b, t), p


def test_wrapping_translate_fails_like_the_per_value_route():
    p = CodeParams(3, 4, 1, 2, 1)  # n = 80, v = 7; nothing above 60 is a member
    cert = BoundCertificate("case4", 7, 77, (1,), 1, 1, 1, 9)  # [77, 84) wraps
    result = verify_certificate(cert, p)
    assert not result.passed and result.mode == "full"
    assert result.conditions == _reference_verify(cert, p)[2]
    assert result.conditions[0][1]  # {0, 1} meets the gap condition
    assert result.conditions[2] == ("translates", False, "residue of s=1, w=0 is excluded")


def _explicit_exclusions(excluded_values):
    """A stand-in successor query whose excluded set is the given values."""
    def successor_of(params):
        return lambda value: min(x for x in excluded_values | {params.n} if x >= value)
    return successor_of


@pytest.mark.parametrize(
    "long_v, long_outcome",
    [
        # many turns round n: 76 is met at prefix value 76 and, past the
        # wrap, at w = 3 + 76 of the translate
        pytest.param(16384, (False, "residue of s=1, w=79 is excluded", 77 + 80), id="16384"),
        # [0, 9) and the residues 77, 78, 79, 0, ..., 5 all miss 76
        pytest.param(9, (True, "all translated intervals lie in the dual defining set", 18),
                     id="9"),
    ],
)
def test_wrapping_translate_on_a_hand_built_exclusion_set(monkeypatch, long_v, long_outcome):
    # n = 80.  The translate of s=1 under z=77 is [77, 84), that is the
    # residues 77, 78, 79, 0, 1, 2, 3; w counts on across the wrap.  76 lies
    # just before the translate and 80 = n is never a residue.
    p = CodeParams(3, 4, 1, 2, 1)
    cert = BoundCertificate("case4", 7, 77, (1,), 1, 1, 1, 9)
    monkeypatch.setattr(bounds, "_excluded_successor", _explicit_exclusions({76, 80}))
    result = verify_certificate(cert, p)
    assert result.passed and result.certified_bound == 9
    assert result.checked == 14
    long = _with_v(cert, long_v)
    result = verify_certificate(long, p)
    passed, trans_detail, checked = long_outcome
    assert result.passed == passed and result.conditions[2] == ("translates", passed, trans_detail)
    assert result.certified_bound == (long_v + 2 if passed else None)
    assert result.checked == checked
    monkeypatch.setattr(bounds, "_excluded_successor", _explicit_exclusions({2, 80}))
    # 2 is met at the same offsets whatever the length, so both counts stay
    for c in (cert, long):
        result = verify_certificate(c, p)
        assert not result.passed and result.certified_bound is None
        assert result.conditions[1] == ("prefix", False, "prefix value 2 is excluded")
        assert result.conditions[2] == ("translates", False, "residue of s=1, w=5 is excluded")
        assert result.checked == 3 + 6


def test_successor_is_the_least_excluded_value_at_every_small_point():
    # Every supported q and m >= 2 with q^m <= 128, every t, a and b
    # independent: one backward scan per point with the per-value pattern
    # test gives the least excluded value >= v for every v in [0, n].
    points = values = 0
    for p in _bound_grid(SUPPORTED_Q, 128):
        q, m, t, a, b = p
        successor = bounds._excluded_successor(p)
        least = None  # n is always excluded, so the scan sets it first
        for v in range(p.n, -1, -1):
            if matches_dual_exclusion(v, q, m, a, b, t):
                least = v
            assert successor(v) == least, (p, v)
        points += 1
        values += p.n + 1
    assert (points, values) == (669, 55_498)


@st.composite
def _intervals(draw):
    """Bound-regime parameters with m up to 30, an interval [lo, hi) of at
    most 64 values that starts at a word drawn digit by digit or ends at n,
    and a translate that wraps at n."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    m = draw(st.integers(2, 30))
    a = draw(st.integers(1, q - 1))
    b = draw(st.integers(1, q - 1))
    t = draw(st.integers(1 if a == b == q - 1 else 0, m - 1))
    p = CodeParams(q, m, t, a, b)
    length = draw(st.integers(0, 64))
    if draw(st.booleans()):
        lo, hi = max(0, p.n - length), p.n
    else:
        digits = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
        lo = sum(d * q**i for i, d in enumerate(digits))
        hi = min(lo + length, p.n)
    # z = n - 1 moves s to the base n - s, so [n - s, n - s + v) wraps
    s = draw(st.integers(1, min(64, p.n - 1)))
    v = draw(st.integers(s + 1, s + 64))
    return p, lo, hi, BoundCertificate("case11", v, p.n - 1, (s,), 1, s, s, v + 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_intervals())
def test_box_successor_equals_per_value_scan(drawn):
    p, lo, hi, wrapping = drawn
    q, m, t, a, b = p
    found = bounds._excluded_successor(p)(lo)
    assert lo <= found <= p.n and matches_dual_exclusion(found, q, m, a, b, t)
    scan = next((s for s in range(lo, hi) if matches_dual_exclusion(s, q, m, a, b, t)), None)
    assert (found if found < hi else None) == scan, (p, lo, hi)
    result = verify_certificate(wrapping, p)
    assert (result.passed, result.certified_bound, result.conditions) == _reference_verify(
        wrapping, p), (p, wrapping)


TABLE2_ROWS = [(t, b) for t in range(8, 1, -1) for b in range(1, 5)]


def test_all_table2_rows_verify_in_full():
    for t, b in TABLE2_ROWS:
        p = CodeParams(5, 10, t, 4, b)
        row = audit(p)
        assert row.mode == "full" and row.verified_ok, p
        if row.case_id == "case8":
            assert row.certified == row.stated - 1, p  # the known off-by-one
        else:
            assert row.certified == row.stated, p
    assert sum(classify_case(CodeParams(5, 10, t, 4, b)) == "case8"
               for t, b in TABLE2_ROWS) == 3


# Case 8 with |S| = 2^20 - 2 = 1,048,574 > DEFAULT_S_CAP: S is only known in
# parametric form, the one case a certificate is left unchecked.
PARAMETRIC_S = CodeParams(2, 42, 20, 1, 1)


def test_parametric_S_leaves_certificate_unchecked():
    p = PARAMETRIC_S
    cert = build_certificate(p)
    assert (cert.case_id, cert.s_set, cert.s_size) == ("case8", None, 1_048_574)
    assert cert.s_size > bounds.DEFAULT_S_CAP
    result = verify_certificate(cert, p)
    assert result.mode == "unchecked"
    assert result.passed is False and result.certified_bound is None
    assert result.checked == 0
    failed = [(name, detail) for name, ok, detail in result.conditions if not ok]
    assert failed == [(name, "unchecked: S is parametric (|S| = 1048574)")
                      for name in ("prefix", "translates")]

    row = audit(p)
    assert row.mode == "unchecked" and not row.verified_ok
    assert row.stated == 2_097_151
    assert row.certified is None and row.mismatch is None
    assert not row.stated_sound


def test_large_certificates_verify_in_full():
    # one interval of 193,710,244 memberships, past the 10^8 that a work cap
    # once allowed
    p = CodeParams(3, 18, 0, 1, 1)  # case 11, S empty
    cert = build_certificate(p)
    assert (cert.case_id, cert.s_size, cert.v) == ("case11", 0, 193_710_244)
    result = verify_certificate(cert, p)
    assert result.mode == "full" and result.passed
    assert result.certified_bound == stated_bound(p) == 193_710_245
    assert result.checked == 193_710_244

    p = CodeParams(2, 28, 13, 1, 1)  # 8,191 intervals of 8,191 memberships
    cert = build_certificate(p)
    assert (cert.case_id, cert.s_size, cert.v) == ("case8", 8190, 8191)
    result = verify_certificate(cert, p)
    assert result.mode == "full" and result.passed
    assert result.checked == 8191 * 8191


def test_every_point_up_to_10_9_verifies_in_full():
    points = over = 0
    for p in _bound_grid((2, 3, 4, 5, 7, 8, 9), 10**9):
        if p.q**p.m <= 10**8:
            continue
        cert = build_certificate(p)
        result = verify_certificate(cert, p)
        assert result.mode == "full" and result.passed, p
        points += 1
        over += (cert.s_size + 1) * cert.v > 10**8
    assert (points, over) == (1909, 667)


def test_audit_certifies_nothing_for_a_failing_certificate(monkeypatch):
    p = CodeParams(3, 4, 1, 2, 1)
    good = build_certificate(p)
    monkeypatch.setattr(bounds, "build_certificate", lambda params: _with_v(good, good.v + 1))
    row = audit(p)
    assert row.mode == "full" and not row.verified_ok
    assert row.certified is None and row.mismatch is None
    assert not row.stated_sound

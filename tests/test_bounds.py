import math
from collections import defaultdict

import pytest

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
        q, m, t, a, b = p.astuple()
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
    q, m, t, a, b = p.astuple()
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


@pytest.mark.parametrize("block_size", [bounds.BLOCK_SIZE, 9])
def test_interval_check_matches_per_value_reference(monkeypatch, block_size):
    # A block size of 9 splits every interval over many blocks.
    monkeypatch.setattr(bounds, "BLOCK_SIZE", block_size)
    points = failing = 0
    for p in _bound_grid((2, 3, 4, 5), 3000):
        good = build_certificate(p)
        for cert in (good, _with_v(good, good.v + 1), _with_v(good, good.v + 7)):
            result = verify_certificate(cert, p)
            assert result.mode == "full", p
            got = (result.passed, result.certified_bound, result.conditions)
            assert got == _reference_verify(cert, p), (p, cert)
            failing += not result.passed
        points += 1
    assert points == 420
    assert failing >= 2 * points


def test_value_before_the_top_is_always_excluded():
    # q^m - 2 has the word (q-2, q-1, ..., q-1), which every (a, b, t)
    # excludes, so no translate that wraps at n can pass on real parameters.
    for p in _bound_grid((2, 3, 4, 5), 3000):
        q, m, t, a, b = p.astuple()
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
    """A stand-in block kernel whose excluded set is the given values."""
    def block(params, k, high=0, masks=None):
        size = params.q**k
        bits = 0
        for value in excluded_values:
            if high * size <= value < (high + 1) * size:
                bits |= 1 << (value - high * size)
        return bits
    return block


@pytest.mark.parametrize("block_size", [bounds.BLOCK_SIZE, 9])
def test_wrapping_translate_on_a_hand_built_exclusion_set(monkeypatch, block_size):
    # n = 80.  The translate of s=1 under z=77 is [77, 84), that is the
    # residues 77, 78, 79, 0, 1, 2, 3; w counts on across the wrap.  76 lies
    # just before the translate and 80 = n is never a residue.
    monkeypatch.setattr(bounds, "BLOCK_SIZE", block_size)
    p = CodeParams(3, 4, 1, 2, 1)
    cert = BoundCertificate("case4", 7, 77, (1,), 1, 1, 1, 9)
    monkeypatch.setattr(bounds, "_dual_excluded_block", _explicit_exclusions({76, 80}))
    result = verify_certificate(cert, p)
    assert result.passed and result.certified_bound == 9
    assert result.checked == 14
    monkeypatch.setattr(bounds, "_dual_excluded_block", _explicit_exclusions({2, 80}))
    result = verify_certificate(cert, p)
    assert not result.passed and result.certified_bound is None
    assert result.conditions[1] == ("prefix", False, "prefix value 2 is excluded")
    assert result.conditions[2] == ("translates", False, "residue of s=1, w=5 is excluded")
    assert result.checked == 3 + 6


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


# Case 11 with S empty and v = 193,710,244: one interval of v memberships,
# over the 10^8 work cap.
OVER_WORK_CAP = CodeParams(3, 18, 0, 1, 1)


def test_work_cap_leaves_certificate_unchecked():
    p = OVER_WORK_CAP
    cert = build_certificate(p)
    assert (cert.case_id, cert.s_size, cert.v) == ("case11", 0, 193_710_244)
    assert (cert.s_size + 1) * cert.v > bounds.DEFAULT_WORK_CAP == 10**8
    result = verify_certificate(cert, p)
    assert result.mode == "unchecked"
    assert result.passed is False and result.certified_bound is None
    assert result.checked == 0
    failed = [(name, detail) for name, ok, detail in result.conditions if not ok]
    assert [name for name, _ in failed] == ["prefix", "translates"]
    assert all("193710244 exceeds the work cap 100000000" in detail
               for _, detail in failed)

    row = audit(p)
    assert row.mode == "unchecked" and not row.verified_ok
    assert row.stated == 193_710_245
    assert row.certified is None and row.mismatch is None
    assert not row.stated_sound


def test_audit_certifies_nothing_for_a_failing_certificate(monkeypatch):
    p = CodeParams(3, 4, 1, 2, 1)
    good = build_certificate(p)
    monkeypatch.setattr(bounds, "build_certificate", lambda params: _with_v(good, good.v + 1))
    row = audit(p)
    assert row.mode == "full" and not row.verified_ok
    assert row.certified is None and row.mismatch is None
    assert not row.stated_sound

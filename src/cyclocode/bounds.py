"""Lower bounds on the dual minimum distance, with machine-checkable
certificates.

A certificate is a triple (v, z, S) for a Roos bound (Roos, IEEE TIT
1983): v is the length of the zero-prefix interval [0, v) inside the dual
defining set, z is a multiplier coprime to q^m - 1, and S is an explicit
set of shift indices such that every translated interval [s z, s z + v)
mod (q^m - 1) also lies inside the dual defining set.  When additionally
M = {0} u S leaves at most v - 1 gaps in its hull, max M - min M + 1 - |M|
<= v - 1, the dual minimum distance is at least v + |S| + 1.

Eleven mutually exclusive parameter cases each come with a concrete (z, S)
construction and a closed-form value of v + |S| + 1.  verify_certificate
re-checks all three conditions from scratch, so a claimed bound never has
to be taken on faith.  It checks [0, v) and each translate as whole
intervals: each rotation of the forbidden pattern is a box of digit floors
(the floors the mask kernel in defsets builds the dual defining set from),
and the least excluded value of an interval is the least successor over
the m boxes, set up in O(m) and queried in O(m) steps whatever v is.
A translate that wraps at q^m - 1 is split in two.  Every certificate with
an explicit S is checked in full ("full" mode).  When S has more than
DEFAULT_S_CAP elements it is only known in parametric form; then nothing
is tested, the mode is "unchecked" and no bound is certified.
DEFAULT_S_CAP is the only certificate cap.

The closed-form prefix value: the published case split for a != q-1 is
only valid for m >= t+2.  For m = t+1 the word u = b 0...0 has no a-digits
at all, so the prefix value cannot depend on a; brute-force scans confirm
it equals q^{t+1} - b q^t - 1 for every a, and max_zero_prefix routes
m = t+1 there uniformly.  stated_bound inherits the same correction in the
a != q-1 branch (otherwise its claim would exceed the Singleton bound at,
for example, q=5, m=2, t=1, a=2, b=1).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import product
from typing import NamedTuple

from .counting import CodeParams
from .defsets import _dual_floors
from .errors import ConsistencyError

__all__ = [
    "CASE_LABELS",
    "BoundCertificate",
    "VerificationResult",
    "AuditRow",
    "max_zero_prefix",
    "classify_case",
    "build_certificate",
    "verify_certificate",
    "stated_bound",
    "audit",
    "DEFAULT_S_CAP",
]

# S sets are enumerated explicitly up to this many elements; a larger S is
# parametric and its certificate is "unchecked".
DEFAULT_S_CAP = 10**6

CASE_LABELS: dict[str, str] = {
    "case1": "a=q-1, b!=q-1, m>=2t+5, t>=1",
    "case2": "a=q-1, b!=q-1, m=2t+4, t>=1",
    "case3": "a=q-1, b!=q-1, m=2t+3, t>=1",
    "case4": "a=q-1, b!=q-1, t+3<=m<=2t+2, t>=1",
    "case5": "a=q-1, b!=q-1, m=t+2",
    "case6": "a=q-1, b!=q-1, m=t+1",
    "case7": "a=q-1, b!=q-1, m>=3, t=0",
    "case8": "a=b=q-1, m>=2t+2, t>=1",
    "case9": "a=b=q-1, t+2<=m<=2t+1, t>=1",
    "case10": "a=b=q-1, m=t+1, t>=1",
    "case11": "a!=q-1",
}


def _geom_sum(q: int, terms: int) -> int:
    """1 + q + ... + q^(terms-1); zero when terms <= 0."""
    return (q**terms - 1) // (q - 1) if terms > 0 else 0


def max_zero_prefix(params: CodeParams) -> int:
    """The unique v with [0, v) inside the dual defining set and v outside it."""
    params.require_bound_regime()
    q, m, t, a, b = params
    if m == t + 1:
        return q ** (t + 1) - b * q**t - 1
    if a == q - 1 and b == q - 1:
        return q**t - 1
    if a == q - 1:
        return q ** (t + 1) - 1 - b
    if b >= a:
        return q**t * ((q - 1 - a) * _geom_sum(q, m - t - 1) + 1) + q ** (m - 1) * (
            q - 1 - b
        ) - 1
    return q ** (t + 1) * ((q - 1 - a) * _geom_sum(q, m - t - 1) + 1) - 1 - b


def classify_case(params: CodeParams) -> str:
    """The unique construction case for these parameters."""
    params.require_bound_regime()
    q, m, t, a, b = params
    top = q - 1
    if a == top and b == top:
        # t = 0 is the degenerate zero code, rejected above
        if m >= 2 * t + 2:
            return "case8"
        if t + 2 <= m <= 2 * t + 1:
            return "case9"
        return "case10"  # m == t + 1
    if a == top:  # b != q-1
        if t == 0:
            return "case5" if m == 2 else "case7"
        if m >= 2 * t + 5:
            return "case1"
        if m == 2 * t + 4:
            return "case2"
        if m == 2 * t + 3:
            return "case3"
        if t + 3 <= m <= 2 * t + 2:
            return "case4"
        if m == t + 2:
            return "case5"
        return "case6"  # m == t + 1
    return "case11"


def _case_axes(params: CodeParams, case_id: str) -> tuple[int, list[tuple[int, int]]]:
    """(z, axes) where S = {sum stride_i * x_i, 0 <= x_i < count_i} minus 0.

    Axis strides and digit ranges never interact (each coordinate occupies
    its own digit span), so distinct coordinate tuples give distinct values.
    """
    q, m, t, a, b = params
    if case_id == "case1":
        return q ** (t + 2), [(q ** (t + 1), q - 1), (1, q ** (t + 1) - 1 - b)]
    if case_id == "case2":
        return q ** (t + 2), [(q ** (t + 1), q - 1 - b), (1, q ** (t + 1) - 1 - b)]
    if case_id == "case3":
        return q ** (t + 2), [(q**t, q - 1 - b), (1, q**t)]
    if case_id == "case4":
        return q ** (t + 1), [
            (q ** (m - t - 2), q - 1 - b),
            (q, q ** (m - t - 3)),
            (1, q - 1),
        ]
    if case_id == "case5":
        return q ** (t + 1), [(1, q - 1 - b)]  # S = [1, q-2-b]; b <= q-2 here
    if case_id == "case6":
        return 1, []
    if case_id == "case7":
        alpha = min(q - 2 - b, math.ceil(q / (b + 1)) - 2)
        return q, [(q, alpha + 1), (1, q - 1 - b)]
    if case_id == "case8":
        return q ** (t + 1), [(q**t, q - 1), (1, q**t - 1)]
    if case_id == "case9":
        return q**t, [(q ** (m - t - 1), q - 1), (q, q ** (m - t - 2)), (1, q - 1)]
    if case_id == "case10":
        return q**t, [(1, q - 1)]
    if case_id == "case11":
        return 1, []
    raise ConsistencyError(f"unknown case {case_id!r}")


class BoundCertificate(NamedTuple):
    """A checkable witness for the classified case.

    s_set carries the explicit sorted elements of S when their number is at
    most the enumeration cap, and None (parametric form) beyond it; s_size,
    s_min and s_max are exact either way.  claimed_bound = v + |S| + 1.
    """

    case_id: str
    v: int
    z: int
    s_set: tuple[int, ...] | None
    s_size: int
    s_min: int | None
    s_max: int | None
    claimed_bound: int


def build_certificate(params: CodeParams) -> BoundCertificate:
    """The (v, z, S) witness the classified case prescribes."""
    case_id = classify_case(params)
    v = max_zero_prefix(params)
    z, axes = _case_axes(params, case_id)
    size = 1
    for _, count in axes:
        size *= count
    size -= 1  # the origin is excluded
    if size <= 0:
        return BoundCertificate(case_id, v, z, (), 0, None, None, v + 1)
    s_max = sum(stride * (count - 1) for stride, count in axes)
    s_min = min(stride for stride, count in axes if count > 1)
    if size > DEFAULT_S_CAP:
        return BoundCertificate(
            case_id, v, z, None, size, s_min, s_max, v + size + 1
        )
    values = sorted(
        sum(x) for x in product(*[range(0, stride * count, stride) for stride, count in axes])
    )[1:]
    if len(values) != size or values[0] != s_min or values[-1] != s_max:
        raise ConsistencyError("internal: axis enumeration mismatch")
    return BoundCertificate(
        case_id, v, z, tuple(values), size, s_min, s_max, v + size + 1
    )


class VerificationResult(NamedTuple):
    """Outcome of re-checking the three certificate conditions.

    mode is "full" when every membership in [0, v) and in all translated
    intervals was decided, and "unchecked" when S is only known in
    parametric form (more than DEFAULT_S_CAP elements); an unchecked
    certificate never passes.  certified_bound is the claimed bound when
    every condition passed, else None.  checked counts the memberships
    decided: the whole of each interval that passed, and of a failing one
    its values up to the first excluded one.
    """

    passed: bool
    mode: str
    conditions: tuple[tuple[str, bool, str], ...]
    certified_bound: int | None
    checked: int


def _excluded_successor(params: CodeParams) -> Callable[[int], int]:
    """A function that maps each A in [0, n] to the least value >= A outside
    the dual defining set; it is at most n, whose digits are all q - 1.

    Rotation r of the forbidden pattern is the box "digit (r + o) mod m >=
    floors[o] for every o".  The least member >= A of one box keeps A's
    digits above the highest digit of A that lies below its floor, and sets
    that digit and every lower one to their floors; it is A itself when no
    digit lies below its floor.  A lower such digit gives a smaller member,
    so one pass over A's digits from the top narrows the mask of boxes that
    no digit has ruled out yet, and the answer comes from the boxes ruled
    out last.  The set-up and each query take O(m) steps.
    """
    q, m, t, a, b = params
    powers = [q**d for d in range(m + 1)]
    # Box r's least member is box 0's rotated up r digits.  Digit d reads offset
    # (d - r) mod m of box r: at digit 0 the t top offsets are boxes 1..t, y is
    # box t + 1 and the x-run the rest, and at digit d these masks rotate d bits.
    low = sum(f * p for f, p in zip(_dual_floors(params), powers))
    mins = [low % powers[m - r] * powers[r] + low // powers[m - r] for r in range(m)]
    tops, ys = (1 << t) - 1 << 1, 1 << (t + 1) % m
    xs, xlo, ylo = (1 << m) - 1 ^ tops ^ ys, q - 1 - a, q - 1 - b

    def successor(value: int) -> int:
        alive = (1 << m) - 1
        for d in range(m - 1, -1, -1):
            x = value // powers[d] % q
            hit = (tops if x < q - 1 else 0) | (xs if x < xlo else 0) | (ys if x < ylo else 0)
            hit = alive & (hit << d | hit >> (m - d))
            if hit == alive:
                span = best = powers[d + 1]
                while hit:
                    r = hit.bit_length() - 1
                    best = min(best, mins[r] % span)
                    hit ^= 1 << r
                return value - value % span + best
            alive ^= hit
        return value

    return successor


def verify_certificate(
    cert: BoundCertificate, params: CodeParams, seed: int = 0
) -> VerificationResult:
    """Re-check the Roos-bound certificate against the dual pattern's boxes.

    Conditions: (i) [0, v) lies in the dual defining set; (ii) for every s
    in S each residue of [s z, s z + v) mod (q^m - 1) lies there too, the
    residue 0 being tested as the value 0; (iii) gcd(z, q^m - 1) = 1,
    0 not in S, an explicit S has distinct elements and the stated size,
    min and max, and, when S is nonempty, Roos's gap condition on
    M = {0} u S: max M - min M + 1 - |M| <= v - 1.

    Each interval is checked whole by one successor query on the digit
    boxes of the forbidden pattern, so every membership is decided whatever
    v is, and the detail names the first excluded value.  Only a parametric
    S (more than DEFAULT_S_CAP elements) leaves the result "unchecked".
    An explicit S has its translates checked even when the structure fails.
    seed is accepted for callers that pass one and is unused: the check is
    deterministic.
    """
    params.require_bound_regime()
    n = params.n
    v = cert.v
    conditions: list[tuple[str, bool, str]] = []

    ok_structure = True
    detail = "gcd, zero-exclusion and gap conditions hold"
    # the gaps in the hull of M = {0} u S: max M - min M + 1 - |M|
    gaps = max(cert.s_max, 0) - min(cert.s_min, 0) - cert.s_size if cert.s_size else 0
    if math.gcd(cert.z, n) != 1:
        ok_structure, detail = False, f"gcd(z={cert.z}, {n}) != 1"
    elif cert.s_set is not None and 0 in cert.s_set:
        ok_structure, detail = False, "zero in S"
    elif cert.s_set is not None and (
        len(set(cert.s_set)) != cert.s_size
        or cert.s_size and (min(cert.s_set), max(cert.s_set)) != (cert.s_min, cert.s_max)
    ):
        ok_structure, detail = False, "S does not have the stated size, min and max"
    elif gaps > v - 1:
        ok_structure, detail = (
            False,
            f"gap condition fails: {{0}} u S has {gaps} gaps > v - 1 = {v - 1}",
        )
    conditions.append(("structure", ok_structure, detail))

    if cert.s_set is None:
        why = f"unchecked: S is parametric (|S| = {cert.s_size})"
        conditions.append(("prefix", False, why))
        conditions.append(("translates", False, why))
        return VerificationResult(False, "unchecked", tuple(conditions), None, 0)

    successor = _excluded_successor(params)
    first = successor(0)

    def excluded_offset(base: int) -> int | None:
        """The least w in [0, v) with (base + w) mod n excluded, or None.

        An interval that wraps at n splits into [base, n) and
        [0, base + v - n); past one full turn the residues repeat.
        """
        tail = min(v, n - base)
        w = successor(base) - base
        if w < tail:
            return w
        return tail + first if first < min(v - tail, base) else None

    checked = 0
    ok_prefix = True
    prefix_detail = "[0, v) lies in the dual defining set"
    w = excluded_offset(0)
    checked += v if w is None else w + 1
    if w is not None:
        ok_prefix, prefix_detail = False, f"prefix value {w} is excluded"
    conditions.append(("prefix", ok_prefix, prefix_detail))

    ok_trans = True
    trans_detail = "all translated intervals lie in the dual defining set"
    for s in cert.s_set:
        w = excluded_offset((s * cert.z) % n)
        checked += v if w is None else w + 1
        if w is not None:
            ok_trans = False
            trans_detail = f"residue of s={s}, w={w} is excluded"
            break
    conditions.append(("translates", ok_trans, trans_detail))

    passed = ok_structure and ok_prefix and ok_trans
    return VerificationResult(
        passed=passed,
        mode="full",
        conditions=tuple(conditions),
        certified_bound=cert.claimed_bound if passed else None,
        checked=checked,
    )


def stated_bound(params: CodeParams) -> int:
    """The closed-form lower bound of the classified case."""
    case_id = classify_case(params)
    q, m, t, a, b = params
    if case_id == "case1":
        return q ** (t + 2) - q * b - q
    if case_id == "case2":
        return (q - b) * (q ** (t + 1) - 1 - b)
    if case_id == "case3":
        return 2 * q ** (t + 1) - (b + 1) * q**t - 1 - b
    if case_id == "case4":
        return (q - 1 - b) * (q - 1) * q ** (m - t - 3) + q ** (t + 1) - 1 - b
    if case_id == "case5":
        return q ** (t + 1) + q - 2 - 2 * b
    if case_id == "case6":
        return (q - b) * q**t
    if case_id == "case7":
        return min(math.ceil(q / (b + 1)), q - b) * (q - 1 - b)
    if case_id == "case8":
        return q ** (t + 1) - q + 1
    if case_id == "case9":
        return (
            q ** (m - t) - 2 * q ** (m - t - 1) + q ** (m - t - 2) + q**t - 1
        )
    if case_id == "case10":
        return q**t + q - 2
    return max_zero_prefix(params) + 1  # case11: S is empty


class AuditRow(NamedTuple):
    """Side-by-side of the closed-form bound and the verified certificate.

    certified is the certificate's bound and mismatch = stated - certified
    when the certificate verified; both are None when it failed or was
    unchecked, since nothing was certified then.  The stated value is only
    sound on this run's evidence when verified_ok holds and mismatch is 0; a
    nonzero mismatch is a finding, not a failure.
    """

    params: CodeParams
    case_id: str
    stated: int
    certified: int | None
    verified_ok: bool
    mode: str
    mismatch: int | None

    @property
    def stated_sound(self) -> bool:
        return self.verified_ok and self.mismatch == 0


def audit(params: CodeParams, seed: int = 0) -> AuditRow:
    """Build and verify the certificate, then compare with the closed form.

    The only cap is verify_certificate's, DEFAULT_S_CAP.  seed is unused,
    as there: the check is deterministic.
    """
    cert = build_certificate(params)
    result = verify_certificate(cert, params)
    st = stated_bound(params)
    certified = result.certified_bound
    return AuditRow(
        params=params,
        case_id=cert.case_id,
        stated=st,
        certified=certified,
        verified_ok=result.passed,
        mode=result.mode,
        mismatch=None if certified is None else st - certified,
    )


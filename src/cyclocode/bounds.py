"""Lower bounds on the dual minimum distance, with machine-checkable
certificates.

A certificate is a triple (v, z, S): v is the length of the zero-prefix
interval [0, v) inside the dual defining set, z is a multiplier coprime to
q^m - 1, and S is an explicit set of shift indices such that every
translated interval [s z, s z + v) mod (q^m - 1) also lies inside the dual
defining set.  When additionally max S - min S - |S| + 1 < v, the dual
minimum distance is at least v + |S| + 1.

Eleven mutually exclusive parameter cases each come with a concrete (z, S)
construction and a closed-form value of v + |S| + 1; verify_certificate
re-checks all three conditions from scratch through the digit-pattern
membership test, so a claimed bound never has to be taken on faith.

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
import random
from dataclasses import dataclass
from itertools import product

from .counting import CodeParams
from .errors import ParameterError
from .qadic import expand, matches_dual_exclusion

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
    "DEFAULT_WORK_CAP",
]

# S sets are enumerated explicitly up to this many elements.
DEFAULT_S_CAP = 10**6

# Full verification runs when (|S| + 1) * v membership checks fit under this;
# otherwise verification samples deterministically and says so.
DEFAULT_WORK_CAP = 2 * 10**6

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
    q, m, t, a, b = params.astuple()
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
    q, m, t, a, b = params.astuple()
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
    q, m, t, a, b = params.astuple()
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
    raise ParameterError(f"unknown case {case_id!r}")


@dataclass(frozen=True)
class BoundCertificate:
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


def build_certificate(params: CodeParams, s_cap: int = DEFAULT_S_CAP) -> BoundCertificate:
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
    if size > s_cap:
        return BoundCertificate(
            case_id, v, z, None, size, s_min, s_max, v + size + 1
        )
    values = sorted(
        sum(x) for x in product(*[range(0, stride * count, stride) for stride, count in axes])
    )[1:]
    if len(values) != size or values[0] != s_min or values[-1] != s_max:
        raise ParameterError("internal: axis enumeration mismatch")
    return BoundCertificate(
        case_id, v, z, tuple(values), size, s_min, s_max, v + size + 1
    )


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of re-checking the three certificate conditions.

    mode is "full" when every membership in [0, v) and in all translated
    intervals was tested, "sampled" when the work cap forced a deterministic
    sample (extremes plus seeded draws).  certified_bound is the claimed
    bound when every checked condition passed, else None.
    """

    passed: bool
    mode: str
    conditions: tuple[tuple[str, bool, str], ...]
    certified_bound: int | None
    checked: int


def _member_of_dual(q: int, m: int, value: int, a: int, b: int, t: int) -> bool:
    return not matches_dual_exclusion(expand(value, q, m), a, b, t)


def verify_certificate(
    cert: BoundCertificate,
    params: CodeParams,
    work_cap: int = DEFAULT_WORK_CAP,
    sample_size: int = 20_000,
    seed: int = 0,
) -> VerificationResult:
    """Re-check the certificate against the pattern membership test.

    Conditions: (i) [0, v) lies in the dual defining set; (ii) for every s
    in S each residue of [s z, s z + v) mod (q^m - 1) lies there too, the
    residue 0 being tested as the value 0; (iii) gcd(z, q^m - 1) = 1,
    0 not in S, and max S - min S - |S| + 1 < v when S is nonempty.
    """
    params.require_bound_regime()
    q, m, t, a, b = params.astuple()
    n = params.n
    v = cert.v
    conditions: list[tuple[str, bool, str]] = []

    ok_structure = True
    detail = "gcd, zero-exclusion and gap conditions hold"
    if math.gcd(cert.z, n) != 1:
        ok_structure, detail = False, f"gcd(z={cert.z}, {n}) != 1"
    elif cert.s_set is not None and 0 in cert.s_set:
        ok_structure, detail = False, "zero in S"
    elif cert.s_size > 0 and cert.s_max - cert.s_min - cert.s_size + 1 >= v:
        ok_structure, detail = (
            False,
            f"gap condition fails: {cert.s_max} - {cert.s_min} - {cert.s_size} + 1 >= {v}",
        )
    conditions.append(("structure", ok_structure, detail))

    full = cert.s_set is not None and (cert.s_size + 1) * v <= work_cap
    rng = random.Random(seed)
    checked = 0

    def offsets() -> list[int]:
        if full:
            return list(range(v))
        sample = {0, v - 1} if v > 0 else set()
        for _ in range(min(sample_size, v)):
            sample.add(rng.randrange(v))
        return sorted(sample)

    ok_prefix = True
    prefix_detail = "[0, v) lies in the dual defining set"
    for w in offsets():
        checked += 1
        if not _member_of_dual(q, m, w, a, b, t):
            ok_prefix, prefix_detail = False, f"prefix value {w} is excluded"
            break
    conditions.append(("prefix", ok_prefix, prefix_detail))

    ok_trans = True
    trans_detail = "all translated intervals lie in the dual defining set"
    if cert.s_size > 0 and ok_structure:
        if cert.s_set is not None:
            s_values = cert.s_set if full else _sample_values(cert, rng, sample_size)
        else:
            s_values = _sample_parametric(params, cert, rng, sample_size)
        for s in s_values:
            base = (s * cert.z) % n
            for w in offsets():
                checked += 1
                if not _member_of_dual(q, m, (base + w) % n, a, b, t):
                    ok_trans = False
                    trans_detail = f"residue of s={s}, w={w} is excluded"
                    break
            if not ok_trans:
                break
    conditions.append(("translates", ok_trans, trans_detail))

    passed = ok_structure and ok_prefix and ok_trans
    return VerificationResult(
        passed=passed,
        mode="full" if full else "sampled",
        conditions=tuple(conditions),
        certified_bound=cert.claimed_bound if passed else None,
        checked=checked,
    )


def _sample_values(
    cert: BoundCertificate, rng: random.Random, sample_size: int
) -> list[int]:
    values = {cert.s_min, cert.s_max}
    pool = cert.s_set
    for _ in range(min(sample_size, len(pool))):
        values.add(pool[rng.randrange(len(pool))])
    return sorted(values)


def _sample_parametric(
    params: CodeParams, cert: BoundCertificate, rng: random.Random, sample_size: int
) -> list[int]:
    _, axes = _case_axes(params, cert.case_id)
    values = {cert.s_min, cert.s_max}
    for _ in range(sample_size):
        s = sum(stride * rng.randrange(count) for stride, count in axes)
        if s:
            values.add(s)
    return sorted(values)


def stated_bound(params: CodeParams) -> int:
    """The closed-form lower bound of the classified case."""
    case_id = classify_case(params)
    q, m, t, a, b = params.astuple()
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


@dataclass(frozen=True)
class AuditRow:
    """Side-by-side of the closed-form bound and the verified certificate.

    mismatch = stated - certified.  The stated value is only sound on this
    run's evidence when verified_ok holds and mismatch is 0; a nonzero
    mismatch is a finding, not a failure.
    """

    params: CodeParams
    case_id: str
    stated: int
    certified: int
    verified_ok: bool
    mode: str
    mismatch: int

    @property
    def stated_sound(self) -> bool:
        return self.verified_ok and self.mismatch == 0


def audit(
    params: CodeParams,
    s_cap: int = DEFAULT_S_CAP,
    work_cap: int = DEFAULT_WORK_CAP,
    seed: int = 0,
) -> AuditRow:
    """Build and verify the certificate, then compare with the closed form."""
    cert = build_certificate(params, s_cap=s_cap)
    result = verify_certificate(cert, params, work_cap=work_cap, seed=seed)
    st = stated_bound(params)
    return AuditRow(
        params=params,
        case_id=cert.case_id,
        stated=st,
        certified=cert.claimed_bound,
        verified_ok=result.passed,
        mode=result.mode,
        mismatch=st - cert.claimed_bound,
    )


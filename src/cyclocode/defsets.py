"""Materialized defining sets and the exact dimension formulas.

T and its dual are built by two deliberately independent routes:

- the bit-sliced kernel here.  "Digit i of s lies in [lo, hi]" is a periodic
  bit pattern over all s in [0, q^m), so build_T and dual_set_pattern
  evaluate their digit-pattern characterizations over the whole index range
  at once, as ANDs and ORs of q^m-bit masks held in Python ints, and
  descendant_closure decrements a digit of every member at once, as a
  masked shift of the set's own mask.  bounds
  reads the dual pattern's digit floors from here, and finds excluded
  values in certificate intervals from them without building a mask;
- the per-value oracles.  The oracle module rebuilds T straight from the
  definition (descendants of rotations), and qadic's profile_counts and
  matches_dual_exclusion test the same patterns one value at a time.  This
  module imports neither, so the two routes check each other.

dual_set reflects and complements an arbitrary set, while dual_set_pattern
builds the dual defining set directly from its own pattern characterization,
again giving two independent routes.
"""

from __future__ import annotations

from typing import NamedTuple

from .cosets import DefiningSet, _check_cap, union_cosets
from .counting import CodeParams, closed_size_T
from .errors import ConsistencyError, ParameterError, ZeroCodeError

__all__ = [
    "DimensionReport",
    "build_T",
    "descendant_closure",
    "dual_set",
    "dual_set_pattern",
    "bch_set",
    "dimension",
]


def _digit_mask(q: int, m: int, i: int, lo: int, hi: int) -> int:
    """The q^m-bit mask of the values s in [0, q^m) whose digit i lies in
    [lo, hi].

    Digit i cycles with period q^(i+1) and holds each value for q^i
    consecutive s, so one period is a single run of ones; the period is
    repeated q^(m-i-1) times by shift-doubling.
    """
    run = q**i
    width = run * q
    block = ((1 << (hi - lo + 1) * run) - 1) << (lo * run)
    mask = shift = 0
    copies = q ** (m - i - 1)
    while copies:
        if copies & 1:
            mask |= block << shift
            shift += width
        copies >>= 1
        if copies:
            block |= block << width
            width *= 2
    return mask


def build_T(params: CodeParams) -> DefiningSet:
    """T as {0} plus every value whose word has an occurrence (k, ell) != (0, 0)
    and all digits <= a.

    An occurrence is a head digit in [1, b] followed cyclically by t zeros,
    or one in [b+1, a] followed by t+1 zeros.  Digit masks are built as they
    are needed, so only a few q^m-bit masks are alive at any time.
    """
    params.require_counting_regime()
    q, m, t, a, b = params
    _check_cap(q, m)

    def occurrences(i: int, lo: int, hi: int, zeros: int) -> int:
        hit = _digit_mask(q, m, i, lo, hi)
        for j in range(i + 1, i + 1 + zeros):
            if not hit:
                break
            hit &= _digit_mask(q, m, j % m, 0, 0)
        return hit

    bits = 0
    for i in range(m):
        bits |= occurrences(i, 1, b, t)
        if b < a:
            bits |= occurrences(i, b + 1, a, t + 1)
    if a < q - 1:
        for i in range(m):
            bits &= _digit_mask(q, m, i, 0, a)
    return DefiningSet(q, m, bits | 1)


def descendant_closure(D: DefiningSet) -> DefiningSet:
    """All values whose word is digitwise <= the word of some member of D.

    One sweep over the digits on the bit mask: q - 1 rounds of moving every
    member with digit i nonzero down by q^i close the set under decrements
    of digit i, and a set closed so stays closed when another digit is
    decremented, since that leaves digit i as it was.
    """
    q, m, bits = D.q, D.m, D._bits
    for i in range(m):
        nonzero, step = _digit_mask(q, m, i, 1, q - 1), q**i
        for _ in range(q - 1):
            bits |= (bits & nonzero) >> step
    return DefiningSet(q, m, bits)


def dual_set(D: DefiningSet) -> DefiningSet:
    """{s in [0, n] : n - s not in D} (reflection then complement)."""
    return D.reflect().complement()


def _dual_floors(params: CodeParams) -> list[int]:
    """The lowest allowed digit at each offset o of the forbidden pattern
    x_1 ... x_{m-t-1} y (q-1)^t.

    The rotation starting at digit r matches s exactly when digit
    (r + o) mod m of s is >= floors[o] for every o.  a and b are independent
    here (no b <= a requirement).
    """
    q, m, t, a, b = params
    return [q - 1 - a] * (m - t - 1) + [q - 1 - b] + [q - 1] * t


def dual_set_pattern(params: CodeParams) -> DefiningSet:
    """The dual defining set built directly from its pattern characterization:
    values whose word avoids the full-length forbidden pattern.

    The excluded values are the OR over rotations r of the AND of the
    "digit (r + o) mod m >= floors[o]" masks, built as they are needed.
    """
    q, m = params.q, params.m
    size = _check_cap(q, m)
    full = (1 << size) - 1
    floors = _dual_floors(params)
    excluded = 0
    for r in range(m):
        hit = full
        for offset, lo in enumerate(floors):
            if lo:
                hit &= _digit_mask(q, m, (r + offset) % m, lo, q - 1)
                if not hit:
                    break
        excluded |= hit
    return DefiningSet(q, m, full & ~excluded)


def bch_set(q: int, m: int, delta: int) -> DefiningSet:
    """Defining set of the narrow-sense primitive BCH code of designed
    distance delta: the union of the cosets of 1, ..., delta - 1."""
    n = q**m - 1
    if not 2 <= delta <= n:
        raise ParameterError(f"need 2 <= delta <= {n}, got {delta}")
    return union_cosets(range(1, delta), q, m)


class _DimensionReportFields(NamedTuple):
    params: CodeParams
    size_T: int
    dim: int
    is_bch: bool
    delta: int | None


class DimensionReport(_DimensionReportFields):
    """Dimension of the length-q^m extended code and its cyclic version
    (they coincide), with the BCH identification when a = q-1."""

    __slots__ = ()

    def __new__(cls, params: CodeParams, size_T: int, dim: int, is_bch: bool,
                delta: int | None) -> "DimensionReport":
        if dim != params.q**params.m - size_T:
            raise ConsistencyError("dimension must equal q^m - |T|")
        return tuple.__new__(cls, (params, size_T, dim, is_bch, delta))


def dimension(params: CodeParams) -> DimensionReport:
    """dim = q^m - |T|, by the closed form; flags the BCH case a = q-1 with
    designed distance (b+1) q^{m-t-1}.

    The formula presumes n is not in T.  T is closed under digitwise
    descendants and n's word, all digits q-1, is above every other word, so
    n is in T exactly when |T| = q^m.  That happens only at the degenerate
    zero-code point, which is rejected explicitly; anywhere else |T| = q^m
    is an internal error.  At t = m-1 the report's point, is_bch and delta
    are the normalized point's (a = b), and |T| is read from the raw point,
    where it is a-free.
    """
    q, m, t, a, b = params
    if b > a:
        params.require_counting_regime()
    p = params
    if t == m - 1 and a != b:
        p, a = params.normalized(), b
    if a == b == q - 1 and t == 0:  # p.is_degenerate
        raise ZeroCodeError(
            "a = b = q-1 with t = 0 makes T the whole index range (zero code)"
        )
    size = closed_size_T(params)
    whole = q**m
    if size == whole:
        raise ConsistencyError(f"n = {whole - 1} unexpectedly belongs to T at {tuple(p)}")
    is_bch = a == q - 1  # p.is_bch
    return DimensionReport(p, size, whole - size, is_bch,
                           (b + 1) * q ** (m - t - 1) if is_bch else None)

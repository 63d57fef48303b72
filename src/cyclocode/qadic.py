"""Per-value references for the digit patterns that define T and its dual.

An integer s in [0, q^m - 1] is read as its length-m digit word
(s_0, s_1, ..., s_{m-1}), lowest power first, so that s = sum s_i q^i.
Multiplying by q modulo q^m - 1 is a circular right shift of the word, so
both patterns below are read cyclically.  These functions test one word at a
time and share nothing with the mask kernel in defsets, which is what lets
the oracles and the tests use them as an independent route.
"""

from __future__ import annotations

from .errors import ParameterError

__all__ = ["profile_counts", "matches_dual_exclusion"]


def _cyclic_run_lengths(flags: list[bool], m: int) -> list[int]:
    """run[i] = number of consecutive True flags cyclically starting at i, capped at m."""
    if all(flags):
        return [m] * m
    if not any(flags):
        return [0] * m
    run = [0] * (2 * m + 1)
    for j in range(2 * m - 1, -1, -1):
        run[j] = run[j + 1] + 1 if flags[j % m] else 0
    return [min(x, m) for x in run[:m]]


def profile_counts(digits, m: int, a: int, b: int, t: int) -> tuple[int, int]:
    """(k, ell) of a length-m digit sequence, lowest power first.

    k counts positions whose digit lies in [1, b] followed cyclically by t
    zeros; ell counts positions whose digit lies in [b+1, a] followed
    cyclically by t+1 zeros.  Counting is per starting position of the head
    digit.  The arguments are not validated: callers pass parameters of the
    counting regime.
    """
    zrun = _cyclic_run_lengths([d == 0 for d in digits], m)
    k = ell = 0
    for i in range(m):
        h = digits[i]
        if h == 0:
            continue
        following = zrun[i + 1] if i + 1 < m else zrun[0]
        if h <= b:
            if following >= t:
                k += 1
        elif h <= a and following >= t + 1:
            ell += 1
    return k, ell


def matches_dual_exclusion(s: int, q: int, m: int, a: int, b: int, t: int) -> bool:
    """True iff some rotation of the word of s reads x_1 ... x_{m-t-1} y (q-1)^t
    with every x_i in [q-1-a, q-1] and y in [q-1-b, q-1].

    This full-length cyclic pattern characterizes the values excluded from
    the dual defining set; membership there is the negation.  Unlike the
    counting regime, a and b are independent here (either may be larger).
    """
    if not (1 <= a <= q - 1 and 1 <= b <= q - 1):
        raise ParameterError(f"need 1 <= a, b <= q-1, got a={a}, b={b}, q={q}")
    if not 0 <= t <= m - 1:
        raise ParameterError(f"need 0 <= t <= m-1, got t={t}, m={m}")
    if not 0 <= s <= q**m - 1:
        raise ParameterError(f"value {s} out of range [0, {q}^{m} - 1]")
    digits = []
    for _ in range(m):
        s, r = divmod(s, q)
        digits.append(r)
    xlo, ylo, top = q - 1 - a, q - 1 - b, q - 1
    xrun = _cyclic_run_lengths([d >= xlo for d in digits], m)
    frun = _cyclic_run_lengths([d == top for d in digits], m)
    head = m - t - 1
    for r in range(m):
        if (
            xrun[r] >= head
            and digits[(r + head) % m] >= ylo
            and frun[(r + head + 1) % m] >= t
        ):
            return True
    return False

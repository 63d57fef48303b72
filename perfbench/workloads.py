"""The four benchmark workloads.

Each workload is a fixed list of items.  For every item it says how the item
runs through the package's public API (``run``, inside the timed region),
how the raw result becomes a compact JSON value with an answer count
(``finish``, after the timer stops), and how that value is checked against
the pinned one (``check``).  The item lists never depend on the seed; the
seed only feeds the package's randomised probes and the order of the items.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

# Verification modes that tested every membership.  Any other mode (today
# "sampled") is not an exactly established answer.
EXACT_MODES = ("full", "exact")


def digest(obj: Any) -> str:
    """Short SHA-256 of the canonical JSON form of obj."""
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def members_digest(members: list[int]) -> str:
    """Short SHA-256 over the members in iteration order, 8 bytes each."""
    h = hashlib.sha256()
    for i in range(0, len(members), 4096):
        h.update(b"".join(s.to_bytes(8, "little") for s in members[i:i + 4096]))
    return h.hexdigest()[:16]


def item_key(item: tuple) -> str:
    return ",".join(str(x) for x in item)


@dataclass(frozen=True)
class Finished:
    """An item in checkable form: its value, how many answers it gave, how
    many of them were established exactly, labels for the rest, and extra
    counters for the traced run."""

    value: Any
    answers: int
    exact: int
    inexact: tuple[str, ...] = ()
    counters: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    items: Callable[[bool], list[tuple]]
    run: Callable[[Any, tuple, int], Any]
    finish: Callable[[tuple, Any], Finished]
    check: Callable[[tuple, Any, Any], bool]
    # The pin written for an item's value at a trusted commit.
    make_pin: Callable[[Any, tuple, Any], Any] = lambda cc, item, value: value


def _non_degenerate(q: int, t: int, a: int, b: int) -> bool:
    return not (a == b == q - 1 and t == 0)


# ---------------------------------------------------------------------------
# queries: closed-form parameter queries, nothing materialised
# ---------------------------------------------------------------------------

QUERY_M_LIMITS = {2: 56, 3: 32, 4: 20, 5: 20, 7: 8, 8: 8, 9: 8, 16: 8, 27: 8}
# Every QUERY_STRIDE-th point of the grid, so the job fits the run length
# while still reaching the largest m of every q.
QUERY_STRIDE = 4
# Independent facts: the worked example |T(3,4,1,2,1)| = 47, and the
# [16, 7] extended code at (2,4,2,1,1).
QUERY_FACTS = {(3, 4, 1, 2, 1): (0, 47), (2, 4, 2, 1, 1): (1, 7)}


def _query_items(tiny: bool) -> list[tuple]:
    grid = [
        (q, m, t, a, b)
        for q, m_max in QUERY_M_LIMITS.items()
        for m in range(2, m_max + 1)
        for t in range(m)
        for a in range(1, q)
        for b in range(1, a + 1)
        if _non_degenerate(q, t, a, b)
    ]
    items = grid[:40] if tiny else grid[::QUERY_STRIDE]
    return items + [p for p in QUERY_FACTS if p not in items]


def _query_run(cc, item: tuple, seed: int):
    p = cc.CodeParams(*item)
    rep = cc.dimension(p)
    sizes = cc.class_sizes(p)  # the two calls the size-t command makes
    size_t = cc.closed_size_T(p)
    return rep, sizes, size_t, cc.stated_bound(p), cc.max_zero_prefix(p), cc.classify_case(p)


def _query_finish(item: tuple, raw) -> Finished:
    rep, sizes, size_t, stated, prefix, case = raw
    classes = digest(sorted([k, ell, v] for (k, ell), v in sizes.items()))
    value = [rep.size_T, rep.dim, rep.is_bch, rep.delta, size_t, classes, stated, prefix, case]
    return Finished(value, answers=5, exact=5)


def _query_check(item: tuple, value, pin) -> bool:
    q, m = item[0], item[1]
    size_T, dim, size_t = value[0], value[1], value[4]
    if dim != q**m - size_T or size_t != size_T:
        return False
    if item in QUERY_FACTS:
        index, expected = QUERY_FACTS[item]
        if value[index] != expected:
            return False
    return digest(value) == pin


# ---------------------------------------------------------------------------
# materialize: defining sets scanned over the whole index range
# ---------------------------------------------------------------------------

MATERIALIZE_POINTS = [(2, 16, 5, 1, 1), (3, 10, 4, 2, 1), (4, 8, 2, 3, 2)]
MATERIALIZE_TINY = [(2, 6, 2, 1, 1), (3, 4, 1, 2, 1)]


def _materialize_items(tiny: bool) -> list[tuple]:
    return list(MATERIALIZE_TINY if tiny else MATERIALIZE_POINTS)


def _materialize_run(cc, item: tuple, seed: int):
    p = cc.CodeParams(*item)
    T = cc.build_T(p)
    dual = cc.dual_set_pattern(p)
    same = dual == cc.dual_set(T)  # reflect, then complement
    return len(T), list(T), len(dual), list(dual), same


def _materialize_finish(item: tuple, raw) -> Finished:
    size_T, t_members, size_dual, dual_members, same = raw
    value = [size_T, len(t_members), members_digest(t_members),
             size_dual, len(dual_members), members_digest(dual_members), same]
    # T, the dual by its pattern, the dual by reflection
    return Finished(value, answers=3, exact=3)


def _materialize_check(item: tuple, value, pin) -> bool:
    q, m = item[0], item[1]
    size_T, iter_T, _, size_dual, iter_dual, _, same = value
    # s -> n - s is a bijection, so the dual has q^m - |T| members.
    sound = same and iter_T == size_T and iter_dual == size_dual and size_dual == q**m - size_T
    return sound and value == pin


# ---------------------------------------------------------------------------
# certify: (v, z, S) certificates built, re-checked and audited
# ---------------------------------------------------------------------------

CERTIFY_QS = (2, 3, 4, 5, 7, 8, 9)
CERTIFY_LIMIT = 700  # q^m <= this; the grid reaches nine of the eleven cases
# On top of the grid: case 2 and case 1 at their smallest points, and two
# rows of the (q, m) = (5, 10) table, (t=8, b=1) and (t=8, b=2), whose
# checks fall back to sampling at the seed commit.
CERTIFY_EXTRA = [(3, 6, 1, 2, 1), (3, 7, 1, 2, 1), (5, 10, 8, 4, 1), (5, 10, 8, 4, 2)]
# The published table for q = 5, m = 10, a = 4: the stated bound per (t, b).
TABLE2_PAPER = [
    1953126, 1953124, 1953122, 390640,
    390635, 390630, 390625, 78204,
    78183, 78162, 78141, 16024,
    15923, 15822, 15721, 5124,
    4623, 4122, 3621, 3121,
    2492, 1866, 1242, 621,
    615, 610, 605, 121,
]
TABLE2_ITEM = ("table2",)


def _certify_items(tiny: bool) -> list[tuple]:
    grid = []
    for q in CERTIFY_QS:
        m = 2
        while q**m <= (16 if tiny else CERTIFY_LIMIT):
            grid += [
                (q, m, t, a, b)
                for t in range(m)
                for a in range(1, q)
                for b in range(1, q)
                if _non_degenerate(q, t, a, b)
            ]
            m += 1
    return [TABLE2_ITEM] + grid + ([] if tiny else CERTIFY_EXTRA)


def _certify_run(cc, item: tuple, seed: int):
    if item == TABLE2_ITEM:
        return [cc.stated_bound(cc.CodeParams(5, 10, t, 4, b))
                for t in range(8, 1, -1) for b in range(1, 5)]
    p = cc.CodeParams(*item)
    cert = cc.build_certificate(p)
    result = cc.verify_certificate(cert, p, seed=seed)
    return cert, result, cc.audit(p, seed=seed)


def _certify_finish(item: tuple, raw) -> Finished:
    if item == TABLE2_ITEM:
        return Finished(raw, answers=len(raw), exact=len(raw))
    cert, result, row = raw
    value = [cert.case_id, cert.v, cert.z, cert.s_size, cert.claimed_bound,
             result.passed, result.certified_bound,
             row.stated, row.certified, row.verified_ok]
    inexact = tuple(f"{item_key(item)}:{what}({mode})"
                    for what, mode in (("verify", result.mode), ("audit", row.mode))
                    if mode not in EXACT_MODES)
    return Finished(value, answers=2, exact=2 - len(inexact), inexact=inexact)


def _certify_check(item: tuple, value, pin) -> bool:
    if item == TABLE2_ITEM:
        return value == TABLE2_PAPER and value == pin
    claimed, passed, certified = value[4], value[5], value[6]
    return passed and certified == claimed and value == pin


# ---------------------------------------------------------------------------
# crosscheck: the CLI oracle suite and exhaustive dual distances
# ---------------------------------------------------------------------------

VERIFY_MAX_N = 16
DISTANCE_POINTS = [
    # the criterion-9 instances of the acceptance suite
    (2, 2, 1, 1, 1), (2, 3, 1, 1, 1), (2, 3, 2, 1, 1), (2, 4, 1, 1, 1),
    (2, 4, 2, 1, 1), (2, 4, 3, 1, 1), (2, 5, 2, 1, 1), (2, 5, 3, 1, 1),
    (2, 5, 4, 1, 1), (3, 2, 1, 1, 1), (3, 2, 1, 2, 1), (3, 2, 1, 2, 2),
    (3, 3, 1, 1, 1), (3, 3, 2, 2, 1), (3, 3, 2, 2, 2), (3, 4, 2, 1, 1),
    (3, 4, 3, 2, 1), (3, 4, 3, 2, 2),
    # case-8 points whose dual dimension is beyond brute force at the seed
    (2, 5, 1, 1, 1), (2, 6, 2, 1, 1), (2, 6, 3, 1, 1), (2, 6, 4, 1, 1),
]
DISTANCE_TINY = [(2, 3, 1, 1, 1), (2, 4, 2, 1, 1), (3, 2, 1, 2, 2)]
DISTANCE_KINDS = ("exact", "budget-exhausted")


def _crosscheck_items(tiny: bool) -> list[tuple]:
    points = DISTANCE_TINY if tiny else DISTANCE_POINTS
    return [("verify", 4 if tiny else VERIFY_MAX_N)] + [("dist",) + p for p in points]


def _crosscheck_run(cc, item: tuple, seed: int):
    if item[0] == "verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cc.cli.main(["verify", "--max-n", str(item[1]), "--seed", str(seed),
                                "--format", "json", "--no-timestamp"])
        return code, out.getvalue()
    p = cc.CodeParams(*item[1:])
    field = cc.field_make(p.q, p.m)
    T = cc.build_T(p)
    return (cc.dual_min_distance(field, T),
            cc.dual_min_distance(field, T, extended=True))


def _crosscheck_finish(item: tuple, raw) -> Finished:
    if item[0] == "verify":
        code, text = raw
        report = json.loads(text)
        passes = {row["check"]: row["passes"] for row in report["rows"]}
        value = [code, report["points"], report["failures"], passes]
        return Finished(value, answers=0, exact=0,
                        counters=(("cli.points", report["points"]),))
    cyc, ext = raw
    value = [cyc.kind, cyc.value, ext.kind, ext.value]
    inexact = tuple(f"{item_key(item[1:])}:{what}({r.kind})"
                    for what, r in (("cyclic", cyc), ("extended", ext))
                    if r.kind != "exact")
    return Finished(value, answers=2, exact=2 - len(inexact), inexact=inexact)


def _distance_ok(kind: str, d: int, cert: int, pin: dict) -> bool:
    """cert is the certified lower bound; pin holds the exact distance, or
    the best weight seen ("upper") where the seed commit ran out of budget.
    A budget-exhausted value is itself only an upper bound."""
    if kind not in DISTANCE_KINDS or d < cert:
        return False
    if kind == "exact":
        return d == pin["exact"] if "exact" in pin else d <= pin["upper"]
    return d >= pin.get("exact", cert)


def _crosscheck_check(item: tuple, value, pin) -> bool:
    if item[0] == "verify":
        return value[0] == 0 and value[2] == 0 and value == pin
    cyc_kind, cyc_d, ext_kind, ext_d = value
    if cyc_kind == ext_kind == "exact" and cyc_d != ext_d:
        return False
    return (_distance_ok(cyc_kind, cyc_d, pin["cert"], pin["cyclic"])
            and _distance_ok(ext_kind, ext_d, pin["cert"], pin["extended"]))


def _crosscheck_pin(cc, item: tuple, value):
    if item[0] == "verify":
        return value
    p = cc.CodeParams(*item[1:])
    cert = cc.verify_certificate(cc.build_certificate(p), p).certified_bound
    return {"cert": cert, **{
        code: {"exact" if kind == "exact" else "upper": d}
        for code, kind, d in (("cyclic", value[0], value[1]), ("extended", value[2], value[3]))
    }}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("queries", _query_items, _query_run, _query_finish, _query_check,
                 lambda cc, item, value: digest(value)),
        Workload("materialize", _materialize_items, _materialize_run, _materialize_finish,
                 _materialize_check),
        Workload("certify", _certify_items, _certify_run, _certify_finish, _certify_check),
        Workload("crosscheck", _crosscheck_items, _crosscheck_run, _crosscheck_finish,
                 _crosscheck_check, _crosscheck_pin),
    )
}

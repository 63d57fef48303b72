"""Command-line interface.

Subcommands: dim, size-t, coset, bound, audit, table, verify, gen-poly.
Exit status: 0 success, 2 parameter error, 3 resource or budget error,
4 oracle verification mismatch (details on stderr), 5 internal consistency
error.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from bisect import bisect_left, bisect_right
from itertools import product
from math import floor, log10
from typing import Callable

from . import bounds, counting, defsets, galois, oracle
from .cosets import DefiningSet, coset_of
from .counting import CodeParams
from .errors import ConsistencyError, ParameterError, ResourceLimitError
from .galois import SUPPORTED_Q, field_make, has_builtin_modulus

SCHEMA_VERSION = "1"

# A grid may examine at most this many (q, m, t, a, b) combinations, and one
# value list may hold at most this many values.
GRID_POINT_CAP = 100_000

DIM_GENERATOR_CAP = 1 << 16  # largest q^m of dim --verify's generator degree
VERIFY_DIM_CAP = 512  # largest q^m of verify's dimension check
VERIFY_PROBE_CAP = 128  # largest q^m of verify's affine probe
VERIFY_MAX_N_CAP = 65536  # largest --max-n of verify: 14,562 points, about 34 s
# Largest coset report, in digits: m elements of up to the digit count of
# q^m - 1 each.
COSET_REPORT_DIGITS = 1 << 24

GRID_VARS = ("q", "m", "t", "a", "b")

GRID_HELP = f"""\
Grid mini-language (clauses joined by ';'):

  grid   := clause (';' clause)*
  clause := var '=' values | var '<=' var
  values := '*' | item (',' item)*
  item   := INT | INT '..' INT
  var    := 'q' | 'm' | 't' | 'a' | 'b'

'q' and 'm' need explicit values or ranges; for 't', 'a', 'b' the value '*'
(also the default when the clause is omitted) means every valid value given
q and m.  A 'x<=y' clause filters combinations.  Values of q that are not
prime powers, and out-of-regime points (m < 2 or the zero-code point
a = b = q-1 with t = 0 for bound commands), are skipped.  Points come out in
ascending (q, m, t, a, b) order, each once.

Values of t outside [0, m-1] and of a, b outside [1, q-1] are dropped first.
Every remaining (q, m, t, a, b) combination counts against the grid cap of
{GRID_POINT_CAP}, whether or not a 'x<=y' clause keeps it; past the cap the
command exits 3.  A value list holds at most {GRID_POINT_CAP} values.
Example: 'q=2..5;m=2..8;t=*;a=*;b<=a'

Exit status:
  0  success
  2  parameter error: bad parameters, grid or arguments
  3  resource limit: a materialization cap, enumeration budget, grid cap,
     verify's --max-n cap or coset's report cap, or a report value longer
     than the interpreter's int-to-str digit limit
  4  oracle verification mismatch (details on stderr)
  5  internal consistency error: an identity that must hold failed
"""


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _stringify_big_ints(obj, path: str, found: list[str]):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        if abs(obj) >= 1 << 53:
            found.append(path)
            return str(obj)
        return obj
    if isinstance(obj, dict):
        return {k: _stringify_big_ints(v, f"{path}.{k}" if path else k, found) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify_big_ints(v, f"{path}[{i}]", found) for i, v in enumerate(obj)]
    return obj


# The format modules are imported by the renderer that needs them, and
# datetime only when a timestamp is written: every command is a fresh
# interpreter, and most render one format without one.


def _generated_at() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def render_json(meta: dict, rows: list[dict], no_timestamp: bool) -> str:
    import json

    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(meta)
    if not no_timestamp:
        doc["generated_at"] = _generated_at()
    doc["rows"] = rows
    found: list[str] = []
    doc = _stringify_big_ints(doc, "", found)
    doc["stringified_int_fields"] = sorted(found)
    return json.dumps(doc, indent=2) + "\n"


def render_csv(rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
    return buf.getvalue()


def render_text(meta: dict, rows: list[dict], no_timestamp: bool) -> str:
    lines = []
    for k, v in meta.items():
        if k == "command":
            continue
        lines.append(f"{k}: {v}")
    if not no_timestamp:
        lines.append(f"generated_at: {_generated_at()}")
    if rows:
        cols = list(rows[0].keys())
        table = [[str(r.get(c, "")) for c in cols] for r in rows]
        widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for row in table:
            lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def emit(args, meta: dict, rows: list[dict]) -> None:
    try:
        if args.format == "json":
            out = render_json(meta, rows, args.no_timestamp)
        elif args.format == "csv":
            out = render_csv(rows)
        else:
            out = render_text(meta, rows, args.no_timestamp)
    except ValueError:  # rendering's one ValueError: str() of an int past the limit
        raise ResourceLimitError(f"a report value has more than {sys.get_int_max_str_digits()}"
                                 " digits (the interpreter's int-to-str limit)") from None
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise ParameterError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# grid specification
# ---------------------------------------------------------------------------


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"bad grid value {text!r}: not an integer") from None


def _check_grid_size(count: int, what: str) -> None:
    if count > GRID_POINT_CAP:
        raise ResourceLimitError(
            f"grid has more than {GRID_POINT_CAP} {what} (the grid point cap)"
        )


def _parse_values(text: str) -> list[int] | None:
    if text == "*":
        return None
    out: list[int] = []
    for item in text.split(","):
        if ".." in item:
            lo, hi = item.split("..", 1)
            values = range(_parse_int(lo), _parse_int(hi) + 1)
            _check_grid_size(len(out) + len(values), "values in one list")
            out.extend(values)
        else:
            out.append(_parse_int(item))
    return out


def _in_range(values: list[int] | None, lo: int, hi: int):
    """The values in [lo, hi] of a sorted list; every one of them for '*'."""
    if values is None:
        return range(lo, hi + 1)
    return values[bisect_left(values, lo):bisect_right(values, hi)]


def parse_grid(spec: str) -> list[CodeParams]:
    values: dict[str, list[int] | None] = dict.fromkeys(GRID_VARS)
    constraints: list[tuple[int, int]] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "<=" in clause:
            left, right = (x.strip() for x in clause.split("<=", 1))
            if left not in GRID_VARS or right not in GRID_VARS:
                raise ParameterError(f"bad constraint clause {clause!r}")
            constraints.append((GRID_VARS.index(left), GRID_VARS.index(right)))
        elif "=" in clause:
            var, rhs = (x.strip() for x in clause.split("=", 1))
            if var not in GRID_VARS:
                raise ParameterError(f"unknown grid variable {var!r}")
            parsed = _parse_values(rhs)
            values[var] = None if parsed is None else sorted(set(parsed))
        else:
            raise ParameterError(f"bad grid clause {clause!r}")
    if values["q"] is None or values["m"] is None:
        raise ParameterError("grid needs explicit values for q and m")
    # m must exceed the smallest valid t, so each (q, m) pair below adds at
    # least one combination and the count bounds the work.
    valid_t = _in_range(values["t"], 0, max(values["m"], default=0) - 1)
    if not valid_t:
        return []
    ms = values["m"][bisect_right(values["m"], valid_t[0]):]
    blocks = []
    examined = 0
    for q in values["q"]:
        if not counting._is_prime_power(q):
            continue
        as_ = _in_range(values["a"], 1, q - 1)
        bs = _in_range(values["b"], 1, q - 1)
        if not as_ or not bs:
            continue
        for m in ms:
            ts = _in_range(values["t"], 0, m - 1)
            examined += len(ts) * len(as_) * len(bs)
            _check_grid_size(examined, "combinations")
            blocks.append((q, m, ts, as_, bs))
    points: list[CodeParams] = []
    for q, m, ts, as_, bs in blocks:
        for t, a, b in product(ts, as_, bs):
            point = (q, m, t, a, b)
            if all(point[l] <= point[r] for l, r in constraints):
                points.append(CodeParams(*point))
    return points


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _params_from_args(args) -> CodeParams:
    return CodeParams(args.q, args.m, args.t, args.a, args.b)


def cmd_dim(args) -> int:
    params = _params_from_args(args)
    report = defsets.dimension(params)
    meta = {"command": "dim"}
    row = {
        "q": params.q, "m": params.m, "t": params.t, "a": params.a, "b": params.b,
        "size_T": report.size_T, "dim": report.dim,
        "is_bch": report.is_bch, "delta": report.delta,
    }
    if args.verify:
        T = defsets.build_T(params)
        materialized = params.index_size - len(T)
        row["dim_materialized"] = materialized
        if has_builtin_modulus(params.q, params.m):
            if params.index_size <= DIM_GENERATOR_CAP:
                field = field_make(params.q, params.m)
                row["dim_generator_degree"] = oracle.brute_dimension(field, T)
        checks = [v for k, v in row.items() if k.startswith("dim")]
        if len(set(checks)) != 1:
            print(f"dimension mismatch: {row}", file=sys.stderr)
            emit(args, meta, [row])
            return 4
    emit(args, meta, [row])
    return 0


def cmd_size_t(args) -> int:
    params = _params_from_args(args)
    sizes = counting.class_sizes(params)
    rows = [{"k": k, "ell": ell, "class_size": v} for (k, ell), v in sizes.items()]
    meta = {"command": "size-t", "q": params.q, "m": params.m, "t": params.t,
            "a": params.a, "b": params.b, "size_T": counting.closed_size_T(params)}
    emit(args, meta, rows)
    return 0


def cmd_coset(args) -> int:
    if not counting._is_prime_power(args.q):
        raise ParameterError(f"q must be a prime power >= 2, got {args.q}")
    limit = sys.get_int_max_str_digits()
    # q^m - 1 has floor(m log10 q) + 1 digits; a negative s is left to
    # coset_of's range check, which rejects it without forming q^m
    if limit and args.m >= limit / log10(args.q) and args.s >= 0:
        raise ResourceLimitError(
            f"the elements modulo {args.q}^{args.m} - 1 can have more than {limit} digits"
            " (the interpreter's int-to-str limit)"
        )
    # a coset has at most m elements; m past the cap is refused unread, so
    # the digit count is formed only for an m that a float holds
    if args.s >= 0 and args.m > 0 and (
            args.m > COSET_REPORT_DIGITS
            or args.m * (floor(args.m * log10(args.q)) + 1) > COSET_REPORT_DIGITS):
        raise ResourceLimitError(
            f"the coset modulo {args.q}^{args.m} - 1 can list {args.m} elements of as many"
            f" digits as q^m - 1, past the coset report cap of {COSET_REPORT_DIGITS} digits"
        )
    c = coset_of(args.s, args.q, args.m)
    meta = {"command": "coset", "q": args.q, "m": args.m, "s": args.s,
            "leader": c.leader, "size": c.size}
    rows = [{"element": e} for e in c.elements]
    emit(args, meta, rows)
    return 0


def cmd_bound(args) -> int:
    params = _params_from_args(args)
    case_id = bounds.classify_case(params)
    row = {
        "q": params.q, "m": params.m, "t": params.t, "a": params.a, "b": params.b,
        "case": case_id, "case_label": bounds.CASE_LABELS[case_id],
        "stated_bound": bounds.stated_bound(params),
    }
    meta = {"command": "bound"}
    if args.certificate:
        cert = bounds.build_certificate(params)
        result = bounds.verify_certificate(cert, params)
        row.update(
            v=cert.v, z=cert.z, s_size=cert.s_size,
            s_min=cert.s_min, s_max=cert.s_max,
            claimed_bound=cert.claimed_bound,
            verified=result.passed, verification_mode=result.mode,
        )
        if cert.s_set is not None and cert.s_size <= 64:
            row["s_set"] = " ".join(str(x) for x in cert.s_set)
        for name, ok, detail in result.conditions:
            row[f"condition_{name}"] = f"{'pass' if ok else 'FAIL'} ({detail})"
    emit(args, meta, [row])
    return 0


def _audit_row(params: CodeParams) -> dict:
    row = bounds.audit(params)
    return {
        "q": params.q, "m": params.m, "t": params.t, "a": params.a, "b": params.b,
        "case": row.case_id, "stated": row.stated, "certified": row.certified,
        "verified_ok": row.verified_ok, "mode": row.mode,
        "mismatch": row.mismatch, "stated_sound": row.stated_sound,
    }


def cmd_audit(args) -> int:
    rows = [_audit_row(p) for p in parse_grid(args.grid) if p.m >= 2 and not p.is_degenerate]
    findings = [r for r in rows if r["mismatch"] != 0 or not r["verified_ok"]]
    meta = {"command": "audit", "grid": args.grid, "points": len(rows),
            "findings": len(findings)}
    emit(args, meta, rows)
    return 0


def cmd_table(args) -> int:
    q, m = 5, 10
    rows = []
    for t in range(8, 1, -1):
        for b in range(1, 5):
            params = CodeParams(q, m, t, q - 1, b)
            rows.append({
                "t": t, "b": b, "delta": params.designed_distance,
                "bound": bounds.stated_bound(params),
            })
    meta = {"command": "table", "preset": args.preset, "q": q, "m": m}
    emit(args, meta, rows)
    return 0


def cmd_gen_poly(args) -> int:
    field = field_make(args.q, args.m)
    D = defsets.bch_set(args.q, args.m, args.delta)
    g = galois.generator_polynomial(field, D)
    meta = {"command": "gen-poly", "q": args.q, "m": args.m, "delta": args.delta,
            "degree": g.degree, "dim": field.n - g.degree,
            "defining_set_size": len(D)}
    rows = [{"power": i, "coefficient": c} for i, c in enumerate(g.coeffs)]
    emit(args, meta, rows)
    return 0


# ---------------------------------------------------------------------------
# verify: the oracle cross-check suite
# ---------------------------------------------------------------------------


def _verify_code(params: CodeParams) -> tuple[dict[str, str], DefiningSet]:
    """The code-level checks, once per code at its normalized point (b <= a),
    in report order: name -> "" on a pass, else the mismatch without the
    point; and the dual set they built, which the prefix scan reads.  At
    t = m - 1 a point of the code has a = q - 1, so the BCH check runs."""
    q, m, t, a, b = params
    out: dict[str, str] = {}

    def check(name: str, ok: bool, detail: Callable[[], str]) -> None:
        # the detail is formatted only for a failed check
        out[name] = "" if ok else detail()

    T = defsets.build_T(params)
    bT = oracle.brute_T(params)
    check("defining-set: pattern vs definition", T == bT,
          lambda: "pattern build differs from definitional build")
    closed = counting.closed_size_T(params)
    check("set size: closed form vs enumeration", closed == len(bT),
          lambda: f"closed {closed} != enumerated {len(bT)}")
    sizes = counting.class_sizes(params)
    census = oracle.brute_class_census(params)
    ok = all(census.get(kl, 0) == v for kl, v in sizes.items()) and set(census) <= set(sizes)
    check("class sizes: inversion vs census", ok, lambda: f"{sizes} vs {census}")
    check("descendant closure fixed point", defsets.descendant_closure(T) == T,
          lambda: "T is not descendant-closed")
    Tperp = defsets.dual_set_pattern(params)
    check("dual set: pattern vs reflection", Tperp == defsets.dual_set(T),
          lambda: "dual pattern build differs from reflection")
    if (a == q - 1 or t == m - 1) and not params.is_degenerate:
        bch = defsets.bch_set(q, m, params.designed_distance)
        ok = T.difference(DefiningSet.from_members(q, m, [0])) == bch
        check("BCH identity", ok, lambda: "T minus 0 differs from the BCH set")
    if q**m <= VERIFY_DIM_CAP and has_builtin_modulus(q, m) and not params.is_degenerate:
        field = field_make(q, m)
        rep = defsets.dimension(params)
        bd = oracle.brute_dimension(field, T)
        check("dimension: closed form vs generator degree", rep.dim == bd,
              lambda: f"closed {rep.dim} != degree-based {bd}")
        if q**m <= VERIFY_PROBE_CAP:
            ok = oracle.affine_invariance_probe(field, params, defining_set=bT)
            check("affine invariance probe", ok,
                  lambda: "a generator row moved by x -> x + 1 left the code")
    return out, Tperp


def cmd_verify(args) -> int:
    """Each point reports its code's checks, then its own prefix and
    certificate checks, which read the raw a."""
    if args.max_n < 2:
        raise ParameterError(f"--max-n {args.max_n} < 2 admits no point to check")
    if args.max_n > VERIFY_MAX_N_CAP:
        raise ResourceLimitError(
            f"--max-n {args.max_n} is past the verify cap of {VERIFY_MAX_N_CAP}")
    points: list[CodeParams] = []
    for q in SUPPORTED_Q:
        m = 1
        while q**m <= args.max_n:
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, q):
                        if b <= a or m >= 2:
                            points.append(CodeParams(q, m, t, a, b))
            m += 1
    codes: dict[CodeParams, tuple[dict[str, str], DefiningSet]] = {}
    passes: dict[str, int] = {}
    failures: list[str] = []
    for params in points:
        q, m, t, a, b = params
        if b <= a:
            key = params.normalized()
            if key not in codes:
                codes[key] = _verify_code(key)
            checks, Tperp = codes[key]
            outcomes = [(name, text) for name, text in checks.items()
                        if name != "BCH identity" or a == q - 1]
        else:
            outcomes, Tperp = [], defsets.dual_set_pattern(params)
        if m >= 2 and not params.is_degenerate:
            vf = bounds.max_zero_prefix(params)
            vb = oracle.brute_max_prefix(Tperp)
            outcomes.append(("zero prefix: formula vs scan",
                             "" if vf == vb else f"formula {vf} != scan {vb}"))
            res = bounds.verify_certificate(bounds.build_certificate(params), params)
            outcomes.append(("certificate conditions",
                             "" if res.passed else str([c for c in res.conditions if not c[1]])))
        for name, text in outcomes:
            if text:
                failures.append(f"{name}: {tuple(params)}: {text}")
            else:
                passes[name] = passes.get(name, 0) + 1
    meta = {"command": "verify", "max_n": args.max_n, "seed": args.seed,
            "points": len(points), "failures": len(failures)}
    rows = [{"check": k, "passes": v} for k, v in sorted(passes.items())]
    emit(args, meta, rows)
    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _terminal_columns() -> int:
    """What shutil.get_terminal_size() gives argparse for the width: COLUMNS
    if positive, else the terminal's width, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class _HelpFormatter(argparse.RawDescriptionHelpFormatter):
    """argparse makes a formatter for every add_argument, and the stock one
    imports shutil (with fnmatch and the compression modules) to read the
    terminal width at once; this one reads it only when help is rendered."""

    def __init__(self, prog: str) -> None:
        super().__init__(prog, width=80)  # replaced in format_help

    def format_help(self) -> str:
        # as HelpFormatter.__init__ sets them for width=None, with its
        # default max_help_position of 24
        self._width = _terminal_columns() - 2
        self._max_help_position = min(24, max(self._width - 20, self._indent_increment * 2))
        return super().format_help()


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--out", help="write the report to this path")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the generated_at field for byte-identical output")


def _add_params(sub) -> None:
    for name in ("q", "m", "t", "a", "b"):
        sub.add_argument(f"--{name}", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclocode",
        description="Exact parameters and dual-distance certificates for a "
                    "family of affine-invariant and BCH codes.",
        epilog=GRID_HELP,
        formatter_class=_HelpFormatter,
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return subs.add_parser(name, help=help, formatter_class=_HelpFormatter)

    p = command("dim", "dimension of the code for (q, m, t, a, b)")
    _add_params(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against materialized sets and, for a built-in "
                        f"field with q^m <= {DIM_GENERATOR_CAP}, the generator degree")
    _add_common(p)
    p.set_defaults(fn=cmd_dim)

    p = command("size-t", "defining-set size with the class breakdown")
    _add_params(p)
    _add_common(p)
    p.set_defaults(fn=cmd_size_t)

    p = command("coset", "cyclotomic coset of s modulo q^m - 1")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True,
                   help="exit 3 when q^m - 1 has more digits than the interpreter's "
                        "int-to-str limit, or m times that digit count exceeds the "
                        f"coset report cap of {COSET_REPORT_DIGITS} digits, before q^m "
                        "is formed")
    p.add_argument("--s", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_coset)

    p = command("bound", "dual-distance lower bound, optionally certified")
    _add_params(p)
    p.add_argument("--certificate", action="store_true",
                   help="build and verify the (v, z, S) certificate")
    _add_common(p)
    p.set_defaults(fn=cmd_bound)

    p = command("audit", "stated vs certified bounds over a grid")
    p.add_argument("--grid", required=True, help="see the grid mini-language below")
    _add_common(p)
    p.set_defaults(fn=cmd_audit)

    p = command("table", "reproduce a bound table preset")
    p.add_argument("--preset", required=True, choices=("table2",))
    _add_common(p)
    p.set_defaults(fn=cmd_table)

    p = command("verify", "run the oracle cross-check suite")
    p.add_argument("--max-n", type=int, required=True,
                   help="check every parameter set with q^m <= this, from 2 to the "
                        f"verify cap of {VERIFY_MAX_N_CAP}; q^m caps: dimension check "
                        f"{VERIFY_DIM_CAP}, affine probe {VERIFY_PROBE_CAP}")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and reported in meta; no check uses it (default 0)")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = command("gen-poly", "generator polynomial of a BCH code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_gen_poly)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

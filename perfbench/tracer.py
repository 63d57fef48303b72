"""Per-layer tracing from outside the package.

The tracer replaces each public function of the package's modules with a
timing wrapper, at every module attribute through which callers look it up
(``cyclocode.build_T``, ``cyclocode.defsets.build_T``, ``oracle.build_T``
and so on), plus the ``DefiningSet`` methods that iterate, reflect,
complement and compare sets.  Field element arithmetic (the methods of
``FieldContext`` and ``BaseField``) and private helpers are not wrapped:
their time counts as self time of the layer that calls them.

Each wrapped call is a span.  Spans are aggregated in memory per function as
a call count, inclusive time and self time (span time minus the time of the
wrapped calls it made).  A layer's busy time is the self time of its
functions.  Counters that depend on arguments or results are computed from
recorded calls after the traced job, outside its timed region.
"""

from __future__ import annotations

import inspect
import time

LAYERS = ("qadic", "cosets", "counting", "defsets", "bounds", "galois", "oracle", "cli")

DEFINING_SET_METHODS = (
    "__iter__", "members", "__eq__", "reflect", "complement",
    "union", "intersection", "difference", "is_rotation_closed",
)
DEFINING_SET_CLASSMETHODS = ("from_members", "empty", "full")

# Unit of every per-layer metric the traced run reports.
LAYER_UNITS = {
    "counting.calls": "count",
    "counting.busy_s": "s",
    "counting.pairs": "count",
    "counting.us_per_pair": "us",
    "defsets.calls": "count",
    "defsets.busy_s": "s",
    "defsets.values_scanned": "count",
    "defsets.ns_per_value": "ns",
    "cosets.busy_s": "s",
    "cosets.members_yielded": "count",
    "cosets.ns_per_member": "ns",
    "qadic.calls": "count",
    "qadic.busy_s": "s",
    "bounds.calls": "count",
    "bounds.busy_s": "s",
    "bounds.membership_checks": "count",
    "bounds.us_per_check": "us",
    "bounds.s_enumerated": "count",
    "bounds.exact_ratio": "ratio",
    "galois.field_make.calls": "count",
    "galois.field_make.busy_s": "s",
    "galois.generator_polynomial.busy_s": "s",
    "galois.busy_s": "s",
    "oracle.busy_s": "s",
    "oracle.affine_probe.busy_s": "s",
    "oracle.affine_probe.field_ops": "ops_computed",
    "oracle.brute.busy_s": "s",
    "oracle.distance.busy_s": "s",
    "oracle.distance.codewords": "count",
    "oracle.distance.exact_ratio": "ratio",
    "cli.busy_s": "s",
    "cli.points": "count",
    "trace.overhead_ratio": "ratio",
}

# Functions whose arguments and results feed the computed counters.
RECORDED = (
    "counting.class_sizes",
    "bounds.build_certificate",
    "bounds.verify_certificate",
    "defsets.build_T",
    "defsets.dual_set_pattern",
    "oracle.affine_invariance_probe",
    "oracle.dual_min_distance",
)


class Stats:
    __slots__ = ("calls", "inclusive", "self_time", "yields", "records")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.yields = 0
        self.records: list | None = None


class Tracer:
    """Installs the wrappers, collects the spans, and restores the package."""

    def __init__(self, cc) -> None:
        self.cc = cc
        self.stats: dict[str, Stats] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, Stats())
        if name in RECORDED:
            stats.records = []
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - start
                        stack.pop()
                        stats.calls += 1
                        stats.inclusive += dur
                        stats.self_time += dur - frame[0]
                        if stack:
                            stack[-1][0] += dur
                    stats.yields += 1
                    yield value
        else:
            records = stats.records

            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    stats.calls += 1
                    stats.inclusive += dur
                    stats.self_time += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                if records is not None:
                    records.append((args, kwargs, result))
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        cc = self.cc
        modules = [cc] + [getattr(cc, layer) for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("cyclocode.") or layer not in LAYERS:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(f"{layer}.{value.__qualname__}", value)
                self._set(module, attr, wrappers[id(value)])
        ds = cc.cosets.DefiningSet
        for attr in DEFINING_SET_METHODS:
            self._set(ds, attr, self._wrap(f"cosets.DefiningSet.{attr}", ds.__dict__[attr]))
        for attr in DEFINING_SET_CLASSMETHODS:
            fn = ds.__dict__[attr].__func__
            self._set(ds, attr, classmethod(self._wrap(f"cosets.DefiningSet.{attr}", fn)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- metrics ----------------------------------------------------------

    def _get(self, name: str) -> Stats:
        return self.stats.get(name) or Stats()

    def _records(self, name: str):
        """(bound arguments, result) of every recorded call to name."""
        stats = self._get(name)
        layer, _, attr = name.partition(".")
        fn = getattr(getattr(self.cc, layer), attr)
        signature = inspect.signature(fn)
        for args, kwargs, result in stats.records or ():
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            yield bound.arguments, result

    def layer_metrics(self, exact_modes: tuple[str, ...]) -> dict[str, float]:
        """Per-layer metrics of the traced job.  Call after uninstall()."""
        self_time = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for name, stats in self.stats.items():
            layer = name.partition(".")[0]
            self_time[layer] += stats.self_time
            calls[layer] += stats.calls

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        pairs = sum(_admissible_pair_count(args["params"].m, args["params"].t)
                    for args, _ in self._records("counting.class_sizes"))
        scanned = sum(args["params"].q ** args["params"].m
                      for name in ("defsets.build_T", "defsets.dual_set_pattern")
                      for args, _ in self._records(name))
        scan_time = (self._get("defsets.build_T").self_time
                     + self._get("defsets.dual_set_pattern").self_time)
        iteration = self._get("cosets.DefiningSet.__iter__")
        verified = [result for _, result in self._records("bounds.verify_certificate")]
        checks = sum(r.checked for r in verified)
        s_enumerated = sum(len(cert.s_set) for _, cert in self._records("bounds.build_certificate")
                           if cert.s_set is not None)
        field_ops = 0
        for args, _ in self._records("oracle.affine_invariance_probe"):
            T = args["defining_set"]
            if T is None:
                T = self.cc.build_T(args["params"])
            exponents = len(T) - (T.n in T)
            field_ops += args["trials"] * exponents * args["field"].n
        distances = [result for _, result in self._records("oracle.dual_min_distance")]
        brute = sum(s.inclusive for name, s in self.stats.items()
                    if name.startswith("oracle.brute_"))

        return {
            "counting.calls": calls["counting"],
            "counting.busy_s": self_time["counting"],
            "counting.pairs": pairs,
            "counting.us_per_pair": ratio(self_time["counting"], pairs, 1e6),
            "defsets.calls": calls["defsets"],
            "defsets.busy_s": self_time["defsets"],
            "defsets.values_scanned": scanned,
            "defsets.ns_per_value": ratio(scan_time, scanned, 1e9),
            "cosets.busy_s": self_time["cosets"],
            "cosets.members_yielded": iteration.yields,
            "cosets.ns_per_member": ratio(iteration.self_time, iteration.yields, 1e9),
            "qadic.calls": calls["qadic"],
            "qadic.busy_s": self_time["qadic"],
            "bounds.calls": calls["bounds"],
            "bounds.busy_s": self_time["bounds"],
            "bounds.membership_checks": checks,
            "bounds.us_per_check": ratio(
                self._get("bounds.verify_certificate").inclusive, checks, 1e6),
            "bounds.s_enumerated": s_enumerated,
            "bounds.exact_ratio": ratio(
                sum(r.mode in exact_modes for r in verified), len(verified)),
            "galois.field_make.calls": self._get("galois.field_make").calls,
            "galois.field_make.busy_s": self._get("galois.field_make").inclusive,
            "galois.generator_polynomial.busy_s":
                self._get("galois.generator_polynomial").inclusive,
            "galois.busy_s": self_time["galois"],
            "oracle.busy_s": self_time["oracle"],
            "oracle.affine_probe.busy_s":
                self._get("oracle.affine_invariance_probe").inclusive,
            "oracle.affine_probe.field_ops": field_ops,
            "oracle.brute.busy_s": brute,
            "oracle.distance.busy_s": self._get("oracle.dual_min_distance").inclusive,
            "oracle.distance.codewords": sum(r.enumerated for r in distances),
            "oracle.distance.exact_ratio": ratio(
                sum(r.kind == "exact" for r in distances), len(distances)),
            "cli.busy_s": self_time["cli"],
        }


def _admissible_pair_count(m: int, t: int) -> int:
    """Number of (k, ell) != (0, 0) with k(t+1) + ell(t+2) <= m."""
    return sum((m - ell * (t + 2)) // (t + 1) + 1 for ell in range(m // (t + 2) + 1)) - 1

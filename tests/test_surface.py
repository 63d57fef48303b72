"""The package surface that the CLI, the tests and the benchmark rely on.

perfbench/ reaches the package only through ``cyclocode.<name>`` (as
``cc.<name>``) and its tracer looks up one module attribute per layer, so
these tests pin that contract from the package side.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cyclocode
import cyclocode.cli  # noqa: F401  (the benchmark imports it the same way)
from cyclocode import bounds, cosets, defsets, galois, oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = str(Path(cyclocode.__file__).resolve().parents[1])

PUBLIC_NAMES = [
    "CodeParams",
    "ConsistencyError",
    "CyclocodeError",
    "DefiningSet",
    "ParameterError",
    "ResourceLimitError",
    "ZeroCodeError",
    "audit",
    "build_T",
    "build_certificate",
    "class_sizes",
    "classify_case",
    "closed_size_T",
    "dimension",
    "dual_min_distance",
    "dual_set",
    "dual_set_pattern",
    "field_make",
    "max_zero_prefix",
    "stated_bound",
    "verify_certificate",
]


def _cc_attribute(node) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cc")


def _perfbench_nodes():
    """(file name, node) for every syntax node of perfbench's sources."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_all_is_the_trimmed_list():
    assert cyclocode.__all__ == PUBLIC_NAMES
    for name in cyclocode.__all__:
        assert getattr(cyclocode, name) is not None


def test_every_perfbench_name_resolves():
    names = {node.attr for _, node in _perfbench_nodes() if _cc_attribute(node)}
    for name in names:
        assert hasattr(cyclocode, name), name
    # besides the cli and cosets modules, the benchmark uses exported names only
    assert "build_T" in names and names - {"cli", "cosets"} <= set(PUBLIC_NAMES)


def test_perfbench_keyword_arguments_exist():
    keywords = 0
    for filename, node in _perfbench_nodes():
        if isinstance(node, ast.Call) and _cc_attribute(node.func):
            params = inspect.signature(getattr(cyclocode, node.func.attr)).parameters
            for kw in node.keywords:
                assert kw.arg in params, (filename, node.func.attr, kw.arg)
                keywords += 1
    assert keywords >= 3  # seed= twice and extended= at least once


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layers_and_methods_resolve():
    tracer = _load_tracer()
    for layer in tracer.LAYERS:
        assert inspect.ismodule(getattr(cyclocode, layer)), layer
    ds = cyclocode.cosets.DefiningSet
    for attr in tracer.DEFINING_SET_METHODS + tracer.DEFINING_SET_CLASSMETHODS:
        assert attr in ds.__dict__, attr


def _tracer_subscripts() -> dict[str, set[str]]:
    """For every recorded name that tracer.py reads, the keys it subscripts
    on the bound arguments: ``for args, _ in self._records(name)`` loops and
    comprehensions, then ``args["key"]`` inside them.  name is a string, or
    a comprehension variable that runs over a tuple of strings."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    out: dict[str, set[str]] = {}

    def keys(nodes, var: str) -> set[str]:
        return {sub.slice.value for node in nodes for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                and sub.value.id == var and isinstance(sub.slice, ast.Constant)}

    def is_records(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_records")

    for node in ast.walk(tree):
        if isinstance(node, ast.For) and is_records(node.iter):
            loops, gens, body = {}, [(node.target, node.iter)], node.body
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            loops = {g.target.id: [e.value for e in g.iter.elts] for g in node.generators
                     if isinstance(g.target, ast.Name) and isinstance(g.iter, ast.Tuple)}
            gens = [(g.target, g.iter) for g in node.generators if is_records(g.iter)]
            body = [node.elt] + [cond for g in node.generators for cond in g.ifs]
        else:
            continue
        for target, call in gens:
            arg = call.args[0]
            for name in [arg.value] if isinstance(arg, ast.Constant) else loops[arg.id]:
                out.setdefault(name, set()).update(keys(body, target.elts[0].id))
    return out


def test_tracer_recorded_calls_bind_to_their_functions():
    # the tracer binds each recorded call by signature and reads arguments
    # by name, so a renamed parameter would break only traced runs
    tracer = _load_tracer()
    for name in tracer.RECORDED:
        layer, _, attr = name.partition(".")
        assert inspect.isfunction(getattr(getattr(cyclocode, layer), attr)), name
    subscripts = _tracer_subscripts()
    assert set(subscripts) <= set(tracer.RECORDED), subscripts
    assert set().union(*subscripts.values()) >= {"params", "field", "trials", "defining_set"}
    for name, keys in subscripts.items():
        layer, _, attr = name.partition(".")
        params = inspect.signature(getattr(getattr(cyclocode, layer), attr)).parameters
        assert keys <= set(params), (name, keys - set(params))


def test_layer_modules_are_loaded_by_the_package_import():
    # a fresh interpreter, so nothing but "import cyclocode" has run
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, cyclocode; "
            "print(sorted(m for m in sys.modules if m.startswith('cyclocode.')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.strip())
    for module in ("qadic", "cosets", "counting", "defsets", "bounds", "galois", "oracle"):
        assert f"cyclocode.{module}" in loaded, loaded


def _runtime_imports(module: str) -> list[tuple[str, list[str]]]:
    """(imported module, names) for every import statement of a package
    module outside ``if TYPE_CHECKING:`` blocks; relative imports are named
    by their module within the package."""
    tree = ast.parse(Path(cyclocode.__file__).with_name(f"{module}.py").read_text())
    skip = {id(node) for top in ast.walk(tree) if isinstance(top, ast.If)
            and isinstance(top.test, ast.Name) and top.test.id == "TYPE_CHECKING"
            for stmt in top.body for node in ast.walk(stmt)}
    out = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.ImportFrom):
            if node.level and not node.module:  # from . import x
                out += [(alias.name, []) for alias in node.names]
            else:
                out.append((node.module.removeprefix("cyclocode."),
                            [alias.name for alias in node.names]))
        elif isinstance(node, ast.Import):
            out += [(alias.name.removeprefix("cyclocode."), []) for alias in node.names]
    return out


def test_oracles_do_not_import_the_fast_kernel():
    # the oracle modules, and every package module they load, take no
    # function from counting and nothing from defsets's mask kernel
    seen, todo = set(), ["oracle", "qadic"]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for target, names in _runtime_imports(module):
            assert target != "defsets", module
            if target == "counting":
                assert set(names) <= {"CodeParams"} and names, (module, names)
            if Path(cyclocode.__file__).with_name(f"{target}.py").exists():
                todo.append(target)
    assert {"oracle", "qadic", "cosets", "galois"} <= seen


def test_the_fast_kernel_imports_no_oracle():
    # the other direction: the fast modules, and every package module they
    # load, reach neither per-value route, so each route checks the other
    seen, todo = set(), ["cosets", "counting", "defsets", "bounds"]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for target, _ in _runtime_imports(module):
            assert target not in {"qadic", "oracle"}, (module, target)
            if Path(cyclocode.__file__).with_name(f"{target}.py").exists():
                todo.append(target)
    assert {"cosets", "counting", "defsets", "bounds", "errors"} <= seen


def _private_reads(source: str) -> list[str]:
    """Every private attribute (one leading underscore, not a dunder) that
    source reads off an object other than self, as an attribute or through
    getattr with a constant name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            obj, name = node.value, node.attr
            if isinstance(obj, ast.Name) and obj.id == "self":
                continue
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            name = node.args[1].value
        else:
            continue
        if name.startswith("_") and not name.startswith("__"):
            out.append(f"line {node.lineno}: {name}")
    return out


def test_oracle_reads_no_private_field_state():
    # the oracle is an independent route: it reaches a field only through
    # the public FieldContext methods (add, mul, exp, log, ...), never the
    # tables or digit-route helpers behind them
    assert _private_reads(Path(cyclocode.__file__).with_name("oracle.py").read_text()) == []
    # the check sees such a read where one is made
    galois = Path(cyclocode.__file__).with_name("galois.py").read_text()
    assert {"_log", "_exp"} <= {r.split(": ")[1] for r in _private_reads(galois)}
    assert _private_reads("x = field._wrap[c] + getattr(field.base, '_zech')[0]") == [
        "line 1: _wrap", "line 1: _zech"]


# The memos documented as unbounded: one entry per field, prime-power
# question or counting shape, each a small finite set.  A counting shape has
# two, since dimension reads the pattern rows and only class_sizes the plan.
UNBOUNDED_MEMOS = {"counting._is_prime_power", "counting._pattern_rows", "counting._plan",
                   "galois._build"}


def _memos() -> dict[str, int | None]:
    """module.qualname -> maxsize for every functools.lru_cache wrapper
    that a package module defines, at module level or on its classes."""
    out = {}
    for info in pkgutil.iter_modules(cyclocode.__path__):
        module = importlib.import_module(f"cyclocode.{info.name}")
        values = list(vars(module).values())
        values += [v for c in values if inspect.isclass(c) for v in vars(c).values()]
        for value in values:
            value = getattr(value, "__func__", value)  # staticmethod, classmethod
            if (isinstance(value, functools._lru_cache_wrapper)
                    and value.__module__ == module.__name__):
                out[f"{info.name}.{value.__qualname__}"] = value.cache_parameters()["maxsize"]
    return out


def test_every_memo_is_bounded_but_the_documented_ones():
    memos = _memos()
    assert {name for name, size in memos.items() if size is None} == UNBOUNDED_MEMOS
    assert memos["galois.small_tables"] == 32
    assert memos["counting._table"] == 8  # one counting table per recent point
    assert memos["galois.minimal_polynomial"] == 256


def test_oracle_keeps_exactly_its_two_memos():
    # a memo dropped from the oracle cannot come back unnoticed, nor a new one
    # appear, and each keeps the 32 most recent keys
    oracle = {name: size for name, size in _memos().items() if name.startswith("oracle.")}
    assert oracle == {f"oracle.{name}": 32 for name in ("_generator", "_dual")}


# Modules the package must not load at start: dataclasses, inspect and
# shutil (with fnmatch and the compression modules) are slow to import, and
# the report formats' modules are loaded by the renderer that needs them.
NOT_LOADED_AT_START = ("csv", "dataclasses", "datetime", "inspect", "json", "shutil")


def test_start_up_imports_no_record_or_report_format_module():
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            "import cyclocode; from cyclocode import cli; cli.build_parser(); "
            f"print(sorted(set(sys.modules) & set({NOT_LOADED_AT_START!r})))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_text_verify_run_loads_none_of_them_either():
    # the help formatter reads the terminal width only when help is shown
    code = "\n".join([
        f"import contextlib, io, sys; sys.path.insert(0, {SRC!r})",
        "from cyclocode import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['verify', '--max-n', '4', '--no-timestamp'])",
        f"print(code, sorted(set(sys.modules) & set({NOT_LOADED_AT_START!r})))",
    ])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


# Every record of the package, with its fields in order.
RECORD_FIELDS = {
    "AuditRow": ("params", "case_id", "stated", "certified", "verified_ok", "mode",
                 "mismatch"),
    "BoundCertificate": ("case_id", "v", "z", "s_set", "s_size", "s_min", "s_max",
                         "claimed_bound"),
    "CodeParams": ("q", "m", "t", "a", "b"),
    "CyclotomicCoset": ("leader", "elements"),
    "DimensionReport": ("params", "size_T", "dim", "is_bch", "delta"),
    "DistanceResult": ("kind", "value", "enumerated", "route", "count"),
    "Polynomial": ("coeffs",),
    "VerificationResult": ("passed", "mode", "conditions", "certified_bound", "checked"),
}


def _record(name: str):
    p = cyclocode.CodeParams(3, 4, 1, 2, 1)
    field = cyclocode.field_make(2, 3)
    make = {
        "AuditRow": lambda: bounds.audit(p),
        "BoundCertificate": lambda: bounds.build_certificate(p),
        "CodeParams": lambda: p,
        "CyclotomicCoset": lambda: cosets.coset_of(29, 3, 4),
        "DimensionReport": lambda: defsets.dimension(p),
        "DistanceResult": lambda: oracle.dual_min_distance(
            field, defsets.build_T(cyclocode.CodeParams(2, 3, 1, 1, 1))),
        "Polynomial": lambda: galois.minimal_polynomial(field, 1),
        "VerificationResult": lambda: bounds.verify_certificate(bounds.build_certificate(p), p),
    }
    return make[name]()


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_records_are_read_only_tuples_of_their_fields(name):
    record = _record(name)
    fields = RECORD_FIELDS[name]
    assert type(record).__name__ == name
    values = tuple(getattr(record, f) for f in fields)
    # a record unpacks in field order and equals the plain tuple of its fields
    assert tuple(record) == values and record == values
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    for f, v in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(record, f, v)

import ast
from pathlib import Path

import pytest

import cyclocode

from cyclocode.cosets import DefiningSet, union_cosets
from cyclocode.counting import CodeParams, class_sizes, closed_size_T
from cyclocode.defsets import build_T, dual_set, dual_set_pattern
from cyclocode.errors import ParameterError
from cyclocode.galois import field_make
from cyclocode.oracle import (
    affine_invariance_probe,
    brute_T,
    brute_class_census,
    brute_dimension,
    brute_max_prefix,
    dual_min_distance,
)

T_LISTING_3_4_1_2_1 = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
    21, 24, 27, 28, 29, 30, 31, 32, 33, 36, 37, 39, 42, 45, 46, 48, 51, 54,
    55, 56, 57, 58, 59, 63, 64, 72, 73,
]


def test_brute_T_examples():
    T = brute_T(CodeParams(3, 4, 1, 2, 1))
    assert T.members() == T_LISTING_3_4_1_2_1 and max(T) == 73
    T = brute_T(CodeParams(2, 4, 2, 1, 1))
    assert T == union_cosets([0, 1, 3], 2, 4)
    assert len(T) == 9
    # the word u = a...a b 0...0 itself is always a member
    p = CodeParams(5, 3, 1, 3, 2)
    u = 3 + 2 * 5  # digits (3, 2, 0)
    assert u in brute_T(p)


def test_brute_T_equals_build_T_small_grid():
    for q, mmax in [(2, 8), (3, 5), (4, 3), (5, 3)]:
        for m in range(1, mmax + 1):
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, a + 1):
                        p = CodeParams(q, m, t, a, b)
                        assert brute_T(p) == build_T(p), p


def test_census_matches_class_sizes():
    p = CodeParams(3, 4, 1, 2, 1)
    assert brute_class_census(p) == {(1, 0): 32, (2, 0): 2, (0, 1): 12}
    sizes = class_sizes(p)
    assert closed_size_T(p) == sum(sizes.values()) + 1


def test_brute_dimension_examples():
    F = field_make(2, 4)
    assert brute_dimension(F, build_T(CodeParams(2, 4, 2, 1, 1))) == 7
    assert brute_dimension(F, build_T(CodeParams(2, 4, 1, 1, 1))) == 1
    assert brute_dimension(F, DefiningSet.from_members(2, 4, [0])) == 15
    F3 = field_make(3, 4)
    assert brute_dimension(F3, build_T(CodeParams(3, 4, 1, 2, 1))) == 34


def test_dual_min_distance_examples():
    F = field_make(2, 4)
    # repetition code: dual is the even-weight code
    res = dual_min_distance(F, build_T(CodeParams(2, 4, 1, 1, 1)))
    assert (res.kind, res.value) == ("exact", 2)
    assert res.enumerated == 2**14 - 1
    # the [15, 7] double-error-correcting code: dual distance 4
    T = build_T(CodeParams(2, 4, 2, 1, 1))
    res = dual_min_distance(F, T)
    assert (res.kind, res.value) == ("exact", 4)
    ext = dual_min_distance(F, T, extended=True)
    assert (ext.kind, ext.value) == ("exact", 4)


def test_dual_min_distance_budget():
    F = field_make(2, 4)
    T = build_T(CodeParams(2, 4, 1, 1, 1))
    res = dual_min_distance(F, T, budget=100)
    assert res.kind == "budget-exhausted"
    assert res.enumerated == 100 and res.value >= 2
    F3 = field_make(3, 3)
    res = dual_min_distance(F3, build_T(CodeParams(3, 3, 2, 2, 2)), budget=50)
    assert res.kind == "budget-exhausted" and res.enumerated == 50


def test_dual_min_distance_nonbinary():
    F = field_make(3, 3)
    T = build_T(CodeParams(3, 3, 2, 2, 2))  # |T*| = 6
    res = dual_min_distance(F, T)
    assert res.kind == "exact" and res.enumerated == 3**6 - 1
    ext = dual_min_distance(F, T, extended=True)
    assert ext.kind == "exact" and ext.value == res.value


def test_dual_min_distance_rejects_mismatched_field():
    F = field_make(2, 4)
    with pytest.raises(ParameterError):
        dual_min_distance(F, DefiningSet.from_members(2, 3, [1, 2, 4]))


def test_affine_invariance_probe_accepts_closed_sets():
    for q, m, t in [(2, 4, 2), (3, 3, 1)]:
        p = CodeParams(q, m, t, q - 1, 1)
        F = field_make(q, m)
        assert affine_invariance_probe(F, p, trials=50, seed=1)


def test_affine_invariance_probe_detects_broken_set():
    # drop the coset of 1 from T for (2,4,2,1,1): descendants go missing
    F = field_make(2, 4)
    p = CodeParams(2, 4, 2, 1, 1)
    broken = union_cosets([0, 3], 2, 4)
    assert not affine_invariance_probe(F, p, trials=100, seed=1, defining_set=broken)


def test_brute_max_prefix_examples():
    assert brute_max_prefix(dual_set_pattern(CodeParams(3, 4, 1, 2, 1))) == 7
    assert brute_max_prefix(dual_set_pattern(CodeParams(3, 3, 0, 1, 1))) == 13
    assert brute_max_prefix(dual_set_pattern(CodeParams(2, 4, 1, 1, 1))) == 1
    assert brute_max_prefix(DefiningSet.full(2, 3)) is None
    assert brute_max_prefix(DefiningSet.empty(2, 3)) == 0


def test_dual_distance_agrees_with_reflection_route():
    # the dual defining set computed two ways feeds the same code
    p = CodeParams(2, 4, 2, 1, 1)
    T = build_T(p)
    assert dual_set_pattern(p) == dual_set(T)


def _imported_modules(module: str) -> set[str]:
    """Every module name the source of cyclocode.<module> imports."""
    tree = ast.parse((Path(cyclocode.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return names


def _imports_kernel(module: str) -> bool:
    return any("defsets" in name.split(".") for name in _imported_modules(module))


@pytest.mark.parametrize("module", ["oracle", "qadic"])
def test_oracles_do_not_import_the_mask_kernel(module):
    assert _imports_kernel("bounds")  # the check sees the kernel where it is
    assert not _imports_kernel(module)

"""Independent brute-force implementations of every closed form, plus
exhaustive code-level verification on instances small enough to enumerate.

Nothing here reuses a closed-form path it is meant to check: the defining
set is rebuilt from its definition (descendants of word rotations), the
occurrence-class sizes are re-counted by scanning every digit word whose
digits are all <= a, dimensions come from generator-polynomial degrees, and
dual minimum distances come from full codeword enumeration over a basis of
the dual code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .cosets import DefiningSet, _check_cap
from .counting import CodeParams
from .errors import ParameterError
from .galois import FieldContext, generator_polynomial, poly_divmod, syndrome
from .qadic import profile_counts

__all__ = [
    "DistanceResult",
    "brute_T",
    "brute_class_census",
    "brute_dimension",
    "dual_min_distance",
    "affine_invariance_probe",
    "brute_max_prefix",
]

DEFAULT_DISTANCE_BUDGET = 1 << 21


def brute_T(params: CodeParams) -> DefiningSet:
    """T straight from the definition: enumerate the digitwise descendants
    of the word u = a...a b 0...0 and union their rotation orbits.

    Words are raw digit tuples, lowest power first; the rotation by j is
    the circular right shift digits[m-j:] + digits[:m-j], read back by
    Horner's rule.
    """
    params.require_counting_regime()
    p = params.normalized()
    q, m, t, a, b = p.astuple()
    _check_cap(q, m)
    u_digits = [a] * (m - t - 1) + [b] + [0] * t
    members: set[int] = set()
    for digs in product(*[range(d + 1) for d in u_digits]):
        twice = digs + digs
        for j in range(m):
            value = 0
            for d in reversed(twice[m - j:2 * m - j]):
                value = value * q + d
            members.add(value)
    return DefiningSet.from_members(q, m, members)


def brute_class_census(params: CodeParams) -> dict[tuple[int, int], int]:
    """Count every value of [0, n] whose digits are all <= a by its exact
    occurrence profile (k, ell), keeping only (k, ell) != (0, 0).  Values
    with a larger digit have no profile, so only the (a+1)^m digit words
    with every digit <= a are scanned."""
    params.require_counting_regime()
    p = params.normalized()
    q, m, t, a, b = p.astuple()
    _check_cap(q, m)
    census: dict[tuple[int, int], int] = {}
    for digits in product(range(a + 1), repeat=m):
        k, ell, _ = profile_counts(digits, m, a, b, t)
        if k or ell:
            key = (k, ell)
            census[key] = census.get(key, 0) + 1
    return census


def brute_dimension(field: FieldContext, D: DefiningSet) -> int:
    """n minus the generator-polynomial degree for the cyclic code whose
    defining set is D with the extension index 0 (and n, if present) removed."""
    if (field.q, field.m) != (D.q, D.m):
        raise ParameterError("field and defining set disagree on (q, m)")
    cyclic_part = [s for s in D if 0 < s < D.n]
    return field.n - generator_polynomial(field, cyclic_part).degree


@dataclass(frozen=True)
class DistanceResult:
    """Result of a minimum-weight search.

    kind is "exact" only when every nonzero codeword was enumerated;
    "budget-exhausted" reports the best (smallest) weight seen, which is
    only an upper bound on the true minimum.
    """

    kind: str
    value: int
    enumerated: int


def _dual_generator_rows(field: FieldContext, defset: Sequence[int]) -> list[list[int]]:
    """Generator matrix rows of the dual of the cyclic code with this
    defining set: shifts of the reciprocal of (x^n - 1) / g(x)."""
    base, n = field.base, field.n
    g = generator_polynomial(field, defset).coeffs
    xn1 = (base.neg(1),) + (0,) * (n - 1) + (1,)
    h, rem = poly_divmod(base, xn1, g)
    if rem:
        raise ParameterError("generator polynomial does not divide x^n - 1")
    hstar = tuple(reversed(h))
    inv = base.inv(hstar[-1])
    hstar = tuple(base.mul(inv, c) for c in hstar)
    rows = []
    for i in range(len(g) - 1):
        row = [0] * n
        for j, c in enumerate(hstar):
            row[i + j] = c
        rows.append(row)
    return rows


def _cyclic_generator_rows(field: FieldContext, defset: Sequence[int]) -> list[list[int]]:
    base, n = field.base, field.n
    g = generator_polynomial(field, defset).coeffs
    rows = []
    for i in range(n - (len(g) - 1)):
        row = [0] * n
        for j, c in enumerate(g):
            row[i + j] = c
        rows.append(row)
    return rows


def _extend_rows(field: FieldContext, rows: list[list[int]]) -> list[list[int]]:
    """Prepend the overall parity coordinate: position 0 holds minus the sum."""
    base = field.base
    out = []
    for r in rows:
        total = 0
        for c in r:
            total = base.add(total, c)
        out.append([base.neg(total)] + r)
    return out


def _nullspace(field: FieldContext, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the right nullspace of the row span, by Gaussian elimination."""
    base = field.base
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = base.inv(mat[r][c])
        mat[r] = [base.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [base.sub(x, base.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    mat = mat[:r]
    pivset = set(pivots)
    basis = []
    for free in (c for c in range(ncols) if c not in pivset):
        vec = [0] * ncols
        vec[free] = 1
        for row, pc in zip(mat, pivots):
            vec[pc] = base.neg(row[free])
        basis.append(vec)
    return basis


def _min_weight_gray_gf2(basis_masks: list[int], budget: int):
    """Gray-code walk over all nonzero GF(2) combinations of the basis."""
    k = len(basis_masks)
    total = (1 << k) - 1
    best = None
    cw = 0
    prev = 0
    steps = min(total, budget)
    for idx in range(1, steps + 1):
        gray = idx ^ (idx >> 1)
        bit = (gray ^ prev).bit_length() - 1
        prev = gray
        cw ^= basis_masks[bit]
        w = cw.bit_count()
        if w and (best is None or w < best):
            best = w
    return best, steps, ("exact" if steps == total else "budget-exhausted")


def _min_weight_odometer(field, rows: list[list[int]], budget: int):
    """Odometer walk over all q^k combinations, adding one row per step and
    maintaining the nonzero count incrementally."""
    base = field.base
    q = field.q
    k = len(rows)
    n = len(rows[0])
    total = q**k - 1
    msg = [0] * k
    cw = [0] * n
    weight = 0
    best = None
    steps = min(total, budget)
    supports = [[j for j, c in enumerate(row) if c] for row in rows]
    for _ in range(steps):
        i = 0
        while True:
            msg[i] += 1
            row = rows[i]
            for j in supports[i]:
                old = cw[j]
                new = base.add(old, row[j])
                cw[j] = new
                if old == 0 and new != 0:
                    weight += 1
                elif old != 0 and new == 0:
                    weight -= 1
            if msg[i] < q:
                break
            msg[i] = 0
            i += 1
        if weight and (best is None or weight < best):
            best = weight
    return best, steps, ("exact" if steps == total else "budget-exhausted")


def dual_min_distance(
    field: FieldContext,
    D: DefiningSet,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    extended: bool = False,
) -> DistanceResult:
    """Exact minimum nonzero weight of the dual code, by full enumeration.

    With extended=False the code is the cyclic one on [1, n-1] exponents of
    D; with extended=True it is the length-(n+1) extension (defining set
    including 0) and the dual basis comes from the nullspace of its
    generator matrix.  Runs q^k_dual - 1 steps where k_dual = |D minus {0}|
    (cyclic) or n + 1 - dim (extended); a budget overrun downgrades the
    result instead of returning a wrong exact value.
    """
    if (field.q, field.m) != (D.q, D.m):
        raise ParameterError("field and defining set disagree on (q, m)")
    defset = [s for s in D if 0 < s < D.n]
    if extended:
        rows = _nullspace(
            field, _extend_rows(field, _cyclic_generator_rows(field, defset)), field.n + 1
        )
    else:
        rows = _dual_generator_rows(field, defset)
    if not rows:
        raise ParameterError("dual code is trivial; no nonzero codeword exists")
    if field.q == 2:
        masks = [sum(1 << j for j, c in enumerate(row) if c) for row in rows]
        best, steps, kind = _min_weight_gray_gf2(masks, budget)
    else:
        best, steps, kind = _min_weight_odometer(field, rows, budget)
    return DistanceResult(kind=kind, value=best, enumerated=steps)


def affine_invariance_probe(
    field: FieldContext,
    params: CodeParams,
    trials: int = 100,
    seed: int = 0,
    defining_set: DefiningSet | None = None,
) -> bool:
    """Sample random extended codewords and random coordinate maps
    g -> u g + v (u nonzero), and test membership via the syndromes at the
    defining-set exponents.  Returns True iff every trial stays inside the code.

    The default T is brute_T's, built from the definition.  defining_set
    overrides it, which is how a deliberately broken (non-descendant-closed)
    set is probed as a negative control.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    T = brute_T(params) if defining_set is None else defining_set
    if (field.q, field.m) != (T.q, T.m):
        raise ParameterError("field and defining set disagree on (q, m)")
    base = field.base
    rng = random.Random(seed)
    cyclic_part = [s for s in T if 0 < s < T.n]
    rows = _extend_rows(field, _cyclic_generator_rows(field, cyclic_part))
    exponents = [s for s in T if s < T.n]  # evaluation exponents live in [0, n-1]
    # coordinate order: index 0 is the zero element, index 1 + i is alpha^i
    enc_of_pos = [0] + [field.exp(i) for i in range(field.n)]
    pos_of_enc = [0] * field.order
    for pos, enc in enumerate(enc_of_pos):
        pos_of_enc[enc] = pos
    for _ in range(trials):
        cw = [0] * (field.n + 1)
        for row in rows:
            coef = rng.randrange(field.q)
            if coef:
                for j, c in enumerate(row):
                    if c:
                        cw[j] = base.add(cw[j], base.mul(coef, c))
        u = rng.randrange(1, field.order)
        v = rng.randrange(field.order)
        permuted = [0] * (field.n + 1)
        for pos in range(field.n + 1):
            target = field.add(field.mul(u, enc_of_pos[pos]), v)
            permuted[pos_of_enc[target]] = cw[pos]
        if any(syndrome(field, permuted, s) for s in exponents):
            return False
    return True


def brute_max_prefix(Tperp: DefiningSet) -> int | None:
    """Smallest s outside Tperp with [0, s) inside it; None when Tperp is
    the whole index range.  One ascending pass over the members: the first
    member that differs from its position marks the gap."""
    s = 0
    for member in Tperp:
        if member != s:
            return s
        s += 1
    return None if s == Tperp.q**Tperp.m else s

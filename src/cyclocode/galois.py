"""Finite fields GF(q) and GF(q^m), minimal and generator polynomials, and
the evaluation map underlying all code-level verification.

Field elements are integers: an element of GF(q^m) encodes its coefficient
vector over GF(q) in base q (lowest degree first), and with q = p^e each
GF(q) coefficient encodes its own vector over GF(p) in base p, so an element
is the base-p integer of its m*e coefficients over GF(p).  With this
encoding the subfield GF(q) inside GF(q^m) is exactly the encodings below
q, and codeword symbols embed without translation.  Addition is
coefficientwise over GF(p) in every field, so one rule serves them all: the
carry-less base-p digit sum, which is XOR when p = 2.  GF(q) itself is the
same field class built at (p, e), and the prime field ends the recursion.

Which fields exist is one rule, has_builtin_modulus; whether a field has
tables is decided in one place, the memoized factory field_make: every
level of order at most TABLE_CAP gets exp/log tables behind mul, the exp
table built by repeated _times_x since alpha is the class of x; the Zech
list is built from them on first read, for syndromes at p != 2 and for the
affine probe.  A FieldContext built directly has no tables and runs the
digit route, which the tests compare the tables with.

Polynomials over GF(q) have one table source, small_tables: the q-by-q
addition and multiplication tables and the negation list of a base field,
built once per field.  poly_mul and poly_divmod take each step as one slice
update through them, and the oracle's code walks read the same tables.

Moduli come from a rule, not a table: for each supported (q, m) the least
monic degree-m polynomial over GF(q), ordered by the base-q encoding of its
non-leading coefficients, for which the class of x has full multiplicative
order q^m - 1 (Lidl & Niederreiter, Finite Fields, ch. 3).
_least_primitive finds it by trying the candidates in that order, so fields
are identical across runs and platforms.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import product
from operator import getitem, xor
from typing import Iterable, Iterator, NamedTuple, Sequence

from .cosets import DefiningSet, coset_of
from .errors import ConsistencyError, ParameterError, ResourceLimitError

__all__ = [
    "SUPPORTED_Q",
    "FieldContext",
    "Polynomial",
    "field_make",
    "small_tables",
    "minimal_polynomial",
    "generator_polynomial",
    "syndrome",
    "syndromes",
]

# q -> the largest m for which field_make builds GF(q^m); every m from 1
# up to it is supported, and no other q.
_MAX_DEGREE = {2: 20, 3: 12, 4: 10, 5: 10, 7: 7, 8: 6, 9: 6, 11: 5, 13: 5, 16: 4, 25: 4, 27: 4}

SUPPORTED_Q = tuple(_MAX_DEGREE)

# The largest base field GF(q) that any supported GF(q^m) is built over.
_MAX_BASE_ORDER = max(SUPPORTED_Q)

# field_make builds exp/log tables for every level of order at most this.
TABLE_CAP = 1 << 20


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (fine for n < 2^64-ish)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class _PolynomialFields(NamedTuple):
    coeffs: tuple[int, ...]


class Polynomial(_PolynomialFields):
    """Polynomial over a base field, coefficients lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> "Polynomial":
        self = tuple.__new__(cls, (coeffs,))
        if self.coeffs and self.coeffs[-1] == 0:
            raise ParameterError("leading coefficient must be nonzero")
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(base: "FieldContext", f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """f * g over base = GF(q) by base's small_tables: each nonzero f_i
    adds f_i * g to the product in one slice update, g's coefficients read
    off f_i's multiplication row and summed through the addition table."""
    if not f or not g:
        return ()
    sums, muls, _ = small_tables(base)
    out = [0] * (len(f) + len(g) - 1)
    width = len(g)
    for i, a in enumerate(f):
        if a:
            row = muls[a]
            out[i:i + width] = map(getitem, map(sums.__getitem__, out[i:i + width]),
                                   map(row.__getitem__, g))
    return _trim(out)


def poly_divmod(
    base: "FieldContext", f: Sequence[int], g: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(quotient, remainder) of f / g over base = GF(q), by long division on
    base's small_tables: each step adds -c/lead(g) times g to the
    remainder's top g-wide window, one slice update as in poly_mul."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    sums, muls, neg = small_tables(base)
    rem = list(f)
    dg = len(g) - 1
    inv_lead = base.inv(g[-1])
    quot = [0] * max(0, len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c:
            factor = muls[c][inv_lead]
            quot[i - dg] = factor
            row = muls[neg[factor]]
            rem[i - dg:i + 1] = map(getitem, map(sums.__getitem__, rem[i - dg:i + 1]),
                                    map(row.__getitem__, g))
    return _trim(quot), _trim(rem)


class FieldContext:
    """GF(q^m) as a degree-m extension of base = GF(q), with a fixed
    primitive element alpha.

    Elements are integers in [0, q^m): base-q encodings of coefficient
    vectors over GF(q), that is base-p encodings over GF(p) when q = p^e.
    GF(q) is itself a FieldContext, of degree e over GF(p); the prime field
    GF(p) has base None and multiplies modulo p.

    The constructor builds no tables, so a field made directly runs the
    digit route: Horner multiplication modulo the defining polynomial.
    field_make adds exp/log tables behind mul up to TABLE_CAP, and zech()
    the Zech list on first read; add is the digit sum either way.
    """

    def __init__(
        self,
        p: int,
        base: "FieldContext | None",
        m: int,
        modulus: tuple[int, ...],
    ):
        self.p = p
        self.base = base
        self.q = p if base is None else base.order
        self.m = m
        self.order = self.q**m
        self.n = self.order - 1
        self.modulus = modulus
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None
        if base is not None:
            # x^m = -(f_0 + ... + f_{m-1} x^(m-1)): the top digit c of a
            # shifted element folds back in as _wrap[c] = -c * f_low
            self._top = self.q ** (m - 1)
            self._wrap = [
                self.from_coeffs([base.neg(base.mul(c, f)) for f in modulus[:m]])
                for c in range(self.q)
            ]
        self.alpha = self._find_alpha()

    # -- representation ------------------------------------------------

    def coeffs(self, x: int) -> list[int]:
        out = []
        for _ in range(self.m):
            x, r = divmod(x, self.q)
            out.append(r)
        return out

    def from_coeffs(self, digits: Sequence[int]) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.q + d
        return v

    # -- arithmetic ------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        p = self.p
        if p == 2:
            return x ^ y
        out, place = 0, 1
        while x or y:
            x, u = divmod(x, p)
            y, v = divmod(y, p)
            out += (u + v) % p * place
            place *= p
        return out

    def neg(self, x: int) -> int:
        # -1 has the single base-p digit p - 1 in every field; -x = x when p = 2
        return x if self.p == 2 else self.mul(x, self.p - 1)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def _times_x(self, v: int) -> int:
        """v * x: shift one base-q digit up and fold the top digit back in."""
        top, low = divmod(v, self._top)
        return self.add(low * self.q, self._wrap[top])

    def _mul_poly(self, x: int, y: int) -> int:
        """x * y by Horner's rule over the digits of y, one shift a step."""
        B = self.base
        if B is None:
            return x * y % self.p
        xs = self.coeffs(x)
        r = 0
        for c in reversed(self.coeffs(y)):
            r = self._times_x(r)
            if c:
                r = self.add(r, self.from_coeffs([B.mul(c, d) for d in xs]))
        return r

    def mul(self, x: int, y: int) -> int:
        if self._exp is not None:
            if x == 0 or y == 0:
                return 0
            return self._exp[(self._log[x] + self._log[y]) % self.n]
        return self._mul_poly(x, y)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._exp is not None:
            return self._exp[(self.n - self._log[x]) % self.n]
        return self.pow(x, self.n - 1)

    def pow(self, x: int, k: int) -> int:
        """x^k for k >= 0."""
        if k < 0:
            raise ParameterError(f"exponent {k} is negative; use inv for inverses")
        if self._exp is not None and x != 0:
            return self._exp[(self._log[x] * k) % self.n]
        r = 1
        while k:
            if k & 1:
                r = self._mul_poly(r, x)
            x = self._mul_poly(x, x)
            k >>= 1
        return r

    def exp(self, i: int) -> int:
        """alpha^i (i reduced mod n)."""
        if self._exp is not None:
            return self._exp[i % self.n]
        return self.pow(self.alpha, i % self.n)

    def log(self, x: int) -> int:
        """Discrete log to base alpha, read from the table."""
        if x == 0:
            raise ValueError("zero has no discrete log")
        if self._log is None:
            raise ResourceLimitError(
                f"GF({self.q}^{self.m}) has no log table: field_make tables only "
                f"fields of order <= TABLE_CAP = {TABLE_CAP}"
            )
        return self._log[x]

    def zech(self) -> list[int]:
        """zech[k] = log(1 + alpha^k), or -1 where 1 + alpha^k = 0, built
        from the tables on first read and kept; callers only read it."""
        if self._zech is None:
            if self._log is None:
                raise ResourceLimitError(f"GF({self.q}^{self.m}) has no tables for a Zech list")
            # adding 1 changes only the lowest base-p digit
            p, exp, log = self.p, self._exp, self._log
            zech = [-1] * self.n
            for k, v in enumerate(exp):
                w = v + 1 if v % p != p - 1 else v + 1 - p
                if w:
                    zech[k] = log[w]
            self._zech = zech
        return self._zech

    # -- construction helpers ---------------------------------------------

    def _order_of(self, x: int) -> int | None:
        if self.pow(x, self.n) != 1:
            return None
        o = self.n
        for r in factorize(self.n):
            while o % r == 0 and self.pow(x, o // r) == 1:
                o //= r
        return o

    def _find_alpha(self) -> int:
        if self.m == 1:
            for g in range(2, self.order):
                if self._order_of(g) == self.n:
                    return g
            if self.n == 1:
                return 1
            raise ConsistencyError(f"no generator found in GF({self.q})")
        # alpha is the class of x, so the modulus must make it primitive;
        # _least_primitive relies on this check to reject a candidate
        x = self.q
        if self._order_of(x) != self.n:
            raise ConsistencyError(
                f"x is not primitive modulo {self.modulus} over GF({self.q})"
            )
        return x

    def _build_tables(self) -> None:
        # alpha is the class of x for m >= 2, so each power is one shift
        step = self._times_x if self.m > 1 else partial(self._mul_poly, self.alpha)
        exp = [1] * self.n
        acc = 1
        for i in range(1, self.n):
            acc = step(acc)
            exp[i] = acc
        if step(acc) != 1:
            raise ConsistencyError("exp table does not close at order n")
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

    def __repr__(self) -> str:
        return f"FieldContext(q={self.q}, m={self.m}, order={self.order})"


def has_builtin_modulus(q: int, m: int) -> bool:
    """True when field_make(q, m) builds GF(q^m): q is supported and
    1 <= m <= its largest degree."""
    return q in SUPPORTED_Q and 1 <= m <= _MAX_DEGREE[q]


def _tabled(field: FieldContext) -> FieldContext:
    """The factory's one table rule: tables for every order up to TABLE_CAP."""
    if field.order <= TABLE_CAP:
        field._build_tables()
    return field


def _least_primitive(base: FieldContext, m: int) -> FieldContext:
    """GF(q^m) over base = GF(q), m >= 2, without tables, on the least
    modulus for which x is primitive.  The candidates f_0 + ... +
    f_(m-1) x^(m-1) + x^m are tried in ascending base-q encoding, f_0
    fastest, and the constructor's _find_alpha rejects each whose x is not."""
    for high_first in product(range(base.order), repeat=m):
        try:
            return FieldContext(base.p, base, m, (*reversed(high_first), 1))
        except ConsistencyError:
            continue
    raise ConsistencyError(f"no monic degree-{m} polynomial over GF({base.order}) has x primitive")


@lru_cache(maxsize=None)
def _build(q: int, m: int) -> FieldContext:
    """GF(q^m) over GF(q); fields are immutable, so each one is built once
    per process.  GF(q) is the prime field (base None) when q is prime and
    _build(p, e) when q = p^e.  For m = 1 the modulus x - 1 is a placeholder;
    for m >= 2 _least_primitive finds it."""
    ((p, e),) = factorize(q).items()
    base = _build(p, e) if e > 1 else _tabled(FieldContext(p, None, 1, (p - 1, 1)))
    if m == 1:
        return _tabled(FieldContext(p, base, 1, (p - 1, 1)))
    return _tabled(_least_primitive(base, m))


def field_make(q: int, m: int) -> FieldContext:
    """Deterministic GF(q^m) where has_builtin_modulus(q, m), else
    ParameterError: the modulus is the least one for which x is primitive,
    alpha the smallest-valued generator (the class of x for m >= 2)."""
    if q not in SUPPORTED_Q:
        raise ParameterError(f"unsupported field order {q}; supported: {SUPPORTED_Q}")
    if m < 1:
        raise ParameterError(f"extension degree must be >= 1, got {m}")
    if m > _MAX_DEGREE[q]:
        raise ParameterError(f"no built-in defining polynomial for GF({q}^{m})")
    return _build(q, m)


@lru_cache(maxsize=32)
def small_tables(F: FieldContext) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """(sums, muls, neg): the addition and multiplication tables and the
    negation list of the small field F, sums[x][y] = x + y, muls[c][x] =
    c x and neg[x] = -x, built once per field from its add, mul and neg
    and kept for the 32 most recent fields; callers only read them.

    Raises ParameterError when F's order exceeds the largest base order,
    27, so that no q-by-q table is built for a large field."""
    if F.order > _MAX_BASE_ORDER:
        raise ParameterError(f"GF({F.order}) is above the largest base order "
                             f"{_MAX_BASE_ORDER}: small_tables builds no table for it")
    q = F.order
    return ([[F.add(x, y) for y in range(q)] for x in range(q)],
            [[F.mul(c, x) for x in range(q)] for c in range(q)],
            [F.neg(x) for x in range(q)])


@lru_cache(maxsize=256)
def minimal_polynomial(field: FieldContext, s: int) -> Polynomial:
    """Minimal polynomial of alpha^s over GF(q): the product of x - alpha^j
    over the cyclotomic coset of s, so its degree is the coset size.
    Memoized by (field, s) for the 256 most recent pairs, since a generator
    is a product of them."""
    if not 0 <= s <= field.n - 1:
        raise ParameterError(f"exponent {s} out of range [0, {field.n - 1}]")
    # product of (x - alpha^j) over the orbit, in GF(q^m)[x]
    poly = [1]
    for j in coset_of(s, field.q, field.m).elements:
        root = field.exp(j)
        nxt = [0] * (len(poly) + 1)
        for i, ci in enumerate(poly):
            if ci:
                nxt[i + 1] = field.add(nxt[i + 1], ci)
                nxt[i] = field.add(nxt[i], field.mul(field.neg(root), ci))
        poly = nxt
    for c in poly:
        if c >= field.q:
            raise ConsistencyError("minimal polynomial has a coefficient outside GF(q)")
    return Polynomial(tuple(poly))


def generator_polynomial(field: FieldContext, D: "DefiningSet | Iterable[int]") -> Polynomial:
    """Product of the minimal polynomials over the coset leaders of D.

    D must be a rotation-closed subset of [1, n-1]; the degree of the result
    then equals |D|.
    """
    exps = sorted(set(D))
    n = field.n
    for s in exps:
        if not 1 <= s <= n - 1:
            raise ParameterError(f"exponent {s} outside [1, {n - 1}]")
    expset = set(exps)
    covered: set[int] = set()
    g: tuple[int, ...] = (1,)
    for s in exps:
        if s in covered:
            continue
        coset = coset_of(s, field.q, field.m)
        if not expset.issuperset(coset.elements):
            raise ParameterError(f"defining set is not rotation-closed at {s}")
        covered.update(coset.elements)
        g = poly_mul(field.base, g, minimal_polynomial(field, coset.leader).coeffs)
    poly = Polynomial(g)
    if poly.degree != len(exps):
        raise ConsistencyError("generator degree must equal the defining-set size")
    return poly


def syndrome(field: FieldContext, codeword: Sequence[int], s: int) -> int:
    """Evaluation sum(c_g g^s) over the code's support: the one syndrome
    of syndromes(field, codeword, [s]).

    A length-n codeword is cyclic, coordinate i belonging to alpha^i.  A
    length-(n+1) codeword is extended: coordinate 0 is the zero-element
    position, contributing c_0 only at s = 0 (convention 0^0 = 1), and
    coordinate 1 + i belongs to alpha^i.
    """
    return next(syndromes(field, codeword, (s,)))


def syndromes(
    field: FieldContext, codeword: Sequence[int], exponents: Iterable[int]
) -> Iterator[int]:
    """The syndrome of codeword at each exponent in turn, lazily, so a
    caller that stops at the first nonzero one skips the rest.  Coordinates
    are read as in syndrome.

    The word and the field's tables are checked, and the log of each
    nonzero coordinate taken, once for all the exponents.  The sum at s is
    taken in the log domain: the term at coordinate i is alpha^(log c + i s),
    and the terms are added by XOR when p = 2, else by Zech logarithms from
    field.zech(), built on first read: alpha^x + alpha^y = alpha^(x + z),
    z = zech(y - x).  An exponent outside [0, n-1] raises ParameterError when
    it is reached; a field without tables raises ResourceLimitError.
    """
    n = field.n
    if len(codeword) == n:
        cyclic, head = codeword, 0
    elif len(codeword) == n + 1:
        cyclic, head = codeword[1:], codeword[0]
    else:
        raise ParameterError(
            f"codeword length {len(codeword)} is neither n = {n} nor n + 1"
        )
    if field._log is None:
        raise ResourceLimitError(
            f"GF({field.q}^{field.m}) has no tables: syndromes are taken in the log "
            f"domain, on fields of order <= TABLE_CAP = {TABLE_CAP}"
        )
    log, exp = field._log, field._exp
    zech = None if field.p == 2 else field.zech()
    terms = [(i, log[c]) for i, c in enumerate(cyclic) if c]
    for s in exponents:
        if not 0 <= s <= n - 1:
            raise ParameterError(f"exponent {s} out of range [0, {n - 1}]")
        logs = [(lc + i * s) % n for i, lc in terms]
        if head and s == 0:
            logs.append(log[head])
        if field.p == 2:
            yield reduce(xor, map(exp.__getitem__, logs), 0)
            continue
        acc = -1  # log of the running sum, -1 while it is zero
        for e in logs:
            if acc < 0:
                acc = e
            else:
                z = zech[(e - acc) % n]
                acc = -1 if z < 0 else (acc + z) % n
        yield 0 if acc < 0 else exp[acc]

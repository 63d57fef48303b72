import random
from math import gcd

import pytest

from cyclocode.cosets import coset_of, union_cosets
from cyclocode.errors import CyclocodeError, ParameterError, ResourceLimitError
from cyclocode.galois import (
    _MAX_DEGREE,
    SUPPORTED_Q,
    TABLE_CAP,
    FieldContext,
    Polynomial,
    _build,
    _least_primitive,
    factorize,
    field_make,
    generator_polynomial,
    has_builtin_modulus,
    minimal_polynomial,
    poly_divmod,
    poly_mul,
    small_tables,
    syndrome,
    syndromes,
)


def test_field_make_gf16():
    F = field_make(2, 4)
    assert F.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert F.alpha == 2  # the class of x
    order = 1
    x = F.alpha
    while x != 1:
        x = F.mul(x, F.alpha)
        order += 1
    assert order == 15


def test_field_make_gf81_order():
    F = field_make(3, 4)
    seen = set()
    x = 1
    for _ in range(80):
        x = F.mul(x, F.alpha)
        seen.add(x)
    assert len(seen) == 80 and x == 1


def test_field_make_gf16_over_gf4():
    F = field_make(4, 2)
    assert F.base.order == 4 and F.order == 16
    # Frobenius x -> x^4 must have order exactly 2
    for x in range(16):
        assert F.pow(F.pow(x, 4), 4) == x
    assert any(F.pow(x, 4) != x for x in range(16))


def test_field_make_rejects_unsupported():
    with pytest.raises(ParameterError):
        field_make(6, 2)
    with pytest.raises(ParameterError):
        field_make(2, 25)  # no built-in modulus that far out
    with pytest.raises(ParameterError, match=r"no built-in defining polynomial for GF\(2\^33\)"):
        field_make(2, 33)
    # has_builtin_modulus is the one support rule: a degree past q's largest
    # is a ParameterError, decided before q^m is ever formed
    with pytest.raises(ParameterError, match=r"GF\(3\^1000000\)"):
        field_make(3, 10**6)
    for q in SUPPORTED_Q:
        top = max(m for m in range(1, 64) if has_builtin_modulus(q, m))
        for m in (0, top + 1, 10**6):
            with pytest.raises(ParameterError):
                field_make(q, m)


def test_factory_alone_decides_tables():
    big = field_make(5, 9)  # order 1,953,125 is above TABLE_CAP: the digit route
    assert big.order > TABLE_CAP and big._exp is None and big.base._exp is not None
    assert big.mul(big.exp(7), big.exp(11)) == big.exp(18)
    small = field_make(2, 16)
    direct = FieldContext(small.p, small.base, small.m, small.modulus)
    assert small._exp is not None and direct._exp is None
    assert [direct.exp(i) for i in range(0, small.n, 997)] == small._exp[::997]


def _digit_route(F: FieldContext) -> FieldContext:
    """F rebuilt by the constructor at every level, so no level has tables."""
    return FieldContext(F.p, None if F.base is None else _digit_route(F.base), F.m, F.modulus)


# every supported (q, m) with m >= 2
EXTENSIONS = [(q, m) for q, top in _MAX_DEGREE.items() for m in range(2, top + 1)]


def test_every_builtin_modulus_is_primitive():
    # alpha = class of x must have order exactly q^m - 1
    for q, m in EXTENSIONS:
        base = field_make(q, 1).base  # GF(q), with tables
        F = _least_primitive(base, m)  # no tables: the digit route
        assert F._exp is None and F.alpha == q, (q, m)
        n = F.n
        assert F.pow(F.alpha, n) == 1, (q, m)
        for r in factorize(n):
            assert F.pow(F.alpha, n // r) != 1, (q, m, r)


def _order_of_x(base: FieldContext, f: tuple[int, ...]) -> int | None:
    """The order of x modulo f, walking x^i one multiplication by x at a
    time until a power repeats; None when the repeat is not 1, so that x
    is no unit modulo f."""
    seen, r = set(), (1,)
    while r not in seen:
        seen.add(r)
        r = poly_divmod(base, (0, *r), f)[1]
    return len(seen) if r == (1,) else None


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_modulus_is_the_least_with_x_primitive(q):
    # the rule itself, without _order_of: every candidate below the chosen
    # modulus, in ascending base-q encoding of f_0 ... f_(m-1), f_0 fastest,
    # leaves x short of order q^m - 1, and the chosen one gives it that order
    base = field_make(q, 1).base
    for m in range(2, _MAX_DEGREE[q] + 1):
        if q**m > 1 << 12:
            break
        f = field_make(q, m).modulus
        chosen = sum(c * q**i for i, c in enumerate(f[:m]))
        for code in range(chosen):
            candidate = (*(code // q**i % q for i in range(m)), 1)
            assert _order_of_x(base, candidate) != q**m - 1, (q, m, candidate)
        assert _order_of_x(base, f) == q**m - 1, (q, m)


def test_pinned_moduli():
    # GF(16)'s x^4 + x + 1 is pinned in test_field_make_gf16
    assert field_make(4, 2).modulus == (2, 1, 1)
    assert field_make(5, 10).modulus == (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1)  # Table 2's field


# GF(q) itself for every q, and every supported field of at most 2^12 elements.
ROUTE_FIELDS = sorted(
    {(q, 1) for q in SUPPORTED_Q} | {(q, m) for q, m in EXTENSIONS if q**m <= 1 << 12}
)


@pytest.mark.parametrize("q,m", ROUTE_FIELDS)
def test_table_route_equals_digit_route(q, m):
    table = field_make(q, m)
    digit = _digit_route(table)
    # the Zech list is unbuilt after field_make and built by zech(); _build
    # unwrapped is field_make's own build, without its memo
    fresh = _build.__wrapped__(q, m)
    assert fresh._zech is None and fresh.zech() is fresh._zech is not None
    assert digit._zech is None and digit.base._zech is None
    if table.order <= 1 << 8:
        pairs = [(x, y) for x in range(table.order) for y in range(table.order)]
    else:
        rng = random.Random(1000 * q + m)
        pairs = [(rng.randrange(table.order), rng.randrange(table.order)) for _ in range(3000)]
    for op in ("add", "sub", "mul"):
        got = [getattr(table, op)(x, y) for x, y in pairs]
        assert got == [getattr(digit, op)(x, y) for x, y in pairs], (q, m, op)
    elements = range(table.order)
    assert [table.neg(x) for x in elements] == [digit.neg(x) for x in elements]
    assert all(table.add(x, table.neg(x)) == 0 for x in elements)


# every supported field of at most 2^16 elements, GF(q) itself included
ZECH_FIELDS = [(q, m) for q, top in _MAX_DEGREE.items() for m in range(1, top + 1)
               if q**m <= 1 << 16]


@pytest.mark.parametrize("q,m", ZECH_FIELDS)
def test_zech_list_equals_the_public_route(q, m):
    F = field_make(q, m)
    expect = []
    for k in range(F.n):
        x = F.add(1, F.exp(k))
        expect.append(F.log(x) if x else -1)
    assert F.zech() == expect
    assert F.zech() is F.zech()


def test_zech_list_is_built_on_first_read_and_needs_tables():
    # field_make's own build leaves the list unbuilt at p = 2 too, where only
    # the affine probe reads it; test_table_route_equals_digit_route checks
    # the smaller fields
    F = _build.__wrapped__(2, 20)
    assert F._exp is not None and F._zech is None
    with pytest.raises(ResourceLimitError, match="no tables"):
        _digit_route(field_make(3, 2)).zech()
    with pytest.raises(ResourceLimitError, match="no tables"):
        field_make(5, 9).zech()  # above TABLE_CAP: no tables


@pytest.mark.parametrize("q,m", ROUTE_FIELDS)
def test_alpha_is_smallest_generator_and_base_is_a_field(q, m):
    F = field_make(q, m)
    # g generates the multiplicative group iff its log is a unit mod n
    smallest = next(g for g in range(1, F.order) if gcd(F.log(g), F.n) == 1)
    assert F.alpha == smallest
    assert type(F.base) is FieldContext is type(F)
    assert F.base.order == F.q == q
    assert field_make(q, m) is F


def test_exp_log_round_trip():
    for q, m in [(2, 6), (3, 4), (4, 3), (5, 3), (9, 2)]:
        F = field_make(q, m)
        for x in range(1, F.order):
            assert F.exp(F.log(x)) == x
        for i in range(F.n):
            assert F.log(F.exp(i)) == i


def test_pow_rejects_negative_exponent_on_both_routes():
    tabled = field_make(3, 4)
    digit = field_make(5, 9)  # above TABLE_CAP: the square-and-multiply route
    assert tabled._exp is not None and digit._exp is None
    for F in (tabled, digit):
        with pytest.raises(ParameterError):
            F.pow(3, -1)
        assert F.mul(F.pow(3, F.n - 1), 3) == 1  # the inverse, by a valid exponent


def test_log_without_tables_is_a_typed_error():
    F = field_make(5, 9)
    with pytest.raises(ResourceLimitError, match="TABLE_CAP"):
        F.log(3)
    assert issubclass(ResourceLimitError, CyclocodeError)


def test_frobenius_power_is_identity_after_m_steps():
    for q, m in [(2, 5), (3, 3), (4, 2), (8, 2)]:
        F = field_make(q, m)
        for x in range(F.order):
            y = x
            for _ in range(m):
                y = F.pow(y, q)
            assert y == x


def test_minimal_polynomial_examples():
    F = field_make(2, 4)
    assert minimal_polynomial(F, 1).coeffs == (1, 1, 0, 0, 1)
    assert minimal_polynomial(F, 5).coeffs == (1, 1, 1)
    assert minimal_polynomial(F, 0).coeffs == (1, 1)  # x - 1 over GF(2)
    F3 = field_make(3, 2)
    assert minimal_polynomial(F3, 0).coeffs == (2, 1)  # x - 1 = x + 2


def test_minimal_polynomial_degree_is_coset_size():
    for q, m in [(2, 6), (3, 4), (5, 2)]:
        F = field_make(q, m)
        for s in range(F.n):
            assert minimal_polynomial(F, s).degree == coset_of(s, q, m).size


def test_minimal_polynomials_multiply_to_xn_minus_1():
    for q, m in [(2, 5), (3, 3), (4, 2)]:
        F = field_make(q, m)
        leaders = sorted({coset_of(s, q, m).leader for s in range(F.n)})
        prod = (1,)
        for s in leaders:
            prod = poly_mul(F.base, prod, minimal_polynomial(F, s).coeffs)
        expected = [F.base.neg(1)] + [0] * (F.n - 1) + [1]
        assert list(prod) == expected


def test_generator_polynomial_examples():
    F = field_make(2, 4)
    g = generator_polynomial(F, range(1, 15))
    assert g.coeffs == tuple([1] * 15)
    assert generator_polynomial(F, []).coeffs == (1,)
    g = generator_polynomial(F, coset_of(1, 2, 4).elements)
    assert g.coeffs == (1, 1, 0, 0, 1)


def test_generator_polynomial_degree_matches_cardinality():
    rng = random.Random(11)
    for q, m in [(2, 5), (3, 4)]:
        F = field_make(q, m)
        for _ in range(8):
            seeds = [rng.randrange(1, F.n) for _ in range(3)]
            D = union_cosets(seeds, q, m)
            exps = [s for s in D if 0 < s < F.n]
            assert generator_polynomial(F, exps).degree == len(exps)


def test_generator_polynomial_rejects_open_sets():
    F = field_make(2, 4)
    with pytest.raises(ParameterError):
        generator_polynomial(F, [1, 2, 4])  # missing 8
    with pytest.raises(ParameterError):
        generator_polynomial(F, [0, 1, 2, 4, 8])  # 0 out of range


def _random_codeword(F, g, rng):
    """Random multiple of g as a length-n coefficient vector."""
    k = F.n - (len(g) - 1)
    msg = [rng.randrange(F.base.q) for _ in range(k)]
    word = [0] * F.n
    for i, c in enumerate(msg):
        if c:
            for j, gc in enumerate(g):
                word[i + j] = F.base.add(word[i + j], F.base.mul(c, gc))
    return word


def test_syndrome_vanishes_on_defining_set():
    rng = random.Random(5)
    for q, m in [(2, 4), (3, 3)]:
        F = field_make(q, m)
        D = union_cosets([1, 2], q, m)
        exps = [s for s in D if 0 < s < F.n]
        g = generator_polynomial(F, exps).coeffs
        for _ in range(10):
            word = _random_codeword(F, g, rng)
            for s in exps:
                assert syndrome(F, word, s) == 0
            # and the Frobenius law rho_{qs} = rho_s^q on arbitrary exponents
            for s in range(F.n):
                lhs = syndrome(F, word, (s * q) % F.n)
                assert lhs == F.pow(syndrome(F, word, s), q)


def test_syndrome_all_ones_and_extension_position():
    F = field_make(2, 4)
    ones = [1] * 15
    assert syndrome(F, ones, 0) == 1  # 15 ones over GF(2)
    extended = [1] + ones
    assert syndrome(F, extended, 0) == 0  # the zero position counts only at s=0
    assert syndrome(F, extended, 1) == syndrome(F, ones, 1)
    with pytest.raises(ParameterError):
        syndrome(F, [0] * 14, 1)
    with pytest.raises(ResourceLimitError, match="no tables"):
        syndrome(_digit_route(F), ones, 1)


@pytest.mark.parametrize("q,m", [(2, 4), (3, 3), (4, 2), (5, 2), (9, 2)])
def test_syndrome_equals_the_sum_term_by_term(q, m):
    # the log-domain sum (XOR at p = 2, Zech logarithms otherwise) against
    # sum c_i alpha^(i s) added one term at a time
    F = field_make(q, m)
    rng = random.Random(q * m)
    for length in (F.n, F.n + 1):
        for _ in range(5):
            word = [rng.choice([0, 0, *range(q)]) for _ in range(length)]
            head, cyclic = (word[0], word[1:]) if length > F.n else (0, word)
            for s in range(F.n):
                total = head if s == 0 else 0
                for i, c in enumerate(cyclic):
                    total = F.add(total, F.mul(c, F.exp(i * s)))
                assert syndrome(F, word, s) == total, (length, s)


@pytest.mark.parametrize("q,m", [(2, 4), (3, 3), (4, 2), (5, 2), (9, 2)])
def test_syndromes_equal_the_sum_term_by_term(q, m):
    # one pass over the word serves every exponent, in the order given and
    # repeats included; the head coordinate of an extended word is nonzero,
    # so exponent 0 must count it and every other exponent must not
    F = field_make(q, m)
    rng = random.Random(100 + q * m)
    exponents = [0, *rng.sample(range(F.n), F.n), 0, 1]
    for length in (F.n, F.n + 1):
        for _ in range(4):
            word = [rng.choice([0, 0, *range(q)]) for _ in range(length)]
            if length > F.n:
                word[0] = rng.randrange(1, q)
            head, cyclic = (word[0], word[1:]) if length > F.n else (0, word)
            expect = []
            for s in exponents:
                total = head if s == 0 else 0
                for i, c in enumerate(cyclic):
                    total = F.add(total, F.mul(c, F.exp(i * s)))
                expect.append(total)
            assert list(syndromes(F, word, exponents)) == expect, length
            assert [syndrome(F, word, s) for s in exponents] == expect, length


def test_syndromes_reject_bad_exponents_and_untabled_fields():
    F = field_make(3, 2)
    word = [1, 2] * 4
    for bad in (-1, F.n):
        with pytest.raises(ParameterError, match="out of range"):
            list(syndromes(F, word, [1, bad]))
        with pytest.raises(ParameterError, match="out of range"):
            syndrome(F, word, bad)
    # exponents are read lazily: the syndromes before a bad one still arrive
    it = syndromes(F, word, [2, F.n])
    assert next(it) == syndrome(F, word, 2)
    with pytest.raises(ParameterError):
        next(it)
    # the word and the tables are checked before any exponent is read
    with pytest.raises(ParameterError, match="neither n"):
        next(syndromes(F, word[1:], []))
    with pytest.raises(ResourceLimitError, match="no tables"):
        next(syndromes(_digit_route(F), word, [1]))
    assert list(syndromes(F, word, [])) == []


def test_polynomial_type():
    p = Polynomial((1, 0, 1))
    assert p.degree == 2
    assert Polynomial(()).degree == -1
    with pytest.raises(ParameterError, match="^leading coefficient must be nonzero$"):
        Polynomial((1, 0))


def _strip(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_poly_divmod_round_trip():
    rng = random.Random(3)
    for q in SUPPORTED_Q:
        B = field_make(q, 1).base
        for _ in range(20):
            f = tuple(rng.randrange(q) for _ in range(6))
            g = tuple(rng.randrange(q) for _ in range(3)) + (1,)
            quot, rem = poly_divmod(B, f, g)
            assert len(rem) < len(g)
            recon = list(poly_mul(B, quot, g))
            recon += [0] * (len(f) - len(recon))
            for i, c in enumerate(rem):
                recon[i] = B.add(recon[i], c)
            assert _strip(recon) == _strip(f), q


def _schoolbook_mul(B, f, g):
    out = [0] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = B.add(out[i + j], B.mul(a, b))
    return _strip(out)


def _schoolbook_divmod(B, f, g):
    rem, dg = list(f), len(g) - 1
    quot = [0] * max(0, len(f) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        factor = B.mul(rem[i], B.inv(g[-1]))
        quot[i - dg] = factor
        for j, b in enumerate(g):
            rem[i - dg + j] = B.add(rem[i - dg + j], B.neg(B.mul(factor, b)))
    return _strip(quot), _strip(rem)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_table_route_polynomials_equal_the_schoolbook(q):
    # through the base field's own add, mul and neg, on every base field:
    # empty operands, non-monic divisors and divisors longer than the dividend
    rng = random.Random(2400 + q)
    B = field_make(q, 1).base
    assert B.order == q
    lengths = [(0, 3), (3, 0), (0, 0), (1, 1), (4, 7), (9, 3), (12, 5), (5, 5)]
    for flen, glen in lengths * 3:
        f = [rng.randrange(q) for _ in range(flen)]
        g = [rng.randrange(q) for _ in range(glen)]
        assert poly_mul(B, f, g) == _schoolbook_mul(B, f, g)
        if glen:
            g[-1] = rng.randrange(1, q)  # a nonzero, often non-1, leading coefficient
            assert poly_divmod(B, f, g) == _schoolbook_divmod(B, f, g)
    assert poly_divmod(B, (1, 1), (0, 0, 1)) == ((), (1, 1))
    with pytest.raises(ZeroDivisionError):
        poly_divmod(B, (1,), ())


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_small_tables_equal_the_field_methods(q):
    B = field_make(q, 1).base
    sums, muls, neg = small_tables(B)
    assert small_tables(B) is small_tables(B)  # built once per field
    for x in range(q):
        assert neg[x] == B.neg(x)
        for y in range(q):
            assert sums[x][y] == B.add(x, y)
            assert muls[x][y] == B.mul(x, y)


def test_small_tables_refuse_a_field_above_the_largest_base_order():
    assert small_tables(field_make(27, 1).base)[2][1] == 2
    with pytest.raises(ParameterError, match="largest base order 27"):
        small_tables(field_make(2, 5))


def test_supported_q_and_builtin_coverage():
    assert SUPPORTED_Q == tuple(_MAX_DEGREE)
    # every m from 1 up to each q's largest degree, and nothing else
    tops = {2: 20, 3: 12, 4: 10, 5: 10, 7: 7, 8: 6, 9: 6, 11: 5, 13: 5, 16: 4, 25: 4, 27: 4}
    built = {(q, m) for q in SUPPORTED_Q for m in range(-1, 33) if has_builtin_modulus(q, m)}
    assert built == {(q, m) for q, top in tops.items() for m in range(1, top + 1)}
    assert has_builtin_modulus(2, 16)
    assert has_builtin_modulus(5, 1)
    assert not has_builtin_modulus(2, 40)
    assert not has_builtin_modulus(6, 2)

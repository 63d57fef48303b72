from itertools import islice
from operator import add, sub

import pytest

from cyclocode import counting, defsets
from cyclocode.counting import (
    CodeParams,
    admissible_pairs,
    class_sizes,
    closed_size_T,
    count_class,
    count_matrix_entries,
    count_pattern_words,
)
from cyclocode.defsets import build_T
from cyclocode.errors import ConsistencyError, ParameterError, ResourceLimitError
from cyclocode.oracle import brute_T, segment_class_sizes


def test_code_params_validation():
    CodeParams(4, 3, 1, 2, 1)  # prime power q is fine
    assert CodeParams(q=4, m=3, t=1, a=2, b=1) == CodeParams(4, 3, 1, 2, 1)
    for args, message in [
        ((6, 3, 1, 2, 1), "q must be a prime power >= 2, got 6"),
        ((3, 0, 0, 1, 1), "m must be >= 1, got 0"),
        ((3, 3, 3, 1, 1), "need 0 <= t <= m-1, got t=3, m=3"),
        ((3, 3, 1, 3, 1), "need 1 <= a <= q-1, got a=3, q=3"),
        ((3, 3, 1, 1, 0), "need 1 <= b <= q-1, got b=0, q=3"),
        ((3, 3, 1, 2, 3), "need 1 <= b <= q-1, got b=3, q=3"),
    ]:
        with pytest.raises(ParameterError) as info:
            CodeParams(*args)
        assert str(info.value) == message


def test_counting_regime_requires_b_le_a():
    p = CodeParams(4, 3, 1, 1, 2)
    with pytest.raises(ParameterError):
        closed_size_T(p)


def test_normalized_drops_a_when_t_is_max():
    p = CodeParams(5, 3, 2, 4, 2)
    assert p.normalized() == CodeParams(5, 3, 2, 2, 2)
    assert CodeParams(5, 3, 1, 4, 2).normalized() == (5, 3, 1, 4, 2)
    # the size is a-independent there: |T| = b*m + 1
    for a in range(2, 5):
        assert closed_size_T(CodeParams(5, 3, 2, a, 2)) == 2 * 3 + 1
    # u = b 0^(m-1) has no a-digit, so the closed forms and the oracles
    # give the twin's answers without being handed the twin
    points = [CodeParams(q, m, m - 1, a, b) for q in (3, 4, 5, 7)
              for m in range(1, 9) if q**m <= 10**4
              for b in range(1, q) for a in range(b + 1, q)]
    assert len(points) == 116
    for p in points:
        twin = p.normalized()
        assert twin == (p.q, p.m, p.t, p.b, p.b), p
        assert class_sizes(p) == class_sizes(twin), p
        assert closed_size_T(p) == closed_size_T(twin), p
        assert build_T(p) == build_T(twin), p
        assert brute_T(p) == brute_T(twin), p
        assert segment_class_sizes(p) == segment_class_sizes(twin), p


def test_admissible_pairs_examples():
    assert admissible_pairs(4, 1) == [(1, 0), (2, 0), (0, 1)]
    assert admissible_pairs(1, 0) == [(1, 0)]
    assert admissible_pairs(10, 8) == [(1, 0), (0, 1)]


def test_admissible_pairs_constraint():
    for m, t in [(6, 0), (6, 2), (9, 3)]:
        pairs = admissible_pairs(m, t)
        assert len(set(pairs)) == len(pairs)
        for k, ell in pairs:
            assert (k, ell) != (0, 0)
            assert k * (t + 1) + ell * (t + 2) <= m


def test_count_pattern_words_examples():
    assert count_pattern_words(1, 0, 4, 1) == 4
    assert count_pattern_words(2, 0, 4, 1) == 2
    assert count_pattern_words(0, 1, 4, 1) == 4


def test_count_pattern_words_brute():
    # count length-m cyclic words over symbols {x, y, z, 0} with exactly k
    # blocks x0^t and ell blocks y0^{t+1}, rest z, by direct enumeration
    from itertools import product

    def brute(k, ell, m, t):
        total = 0
        for word in product("xyz0", repeat=m):
            kk = sum(
                1
                for i in range(m)
                if word[i] == "x"
                and all(word[(i + 1 + j) % m] == "0" for j in range(t))
            )
            ll = sum(
                1
                for i in range(m)
                if word[i] == "y"
                and all(word[(i + 1 + j) % m] == "0" for j in range(t + 1))
            )
            # zeros must all belong to the blocks; z fills the rest
            zeros = word.count("0")
            if (
                kk == k
                and ll == ell
                and word.count("x") == k
                and word.count("y") == ell
                and zeros == k * t + ell * (t + 1)
            ):
                total += 1
        return total

    for m, t in [(4, 1), (5, 1), (5, 2), (6, 1)]:
        for k, ell in admissible_pairs(m, t):
            assert count_pattern_words(k, ell, m, t) == brute(k, ell, m, t), (
                k, ell, m, t,
            )


def test_count_pattern_words_rejects_inadmissible():
    with pytest.raises(ParameterError):
        count_pattern_words(0, 0, 4, 1)
    with pytest.raises(ParameterError):
        count_pattern_words(3, 0, 4, 1)  # 3*2 > 4


def test_pattern_words_keep_the_non_integral_check(monkeypatch):
    # a corrupted C(3, 1) = 4: W_{1,0}(4, 1) would be 4 * 4 / 3
    monkeypatch.setattr(counting, "comb", lambda n, k: 4 if (n, k) == (3, 1) else 1)
    with pytest.raises(ConsistencyError, match="non-integral word count"):
        counting._pattern_words(1, 0, 4, 1)


def test_entries_are_weights_times_pattern_words():
    for q in (2, 3, 4, 5):
        for m in range(1, 8):
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, a + 1):
                        p = CodeParams(q, m, t, a, b)
                        for r, s in admissible_pairs(m, t):
                            e = m - r * (t + 1) - s * (t + 2)
                            weight = b**r * (a - b) ** s * (a + 1) ** e
                            assert count_matrix_entries(r, s, p) == (
                                weight * count_pattern_words(r, s, m, t)
                            ), (p, r, s)


def test_pattern_rows_are_shared_by_every_q_a_and_b(monkeypatch):
    rows_of = counting._pattern_rows
    handed_out = []

    def recording(m, t):
        handed_out.append(rows_of(m, t))
        return handed_out[-1]

    monkeypatch.setattr(counting, "_pattern_rows", recording)
    # the same shape (6, 1): q differs, then a and b differ
    for p in (CodeParams(3, 6, 1, 2, 1), CodeParams(5, 6, 1, 2, 1), CodeParams(5, 6, 1, 4, 3)):
        counting._table.__wrapped__(p)  # past the per-point memo
    first = handed_out[0]
    assert len(handed_out) == 3 and all(rows is first for rows in handed_out)
    assert rows_of(6, 2) is not first
    assert type(first) is tuple and all(type(row) is tuple for row in first)
    assert first[0][0] == 0
    shape = [(k, ell) for ell, row in enumerate(first) for k in range(len(row))]
    assert shape[1:] == admissible_pairs(6, 1)


def test_count_matrix_entries_worked_example():
    p = CodeParams(3, 4, 1, 2, 1)
    assert count_matrix_entries(1, 0, p) == 36
    assert count_matrix_entries(2, 0, p) == 2
    assert count_matrix_entries(0, 1, p) == 12


def test_count_class_worked_example():
    p = CodeParams(3, 4, 1, 2, 1)
    assert count_class(1, 0, p) == 32
    assert count_class(2, 0, p) == 2
    assert count_class(0, 1, p) == 12


def test_count_class_all_heads_word():
    assert count_class(3, 0, CodeParams(3, 3, 0, 1, 1)) == 1


def test_closed_size_examples():
    assert closed_size_T(CodeParams(3, 4, 1, 2, 1)) == 47
    assert closed_size_T(CodeParams(2, 4, 2, 1, 1)) == 9
    # t = m-1 collapses to b*m + 1
    assert closed_size_T(CodeParams(2, 5, 4, 1, 1)) == 6
    assert closed_size_T(CodeParams(5, 4, 3, 3, 3)) == 13


def test_forward_identity_round_trip():
    # reconstructing the matrix totals from the class sizes must be exact
    from math import comb

    for params in [
        CodeParams(3, 4, 1, 2, 1),
        CodeParams(5, 6, 1, 3, 2),
        CodeParams(4, 7, 2, 3, 1),
        CodeParams(2, 9, 3, 1, 1),
    ]:
        sizes = class_sizes(params)
        pairs = list(sizes)
        for r, s in pairs:
            forward = sum(
                comb(k, r) * comb(ell, s) * sizes[(k, ell)] for k, ell in pairs
            )
            assert forward == count_matrix_entries(r, s, params)


def test_corrupted_entry_table_raises(monkeypatch):
    # with a = b every A_{r,s} with s >= 1 is zero, so taking one from
    # A_{0,1} leaves B_{0,1} = -1
    build = counting._table

    def corrupted(p):
        table = build(p)
        entries = list(table.entries)
        entries[len(counting._pattern_rows(p.m, p.t)[0])] -= 1  # A_{0,1}
        return table._replace(entries=tuple(entries))

    monkeypatch.setattr(counting, "_table", corrupted)
    with pytest.raises(ConsistencyError, match="negative class size"):
        class_sizes(CodeParams(2, 6, 1, 1, 1))


def test_entry_table_hands_out_copies_of_its_memo():
    # class_sizes reads the memo's table as it is: a tuple, so the
    # transforms cannot change it, and it is the same afterwards
    p = CodeParams(2, 6, 1, 1, 1)
    table = counting._table(p)
    assert type(table.entries) is tuple
    expect = list(table.entries)
    class_sizes(p)  # a poisoned memo would leave B_{0,1} = -1 and raise
    assert counting._table(p) is table
    assert list(table.entries) == expect
    assert counting.count_matrix_entries(0, 1, p) == expect[4]


def _rows_of(p):
    """The point's flat A table cut into its rows."""
    entries = iter(counting._table(p).entries)
    return [list(islice(entries, len(words))) for words in counting._pattern_rows(p.m, p.t)]


def test_table_is_the_a_table_and_its_size():
    # every entry by its formula, A_{0,0} = 0 first, and |T| the
    # alternating sum, equal to the mask kernel's |T|
    for q in (2, 3, 4, 5):
        for m in range(1, 8):
            for t in range(m):
                keys = counting._plan(m, t).keys
                for a in range(1, q):
                    for b in range(1, a + 1):
                        p = CodeParams(q, m, t, a, b)
                        table = counting._table(p)
                        expect = [0] + [
                            b**r * (a - b) ** s * (a + 1) ** (m - r * (t + 1) - s * (t + 2))
                            * count_pattern_words(r, s, m, t) for r, s in keys[1:]]
                        assert list(table.entries) == expect, p
                        alternating = sum((-1) ** (r + s + 1) * x
                                          for (r, s), x in zip(keys, expect))
                        assert table.size == 1 + alternating == len(build_T(p)), p


@pytest.mark.parametrize("point", [(3, 4, 1, 2, 1), (5, 3, 2, 4, 2), (4, 6, 5, 3, 1),
                                   (2, 9, 3, 1, 1), (5, 6, 1, 3, 3)])
def test_one_table_per_point(point):
    # dimension, closed_size_T and class_sizes at one point build its table
    # once; at t = m - 1 with a != b dimension reads the raw point's table
    p = CodeParams(*point)
    counting._table.cache_clear()
    report = defsets.dimension(p)
    sizes = class_sizes(p)
    assert closed_size_T(p) == report.size_T == 1 + sum(sizes.values())
    assert counting._table.cache_info().misses == 1
    assert report.params == p.normalized()


def _horner_reference(rows, op):
    """The transform with no row trimmed: Horner's Taylor shift one
    coefficient at a time along every row, then down every column."""
    rows = [list(row) for row in rows]
    for row in rows:
        for i in range(len(row) - 2, -1, -1):
            for j in range(i, len(row) - 1):
                row[j] = op(row[j], row[j + 1])
    for i in range(len(rows) - 2, -1, -1):
        for s in range(i, len(rows) - 1):
            for r in range(len(rows[s + 1])):
                rows[s][r] = op(rows[s][r], rows[s + 1][r])
    return rows


def _flat(rows):
    return [x for row in rows for x in row]


def _run(steps, table, op):
    """The table read row by row, after the plan steps ran on it."""
    x = _flat(table)
    counting._run_plan(x, steps, op)
    return x


def test_zero_row_skip_is_exact():
    # with a = b every row s >= 1 of the A table is zero, and only row 0's
    # steps, the plan's prefix, run; the result must be the untrimmed one's
    points = 0
    for m in range(1, 21):
        for t in range(m):
            plan = counting._plan(m, t)
            row0 = plan.steps[:plan.prefix]
            width = len(counting._pattern_rows(m, t)[0])
            assert all(max(dst, src) + n <= width for dst, src, n in row0)
            for q in (2, 3, 4):
                for a in range(1, q):
                    rows = _rows_of(CodeParams(q, m, t, a, a))
                    assert not any(map(any, rows[1:]))
                    inverse = _horner_reference(rows, sub)
                    assert _run(row0, rows, sub) == _flat(inverse)
                    for table in (rows, inverse):
                        assert _run(row0, table, add) == _flat(_horner_reference(table, add))
                    points += 1
    assert points == 6 * 210


def test_whole_plan_equals_the_untrimmed_transform():
    # with a != b every row is live, and the whole plan runs both ways
    points = 0
    for m in range(1, 21):
        for t in range(m):
            steps = counting._plan(m, t).steps
            for q in (3, 4):
                for a in range(2, q):
                    for b in range(1, a):
                        rows = _rows_of(CodeParams(q, m, t, a, b))
                        inverse = _horner_reference(rows, sub)
                        assert _run(steps, rows, sub) == _flat(inverse)
                        for table in (rows, inverse):
                            assert _run(steps, table, add) == _flat(_horner_reference(table, add))
                        points += 1
    assert points == 4 * 210


def _commute(one, other):
    """Whether two steps give the same table in either order: each adds to
    the entries it writes, so they commute unless one writes an entry that
    the other reads."""
    def span(start, n):
        return set(range(start, start + n))

    (d1, s1, n1), (d2, s2, n2) = one, other
    return not (span(d1, n1) & span(s2, n2) or span(d2, n2) & span(s1, n1))


def test_plan_mutations_are_caught_by_the_reference():
    # the comparisons above must fail for a plan with one step dropped, two
    # steps that do not commute swapped, or the a = b prefix cut one short
    m, t = 9, 1
    plan = counting._plan(m, t)
    steps = list(plan.steps)
    rows = _rows_of(CodeParams(4, m, t, 3, 1))
    expect = _flat(_horner_reference(rows, sub))
    assert _run(steps, rows, sub) == expect
    for i in range(len(steps)):
        assert _run(steps[:i] + steps[i + 1:], rows, sub) != expect, i
    swaps = 0
    for i in range(len(steps) - 1):
        swapped = steps[:i] + [steps[i + 1], steps[i]] + steps[i + 2:]
        if not _commute(steps[i], steps[i + 1]):
            assert _run(swapped, rows, sub) != expect, i
            swaps += 1
    assert 0 < swaps < len(steps) - 1
    rows = _rows_of(CodeParams(4, m, t, 3, 3))
    expect = _flat(_horner_reference(rows, sub))
    assert _run(steps[:plan.prefix], rows, sub) == expect
    assert _run(steps[:plan.prefix - 1], rows, sub) != expect


def test_plan_holds_o_of_p_plus_rows_squared_steps():
    # (3, 200, 0, 2, 1): P = 10,201 entries in R = 101 rows; the transform
    # does over a million entry operations, the plan holds a few per entry
    m, t = 200, 0
    rows = counting._pattern_rows(m, t)
    entries, R = sum(map(len, rows)), len(rows)
    assert (entries, R) == (10_201, 101)
    steps = counting._plan(m, t).steps
    assert len(steps) <= 2 * (entries + R * R)
    assert sum(n for _, _, n in steps) > 1_000_000
    assert all(n == 1 or n > counting._SCALAR_STEP for _, _, n in steps)
    class_sizes(CodeParams(3, m, t, 2, 1))


def test_corrupted_inversion_fails_the_round_trip(monkeypatch):
    run = counting._run_plan

    def corrupted(x, steps, op):
        run(x, steps, op)
        if op is sub:
            x[1] += 1  # B_{1,0} off by one

    monkeypatch.setattr(counting, "_run_plan", corrupted)
    with pytest.raises(ConsistencyError, match="round trip failed at \\(r, s\\) = \\(1, 0\\)"):
        class_sizes(CodeParams(3, 4, 1, 2, 1))


def _table_entries(m, t):
    return sum((m - s * (t + 2)) // (t + 1) + 1 for s in range(m // (t + 2) + 1))


def test_pattern_table_cap(monkeypatch):
    # past the cap every table-building route raises before building, and
    # a single pattern-word count needs no table
    p = CodeParams(2, 20000, 1, 1, 1)
    assert _table_entries(20000, 1) == 33_343_334 > counting.PATTERN_TABLE_CAP
    before = counting._pattern_rows.cache_info()
    with monkeypatch.context() as patch:  # a missing cap fails fast, not after hours
        patch.setattr(counting, "_pattern_words", lambda *args: pytest.fail("built a table"))
        for ask in (lambda: class_sizes(p), lambda: closed_size_T(p),
                    lambda: count_matrix_entries(1, 0, p), lambda: count_class(1, 0, p)):
            with pytest.raises(ResourceLimitError, match="33343334 entries, past the pattern "
                               "table cap of 65536"):
                ask()
    assert counting._pattern_rows.cache_info().currsize == before.currsize
    assert count_pattern_words(1, 0, 20000, 1) == 20000
    # the cap counts entries with (0, 0) included, and a table at it is built
    assert _table_entries(6, 1) == sum(map(len, counting._pattern_rows(6, 1))) == 7
    monkeypatch.setattr(counting, "PATTERN_TABLE_CAP", 7)
    assert counting._pattern_rows.__wrapped__(6, 1) == counting._pattern_rows(6, 1)
    assert counting._plan.__wrapped__(6, 1) == counting._plan(6, 1)
    for build in (counting._pattern_rows.__wrapped__, counting._plan.__wrapped__):
        with pytest.raises(ResourceLimitError, match="8 entries, past the pattern table cap of 7"):
            build(7, 1)
    # every tier-1 and benchmark shape is far below the cap
    assert _table_entries(120, 0) == 3_721 and _table_entries(56, 0) == 841


def test_class_sizes_match_census_small_grid():
    from cyclocode.oracle import brute_class_census

    for q, mmax in [(2, 6), (3, 4), (5, 3)]:
        for m in range(1, mmax + 1):
            for t in range(m):
                for a in range(1, q):
                    for b in range(1, a + 1):
                        p = CodeParams(q, m, t, a, b)
                        sizes = class_sizes(p)
                        assert list(sizes) == admissible_pairs(m, t)
                        census = brute_class_census(p)
                        assert set(census) <= set(sizes)
                        for kl, v in sizes.items():
                            assert census.get(kl, 0) == v, (p, kl)

"""The int kernel against its Fraction references.

``cone._phase1`` must return the certificate of ``oracles.phase1_fraction``
(same Bland pivots, Fraction tableau) and ``solve_linear``/``rank`` those
of a plain Fraction Gauss-Jordan, exactly; and elimination and the
simplex must both run through the one pivot routine.  The int fast paths
at the layer's entry points (``rat``'s literal memo and the all-int
``canonicalize_ray``) must answer and raise exactly as the general paths
do, and ``apply`` must equal its Fraction reference.
"""

from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoray import cone as cone_module
from fanoray import rational
from fanoray.cone import Cone, ConeError, _phase1, canonicalize_ray
from fanoray.rational import ExactArithError, apply, rank, rat, solve_linear

from oracles import (canonicalize_ray_fraction, phase1_fraction,
                     rank_bruteforce, solve_linear_fraction)

# Entries in [-2, 2] with short columns make repeated columns, zero rhs
# entries and equal ratios common, so Bland's tie-breaks are exercised.
small = st.integers(min_value=-2, max_value=2)
rhs_entries = st.one_of(small, st.fractions(min_value=-3, max_value=3,
                                            max_denominator=6))


@st.composite
def phase1_inputs(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.lists(st.lists(small, min_size=d, max_size=d),
                         min_size=1, max_size=7))
    if draw(st.booleans()):
        cols += draw(st.lists(st.sampled_from(cols), max_size=3))
    rhs = draw(st.lists(rhs_entries, min_size=d, max_size=d))
    return cols, rhs


@given(phase1_inputs())
@settings(max_examples=200, deadline=None)
def test_phase1_matches_fraction_tableau(inputs):
    cols, rhs = inputs
    assert _phase1(cols, rhs) == phase1_fraction(cols, rhs)


def test_phase1_degenerate_tie_break():
    # ratio ties where the later row holds the smaller basic index: taking
    # the first tied row instead would return y = (1, 0, 0)
    cols = [[0, 0, 1], [0, 1, 1]]
    for rhs in ([1, 0, 0], [Fraction(1, 2), 0, 0]):
        assert _phase1(cols, rhs) == phase1_fraction(cols, rhs) == (
            "infeasible", [1, 1, -1])
    cols, rhs = [[0, 0, 1], [1, 0, 2]], [0, 2, 0]
    assert _phase1(cols, rhs) == phase1_fraction(cols, rhs) == (
        "infeasible", [1, 1, Fraction(-1, 2)])


@st.composite
def fraction_systems(draw):
    r = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(small, st.fractions(min_value=-4, max_value=4,
                                          max_denominator=5))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if draw(st.booleans()):
        # a scaled copy of a row makes a dependent, possibly inconsistent row
        k = draw(st.integers(min_value=0, max_value=r - 1))
        rows.append([Fraction(3, 2) * e for e in rows[k]])
    rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@given(fraction_systems())
@settings(max_examples=150, deadline=None)
def test_solve_linear_and_rank_match_fraction_gauss_jordan(system):
    rows, rhs = system
    expected = solve_linear_fraction(rows, rhs)
    solved = solve_linear(rows, rhs)
    if expected is None:
        assert solved is None
    else:
        sol, ker = solved
        assert list(sol) == expected[0]
        assert [list(v) for v in ker] == expected[1]
    width = len(rows[0])
    assert rank(rows) == width - len(solve_linear_fraction(
        rows, [0] * len(rows))[1])
    int_rows = [[int(e * prod(x.denominator for x in row)) for e in row]
                for row in rows]
    assert rank(rows) == rank_bruteforce(int_rows)


def test_elimination_and_simplex_share_one_pivot(monkeypatch):
    calls = Counter()
    pivot = rational._pivot

    def counted(*args):
        calls["pivot"] += 1
        return pivot(*args)
    monkeypatch.setattr(rational, "_pivot", counted)
    monkeypatch.setattr(cone_module, "_pivot", counted)

    assert rank([[1, 2], [3, 4]]) == 2
    after_rank = calls["pivot"]
    assert after_rank > 0
    solve_linear([[1, 1], [1, -1]], [2, 0])
    after_solve = calls["pivot"]
    assert after_solve > after_rank
    assert Cone(2, [(1, 0), (0, 1)]).membership([1, 1]).inside
    assert calls["pivot"] > after_solve


def _full_bareiss(rows, r, col, prev):
    """The textbook Bareiss pivot: every row but the pivot row updated,
    each division checked to be exact."""
    pivot = rows[r]
    p = pivot[col]
    out = []
    for i, row in enumerate(rows):
        if i == r:
            out.append(list(row))
            continue
        terms = [p * a - row[col] * b for a, b in zip(row, pivot)]
        assert all(t % prev == 0 for t in terms)
        out.append([t // prev for t in terms])
    return out


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pivot_equals_the_full_bareiss_update(data):
    # entries in [-2, 2] make zeros in the pivot column and p == prev common
    width = data.draw(st.integers(min_value=1, max_value=6))
    rows = data.draw(st.lists(st.lists(small, min_size=width,
                                       max_size=width),
                              min_size=1, max_size=6))
    # one Gauss-Jordan pass: each pivot row and column used once
    free_rows, free_cols, prev = list(range(len(rows))), set(range(width)), 1
    while True:
        choices = [(r, c) for r in free_rows for c in sorted(free_cols)
                   if rows[r][c] != 0]
        if not choices:
            break
        r, col = data.draw(st.sampled_from(choices))
        expected = _full_bareiss(rows, r, col, prev)
        prev = rational._pivot(rows, r, col, prev)
        assert rows == expected
        free_rows.remove(r)
        free_cols.remove(col)


# -- the int fast paths ----------------------------------------------------

exact = st.one_of(st.integers(-30, 30),
                  st.fractions(min_value=-30, max_value=30,
                               max_denominator=8))
int_or_fraction_vectors = st.one_of(
    st.lists(st.integers(-30, 30), min_size=1, max_size=6),
    st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=8),
             min_size=1, max_size=6),
    st.lists(exact, min_size=1, max_size=6))
CONTAINERS = {"list": list, "tuple": tuple, "generator": lambda v: iter(v)}


@given(v=int_or_fraction_vectors, container=st.sampled_from(sorted(CONTAINERS)))
@settings(max_examples=300, deadline=None)
def test_canonicalize_ray_matches_the_fraction_reference(v, container):
    if not any(v):
        with pytest.raises(ConeError, match="^zero vector has no ray "
                                            "direction$"):
            canonicalize_ray(CONTAINERS[container](v))
        return
    ray = canonicalize_ray(CONTAINERS[container](v))
    assert ray == canonicalize_ray_fraction(v)
    assert type(ray) is tuple and {*map(type, ray)} == {int}


@pytest.mark.parametrize("v, error, message", [
    ([], ConeError, "empty vector"),
    ((0, 0, 0), ConeError, "zero vector has no ray direction"),
    ([Fraction(0), 0], ConeError, "zero vector has no ray direction"),
    ((1, True), ExactArithError, "not a rational: True"),
    ([False, 0], ExactArithError, "not a rational: False"),
    ((2, 0.5), ExactArithError, "not a rational: 0.5"),
    ([1.0], ExactArithError, "not a rational: 1.0"),
], ids=repr)
def test_canonicalize_ray_rejects_as_before(v, error, message):
    for given_as in (list, tuple, iter):
        with pytest.raises(error) as raised:
            canonicalize_ray(given_as(v))
        assert type(raised.value) is error
        assert str(raised.value) == message


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_apply_matches_the_fraction_reference(data):
    entries = data.draw(st.sampled_from([st.integers(-30, 30), exact]))
    width = data.draw(st.integers(min_value=0, max_value=5))
    v = tuple(data.draw(st.lists(entries, min_size=width, max_size=width)))
    m = tuple(tuple(row) for row in data.draw(st.lists(
        st.lists(entries, min_size=width, max_size=width), max_size=5)))
    result = apply(m, v)
    assert result == tuple(sum(map(Fraction.__mul__, map(Fraction, row), v),
                               Fraction(0)) for row in m)
    for value in result:
        assert (type(value) is int) == (Fraction(value).denominator == 1)


literals = st.builds(
    lambda pad, sign, n, d: f"{pad}{sign}{n}{'' if d is None else f'/{d}'}"
                            f"{pad}",
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+", "-"]),
    st.integers(0, 10**6), st.one_of(st.none(), st.integers(1, 10**6)))


@given(literal=st.one_of(literals, st.text(max_size=8)))
@settings(max_examples=300, deadline=None)
def test_rat_literal_memo_answers_as_the_parse(literal):
    parse = rational._literal.__wrapped__    # the regex parse, unmemoised
    try:
        expected = parse(literal)
    except ExactArithError as exc:
        for _ in range(2):
            with pytest.raises(ExactArithError) as raised:
                rat(literal)
            assert str(raised.value) == str(exc)
        return
    for _ in range(2):
        value = rat(literal)
        assert value == expected and type(value) is type(expected)


def test_rat_literal_memo_is_bounded_and_caches_no_error():
    assert rational._literal.cache_info().maxsize is not None
    misses = rational._literal.cache_info().misses
    for _ in range(3):
        with pytest.raises(ExactArithError,
                           match="^bad rational literal '1/0'$"):
            rat("1/0")
    # each call parsed again: an exception is never stored
    assert rational._literal.cache_info().misses == misses + 3

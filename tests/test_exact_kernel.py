"""The int kernel against its Fraction references.

``cone._phase1`` must return the certificate of ``oracles.phase1_fraction``
(same Bland pivots, Fraction tableau) and ``solve_linear``/``rank`` those
of a plain Fraction Gauss-Jordan, exactly; and elimination and the
simplex must both run through the one pivot routine.  The int fast paths
at the layer's entry points (``rat``'s literal memo and the all-int
``canonicalize_ray``) must answer and raise exactly as the general paths
do, and ``apply`` must equal its Fraction reference.  The facet-patch
check's witness test rests on adjointness, (P e).c = e.(P^T c), pinned
here on random matrices and on every chart of the corrected records.
"""

from collections import Counter
from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoray import cone as cone_module
from fanoray import rational
from fanoray.cone import Cone, ConeError, _phase1, canonicalize_ray
from fanoray.exhaustion import build_targets, pushforward_map
from fanoray.rational import (ExactArithError, apply, dot, rank, rat,
                              solve_linear, transpose)

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


@pytest.mark.parametrize("cols, rhs, expected", [
    # a negative rhs entry: its tableau row is flipped
    ([(1, -1, 0), (0, 1, 2), (1, 0, 1)], (2, -1, 1),
     ("feasible", [1, 0, 1])),
    # a Fraction rhs: the tableau's rhs is scaled by the lcm 12
    ([(2, 1, 0), (1, 3, 1), (0, 1, 4)],
     (Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)),
     ("feasible", [Fraction(49, 216), Fraction(5, 108), Fraction(65, 216)])),
    # infeasible: y separates rhs from the columns
    ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], (1, -1, 1),
     ("infeasible", [-1, -1, 1])),
], ids=["flipped-row", "fraction-rhs", "infeasible"])
def test_phase1_pinned_certificates(cols, rhs, expected):
    status, cert = _phase1(cols, rhs)
    assert (status, cert) == expected
    # recheck in ints: scale every Fraction by the common denominator
    scale = prod({Fraction(e).denominator for e in (*cert, *rhs)})
    cert_i = [int(Fraction(e) * scale) for e in cert]
    rhs_i = [int(Fraction(e) * scale) for e in rhs]
    if status == "feasible":
        assert min(cert_i) >= 0
        assert [sum(lam * c[k] for lam, c in zip(cert_i, cols))
                for k in range(len(rhs))] == rhs_i
    else:
        assert all(sum(map(mul, cert_i, c)) <= 0 for c in cols)
        assert sum(map(mul, cert_i, rhs_i)) > 0


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


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pullback_pairs_as_the_pushforward(data):
    # (P e).c = e.(P^T c): a pulled-back functional pairs with a vector
    # exactly as the functional pairs with the vector's pushforward
    entries = data.draw(st.sampled_from([st.integers(-30, 30), exact]))
    rows = data.draw(st.integers(min_value=1, max_value=5))
    cols = data.draw(st.integers(min_value=1, max_value=5))
    p = tuple(tuple(row) for row in data.draw(st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))
    e = data.draw(st.lists(entries, min_size=cols, max_size=cols))
    c = data.draw(st.lists(entries, min_size=rows, max_size=rows))
    assert dot(apply(p, e), c) == dot(e, apply(transpose(p), c))


def test_dual_generators_pull_back_as_they_pair_with_images(records):
    # the facet-patch witness test on the fixtures: each generator of a
    # target edge set's dual, pulled back, pairs with every ray exactly
    # as it pairs with the ray's image in the chart
    assert len(records) == 9
    pairs = 0
    for record in records.values():
        for lab, entry in build_targets(record).items():
            phi = pushforward_map(record, lab)
            pullback = record.ray(lab).contraction.pullback
            for e in Cone(record.rho - 1, entry.edges).dual().generators:
                pulled = apply(pullback, e)
                for ray in record.rays:
                    assert dot(pulled, ray.vec) == dot(e, apply(phi, ray.vec))
                    pairs += 1
    assert pairs == 514


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

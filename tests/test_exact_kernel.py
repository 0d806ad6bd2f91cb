"""The int kernel against its Fraction references.

``cone._phase1`` must return the certificate of ``oracles.phase1_fraction``
(same Bland pivots, Fraction tableau) and ``solve_linear``/``rank`` those
of a plain Fraction Gauss-Jordan, exactly; and elimination and the
simplex must both run through the one pivot routine.
"""

from collections import Counter
from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from fanoray import cone as cone_module
from fanoray import rational
from fanoray.cone import Cone, _phase1
from fanoray.rational import rank, solve_linear

from oracles import phase1_fraction, rank_bruteforce, solve_linear_fraction

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

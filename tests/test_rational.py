import ast
import importlib.util
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoray.rational import (ExactArithError, apply, dot, inconsistent_rows,
                              rank, rat, rat_str, solve_linear, transpose)

from oracles import rank_bruteforce

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)


def test_rat_arithmetic_examples():
    assert rat("1/2") + rat(1) == rat("3/2")
    assert rat("3/2") * rat("2/3") == 1
    assert rat("-1/2") > rat("-3/2")


def test_rat_parsing_rejects_floats_and_decimals():
    with pytest.raises(ExactArithError):
        rat("1.5")
    with pytest.raises(ExactArithError):
        rat(0.5)  # type: ignore[arg-type]
    with pytest.raises(ExactArithError):
        rat("3/0")


@pytest.mark.parametrize("literal, value", [
    (" -5 ", -5), ("4/2", 2), ("+3", 3), ("-6/4", Fraction(-3, 2)),
    ("0/7", 0), ("1_000", None), ("3 / 2", None), ("\u0663", None),
    ("1/\u0662", None), ("1.5", None), ("1e3", None), ("0x10", None),
    ("1/-2", None), ("3/0", None), ("", None), ("+", None),
], ids=repr)
def test_rat_parses_one_ascii_grammar(literal, value):
    # the same literals load, and the same fail, on every Python version
    if value is None:
        with pytest.raises(ExactArithError, match="bad rational literal"):
            rat(literal)
    else:
        assert rat(literal) == value
        assert type(rat(literal)) is type(value)


def test_rat_overlong_literal_is_an_arith_error_not_a_traceback():
    literal = "9" * 5000
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < len(literal):
        with pytest.raises(ExactArithError):
            rat(literal)
    else:  # no digit limit on this interpreter
        assert rat(literal) == int(literal)


def test_rat_serialization_format():
    assert rat_str(rat("-3/2")) == "-3/2"
    assert rat_str(rat("4/2")) == "2"
    assert rat_str(Fraction(0)) == "0"


@given(a=rationals, b=rationals)
def test_rat_ops_round_trip_through_strings(a, b):
    for value in (a + b, a - b, a * b):
        assert rat(rat_str(value)) == value
    if b != 0:
        assert rat(rat_str(a / b)) == a / b


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        rat(1) / rat(0)


def test_solve_linear_flop_coefficient_system():
    # imposing two vanishing conditions pins (3/2, 3)
    sol, ker = solve_linear([[-2, 0], [0, -1]], [-3, -3])
    assert sol == (Fraction(3, 2), 3)
    assert type(sol[1]) is int
    assert ker == []


def test_solve_linear_identity():
    sol, ker = solve_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])
    assert sol == (0, 0, 0)
    assert ker == []


def test_solve_linear_underdetermined_checked_by_substitution():
    a = [[1, 1]]
    sol, ker = solve_linear(a, [1])
    assert apply(a, sol) == (1,)
    assert len(ker) == 1
    assert apply(a, ker[0]) == (0,)
    assert any(ker[0])


def test_solve_linear_no_solution():
    assert solve_linear([[1, 0], [1, 0]], [1, 2]) is None


def test_solve_linear_dimension_mismatch():
    with pytest.raises(ExactArithError):
        solve_linear([[1, 0]], [1, 2])


def test_kernel_examples():
    # the kernel basis of a homogeneous system is the null space
    assert solve_linear([[1, 0], [0, 1]], [0, 0])[1] == []
    two = solve_linear([[1, 1, 1]], [0])[1]
    assert len(two) == 2
    for v in two:
        assert sum(v) == 0
    row = (1, 1, 1, -1, 2)
    four = solve_linear([row], [0])[1]
    assert len(four) == 4
    for v in four:
        assert dot(row, v) == 0


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.integers(min_value=1, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@given(rows=matrices)
@settings(max_examples=100)
def test_rank_nullity(rows):
    assert rank(rows) == rank_bruteforce(rows)
    kernel = solve_linear(rows, [0] * len(rows))[1]
    assert rank(rows) + len(kernel) == len(rows[0])


@given(rows=matrices, data=st.data())
@settings(max_examples=60)
def test_solve_resubstitutes_exactly(rows, data):
    cols = len(rows[0])
    x = data.draw(st.lists(rationals, min_size=cols, max_size=cols))
    b = apply(rows, x)
    solved = solve_linear(rows, b)
    assert solved is not None
    sol, ker = solved
    assert apply(rows, sol) == b
    for v in ker:
        assert apply(rows, v) == (0,) * len(rows)


def test_vector_functions_basics():
    v = (1, Fraction(1, 2), -2)
    assert dot(v, v) == Fraction(21, 4)
    assert dot((Fraction(1, 2), Fraction(1, 2)), (1, 1)) == 1
    assert type(dot((Fraction(1, 2), Fraction(1, 2)), (1, 1))) is int
    assert apply(((1, 2), (3, 4)), (1, 1)) == (3, 7)
    assert transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        apply(((1, 2), (3, 4)), (1, 1, 1))
    with pytest.raises(ExactArithError):
        solve_linear([[1], [1, 2]], [0, 0])


exact_values = st.one_of(st.integers(-10**6, 10**6), rationals)


@given(a=st.lists(exact_values, max_size=8), data=st.data())
@settings(max_examples=100)
def test_dot_is_the_exact_fraction_sum(a, data):
    b = data.draw(st.lists(exact_values, min_size=len(a), max_size=len(a)))
    expected = sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)),
                   Fraction(0))
    value = dot(a, b)
    assert value == expected
    assert (type(value) is int) == (expected.denominator == 1)


@given(a=st.lists(exact_values, max_size=8),
       b=st.lists(exact_values, max_size=8))
def test_dot_refuses_every_length_mismatch(a, b):
    if len(a) == len(b):
        b = b + [1]
    with pytest.raises(ValueError):
        dot(a, b)
    with pytest.raises(ValueError):
        dot(b, a)


@pytest.mark.parametrize("value", [3, "4/2", Fraction(6, 3), " -5 "])
def test_rat_returns_int_for_integral_values(value):
    assert type(rat(value)) is int


@pytest.mark.parametrize("value", ["3/2", Fraction(-1, 3)])
def test_rat_returns_fraction_otherwise(value):
    assert type(rat(value)) is Fraction
    assert rat(value) == Fraction(value)


def test_solver_answers_are_int_where_integral():
    (sol, ker) = solve_linear([[2, 0], [0, 4]], [4, 2])
    assert sol == (2, Fraction(1, 2))
    assert [type(e) for e in sol] == [int, Fraction]
    assert all(type(e) is int for v in solve_linear([[1, 1, 1]], [0])[1]
               for e in v)


EXACT_MODULES = ("rational", "cone", "model", "exhaustion", "chambers",
                 "flop")


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_use_no_true_division(name):
    # int / int is a float: the exact layers divide by // or Fraction only
    source = importlib.util.find_spec(f"fanoray.{name}").origin
    tree = ast.parse(pathlib.Path(source).read_text(encoding="utf-8"))
    divisions = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    assert divisions == []


def test_inconsistent_rows_blames_a_lone_infeasible_row():
    # row 2 alone reads 0 = 5; rows 0 and 1 are innocent
    assert inconsistent_rows([[1, 0], [0, 1], [0, 0]], [1, 2, 5]) == (2,)
    assert inconsistent_rows([[1, 1], [1, 1]], [1, 2]) == (0, 1)

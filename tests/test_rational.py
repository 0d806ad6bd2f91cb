from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoray.rational import (ExactArithError, QMat, QVec, kernel, rank, rat,
                              rat_str, solve_linear)

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
    sol, ker = solve_linear(QMat([[-2, 0], [0, -1]]), QVec([-3, -3]))
    assert sol == QVec([rat("3/2"), 3])
    assert ker == []


def test_solve_linear_identity():
    sol, ker = solve_linear(QMat.identity(3), QVec([0, 0, 0]))
    assert sol == QVec([0, 0, 0])
    assert ker == []


def test_solve_linear_underdetermined_checked_by_substitution():
    a = QMat([[1, 1]])
    sol, ker = solve_linear(a, QVec([1]))
    assert a.apply(sol) == QVec([1])
    assert len(ker) == 1
    assert a.apply(ker[0]) == QVec([0])
    assert not ker[0].is_zero()


def test_solve_linear_no_solution():
    assert solve_linear(QMat([[1, 0], [1, 0]]), QVec([1, 2])) is None


def test_solve_linear_dimension_mismatch():
    with pytest.raises(ExactArithError):
        solve_linear(QMat([[1, 0]]), QVec([1, 2]))


def test_kernel_examples():
    assert kernel(QMat.identity(2)) == []
    two = kernel(QMat([[1, 1, 1]]))
    assert len(two) == 2
    for v in two:
        assert sum(v.entries) == 0
    four = kernel(QMat([[1, 1, 1, -1, 2]]))
    assert len(four) == 4
    row = QVec([1, 1, 1, -1, 2])
    for v in four:
        assert row.dot(v) == 0


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.integers(min_value=1, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@given(rows=matrices)
@settings(max_examples=100)
def test_rank_nullity(rows):
    a = QMat(rows)
    assert rank(a.entries) + len(kernel(a)) == a.cols


@given(rows=matrices, data=st.data())
@settings(max_examples=60)
def test_solve_resubstitutes_exactly(rows, data):
    a = QMat(rows)
    x = QVec(data.draw(st.lists(rationals, min_size=a.cols, max_size=a.cols)))
    b = a.apply(x)
    solved = solve_linear(a, b)
    assert solved is not None
    sol, ker = solved
    assert a.apply(sol) == b
    for v in ker:
        assert a.apply(v) == QVec([0] * a.rows)


def test_qvec_qmat_basics():
    v = QVec([1, "1/2", -2])
    assert v.dim == 3
    assert (v + v).entries == (rat(2), rat(1), rat(-4))
    assert v.scale("1/2")[1] == rat("1/4")
    m = QMat([[1, 2], [3, 4]])
    assert m.transpose().entries == ((rat(1), rat(3)), (rat(2), rat(4)))
    with pytest.raises(ExactArithError):
        QVec([])
    with pytest.raises(ExactArithError):
        QMat([[1], [1, 2]])

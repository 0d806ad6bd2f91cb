"""Exact rational values, vectors and matrices, and the exact int kernel.

A value is an ``int`` when it is integral and a ``fractions.Fraction``
(gcd-reduced, denominator > 1) otherwise; ``rat`` is the one way in, and
serialization is the bit-exact ``str`` round trip ("3", "-3/2").  No
floats are accepted anywhere.  A vector is a plain tuple of values and a
matrix a tuple of row tuples; ``dot``, ``apply`` and ``transpose`` are the
only operations on them.  Elimination (``rank`` and ``solve_linear``,
whose kernel basis is the null space) and the cone engine's phase-1
simplex share one fraction-free (Bareiss) pivot on int rows, whose
division by the previous pivot is exact; a ``Fraction`` is built only to
read out a value that is not integral.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]
Vec = tuple[Rat, ...]
Mat = tuple[Vec, ...]           # by rows
RatLike = Union[Fraction, int, str]


class ExactArithError(ValueError):
    pass


# the one grammar of a serialized value: "n" or "n/d" in ASCII digits
_LITERAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def rat(x: RatLike) -> Rat:
    """Coerce a serialized string, an int or a Fraction to an exact value:
    an int when it is integral, a Fraction otherwise.

    A string, the loader's case and so tested first, reads "n" or "n/d"
    in ASCII digits on every Python version (a sign on n, d nonzero,
    whitespace around; no ".", "e", "_" or other digits), matched against
    one compiled grammar.  Floats are rejected: every number in the corpus
    is exact and a float sneaking in would silently poison downstream
    equality checks.  An error message echoes the value's repr, cut to
    its first 40 characters and its length when longer.
    """
    if isinstance(x, str):
        match = _LITERAL.fullmatch(x)
        if match:
            try:
                return _quotient(int(match[1]), int(match[2] or 1))
            except (ValueError, ZeroDivisionError):
                pass  # int() refuses an overlong literal; d is zero
        raise ExactArithError(f"bad rational literal {_shown(x)}")
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise ExactArithError(f"not a rational: {_shown(x)}")


def _shown(x) -> str:
    """repr(x), or its first 40 characters, "…" and its length if longer."""
    text = repr(x)
    if len(text) <= 40:
        return text
    return f"{text[:40]}… ({len(text)} characters)"


def rat_str(x: Rat) -> str:
    """Canonical serialization: "p/q" in lowest terms, or "n" for integers."""
    return str(x)


def _quotient(n: int, d: int) -> Rat:
    """The exact value n/d of two ints: an int when d divides n."""
    q, r = divmod(n, d)
    return q if r == 0 else Fraction(n, d)


def dot(a: Sequence[Rat], b: Sequence[Rat]) -> Rat:
    """Exact a . b; vectors of different lengths raise ValueError."""
    if len(a) != len(b):
        raise ValueError(f"dot of vectors of lengths {len(a)} and {len(b)}")
    s = sum(map(mul, a, b))
    return s if type(s) is int else rat(s)


def apply(m: Sequence[Sequence[Rat]], v: Sequence[Rat]) -> Vec:
    """The matrix m applied to the vector v: one dot per row."""
    return tuple(dot(row, v) for row in m)


def transpose(m: Sequence[Sequence[Rat]]) -> Mat:
    return tuple(zip(*m))


def _cleared(row) -> list[int]:
    """An int or Fraction row times the lcm of its denominators: ints."""
    m = lcm(*(e.denominator for e in row))
    return [e.numerator * (m // e.denominator) for e in row]


def _pivot(rows: list[list[int]], r: int, col: int, prev: int) -> int:
    """One fraction-free (Bareiss) pivot on p = rows[r][col], in place.

    Every other row becomes (p*row - row[col]*rows[r]) // prev, prev being
    the previous pivot (1 at the start); returns p, the next prev.  The
    division is exact (each entry is a minor of the starting int rows)
    only because *every* row is updated, zero in the pivot column or not.
    """
    pivot = rows[r]
    p = pivot[col]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot)]
    return p


def _eliminate(rows: list[list[int]], width: int):
    """In-place Gauss-Jordan elimination of int rows by ``_pivot``; returns
    the (row index, pivot column) pairs in order.  Columns are scanned left
    to right and the first not-yet-used row with a nonzero entry wins."""
    pivots: list[tuple[int, int]] = []
    free = list(range(len(rows)))
    prev = 1
    for col in range(width):
        r = next((i for i in free if rows[i][col] != 0), None)
        if r is not None:
            free.remove(r)
            pivots.append((r, col))
            prev = _pivot(rows, r, col, prev)
    return pivots


def rank(rows: Iterable[Sequence]) -> int:
    """Rank of int or Fraction rows: the number of pivots found."""
    rows = [_cleared(r) for r in rows]
    return len(_eliminate(rows, len(rows[0]) if rows else 0))


def solve_linear(a: Sequence[Sequence[Rat]], b: Sequence[Rat]):
    """Solve A·x = b exactly, A given by its rows.

    Returns (solution, kernel_basis) with A·solution = b and the kernel
    vectors spanning the null space, or None when b is outside the column
    space.  Free variables are set to zero, so the result is deterministic.
    """
    if len(a) != len(b):
        raise ExactArithError(
            f"dimension mismatch: matrix rows {len(a)}, vector {len(b)}")
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ExactArithError("ragged matrix")
    aug = [_cleared([*row, e]) for row, e in zip(a, b)]
    pivots = _eliminate(aug, cols)
    if any(row[cols] != 0 and not any(row[:cols]) for row in aug):
        return None
    solution = [0] * cols
    for row, col in pivots:
        solution[col] = _quotient(aug[row][cols], aug[row][col])
    basis = []
    for fc in sorted(set(range(cols)) - {col for _, col in pivots}):
        v = [0] * cols
        v[fc] = 1
        for row, col in pivots:
            v[col] = _quotient(-aug[row][fc], aug[row][col])
        basis.append(tuple(v))
    return tuple(solution), basis


def inconsistent_rows(rows: Sequence[Sequence[Rat]],
                      rhs: Sequence[Rat]) -> tuple[int, ...]:
    """Indices of an infeasible subsystem of  rows . x = rhs.

    Single rows first (a zero row with a nonzero right-hand side), then
    pairs (the common case is one row contradicting a duplicate),
    otherwise greedy deletion down to an irreducible infeasible core.
    """
    def feasible(idx):
        return solve_linear([rows[i] for i in idx],
                            [rhs[i] for i in idx]) is not None

    for size in (1, 2):
        for idx in combinations(range(len(rows)), size):
            if not feasible(idx):
                return idx
    core = list(range(len(rows)))
    for i in list(core):
        trial = [j for j in core if j != i]
        if len(trial) >= 2 and not feasible(trial):
            core = trial
    return tuple(core)

"""Exact rational scalars, vectors and matrices, and the exact int kernel.

Scalars are ``fractions.Fraction`` (gcd-reduced, denominator > 0), and
serialization is the bit-exact ``str``/``Fraction`` round trip ("3",
"-3/2").  No floats are accepted anywhere.  Elimination (``rank``,
``solve_linear``) and the cone engine's phase-1 simplex share one
fraction-free (Bareiss) pivot on int rows, whose division by the previous
pivot is exact; a ``Fraction`` is built only to read out an answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence, Union

Rat = Fraction
RatLike = Union[Fraction, int, str]


class ExactArithError(ValueError):
    pass


def rat(x: RatLike) -> Fraction:
    """Coerce an int, Fraction or serialized string to an exact rational.

    Floats are rejected: every number in the corpus is exact and a float
    sneaking in would silently poison downstream equality checks.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ExactArithError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        try:
            value = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactArithError(f"bad rational literal {x!r}") from exc
        if "." in s or "e" in s or "E" in s:
            raise ExactArithError(f"decimal notation rejected: {x!r}")
        return value
    raise ExactArithError(f"not a rational: {x!r}")


def rat_str(x: Fraction) -> str:
    """Canonical serialization: "p/q" in lowest terms, or "n" for integers."""
    return str(x)


class QVec:
    """Immutable exact rational vector."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[RatLike]):
        self.entries = tuple(rat(e) for e in entries)
        if not self.entries:
            raise ExactArithError("empty vector")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, QVec) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "QVec(%s)" % (", ".join(rat_str(e) for e in self.entries))

    def _check_dim(self, other: "QVec") -> None:
        if self.dim != other.dim:
            raise ExactArithError(
                f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "QVec") -> "QVec":
        self._check_dim(other)
        return QVec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "QVec") -> "QVec":
        self._check_dim(other)
        return QVec(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "QVec":
        return QVec(-a for a in self.entries)

    def scale(self, c: RatLike) -> "QVec":
        c = rat(c)
        return QVec(c * a for a in self.entries)

    def dot(self, other: "QVec") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)),
                   Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def to_strings(self) -> list[str]:
        return [rat_str(e) for e in self.entries]


class QMat:
    """Immutable exact rational matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_of_entries: Sequence[Sequence[RatLike]]):
        data = [tuple(rat(e) for e in row) for row in rows_of_entries]
        if not data:
            raise ExactArithError("empty matrix")
        self.rows = len(data)
        self.cols = len(data[0])
        if self.cols == 0 or any(len(r) != self.cols for r in data):
            raise ExactArithError("ragged matrix")
        self.entries = tuple(data)

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, QMat) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"QMat({self.rows}x{self.cols})"

    def row(self, i: int) -> QVec:
        return QVec(self.entries[i])

    def transpose(self) -> "QMat":
        return QMat([[self.entries[i][j] for i in range(self.rows)]
                     for j in range(self.cols)])

    def apply(self, v: QVec) -> QVec:
        if v.dim != self.cols:
            raise ExactArithError(
                f"dimension mismatch: matrix cols {self.cols}, vector {v.dim}")
        return QVec(sum((self.entries[i][j] * v[j] for j in range(self.cols)),
                        Fraction(0)) for i in range(self.rows))


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


def solve_linear(a: QMat, b: QVec):
    """Solve A·x = b exactly.

    Returns (solution, kernel_basis) with A·solution = b and the kernel
    vectors spanning the null space, or None when b is outside the column
    space.  Free variables are set to zero, so the result is deterministic.
    """
    if a.rows != b.dim:
        raise ExactArithError(
            f"dimension mismatch: matrix rows {a.rows}, vector {b.dim}")
    aug = [_cleared(r + (b[i],)) for i, r in enumerate(a.entries)]
    pivots = _eliminate(aug, a.cols)
    if any(row[a.cols] != 0 and not any(row[: a.cols]) for row in aug):
        return None
    solution = [0] * a.cols
    for row, col in pivots:
        solution[col] = Fraction(aug[row][a.cols], aug[row][col])
    basis = []
    for fc in sorted(set(range(a.cols)) - {col for _, col in pivots}):
        v = [0] * a.cols
        v[fc] = 1
        for row, col in pivots:
            v[col] = Fraction(-aug[row][fc], aug[row][col])
        basis.append(QVec(v))
    return QVec(solution), basis


def inconsistent_rows(rows: Sequence[Sequence[RatLike]],
                      rhs: Sequence[RatLike]) -> tuple[int, ...]:
    """Indices of an infeasible subsystem of  rows . x = rhs.

    Single rows first (a zero row with a nonzero right-hand side), then
    pairs (the common case is one row contradicting a duplicate),
    otherwise greedy deletion down to an irreducible infeasible core.
    """
    def feasible(idx):
        return solve_linear(QMat([rows[i] for i in idx]),
                            QVec([rhs[i] for i in idx])) is not None

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


def kernel(a: QMat) -> list[QVec]:
    """Basis of the exact null space of A (empty list when injective)."""
    return solve_linear(a, QVec([0] * a.rows))[1]

"""Exact rational scalars, vectors and matrices.

Everything downstream (cones, pullback charts, flop solves) runs on these.
Scalars are ``fractions.Fraction``, which already gives canonical form:
gcd-reduced, denominator > 0, arbitrary-precision integers.  Serialization
is the plain ``str``/``Fraction`` round trip ("3", "-3/2"), which is
bit-exact.  No floats are accepted anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
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


def _eliminate(rows: list[list[Fraction]], width: int):
    """In-place forward elimination, first nonzero pivot by row order.

    Returns the list of (row index, pivot column) in elimination order.
    Deterministic by construction: columns scanned left to right, the first
    not-yet-used row with a nonzero entry wins.
    """
    pivots: list[tuple[int, int]] = []
    used: set[int] = set()
    for col in range(width):
        pivot_row = None
        for i in range(len(rows)):
            if i not in used and rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        used.add(pivot_row)
        pivots.append((pivot_row, col))
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [e * inv for e in rows[pivot_row]]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pivot_row])]
    return pivots


def rank(rows: Iterable[Sequence]) -> int:
    """Rank of int or Fraction rows by fraction-free elimination.

    Each step takes a nonzero row as pivot and clears its leading column
    from the other rows by cross-multiplication; no division happens, so
    int rows (the cone engine's) stay ints.
    """
    rows = [list(r) for r in rows if any(r)]
    count = 0
    while rows:
        pivot = rows.pop()
        col = next(j for j, x in enumerate(pivot) if x != 0)
        rows = [[pivot[col] * a - r[col] * b for a, b in zip(r, pivot)]
                if r[col] != 0 else r for r in rows]
        rows = [r for r in rows if any(r)]
        count += 1
    return count


def solve_linear(a: QMat, b: QVec):
    """Solve A·x = b exactly.

    Returns (solution, kernel_basis) with A·solution = b and the kernel
    vectors spanning the null space, or None when b is outside the column
    space.  Free variables are set to zero, so the result is deterministic.
    """
    if a.rows != b.dim:
        raise ExactArithError(
            f"dimension mismatch: matrix rows {a.rows}, vector {b.dim}")
    aug = [list(r) + [b[i]] for i, r in enumerate(a.entries)]
    pivots = _eliminate(aug, a.cols)
    pivot_cols = {col: row for row, col in pivots}
    for i, row in enumerate(aug):
        if all(e == 0 for e in row[: a.cols]) and row[a.cols] != 0:
            return None
    solution = [Fraction(0)] * a.cols
    for col, row in pivot_cols.items():
        solution[col] = aug[row][a.cols]
    basis = []
    for fc in (c for c in range(a.cols) if c not in pivot_cols):
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for col, row in pivot_cols.items():
            v[col] = -aug[row][fc]
        basis.append(QVec(v))
    return QVec(solution), basis


def inconsistent_rows(rows: Sequence[Sequence[RatLike]],
                      rhs: Sequence[RatLike]) -> tuple[int, ...]:
    """Indices of an infeasible subsystem of  rows . x = rhs.

    Pairs first (the common case is one row contradicting a duplicate),
    otherwise greedy deletion down to an irreducible infeasible core.
    """
    def feasible(idx):
        return solve_linear(QMat([rows[i] for i in idx]),
                            QVec([rhs[i] for i in idx])) is not None

    for pair in combinations(range(len(rows)), 2):
        if not feasible(pair):
            return pair
    core = list(range(len(rows)))
    for i in list(core):
        trial = [j for j in core if j != i]
        if len(trial) >= 2 and not feasible(trial):
            core = trial
    return tuple(core)


def kernel(a: QMat) -> list[QVec]:
    """Basis of the exact null space of A (empty list when injective)."""
    return solve_linear(a, QVec([0] * a.rows))[1]

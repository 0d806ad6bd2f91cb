"""Plain int/Fraction arithmetic for the benchmark's own correctness checks.

Nothing here imports fanoray: every expected value the checks compare
against is recomputed from the raw inputs with these few functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Facet counts of the cones spanned by the (-1)-curves of P^2 blown up at
# r points: the Gosset polytopes -1_21, 0_21, 1_21, 2_21 and 3_21.
GOSSET_FACETS = {3: 5, 4: 10, 5: 26, 6: 99, 7: 702}


def frac(x) -> Fraction:
    """Rational from a record entry: an int or a string such as "-3/2"."""
    return Fraction(x)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v) -> tuple[int, ...] | None:
    """Primitive integer vector positively proportional to v (None for 0)."""
    v = [Fraction(x) for x in v]
    if not any(v):
        return None
    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def is_primitive(v) -> bool:
    return all(isinstance(x, int) for x in v) and gcd(*v) == 1


def int_rank(rows) -> int:
    """Rank of integer row vectors by fraction-free elimination."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next(i for i, x in enumerate(pivot) if x)
        rank += 1
        rest = []
        for r in rows:
            if r[col]:
                r = [pivot[col] * a - r[col] * b for a, b in zip(r, pivot)]
                g = gcd(*r)
                if g > 1:
                    r = [x // g for x in r]
            if any(r):
                rest.append(r)
        rows = rest
    return rank


def transpose_apply(pullback, v) -> list[Fraction]:
    """pullback^T . v for a rho x (rho-1) pullback matrix."""
    return [sum(Fraction(row[j]) * Fraction(x) for row, x in zip(pullback, v))
            for j in range(len(pullback[0]))]


def minus_one_curves(r: int) -> list[tuple[int, ...]]:
    """Classes (a, b_1..b_r) of aL - sum b_i E_i with a^2 - sum b_i^2 = -1
    and 3a - sum b_i = 1, sorted; for r <= 7 every such class has a <= 3."""
    found = []

    def extend(prefix, a, s_left, q_left):
        k = r - len(prefix)
        if k == 0:
            if s_left == 0 and q_left == 0:
                found.append((a, *prefix))
            return
        # Cauchy-Schwarz: k entries with sum s and square sum q need s^2 <= kq
        if q_left < 0 or s_left * s_left > k * q_left:
            return
        for b in range(-1, a + 1):
            extend(prefix + [b], a, s_left - b, q_left - b * b)

    for a in range(4):
        extend([], a, 3 * a - 1, a * a + 1)
    return sorted(found)

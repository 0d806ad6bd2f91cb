"""Independent oracles for cone properties.

These deliberately avoid the engine's simplex / double-description /
fraction-Gaussian paths: membership is decided by Caratheodory
enumeration, solving each generator subset with integer Cramer
determinants (Bareiss elimination for the minors), so a bug in the
engine's LP cannot hide itself.  Rank is the size of the largest nonzero
minor, independent of the engine's elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _int_det(rows) -> int:
    """Fraction-free (Bareiss) determinant of a small integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 1:
        return m[0][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_bruteforce(rows) -> int:
    """Rank of an integer matrix: the size of its largest nonzero minor,
    each minor a Bareiss determinant."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    for k in range(min(len(rows), width), 0, -1):
        for picked_rows in combinations(range(len(rows)), k):
            for picked_cols in combinations(range(width), k):
                minor = [[rows[i][j] for j in picked_cols]
                         for i in picked_rows]
                if _int_det(minor) != 0:
                    return k
    return 0


def _pivot_rows(cols, v, d, r):
    """Indices of r rows with an invertible minor, or None if the columns
    are dependent.  Plain integer forward elimination."""
    m = [[cols[j][k] for j in range(r)] for k in range(d)]
    used = []
    avail = list(range(d))
    for col in range(r):
        piv = next((i for i in avail if m[i][col] != 0), None)
        if piv is None:
            return None
        used.append(piv)
        avail.remove(piv)
        for i in avail:
            if m[i][col] != 0:
                a, b = m[piv][col], m[i][col]
                m[i] = [a * x - b * y for x, y in zip(m[i], m[piv])]
    return used


def _subset_solution(cols, v, d):
    """Nonnegative rational solution of sum lam_j cols[j] = v, or None.

    Dependent subsets are skipped: Caratheodory covers their cone through
    smaller independent subsets.
    """
    r = len(cols)
    if r == 1:
        col = cols[0]
        k = next(i for i in range(d) if col[i] != 0)
        if v[k] * col[k] < 0:
            return None
        lam = Fraction(v[k], col[k])
        return [lam] if all(lam * col[i] == v[i] for i in range(d)) else None
    chosen = _pivot_rows(cols, v, d, r)
    if chosen is None:
        return None
    minor = [[cols[j][k] for j in range(r)] for k in chosen]
    w = [v[k] for k in chosen]
    det = _int_det(minor)
    lams = []
    for j in range(r):
        m = [row[:j] + [w[i]] + row[j + 1:] for i, row in enumerate(minor)]
        dj = _int_det(m)
        if dj * det < 0:
            return None
        lams.append(Fraction(dj, det))
    # verify every coordinate, not just the chosen minor rows
    for k in range(d):
        if sum(lams[j] * cols[j][k] for j in range(r)) != v[k]:
            return None
    return lams


def in_cone_bruteforce(vec, gens, dim) -> bool:
    """Exact membership by enumerating generator subsets of size <= dim."""
    v = list(vec)
    if all(x == 0 for x in v):
        return True
    gens = list(gens)
    for r in range(1, min(dim, len(gens)) + 1):
        for subset in combinations(gens, r):
            if _subset_solution(list(subset), v, dim) is not None:
                return True
    return False


def extreme_rays_bruteforce(gens, dim):
    """A generator is extreme iff it is not in the cone of the others."""
    out = []
    for i, g in enumerate(gens):
        others = gens[:i] + gens[i + 1:]
        if not in_cone_bruteforce(g, others, dim):
            out.append(g)
    return sorted(out)


def random_pointed_cones(count, seed=20240815):
    """Deterministic stream of pointed cones (dim <= 5, <= 8 generators,
    entries in [-4, 4]).

    Pointedness certificates from the engine are re-verified by plain dot
    products, so a broken is_pointed cannot smuggle in bad samples.
    """
    import random

    from fanoray.cone import Cone

    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        dim = rng.randint(2, 5)
        n = rng.randint(2, 8)
        gens = []
        for _ in range(n):
            v = tuple(rng.randint(-4, 4) for _ in range(dim))
            if any(v):
                gens.append(v)
        if not gens:
            continue
        cone = Cone(dim, gens)
        pt = cone.is_pointed()
        if not pt.pointed:
            continue
        assert all(
            sum(Fraction(w) * g for w, g in zip(pt.functional, gen)) > 0
            for gen in cone.generators)
        cones.append(cone)
    return cones

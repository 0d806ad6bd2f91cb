"""Independent oracles for cone properties.

These deliberately avoid the engine's simplex / double-description /
fraction-Gaussian paths: membership is decided by Caratheodory
enumeration, solving each generator subset with integer Cramer
determinants (Bareiss elimination for the minors), so a bug in the
engine's LP cannot hide itself.  Rank is the size of the largest nonzero
minor, independent of the engine's elimination.

Two references run the engine's algorithms in plain Fraction arithmetic,
dividing by each pivot, so the engine's int kernel is judged against
them: ``phase1_fraction`` (the same phase-1 simplex and Bland's rule on a
Fraction tableau) and ``solve_linear_fraction`` (Gauss-Jordan).  The
engine must return exactly their certificates and solutions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from fanoray.cone import ConeError


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


def phase1_fraction(cols: list[Sequence], rhs: Sequence):
    """Reference phase-1 simplex on a Fraction tableau, dividing by each
    pivot; ``cone._phase1`` must return the same answer.

    Feasibility of  sum_j lam_j * cols[j] = rhs,  lam >= 0.

    Returns ("feasible", lam) with exact nonnegative coefficients, or
    ("infeasible", y) with y . cols[j] <= 0 for every j and y . rhs > 0.
    Bland's rule throughout: deterministic and cycle-free.
    """
    d = len(rhs)
    n = len(cols)
    flip = [-1 if rhs[k] < 0 else 1 for k in range(d)]
    tab = []
    for k in range(d):
        row = [Fraction(flip[k] * cols[j][k]) for j in range(n)]
        row += [Fraction(1) if t == k else Fraction(0) for t in range(d)]
        row.append(Fraction(flip[k] * rhs[k]))
        tab.append(row)
    basis = [n + k for k in range(d)]
    total = n + d
    # reduced costs for cost vector (0,...,0, 1,...,1)
    z = [Fraction(0)] * (total + 1)
    for j in range(total + 1):
        z[j] = (Fraction(1) if n <= j < total else Fraction(0)) - sum(
            tab[k][j] for k in range(d))

    while True:
        enter = next((j for j in range(total) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for k in range(d):
            if tab[k][enter] > 0:
                ratio = tab[k][total] / tab[k][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[k] < basis[leave]):
                    best = ratio
                    leave = k
        if leave is None:
            raise ConeError("unbounded phase-1 objective (corrupt input)")
        piv = tab[leave][enter]
        tab[leave] = [e / piv for e in tab[leave]]
        for k in range(d):
            if k != leave and tab[k][enter] != 0:
                f = tab[k][enter]
                tab[k] = [a - f * b for a, b in zip(tab[k], tab[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [a - f * b for a, b in zip(z, tab[leave])]
        basis[leave] = enter

    objective = -z[total]
    if objective > 0:
        # duals sit under the artificial columns: z[n+t] = 1 - y_t
        y = [flip[t] * (1 - z[n + t]) for t in range(d)]
        return "infeasible", y
    lam = [Fraction(0)] * n
    for k in range(d):
        if basis[k] < n:
            lam[basis[k]] = tab[k][total]
    return "feasible", lam


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


def solve_linear_fraction(rows, rhs):
    """Plain Fraction Gauss-Jordan for  rows . x = rhs.

    Returns (solution, kernel basis) as lists of Fraction lists, free
    variables set to zero, or None when the system is inconsistent.  The
    reduced echelon form is unique, so any exact elimination must agree.
    """
    width = len(rows[0])
    m = [[Fraction(e) for e in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(width):
        r = next((i for i in range(len(pivots), len(m)) if m[i][col] != 0),
                 None)
        if r is None:
            continue
        top = len(pivots)
        m[top], m[r] = m[r], m[top]
        m[top] = [e / m[top][col] for e in m[top]]
        for i in range(len(m)):
            if i != top and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        pivots.append(col)
    if any(row[width] != 0 for row in m[len(pivots):]):
        return None
    solution = [Fraction(0)] * width
    for i, col in enumerate(pivots):
        solution[col] = m[i][width]
    kernel = []
    for free in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -m[i][free]
        kernel.append(v)
    return solution, kernel

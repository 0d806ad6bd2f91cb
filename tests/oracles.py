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
``dual_description_reference`` is the double description without the
popcount prefilter: every pair of rays goes through the full adjacency
scan, and the engine must return exactly its rays, lineality and
incidence.

``facet_patch_reference`` is ``chambers.facet_patch_check`` as it was
before it read the facet off the candidates' images: it solves for the
chart preimage of every nef generator on the wall, decides the reverse
containment by membership in their cone, here by the Caratheodory
oracle, and it never checks the chart.  On records with valid charts the
two fail the same rays with the same reverse-containment witnesses, and
each wall witness of the reference pairs < 0 with an edge that the check
names as the image of no candidate.

``derive_target_edges_reference`` is ``exhaustion.derive_target_edges``
as it was before it read the edges off the full cone's incidence: it
builds the image cone under the pushforward and reduces it to its extreme
rays by a double description of its own.  The two must return the same
edges, or raise the same exception class, on every input.

``canonicalize_ray_fraction`` is ``cone.canonicalize_ray`` in Fraction
arithmetic: it divides the vector by the rational gcd of its entries
(the gcd of the reduced numerators over the lcm of the denominators)
instead of clearing denominators and then dividing by an int content.

``minus_one_curves`` enumerates the (-1)-curve classes of P^2 blown up at
up to 8 points, where the largest degree is 6 (the benchmark's own
enumerator stops at degree 3, which is enough only up to 7 points).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import Sequence

from fanoray.chambers import nef_cone
from fanoray.cone import Cone, ConeError, IVec, _ivec_dot, canonicalize_ray
from fanoray.exhaustion import ExhaustionError, TargetEntry, pushforward_map
from fanoray.model import Finding
from fanoray.rational import dot, rat_str, solve_linear


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


def canonicalize_ray_fraction(v) -> IVec:
    """The primitive int vector positively proportional to a nonzero v."""
    entries = [Fraction(e) for e in v]
    content = Fraction(gcd(*(e.numerator for e in entries)),
                       lcm(*(e.denominator for e in entries)))
    scaled = [e / content for e in entries]
    assert all(e.denominator == 1 for e in scaled)
    return tuple(e.numerator for e in scaled)


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


def dual_description_reference(generators: Sequence[IVec], dim: int):
    """Reference double description without the popcount prefilter;
    ``cone.dual_description`` must return the same answer.

    Minimal description (rays, lineality, incidence) of
    {w : w.g >= 0 for all g}.

    Generators are inserted in the given order; rays come back sorted.
    The lineality basis is empty exactly when the generators span R^dim.
    ``incidence[k]`` is the int bitmask of the generators that ``rays[k]``
    is tight on (bit i for ``generators[i]``).  It is carried through the
    construction, never recomputed: each insertion pairs the new generator
    with each ray once, and a ray made from an adjacent pair is tight
    exactly where both parents are.
    """
    lineality: list[IVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays: list[IVec] = []
    masks: list[int] = []
    for i, a in enumerate(generators):
        bit = 1 << i
        vals = [_ivec_dot(a, u) for u in lineality]
        hit = next((k for k, s in enumerate(vals) if s != 0), None)
        if hit is not None:
            # a cuts the lineality space: every other vector moves along u0
            # onto a.w = 0; u0 becomes a ray, tight on every earlier generator
            sign = 1 if vals[hit] > 0 else -1
            u0 = tuple(sign * x for x in lineality[hit])
            s = abs(vals[hit])
            new: dict[IVec, int] = {}

            def onto_a(v, t):
                return canonicalize_ray(
                    tuple(s * x - t * y for x, y in zip(v, u0)))
            lineality = [onto_a(u, t) for k, (u, t)
                         in enumerate(zip(lineality, vals)) if k != hit]
            for r, mask in zip(rays, masks):
                new.setdefault(onto_a(r, _ivec_dot(a, r)), mask | bit)
            new.setdefault(canonicalize_ray(u0), bit - 1)
        else:
            vals = [_ivec_dot(a, r) for r in rays]
            new = {r: mask | bit if v == 0 else mask
                   for r, mask, v in zip(rays, masks, vals) if v >= 0}
            neg = [k for k, v in enumerate(vals) if v < 0]
            for p, ap in enumerate(vals):
                if ap <= 0:
                    continue
                for m in neg:
                    common = masks[p] & masks[m]
                    if any(common & mask == common
                           for k, mask in enumerate(masks)
                           if k != p and k != m):
                        continue
                    new.setdefault(canonicalize_ray(tuple(
                        ap * x - vals[m] * y
                        for x, y in zip(rays[m], rays[p]))), common | bit)
        rays, masks = list(new), list(new.values())
    ordered = sorted(zip(rays, masks))
    return [r for r, _ in ordered], sorted(lineality), [m for _, m in ordered]


def minus_one_curves(r: int) -> list[tuple[int, ...]]:
    """Sorted classes (a, b_1..b_r) of a*L - sum b_i*E_i on P^2 blown up at
    r <= 8 points with self-intersection -1 and anticanonical degree 1:
    a^2 - sum b_i^2 = -1 and 3a - sum b_i = 1.

    The exceptional curves E_i are the classes with a = 0; every other
    class has 0 <= b_i <= a, and a <= 6 once r <= 8 (the largest is
    6L - 3E_1 - 2(E_2 + ... + E_8)).  Each b_i is at most the square root
    of what is left of sum b_i^2, and the coordinates still open can reach
    the sum still owed only if its square is at most their count times
    the square sum still owed (Cauchy-Schwarz).
    """
    if not 0 <= r <= 8:
        raise ValueError("the degree bound a <= 6 holds for r <= 8 only")
    found = [tuple(-1 if i == j else 0 for i in range(-1, r))
             for j in range(r)]
    for a in range(1, 7):
        stack = [((), 3 * a - 1, a * a + 1)]
        while stack:
            prefix, total, squares = stack.pop()
            left = r - len(prefix)
            if left == 0:
                if total == 0 and squares == 0:
                    found.append((a, *prefix))
            elif total * total <= left * squares:
                for b in range(min(a, isqrt(squares)) + 1):
                    stack.append((prefix + (b,), total - b, squares - b * b))
    return sorted(found)


def facet_patch_reference(record, targets, candidate_labels=None):
    """Reference facet-patch audit; on records whose charts are valid,
    ``chambers.facet_patch_check`` must fail the same rays with the same
    "exceeds the facet" findings, and name an uncovered edge for each
    "strictly larger" witness here (an edge the witness pairs < 0 with).

    For each candidate ray with a descriptor: the generators of the facet
    it cuts out of the nef cone, written in the pullback chart, must
    generate exactly the dual of its target edge set (mutual membership).
    Separately,
    every codimension-two face of the nef cone must lie in exactly two
    facets.  Findings mirror exhaustion failures: a candidate set missing
    a ray leaves some facet strictly larger than the dual it should match.
    """
    labels = list(candidate_labels) if candidate_labels is not None \
        else record.ray_labels()
    findings: list[Finding] = []
    amp = nef_cone(record, labels)

    for lab in labels:
        ray = record.ray(lab)
        if ray.contraction is None or lab not in targets:
            continue
        pullback = ray.contraction.pullback
        wall = [w for w in amp.generators if dot(w, ray.vec) == 0]
        chart_wall = []
        for w in wall:
            solved = solve_linear(pullback, w)
            if solved is None:
                findings.append(Finding(
                    "facet-patch", f"rays.{lab}",
                    f"facet generator {w} is outside the pullback chart"))
                continue
            chart_wall.append(solved[0])
        dual_target = Cone(record.rho - 1,
                           list(targets[lab].edges)).dual()
        for w in chart_wall:
            # the definition of the dual: w pairs >= 0 with every edge
            if any(dot(w, e) < 0 for e in targets[lab].edges):
                findings.append(Finding(
                    "facet-patch", f"rays.{lab}",
                    f"facet of the nef cone on {lab}'s wall is strictly "
                    f"larger than the dual of its target edges: witness "
                    f"({', '.join(map(rat_str, w))})"))
        if chart_wall:
            chart_cone = Cone(record.rho - 1, chart_wall)
            for e in dual_target.generators:
                if not in_cone_bruteforce(e, chart_cone.generators,
                                          record.rho - 1):
                    findings.append(Finding(
                        "facet-patch", f"rays.{lab}",
                        f"dual of target edges exceeds the facet on {lab}'s "
                        f"wall: witness {e}"))

    try:
        amp.codim2_faces()
    except ConeError as exc:
        findings.append(Finding("facet-patch", "codim2", str(exc)))
    return findings


def derive_target_edges_reference(record, full_labels, label):
    """Edge set of the pushed cone, computed from the full ray set."""
    cone = record.ray_cone(full_labels)
    pointed = cone.is_pointed()
    if not pointed.pointed:
        raise ExhaustionError(
            f"{record.record_id.render()}: ray set is not pointed")
    image = cone.image(pushforward_map(record, label))
    # image() already reduced its generators to the sorted extreme rays
    return TargetEntry(image.generators, "derived-oracle")

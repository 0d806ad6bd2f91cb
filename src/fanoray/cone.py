"""Finitely generated rational polyhedral cones, fully exact.

Rays are primitive integer vectors, so "equal up to positive scaling" is
structural equality.  Membership and pointedness run an exact phase-1
simplex (Bland's rule) on an int tableau by ``rational``'s fraction-free
pivot and return a certificate, read out as ints or Fractions:
nonnegative combination coefficients inside, a separating functional
outside.  Duals and facets come from an incremental double description
pass with generators inserted in input order, which keeps facet lists
reproducible across platforms.  The pass carries each ray's incidence
(the generators it is tight on, as an int bitmask) and decides which
pairs of rays are adjacent from those masks alone.  ``extreme_rays``
and ``neighbours`` (the extreme rays sharing a 2-face with a given one)
read the masks with no rank at all, and a cone's rank is read off the
dual's lineality; ``codim2_faces`` prefilters facet pairs on the masks
and lets one rank per remaining pair decide.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .rational import Rat, _cleared, _pivot, _quotient, apply, rank, rat

IVec = tuple[int, ...]


class ConeError(ValueError):
    pass


def _ivec_dot(a: Sequence, b: Sequence) -> Rat:
    return sum(map(mul, a, b))


def canonicalize_ray(v) -> IVec:
    """Unique primitive integer vector positively proportional to v.

    Clears denominators, divides by the content.  The direction is kept:
    no sign flip, a ray and its negative stay distinct.
    """
    ints = list(v)
    if not all(type(e) is int for e in ints):
        ints = _cleared([rat(e) for e in ints])
    content = gcd(*ints)
    if content == 0:
        raise ConeError("zero vector has no ray direction" if ints
                        else "empty vector")
    return tuple(x // content for x in ints)


# ---------------------------------------------------------------------------
# Exact phase-1 simplex
# ---------------------------------------------------------------------------

def _phase1(cols: list[Sequence[int]], rhs: Sequence):
    """Feasibility of  sum_j lam_j * cols[j] = rhs,  lam >= 0.

    Returns ("feasible", lam) with exact nonnegative coefficients, or
    ("infeasible", y) with y . cols[j] <= 0 for every j and y . rhs > 0.
    Bland's rule throughout: deterministic and cycle-free.

    The tableau is int, its rhs scaled by the lcm of its denominators and
    its last row the reduced costs of the cost (0,...,0, 1,...,1).
    ``_pivot`` keeps it det times the rational tableau (det the last
    pivot), so lam and y are read out as exact quotients over det.
    """
    d = len(rhs)
    n = len(cols)
    b = _cleared(rhs)
    flip = [-1 if e < 0 else 1 for e in b]
    tab = [[flip[k] * c[k] for c in cols]
           + [1 if t == k else 0 for t in range(d)] + [abs(b[k])]
           for k in range(d)]
    basis = [n + k for k in range(d)]
    total = n + d
    tab.append([(1 if n <= j < total else 0) - sum(row[j] for row in tab)
                for j in range(total + 1)])
    det = 1
    while True:
        enter = next((j for j in range(total) if tab[d][j] < 0), None)
        if enter is None:
            break
        # least ratio (by cross product), a tie to the smaller basic index
        leave = None
        for k in range(d):
            if tab[k][enter] > 0 and (leave is None or (
                    cross := tab[k][total] * tab[leave][enter]
                    - tab[leave][total] * tab[k][enter]) < 0
                    or cross == 0 and basis[k] < basis[leave]):
                leave = k
        if leave is None:
            raise ConeError("unbounded phase-1 objective (corrupt input)")
        det = _pivot(tab, leave, enter, det)
        basis[leave] = enter

    z = tab[d]
    if z[total] < 0:
        # duals sit under the artificial columns: z[n+t] = det * (1 - y_t)
        return "infeasible", [_quotient(flip[t] * (det - z[n + t]), det)
                              for t in range(d)]
    scale = lcm(*(e.denominator for e in rhs))
    lam = [0] * n
    for k in range(d):
        if basis[k] < n:
            lam[basis[k]] = _quotient(tab[k][total], det * scale)
    return "feasible", lam


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class Membership(NamedTuple):
    inside: bool
    coefficients: Optional[tuple[Rat, ...]]  # aligned with generators
    separator: Optional[tuple[Rat, ...]]


class Pointedness(NamedTuple):
    pointed: bool
    functional: Optional[tuple[Rat, ...]]  # <w, g> > 0 for every g
    line_combination: Optional[tuple[Rat, ...]]  # mu >= 0, sum mu g = 0
    line: Optional[IVec]


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------

def dual_description(generators: Sequence[IVec], dim: int):
    """Minimal description (rays, lineality, incidence) of
    {w : w.g >= 0 for all g}.

    Generators are inserted in the given order; rays come back sorted.
    The lineality basis is empty exactly when the generators span R^dim.
    ``incidence[k]`` is the int bitmask of the generators that ``rays[k]``
    is tight on (bit i for ``generators[i]``), carried through the
    insertions: a ray made from an adjacent pair is tight exactly where
    both parents are.  A pair is adjacent iff its common tight set has at
    least dim - len(lineality) - 2 bits (Fukuda and Prodon 1996) and no
    third ray is tight on all of it.
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
            pos = [k for k, v in enumerate(vals) if v > 0]
            neg = [k for k, v in enumerate(vals) if v < 0]
            need = dim - len(lineality) - 2
            for p, m in product(pos, neg):
                common = masks[p] & masks[m]
                # p and m are tight on all of common: adjacent iff no third
                if common.bit_count() < need or sum(
                        common & mask == common for mask in masks) > 2:
                    continue
                new.setdefault(canonicalize_ray(tuple(
                    vals[p] * x - vals[m] * y
                    for x, y in zip(rays[m], rays[p]))), common | bit)
        rays, masks = list(new), list(new.values())
    ordered = sorted(zip(rays, masks))
    return [r for r, _ in ordered], sorted(lineality), [m for _, m in ordered]


# ---------------------------------------------------------------------------
# Cone
# ---------------------------------------------------------------------------

class Cone:
    """Polyhedral cone given by generators (canonical primitive rays).

    The generators never change.  Four facts are memoised per instance,
    each computed on first use: the pointedness certificate, the double
    description of the dual (which ``facets``, ``extreme_rays``, ``dual``
    and ``rank`` all read), its incidence transposed (which ``extreme_rays``
    and ``neighbours`` read) and the extreme rays.  Concurrent first calls
    are benign: each thread computes the same deterministic value and the
    last slot write wins, so instances are safe to share across threads
    (only the identity of a memoised tuple may then differ between the
    racing callers).
    """

    __slots__ = ("ambient_dim", "generators", "_pointed", "_dd", "_covers",
                 "_extreme")

    def __init__(self, ambient_dim: int, generators: Iterable = ()):
        if ambient_dim <= 0:
            raise ConeError("ambient dimension must be positive")
        seen: dict[IVec, None] = {}
        for g in generators:
            ray = canonicalize_ray(g)
            if len(ray) != ambient_dim:
                raise ConeError(
                    f"generator dim {len(ray)} != ambient {ambient_dim}")
            seen.setdefault(ray, None)
        self.ambient_dim = ambient_dim
        self.generators: tuple[IVec, ...] = tuple(seen)
        self._pointed: Optional[Pointedness] = None
        self._dd: Optional[tuple[tuple, tuple, tuple]] = None
        self._covers: Optional[tuple[int, ...]] = None
        self._extreme: Optional[tuple[IVec, ...]] = None

    def __repr__(self) -> str:
        return f"Cone(dim={self.ambient_dim}, gens={len(self.generators)})"

    # -- queries ----------------------------------------------------------

    def rank(self) -> int:
        """Dimension of the span, read off the dual's lineality."""
        return self.ambient_dim - len(self._double_description()[1])

    def is_full_dimensional(self) -> bool:
        return self.rank() == self.ambient_dim

    def is_pointed(self) -> Pointedness:
        """Strict convexity with certificate, memoised.

        Pointed: a functional strictly positive on every generator.
        Not pointed: nonnegative coefficients mu, not all zero, with
        sum mu_j g_j = 0, exhibiting a line inside the cone.
        """
        if self._pointed is None:
            self._pointed = self._pointedness()
        return self._pointed

    def _pointedness(self) -> Pointedness:
        if not self.generators:
            return Pointedness(True, (0,) * self.ambient_dim, None, None)
        cols = [g + (1,) for g in self.generators]
        rhs = tuple([0] * self.ambient_dim + [1])
        status, cert = _phase1(cols, rhs)
        if status == "infeasible":
            w = tuple(-y for y in cert[:-1])
            return Pointedness(True, w, None, None)
        mu = tuple(cert)
        first = next(j for j, m in enumerate(mu) if m > 0)
        return Pointedness(False, None, mu, self.generators[first])

    def membership(self, v) -> Membership:
        """Farkas-certified membership of a vector."""
        vv = [rat(e) for e in v]
        if len(vv) != self.ambient_dim:
            raise ConeError("dimension mismatch")
        if all(e == 0 for e in vv):
            return Membership(True, (0,) * len(self.generators), None)
        if not self.generators:
            # separate v from the origin
            sep = tuple(-e for e in vv)
            return Membership(False, None, sep)
        status, cert = _phase1(list(self.generators), vv)
        if status == "feasible":
            return Membership(True, tuple(cert), None)
        return Membership(False, None, tuple(-y for y in cert))

    def contains(self, v) -> bool:
        return self.membership(v).inside

    def extreme_rays(self) -> tuple[IVec, ...]:
        """Minimal generating subset, sorted lexicographically.

        A generator is kept iff it is not in the cone of the others.  In a
        pointed cone the smallest face through g is cut out by the dual
        rays tight on g (the dual's lineality is tight everywhere), so g is
        extreme iff it is the only generator tight on every dual ray that
        g is tight on: a containment test on the incidence transposed.
        """
        if self._extreme is not None:
            return self._extreme
        pt = self.is_pointed()
        if not pt.pointed:
            raise ConeError(
                f"extreme rays undefined: cone contains the line through "
                f"{pt.line}")
        cover = self._cover()
        self._extreme = tuple(sorted(
            g for g, c in zip(self.generators, cover)
            if sum(other & c == c for other in cover) == 1))
        return self._extreme

    def neighbours(self, ray) -> tuple[IVec, ...]:
        """The extreme rays that span a two-dimensional face with the
        extreme ray ``ray``, sorted lexicographically.

        The smallest face through two extreme rays is cut out by the dual
        rays tight on both, so r is a neighbour of ``ray`` iff no third
        extreme ray is tight on every one of those (the adjacency test of
        Fukuda and Prodon 1996, on the incidence transposed).
        """
        ray = canonicalize_ray(ray)
        extreme = self.extreme_rays()
        if ray not in extreme:
            raise ConeError(f"{ray} is not an extreme ray of the cone")
        cover = dict(zip(self.generators, self._cover()))
        covers = [cover[g] for g in extreme]
        result = []
        for g in extreme:
            common = cover[ray] & cover[g]
            if g != ray and sum(c & common == common for c in covers) == 2:
                result.append(g)
        return tuple(result)

    def _cover(self) -> tuple[int, ...]:
        """The incidence transposed, memoised: for each generator, the
        bitmask of the dual rays tight on it (bit k for ``rays[k]``)."""
        if self._covers is None:
            incidence = self._double_description()[2]
            self._covers = tuple(
                sum(1 << k for k, mask in enumerate(incidence)
                    if mask >> j & 1)
                for j in range(len(self.generators)))
        return self._covers

    def _double_description(self):
        """The memoised (rays, lineality, incidence) of the dual, as
        tuples; see ``dual_description``."""
        if self._dd is None:
            self._dd = tuple(map(tuple, dual_description(
                self.generators, self.ambient_dim)))
        return self._dd

    def dual(self) -> "Cone":
        """Dual cone {w : <w, g> >= 0 for all generators g}.

        For a full-dimensional input the generators of the result are
        exactly its extreme rays.  Otherwise the dual contains lines and
        both directions of a lineality basis are included as generators.
        """
        rays, lineality, _ = self._double_description()
        gens = list(rays)
        for u in lineality:
            gens.append(u)
            gens.append(tuple(-x for x in u))
        return Cone(self.ambient_dim, gens)

    def image(self, m: Sequence[Sequence[Rat]]) -> "Cone":
        """Image cone under a linear map, given by its rows; zero images
        dropped, result reduced to extreme rays."""
        for row in m:
            if len(row) != self.ambient_dim:
                raise ConeError(
                    f"map expects dim {len(row)}, cone has {self.ambient_dim}")
        images = [canonicalize_ray(w) for w in
                  (apply(m, g) for g in self.generators) if any(w)]
        if not images:
            return Cone(len(m), [])
        return Cone(len(m), Cone(len(m), images).extreme_rays())

    def facets(self) -> tuple[IVec, ...]:
        """Supporting halfspace normals (<n, g> >= 0), memoised.

        The dual has no lineality exactly when the cone is
        full-dimensional.
        """
        pt = self.is_pointed()
        if not pt.pointed:
            raise ConeError("facet enumeration requires a pointed cone")
        rays, lineality, _ = self._double_description()
        if lineality:
            raise ConeError(
                f"facet enumeration requires a full-dimensional cone "
                f"(rank {self.rank()} < ambient {self.ambient_dim})")
        return rays

    def codim2_faces(self):
        """Codimension-two faces with the two facets containing each.

        Returns a list of ((facet_index_a, facet_index_b), face_rays), the
        index pairs in lexicographic order.  A pair with fewer than d - 2
        common generators is skipped; any other pair is decided by the rank
        of the extreme rays on both facets: d - 2 is a codimension-two face
        (in no third facet, the cone being pointed and full-dimensional),
        less is no face, and more is corrupt data and raises.  A face lists
        its extreme rays only; a generator that is not extreme but lies in
        the face is in every facet through them, so it changes no
        containment test.
        """
        normals = self.facets()
        incidence = self._double_description()[2]
        ext = [(g, 1 << self.generators.index(g)) for g in self.extreme_rays()]
        d = self.ambient_dim
        result = []
        for i, j in combinations(range(len(normals)), 2):
            common = incidence[i] & incidence[j]
            if common.bit_count() < d - 2:
                continue
            tight = tuple(g for g, bit in ext if common & bit)
            face_rank = rank(tight)
            if face_rank > d - 2:
                raise ConeError(
                    f"facets {i} and {j} meet in a face of rank "
                    f"{face_rank}, not {d - 2}: {tight}")
            if face_rank == d - 2:
                result.append(((i, j), tight))
        return result

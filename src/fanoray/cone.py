"""Finitely generated rational polyhedral cones, fully exact.

Rays are primitive integer vectors, so "equal up to positive scaling" is
structural equality.  Membership and pointedness run an exact phase-1
simplex (Bland's rule) on an int tableau by ``rational``'s fraction-free
pivot and return a certificate, read out as ints or Fractions:
nonnegative combination coefficients inside, a separating functional
outside.  Duals and facets come from an incremental double description
pass on a schedule fixed by input order alone, which keeps facet lists
reproducible across platforms.  The pass carries each ray's incidence
(the generators it is tight on, as an int bitmask) and, transposed, for
each generator the bitmask of the rays tight on it, both kept up to date
as it runs; it decides which pairs of rays are adjacent from those masks
alone, with one AND per common tight generator instead of a scan over
every ray; the ids of the current rays are one mask, updated as rays
are made and cut away.  A cut step sorts the rays by sign in one pass
into plain lists and appends each new ray without a de-duplicating
lookup: each lies in the relative interior of its own pair's 2-face, so
none coincides with another or with a kept ray.  ``extreme_rays`` and
``neighbours`` (the extreme rays sharing a 2-face with a given one) read
the transposed incidence as the pass hands it over, with no rank; the
rank is read off the dual's lineality; ``codim2_faces`` prefilters facet
pairs on the masks and lets one rank per remaining pair decide.
"""

from __future__ import annotations

from itertools import combinations
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
    no sign flip, a ray and its negative stay distinct.  An all-int vector
    skips ``rat`` and comes back as it is when already primitive.
    """
    ints = tuple(v)
    if {*map(type, ints)} != {int}:
        ints = tuple(_cleared([rat(e) for e in ints]))
    content = gcd(*ints)
    if content == 1:
        return ints
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
    # the rows, built by columns, each flipped where its rhs is negative
    tab = [[*([-x for x in row] if e < 0 else row), *[0] * k, 1,
            *[0] * (d - 1 - k), abs(e)]
           for k, (row, e) in enumerate(zip(zip(*cols), b))]
    basis = [n + k for k in range(d)]
    total = n + d
    cost = [-s for s in map(sum, zip(*tab))]
    cost[n:total] = [0] * d  # each artificial column sums to its cost 1
    tab.append(cost)
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

def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dual_description(generators: Sequence[IVec], dim: int):
    """Minimal description (rays, lineality, incidence, covers) of
    {w : w.g >= 0 for all g}.

    A first pass in input order makes the lineality steps only, for the
    generators that leave the span so far; the rest follow as cut steps,
    deferred position k ranked by (k * 2654435769) mod 2**32, a bijection:
    grouped inputs such as the sorted (-1)-curves make large intermediate
    cones in input order (Avis, Bremner and Seidel 1997).  No output
    depends on this: the spanning set is input order's greedy basis, which
    fixes the lineality and the subspace of every ray's representative;
    rays come back sorted, incidence bits are input positions, covers opaque.
    The lineality basis is empty exactly when the generators span R^dim.
    ``incidence[k]`` is the int bitmask of the generators that ``rays[k]``
    is tight on (bit i for ``generators[i]``), carried through the
    insertions: a ray made from an adjacent pair is tight exactly where
    both parents are.  A pair is adjacent iff its common tight set has at
    least dim - len(lineality) - 2 bits (Fukuda and Prodon 1996) and no
    third ray is tight on all of it.

    The second test reads the incidence transposed, kept up to date as
    the insertions run.  Each ray gets an id that is never reused, and
    ``tight[j]`` is the bitmask of the ids of the rays tight on generator
    j (bit k for id k).  The rays tight on all of a pair's common set are
    the AND of ``alive`` (the ids of the current rays) with ``tight[j]``
    over its bits j, and the pair is adjacent iff that leaves just its own
    two ids.  Dead ids stay in ``tight``; the AND with ``alive`` masks
    them out.  A cut step records its new ids per generator in a mask local
    to the step and, as it ends, ORs them into ``tight`` and ``alive`` and
    clears the ids it cut away: no adjacency test needs a new id sooner.
    ``covers[j]``, the final ``tight[j] & alive``, is one bitmask per
    generator over a ray numbering shared by all generators but otherwise
    opaque: only ANDs, containment and popcounts between covers are meaningful.

    A cut step computes each a.r once, in the one pass that splits the
    rays into the kept ones (value >= 0; the zero ones become tight on a)
    and the positive and negative ones, as lists, and then appends the
    ray of each adjacent (positive, negative) pair with no check that it
    is new.  None can repeat: the ray of an adjacent pair lies in the
    relative interior of that pair's 2-face (plus the lineality space),
    distinct pairs span distinct 2-faces, and a kept zero ray lies in the
    relative interior of its own 1-face, and the relative interiors of
    distinct faces of a cone are disjoint.  Rays are primitive, so
    distinct directions are distinct tuples.
    """
    lineality: list[IVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays: list[IVec] = []
    masks: list[int] = []
    id_bits: list[int] = []  # 1 << id, per ray
    tight = [0] * len(generators)
    alive = 0  # the ids of the current rays
    fresh = 0  # the next id
    inserted = 0  # the generators inserted so far
    deferred = []
    for i, a in enumerate(generators):
        vals = [_ivec_dot(a, u) for u in lineality]
        hit = next((k for k, s in enumerate(vals) if s != 0), None)
        if hit is None:
            deferred.append(i)
            continue
        # a cuts the lineality space: every other vector moves along u0
        # onto a.w = 0; u0 becomes a ray, tight on every inserted generator
        sign = 1 if vals[hit] > 0 else -1
        u0 = tuple(sign * x for x in lineality[hit])
        s = abs(vals[hit])

        def onto_a(v, t):
            return canonicalize_ray(
                tuple(s * x - t * y for x, y in zip(v, u0)))
        lineality = [onto_a(u, t) for k, (u, t)
                     in enumerate(zip(lineality, vals)) if k != hit]
        # the moved rays stay distinct (they differ modulo the lineality
        # space, which holds the move's kernel) and are tight on a
        rays = [onto_a(r, _ivec_dot(a, r)) for r in rays]
        rays.append(canonicalize_ray(u0))
        masks = [mask | 1 << i for mask in masks]
        masks.append(inserted)
        tight[i] = alive
        for j in _bits(inserted):
            tight[j] |= 1 << fresh
        id_bits.append(1 << fresh)
        alive |= 1 << fresh
        fresh += 1
        inserted |= 1 << i
    need = dim - len(lineality) - 2
    for _, i in sorted(enumerate(deferred),
                       key=lambda e: (e[0] * 2654435769) % 2**32):
        a, bit = generators[i], 1 << i
        # one pass sorts the rays by the sign of a.r: the zero and
        # positive ones are kept, the zero ones become tight on a
        kept, kept_masks, kept_bits = [], [], []
        pos, neg = [], []
        zeros = dead = 0
        for r, mask, id_bit in zip(rays, masks, id_bits):
            v = sum(map(mul, a, r))
            if v < 0:
                neg.append((mask, id_bit, v, r))
                dead |= id_bit
                continue
            kept.append(r)
            kept_bits.append(id_bit)
            if v:
                kept_masks.append(mask)
                pos.append((mask, id_bit, v, r))
            else:
                kept_masks.append(mask | bit)
                zeros |= id_bit
        # step[j]: the new rays tight on generator j, by id less base
        base, step = fresh, [0] * len(generators)
        for mask_m, bit_m, v_m, r_m in neg:
            for common, bit_p, v_p, r_p in [
                    (c, bit_p, v_p, r_p)
                    for mask_p, bit_p, v_p, r_p in pos
                    if (c := mask_p & mask_m).bit_count() >= need]:
                # the current rays tight on all of common: p, m and more?
                # (_bits inlined: this is the hottest loop)
                pair = bit_p | bit_m
                shared = alive
                rest = common
                while rest and shared != pair:
                    low = rest & -rest
                    shared &= tight[low.bit_length() - 1]
                    rest ^= low
                if shared != pair:
                    continue
                w = [v_p * x - v_m * y for x, y in zip(r_m, r_p)]
                content = gcd(*w)
                kept.append(tuple([x // content for x in w]))
                kept_masks.append(common | bit)
                kept_bits.append(1 << fresh)
                one = 1 << (fresh - base)
                while common:
                    low = common & -common
                    step[low.bit_length() - 1] |= one
                    common ^= low
                fresh += 1
        born = (1 << fresh) - (1 << base)
        tight[i] = zeros | born
        for j, new in enumerate(step):
            if new:
                tight[j] |= new << base
        rays, masks, id_bits = kept, kept_masks, kept_bits
        alive = alive ^ dead | born
    ordered = sorted(zip(rays, masks))
    return ([r for r, _ in ordered], sorted(lineality),
            [m for _, m in ordered], [t & alive for t in tight])


# ---------------------------------------------------------------------------
# Cone
# ---------------------------------------------------------------------------

class Cone:
    """Polyhedral cone given by generators (canonical primitive rays).

    The generators never change.  Three facts are memoised per instance,
    each computed on first use: the pointedness certificate, the double
    description of the dual (whose rays and lineality ``facets``, ``dual``
    and ``rank`` read, and whose covers ``extreme_rays`` and ``neighbours``
    read) and the extreme rays; none depends on the double description's
    insertion schedule.  Concurrent first calls are benign: each thread
    computes the same deterministic value and the last slot write wins, so
    instances are safe to share across threads (only the identity of a
    memoised tuple may then differ between the racing callers).
    """

    __slots__ = ("ambient_dim", "generators", "_pointed", "_dd", "_extreme")

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
        self._dd: Optional[tuple[tuple, tuple, tuple, tuple]] = None
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
        cover = self._double_description()[3]
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
        cover = dict(zip(self.generators, self._double_description()[3]))
        covers = [cover[g] for g in extreme]
        result = []
        for g in extreme:
            common = cover[ray] & cover[g]
            if g != ray and sum(c & common == common for c in covers) == 2:
                result.append(g)
        return tuple(result)

    def _double_description(self):
        """The memoised (rays, lineality, incidence, covers) of the dual,
        as tuples; see ``dual_description``."""
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
        rays, lineality = self._double_description()[:2]
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
        rays, lineality = self._double_description()[:2]
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

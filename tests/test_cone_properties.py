"""Randomized cone properties against brute-force oracles.

The cone stream is seeded and filtered to pointed instances (dim <= 5,
<= 8 generators, entries in [-4, 4]); every engine answer is checked
either by the Caratheodory oracle or by direct certificate arithmetic.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoray.cone import Cone, canonicalize_ray, dual_description
from fanoray.rational import rank, rat

from oracles import (dual_description_reference, extreme_rays_bruteforce,
                     in_cone_bruteforce, minus_one_curves,
                     random_pointed_cones, rank_bruteforce)

CONES = random_pointed_cones(40, seed=11)


def dot(a, b):
    return sum(Fraction(x) * y for x, y in zip(a, b))


@pytest.mark.parametrize("cone", CONES, ids=lambda c: f"d{c.ambient_dim}n{len(c.generators)}")
def test_extreme_rays_match_bruteforce(cone):
    assert list(cone.extreme_rays()) == extreme_rays_bruteforce(
        list(cone.generators), cone.ambient_dim)


@pytest.mark.parametrize("cone", CONES[:20], ids=lambda c: f"d{c.ambient_dim}n{len(c.generators)}")
def test_dual_dual_mutual_membership(cone):
    if not cone.is_full_dimensional():
        pytest.skip("dual-dual stated for full-dimensional cones")
    ddual = cone.dual().dual()
    for g in cone.generators:
        assert ddual.contains(g)
    for g in ddual.generators:
        assert in_cone_bruteforce(g, list(cone.generators), cone.ambient_dim)


@pytest.mark.parametrize("cone", CONES[:15], ids=lambda c: f"d{c.ambient_dim}n{len(c.generators)}")
def test_facet_list_is_irredundant(cone):
    if not cone.is_full_dimensional():
        pytest.skip("facet enumeration needs a full-dimensional cone")
    normals = list(cone.facets())
    if len(normals) > 8:
        normals = normals[:8]  # big duals: spot-check, entries get large
    for i, n in enumerate(normals):
        others = normals[:i] + normals[i + 1:]
        if others:
            assert not in_cone_bruteforce(n, others, cone.ambient_dim)


@pytest.mark.parametrize("cone", CONES, ids=lambda c: f"d{c.ambient_dim}n{len(c.generators)}")
def test_incidence_matches_dot_products(cone):
    gens = cone.generators
    rays, _, incidence, _ = dual_description(gens, cone.ambient_dim)
    assert len(incidence) == len(rays)
    for ray, mask in zip(rays, incidence):
        assert mask == sum(1 << i for i, g in enumerate(gens)
                           if sum(x * y for x, y in zip(ray, g)) == 0)


small_ints = st.integers(min_value=-3, max_value=3)


def _matches_reference_with_distinct_rays(dim, gens):
    """The cut step keeps no de-duplication: the reference's ``setdefault``
    would hide a repeated ray, so the rays are also checked distinct."""
    description = dual_description(gens, dim)
    assert description[:3] == dual_description_reference(gens, dim)
    assert len(set(description[0])) == len(description[0])


@st.composite
def generator_lists(draw, kind):
    """(dim, generators) of one kind:

    - "full": random integer generators;
    - "lower": integer combinations of fewer than dim vectors, so the dual
      keeps a lineality space at every step;
    - "non-pointed": random generators plus a nonzero vector and its
      negative;
    - "repeated-zero": random generators with repeats and zero vectors.
    """
    dim = draw(st.integers(min_value=2, max_value=5))
    vec = st.tuples(*[small_ints] * dim)
    if kind == "lower":
        basis = draw(st.lists(vec, min_size=1, max_size=dim - 1))
        coefficients = st.lists(small_ints, min_size=len(basis),
                                max_size=len(basis))
        gens = [tuple(sum(c * b[k] for c, b in zip(cs, basis))
                      for k in range(dim))
                for cs in draw(st.lists(coefficients, min_size=1,
                                        max_size=8))]
    else:
        gens = draw(st.lists(vec, min_size=1, max_size=8))
    if kind == "non-pointed":
        g = draw(vec.filter(any))
        gens += [g, tuple(-x for x in g)]
    if kind == "repeated-zero":
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            at = draw(st.integers(min_value=0, max_value=len(gens)))
            gens.insert(at, draw(st.sampled_from(gens + [(0,) * dim])))
    return dim, gens


@pytest.mark.parametrize("kind", ["full", "lower", "non-pointed",
                                  "repeated-zero"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dual_description_matches_reference(kind, data):
    _matches_reference_with_distinct_rays(*data.draw(generator_lists(kind)))


@st.composite
def staged_generators(draw):
    """(dim, generators) inserted stage by stage: stage s draws up to three
    combinations of the first s of a random basis, each possibly followed
    by a parallel copy (its double or its negative).  So each stage's
    first generator that leaves the span so far cuts the lineality and
    moves every ray already there, later ones in the stage cut rays away,
    and the parallel copies make rays tight on several generators at
    once; at most 12 generators in dim <= 6.  There are at least
    min(dim, 3) stages: from the third on, a cut can split two rays that
    a lineality step left tight on the same generator."""
    dim = draw(st.integers(min_value=1, max_value=6))
    vec = st.tuples(*[small_ints] * dim).filter(any)
    basis = draw(st.lists(vec, min_size=min(dim, 3), max_size=dim))
    gens = []
    for stage in range(1, len(basis) + 1):
        coefficients = st.lists(small_ints, min_size=stage, max_size=stage)
        for cs in draw(st.lists(coefficients, min_size=1, max_size=3)):
            g = tuple(sum(c * b[k] for c, b in zip(cs, basis))
                      for k in range(dim))
            gens.append(g)
            if draw(st.booleans()):
                scale = draw(st.sampled_from([2, -1]))
                gens.append(tuple(scale * x for x in g))
    return dim, gens[:12]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dual_description_ids_survive_projection_and_removal(data):
    # rays keep their ids through lineality steps and die in cut steps
    _matches_reference_with_distinct_rays(*data.draw(staged_generators()))


@pytest.mark.parametrize("gens", [
    [(2, -1, 0, 3)],
    [(1, 0, 0, 0), (1, 1, 0, 0)],
    [(0, 1, 2, -1), (3, 0, 0, 1), (1, -1, 1, 0)],
    [(1, 2, 0, 0), (0, 1, 0, 3), (-1, 0, 1, 0), (0, 0, 1, 1)]],
    ids=lambda gens: f"k{len(gens)}")
def test_dual_description_with_no_cut_step_is_simplicial(gens):
    # k independent generators make k lineality steps and no cut step:
    # the start cone's ray t is tight on every generator but the t-th
    rays, lineality, incidence, covers = dual_description(gens, 4)
    assert (rays, lineality, incidence) == dual_description_reference(gens, 4)
    k = len(gens)
    assert len(lineality) == 4 - k
    assert sorted(incidence) == sorted((1 << k) - 1 ^ 1 << t
                                       for t in range(k))
    for j, cover in enumerate(covers):
        for m, other in enumerate(covers):
            assert (cover & other).bit_count() == k - 1 - (j != m)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_covers_count_the_rays_tight_on_both_generators(data):
    # whatever the covers' ray numbering, the common bits of two covers
    # are the returned rays tight on both generators
    dim, gens = data.draw(st.one_of(
        *[generator_lists(kind) for kind in ("full", "lower", "non-pointed",
                                             "repeated-zero")],
        staged_generators()))
    rays, _, _, covers = dual_description(gens, dim)
    assert len(covers) == len(gens)
    tight = [{k for k, r in enumerate(rays)
              if sum(x * y for x, y in zip(r, g)) == 0} for g in gens]
    for j, cover in enumerate(covers):
        for k in range(j, len(gens)):
            assert (cover & covers[k]).bit_count() == len(tight[j] & tight[k])


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["full", "lower", "non-pointed",
                                  "repeated-zero"])
@settings(max_examples=2000, deadline=None)
@given(data=st.data())
def test_dual_description_never_repeats_a_ray(kind, data):
    _matches_reference_with_distinct_rays(*data.draw(generator_lists(kind)))


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(data=st.data())
def test_staged_dual_description_never_repeats_a_ray(data):
    _matches_reference_with_distinct_rays(*data.draw(staged_generators()))


# the last cone has a generator inside a codim-2 face that is not extreme
FULL_DIMENSIONAL = [c for c in CONES if c.is_full_dimensional()] + [
    Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, 1, 0, 0), (1, 1, 1, -1)]),
    # the cone over a bipyramid on square x triangle: 14 facets, and of the
    # 75 facet pairs that pass the popcount prefilter 30 meet in a face of
    # rank below d - 2, so here the rank, not the prefilter, decides
    Cone(6, [(1,) + a + b + (0,)
             for a in [(-1, -1), (1, -1), (-1, 1), (1, 1)]
             for b in [(-1, -1), (2, -1), (-1, 2)]]
         + [(1, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, -1)])]


@pytest.mark.parametrize("cone", FULL_DIMENSIONAL, ids=lambda c: f"d{c.ambient_dim}n{len(c.generators)}")
def test_codim2_faces_match_bruteforce(cone):
    d = cone.ambient_dim
    normals = cone.facets()
    ext = extreme_rays_bruteforce(list(cone.generators), d)
    expected = []
    seen = set()
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            face = tuple(g for g in ext if dot(normals[i], g) == 0
                         and dot(normals[j], g) == 0)
            if rank_bruteforce(face) != d - 2 or face in seen:
                continue
            if face:
                assert sum(all(dot(n, g) == 0 for g in face)
                           for n in normals) == 2
            seen.add(face)
            expected.append(((i, j), face))
    assert cone.codim2_faces() == expected


ORDER_CASES = [
    pytest.param(c.ambient_dim, c.generators,
                 id=f"d{c.ambient_dim}n{len(c.generators)}")
    for c in FULL_DIMENSIONAL] + [
    pytest.param(r + 1, tuple(minus_one_curves(r)), id=f"curves{r}")
    for r in range(3, 7)]


@pytest.mark.parametrize("dim, gens", ORDER_CASES)
def test_dual_description_is_independent_of_insertion_order(dim, gens):
    # for a full-dimensional input the insertion schedule is a cost choice:
    # permuted generators give the same rays and the incidence permuted
    order = list(range(len(gens)))
    random.Random(1000 * dim + len(gens)).shuffle(order)
    rays, lineality, incidence, _ = dual_description(gens, dim)
    p_rays, p_lineality, p_incidence, _ = dual_description(
        [gens[i] for i in order], dim)
    assert lineality == p_lineality == []
    assert p_rays == rays
    assert [sum(1 << i for k, i in enumerate(order) if mask >> k & 1)
            for mask in p_incidence] == incidence


def test_degenerate_cones():
    empty = Cone(3, [])
    assert empty.is_pointed().pointed
    assert empty.extreme_rays() == ()
    single = Cone(3, [(2, -4, 6)])
    assert single.extreme_rays() == ((1, -2, 3),)
    # the incidence test, no special case, decides these two as well
    assert Cone(1, [(3,)]).extreme_rays() == ((1,),)
    assert Cone(1, []).extreme_rays() == ()
    # lower-dimensional (the dual has lineality), (1, 1, 0, 0) not extreme
    flat = Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)])
    assert list(flat.extreme_rays()) == extreme_rays_bruteforce(
        list(flat.generators), 4)
    assert (1, 1, 0, 0) not in flat.extreme_rays()


@pytest.mark.parametrize("cone", CONES[:20], ids=lambda c: f"d{c.ambient_dim}n{len(c.generators)}")
def test_membership_certificates_reverify(cone):
    rng = random.Random(hash(cone.generators) & 0xFFFF)
    d = cone.ambient_dim
    probes = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(4)]
    probes += list(cone.generators)[:2]
    for v in probes:
        res = cone.membership(v)
        if res.inside:
            combo = [sum(c * g[k] for c, g in zip(res.coefficients,
                                                  cone.generators))
                     for k in range(d)]
            assert all(x >= 0 for x in res.coefficients)
            assert tuple(combo) == tuple(Fraction(x) for x in v)
        else:
            n = res.separator
            assert all(dot(n, g) >= 0 for g in cone.generators)
            assert dot(n, v) < 0


positive_rationals = st.fractions(min_value="1/7", max_value=9,
                                  max_denominator=7)
vectors = st.integers(min_value=2, max_value=5).flatmap(
    lambda d: st.lists(st.integers(min_value=-4, max_value=4),
                       min_size=d, max_size=d).filter(lambda v: any(v)))


generator_sets = st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=d, max_size=d).filter(any),
        max_size=7)))


@given(case=generator_sets, flat=st.booleans(), symmetric=st.booleans())
@settings(max_examples=150)
def test_rank_read_off_the_dual_is_the_rank(case, flat, symmetric):
    # flat: every generator in the hyperplane x_0 = x_1 (lower-dimensional
    # when d >= 2); symmetric: each generator's negative added (a line)
    d, gens = case
    if flat and d >= 2:
        gens = [[g[1]] + g[1:] for g in gens if any(g[1:])]
    if symmetric:
        gens = gens + [[-x for x in g] for g in gens]
    assert Cone(d, gens).rank() == rank(gens)


@given(v=vectors, c=positive_rationals)
@settings(max_examples=100)
def test_canonicalization_scaling_invariance(v, c):
    scaled = [rat(c) * x for x in v]
    assert canonicalize_ray(scaled) == canonicalize_ray(v)


@given(v=vectors, c=positive_rationals)
@settings(max_examples=50)
def test_membership_invariant_under_probe_scaling(v, c):
    cone = Cone(len(v), [(1,) * len(v), tuple(range(1, len(v) + 1))])
    assert cone.contains(v) == cone.contains([rat(c) * x for x in v])

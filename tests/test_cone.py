from collections import Counter
from fractions import Fraction

import pytest

from fanoray import cone as cone_module
from fanoray.cone import Cone, ConeError, canonicalize_ray
from fanoray.rational import rat

B2_5_N1_RAYS = [
    (-1, 0, 0, 1, 0), (0, -1, 0, 1, 0), (0, 0, -1, 1, 0),
    (1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1),
    (0, 0, 0, -1, 0), (1, 1, 1, -1, 2),
]


def dot(a, b):
    return sum(Fraction(x) * y for x, y in zip(a, b))


def test_canonicalize_scaling():
    assert canonicalize_ray([rat("1/2"), rat("1/2"), rat("-1/2")]) == (1, 1, -1)
    assert canonicalize_ray([2, 2, 2, -2, 4]) == (1, 1, 1, -1, 2)
    assert canonicalize_ray([0, 0, 3]) == (0, 0, 1)
    with pytest.raises(ConeError):
        canonicalize_ray([0, 0, 0])


def test_canonicalize_keeps_direction():
    assert canonicalize_ray([-2, 0]) == (-1, 0)
    assert canonicalize_ray([2, 0]) != canonicalize_ray([-2, 0])


def test_pointedness_with_certificates():
    quadrant = Cone(2, [(1, 0), (0, 1)])
    pt = quadrant.is_pointed()
    assert pt.pointed
    assert all(dot(pt.functional, g) > 0 for g in quadrant.generators)

    flat = Cone(2, [(1, 0), (-1, 0)])
    pt = flat.is_pointed()
    assert not pt.pointed
    # line certificate: nonnegative combination of generators vanishing
    combo = pt.line_combination
    assert any(c > 0 for c in combo)
    total = [sum(c * g[k] for c, g in zip(combo, flat.generators))
             for k in range(2)]
    assert all(t == 0 for t in total)


def test_pointedness_of_the_eight_ray_cone():
    cone = Cone(5, B2_5_N1_RAYS)
    pt = cone.is_pointed()
    assert pt.pointed
    assert all(dot(pt.functional, g) > 0 for g in cone.generators)


def test_membership_inside_with_coefficients():
    quadrant = Cone(2, [(1, 0), (0, 1)])
    res = quadrant.membership((2, 3))
    assert res.inside
    assert res.coefficients == (Fraction(2), Fraction(3))


def test_membership_outside_with_separator():
    quadrant = Cone(2, [(1, 0), (0, 1)])
    res = quadrant.membership((-1, 0))
    assert not res.inside
    n = res.separator
    assert all(dot(n, g) >= 0 for g in quadrant.generators)
    assert dot(n, (-1, 0)) < 0


def test_membership_missing_ray_is_outside_the_seven_ray_cone():
    seven = Cone(5, B2_5_N1_RAYS[:7])
    res = seven.membership(B2_5_N1_RAYS[7])
    assert not res.inside
    n = res.separator
    assert all(dot(n, g) >= 0 for g in seven.generators)
    assert dot(n, B2_5_N1_RAYS[7]) < 0


def test_extreme_rays_examples():
    assert Cone(2, [(1, 0), (1, 1), (1, 2)]).extreme_rays() == ((1, 0), (1, 2))
    assert Cone(2, [(1, 0), (2, 0), (0, 1)]).extreme_rays() == ((0, 1), (1, 0))
    assert len(Cone(5, B2_5_N1_RAYS).extreme_rays()) == 8


def test_extreme_rays_idempotent():
    cone = Cone(5, B2_5_N1_RAYS)
    once = cone.extreme_rays()
    assert Cone(5, once).extreme_rays() == once


def test_extreme_rays_requires_pointed():
    with pytest.raises(ConeError):
        Cone(2, [(1, 0), (-1, 0)]).extreme_rays()


def test_neighbours_of_a_square_pyramid_apex_edge():
    # the cone over a square: (1, 1, 1) spans a 2-face with the two rays
    # beside it, not with the one across the diagonal; (0, 0, 1) is inside
    square = [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1), (0, 0, 1)]
    c = Cone(3, square)
    assert c.neighbours((2, 2, 2)) == ((-1, 1, 1), (1, -1, 1))
    with pytest.raises(ConeError):
        c.neighbours((0, 0, 1))


def test_neighbours_in_a_lower_dimensional_cone():
    c = Cone(3, [(1, 0, 0), (0, 1, 0)])
    assert c.neighbours((1, 0, 0)) == ((0, 1, 0),)
    assert Cone(3, [(1, 0, 0)]).neighbours((1, 0, 0)) == ()


def test_dual_examples():
    quadrant = Cone(2, [(1, 0), (0, 1)])
    assert sorted(quadrant.dual().generators) == [(0, 1), (1, 0)]

    half = Cone(2, [(1, 0), (1, 1)])
    dual = half.dual()
    expected = Cone(2, [(0, 1), (1, -1)])
    # mutual inclusion of generators
    assert all(expected.contains(g) for g in dual.generators)
    assert all(dual.contains(g) for g in expected.generators)


def test_dual_of_lower_dimensional_cone_contains_lines():
    line = Cone(2, [(1, 0)])
    dual = line.dual()
    assert dual.contains((0, 1)) and dual.contains((0, -1))
    assert dual.contains((1, 0)) and not dual.contains((-1, 0))


def test_image_cone_projection():
    quadrant = Cone(2, [(1, 0), (0, 1)])
    proj = ((1, 0),)
    img = quadrant.image(proj)
    assert img.generators == ((1,),)


def test_image_cone_zero_map():
    quadrant = Cone(2, [(1, 0), (0, 1)])
    img = quadrant.image(((0, 0), (0, 0)))
    assert img.generators == ()


def test_image_cone_scaling_invariance():
    gens = [(2, 0, 1), (0, 3, 1), (1, 1, 1)]
    scaled = [tuple(5 * x for x in gens[0])] + gens[1:]
    m = ((1, 0, 0), (0, 1, 0))
    assert (Cone(3, gens).image(m).extreme_rays()
            == Cone(3, scaled).image(m).extreme_rays())


def test_facets_quadrant_and_codim2():
    quadrant = Cone(2, [(1, 0), (0, 1)])
    assert quadrant.facets() == ((0, 1), (1, 0))
    faces = quadrant.codim2_faces()
    assert faces == [((0, 1), ())]  # the origin, shared by both facets


def test_facets_planar_cone():
    cone = Cone(2, [(-1, 0), (1, 1)])
    assert len(cone.facets()) == 2
    for n in cone.facets():
        assert all(dot(n, g) >= 0 for g in cone.generators)


def test_facets_require_full_dimension():
    with pytest.raises(ConeError):
        Cone(3, [(1, 0, 0), (0, 1, 0)]).facets()


def test_facet_memoization_returns_same_object():
    cone = Cone(2, [(1, 0), (0, 1)])
    assert cone.facets() is cone.facets()


def test_cone_kernels_run_once_per_instance(monkeypatch):
    calls = Counter()
    for name in ("dual_description", "_phase1"):
        def counted(*args, _name=name, _kernel=getattr(cone_module, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(cone_module, name, counted)
    cone = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    for _ in range(2):
        assert len(cone.facets()) == 4
        assert len(cone.extreme_rays()) == 4
        assert len(cone.dual().generators) == 4
        assert cone.is_pointed().pointed
    assert calls == {"dual_description": 1, "_phase1": 1}


def test_extreme_rays_and_codim2_faces_read_the_incidence(monkeypatch):
    calls = Counter()

    def counted(a, b, _dot=cone_module._ivec_dot):
        calls["dot"] += 1
        return _dot(a, b)
    monkeypatch.setattr(cone_module, "_ivec_dot", counted)
    cone = Cone(5, B2_5_N1_RAYS)
    cone.facets()
    calls.clear()
    assert len(cone.extreme_rays()) == len(B2_5_N1_RAYS)
    assert cone.codim2_faces()
    assert calls["dot"] == 0


def test_codim2_faces_raise_on_a_corrupt_incidence():
    cone = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(cone.extreme_rays()) == 3
    rays, lineality, _ = cone._double_description()
    # facets 0 and 1 claim the same two generators: adjacent by the
    # incidence, but they would meet in a face of rank 2, not 1
    cone._dd = (rays, lineality, (0b011, 0b011, 0b100))
    with pytest.raises(ConeError, match="rank 2"):
        cone.codim2_faces()


def test_codim2_faces_of_a_4d_cone():
    # nef-like simplicial cone in R^4: every codim-2 face in exactly 2 facets
    cone = Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, -1)])
    faces = cone.codim2_faces()
    assert len(faces) == 6  # all pairs of the 4 facets
    for (_i, _j), face_rays in faces:
        assert len(face_rays) == 2

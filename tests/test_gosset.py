"""Facet counts of the (-1)-curve cones of P^2 blown up at r = 3..8 points.

For r = 3..7 the generators and the expected counts (the Gosset polytopes
k_21) come from ``bench/oracle.py``, which is read, never imported as a
file module, so this test leaves the benchmark directory untouched.  Each
normal is rechecked with plain integer dot products and the oracle's own
rank.  The double description's rays, lineality and incidence are pinned
by the sha256 of their repr (its covers number the rays opaquely), and so
are the simplex certificates: the pointedness certificate and eight fixed
membership queries per cone.
The E8 cone (r = 8, 240 generators, the 19440 facets of 4_21) needs the
degree-6 enumerator of ``tests/oracles.py`` and a few seconds, so it is
marked slow and runs only with ``-m slow``.
"""

import hashlib
import types
from fractions import Fraction
from pathlib import Path

import pytest

from fanoray.cone import Cone, dual_description

from oracles import minus_one_curves, rank_bruteforce

ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _oracle():
    module = types.ModuleType("bench_oracle")
    exec(compile(ORACLE.read_text(encoding="utf-8"), str(ORACLE), "exec"),
         module.__dict__)
    return module


oracle = _oracle()

# sha256 of repr(dual_description(minus_one_curves(r), r + 1)[:3])
DD_DIGESTS = {
    3: "bd1ca960eb2078984fdf113afb1d82885e965859d4597789042f6ad8695952d2",
    4: "f7ff57a42c9f9630cf14580bf4642e4a56fc6d9988d475d71972227d297bdec1",
    5: "a0757060dd33ee17ea36b281c0ac50562a0f17ad103829a4b133b6e5bfeee762",
    6: "4001e14d2969ce4935e3dffcf74497f740a268056ac20432c964cfa0643b966b",
    7: "0a30890a5f06514120f4e0a474d46a374287369b2b830eeec321f9dd6b8bb3d9",
    8: "7e8675abdcf02d252aee56adc7b7df9ee001655ffdf6127b991b061a775324d5",
}

# sha256 of repr((cone.is_pointed(), [cone.membership(q) for q in
# _queries(r)])) for cone = Cone(r + 1, minus_one_curves(r))
CERT_DIGESTS = {
    3: "6dd8da015afc3200dc0638fb586092db19aa2fb192dcd2f1905c7ec6331f0462",
    4: "ccd67df6ad173e1b5ddd6910234570fe5f85b99f892f981658cb4b86fb9fbeba",
    5: "4b07c78407767c2b04e95b5404e423133e036cd3abb0f6f26519349c2bcb7ca3",
    6: "a9dbd2d3fc3ad54624b68f970845a4483938d1680042811975be16ac515c73db",
    7: "8e338a198e5675c3e7cf9bda8a1fe73bc00c7cdbfec9fd5ff6c8e3c309730490",
}


def _queries(r):
    """Eight fixed membership queries in dimension r + 1: two sums of
    generators, -K, the negative of a generator, the hyperplane class L,
    -sum E_i, a mixed int vector and a Fraction vector."""
    gens = minus_one_curves(r)
    mid, last = gens[len(gens) // 2], gens[-1]
    return [
        tuple(x + 2 * y + 3 * z for x, y, z in zip(gens[0], mid, last)),
        tuple(map(sum, zip(*gens))),
        (3,) + (-1,) * r,
        tuple(-x for x in gens[0]),
        (1,) + (0,) * r,
        (0,) + (1,) * r,
        tuple((3 * k + r) % 7 - 3 for k in range(r + 1)),
        tuple(Fraction(k % 3 - 1, k + 2) for k in range(r + 1)),
    ]


def _digest(description) -> str:
    return hashlib.sha256(repr(description).encode()).hexdigest()


@pytest.mark.parametrize("r", sorted(oracle.GOSSET_FACETS))
def test_gosset_cone_facets(r):
    gens = oracle.minus_one_curves(r)
    d = r + 1
    cone = Cone(d, gens)
    normals = cone.facets()
    assert len(normals) == oracle.GOSSET_FACETS[r]
    assert cone.extreme_rays() == tuple(sorted(gens))
    for n in normals:
        assert all(oracle.dot(n, g) >= 0 for g in gens)
        tight = [g for g in gens if oracle.dot(n, g) == 0]
        assert oracle.int_rank(tight) == d - 1


@pytest.mark.parametrize("r", sorted(oracle.GOSSET_FACETS))
def test_gosset_double_description_is_pinned(r):
    gens = oracle.minus_one_curves(r)
    assert _digest(dual_description(gens, r + 1)[:3]) == DD_DIGESTS[r]


@pytest.mark.parametrize("r", sorted(CERT_DIGESTS))
def test_gosset_simplex_certificates_are_pinned(r):
    cone = Cone(r + 1, minus_one_curves(r))
    answers = [cone.membership(q) for q in _queries(r)]
    # only the mixed vector's answer depends on r
    assert [m.inside for m in answers] == [
        True, True, True, False, True, False, r == 6, False]
    assert _digest((cone.is_pointed(), answers)) == CERT_DIGESTS[r]


def test_degree_six_enumerator_extends_the_benchmark_one():
    for r in sorted(oracle.GOSSET_FACETS):
        assert minus_one_curves(r) == oracle.minus_one_curves(r)
    assert len(minus_one_curves(8)) == 240


@pytest.mark.slow
def test_e8_cone_facets():
    gens = minus_one_curves(8)
    cone = Cone(9, gens)
    normals = cone.facets()
    assert len(normals) == 19440
    # the memo holds dual_description's lists as tuples
    assert _digest(tuple(map(list, cone._double_description()[:3]))) \
        == DD_DIGESTS[8]
    assert cone.extreme_rays() == tuple(sorted(gens))
    for n in normals[::1000]:
        assert all(oracle.dot(n, g) >= 0 for g in gens)
        tight = [g for g in gens if oracle.dot(n, g) == 0]
        assert rank_bruteforce(tight) == 8

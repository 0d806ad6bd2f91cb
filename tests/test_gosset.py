"""Facet counts of the (-1)-curve cones of P^2 blown up at r = 3..8 points.

For r = 3..7 the generators and the expected counts (the Gosset polytopes
k_21) come from ``bench/oracle.py``, which is read, never imported as a
file module, so this test leaves the benchmark directory untouched.  Each
normal is rechecked with plain integer dot products and the oracle's own
rank.  The E8 cone (r = 8, 240 generators, the 19440 facets of 4_21) needs
the degree-6 enumerator of ``tests/oracles.py`` and about a minute, so it
is marked slow and runs only with ``-m slow``.
"""

import types
from pathlib import Path

import pytest

from fanoray.cone import Cone

from oracles import minus_one_curves, rank_bruteforce

ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _oracle():
    module = types.ModuleType("bench_oracle")
    exec(compile(ORACLE.read_text(encoding="utf-8"), str(ORACLE), "exec"),
         module.__dict__)
    return module


oracle = _oracle()


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
    assert cone.extreme_rays() == tuple(sorted(gens))
    for n in normals[::1000]:
        assert all(oracle.dot(n, g) >= 0 for g in gens)
        tight = [g for g in gens if oracle.dot(n, g) == 0]
        assert rank_bruteforce(tight) == 8

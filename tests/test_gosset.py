"""Facet counts of the (-1)-curve cones of P^2 blown up at r = 3..7 points.

The generators and the expected counts (the Gosset polytopes k_21) come
from ``bench/oracle.py``, which is read, never imported as a file module,
so this test leaves the benchmark directory untouched.  Each normal is
rechecked with plain integer dot products and the oracle's own rank.
"""

import types
from pathlib import Path

import pytest

from fanoray.cone import Cone

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

"""The monomial-ideal module on its own.

`ideals._vertex_max` solves each square facet subsystem by the integer
cofactor line of `lattice`, with no elimination over a field; it must give
the largest vertex value that exact elimination over QQ gives
(`helpers.vertex_max_oracle`), on random cones of rank 1 to 3, cones that
are not full-dimensional among them, and thresholds 0 to 5.  `graded`
keeps the four public names of the ideal side bound to the same objects.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import vertex_max_oracle
from monostack import graded, ideals
from monostack.errors import EmptyGenerators, NotSharp
from monostack.monoid import validate

CONE = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]
PLANE = [(2, 0, 2), (1, 3, 1)]  # a rank-2 cone in Z^3: its facets hold a +- pair


@st.composite
def cone_and_thresholds(draw):
    """1 to 4 generators in Z^d, d = 1..3, and one threshold per facet."""
    dim = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * dim), min_size=1, max_size=4))
    try:
        pres = validate(gens)
    except (EmptyGenerators, NotSharp):
        assume(False)
    t = draw(st.lists(st.integers(0, 5), min_size=len(pres.cone.facets), max_size=len(pres.cone.facets)))
    return pres, t


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(cone_and_thresholds())
@example((validate(CONE), [1, 0, 2, 5]))
@example((validate(CONE), [0, 3, 0, 1]))
@example((validate(PLANE), [2, 1, 0, 0]))
@example((validate(PLANE), [0, 0, 3, 1]))
def test_vertex_max_matches_rational_elimination(case):
    pres, t = case
    facets, ell = pres.cone.facets, pres.positive_functional
    assert ideals._vertex_max(facets, t, ell) == vertex_max_oracle(facets, t, ell)


@pytest.mark.parametrize("name", ["MonoidIdeal", "coherence_probe", "colon_degree_ideal", "ideal_min_generators"])
def test_graded_binds_the_ideal_names(name):
    assert getattr(graded, name) is getattr(ideals, name)

"""Property tests: the greedy loops terminate.

Over random tolerances, caps and corpus fields, ``greedy_time`` and
``greedy_space`` either return a partition that meets the tolerance or
raise their cap error, and every round grows the partition, so no run
can loop without end below its cap.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from stgreedy import fem, mesh1d
from stgreedy.fem import GreedySpaceCapError, greedy_space
from stgreedy.fields import DomainSpec
from stgreedy.mesh1d import GreedyCapError, greedy_time
from stgreedy.meshnd import initial_mesh

from helpers import standard_corpus

SETTINGS = settings(max_examples=40, deadline=None, database=None)

CORPUS = {n: standard_corpus(DomainSpec(T=1.0, n=n)) for n in (1, 2)}
tolerances = st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e)


@SETTINGS
@given(st.integers(0, len(CORPUS[1]) - 1), st.sampled_from([1, 2]),
       tolerances, st.integers(2, 10))
def test_greedy_time_terminates(which, r, delta, max_level):
    f = CORPUS[1][which]
    try:
        with mock.patch.object(mesh1d, "MAX_LEVEL", max_level):
            res = greedy_time(f, r, 2, delta)
    except GreedyCapError as err:
        assert err.offenders
        assert all(level >= max_level for level, _ in err.offenders)
        return
    part = res.partition
    assert all(res.errors[c] <= delta for c in part.cells)
    assert max(part.levels) <= max_level
    # round k bisects leaves of level k - 1 only, so the cap bounds it
    assert len(part.trace) <= max_level
    sizes = [1] + [e.leaves for e in part.trace]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == part.size


@SETTINGS
@given(st.sampled_from([1, 2]), st.integers(0, len(CORPUS[1]) - 1),
       st.floats(0.05, 1.0), st.sampled_from([2, 3]), tolerances,
       st.integers(1, 8))
def test_greedy_space_terminates(n, which, t, r2, delta, max_gen):
    f = CORPUS[n][which]

    def g(points):
        return f.sample([t], points)[0]

    try:
        with mock.patch.object(fem, "MAX_GEN", max_gen):
            mesh, _, history = greedy_space(g, r2, delta, n=n)
    except GreedySpaceCapError as err:
        assert err.offenders
        return
    assert history[-1][0] == mesh.size
    assert history[-1][1] <= delta
    assert max(mesh.levels) <= max_gen
    sizes = [size for size, _ in history]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    # sizes grow strictly, and no mesh below the cap has more elements
    assert len(history) <= initial_mesh(n).size * 2 ** max_gen

"""Property tests: greedy_time hands back the pieces it measured.

The time cache keeps each leaf's approximant next to its error, and
every run that shares the cache reads the pieces from it.  Over corpus
fields (and the non-separable moving singularity), r, p and a sweep of
deltas in random order sharing one cache, every piece must have the
bytes of a fresh ``project_time_slice`` (p = 2) or ``jackson_construct``
of its leaf: on the spatial grid and, for p = 2, off it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgreedy.fields import DomainSpec, Field
from stgreedy.harness import standard_corpus
from stgreedy.mesh1d import GreedyCapError, MeshError, greedy_time
from stgreedy.polyspace import jackson_construct, project_time_slice

SETTINGS = settings(max_examples=30, deadline=None, database=None)
DOM = DomainSpec(T=1.0, n=1)
FIELDS = standard_corpus(DOM) + [
    Field(DOM, lambda t, x: np.abs(x - 0.25 - 0.5 * t) ** 0.5,
          name="moving-1d")]
POINTS = np.array([[0.0], [0.137], [0.25], [0.5001], [0.9]])
deltas = st.lists(st.floats(-2.5, -1.0).map(lambda e: 10.0 ** e),
                  min_size=1, max_size=4)


def fresh_piece(f, interval, r, p):
    if p == 2:
        return project_time_slice(f, interval, r)
    return jackson_construct(f, interval, r, p)


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@SETTINGS
@given(st.integers(0, len(FIELDS) - 1), st.sampled_from([1, 2]),
       st.sampled_from([1, 2, math.inf]), deltas)
def test_pieces_match_fresh_approximants(which, r, p, sweep):
    f = FIELDS[which]
    cache = {}
    for delta in sweep:
        try:
            res = greedy_time(f, r, p, delta, max_level=8, cache=cache)
        except GreedyCapError:
            continue
        part = res.partition
        assert len(res.pieces) == part.size
        for cell, piece in zip(part.cells, res.pieces):
            fresh = fresh_piece(f, part.interval(cell), r, p)
            assert piece.interval == fresh.interval
            for got, want in zip(piece.coeffs, fresh.coeffs):
                assert same_bytes(got.vals, want.vals)
                assert got.mu == want.mu
                if p == 2:
                    assert same_bytes(got.at_points(POINTS),
                                      want.at_points(POINTS))
    # the stamp still guards the cache against another r or p
    with pytest.raises(MeshError, match="time cache"):
        greedy_time(f, 3 - r, p, 0.1, cache=cache)
    with pytest.raises(MeshError, match="time cache"):
        greedy_time(f, r, 2 if p != 2 else 1, 0.1, cache=cache)

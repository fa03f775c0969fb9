"""Property test: the builds of a sweep share one FE space cache.

``build_fully_discrete`` keeps its FE spaces and bisection refinements
in the caller's time cache, so a build reuses what the builds before it
in the sweep made.  Both are pure functions of their keys, and neither
depends on the field, eps or (for a refinement) r2.  So every point of a
sweep through one cache must have the bytes of a build from a fresh
cache: the report (floats compared as hex), the slice mesh keys and the
coefficient dofs.  The sweeps run eps both coarse to fine and fine to
coarse, with r1 in {1, 2} (so slices are overlaid and reprojected) and
r2 changing between calls on one cache, which its stamp (f, r1, p)
allows.  The seminorm is given, as its estimate is not under test here
and a 2-D estimate alone takes seconds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.spacetime import build_fully_discrete

SETTINGS = settings(max_examples=30, deadline=None, database=None)
SEMINORM = 1.0


def moving_field(n):
    """The moving singularity |x - 0.25 - t/2|^(1/2), non-separable."""
    if n == 1:
        def evaluator(t, x):
            return np.abs(x - 0.25 - 0.5 * t) ** 0.5
    else:
        def evaluator(t, x, y):
            return np.hypot(x - 0.25 - 0.5 * t, y - 0.5) ** 0.5
    return Field(DomainSpec(T=1.0, n=n), evaluator, name=f"moving-{n}d")


# (field, the eps it sweeps from coarse to fine); 2-D sweeps stay coarse
FIELDS = [
    (moving_field(1), (0.1, 0.05, 0.025)),
    (moving_field(2), (0.2, 0.1, 0.07)),
    (make_test_field("tensor-singular", [0.25], DomainSpec(n=1)),
     (0.1, 0.05, 0.025)),
    (make_test_field("tensor-singular", [0.25], DomainSpec(n=2)),
     (0.2, 0.1, 0.05)),
]


def hexed(value):
    """``value`` with every float replaced by its hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def outputs(f, eps, r1, r2, cache):
    cache.setdefault(("time_seminorm", r1), SEMINORM)
    part, fd, rep = build_fully_discrete(f, eps, r1, r2, time_cache=cache)
    return (hexed(rep), [m.key for m in part.slice_meshes],
            [[fem.dofs.tobytes() for fem in fems] for fems in fd.coeff_fems])


@SETTINGS
@given(st.integers(0, len(FIELDS) - 1), st.sampled_from([1, 2]),
       st.booleans(), st.data())
def test_sweep_through_one_cache_matches_fresh_builds(which, r1, fine_first,
                                                      data):
    f, epss = FIELDS[which]
    epss = epss[::-1] if fine_first else epss
    r2s = data.draw(st.lists(st.sampled_from([2, 3]), min_size=len(epss),
                             max_size=len(epss)))
    cache = {}
    for eps, r2 in zip(epss, r2s):
        shared = outputs(f, eps, r1, r2, cache)
        assert shared == outputs(f, eps, r1, r2, {})

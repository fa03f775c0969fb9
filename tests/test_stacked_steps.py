"""Property tests: the stacked step sizes against a loop of one step each.

``smoothness._difference_norms`` takes blocks of whole step sizes in
one array pass.  Each norm, and so each modulus and Besov term, must
have the bits of its own ``fn.difference(h, r).lp_norm(a, b - r h, p)``
(whose root is a numpy scalar power: the array power differs from it in
the last bit), on separable, opaque and graded fields.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgreedy import smoothness
from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.polyspace import as_slicefn
from stgreedy.quadrature import _power_root, composite_nodes
from stgreedy.smoothness import BesovParams, SmoothnessError, \
    SmoothnessParams, besov_seminorm_discrete, besov_terms, modulus_avg, modulus_sup
from stgreedy.spacetime import time_seminorm_params
from stgreedy.xvalued import leaf_blocks

SETTINGS = settings(max_examples=100, deadline=None, database=None)
DOM1, DOM2 = DomainSpec(T=1.0, n=1), DomainSpec(T=1.0, n=2)

FIELDS = {
    "time-power": make_test_field("time-power", [0.25], DOM1),
    "tensor-singular-1d": make_test_field("tensor-singular", [0.25], DOM1),
    "tensor-singular-2d": make_test_field("tensor-singular", [0.25], DOM2),
    "poly": make_test_field("poly", [3, 1], DOM1),
    "moving": Field(DOM1, lambda t, x: np.abs(x - 0.25 - 0.45 * t) ** 0.5,
                    name="moving"),
    "graded": Field(DOM1, lambda t, x: t ** 0.25 * np.abs(x - 0.5) ** 0.5,
                    name="graded", singular_t0=True),
}


def step_norm(fn, interval, h, r, p):
    a, b = interval
    return fn.difference(h, r).lp_norm(a, b - r * h, p)


def reference_grid(interval, u, r):
    a, b = interval
    return min(u, (b - a) / r * (1.0 - 1e-12))


def reference_sup(fn, interval, u, sp):
    hs = sp.h_grid(reference_grid(interval, u, sp.r))
    best = float(max(step_norm(fn, interval, h, sp.r, sp.p) for h in hs))
    floor = 1e-14 * 2.0 ** sp.r * fn.lp_norm(*interval, sp.p)
    return 0.0 if best <= floor and not math.isinf(floor) else best


def reference_avg(fn, interval, u, sp):
    hs, ws = composite_nodes(0.0, reference_grid(interval, u, sp.r),
                             rule=fn.rule, panels=sp.avg_panels)
    norms = np.array([step_norm(fn, interval, h, sp.r, sp.p) for h in hs])
    return float(_power_root(lambda y: np.dot(ws, y) / u, norms, sp.p))


@st.composite
def cases(draw):
    r = draw(st.integers(1, 3))
    sp = SmoothnessParams(r=r, p=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0,
                                                        np.inf])),
                          h_per_octave=draw(st.integers(1, 6)),
                          h_octaves=draw(st.integers(0, 3)),
                          avg_panels=draw(st.integers(1, 3)))
    a = draw(st.sampled_from([0.0, draw(st.floats(0.01, 0.7))]))
    b = draw(st.floats(a + 0.05, 1.0))
    return sp, (a, b), draw(st.floats(0.01, 1.0))


@SETTINGS
@given(case=cases(), kind=st.sampled_from(sorted(FIELDS)))
def test_stacked_norms_keep_the_bits_of_one_step(case, kind):
    sp, interval, u = case
    fn = as_slicefn(FIELDS[kind])
    hs = sp.h_grid(reference_grid(interval, u, sp.r))
    norms = smoothness._difference_norms(fn, interval, hs, sp.r, sp.p, u)
    ref = [step_norm(fn, interval, h, sp.r, sp.p) for h in hs]
    assert [float(v).hex() for v in norms] == [v.hex() for v in ref]
    assert modulus_sup(fn, interval, u, sp).hex() == \
        reference_sup(fn, interval, u, sp).hex()
    assert modulus_avg(fn, interval, u, sp).hex() == \
        reference_avg(fn, interval, u, sp).hex()


@SETTINGS
@given(case=cases(), kind=st.sampled_from(sorted(FIELDS)),
       kmax=st.integers(4, 8))
def test_stacked_terms_keep_the_bits_of_one_step(case, kind, kmax):
    sp, interval, _ = case
    fn = as_slicefn(FIELDS[kind])
    bp = BesovParams(s=0.5, q=2.0, r=sp.r, kmax=kmax)
    terms = besov_terms(fn, interval, bp, sp)
    ref = [2.0 ** (k * bp.s) * reference_sup(fn, interval, 2.0 ** -k, sp)
           for k in range(kmax + 1)]
    assert [float(v).hex() for v in terms] == [v.hex() for v in ref]


def test_the_time_estimate_evaluates_each_shift_once_per_block():
    # the estimate of greedy-st on a separable field: 130 distinct steps
    # on 410 graded nodes in two blocks; one step at a time, time_part
    # was called (r + 1) * 130 + 1 times
    f = make_test_field("tensor-singular", [0.25], DOM2)
    calls, time_part = [], f.time_part
    f.time_part = lambda t: calls.append(1) or time_part(t)
    bp, sp = time_seminorm_params(f.regularity, 1)
    top = 1.0 / sp.r * (1.0 - 1e-12)
    steps = {h for k in range(bp.kmax + 1)
             for h in sp.h_grid(min(2.0 ** -k, top))}
    nodes = len(as_slicefn(f).quad(0.0, 0.5)[0])
    blocks = leaf_blocks(len(steps), nodes)
    assert (len(steps), nodes, len(blocks)) == (130, 410, 2)
    besov_seminorm_discrete(f, (0.0, 1.0), bp, sp)
    # r + 1 shifts per block, plus ||f|| for the roundoff floor
    assert len(calls) == (sp.r + 1) * len(blocks) + 1


@pytest.mark.parametrize("c", [0.2, 0.3, 0.5, 0.7])
def test_a_nan_norm_names_the_first_level_of_its_step(c):
    # NaN near t = c: the first NaN step, in level order, is on a level
    # below the first, and the error names that level's u
    f = Field(DOM1, lambda t, x: np.where(np.abs(t - c) < 1e-3, np.nan,
                                          t * (1 + x)))
    fn, interval = as_slicefn(f), (0.0, 1.0)
    sp = SmoothnessParams(r=1, p=2.0, h_per_octave=2, h_octaves=1)
    bp = BesovParams(s=0.5, q=2.0, kmax=6)
    seen, first = set(), None
    for k in range(bp.kmax + 1):
        u = 2.0 ** -k
        for h in sp.h_grid(reference_grid(interval, u, sp.r)):
            if h not in seen and first is None and \
                    np.isnan(step_norm(fn, interval, h, sp.r, sp.p)):
                first = (u, h)
            seen.add(h)
    assert first[0] < 1.0
    u, h = first
    with pytest.raises(SmoothnessError,
                       match=re.escape(f"NaN at u={u}, h={h}") + "$"):
        besov_terms(f, interval, bp, sp)


def test_an_empty_interval_has_moduli_zero_on_every_field():
    # a grid slice raised QuadratureError on [a, a) while a separable
    # one read 0; every step's difference domain is empty there
    sp = SmoothnessParams(r=2, p=2.0, h_per_octave=2, h_octaves=1)
    bp = BesovParams(s=0.5, q=2.0, kmax=4)
    for kind in ("time-power", "moving"):
        f = FIELDS[kind]
        assert modulus_sup(f, (0.5, 0.5), 0.1, sp) == 0.0
        assert besov_terms(f, (0.5, 0.5), bp, sp).tolist() == [0.0] * 5

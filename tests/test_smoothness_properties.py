"""Property tests: the dyadic Besov terms against the modulus, level by level.

``besov_terms`` shares the difference norms of equal steps h between
levels; each term must still equal 2^{ks} * modulus_sup at 2^{-k}
bitwise, and the field must be evaluated once per shift of each
distinct step.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.smoothness import BesovParams, SmoothnessParams, besov_terms, \
    modulus_sup

SETTINGS = settings(max_examples=30, deadline=None, database=None)
DOM = DomainSpec(T=1.0, n=1)


def moving(t, x):
    return np.abs(x - 0.25 - 0.45 * t) ** 0.5


FIELDS = {
    "separable": make_test_field("time-power", [0.25], DOM),
    "opaque": Field(DOM, moving, name="moving"),
}


@st.composite
def besov_cases(draw):
    r = draw(st.integers(1, 3))
    bp = BesovParams(s=draw(st.floats(0.1, r - 0.1)),
                     q=draw(st.sampled_from([1.0, 2.0, np.inf])), r=r,
                     kmax=draw(st.integers(4, 7)))
    sp = SmoothnessParams(r=r, p=draw(st.sampled_from([1.0, 2.0, np.inf])),
                          h_per_octave=draw(st.integers(1, 4)),
                          h_octaves=draw(st.integers(0, 2)))
    a = draw(st.integers(0, 8)) / 16
    b = a + draw(st.integers(1, 16 - int(16 * a))) / 16
    return bp, sp, (a, b)


@SETTINGS
@given(case=besov_cases(), kind=st.sampled_from(sorted(FIELDS)))
def test_terms_equal_modulus_per_level(case, kind):
    bp, sp, interval = case
    f = FIELDS[kind]
    terms = besov_terms(f, interval, bp, sp)
    ref = np.array([2.0 ** (k * bp.s) * modulus_sup(f, interval, 2.0 ** (-k), sp)
                    for k in np.arange(bp.kmax + 1)])
    assert terms.tobytes() == ref.tobytes()


def test_terms_evaluate_each_step_once():
    calls = []

    def counted(t, x):
        calls.append(1)
        return moving(t, x)

    f = Field(DOM, counted, name="moving")
    for r, interval in [(1, (0.0, 1.0)), (2, (0.0, 1.0)), (3, (0.25, 0.5))]:
        bp = BesovParams(s=0.5, q=2.0, r=r, kmax=12)
        sp = SmoothnessParams(r=r, p=2.0, h_per_octave=8, h_octaves=3)
        top = (interval[1] - interval[0]) / r * (1.0 - 1e-12)
        steps = {h for k in range(bp.kmax + 1)
                 for h in sp.h_grid(min(2.0 ** -k, top))}
        calls.clear()
        besov_terms(f, interval, bp, sp)
        # r + 1 shifts per distinct step, plus ||f|| for the roundoff floor
        assert len(calls) <= (r + 1) * len(steps) + 1

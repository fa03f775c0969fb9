import numpy as np
import pytest

from stgreedy import polyspace
from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.polyspace import (PolyspaceError, SlicePoly, TimeBasis,
                                best_error, jackson_construct, lp_error,
                                as_slicefn, median_constant, node_norm,
                                orthonormal_time_basis, project_time_slice)
from stgreedy.quadrature import SpatialGrid, composite_nodes
from stgreedy.xvalued import GridFactor, XVal

DOM = DomainSpec(T=1.0, n=1)
F_T = make_test_field("poly", [1, 0], DOM)          # f(t, x) = t
SCALAR_GRID = SpatialGrid(points=np.zeros((1, 1)), weights=np.array([1.0]),
                          dim=1)


def scalar_field(time_fn, singular_t0=False):
    """Field constant in space: a convenient scalar-valued slice."""
    return Field(DOM, lambda t, x: time_fn(t) + 0.0 * x,
                 name="custom", time_part=time_fn,
                 space_part=lambda x: np.ones_like(x),
                 singular_t0=singular_t0)


def test_basis_examples():
    b1 = orthonormal_time_basis((0, 1), 1)
    assert np.allclose(b1.eval([0.1, 0.9])[:, 0], 1.0)
    b2 = orthonormal_time_basis((0, 1), 2)
    ts = np.linspace(0, 1, 7)
    w2 = b2.eval(ts)[:, 1]
    target = np.sqrt(12) * (ts - 0.5)
    assert np.allclose(w2, target) or np.allclose(w2, -target)
    b = orthonormal_time_basis((0, 2), 1)
    assert np.allclose(b.eval([0.3])[:, 0], 1 / np.sqrt(2))
    with pytest.raises(PolyspaceError):
        orthonormal_time_basis((1, 1), 1)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("interval", [(0, 1), (0.25, 0.375), (0.5, 2.0)])
def test_gram_identity(r, interval):
    basis = TimeBasis(interval, r)
    ts, ws = composite_nodes(*interval, panels=4)
    W = basis.eval(ts)
    gram = W.T @ (ws[:, None] * W)
    assert np.max(np.abs(gram - np.eye(r))) < 1e-10


def test_projection_examples():
    fc = make_test_field("constant", [2.0], DOM)
    P = project_time_slice(fc, (0, 1), 1)
    assert abs(P.coeffs[0].mu - 2.0) < 1e-12

    P = project_time_slice(F_T, (0, 1), 2)          # reproduces f = t
    ts = np.linspace(0.05, 0.95, 9)
    vals = P.values(ts, F_T.grid.points)
    assert np.max(np.abs(vals - ts[:, None])) < 1e-10

    P = project_time_slice(F_T, (0, 1), 1)
    assert abs(P.coeffs[0].mu - 0.5) < 1e-12


def test_best_error_examples():
    fq = make_test_field("poly", [2, 0], DOM)
    assert best_error(fq, (0, 1), 3) < 1e-8
    assert abs(best_error(F_T, (0, 1), 1) - 1 / np.sqrt(12)) < 1e-8
    assert abs(best_error(F_T, (0, 0.5), 1) - 0.5 ** 1.5 / np.sqrt(12)) < 1e-8


def test_best_error_monotone_in_r():
    f = make_test_field("time-power", [0.25], DOM)
    for interval in [(0, 1), (0.5, 1), (0, 0.25)]:
        errs = [best_error(f, interval, r) for r in range(1, 5)]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-10


def test_projection_optimality_p2():
    f = make_test_field("time-power", [0.5], DOM)
    interval, r = (0.25, 0.75), 2
    emin = best_error(f, interval, r)
    rng = np.random.default_rng(7)
    basis = TimeBasis(interval, r)
    fn = project_time_slice(f, interval, r)
    profile = fn.coeffs[0].factor
    for _ in range(100):
        coeffs = [XVal(profile, [c]) for c in rng.normal(size=r)]
        Q = SlicePoly(basis, coeffs)
        assert emin <= lp_error(f, Q, 2) + 1e-8


def test_median_constant_examples():
    fc = make_test_field("constant", [3.0], DOM)
    assert abs(median_constant(fc, (0, 1), 2).norm(2) - 3.0) < 1e-12

    a0 = median_constant(F_T, (0, 1), 2)
    assert 0.25 <= a0.mu <= 0.75
    # Lp distance of f(t)=t to a0 is bounded by the double-integral mean 1/6
    resid2 = (a0.mu ** 2 - a0.mu + 1 / 3)       # int (t - a0)^2 dt
    assert resid2 <= 1 / 6 + 1e-12

    step = scalar_field(lambda t: np.sign(t - 0.5))
    a0 = median_constant(step, (0, 1), 1)
    assert abs(abs(a0.mu) - 1.0) < 1e-12


def separable_and_opaque(time_fn):
    """The same scalar slice as a separable field and as an opaque one."""
    sep = scalar_field(time_fn)
    opaque = Field(DOM, lambda t, x: time_fn(t) + 0.0 * x, name="opaque")
    opaque.grid = sep.grid           # same discretized X on both paths
    return sep, opaque


@pytest.mark.parametrize("samples", [64, 65, 129])
@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
def test_median_constant_exact_tie_takes_smallest_candidate(samples, scale,
                                                           monkeypatch):
    monkeypatch.setattr(polyspace, "MEDIAN_SAMPLES", samples)
    # for p = 1, g(y) = scale at every candidate, the midpoint (sign 0)
    # included: an exact tie that roundoff must not break
    def signed(t):
        return scale * np.sign(np.asarray(t) - 0.5)
    for f in separable_and_opaque(signed):
        a0 = median_constant(f, (0, 1), 1)
        assert np.all(a0.vals == -scale)


def test_median_constant_skips_non_finite_candidates(monkeypatch):
    monkeypatch.setattr(polyspace, "MEDIAN_SAMPLES", 129)
    # f(t) = t, undefined at the first of the 129 candidates only
    first = 0.5 / 129
    def t_with_hole(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t - first) < 1e-12, np.nan, t)
    for f in separable_and_opaque(t_with_hole):
        for p in (1.0, np.inf):
            a0 = median_constant(f, (0, 1), p)
            assert np.all(a0.vals == 0.5)


def test_jackson_trivial_cases():
    fq = make_test_field("poly", [2, 0], DOM)
    P = jackson_construct(fq, (0, 1), 3, 2)
    assert lp_error(fq, P, 2) < 1e-8

    fc = make_test_field("constant", [1.5], DOM)
    for r in (1, 2, 3):
        P = jackson_construct(fc, (0, 1), r, 1)
        assert lp_error(fc, P, 1) < 1e-10


def test_jackson_kink_constant_guard():
    # |t - 1/2|, r = 1, p = 2: measured constant stays well under 10
    from stgreedy.smoothness import SmoothnessParams, modulus_avg
    f = scalar_field(lambda t: np.abs(t - 0.5))
    P = jackson_construct(f, (0, 1), 1, 2)
    err = lp_error(f, P, 2)
    w = modulus_avg(f, (0, 1), 0.5, SmoothnessParams(r=1, p=2))
    assert (err / w) ** 2 <= 10.0


def test_slice_error_general_p():
    # p = 2 goes through exact projection, other p through the
    # constructive route; both must land near the true best error
    from stgreedy.polyspace import slice_error
    f = make_test_field("time-power", [0.25], DOM)
    # sup-norm best constant error is (max - min)/2 = 0.5 on [0, 1)
    e_inf = slice_error(f, (0, 1), 1, np.inf)
    assert 0.5 <= e_inf <= 0.75
    e_half = slice_error(f, (0, 1), 1, 0.5)
    assert 0.0 < e_half < 0.5


def test_node_norm():
    fc = make_test_field("constant", [-2.0], DOM)
    P = project_time_slice(fc, (0, 1), 1)
    assert abs(node_norm(P) - 2.0) < 1e-12
    P = project_time_slice(F_T, (0, 1), 2)
    assert abs(node_norm(P) - 1.0) < 1e-10


def test_node_norm_equivalence_monte_carlo():
    # ||P||_L2 / ||P||_* stays in [1/c, c] with c = 4.5 for degree-3 polys
    # (observed range over this seed: [0.252, 0.983])
    rng = np.random.default_rng(42)
    c = 4.5
    for _ in range(1000):
        basis = TimeBasis((0, 1), 4)
        cs = rng.normal(size=4)
        coeffs = [XVal(GridFactor(SCALAR_GRID), [v]) for v in cs]
        P = SlicePoly(basis, coeffs)
        l2 = float(np.sqrt(np.sum(cs ** 2)))    # orthonormal coefficients
        ratio = l2 / node_norm(P)
        assert 1 / c <= ratio <= c


def test_lp_lq_scaling_equivalence():
    # ||P||_p <= c |I|^{1/p-1/q} ||P||_q with one c per r over dyadic |I|
    # (measured constants: r=1: 1.0, 2: 2.41, 3: 4.37, 4: 6.17)
    guards = {1: 1.1, 2: 3.0, 3: 5.5, 4: 8.0}
    rng = np.random.default_rng(3)
    for r, guard in guards.items():
        for L in (2.0 ** -k for k in range(0, 9, 2)):
            basis = TimeBasis((0, L), r)
            cs = rng.normal(size=r)
            ts, ws = composite_nodes(0, L, panels=8)
            vals = basis.eval(ts) @ cs
            norms = {}
            for p in (1.0, 2.0, np.inf):
                if np.isinf(p):
                    norms[p] = np.max(np.abs(vals))
                else:
                    norms[p] = (ws @ np.abs(vals) ** p) ** (1 / p)
            for p in (1.0, 2.0, np.inf):
                for q in (1.0, 2.0, np.inf):
                    ip = 0.0 if np.isinf(p) else 1 / p
                    iq = 0.0 if np.isinf(q) else 1 / q
                    assert norms[p] <= guard * L ** (ip - iq) * norms[q] + 1e-12


def test_separable_field_evaluates_its_profile_on_the_grid_once():
    calls = []

    def space(x):
        calls.append(len(x))
        return np.sin(np.pi * x)

    f = Field(DOM, lambda t, x: t ** 0.25 * space(x), name="counted",
              time_part=lambda t: np.asarray(t) ** 0.25, space_part=space,
              singular_t0=True)
    for k in range(4):
        project_time_slice(f, (0.0, 0.5 ** k), 2)
        best_error(f, (0.5 ** (k + 1), 0.5 ** k), 2)
    assert calls == [len(f.grid.weights)]
    assert not f.profile.vals.flags.writeable


@pytest.mark.parametrize("field", [F_T, make_test_field(
    "tensor-singular", [0.25], DOM)])
def test_residual_evaluates_the_basis_once_per_call(monkeypatch, field):
    # the residual took the r basis functions one by one, and each
    # evaluated the whole basis
    poly = jackson_construct(field, (0.0, 1.0), 3, 1.0)
    ts = np.linspace(0.0, 1.0, 9)
    want = poly.residual(as_slicefn(field)).coef(ts)
    calls = []
    plain = TimeBasis.eval

    def counted(self, ts):
        calls.append(len(ts))
        return plain(self, ts)
    monkeypatch.setattr(TimeBasis, "eval", counted)
    assert np.array_equal(poly.residual(as_slicefn(field)).coef(ts), want)
    assert calls == [len(ts)]

import numpy as np
import pytest

from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.smoothness import (BesovParams, SmoothnessError,
                                 SmoothnessParams, besov_seminorm_discrete,
                                 besov_terms, difference, modulus_avg,
                                 modulus_sup, whitney_ratio)
from stgreedy.xvalued import SliceFn

DOM = DomainSpec(T=1.0, n=1)
F_CONST = make_test_field("constant", [3.0], DOM)
F_T = make_test_field("poly", [1, 0], DOM)


def test_difference_examples():
    assert difference(F_CONST, 0.2, 0.05, 3).norm(2) < 1e-14
    for t in (0.1, 0.4, 0.8):
        d = difference(F_T, t, 0.1, 1)
        assert abs(d.norm(2) - 0.1) < 1e-13
    fq = make_test_field("poly", [2, 0], DOM)
    d = difference(fq, 0.3, 0.1, 2)
    assert abs(d.norm(2) - 0.02) < 1e-13
    with pytest.raises(SmoothnessError):
        difference(F_T, 0.9, 0.1, 2)   # 0.9 + 0.2 leaves [0, 1)


def test_modulus_sup_examples():
    sp = SmoothnessParams(r=1, p=2)
    assert modulus_sup(F_CONST, (0, 1), 0.25, sp) == 0.0
    spinf = SmoothnessParams(r=1, p=np.inf)
    assert abs(modulus_sup(F_T, (0, 1), 0.25, spinf) - 0.25) < 1e-12
    # ||Delta_h t||_{L2(0,1-h)} = h sqrt(1-h), maximal at h = u
    assert abs(modulus_sup(F_T, (0, 1), 0.25, sp) - 0.25 * np.sqrt(0.75)) < 1e-12


def test_modulus_avg_examples():
    sp = SmoothnessParams(r=1, p=2)
    assert modulus_avg(F_CONST, (0, 1), 0.25, sp) == 0.0
    # ((1/u) int_0^u h^2 (1-h) dh)^(1/2) = (u^2/3 - u^3/4)^(1/2)
    u = 0.25
    exact = np.sqrt(u ** 2 / 3 - u ** 3 / 4)
    assert abs(modulus_avg(F_T, (0, 1), u, sp) - exact) < 1e-12


def test_avg_below_sup():
    f = make_test_field("time-power", [0.25], DOM)
    for r in (1, 2):
        for p in (1.0, 2.0):
            sp = SmoothnessParams(r=r, p=p)
            for u in (0.25, 0.0625):
                assert modulus_avg(f, (0, 1), u, sp) <= \
                    modulus_sup(f, (0, 1), u, sp) + 1e-10


def test_monotone_in_u():
    f = make_test_field("time-power", [0.25], DOM)
    sp = SmoothnessParams(r=2, p=2)
    us = [2.0 ** -k for k in range(3, 12)]
    vals = [modulus_sup(f, (0, 1), u, sp) for u in us]
    for smaller, larger in zip(vals[1:], vals[:-1]):
        assert smaller <= larger + 1e-14


@pytest.mark.parametrize("m", [2, 3])
def test_homogeneity(m):
    # omega_r(m u)^min(1,p) <= m^r omega_r(u)^min(1,p)
    f = make_test_field("time-power", [0.25], DOM)
    for r in (1, 2):
        for p in (1.0, 2.0, np.inf):
            sp = SmoothnessParams(r=r, p=p)
            for u in (0.01, 0.05):
                lhs = modulus_sup(f, (0, 1), m * u, sp) ** min(1.0, p)
                rhs = m ** r * modulus_sup(f, (0, 1), u, sp) ** min(1.0, p)
                assert lhs <= rhs + 1e-8


def test_order_bound():
    # w_{r+1}^min(1,p) <= 2 w_r^min(1,p)
    f = make_test_field("time-power", [0.5], DOM)
    for r in (1, 2):
        for p in (1.0, 2.0):
            lo = modulus_avg(f, (0, 1), 0.125, SmoothnessParams(r=r + 1, p=p))
            hi = modulus_avg(f, (0, 1), 0.125, SmoothnessParams(r=r, p=p))
            assert lo ** min(1, p) <= 2 * hi ** min(1, p) + 1e-8


def test_equivalence_of_moduli():
    # w_r <= omega_r and omega_r(u) <= c w_r((r+1) u) with stable c
    f = make_test_field("time-power", [0.25], DOM)
    for r in (1, 2):
        for p in (1.0, 2.0):
            sp = SmoothnessParams(r=r, p=p)
            cs = []
            for u in (2.0 ** -k for k in range(4, 9)):
                w = modulus_avg(f, (0, 1), u, sp)
                om = modulus_sup(f, (0, 1), u, sp)
                assert w <= om + 1e-10
                w_wide = modulus_avg(f, (0, 1), (r + 1) * u, sp)
                cs.append(om / w_wide)
            assert max(cs) < 16.0, (r, p, cs)


def test_scaling_to_unit_interval():
    # moduli on [a, b) = (b-a)^(1/p) * moduli of the pullback at u/(b-a)
    f = make_test_field("time-power", [0.5], DOM)
    fn = SliceFn.from_field(f)
    a, b = 0.25, 0.75
    hat = fn.pullback(a, b - a)
    for p in (1.0, 2.0):
        sp = SmoothnessParams(r=1, p=p)
        for u in (0.05, 0.1):
            direct = modulus_sup(f, (a, b), u, sp)
            pulled = (b - a) ** (1 / p) * \
                modulus_sup(hat, (0, 1), u / (b - a), sp)
            assert abs(direct - pulled) < 1e-6


def test_quasinorm_range_p_below_one():
    # the engine admits 0 < p < 1 (quasi-norms); homogeneity then carries
    # the min(1, p) exponent
    f = make_test_field("time-power", [0.25], DOM)
    sp = SmoothnessParams(r=1, p=0.5)
    for u in (0.25, 0.125, 0.0625):
        om = modulus_sup(f, (0, 1), u, sp)
        om2 = modulus_sup(f, (0, 1), 2 * u, sp)
        assert om > 0
        assert om2 ** 0.5 <= 2 * om ** 0.5 + 1e-8
        assert modulus_avg(f, (0, 1), u, sp) <= om + 1e-10


def test_besov_trivial_zeros():
    bp = BesovParams(s=0.5, q=2.0, kmax=8)
    assert besov_seminorm_discrete(F_CONST, (0, 1), bp) == 0.0
    fq = make_test_field("poly", [1, 0], DOM)
    bp2 = BesovParams(s=1.5, q=2.0, kmax=8)    # r = 2 annihilates degree 1
    assert besov_seminorm_discrete(fq, (0, 1), bp2) < 1e-10


def test_besov_sqrt_field_tail():
    # oracle: direct summation at kmax = 20; the kmax = 12 truncation is
    # Cauchy in the sense that the last dyadic level moves the seminorm
    # by under 5 percent (terms decay like 2^{-k/10} sqrt(k) here)
    f = make_test_field("time-power", [0.5], DOM)
    t12 = besov_terms(f, (0, 1), BesovParams(s=0.9, q=2.0, kmax=12))
    t20 = besov_terms(f, (0, 1), BesovParams(s=0.9, q=2.0, kmax=20))
    v11 = np.sum(t12[:-1] ** 2) ** 0.5
    v12 = np.sum(t12 ** 2) ** 0.5
    v20 = np.sum(t20 ** 2) ** 0.5
    assert np.isfinite(v12) and v12 > 0
    assert (v12 - v11) / v12 < 0.05
    assert abs(v20 - v12) / v20 < 0.2      # measured 0.164
    assert np.all(np.diff(np.maximum.accumulate(t20 ** 2).cumsum()) >= 0)


def test_besov_params_validation():
    with pytest.raises(SmoothnessError):
        BesovParams(s=1.2, q=2.0, r=1)
    with pytest.raises(SmoothnessError):
        BesovParams(s=0.5, q=2.0, kmax=2)
    # an h-grid of NaN (0 per octave) or no h at all, no h-average panels
    for bad in ({"h_per_octave": 0}, {"h_octaves": -1}, {"avg_panels": 0}):
        with pytest.raises(SmoothnessError, match="h_per_octave >= 1"):
            SmoothnessParams(**bad)


def test_whitney_trivial():
    fq = make_test_field("poly", [1, 0], DOM)
    assert whitney_ratio(fq, (0, 1), 2, 2.0, 2.0, 1.5) == 0.0
    fc = make_test_field("constant", [2.0], DOM)
    assert whitney_ratio(fc, (0, 1), 1, 2.0, 2.0, 0.5) == 0.0


def test_whitney_stability_quarter_power():
    f = make_test_field("time-power", [0.25], DOM)
    ratios = [whitney_ratio(f, (0, L), 1, 2.0, 2.0, 0.7)
              for L in (1.0, 0.5, 0.25, 0.125)]
    assert all(r > 0 for r in ratios)
    mid = np.mean(ratios)
    assert max(ratios) <= 1.2 * mid and min(ratios) >= 0.8 * mid


def test_whitney_parameter_guards():
    f = make_test_field("time-power", [0.25], DOM)
    with pytest.raises(SmoothnessError):
        whitney_ratio(f, (0, 1), 1, 2.0, 2.0, 1.5)    # s >= r
    with pytest.raises(SmoothnessError):
        whitney_ratio(f, (0, 1), 2, 2.0, 0.25, 0.5)   # s < 1/q - 1/p


def test_nan_field_raises():
    # NaN for t > 0.9: modulus_sup and besov_terms used to report 0 (NaN
    # fails "v > best"), modulus_avg returned nan
    f = Field(DOM, lambda t, x: np.where(t > 0.9, np.nan, t * (1 + x)))
    sp = SmoothnessParams(r=1, p=2, h_per_octave=2, h_octaves=1)
    for call in (lambda: modulus_sup(f, (0, 1), 0.25, sp),
                 lambda: modulus_avg(f, (0, 1), 0.25, sp),
                 lambda: besov_terms(f, (0, 1), BesovParams(s=0.5, q=2.0),
                                     sp)):
        with pytest.raises(SmoothnessError, match="NaN at u=.*, h="):
            call()


def test_infinite_norm_is_a_result():
    # squares overflow: the norms, ||f|| included, are infinite; the
    # roundoff floor used to turn that into a modulus of 0
    f = Field(DOM, lambda t, x: 1e200 * t + 0 * x)
    sp = SmoothnessParams(r=1, p=2, h_per_octave=2, h_octaves=1)
    with np.errstate(over="ignore"):
        assert modulus_sup(f, (0, 1), 0.25, sp) == np.inf
        assert modulus_avg(f, (0, 1), 0.25, sp) == np.inf
        terms = besov_terms(f, (0, 1), BesovParams(s=0.5, q=2.0, kmax=4),
                            sp)
    assert np.all(terms == np.inf)

"""Moduli of smoothness and discrete Besov seminorms in time.

The order-r modulus is the sup over step sizes h <= u of the Lp norm of
the r-th finite difference; its averaged companion integrates the same
norms in h.  Both are computed for vector-valued slices (values in
X = L2(Omega)), discretized on the field's spatial grid.  The discrete
Besov seminorm sums dyadic modulus samples, and the Whitney ratio
compares best polynomial errors against the seminorm scaling.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .polyspace import as_slicefn, slice_error
from .quadrature import composite_nodes


class SmoothnessError(ValueError):
    pass


@dataclass(frozen=True)
class SmoothnessParams:
    """Difference order, integrability and discretization knobs.

    The sup over h in the modulus is taken on a geometric grid with
    ``h_per_octave`` points per octave spanning ``h_octaves`` octaves
    below u (endpoint u always included); the h-average uses
    ``avg_panels`` composite Gauss panels on [0, u].
    """

    r: int = 1
    p: float = 2.0
    h_per_octave: int = 16
    h_octaves: int = 3
    avg_panels: int = 8

    def __post_init__(self):
        if self.r < 1:
            raise SmoothnessError(f"difference order must be >= 1, got {self.r}")
        if not self.p > 0:
            raise SmoothnessError(f"p must be positive, got {self.p}")

    def h_grid(self, u):
        n = self.h_per_octave * self.h_octaves
        return u * 2.0 ** (-np.arange(n + 1) / self.h_per_octave)


@dataclass(frozen=True)
class BesovParams:
    """Smoothness s, summability q, difference order and dyadic depth."""

    s: float
    q: float
    r: Optional[int] = None
    kmax: int = 14

    def __post_init__(self):
        if not self.s > 0:
            raise SmoothnessError(f"s must be positive, got {self.s}")
        if self.kmax < 4:
            raise SmoothnessError(f"kmax must be >= 4, got {self.kmax}")
        if self.order <= self.s:
            raise SmoothnessError(f"need s < r, got s={self.s}, r={self.order}")

    @property
    def order(self):
        return self.r if self.r is not None else math.floor(self.s) + 1


def difference(f, t, h, r):
    """r-th order difference of the slice map at time t, an X value."""
    fn = as_slicefn(f)
    if f is not fn and hasattr(f, "domain") and t + r * h >= f.domain.T + 1e-12:
        raise SmoothnessError(f"t + r h = {t + r * h} leaves the time domain")
    delta = fn.difference(h, r)
    return delta.value_at(t)


def _clamped(u, interval, r):
    a, b = interval
    top = (b - a) / r
    return min(u, top * (1.0 - 1e-12)), a, b


def modulus_sup(f, interval, u, params: SmoothnessParams) -> float:
    """omega_r(f, I, u)_p: sup over the h-grid of ||Delta_h^r f||_Lp.

    Values of h beyond |I|/r contribute nothing (the difference domain
    is empty), so u is clamped there; the result is nondecreasing in u.
    Differences that cancel to the roundoff floor (relative 1e-14 of
    ||f||) report exactly zero, keeping annihilated polynomials exact.
    """
    if not u > 0:
        raise SmoothnessError(f"u must be positive, got {u}")
    fn = as_slicefn(f)
    u_eff, a, b = _clamped(u, interval, params.r)
    hs = params.h_grid(u_eff)
    if len(hs) == 0:
        raise SmoothnessError("empty h-grid")
    best = 0.0
    for h in hs:
        v = fn.difference(h, params.r).lp_norm(a, b - params.r * h, params.p)
        if v > best:
            best = v
    if best <= 1e-14 * (2.0 ** params.r) * fn.lp_norm(a, b, params.p):
        return 0.0
    return best


def modulus_avg(f, interval, u, params: SmoothnessParams) -> float:
    """w_r(f, I, u)_p: the h-average of the difference norms.

    ((1/u) int_0^u ||Delta_h^r f||^p dh)^(1/p) by composite quadrature;
    for p = inf this degenerates to the sup over the h nodes.
    """
    if not u > 0:
        raise SmoothnessError(f"u must be positive, got {u}")
    fn = as_slicefn(f)
    a, b = interval
    hi = min(u, (b - a) / params.r * (1.0 - 1e-12))
    hs, ws = composite_nodes(0.0, hi, panels=params.avg_panels)
    p = params.p
    norms = np.array([fn.difference(h, params.r).lp_norm(a, b - params.r * h, p)
                      for h in hs])
    if np.isinf(p):
        return float(np.max(norms))
    return float((np.dot(ws, norms ** p) / u) ** (1.0 / p))


def besov_terms(f, interval, bp: BesovParams, params=None):
    """The dyadic terms 2^{ks} omega_r(f, I, 2^{-k})_p, k = 0..kmax."""
    sp = (SmoothnessParams(r=bp.order) if params is None
          else replace(params, r=bp.order))
    ks = np.arange(bp.kmax + 1)
    return np.array([2.0 ** (k * bp.s) * modulus_sup(f, interval, 2.0 ** (-k), sp)
                     for k in ks])


def besov_seminorm_discrete(f, interval, bp: BesovParams, params=None) -> float:
    """Discrete Besov seminorm: lq sum of the dyadic modulus terms.

    Truncated at bp.kmax; use :func:`besov_terms` to inspect the tail
    contribution of the truncation.
    """
    terms = besov_terms(f, interval, bp, params)
    if np.isinf(bp.q):
        return float(np.max(terms))
    return float(np.sum(terms ** bp.q) ** (1.0 / bp.q))


def whitney_ratio(f, interval, r, p, q, s, params=None) -> float:
    """Best-error over seminorm-scaling ratio for the Whitney bound.

    Returns E_r(f, I)_p / (|I|^{s + 1/p - 1/q} |f|_{B^s_{q,q}(I,X)}),
    with the 0/0 convention -> 0.  A vanishing seminorm with a nonzero
    error signals misused parameters.
    """
    if s >= r:
        raise SmoothnessError(f"need s < r, got s={s}, r={r}")
    gap = (1.0 / q - 1.0 / p) if not np.isinf(q) else -1.0 / p
    if max(gap, 0.0) > s:
        raise SmoothnessError(f"need (1/q - 1/p)+ <= s, got s={s}, p={p}, q={q}")
    a, b = interval
    err = slice_error(f, interval, r, p)
    bp = BesovParams(s=s, q=q)
    qparams = SmoothnessParams(r=bp.order, p=q)
    sem = besov_seminorm_discrete(f, interval, bp, qparams)
    scale = (b - a) ** (s + 1.0 / p - 1.0 / q)
    if sem * scale < 1e-9:      # roundoff floor of annihilated differences
        if err < 1e-7:
            return 0.0
        raise SmoothnessError(
            f"zero seminorm with nonzero error {err}: parameter misuse")
    return err / (scale * sem)

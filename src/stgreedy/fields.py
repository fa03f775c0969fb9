"""Target functions f(t, x) on [0, T) x Omega.

A :class:`Field` is viewed throughout the engine as a map from [0, T)
into X = L2(Omega).  The built-in corpus provides closed forms with
known singularity parameters; arbitrary tabulated data can be loaded
from CSV.  Fields are immutable after construction and safe to evaluate
concurrently.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .quadrature import DEFAULT_INTERVAL_POINTS, DEFAULT_SMOOTH_PANELS, \
    SpatialGrid, gauss_interval_rule, interval_grid, square_grid

MAX_POLY_DEGREE = 8
MAX_SINGULAR_EXPONENT = 4.0
# numpy's leggauss solves a dense n x n eigenproblem and is tested up to
# n = 100; a time integral samples the field at points x panels nodes
# at once on the whole spatial grid, about 0.5 GB at both limits on the
# 2-D grid's 6144 points
MAX_QUAD_POINTS = 100
MAX_QUAD_PANELS = 100

CORPUS_NAMES = ("constant", "poly", "time-power", "space-power",
                "tensor-singular")


class FieldError(ValueError):
    """Unknown corpus id, invalid parameters or out-of-domain evaluation."""


@dataclass(frozen=True)
class DomainSpec:
    """Time horizon T, spatial domain (unit interval or unit square) and
    the interval quadrature of fields on it: the Gauss rule with
    ``quad_points`` nodes, in ``quad_panels`` panels for uniform time
    integrals."""

    T: float = 1.0
    n: int = 1
    quad_points: int = DEFAULT_INTERVAL_POINTS
    quad_panels: int = DEFAULT_SMOOTH_PANELS

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise FieldError(
                f"time horizon must be finite and positive, got {self.T}")
        if self.n not in (1, 2):
            raise FieldError(f"spatial dimension must be 1 or 2, got {self.n}")
        if not (2 <= self.quad_points <= MAX_QUAD_POINTS
                and 1 <= self.quad_panels <= MAX_QUAD_PANELS):
            raise FieldError(
                f"need quad_points in [2, {MAX_QUAD_POINTS}] and quad_panels "
                f"in [1, {MAX_QUAD_PANELS}], got {self.quad_points} and "
                f"{self.quad_panels}")

    @cached_property
    def rule(self):
        return gauss_interval_rule(self.quad_points)


@dataclass(frozen=True)
class Regularity:
    """Claimed Besov memberships (s1, q1) in time and (s2, q2) in space.

    Used only by the harness to predict rates; never asserted by the
    engine itself.
    """

    s1: Optional[float] = None
    q1: Optional[float] = None
    s2: Optional[float] = None
    q2: Optional[float] = None


class Field:
    """Scalar function of (t, x) with optional separable structure.

    ``evaluator(t, *coords)`` must broadcast over numpy arrays.  When the
    function factors as ``time_part(t) * space_part(x)`` the two factors
    can be supplied and the engine uses much cheaper code paths; the
    evaluator is then their product unless given.

    The moduli and Besov terms of :mod:`stgreedy.smoothness` call the
    evaluator from several threads at once, so it must be safe to call
    concurrently: the calling thread plus one helper per further CPU the
    process may run on, at most one thread per block of whole step sizes
    h.  Norms that take one row block stay on the calling thread:
    separable fields, and time rules whose nodes fit one block of
    ``xvalued.row_blocks`` (the default 60 nodes on the 1-D grid).  Each
    block is computed as on one thread, so every output is bit-identical
    whatever the thread count.
    """

    def __init__(self, domain, evaluator=None, regularity=None, name="field",
                 params=(), time_part=None, space_part=None,
                 singular_t0=False, singular_x=None):
        if evaluator is None:
            if time_part is None or space_part is None:
                raise FieldError("a field needs an evaluator or two factors")

            def evaluator(t, *xs):
                return time_part(t) * space_part(*xs)
        self.domain = domain
        self.evaluator = evaluator
        self.regularity = regularity
        self.name = name
        self.params = tuple(params)
        self.time_part = time_part
        self.space_part = space_part
        self.singular_t0 = bool(singular_t0)
        self.singular_x = singular_x
        self._grid = None

    def __repr__(self):
        return f"Field({self.name}, params={self.params}, n={self.domain.n})"

    @property
    def separable(self):
        return self.time_part is not None and self.space_part is not None

    @property
    def grid(self) -> SpatialGrid:
        """Fixed spatial quadrature grid discretizing X = L2(Omega)."""
        if self._grid is None:
            if self.domain.n == 1:
                x0 = self.singular_x[0] if self.singular_x is not None else None
                self._grid = interval_grid(rule=self.domain.rule,
                                           singular_at=x0)
            else:
                self._grid = square_grid()
        return self._grid

    @cached_property
    def grid_space_values(self):
        """``space_values`` on the grid points, computed once, read-only."""
        vals = np.asarray(self.space_values(self.grid.points), dtype=float)
        vals.flags.writeable = False
        return vals

    @cached_property
    def space_fn(self):
        """``space_values``, bound once: one point function object per
        field, by which the FE layer evaluates a spatial factor once for
        all of its multiples (see ``xvalued.XVal.term``)."""
        return self.space_values

    def sample(self, ts, points):
        """Values on the tensor grid ts x points, shape (len(ts), len(points))."""
        return self.sampler(points)(ts)

    def sampler(self, points):
        """``ts -> self.sample(ts, points)``, with the same bits.

        What depends on the points alone (a separable field's spatial
        factor) is computed once, here, for every call of the result.
        """
        points = np.asarray(points, dtype=float)
        if self.separable:
            space = self.space_values(points)
            return lambda ts: np.outer(self.time_part(_times(ts)), space)
        coords = [points[None, :, k] for k in range(points.shape[1])]
        return lambda ts: self.evaluator(_times(ts)[:, None], *coords)

    def space_values(self, points):
        points = np.asarray(points, dtype=float)
        if self.space_part is not None:
            return self.space_part(*[points[:, k] for k in range(points.shape[1])])
        raise FieldError("field is not separable")

    def time_values(self, ts):
        if self.time_part is not None:
            return self.time_part(np.asarray(ts, dtype=float))
        raise FieldError("field is not separable")


def _times(ts):
    return np.atleast_1d(np.asarray(ts, dtype=float))


def eval_field(f: Field, t: float, x) -> float:
    """Pointwise evaluation with domain checks; pure and deterministic."""
    dom = f.domain
    if not (0.0 <= t < dom.T):
        raise FieldError(f"t={t} outside [0, {dom.T})")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != dom.n:
        raise FieldError(f"point has {len(x)} coordinates, domain has n={dom.n}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise FieldError(f"x={x} outside the unit domain")
    return float(f.sample([t], x[None, :])[0, 0])


def _check_exponent(alpha):
    if not 0.0 < alpha <= MAX_SINGULAR_EXPONENT:
        raise FieldError(
            f"singular exponent must lie in (0, {MAX_SINGULAR_EXPONENT}], got {alpha}")


# params per family; space-power may also take a point x0 with n coordinates
_PARAM_COUNTS = {"constant": 1, "poly": 2, "time-power": 1, "space-power": 1,
                 "tensor-singular": 1}


def make_test_field(name, params, domain: DomainSpec, regularity=None) -> Field:
    """Construct a corpus field.

    Families (see README for the closed forms):

    * ``constant``        params [c]
    * ``poly``            params [time_degree, space_degree]
    * ``time-power``      params [alpha],        f = t^alpha
    * ``space-power``     params [beta, *x0],    f = |x - x0|^beta (x0 has n
      coordinates; without it x0 = 0)
    * ``tensor-singular`` params [alpha],        f = t^alpha * sin(pi x) (* sin(pi y))
    """
    params = [float(p) for p in params]
    n = domain.n
    if name in _PARAM_COUNTS:
        counts = (_PARAM_COUNTS[name],)
        if name == "space-power":
            counts += (1 + n,)
        if len(params) not in counts:
            raise FieldError(
                f"{name} takes {' or '.join(map(str, counts))} params "
                f"on a {n}-D domain, got {len(params)}")

    if name == "constant":
        c = params[0]
        return Field(domain, regularity=regularity, name=name, params=params,
                     time_part=lambda t: np.full(np.shape(t), c),
                     space_part=lambda *xs: np.ones_like(xs[0]))

    if name == "poly":
        dt, dx = int(params[0]), int(params[1])
        if dt >= MAX_POLY_DEGREE or dx >= MAX_POLY_DEGREE:
            raise FieldError(f"polynomial degree >= {MAX_POLY_DEGREE} not supported")
        if dt < 0 or dx < 0:
            raise FieldError("polynomial degrees must be nonnegative")

        def space(*xs):
            out = np.ones_like(xs[0])
            for c in xs:
                out = out * c ** dx
            return out

        return Field(domain, regularity=regularity, name=name, params=params,
                     time_part=lambda t: np.asarray(t, dtype=float) ** dt,
                     space_part=space)

    if name == "time-power":
        alpha = params[0]
        _check_exponent(alpha)
        reg = regularity or Regularity(s1=1.0, q1=1.0, s2=2.0, q2=2.0)
        return Field(domain, regularity=reg, name=name, params=params,
                     time_part=lambda t: np.asarray(t, dtype=float) ** alpha,
                     space_part=lambda *xs: np.ones_like(xs[0]),
                     singular_t0=(alpha != int(alpha)))

    if name == "space-power":
        beta = params[0]
        _check_exponent(beta)
        x0 = np.array(params[1:1 + n]) if len(params) > 1 else np.zeros(n)

        def space(*xs):
            d2 = sum((c - x0[k]) ** 2 for k, c in enumerate(xs))
            return d2 ** (beta / 2.0)

        return Field(domain, regularity=regularity, name=name, params=params,
                     time_part=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                     space_part=space,
                     singular_x=(x0 if beta != int(beta) else None))

    if name == "tensor-singular":
        alpha = params[0]
        _check_exponent(alpha)

        def space(*xs):
            out = np.sin(np.pi * xs[0])
            for c in xs[1:]:
                out = out * np.sin(np.pi * c)
            return out

        reg = regularity or Regularity(s1=1.0, q1=1.0, s2=2.0, q2=2.0)
        return Field(domain, regularity=reg, name=name, params=params,
                     time_part=lambda t: np.asarray(t, dtype=float) ** alpha,
                     space_part=space,
                     singular_t0=(alpha != int(alpha)))

    raise FieldError(f"unknown corpus id {name!r}; known: {CORPUS_NAMES}")


def field_from_csv(path, domain: DomainSpec, regularity=None) -> Field:
    """Tabulated-samples field from a CSV with columns t,x[,y],value.

    The samples must form a full tensor grid in (t, x[, y]); values are
    interpolated multilinearly inside the grid.
    """
    from scipy.interpolate import RegularGridInterpolator

    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except ValueError as e:
        raise FieldError(f"{path}: {e}") from e
    ncols = 2 + domain.n
    if data.ndim != 2 or data.shape[1] != ncols:
        raise FieldError(f"expected {ncols} columns t,x{',y' if domain.n == 2 else ''},value")
    axes = [np.unique(data[:, k]) for k in range(1 + domain.n)]
    shape = tuple(len(ax) for ax in axes)
    if np.prod(shape) != data.shape[0]:
        raise FieldError("CSV samples do not form a tensor grid")
    order = np.lexsort(tuple(data[:, k] for k in reversed(range(1 + domain.n))))
    vals = data[order, -1].reshape(shape)
    interp = RegularGridInterpolator(axes, vals, bounds_error=False,
                                     fill_value=None)

    def evaluator(t, *xs):
        t, *xs = np.broadcast_arrays(t, *xs)
        stacked = np.stack([t] + list(xs), axis=-1)
        return interp(stacked)

    return Field(domain, evaluator, regularity=regularity, name="csv",
                 params=())

"""The one range-safe power sum of every Lp and lq reduction.

``quadrature._power_root`` forms ``total(x ** p) ** (1 / p)`` for every
Lp norm, modulus mean, lq sum, lattice norm and candidate distance of
the library.  The plain expression underflowed to 0 or overflowed to
inf for large p: a p = 1000 time greedy reported error 0.0 at two
intervals, and the q2 >= 700 stability check returned NaN.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from stgreedy.fields import DomainSpec, make_test_field
from stgreedy.harness import parse_config, run_experiment
from stgreedy.mesh1d import greedy_time, uniform_time_error
from stgreedy.polyspace import as_slicefn, project_time_slice
from stgreedy.quadrature import _TINY, _power_root, interval_grid
from stgreedy.smoothness import lq_sum
from stgreedy.spacetime import projection_stability_check

SETTINGS = settings(max_examples=200, deadline=None, database=None)

# zero, subnormals, and every magnitude up to 1e300
ELEMENTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=_TINY),
    st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=-323.0, max_value=300.0).map(lambda e: 10.0 ** e))


@st.composite
def reductions(draw):
    """(x, axis): a 1-D or 2-D array and an axis to reduce it along."""
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 8)),)
        axis = draw(st.sampled_from([0, -1]))
    else:
        shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        axis = draw(st.sampled_from([0, 1]))
    return draw(arrays(float, shape, elements=ELEMENTS)), axis


def log_domain_root(x, p, axis):
    """(sum x^p)^(1/p) along ``axis`` as max x times a log-sum-exp of
    p log(x / max x), or the max for p = inf."""
    top = np.max(x, axis=axis, keepdims=True)
    if np.isinf(p):
        return np.squeeze(top, axis)
    safe = np.where(top > 0, top, 1.0)
    with np.errstate(divide="ignore"):
        lse = logsumexp(p * (np.log(x) - np.log(safe)), axis=axis,
                        keepdims=True)
    return np.squeeze(np.where(top > 0, safe * np.exp(lse / p), 0.0), axis)


@SETTINGS
@given(case=reductions(),
       p=st.one_of(st.floats(min_value=0.5, max_value=5000.0),
                   st.just(math.inf)))
def test_power_root_matches_the_log_domain_and_keeps_plain_bits(case, p):
    x, axis = case

    def total(y):
        return np.sum(y, axis=axis)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.asarray(_power_root(total, x, p, axis=axis))
    want = log_domain_root(x, p, axis)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    if np.isinf(p):
        return
    with np.errstate(over="ignore", under="ignore"):
        s = total(x ** p)
        plain = np.asarray(s ** (1.0 / p))
    normal = (s >= _TINY) & (s < np.inf)
    assert np.array_equal(got[normal], plain[normal])


def test_power_root_of_a_cumsum_rescales_the_partial_sums():
    got = lq_sum(np.array([0.1, 0.2, 0.0]), 1000.0, partial=True)
    assert got == pytest.approx([0.1, 0.2, 0.2], rel=1e-14)
    assert lq_sum(np.array([0.1, 0.3, 0.2]), np.inf, partial=True).tolist() \
        == [0.1, 0.3, 0.3]


def test_partial_sums_scale_each_prefix_by_its_own_top():
    # the cumsum was rescaled by the top of the whole array, so a prefix
    # far below it read 0: this returned [0, 1]
    got = lq_sum([1e-10, 1.0], 1000, partial=True)
    assert got == pytest.approx([1e-10, 1.0], rel=1e-14)


@SETTINGS
@given(terms=arrays(float, st.integers(1, 20), elements=ELEMENTS),
       q=st.one_of(st.floats(min_value=0.5, max_value=5000.0),
                   st.just(math.inf)))
def test_partial_sums_are_the_sums_of_their_prefixes(terms, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lq_sum(terms, q, partial=True)
        want = np.array([lq_sum(terms[:k + 1], q) for k in range(len(terms))])
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    if np.isinf(q):
        return
    with np.errstate(over="ignore", under="ignore"):
        s = np.cumsum(terms ** q)
        plain = s ** (1.0 / q)
    normal = (s >= _TINY) & (s < np.inf)
    assert np.array_equal(got[normal], plain[normal])


@pytest.mark.filterwarnings("error")
def test_large_p_norms_keep_their_scale():
    # each of these read 0.0 (or inf with a warning) at large p
    const = as_slicefn(make_test_field("constant", [0.1], DomainSpec()))
    for p in (1000.0, 5000.0):
        assert const.lp_norm(0.0, 1.0, p) == pytest.approx(0.1, rel=1e-14)
    assert lq_sum([0.1, 0.2], 1000.0) == pytest.approx(0.2, rel=1e-14)
    grid = interval_grid()
    assert grid.norm(np.full(len(grid.weights), 3.0), p=1000) \
        == pytest.approx(3.0, rel=1e-14)


def sweep_rows(f, r, p, deltas):
    """(N, error) of a greedy-time sweep, as its CSV rows give them."""
    cache, rows = {}, []
    for delta in deltas:
        res = greedy_time(f, r, p, delta, cache=cache)
        rows.append((res.partition.size, res.global_error(p)))
    return rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, params, T, p, start, stop", [
    # read 2 intervals and error 0.0 at every point
    ("time-power", [0.25], 1.0, 1000.0, 0.1, 0.01),
    # read error 0.0 at 31 intervals for the last two points
    ("time-power", [0.25], 1.0, 200.0, 0.1, 0.01),
    # ended in "all median candidates are non-finite"
    ("poly", [2, 0], 10.0, 400.0, 10.0, 1.0),
])
def test_large_p_time_greedy_meets_its_tolerance(field, params, T, p, start,
                                                 stop):
    f = make_test_field(field, params, DomainSpec(T=T))
    deltas = np.geomspace(start, stop, 4)
    rows = sweep_rows(f, 1, p, deltas)
    for delta, (n, err) in zip(deltas, rows):
        assert 0.0 < err <= delta * n ** (1.0 / p)
    sizes = [n for n, _ in rows]
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    for m in (1, 4):
        assert 0.0 < uniform_time_error(f, 1, p, m) < math.inf


@pytest.mark.filterwarnings("error")
def test_jackson_mode_at_p_1000(tmp_path):
    # ended in a ZeroDivisionError: the averaged modulus underflowed to 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("mode = jackson\nfield.name = time-power\n"
                   "field.params = 0.25\nr = 2\np = 1000\nsweep.start = 1\n"
                   "sweep.stop = 0.125\nsweep.points = 4\n"
                   f"out.dir = {tmp_path / 'out'}\n")
    rows, extras = run_experiment(parse_config(str(cfg)))
    assert all(0.0 < row["error"] < math.inf for row in rows)


def log_lq_rows(d, q, weight):
    """log of (weight sum_j |d[i, j]|^q)^(1/q) of each row, by a
    log-sum-exp; -inf for an empty or zero row."""
    if d.shape[1] == 0:
        return np.full(d.shape[0], -np.inf)
    with np.errstate(divide="ignore"):
        return (math.log(weight) + logsumexp(q * np.log(np.abs(d)),
                                             axis=1)) / q


def lattice_rows_reference(vals, s, q, r, n, grid_n):
    """``spacetime._lattice_norm_rows`` with its lq sums in the log
    domain: ||g||_q + (sum_k (2^(ks) max_dir ||Delta^r g||_q)^q)^(1/q)."""
    T = vals.shape[0]
    V = vals.reshape((T,) + (grid_n + 1,) * n)
    cell = 1.0 / grid_n
    directions = {1: [(1,)], 2: [(1, 0), (0, 1), (1, 1), (1, -1)]}[n]
    log_terms = []
    for k in range(int(math.floor(math.log2(grid_n / r))) + 1):
        best = np.full(T, -np.inf)
        for direction in directions:
            c = max(int(math.floor(2.0 ** -k / (math.hypot(*direction)
                                                 * cell))), 1)
            d = V
            for _ in range(r):
                hi, lo = [], []
                for o in reversed(direction):       # array axes: (y,) x
                    o *= c
                    hi.append(slice(max(o, 0), min(o, 0) or None))
                    lo.append(slice(max(-o, 0), min(-o, 0) or None))
                d = d[(...,) + tuple(hi)] - d[(...,) + tuple(lo)]
            best = np.maximum(best, log_lq_rows(d.reshape(T, -1), q,
                                                cell ** n))
        log_terms.append(k * s * math.log(2.0) + best)
    log_sem = logsumexp(q * np.stack(log_terms), axis=0) / q
    return np.exp(log_lq_rows(vals, q, cell ** n)) + np.exp(log_sem)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, q2", [(1, 700.0), (1, 2000.0), (1, 1e5),
                                   (2, 700.0)])
def test_stability_check_at_large_q2(n, q2):
    # q2 >= 700 returned NaN: both lattice norms overflowed to inf (the
    # 2-D case takes 9 s, so it runs at the first q2 that failed alone)
    f = make_test_field("tensor-singular", [0.25], DomainSpec(n=n))
    interval, grid_n = (0.0, 0.5), 64
    got = projection_stability_check(f, interval, 1, 1.5, q2, grid_n=grid_n)
    assert math.isfinite(got) and got > 0
    ax = np.linspace(0.0, 1.0, grid_n + 1)
    pts = np.stack(np.meshgrid(*[ax] * n), axis=-1).reshape(-1, n)
    ts, wt = as_slicefn(f).quad(*interval)
    gvals = project_time_slice(f, interval, 1).values(ts, pts)
    nf = lattice_rows_reference(f.sample(ts, pts), 1.5, q2, 2, n, grid_n)
    ng = lattice_rows_reference(gvals, 1.5, q2, 2, n, grid_n)
    want = math.sqrt(wt @ ng ** 2) / math.sqrt(wt @ nf ** 2)
    assert got == pytest.approx(want, rel=1e-9)

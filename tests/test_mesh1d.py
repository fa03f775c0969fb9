import numpy as np
import pytest

from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.mesh1d import (GreedyCapError, GreedyTimeResult, MeshError,
                             complexity_ratio, greedy_time, stamp_time_cache,
                             uniform_time_error)
from stgreedy.meshnd import IntervalMesh, MeshndError
from stgreedy.polyspace import slice_error
from stgreedy.smoothness import lq_sum

DOM = DomainSpec(T=1.0, n=1)


def test_refine_examples():
    p0 = IntervalMesh()
    p1 = p0.refine([0])
    assert np.allclose(p1.breakpoints, [0.0, 0.5, 1.0])
    assert p1.refine([]).breakpoints.tolist() == p1.breakpoints.tolist()
    p2 = p1.refine(range(p1.size))
    assert np.allclose(p2.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert all(lvl == 2 for lvl in p2.levels)
    with pytest.raises(MeshndError):
        p1.refine([5])


def test_interval_lengths_are_dyadic():
    part = IntervalMesh(T=3.0)
    rng = np.random.default_rng(0)
    for _ in range(6):
        marked = [i for i in range(part.size) if rng.random() < 0.5]
        part = part.refine(marked)
    for cell in part.cells:
        a, b = part.interval(cell)
        assert b - a == part.T * 2.0 ** (-cell[0])
    bps = part.breakpoints
    assert bps[0] == 0.0 and bps[-1] == part.T
    assert np.all(np.diff(bps) > 0)
    assert np.array_equal(part.element_coords, [part.interval(c)
                                                for c in part.cells])


def test_greedy_examples():
    fc = make_test_field("constant", [7.0], DOM)
    res = greedy_time(fc, 1, 2, 0.5)
    assert res.partition.size == 1 and res.global_error() < 1e-7

    ft = make_test_field("poly", [1, 0], DOM)
    res = greedy_time(ft, 1, 2, 0.3)          # E(root) = 1/sqrt(12) < 0.3
    assert res.partition.size == 1
    res = greedy_time(ft, 1, 2, 0.25)
    assert res.partition.size == 2
    expected = 0.5 ** 1.5 / np.sqrt(12)
    for cell in res.partition.cells:
        assert abs(res.errors[cell] - expected) < 1e-8


def test_greedy_postconditions_and_trace():
    f = make_test_field("time-power", [0.25], DOM)
    delta = 0.01
    res = greedy_time(f, 1, 2, delta)
    for cell in res.partition.cells:
        assert res.errors[cell] <= delta + 1e-10
    for entry in res.partition.trace:
        assert entry.min_marked_err > delta


def test_greedy_cap():
    f = make_test_field("time-power", [0.25], DOM)
    with pytest.raises(GreedyCapError) as exc:
        greedy_time(f, 1, 2, 1e-4, max_level=4)
    assert len(exc.value.offenders) > 0


def test_leaf_cap_ends_tiny_tolerances_before_building(monkeypatch):
    # delta = 1e-300 marks every leaf of time-power(0.25): the partition
    # doubled each round until the level cap, which took minutes
    import stgreedy.mesh1d as mesh1d
    f = make_test_field("time-power", [0.25], DOM)
    size = greedy_time(f, 1, 2, 1e-3).partition.size
    monkeypatch.setattr(mesh1d, "MAX_LEAVES", size)
    assert greedy_time(f, 1, 2, 1e-3).partition.size == size
    monkeypatch.setattr(mesh1d, "MAX_LEAVES", size - 1)
    with pytest.raises(GreedyCapError, match=f"leaf cap {size - 1}"):
        greedy_time(f, 1, 2, 1e-3)

    built, real = [], mesh1d.slice_approximants

    def counted(*args, **kwargs):
        built.extend(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(mesh1d, "slice_approximants", counted)
    monkeypatch.setattr(mesh1d, "MAX_LEAVES", 64)
    with pytest.raises(GreedyCapError, match="leaf cap 64") as exc:
        greedy_time(f, 1, 2, 1e-300)
    assert len(exc.value.offenders) == 64
    # rounds of 1, 2, ..., 64 leaves; the round past the cap built none
    assert len(built) == 127


def test_complexity_ratio():
    assert complexity_ratio(IntervalMesh()) == 0.0
    # f = t at delta = 0.25 marks the root once; refinement outside the
    # greedy records no history (bisection adds one cell per mark: see
    # test_meshnd_properties)
    part = greedy_time(make_test_field("poly", [1, 0], DOM), 1, 2,
                       0.25).partition
    assert [e.marked for e in part.trace] == [1]
    assert complexity_ratio(part) == 1.0
    assert part.refine([0]).trace == []


def test_greedy_complexity_is_one():
    f = make_test_field("time-power", [0.25], DOM)
    for delta in (0.05, 0.01, 0.002):
        res = greedy_time(f, 1, 2, delta)
        assert complexity_ratio(res.partition) == 1.0


def test_cardinality_and_error_laws():
    # threshold rule delta(eps) = eps^((s+1/p)/s) * B drives #T ~ eps^(-1/s)
    # and error <= c2 eps B with a stable constant across the sweep
    from stgreedy.smoothness import (BesovParams, SmoothnessParams,
                                     besov_seminorm_discrete)
    f = make_test_field("time-power", [0.25], DOM)
    s, q, p = 1.0, 1.0, 2.0
    B = besov_seminorm_discrete(f, (0, 1), BesovParams(s=s, q=q, kmax=12),
                                SmoothnessParams(r=2, p=q))
    cache = {}
    sizes, errs, eps_list = [], [], []
    for k in range(2, 10):
        eps = 2.0 ** -k
        delta = eps ** ((s + 1 / p) / s) * B
        res = greedy_time(f, 1, p, delta, cache=cache)
        sizes.append(res.partition.size)
        errs.append(res.global_error(p))
        eps_list.append(eps)
    slope = np.polyfit(np.log(1 / np.array(eps_list)), np.log(sizes), 1)[0]
    assert slope <= 1 / s + 0.15, slope
    c2 = np.array(errs) / (np.array(eps_list) * B)
    assert c2.max() / c2.min() < 10.0, c2


def test_uniform_baseline_oracle():
    # piecewise-constant best approximation of f = t on m equal cells has
    # error (1/12)^(1/2) m^(-1), uniformly split
    ft = make_test_field("poly", [1, 0], DOM)
    for m in (2, 8):
        err = uniform_time_error(ft, 1, 2, m)
        assert abs(err - 1 / np.sqrt(12) / m) < 1e-10


@pytest.mark.parametrize("p", [1, 2, np.inf])
@pytest.mark.parametrize("f", [
    make_test_field("time-power", [0.25], DOM),
    Field(DOM, lambda t, x: np.abs(x - 0.25 - 0.5 * t) ** 0.5,
          name="moving-1d"),
], ids=["separable", "moving"])
def test_uniform_baseline_keeps_the_bits_of_a_loop(f, p):
    # the m intervals are one slice_approximants call, each with the bits
    # of its own slice_error
    m = 5
    edges = np.linspace(0.0, 1.0, m + 1)
    for r in (1, 2):
        errs = np.array([slice_error(f, (edges[i], edges[i + 1]), r, p)
                         for i in range(m)])
        assert uniform_time_error(f, r, p, m).hex() == \
            float(lq_sum(errs, p)).hex()


def test_greedy_p1_route_uses_construct():
    # p != 2 drives the constructive approximant; sanity: error shrinks
    f = make_test_field("time-power", [0.5], DOM)
    res1 = greedy_time(f, 1, 1.0, 0.05)
    res2 = greedy_time(f, 1, 1.0, 0.02)
    assert res2.partition.size >= res1.partition.size
    assert res2.global_error(1.0) <= res1.global_error(1.0) + 1e-12


def test_cache_is_tied_to_field_and_order():
    f = make_test_field("time-power", [0.25], DOM)
    g = make_test_field("time-power", [0.25], DOM)
    cache = {}
    first = greedy_time(f, 1, 2, 0.01, cache=cache)
    assert greedy_time(f, 1, 2.0, 0.01, cache=cache).errors == first.errors
    # an equal but distinct field object, another r or p
    for args in [(g, 1, 2), (f, 2, 2), (f, 1, 1)]:
        with pytest.raises(MeshError, match="time cache"):
            greedy_time(*args, 0.01, cache=cache)


def nan_after(t_nan):
    """t + x, but NaN for t >= t_nan: the leaves there have NaN errors."""
    return Field(DOM, lambda t, x: np.where(t >= t_nan, np.nan, t + x),
                 name="nan-late")


def test_nan_leaf_error_raises_naming_the_interval():
    # "err > delta" is False for NaN, so the loop used to accept the leaf
    f, cache = nan_after(0.6), {}
    for _ in range(2):      # fresh, then read from the cache
        with pytest.raises(MeshError, match=r"NaN on \[0\.0, 1\.0\)"):
            greedy_time(f, 1, 2, 0.01, cache=cache)


def test_nan_leaf_below_the_root_is_named():
    # a cache whose root leaf holds a finite error: the root is bisected
    # and the NaN turns up in its right child
    f, cache = nan_after(0.6), {}
    stamp_time_cache(cache, f, 1, 2)
    cache[(0, 0)] = (1.0, None)
    for _ in range(2):
        with pytest.raises(MeshError, match=r"NaN on \[0\.5, 1\.0\)"):
            greedy_time(f, 1, 2, 0.01, cache=cache)


def test_infinite_leaf_error_raises_in_the_first_round(monkeypatch):
    # T = 1e300 overflows the root's best error to inf; "inf > delta"
    # marked every leaf, so the partition doubled up to 2^max_level cells
    # before the level cap stopped it.  Each round hands the intervals of
    # its new leaves to one stacked projection: count those intervals
    import stgreedy.mesh1d as mesh1d
    calls = []
    real = mesh1d.slice_approximants

    def counted(*args, **kwargs):
        calls.extend(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(mesh1d, "slice_approximants", counted)
    f = make_test_field("time-power", [0.25], DomainSpec(T=1e300, n=1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(MeshError, match=r"infinite on \[0\.0, 1e\+300\)"):
            # a small cap, so that a regression fails within seconds
            greedy_time(f, 1, 2, 1e224, max_level=12)
    assert calls == [(0.0, 1e300)]


def test_global_errors_sum_past_the_float_limit():
    part = IntervalMesh().refine([0])
    errors = {(1, 0): 0.25, (1, 1): 0.5}
    result = GreedyTimeResult(partition=part, pieces=[], errors=errors)
    plain = np.array([0.25, 0.5])
    for p in (1, 2, 3):
        assert result.global_error(p) == float(np.sum(plain ** p) ** (1 / p))
    assert result.global_error(np.inf) == 0.5
    # the squares of 1e200 overflow; the sum is rescaled by its largest term
    huge = GreedyTimeResult(partition=part, pieces=[],
                            errors={(1, 0): 1e200, (1, 1): 1e200})
    with np.errstate(over="raise"):
        assert huge.global_error(2) == pytest.approx(1e200 * np.sqrt(2.0))

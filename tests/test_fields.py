import re

import numpy as np
import pytest

from stgreedy.fields import (CORPUS_NAMES, DomainSpec, Field, FieldError,
                             Regularity, eval_field, field_from_csv,
                             make_test_field)

DOM = DomainSpec(T=1.0, n=1)
DOM2 = DomainSpec(T=1.0, n=2)


def test_constant_field():
    f = make_test_field("constant", [3.0], DOM)
    assert eval_field(f, 0.5, [0.5]) == 3.0
    assert eval_field(f, 0.0, [0.9]) == 3.0


def test_time_power_closed_forms():
    f = make_test_field("time-power", [0.25], DOM)
    assert abs(eval_field(f, 0.0625, [0.3]) - 0.5) < 1e-15
    f1 = make_test_field("time-power", [1.0], DOM)
    assert eval_field(f1, 0.5, [0.1]) == 0.5


def test_tensor_singular_value():
    f = make_test_field("tensor-singular", [0.25], DOM)
    # 0.0625^0.25 = 0.5 and sin(pi/2) = 1
    assert abs(eval_field(f, 0.0625, [0.5]) - 0.5) < 1e-14


def test_space_power_value():
    f = make_test_field("space-power", [2.0], DOM)   # x0 defaults to 0
    assert abs(eval_field(f, 0.3, [0.5]) - 0.25) < 1e-15
    f2 = make_test_field("space-power", [1.0, 0.5, 0.5], DOM2)
    assert abs(eval_field(f2, 0.1, [0.5, 1.0]) - 0.5) < 1e-14


@pytest.mark.parametrize("T", [0.0, -1.0, float("inf"), float("nan")])
def test_domain_rejects_bad_horizon(T):
    # T = inf was once accepted, and whitney then wrote its reports
    with pytest.raises(FieldError, match="finite and positive"):
        DomainSpec(T=T, n=1)


def test_errors():
    with pytest.raises(FieldError):
        make_test_field("nope", [1.0], DOM)
    with pytest.raises(FieldError):
        make_test_field("time-power", [-0.5], DOM)
    with pytest.raises(FieldError):
        make_test_field("time-power", [9.0], DOM)
    with pytest.raises(FieldError):
        make_test_field("poly", [9, 0], DOM)
    # x0 needs n coordinates; every family needs its params
    with pytest.raises(FieldError):
        make_test_field("space-power", [0.3, 0.5], DOM2)
    with pytest.raises(FieldError):
        make_test_field("space-power", [0.3, 0.5, 0.5, 0.5], DOM2)
    with pytest.raises(FieldError):
        make_test_field("constant", [], DOM)
    with pytest.raises(FieldError):
        make_test_field("poly", [2], DOM)
    make_test_field("space-power", [0.3], DOM2)
    make_test_field("space-power", [0.3, 0.5, 0.25], DOM2)
    f = make_test_field("constant", [1.0], DOM)
    with pytest.raises(FieldError):
        eval_field(f, 1.5, [0.5])
    with pytest.raises(FieldError):
        eval_field(f, 0.5, [1.5])


def test_determinism_bit_identical():
    f = make_test_field("tensor-singular", [0.3], DOM)
    a = eval_field(f, 0.123456, [0.654321])
    b = eval_field(f, 0.123456, [0.654321])
    assert a == b


def test_time_power_homogeneity():
    # f(2t, x) = 2^alpha f(t, x) for the pure power family
    alpha = 0.4
    f = make_test_field("time-power", [alpha], DOM)
    for t in (0.05, 0.2, 0.45):
        for x in (0.1, 0.9):
            assert abs(eval_field(f, 2 * t, [x]) -
                       2 ** alpha * eval_field(f, t, [x])) < 1e-14


def test_sample_matches_pointwise():
    f = make_test_field("tensor-singular", [0.5], DOM2)
    ts = np.array([0.25, 0.7])
    pts = np.array([[0.2, 0.3], [0.8, 0.9]])
    vals = f.sample(ts, pts)
    for i, t in enumerate(ts):
        for j, p in enumerate(pts):
            assert abs(vals[i, j] - eval_field(f, t, p)) < 1e-14


@pytest.mark.parametrize("name, params", [
    ("constant", [3.0]), ("poly", [2, 1]), ("time-power", [0.25]),
    ("space-power", [0.3]), ("tensor-singular", [0.25])])
@pytest.mark.parametrize("dom", [DOM, DOM2])
def test_corpus_evaluator_is_the_product_of_its_factors(name, params, dom):
    # the evaluator of a separable field is time_part * space_part, with
    # the bits of sample, which never calls it
    f = make_test_field(name, params, dom)
    ts = np.array([0.0, 0.1, 0.37, 0.999])
    pts = f.grid.points
    got = f.evaluator(ts[:, None], *[pts[None, :, k] for k in range(dom.n)])
    assert np.array_equal(got, f.sample(ts, pts))


# every corpus family at fixed (t, x), pinned as float.hex: time_part at
# TS, space_part at the points PTS[n], and the evaluator at the pairs
# (TS[i], PTS[n][i]); then regularity (s1, q1, s2, q2), singular_t0 and
# singular_x
TS = np.array([0.0, 0.3, 0.75])
PTS = {1: np.array([[0.0], [0.2], [0.9]]),
       2: np.array([[0.1, 0.7], [0.5, 0.5], [0.95, 0.05]])}
PINNED = {
    ('constant', (3.0,), 1): (
        '0x1.8000000000000p+1 0x1.8000000000000p+1 0x1.8000000000000p+1',
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x1.8000000000000p+1 0x1.8000000000000p+1 0x1.8000000000000p+1',
        None, False, None),
    ('poly', (2, 1), 1): (
        '0x0.0p+0 0x1.70a3d70a3d70ap-4 0x1.2000000000000p-1',
        '0x0.0p+0 0x1.999999999999ap-3 0x1.ccccccccccccdp-1',
        '0x0.0p+0 0x1.26e978d4fdf3bp-6 0x1.0333333333333p-1',
        None, False, None),
    ('poly', (0, 3), 1): (
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x0.0p+0 0x1.0624dd2f1a9fdp-7 0x1.753f7ced91688p-1',
        '0x0.0p+0 0x1.0624dd2f1a9fdp-7 0x1.753f7ced91688p-1',
        None, False, None),
    ('time-power', (0.25,), 1): (
        '0x0.0p+0 0x1.7aec222340adfp-1 0x1.dc783d76af359p-1',
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x0.0p+0 0x1.7aec222340adfp-1 0x1.dc783d76af359p-1',
        (1.0, 1.0, 2.0, 2.0), True, None),
    ('time-power', (2.0,), 1): (
        '0x0.0p+0 0x1.70a3d70a3d70ap-4 0x1.2000000000000p-1',
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x0.0p+0 0x1.70a3d70a3d70ap-4 0x1.2000000000000p-1',
        (1.0, 1.0, 2.0, 2.0), False, None),
    ('space-power', (0.3,), 1): (
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x0.0p+0 0x1.3bebdcc9d061bp-1 0x1.f011d8cfc7493p-1',
        '0x0.0p+0 0x1.3bebdcc9d061bp-1 0x1.f011d8cfc7493p-1',
        None, False, (0.0,)),
    ('space-power', (2.0,), 1): (
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x0.0p+0 0x1.47ae147ae147cp-5 0x1.9eb851eb851ecp-1',
        '0x0.0p+0 0x1.47ae147ae147cp-5 0x1.9eb851eb851ecp-1',
        None, False, None),
    ('space-power', (0.3, 0.5), 1): (
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x1.9fdf8bcce533dp-1 0x1.64c8e84c5f4e9p-1 0x1.84f1ddc197989p-1',
        '0x1.9fdf8bcce533dp-1 0x1.64c8e84c5f4e9p-1 0x1.84f1ddc197989p-1',
        None, False, (0.5,)),
    ('tensor-singular', (0.25,), 1): (
        '0x0.0p+0 0x1.7aec222340adfp-1 0x1.dc783d76af359p-1',
        '0x0.0p+0 0x1.2cf2304755a5ep-1 0x1.3c6ef372fe951p-2',
        '0x0.0p+0 0x1.bd7332af71c90p-2 0x1.26797652897e9p-2',
        (1.0, 1.0, 2.0, 2.0), True, None),
    ('tensor-singular', (1.0,), 1): (
        '0x0.0p+0 0x1.3333333333333p-2 0x1.8000000000000p-1',
        '0x0.0p+0 0x1.2cf2304755a5ep-1 0x1.3c6ef372fe951p-2',
        '0x0.0p+0 0x1.6922a05599fa4p-3 0x1.daa66d2c7ddfap-3',
        (1.0, 1.0, 2.0, 2.0), False, None),
    ('constant', (3.0,), 2): (
        '0x1.8000000000000p+1 0x1.8000000000000p+1 0x1.8000000000000p+1',
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x1.8000000000000p+1 0x1.8000000000000p+1 0x1.8000000000000p+1',
        None, False, None),
    ('poly', (2, 1), 2): (
        '0x0.0p+0 0x1.70a3d70a3d70ap-4 0x1.2000000000000p-1',
        '0x1.1eb851eb851ebp-4 0x1.0000000000000p-2 0x1.851eb851eb852p-5',
        '0x0.0p+0 0x1.70a3d70a3d70ap-6 0x1.b5c28f5c28f5cp-6',
        None, False, None),
    ('poly', (0, 3), 2): (
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x1.67a95c853c148p-12 0x1.0000000000000p-6 0x1.c182ecaeea63cp-14',
        '0x1.67a95c853c148p-12 0x1.0000000000000p-6 0x1.c182ecaeea63cp-14',
        None, False, None),
    ('time-power', (0.25,), 2): (
        '0x0.0p+0 0x1.7aec222340adfp-1 0x1.dc783d76af359p-1',
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x0.0p+0 0x1.7aec222340adfp-1 0x1.dc783d76af359p-1',
        (1.0, 1.0, 2.0, 2.0), True, None),
    ('time-power', (2.0,), 2): (
        '0x0.0p+0 0x1.70a3d70a3d70ap-4 0x1.2000000000000p-1',
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x0.0p+0 0x1.70a3d70a3d70ap-4 0x1.2000000000000p-1',
        (1.0, 1.0, 2.0, 2.0), False, None),
    ('space-power', (0.3,), 2): (
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x1.cd70b35cd636cp-1 0x1.cd70b35cd636cp-1 0x1.f864126bc2041p-1',
        '0x1.cd70b35cd636cp-1 0x1.cd70b35cd636cp-1 0x1.f864126bc2041p-1',
        None, False, (0.0, 0.0)),
    ('space-power', (2.0,), 2): (
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x1.fffffffffffffp-2 0x1.0000000000000p-1 0x1.cf5c28f5c28f5p-1',
        '0x1.fffffffffffffp-2 0x1.0000000000000p-1 0x1.cf5c28f5c28f5p-1',
        None, False, None),
    ('space-power', (0.3, 0.5, 0.25), 2): (
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        '0x1.b7b5b69e803b5p-1 0x1.51cb453b9536cp-1 0x1.9dfa3c7f1fd88p-1',
        '0x1.b7b5b69e803b5p-1 0x1.51cb453b9536cp-1 0x1.9dfa3c7f1fd88p-1',
        None, False, (0.5, 0.25)),
    ('tensor-singular', (0.25,), 2): (
        '0x0.0p+0 0x1.7aec222340adfp-1 0x1.dc783d76af359p-1',
        '0x1.fffffffffffffp-3 0x1.0000000000000p+0 0x1.90f1ecbbab00fp-6',
        '0x0.0p+0 0x1.7aec222340adfp-1 0x1.751f12ebb8a18p-6',
        (1.0, 1.0, 2.0, 2.0), True, None),
    ('tensor-singular', (1.0,), 2): (
        '0x0.0p+0 0x1.3333333333333p-2 0x1.8000000000000p-1',
        '0x1.fffffffffffffp-3 0x1.0000000000000p+0 0x1.90f1ecbbab00fp-6',
        '0x0.0p+0 0x1.3333333333333p-2 0x1.2cb5718cc040bp-6',
        (1.0, 1.0, 2.0, 2.0), False, None),
}


def hexes(values):
    return " ".join(float(v).hex() for v in np.ravel(values))


@pytest.mark.parametrize("key", sorted(PINNED, key=repr), ids=repr)
def test_corpus_values_and_flags_are_pinned(key):
    name, params, n = key
    time, space, value, regularity, singular_t0, singular_x = PINNED[key]
    f = make_test_field(name, params, DomainSpec(T=1.0, n=n))
    cols = [PTS[n][:, k] for k in range(n)]
    assert (f.name, f.params) == (name, tuple(map(float, params)))
    assert hexes(f.time_part(TS)) == time
    assert hexes(f.space_part(*cols)) == space
    assert hexes(f.evaluator(TS, *cols)) == value
    reg = f.regularity
    assert (reg if reg is None else (reg.s1, reg.q1, reg.s2, reg.q2)) == \
        regularity
    assert f.singular_t0 is singular_t0
    assert (f.singular_x if f.singular_x is None
            else tuple(f.singular_x.tolist())) == singular_x


def test_corpus_keeps_a_given_regularity():
    reg = Regularity(s1=0.5, q1=2.0)
    for name in CORPUS_NAMES:
        params = [2, 1] if name == "poly" else [0.5]
        assert make_test_field(name, params, DOM, reg).regularity is reg


@pytest.mark.parametrize("name, params, dom, message", [
    ("nope", [1.0], DOM, "unknown corpus id 'nope'; known: ('constant', "
     "'poly', 'time-power', 'space-power', 'tensor-singular')"),
    ("nope", [], DOM2, "unknown corpus id 'nope'; known: ('constant', "
     "'poly', 'time-power', 'space-power', 'tensor-singular')"),
    ("constant", [], DOM, "constant takes 1 params on a 1-D domain, got 0"),
    ("poly", [2], DOM, "poly takes 2 params on a 1-D domain, got 1"),
    ("time-power", [0.25, 1.0], DOM2,
     "time-power takes 1 params on a 2-D domain, got 2"),
    ("space-power", [0.3, 0.5], DOM2,
     "space-power takes 1 or 3 params on a 2-D domain, got 2"),
    ("space-power", [0.3, 0.5, 0.5], DOM,
     "space-power takes 1 or 2 params on a 1-D domain, got 3"),
    ("tensor-singular", [], DOM,
     "tensor-singular takes 1 params on a 1-D domain, got 0"),
    ("time-power", [0.0], DOM,
     "singular exponent must lie in (0, 4.0], got 0.0"),
    ("space-power", [-0.5, 0.5], DOM,
     "singular exponent must lie in (0, 4.0], got -0.5"),
    ("tensor-singular", [9.0], DOM2,
     "singular exponent must lie in (0, 4.0], got 9.0"),
    ("poly", [8, 0], DOM, "polynomial degree >= 8 not supported"),
    ("poly", [9, -1], DOM, "polynomial degree >= 8 not supported"),
    ("poly", [0, -1], DOM2, "polynomial degrees must be nonnegative"),
])
def test_corpus_error_messages_are_pinned(name, params, dom, message):
    with pytest.raises(FieldError, match=re.escape(message) + "$"):
        make_test_field(name, params, dom)


def test_field_needs_an_evaluator_without_both_factors():
    with pytest.raises(FieldError, match="evaluator"):
        Field(DOM)
    with pytest.raises(FieldError, match="evaluator"):
        Field(DOM, time_part=lambda t: t)
    f = Field(DOM, time_part=lambda t: 2.0 * t,
              space_part=lambda x: x + 1.0)
    assert f.separable and f.evaluator(0.5, 0.25) == 1.25


def test_csv_field_roundtrip(tmp_path):
    ts = np.linspace(0, 1, 21)
    xs = np.linspace(0, 1, 17)
    rows = ["t,x,value"]
    for t in ts:
        for x in xs:
            rows.append(f"{t},{x},{t + 2 * x}")
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(rows))
    f = field_from_csv(path, DOM)
    # multilinear interpolation reproduces the affine data exactly
    assert abs(eval_field(f, 0.33, [0.61]) - (0.33 + 2 * 0.61)) < 1e-12
    assert not f.separable


def test_csv_field_through_full_pipeline(tmp_path):
    # tabulated fields run the generic (non-separable) path end to end
    from stgreedy.spacetime import build_fully_discrete
    ts = np.linspace(0, 1, 33)
    xs = np.linspace(0, 1, 33)
    rows = ["t,x,value"]
    for t in ts:
        for x in xs:
            rows.append(f"{t},{x},{t * np.sin(np.pi * x)}")
    path = tmp_path / "tab.csv"
    path.write_text("\n".join(rows))
    f = field_from_csv(path, DOM)
    part, fd, rep = build_fully_discrete(f, 0.05, 2, 2)
    tri = rep["error_time_step"] + rep["error_space_step"]
    assert rep["global_error"] <= tri + 1e-10
    assert rep["global_error"] <= 0.05


def test_csv_field_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x,value\n0,0,1\n0,1,2\n1,0,3\n")
    with pytest.raises(FieldError):
        field_from_csv(path, DOM)

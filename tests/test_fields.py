import numpy as np
import pytest

from stgreedy.fields import (DomainSpec, Field, FieldError, eval_field,
                             field_from_csv, make_test_field)

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

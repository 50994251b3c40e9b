"""Model curve, shape objective, hyperparameter fit and crossover fit."""
import math

import numpy as np
import pytest

from sqcorr import (
    DataFormatError,
    DataSetPoint,
    DegenerateFitError,
    HyperParams,
    InvalidParameterError,
    NoConvergenceError,
    broadband_moments,
    combine_moments,
    crossover_fit,
    expand_hyperparams,
    fit_parameters,
    model_curve,
    objective,
    read_dataset_csv,
    wick_moments,
)
from sqcorr.estimation import (
    DEFAULT_BOUNDS,
    PENALTY,
    _objectives,
    _residuals,
    _target,
    read_crossover_csv,
)


def _as_dataset(curve: np.ndarray) -> list[DataSetPoint]:
    return [
        DataSetPoint(mean_n=row[0], g2=row[1], g2_err=0.01, g3=row[2], g3_err=0.05)
        for row in curve
    ]


def test_model_curve_prefix_property(h4):
    full = model_curve(h4)
    short = model_curve(HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=20))
    np.testing.assert_array_equal(full[:20], short)


@pytest.mark.parametrize(
    "B,mu,alpha,n_th,d",
    [
        (0.471, 0.4226, 0.127, 0.001, 50),
        (0.397, 0.32, 0.161, 0.001, 12),
        (1.5, 0.9, 1.2, 0.3, 30),
        (0.8, 0.6, 0.0, 0.2, 20),
        (0.0, 0.5, 0.7, 0.0, 5),
        (0.2, 0.0, 0.0, 0.0, 3),
    ],
)
def test_model_curve_matches_per_mode_loop(B, mu, alpha, n_th, d):
    h = HyperParams(B=B, mu=mu, alpha=alpha, n_th=n_th, d=d)
    mom = [wick_moments(m) for m in expand_hyperparams(h).modes]
    m1, m2, m3 = (np.array([getattr(m, f) for m in mom]) for f in ("m1", "m2", "m3"))
    loop = np.array([combine_moments(m1[:k], m2[:k], m3[:k]) for k in range(1, d + 1)])
    np.testing.assert_allclose(model_curve(h), loop, rtol=1e-13, atol=0)


def test_model_curve_last_row_is_broadband(h4):
    row = model_curve(h4)[-1]
    s1, g2, g3 = broadband_moments(expand_hyperparams(h4))
    assert row[0] == pytest.approx(s1, rel=1e-12)
    assert row[1] == pytest.approx(g2, rel=1e-12)
    assert row[2] == pytest.approx(g3, rel=1e-12)


def test_objective_zero_at_truth(h4):
    small = HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=12)
    data = _as_dataset(model_curve(small))
    assert objective(data, small) < 1e-22


def test_objective_grows_away_from_truth(h4):
    small = HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=12)
    data = _as_dataset(model_curve(small))
    at_truth = objective(data, small)
    off = HyperParams(h4.B * 1.2, h4.mu, h4.alpha, h4.n_th, d=12)
    assert objective(data, off) > max(at_truth * 100, 1e-8)


def test_objective_penalizes_vacuum(h4):
    data = _as_dataset(model_curve(HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=8)))
    vac = HyperParams(B=0.0, mu=0.4, alpha=0.0, n_th=0.0, d=8)
    assert objective(data, vac) == PENALTY


def test_objective_needs_three_points(h4):
    data = _as_dataset(model_curve(HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=8)))
    with pytest.raises(DegenerateFitError):
        objective(data[:2], h4)


def test_fit_recovers_from_near_start():
    truth = HyperParams(B=0.5, mu=0.4, alpha=0.15, n_th=0.01, d=6)
    data = _as_dataset(model_curve(truth))
    bounds = ((0.35, 0.65), (0.25, 0.55), (0.05, 0.25), (0.0, 0.05))
    res = fit_parameters(data, bounds=bounds, n_starts=1)
    assert res.converged
    assert res.params.B == pytest.approx(truth.B, abs=2e-3)
    assert res.params.mu == pytest.approx(truth.mu, abs=2e-3)
    assert res.params.alpha == pytest.approx(truth.alpha, abs=2e-3)
    assert res.params.n_th == pytest.approx(truth.n_th, abs=2e-3)
    assert res.objective_value < 1e-12
    assert res.params.d == 6


def test_fit_no_convergence_when_budget_exhausted():
    truth = HyperParams(B=0.5, mu=0.4, alpha=0.15, n_th=0.01, d=4)
    data = _as_dataset(model_curve(truth))
    with pytest.raises(NoConvergenceError):
        fit_parameters(data, n_starts=2, max_evaluations=10)


def _reference_objective(data, h):
    """The shape objective from np.polyfit, written apart from the module's line fits."""
    mn, mg2, mg3 = model_curve(h).T
    dn, dg2, dg3 = np.array([(p.mean_n, p.g2, p.g3) for p in data]).T
    sm, bm = np.polyfit(mg2, mg3, 1)
    sd, bd = np.polyfit(dg2, dg3, 1)
    pm, lm = np.polyfit(np.log(mn), np.log(mg2), 1)
    pd, ld = np.polyfit(np.log(dn), np.log(dg2), 1)
    line = np.mean((sm * dg2 + bm - (sd * dg2 + bd)) ** 2)
    power = np.mean((np.exp(lm) * dn**pm - np.exp(ld) * dn**pd) ** 2)
    return line + power


def test_batched_objective_matches_objective_and_polyfit(h4):
    data = _as_dataset(model_curve(HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=12)))
    rng = np.random.default_rng(8)
    lo, hi = np.array(DEFAULT_BOUNDS).T
    rows = lo + rng.random((200, 4)) * (hi - lo)
    batched = _objectives(_residuals(rows, 12, _target(data)))
    single = [objective(data, HyperParams(*row, d=12)) for row in rows]
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0)
    reference = [_reference_objective(data, HyperParams(*row, d=12)) for row in rows]
    np.testing.assert_allclose(batched, reference, rtol=1e-8, atol=0)

    penalized = [
        (0.5, 1.0, 0.1, 0.0),  # mu outside [0, 1)
        (0.5, -0.1, 0.1, 0.0),
        (-0.1, 0.4, 0.1, 0.0),  # B < 0
        (0.5, 0.4, 0.1, -0.01),  # n_th < 0
        (math.nan, 0.4, 0.1, 0.0),  # non-finite
        (0.5, 0.4, math.inf, 0.0),
        (0.0, 0.4, 0.0, 0.0),  # vacuum prefix
        (0.0, 0.4, 0.3, 0.0),  # coherent: g2 = 1 throughout, no x-spread
    ]
    assert list(_objectives(_residuals(np.array(penalized), 12, _target(data)))) == (
        [PENALTY] * len(penalized))
    assert [objective(data, HyperParams(*row, d=12)) for row in penalized] == (
        [PENALTY] * len(penalized))
    # data-side faults: a non-positive mean_n (power fit) and constant g2 (line fit)
    for bad in ([DataSetPoint(-p.mean_n, p.g2, 0.01, p.g3, 0.05) for p in data],
                [DataSetPoint(p.mean_n, 1.5, 0.01, p.g3, 0.05) for p in data]):
        assert objective(bad, HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=12)) == PENALTY
        with pytest.raises(DegenerateFitError):
            fit_parameters(bad)


def _recovers(res, truth) -> bool:
    """Criterion 08's tolerance: every parameter within 1% of the truth, or 1e-4."""
    got = (res.params.B, res.params.mu, res.params.alpha, res.params.n_th)
    want = (truth.B, truth.mu, truth.alpha, truth.n_th)
    return all(abs(g - w) <= max(0.01 * abs(w), 1e-4) for g, w in zip(got, want))


def test_fit_h4_benchmark_box_one_start(h4):
    truth = HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=12)
    bounds = ((0.2, 0.8), (0.1, 0.7), (0.0, 0.4), (0.0, 0.05))
    res = fit_parameters(_as_dataset(model_curve(truth)), bounds=bounds, n_starts=1)
    assert res.converged
    assert _recovers(res, truth)


def test_fit_h5_default_box_two_starts(h5):
    truth = HyperParams(h5.B, h5.mu, h5.alpha, h5.n_th, d=12)
    res = fit_parameters(_as_dataset(model_curve(truth)), n_starts=2)
    assert res.converged
    assert _recovers(res, truth)


def test_fit_noisy_curves_floor(h4, h5):
    """18 curves with 0.3% multiplicative noise on every entry, default box, 16 starts.

    The Nelder-Mead multistart that this fit replaced reached an objective
    below 1e-6 on 11 of them, which sets the floor. On six others both fits
    stop on the n_th = 0 face with the same objective, 5e-6 to 9e-4: there
    the noisy shapes are out of the model's reach inside the box.
    """
    cases = [(h4, 50)] * 6 + [(h5, 50)] * 6 + [(h4, 12)] * 6
    hits = 0
    for i, (h, d) in enumerate(cases):
        curve = model_curve(HyperParams(h.B, h.mu, h.alpha, h.n_th, d=d))
        rng = np.random.default_rng(100 + i)
        res = fit_parameters(_as_dataset(curve * (1.0 + 0.003 * rng.standard_normal(curve.shape))))
        hits += res.objective_value < 1e-6
    assert hits >= 11


def test_fit_needs_three_points():
    with pytest.raises(DegenerateFitError):
        fit_parameters([])


def test_fit_rejects_bad_bounds(h4):
    data = _as_dataset(model_curve(HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=6)))
    with pytest.raises(InvalidParameterError):
        fit_parameters(data, bounds=((0.0, 1.0), (0.5, 0.1), (0.0, 1.0), (0.0, 0.5)))
    with pytest.raises(InvalidParameterError):
        fit_parameters(data, n_starts=0)


def _broken_power(x, a, p_low, p_high, xb):
    y = np.where(x <= xb, a * x**p_low, a * xb ** (p_low - p_high) * x**p_high)
    return y


def test_crossover_noiseless_recovery():
    x = np.geomspace(0.05, 20.0, 40)
    y = _broken_power(x, 2.0, 2.03, 5.4, 0.7)
    res = crossover_fit(x, y)
    assert not res.degenerate
    assert res.p_low == pytest.approx(2.03, rel=1e-6)
    assert res.p_high == pytest.approx(5.4, rel=1e-6)
    assert res.break_intensity == pytest.approx(0.7, rel=0.02)


def test_crossover_break_just_above_second_point():
    """A break 0.2% above x[1] is an exact optimum inside the searched range.

    A grid scan with a local refine missed it here, returning p_low 1.660
    and a break below x[1].
    """
    x = np.geomspace(0.05, 20.0, 48)
    xb = 1.002 * x[1]
    res = crossover_fit(x, _broken_power(x, 2.0, 2.0, 5.3, xb))
    assert not res.degenerate
    assert res.p_low == pytest.approx(2.0, abs=1e-6)
    assert res.p_high == pytest.approx(5.3, abs=1e-6)
    assert res.break_intensity == pytest.approx(xb, rel=1e-6)


def test_crossover_scale_equivariance():
    x = np.geomspace(0.05, 20.0, 40)
    y = _broken_power(x, 2.0, 2.0, 5.0, 0.7)
    a = crossover_fit(x, y)
    b = crossover_fit(10.0 * x, y)
    assert b.p_low == pytest.approx(a.p_low, rel=1e-7)
    assert b.p_high == pytest.approx(a.p_high, rel=1e-7)
    assert b.break_intensity == pytest.approx(10.0 * a.break_intensity, rel=1e-6)


def test_crossover_noisy_recovery():
    rng = np.random.default_rng(12)
    x = np.geomspace(0.05, 20.0, 60)
    y = _broken_power(x, 2.0, 2.0, 5.0, 0.7) * np.exp(rng.normal(0, 0.02, x.size))
    res = crossover_fit(x, y)
    assert res.p_low == pytest.approx(2.0, rel=0.05)
    assert res.p_high == pytest.approx(5.0, rel=0.05)
    assert res.break_intensity == pytest.approx(0.7, rel=0.25)


def test_crossover_pure_power_degenerate():
    x = np.geomspace(0.1, 10.0, 25)
    res = crossover_fit(x, 3.0 * x**3.0)
    assert res.degenerate
    assert abs(res.p_high - res.p_low) <= 1e-6
    assert res.p_low == pytest.approx(3.0, rel=1e-9)
    assert math.isnan(res.break_intensity)


def test_crossover_input_validation():
    with pytest.raises(DegenerateFitError):
        crossover_fit([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])
    with pytest.raises(InvalidParameterError):
        crossover_fit([1.0, 2.0, 0.0, 3.0], [1.0, 4.0, 9.0, 16.0])
    with pytest.raises(InvalidParameterError):
        crossover_fit([1.0, 2.0], [[1.0], [2.0]])


def test_dataset_csv_round_trip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "mean_n,g2,g2_err,g3,g3_err\n"
        "0.5,1.8,0.02,4.1,0.30\n"
        "1.1,1.5,0.01,2.7,0.15\n"
    )
    pts = read_dataset_csv(path)
    assert len(pts) == 2
    assert pts[0].mean_n == 0.5
    assert pts[1].g3_err == 0.15
    assert pts[0].intensity is None


def test_dataset_csv_with_intensity(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "mean_n,g2,g2_err,g3,g3_err,intensity\n0.5,1.8,0.02,4.1,0.30,12.5\n"
    )
    assert read_dataset_csv(path)[0].intensity == 12.5


@pytest.mark.parametrize(
    "body",
    [
        "",
        "wrong,header\n1,2\n",
        "mean_n,g2,g2_err,g3,g3_err\n0.5,1.8,0.02\n",
        "mean_n,g2,g2_err,g3,g3_err\n0.5,oops,0.02,4.1,0.3\n",
    ],
)
def test_dataset_csv_rejects_malformed(tmp_path, body):
    path = tmp_path / "d.csv"
    path.write_text(body)
    with pytest.raises(DataFormatError):
        read_dataset_csv(path)


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_crossover_rejects_non_finite(column, value):
    cols = [np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([1.0, 4.0, 9.0, 16.0, 25.0])]
    cols[column][2] = value
    with pytest.raises(InvalidParameterError, match="finite"):
        crossover_fit(*cols)


def test_crossover_csv(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("intensity,yield\n0.5,1.0\n1.0,8.0\n")
    x, y = read_crossover_csv(path)
    np.testing.assert_array_equal(x, [0.5, 1.0])
    np.testing.assert_array_equal(y, [1.0, 8.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(DataFormatError):
        read_crossover_csv(bad)


@pytest.mark.parametrize("body", [
    b"intensity,yield\n0.5,1.0\n1.0,8.0,99\n",
    b"intensity,yield\n0.5\n",
    b"intensity,yield\n0.5,\xff\n",
])
def test_crossover_csv_rejects_malformed(tmp_path, body):
    path = tmp_path / "c.csv"
    path.write_bytes(body)
    with pytest.raises(DataFormatError, match=f"{path}:[23]: "):
        read_crossover_csv(path)


def test_csv_readers_skip_blank_rows(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("intensity,yield\n\n0.5,1.0\n\n1.0,8.0\n")
    x, y = read_crossover_csv(path)
    np.testing.assert_array_equal(x, [0.5, 1.0])
    np.testing.assert_array_equal(y, [1.0, 8.0])
    path.write_text("intensity,yield\n")
    assert [a.size for a in read_crossover_csv(path)] == [0, 0]
    path.write_text("mean_n,g2,g2_err,g3,g3_err\n\n0.5,1.8,0.02,4.1,0.3\n\n")
    assert read_dataset_csv(path) == [DataSetPoint(0.5, 1.8, 0.02, 4.1, 0.3)]

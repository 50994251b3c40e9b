"""Tests of the benchmark's reference computations and input generator.

    python3 -m pytest perfbench/test_reference.py

Known limits are checked exactly; the agreement with sqcorr's number-basis
oracle and model curve shows that the two sides share their conventions.
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dense_tags  # noqa: E402
import reference  # noqa: E402
from sqcorr import (HyperParams, ModeParams, click_expectations,  # noqa: E402
                    expand_hyperparams, model_curve, oracle_moments, state_photon_pmf)
from sqcorr.estimation import DataSetPoint, objective  # noqa: E402
from sqcorr.tags import load_tags  # noqa: E402

H4 = (0.471, 0.4226, 0.127, 0.001)
H5 = (0.397, 0.32, 0.161, 0.001)


@pytest.mark.parametrize("n_bar", [0.0, 0.05, 0.3, 2.0])
@pytest.mark.parametrize("q", [0.01, 0.3, 1.0])
def test_thermal_vacuum_probability(n_bar, q):
    v, d = reference.mode_covariance(0.0, 0.0, 0.0, n_bar)
    assert reference.vacuum_probability(v, d, q) == pytest.approx(1.0 / (1.0 + n_bar * q), rel=1e-14)


@pytest.mark.parametrize("alpha", [0.3, 1.2j, 0.8 * np.exp(0.7j)])
@pytest.mark.parametrize("q", [0.045, 0.5, 1.0])
def test_coherent_vacuum_probability(alpha, q):
    v, d = reference.mode_covariance(0.0, 0.0, alpha, 0.0)
    assert reference.vacuum_probability(v, d, q) == pytest.approx(math.exp(-abs(alpha) ** 2 * q), rel=1e-14)


def test_squeezed_vacuum_probability():
    v, d = reference.mode_covariance(0.7, 0.4, 0.0, 0.0)
    assert reference.vacuum_probability(v, d, 1.0) == pytest.approx(1.0 / math.cosh(0.7), rel=1e-14)


def _grid():
    for r in (0.0, 0.3, 0.9, 1.5):
        for theta in (0.0, 1.1) if r else (0.0,):
            for amag in (0.0, 0.5, 1.2):
                for aarg in (0.0, 0.7) if amag else (0.0,):
                    for n_th in (0.0, 0.1, 0.5):
                        yield r, theta, amag * np.exp(1j * aarg), n_th


def test_closed_form_moments_match_oracle():
    worst = 0.0
    for r, theta, alpha, n_th in _grid():
        o = oracle_moments(ModeParams(r=r, theta=theta, alpha=alpha, n_th=n_th), ceiling=4096)
        ours = reference.mode_moments(r, theta, alpha, n_th)
        for a, b in zip(ours, (o.m1, o.m2, o.m3)):
            if b != 0.0:
                worst = max(worst, abs(a - b) / abs(b))
    assert worst <= 1e-9


@pytest.mark.parametrize("truth", [H4, H5], ids=["h4", "h5"])
def test_cumulative_curve_matches_model_curve(truth):
    ours = reference.cumulative_curve(reference.hyper_modes(*truth, 12))
    theirs = model_curve(HyperParams(*truth, d=12))
    np.testing.assert_allclose(ours, theirs, rtol=1e-12)


def test_shape_objective_matches_program_objective():
    data = reference.cumulative_curve(reference.hyper_modes(*H4, 12))
    points = [DataSetPoint(n, g2, 0.01, g3, 0.05) for n, g2, g3 in data.tolist()]
    trial = (0.45, 0.4, 0.1, 0.01)
    model = reference.cumulative_curve(reference.hyper_modes(*trial, 12))
    assert reference.shape_objective(model, data) == pytest.approx(
        objective(points, HyperParams(*trial, d=12)), rel=1e-9)
    assert reference.shape_objective(data, data) == 0.0


def test_click_statistics_match_pmf_click_expectations():
    q = 0.045 / 3.0
    ours = reference.click_statistics(reference.hyper_modes(*H4, 50), q)
    theirs = click_expectations(state_photon_pmf(expand_hyperparams(HyperParams(*H4, d=50))), [q, q, q])
    assert ours["single"] == pytest.approx(theirs["singles"][0], rel=1e-9)
    assert ours["g2"] == pytest.approx(theirs["g2_click"], rel=1e-9)
    assert ours["g3"] == pytest.approx(theirs["g3_click"], rel=1e-9)


def test_geometric_beams_against_direct_sums():
    n_bar, q = 0.3, 0.3
    n = np.arange(400)
    pmf = n_bar ** n / (1.0 + n_bar) ** (n + 1)

    def dark(factor):
        return float(np.dot(pmf, factor ** n))

    single = 1.0 - dark(1.0 - q)
    cross = 1.0 - 2.0 * dark(1.0 - q) + dark((1.0 - q) ** 2)
    triple = 1.0 - 3.0 * dark(1.0 - q) + 3.0 * dark(1.0 - 2.0 * q) - dark(1.0 - 3.0 * q)
    ref = reference.geometric_beams(n_bar, q)
    assert ref["single"] == pytest.approx(single, rel=1e-12)
    assert ref["g2_cross"] == pytest.approx(cross / single ** 2, rel=1e-12)
    assert ref["g3_auto"] == pytest.approx(triple / single ** 3, rel=1e-12)
    assert ref["g3_auto"] == pytest.approx(4.757, abs=5e-4)
    assert ref["R"] == pytest.approx(6.634, abs=5e-4)


def test_window_totals_against_brute_force():
    rng = np.random.default_rng(5)
    t0, t1, t2 = (np.sort(rng.integers(0, 200_000, size)) for size in (300, 250, 280))
    lo, hi = reference.window_edges(100, 2_550.0)
    d1 = t1[None, :] - t0[:, None]
    d2 = t2[None, :] - t0[:, None]
    in1 = (d1 >= lo) & (d1 < hi)
    in2 = (d2 >= lo) & (d2 < hi)
    assert reference.pair_total(t0, t1, lo, hi) == int(in1.sum())
    assert reference.triple_total(t0, t1, t2, lo, hi) == int((in1.sum(1) * in2.sum(1)).sum())
    assert (lo, hi) == (-2550, 2550)


def test_dense_tags_read_back_by_sqcorr(tmp_path):
    channels = dense_tags.generate(3, 50_000, n_bar=0.3, eta=0.9, beams=3, arms=3,
                                   period_ps=1e12 / 1.866e7, jitter_ps=100.0)
    path = tmp_path / "dense.bin"
    assert dense_tags.write_hhgt(path, channels) == sum(c.size for c in channels)
    read = load_tags(path)
    assert read.channel_count == 9
    for a, b in zip(read.by_channel, channels):
        np.testing.assert_array_equal(a, b)
    n_channels, counts = dense_tags.read_hhgt_counts(path)
    assert n_channels == 9 and counts.tolist() == [c.size for c in channels]
    again = dense_tags.generate(3, 50_000, n_bar=0.3, eta=0.9, beams=3, arms=3,
                                period_ps=1e12 / 1.866e7, jitter_ps=100.0)
    assert all(np.array_equal(a, b) for a, b in zip(again, channels))

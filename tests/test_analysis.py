"""Correlation extraction on synthetic histograms with known truth."""
import math

import numpy as np
import pytest

from sqcorr import (
    AnalysisConfig,
    CorrelationEstimate,
    InsufficientSatellitesError,
    InvalidParameterError,
    LASER_PERIOD_PS,
    PoorNormalizationError,
    csi_r,
    extract_g2,
    extract_g3,
)
from sqcorr.histograms import Histogram1D, Histogram2D

PERIOD = LASER_PERIOD_PS


def _comb_histogram(
    central_amp: float,
    sat_amp=1000.0,
    periods: float = 12.5,
    bin_ps: int = 100,
    sigma_ps: float = 141.0,
):
    """Noise-free Gaussian comb: peaks at integer multiples of the period."""
    nbins = 2 * int(periods * PERIOD / bin_ps) + 1
    half = nbins // 2
    centers = (np.arange(nbins) - half) * float(bin_ps)
    m_max = int((half * bin_ps + bin_ps / 2) // PERIOD) + 1
    counts = np.zeros(nbins)
    for k in range(-m_max, m_max + 1):
        amp = central_amp if k == 0 else (sat_amp[abs(k) - 1] if np.ndim(sat_amp) else sat_amp)
        counts += amp * np.exp(-0.5 * ((centers - k * PERIOD) / sigma_ps) ** 2)
    return Histogram1D(bin_ps, np.round(counts).astype(np.int64), 1.0)


def _spike_grid(central: float, sat: float, periods: float = 2.5, bin_ps: int = 2061):
    """2D spikes at (i, j) multiples of the period; zero elsewhere."""
    nbins = 2 * int(periods * PERIOD / bin_ps) + 1
    half = nbins // 2
    counts = np.zeros((nbins, nbins), dtype=np.int64)
    m = int(((half + 0.5) * bin_ps - PERIOD / 2) // PERIOD)
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            ki = half + int(round(i * PERIOD / bin_ps))
            kj = half + int(round(j * PERIOD / bin_ps))
            counts[ki, kj] = central if i == j == 0 else sat
    return Histogram2D(bin_ps, counts, 1.0), m


def test_extract_g2_on_clean_comb():
    est = extract_g2(_comb_histogram(2000.0))
    assert est.value == pytest.approx(2.0, rel=1e-3)
    assert est.n_satellites_used == 24
    assert est.satellite_cv < 1e-3
    assert est.std_error > 0.0


@pytest.mark.parametrize("g2", [0.5, 1.0, 3.7])
def test_extract_g2_recovers_ratio(g2):
    est = extract_g2(_comb_histogram(1000.0 * g2))
    assert est.value == pytest.approx(g2, rel=2e-3)


def test_extract_g2_poor_normalization():
    amps = np.where(np.arange(13) % 2 == 0, 100.0, 1900.0)
    with pytest.raises(PoorNormalizationError):
        extract_g2(_comb_histogram(2000.0, sat_amp=amps))


def test_extract_g2_needs_ten_satellites():
    with pytest.raises(InsufficientSatellitesError):
        extract_g2(_comb_histogram(2000.0, periods=3.5))


def test_extract_g2_honours_min_satellites():
    h = _comb_histogram(2000.0, periods=4.5)
    with pytest.raises(InsufficientSatellitesError, match="need >= 10"):
        extract_g2(h)
    est = extract_g2(h, config=AnalysisConfig(min_satellites=4))
    assert est.n_satellites_used == 8
    assert est.value == pytest.approx(2.0, rel=1e-3)


def _sparse_comb(placed, periods: float = 12.5, bin_ps: int = 100):
    """Histogram with counts[bin nearest to delay] += n for each (delay_ps, n)."""
    nbins = 2 * int(periods * PERIOD / bin_ps) + 1
    counts = np.zeros(nbins, dtype=np.int64)
    for delay, n in placed:
        counts[nbins // 2 + int(round(delay / bin_ps))] += n
    return Histogram1D(bin_ps, counts, 1.0)


def test_extract_g2_window_sums_exact():
    sats = {k: 900 + 10 * k for k in range(-12, 13) if k}
    placed = [(0.0, 1500), (-0.2 * PERIOD, 300)]  # both inside the central window
    for k, n in sats.items():
        placed += [(k * PERIOD - 2000, n - 100), (k * PERIOD + 0.24 * PERIOD, 100)]
    # between the windows, and the 13th peaks past the last whole window: never counted
    placed += [((k + 0.5) * PERIOD, 99999) for k in range(-12, 12)]
    placed += [(-12.4 * PERIOD, 77777), (12.4 * PERIOD, 77777)]
    est = extract_g2(_sparse_comb(placed))
    s = np.array(list(sats.values()), dtype=float)
    assert est.n_satellites_used == 24
    assert est.value == 1800 / s.mean()
    assert est.satellite_cv == pytest.approx(s.std(ddof=1) / s.mean(), rel=1e-12)


def test_extract_g2_error_formula():
    rng = np.random.default_rng(5)
    sats = rng.integers(800, 1200, 24)
    ks = [k for k in range(-12, 13) if k]
    placed = [(0.0, 2600)] + [(k * PERIOD, int(n)) for k, n in zip(ks, sats)]
    est = extract_g2(_sparse_comb(placed))
    v = 2600 / sats.mean()
    want = v * math.sqrt(1 / 2600 + sats.var(ddof=1) / (sats.size * sats.mean() ** 2))
    assert est.value == pytest.approx(v, rel=1e-12)
    assert est.std_error == pytest.approx(want, rel=1e-12)


def test_extract_g2_empty_satellites_rejected():
    with pytest.raises(InsufficientSatellitesError, match="no coincidences"):
        extract_g2(_sparse_comb([(0.0, 50)]))


def test_extract_g2_flat_central_window_is_summed():
    h = _comb_histogram(2000.0)
    counts = h.counts.copy()
    sel = np.abs(h.bin_centers()) <= 0.25 * PERIOD
    counts[sel] = 5  # no peak shape left: the window still sums what it holds
    est = extract_g2(Histogram1D(h.bin_width_ps, counts, 1.0))
    sat_sum = h.counts[np.abs(h.bin_centers() - PERIOD) <= 0.25 * PERIOD].sum()
    assert est.value == pytest.approx(5 * sel.sum() / sat_sum, rel=1e-3)


def test_extract_g3_on_spike_grid():
    h, m = _spike_grid(1500, 500)
    assert m == 2
    est = extract_g3(h)
    assert est.value == pytest.approx(3.0, rel=1e-9)
    # 5x5 cells minus central, diagonal and zero row/column
    assert est.n_satellites_used == 12


def test_extract_g3_uses_cell_sums():
    h, m = _spike_grid(1500, 500)
    counts = h.counts.copy()
    half = h.nbins // 2
    step = int(round(PERIOD / h.bin_width_ps))
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            if i and j and i != j:  # split each retained satellite over two bins
                counts[half + i * step, half + j * step] = 400
                counts[half + i * step + 1, half + j * step] = 100
    counts[half + 1, half] = 300  # a second central bin
    est = extract_g3(Histogram2D(h.bin_width_ps, counts, 1.0))
    assert est.value == pytest.approx(1800 / 500, rel=1e-12)
    assert est.satellite_cv == 0.0
    assert est.std_error == pytest.approx(est.value / math.sqrt(1800), rel=1e-12)

    # a bin width that splits the period into 20 bins puts bin centers on the
    # cell edges; each edge bin belongs to one cell, so a cell sums 20 x 20 bins
    period, bin_ps = 50_000.0, 2_500
    nbins = 2 * int(2.5 * period / bin_ps) + 1
    half = nbins // 2
    step = int(period / bin_ps)
    counts = np.ones((nbins, nbins), dtype=np.int64)  # one accidental per bin
    for i in range(-2, 3):
        for j in range(-2, 3):
            counts[half + i * step, half + j * step] += 1500 if i == j == 0 else 500
    # extra coincidences on the edge between satellite cells (1, -2) and (2, -2)
    counts[half + step + step // 2, half - 2 * step] += 50
    est = extract_g3(Histogram2D(bin_ps, counts, 1.0), period_ps=period)
    assert est.n_satellites_used == 12
    sats = np.full(12, 900.0)
    sats[0] += 50
    assert est.value == pytest.approx(1900 / sats.mean(), rel=1e-12)
    assert est.satellite_cv == pytest.approx(sats.std(ddof=1) / sats.mean(), rel=1e-12)


def test_extract_g3_exclusions_are_inert():
    h, m = _spike_grid(1500, 500)
    base = extract_g3(h)
    counts = h.counts.copy()
    half = h.nbins // 2
    step = int(round(PERIOD / h.bin_width_ps))
    for i in range(-m, m + 1):
        if i == 0:
            continue
        counts[half + i * step, half + i * step] = 99999  # diagonal
        counts[half, half + i * step] = 77777  # zero row
        counts[half + i * step, half] = 77777  # zero column
    est = extract_g3(Histogram2D(h.bin_width_ps, counts, 1.0))
    assert est.value == base.value
    assert est.n_satellites_used == base.n_satellites_used


def test_extract_g3_prominence_drops_flat_cell():
    h, m = _spike_grid(1500, 500)
    counts = h.counts.copy()
    half = h.nbins // 2
    step = int(round(PERIOD / h.bin_width_ps))
    # overwrite one retained satellite cell with a flat background
    sel = np.abs(h.bin_centers() - 2 * PERIOD) <= PERIOD / 2
    block = np.ix_(sel, np.abs(h.bin_centers() + PERIOD) <= PERIOD / 2)
    counts[block] = 30
    est = extract_g3(Histogram2D(h.bin_width_ps, counts, 1.0))
    assert est.n_satellites_used == 11


def test_extract_g3_needs_ten_satellites():
    h, _ = _spike_grid(1500, 500, periods=1.5)
    with pytest.raises(InsufficientSatellitesError):
        extract_g3(h)


def _est(value: float, std: float = 0.0) -> CorrelationEstimate:
    return CorrelationEstimate(value, std, 10, 0.1)


@pytest.mark.parametrize(
    "gii,gjj,gij,want",
    [(1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 3.0, 2.25), (2.0, 2.0, 1.0, 0.25)],
)
def test_csi_r_values(gii, gjj, gij, want):
    res = csi_r(_est(gii), _est(gjj), _est(gij))
    assert res.R == pytest.approx(want, rel=1e-12)
    assert res.std_error == 0.0


def test_csi_r_error_propagation():
    res = csi_r(_est(2.0, 0.1), _est(2.0, 0.1), _est(3.0, 0.1))
    rel = math.sqrt((2 * 0.1 / 3) ** 2 + 2 * (0.1 / 2) ** 2)
    assert res.std_error == pytest.approx(res.R * rel, rel=1e-12)


def test_csi_r_rejects_nonpositive_auto():
    with pytest.raises(InvalidParameterError):
        csi_r(_est(0.0), _est(1.0), _est(1.0))

"""Extraction of g2(0), g3(0) and the CSI R parameter from coincidence histograms.

Normalization follows the pulsed-source convention: satellite peaks at nonzero
multiples of the laser period come from uncorrelated pulses and define the
g = 1 reference. Each peak is measured by its window sum, the coincidences
counted in a fixed window around it, so the zero-delay estimate is the
central window sum over the mean satellite window sum. Its standard error
combines Poisson noise on the central sum with the standard error of the
satellite mean, v * sqrt(1/C0 + var(sats)/(n mean(sats)^2)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .constants import LASER_PERIOD_PS
from .exceptions import (
    InsufficientSatellitesError,
    InvalidParameterError,
    PoorNormalizationError,
)
from .histograms import Histogram1D, Histogram2D


@dataclass
class AnalysisConfig:
    """Extraction thresholds.

    fit_window_frac sets the half-width of each 1D peak window in units of the
    period. cv_max bounds the satellite coefficient of variation before the
    normalization is declared unusable; min_satellites is the fewest satellites
    a normalization may rest on. prominence_sigma is the 2D peak threshold in
    units of the Poisson noise of the cell background.
    """

    min_satellites: int = 10
    cv_max: float = 0.5
    fit_window_frac: float = 0.25
    prominence_sigma: float = 5.0


@dataclass
class CorrelationEstimate:
    """A g(n)(0) value with error and normalization quality metrics."""

    value: float
    std_error: float
    n_satellites_used: int
    satellite_cv: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CsiResult:
    """Cauchy-Schwarz ratio R = g_ij^2 / (g_ii g_jj) with propagated error."""

    R: float
    std_error: float
    g2_ii: CorrelationEstimate
    g2_jj: CorrelationEstimate
    g2_ij: CorrelationEstimate

    def as_dict(self) -> dict:
        return {
            "R": self.R,
            "std_error": self.std_error,
            "g2_ii": self.g2_ii.as_dict(),
            "g2_jj": self.g2_jj.as_dict(),
            "g2_ij": self.g2_ij.as_dict(),
        }


def _window_ranges(centers: np.ndarray, peaks: np.ndarray, half_width: float,
                   upper: str = "right"):
    """Index ranges [lo, hi) of the sorted bin centers in [peak - half_width, peak + half_width].

    upper="left" leaves the upper edge open, so windows that touch share no bin.
    """
    lo = np.searchsorted(centers, peaks - half_width, side="left")
    hi = np.searchsorted(centers, peaks + half_width, side=upper)
    return lo, hi


def _normalized(central: float, sats: np.ndarray, cfg: AnalysisConfig,
                what: str) -> CorrelationEstimate:
    """Central sum over the mean satellite sum, after the satellite-count and CV gates."""
    if sats.size < cfg.min_satellites:
        raise InsufficientSatellitesError(
            f"only {sats.size} {what} satellites usable, need >= {cfg.min_satellites}"
        )
    norm = float(sats.mean())
    if norm <= 0.0:
        raise InsufficientSatellitesError(f"the {what} satellites hold no coincidences")
    cv = float(sats.std(ddof=1) / norm)
    if cv > cfg.cv_max:
        raise PoorNormalizationError(
            f"satellite CV {cv:.3f} exceeds limit {cfg.cv_max}"
        )
    value = central / norm
    std = value * math.sqrt(1.0 / max(central, 1.0) + cv * cv / sats.size)
    return CorrelationEstimate(
        value=value,
        std_error=std,
        n_satellites_used=int(sats.size),
        satellite_cv=cv,
    )


def extract_g2(
    h: Histogram1D,
    period_ps: float = LASER_PERIOD_PS,
    config: AnalysisConfig | None = None,
) -> CorrelationEstimate:
    """Satellite-normalized zero-delay g2 from a 1D coincidence histogram.

    Every peak k*period with |k| <= m, the most whose +-fit_window_frac*period
    window lies inside the histogram, is measured by its window sum; the
    central sum over the mean of the 2m satellite sums is g2(0).
    """
    cfg = config or AnalysisConfig()
    half_win = cfg.fit_window_frac * period_ps
    m_max = int((h.range_ps - half_win) // period_ps)
    # two satellites at the least: the CV needs a spread
    need = max(cfg.min_satellites, 2)
    if 2 * m_max < need:
        raise InsufficientSatellitesError(
            f"window holds only {max(2 * m_max, 0)} satellite peaks, need >= {need}"
        )
    ks = np.arange(-m_max, m_max + 1)
    lo, hi = _window_ranges(h.bin_centers(), ks * period_ps, half_win)
    cum = np.concatenate(([0], np.cumsum(h.counts)))
    sums = (cum[hi] - cum[lo]).astype(float)
    return _normalized(sums[m_max], np.delete(sums, m_max), cfg, "g2")


def extract_g3(
    h: Histogram2D,
    period_ps: float = LASER_PERIOD_PS,
    config: AnalysisConfig | None = None,
) -> CorrelationEstimate:
    """Zero-delay g3 from a 2D triple-coincidence histogram.

    The grid is cut into one-period cells centered on (i, j) multiples of the
    period, each half-open, [k*period - period/2, k*period + period/2) per
    axis, and each cell is measured by its sum. A satellite cell is kept when
    its maximum stands prominence_sigma Poisson deviations above the cell
    median. The diagonal and the first-period row/column are excluded from
    normalization (same-pulse contamination); the central value is the central
    cell sum over the mean retained satellite cell sum.
    """
    cfg = config or AnalysisConfig()
    half = h.nbins // 2
    reach = (half * h.bin_width_ps + h.bin_width_ps / 2.0) - period_ps / 2.0
    m_max = int(reach // period_ps)
    if m_max < 1:
        raise InsufficientSatellitesError("2D window smaller than one period")
    ks = np.arange(-m_max, m_max + 1)
    # half-open cells: a bin centered on a cell edge belongs to one cell only
    lo, hi = _window_ranges(h.bin_centers(), ks * period_ps, period_ps / 2.0, upper="left")
    span = {int(k): slice(a, b) for k, a, b in zip(ks, lo, hi)}

    sat = []
    for i in span:
        for j in span:
            if i == j or i == 0 or j == 0:
                continue
            cell = h.counts[span[i], span[j]]
            background = float(np.median(cell))
            prominence = float(cell.max()) - background
            if prominence >= cfg.prominence_sigma * math.sqrt(max(background, 1.0)):
                sat.append(float(cell.sum()))
    central = float(h.counts[span[0], span[0]].sum())
    return _normalized(central, np.asarray(sat), cfg, "g3")


def csi_r(
    g2_ii: CorrelationEstimate,
    g2_jj: CorrelationEstimate,
    g2_ij: CorrelationEstimate,
) -> CsiResult:
    """R = g_ij^2/(g_ii g_jj) with first-order error propagation."""
    gii, gjj, gij = g2_ii.value, g2_jj.value, g2_ij.value
    if gii <= 0.0 or gjj <= 0.0:
        raise InvalidParameterError("auto-correlations must be positive")
    r = gij * gij / (gii * gjj)
    rel = math.sqrt(
        (2.0 * g2_ij.std_error / gij) ** 2
        + (g2_ii.std_error / gii) ** 2
        + (g2_jj.std_error / gjj) ** 2
    )
    return CsiResult(R=r, std_error=r * rel, g2_ii=g2_ii, g2_jj=g2_jj, g2_ij=g2_ij)

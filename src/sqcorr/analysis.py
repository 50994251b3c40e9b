"""Extraction of g2(0), g3(0) and the CSI R parameter from coincidence histograms.

Normalization follows the pulsed-source convention: satellite peaks at nonzero
multiples of the laser period come from uncorrelated pulses and define the
g = 1 reference, so the zero-delay estimate is the central-peak height divided
by the mean satellite height. Satellite scatter (CV) enters the reported
standard error together with Poisson noise on the central counts.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, asdict

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

    r2_min gates the Gaussian satellite fits; satellites failing it are
    dropped. cv_max bounds the satellite coefficient of variation before the
    normalization is declared unusable. fit_window_frac sets the fit window
    around each peak in units of the period. prominence_sigma is the 2D
    peak-finding threshold in units of the Poisson noise of the local
    background. The first-period row/column and the diagonal of the 2D grid
    carry same-pulse contamination and are excluded by default.
    """

    r2_min: float = 0.90
    min_satellites: int = 10
    cv_max: float = 0.5
    fit_window_frac: float = 0.25
    prominence_sigma: float = 5.0
    exclude_diagonal: bool = True
    exclude_first_row_col: bool = True


@dataclass
class CorrelationEstimate:
    """A g(n)(0) value with error and normalization quality metrics."""

    value: float
    std_error: float
    n_satellites_used: int
    satellite_cv: float
    fit_r2: float
    method: str  # "gaussian-fit" | "peak-max"

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


def _gauss(x, a, mu, sig):
    return a * np.exp(-0.5 * ((x - mu) / sig) ** 2)


def _fit_gaussian(x: np.ndarray, y: np.ndarray, sigma0: float):
    """Unweighted Gaussian LSQ fit; returns (amplitude, r2) or None on failure."""
    ymax = float(y.max())
    if ymax <= 0.0:
        return None
    from scipy.optimize import curve_fit  # deferred: scipy is slow to import

    p0 = (ymax, float(x[int(np.argmax(y))]), sigma0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            popt, _ = curve_fit(_gauss, x, y, p0=p0, maxfev=5000)
    except (RuntimeError, ValueError):
        return None
    resid = y - _gauss(x, *popt)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0.0:
        return None
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return abs(float(popt[0])), r2


def extract_g2(
    h: Histogram1D,
    period_ps: float = LASER_PERIOD_PS,
    config: AnalysisConfig | None = None,
) -> CorrelationEstimate:
    """Satellite-normalized zero-delay g2 from a 1D coincidence histogram.

    Gaussian fits on a +-fit_window_frac*period window around every peak;
    satellites with fit R^2 >= r2_min define the normalization. The central
    value is the fitted maximum, falling back to the raw peak maximum (method
    tag "peak-max") when the central fit fails the gate.
    """
    cfg = config or AnalysisConfig()
    centers = h.bin_centers().astype(float)
    counts = h.counts.astype(float)
    half_win = cfg.fit_window_frac * period_ps
    m_max = int((h.range_ps - half_win) // period_ps)
    if 2 * m_max < 10:
        raise InsufficientSatellitesError(
            f"window holds only {2 * m_max} satellite peaks, need >= 10"
        )
    sigma0 = 2.0 * h.bin_width_ps

    amps = []
    for k in range(-m_max, m_max + 1):
        if k == 0:
            continue
        sel = np.abs(centers - k * period_ps) <= half_win
        fit = _fit_gaussian(centers[sel], counts[sel], sigma0)
        if fit is not None and fit[1] >= cfg.r2_min:
            amps.append(fit[0])
    if len(amps) < cfg.min_satellites:
        raise InsufficientSatellitesError(
            f"only {len(amps)} satellites passed the R^2 gate, "
            f"need >= {cfg.min_satellites}"
        )
    amps = np.asarray(amps)
    norm = float(amps.mean())
    cv = float(amps.std(ddof=1) / norm)
    if cv > cfg.cv_max:
        raise PoorNormalizationError(
            f"satellite CV {cv:.3f} exceeds limit {cfg.cv_max}"
        )

    sel0 = np.abs(centers) <= half_win
    central_counts = float(counts[sel0].sum())
    fit = _fit_gaussian(centers[sel0], counts[sel0], sigma0)
    if fit is not None and fit[1] >= cfg.r2_min:
        value = fit[0] / norm
        method, r2 = "gaussian-fit", fit[1]
    else:
        value = float(counts[sel0].max()) / norm
        method, r2 = "peak-max", (fit[1] if fit is not None else 0.0)

    std = value * math.sqrt(1.0 / max(central_counts, 1.0) + cv * cv / len(amps))
    return CorrelationEstimate(
        value=value,
        std_error=std,
        n_satellites_used=len(amps),
        satellite_cv=cv,
        fit_r2=max(0.0, min(1.0, r2)),
        method=method,
    )


def _grid_cells(nbins: int, bin_width_ps: float, period_ps: float):
    """Index masks of one-period cells centered on multiples of the period."""
    half = nbins // 2
    centers = (np.arange(nbins) - half) * bin_width_ps
    reach = (half * bin_width_ps + bin_width_ps / 2.0) - period_ps / 2.0
    m_max = int(reach // period_ps)
    sels = {}
    for k in range(-m_max, m_max + 1):
        sels[k] = np.abs(centers - k * period_ps) <= period_ps / 2.0
    return m_max, sels


def extract_g3(
    h: Histogram2D,
    period_ps: float = LASER_PERIOD_PS,
    config: AnalysisConfig | None = None,
) -> CorrelationEstimate:
    """Zero-delay g3 from a 2D triple-coincidence histogram.

    Peaks are located as local maxima inside one-period grid cells with a
    prominence threshold over the Poisson noise of the cell background. The
    diagonal and the first-period row/column are excluded from normalization
    (same-pulse contamination); the central value is the maximum of the
    central cell over the mean retained satellite maximum.
    """
    cfg = config or AnalysisConfig()
    m_max, sels = _grid_cells(h.nbins, h.bin_width_ps, period_ps)
    if m_max < 1:
        raise InsufficientSatellitesError("2D window smaller than one period")

    sat = []
    central_max = None
    for i in range(-m_max, m_max + 1):
        for j in range(-m_max, m_max + 1):
            cell = h.counts[np.ix_(sels[i], sels[j])]
            peak = float(cell.max())
            if i == 0 and j == 0:
                central_max = peak
                continue
            if cfg.exclude_diagonal and i == j:
                continue
            if cfg.exclude_first_row_col and (i == 0 or j == 0):
                continue
            background = float(np.median(cell))
            prominence = peak - background
            if prominence >= cfg.prominence_sigma * math.sqrt(max(background, 1.0)):
                sat.append(peak)
    if len(sat) < cfg.min_satellites:
        raise InsufficientSatellitesError(
            f"only {len(sat)} 2D satellite peaks found, need >= {cfg.min_satellites}"
        )
    sat = np.asarray(sat)
    norm = float(sat.mean())
    cv = float(sat.std(ddof=1) / norm)
    if cv > cfg.cv_max:
        raise PoorNormalizationError(
            f"satellite CV {cv:.3f} exceeds limit {cfg.cv_max}"
        )
    value = central_max / norm
    std = value * math.sqrt(1.0 / max(central_max, 1.0) + cv * cv / len(sat))
    return CorrelationEstimate(
        value=value,
        std_error=std,
        n_satellites_used=len(sat),
        satellite_cv=cv,
        fit_r2=0.0,
        method="peak-max",
    )


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


def aggregate_repetitions(estimates) -> CorrelationEstimate:
    """Mean over repeated runs; error is the sample standard deviation (n-1)."""
    estimates = list(estimates)
    if not estimates:
        raise InvalidParameterError("no estimates to aggregate")
    vals = np.array([e.value for e in estimates])
    std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return CorrelationEstimate(
        value=float(vals.mean()),
        std_error=std,
        n_satellites_used=int(min(e.n_satellites_used for e in estimates)),
        satellite_cv=float(np.mean([e.satellite_cv for e in estimates])),
        fit_r2=float(np.mean([e.fit_r2 for e in estimates])),
        method=estimates[0].method,
    )

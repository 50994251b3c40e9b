"""Hyperparameter estimation against measured correlation datasets.

A dataset is a sequence of (mean_n, g2, g3) points taken at increasing
detection bandwidth; the model curve traces the same quantities for the first
k modes of a hyperparametrized state, k = 1..d. Because the per-mode moments
do not depend on d, the curve for a smaller d is a prefix of the larger one.

The fit does not compare point-by-point. Both the model curve and the data
are reduced to two summary shapes, a g3-versus-g2 line and a g2-versus-mean_n
power law, and the objective is the mean squared distance between the model
and data shapes evaluated at the experimental abscissae. This makes the
objective insensitive to which bandwidths were sampled.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DataFormatError,
    DegenerateFitError,
    DegenerateStateError,
    InvalidParameterError,
    NoConvergenceError,
)
from .states import HyperParams, mode_moments, mode_weights

PENALTY = 1e6

DEFAULT_BOUNDS = ((0.0, 2.0), (0.0, 0.95), (0.0, 2.0), (0.0, 0.5))

_CSV_FIELDS = ("mean_n", "g2", "g2_err", "g3", "g3_err")


@dataclass(frozen=True)
class DataSetPoint:
    """One bandwidth setting: broadband mean photon number and correlations."""

    mean_n: float
    g2: float
    g2_err: float
    g3: float
    g3_err: float
    intensity: float | None = None


@dataclass(frozen=True)
class FitResult:
    params: HyperParams
    objective_value: float
    n_evaluations: int
    start_index: int
    converged: bool


@dataclass(frozen=True)
class CrossoverFit:
    """Broken power law y = A x^p with p = p_low below the break intensity."""

    p_low: float
    p_high: float
    break_intensity: float
    degenerate: bool


def read_dataset_csv(path) -> list[DataSetPoint]:
    """Read `mean_n,g2,g2_err,g3,g3_err[,intensity]` rows."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_intensity = header == [*_CSV_FIELDS, "intensity"]
        if not has_intensity and header != list(_CSV_FIELDS):
            raise DataFormatError(f"{path}: unexpected header {header}")
        points = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(f"{path}:{i}: expected {len(header)} fields")
            try:
                vals = [float(v) for v in row]
            except ValueError as e:
                raise DataFormatError(f"{path}:{i}: {e}") from None
            points.append(
                DataSetPoint(*vals[:5], intensity=vals[5] if has_intensity else None)
            )
    return points


def read_crossover_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read `intensity,yield` rows for the crossover fit."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if header != ["intensity", "yield"]:
            raise DataFormatError(f"{path}: unexpected header {header}")
        xs, ys = [], []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
            except (ValueError, IndexError) as e:
                raise DataFormatError(f"{path}:{i}: {e}") from None
    return np.asarray(xs), np.asarray(ys)


def model_curve(h: HyperParams) -> np.ndarray:
    """(mean_n, g2, g3) rows for cumulative mode counts k = 1..d.

    Row k-1 describes the state truncated to the k strongest modes, so the
    output for d' < d is exactly the first d' rows.
    """
    h.validate()
    m1, m2, m3 = mode_moments(h.B * mode_weights(h.mu, h.d), 0.0, h.alpha, h.n_th)
    s1, s2, s3, p2, p3, x = np.cumsum(np.stack([m1, m2, m3, m1**2, m1**3, m2 * m1]), axis=1)
    if s1[0] == 0.0:
        raise DegenerateStateError("vacuum prefix: g2, g3 undefined")
    g2 = (s1 * s1 - p2 + s2) / (s1 * s1)
    g3 = (s1**3 - 3.0 * s1 * p2 + 2.0 * p3 + 3.0 * (s2 * s1 - x) + s3) / s1**3
    return np.column_stack([s1, g2, g3])


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept; NaN when x carries no spread."""
    # sum()/size gives np.mean's values without its per-call dispatch, which
    # was about half of the objective's time on 12-point curves
    n = x.size
    mx, my = x.sum() / n, y.sum() / n
    dx = x - mx
    vx = float((dx * dx).sum() / n)
    if not math.isfinite(vx) or vx <= 0.0:
        return math.nan, math.nan
    slope = float((dx * (y - my)).sum() / n) / vx
    return slope, float(my - slope * mx)


def _power_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Fit y = amp * x^p; returns (p, amp), NaN on non-positive input."""
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        return math.nan, math.nan
    p, b = _line_fit(np.log(x), np.log(y))
    return p, math.exp(b) if math.isfinite(b) else math.nan


def objective(data: list[DataSetPoint], h: HyperParams) -> float:
    """Shape mismatch between the model curve and the dataset.

    Sum of the MSE between the fitted g3(g2) lines evaluated at the
    experimental g2 values and the MSE between the fitted g2(mean_n) power
    laws at the experimental mean_n values. Any degenerate or non-finite
    model evaluation returns a flat penalty so optimizers can step past it.
    """
    if len(data) < 3:
        raise DegenerateFitError("need at least 3 dataset points")
    try:
        curve = model_curve(h)
    except (DegenerateStateError, InvalidParameterError):
        return PENALTY
    if not np.all(np.isfinite(curve)):
        return PENALTY
    mn, mg2, mg3 = curve[:, 0], curve[:, 1], curve[:, 2]
    dn = np.array([p.mean_n for p in data])
    dg2 = np.array([p.g2 for p in data])
    dg3 = np.array([p.g3 for p in data])

    sm, bm = _line_fit(mg2, mg3)
    sd, bd = _line_fit(dg2, dg3)
    pm, am = _power_fit(mn, mg2)
    pdat, adat = _power_fit(dn, dg2)
    coeffs = (sm, bm, sd, bd, pm, am, pdat, adat)
    if not all(math.isfinite(c) for c in coeffs):
        return PENALTY
    line_mse = float(np.mean(((sm * dg2 + bm) - (sd * dg2 + bd)) ** 2))
    power_mse = float(np.mean((am * dn**pm - adat * dn**pdat) ** 2))
    total = line_mse + power_mse
    return total if math.isfinite(total) else PENALTY


def fit_parameters(
    data: list[DataSetPoint],
    bounds: tuple = DEFAULT_BOUNDS,
    n_starts: int = 16,
    seed: int = 0,
    max_evaluations: int = 2000,
    d: int | None = None,
) -> FitResult:
    """Multi-start Nelder-Mead over (B, mu, alpha, n_th) within bounds.

    Starts are a seeded Latin hypercube over the box. Each start gets its own
    evaluation budget; a start that exhausts it is recorded as unconverged.
    Raises NoConvergenceError only when every start fails to converge.
    """
    if len(data) < 3:
        raise DegenerateFitError("need at least 3 dataset points")
    if d is None:
        d = len(data)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if lo.shape != (4,) or np.any(hi <= lo):
        raise InvalidParameterError(f"bad bounds {bounds}")

    # deferred: scipy is slow to import
    from scipy.optimize import minimize
    from scipy.stats import qmc

    def f(x: np.ndarray) -> float:
        return objective(data, HyperParams(B=x[0], mu=x[1], alpha=x[2], n_th=x[3], d=d))

    starts = lo + qmc.LatinHypercube(d=4, seed=seed).random(n_starts) * (hi - lo)
    best = None
    total_evals = 0
    any_converged = False
    for i, x0 in enumerate(starts):
        res = minimize(
            f,
            x0,
            method="Nelder-Mead",
            bounds=bounds,
            options={"maxfev": max_evaluations, "fatol": 1e-18, "xatol": 1e-12},
        )
        total_evals += int(res.nfev)
        conv = bool(res.success)
        any_converged = any_converged or conv
        if best is None or res.fun < best[0]:
            best = (float(res.fun), np.array(res.x), i, conv)
    if not any_converged:
        raise NoConvergenceError(
            f"all {n_starts} starts exhausted {max_evaluations} evaluations"
        )
    fun, x, idx, conv = best
    params = HyperParams(B=float(x[0]), mu=float(x[1]), alpha=float(x[2]), n_th=float(x[3]), d=d)
    return FitResult(params, fun, total_evals, idx, conv)


def _broken_line_sse(lx: np.ndarray, ly: np.ndarray, tb: float):
    """Continuous two-slope fit in log-log space at a fixed break position."""
    a = np.column_stack([np.ones_like(lx), lx, np.maximum(lx - tb, 0.0)])
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    resid = ly - a @ coef
    return float(resid @ resid), coef


def crossover_fit(intensity, yields) -> CrossoverFit:
    """Fit a continuous broken power law to yield-versus-intensity data.

    Scans break candidates on a grid over the interior of the log-intensity
    range, solving the conditionally linear problem in closed form at each,
    then refines around the best candidate. When the data follow a single
    power law the slope change collapses to zero and the break position is
    meaningless; the result is flagged degenerate with p_low == p_high.
    """
    x = np.asarray(intensity, dtype=float)
    y = np.asarray(yields, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidParameterError("intensity and yield must be 1d and equal length")
    if x.size < 4:
        raise DegenerateFitError("need at least 4 points for a broken power law")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise InvalidParameterError("intensities and yields must be positive")
    order = np.argsort(x)
    lx, ly = np.log(x[order]), np.log(y[order])

    def scan(candidates):
        best = (math.inf, None, None)
        for tb in candidates:
            sse, coef = _broken_line_sse(lx, ly, tb)
            if sse < best[0]:
                best = (sse, float(tb), coef)
        return best

    lo, hi = lx[1], lx[-2]
    if hi <= lo:
        lo, hi = lx[0], lx[-1]
    _, tb, coef = scan(np.linspace(lo, hi, 200))
    step = (hi - lo) / 199 if hi > lo else 0.0
    if step > 0.0:
        from scipy.optimize import minimize_scalar  # deferred: scipy is slow to import

        res = minimize_scalar(
            lambda t: _broken_line_sse(lx, ly, float(t))[0],
            bounds=(tb - step, tb + step),
            method="bounded",
            options={"xatol": 1e-12},
        )
        tb = float(res.x)
        _, coef = _broken_line_sse(lx, ly, tb)
    p_low = float(coef[1])
    p_high = float(coef[1] + coef[2])
    degenerate = abs(p_high - p_low) <= 1e-6
    return CrossoverFit(
        p_low=p_low,
        p_high=p_high,
        break_intensity=math.nan if degenerate else math.exp(tb),
        degenerate=degenerate,
    )

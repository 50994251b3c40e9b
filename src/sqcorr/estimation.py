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
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import (
    DataFormatError,
    DegenerateFitError,
    DegenerateStateError,
    InvalidParameterError,
    NoConvergenceError,
)
from .states import HyperParams, g2_g3_from_sums, mode_moments

PENALTY = 1e6

DEFAULT_BOUNDS = ((0.0, 2.0), (0.0, 0.95), (0.0, 2.0), (0.0, 0.5))

GRID_CELLS = 8  # seeding-grid cells per axis, 8^4 = 4096 in all
_CHUNK_ROWS = 1024  # parameter rows per model evaluation; bounds the temporaries at large d
_DAMPING = np.logspace(-8, 2, 11)  # Marquardt damping ladder, tried in one batch per iteration
_FD_STEP = 1e-6  # central-difference step, as a fraction of each bound's width
_FTOL = 1e-12  # relative objective gain below which a start has converged
_XTOL = 1e-13  # step, as a fraction of the widest bound, below which a start has converged

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


def _read_float_csv(path, *headers: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """The header of a UTF-8 CSV file, which must be one of headers, and its
    rows as floats, one array row per file row.

    Blank rows are skipped; every other row must have the header's field count.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise DataFormatError(f"{path}:{line}: not UTF-8 text ({e.reason})") from None
    rows = csv.reader(io.StringIO(text, newline=""))
    header = next(rows, None)
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    header = tuple(h.strip() for h in header)
    if header not in headers:
        raise DataFormatError(f"{path}: unexpected header {list(header)}")
    values = []
    for row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}:{rows.line_num}: expected {len(header)} fields, got {len(row)}")
        try:
            values.append([float(v) for v in row])
        except ValueError as e:
            raise DataFormatError(f"{path}:{rows.line_num}: {e}") from None
    return header, np.array(values, dtype=float).reshape(-1, len(header))


def read_dataset_csv(path) -> list[DataSetPoint]:
    """Read `mean_n,g2,g2_err,g3,g3_err[,intensity]` rows."""
    header, values = _read_float_csv(path, _CSV_FIELDS, (*_CSV_FIELDS, "intensity"))
    with_intensity = len(header) > len(_CSV_FIELDS)
    return [DataSetPoint(*v[:5], intensity=v[5] if with_intensity else None)
            for v in values.tolist()]


def read_crossover_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read `intensity,yield` rows for the crossover fit."""
    _, values = _read_float_csv(path, ("intensity", "yield"))
    return values[:, 0], values[:, 1]


def model_curve(h: HyperParams) -> np.ndarray:
    """(mean_n, g2, g3) rows for cumulative mode counts k = 1..d.

    Row k-1 describes the state truncated to the k strongest modes, so the
    output for d' < d is exactly the first d' rows.
    """
    h.validate()
    curve = _curves(_row(h), h.d)[0]
    if curve[0, 0] == 0.0:
        raise DegenerateStateError("vacuum prefix: g2, g3 undefined")
    return curve


def _row(h: HyperParams) -> np.ndarray:
    return np.array([[h.B, h.mu, h.alpha, h.n_th]], dtype=float)


def _curves(x: np.ndarray, d: int) -> np.ndarray:
    """Model curves, shape (rows, d, 3), for rows of (B, mu, alpha, n_th).

    Rows are not validated; _residuals applies the PENALTY rules.
    """
    B, mu, alpha, n_th = (x[:, i, None] for i in range(4))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        m1, m2, m3 = mode_moments(B * (np.sqrt(1.0 - mu * mu) * mu ** np.arange(d)),
                                  0.0, alpha, n_th)
        sums = np.cumsum(np.stack([m1, m2, m3, m1**2, m1**3, m2 * m1]), axis=2)
        return np.stack([sums[0], *g2_g3_from_sums(*sums)], axis=-1)


def _line_fits(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slopes and intercepts along the last axis; NaN where x has no spread."""
    n = x.shape[-1]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mx, my = x.sum(-1) / n, y.sum(-1) / n
        dx = x - mx[..., None]
        vx = (dx * dx).sum(-1) / n
        slope = ((dx * (y - my[..., None])).sum(-1) / n) / vx
        slope = np.where(np.isfinite(vx) & (vx > 0.0), slope, np.nan)
        return slope, my - slope * mx


def _shapes(at: tuple, n: np.ndarray, g2: np.ndarray, g3: np.ndarray) -> np.ndarray:
    """The g3(g2) line at at[0] and the g2(mean_n) power law at at[1], concatenated.

    n, g2 and g3 are curves along the last axis; the power law is NaN where
    any of its inputs is not positive.
    """
    slope, icpt = _line_fits(g2, g3)
    positive = np.all(n > 0.0, axis=-1) & np.all(g2 > 0.0, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        p, b = _line_fits(np.log(n), np.log(g2))
        amp = np.where(positive, np.exp(b), np.nan)[..., None]
        return np.concatenate(
            [slope[..., None] * at[0] + icpt[..., None], amp * at[1] ** p[..., None]], axis=-1)


def _target(data: list[DataSetPoint]) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The residual abscissae (data g2, data mean_n) and the data's own shapes there."""
    if len(data) < 3:
        raise DegenerateFitError("need at least 3 dataset points")
    n, g2, g3 = np.array([(p.mean_n, p.g2, p.g3) for p in data], dtype=float).T
    return (g2, n), _shapes((g2, n), n, g2, g3)


def _residuals(x: np.ndarray, d: int, target) -> np.ndarray:
    """Shape residuals, shape (rows, 2 len(data)), of parameter rows against the data.

    Model line minus data line at each data g2, then model power law minus
    data power law at each data mean_n; objective() is their mean square
    over len(data). A row that breaks a PENALTY rule (mu outside [0, 1),
    B < 0, n_th < 0, non-finite, vacuum prefix or non-finite model curve) is
    NaN throughout, as is a row whose shapes are not finite. Rows go through
    the model in chunks of _CHUNK_ROWS, which bounds the temporaries.
    """
    abscissae, ref = target
    out = np.empty((len(x), ref.size))
    for i in range(0, len(x), _CHUNK_ROWS):
        rows = x[i:i + _CHUNK_ROWS]
        curve = _curves(rows, d)
        B, mu, _, n_th = rows.T
        valid = (np.isfinite(rows).all(axis=1) & (mu >= 0.0) & (mu < 1.0) & (B >= 0.0)
                 & (n_th >= 0.0) & (curve[:, 0, 0] != 0.0) & np.isfinite(curve).all(axis=(1, 2)))
        with np.errstate(invalid="ignore", over="ignore"):
            r = _shapes(abscissae, curve[..., 0], curve[..., 1], curve[..., 2]) - ref
        r[~valid] = np.nan
        out[i:i + _CHUNK_ROWS] = r
    return out


def _objectives(r: np.ndarray) -> np.ndarray:
    """objective() of each row of shape residuals: PENALTY where not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        total = (r * r).sum(axis=-1) / (r.shape[-1] // 2)
    return np.where(np.isfinite(total), total, PENALTY)


def objective(data: list[DataSetPoint], h: HyperParams) -> float:
    """Shape mismatch between the model curve and the dataset.

    Sum of the MSE between the fitted g3(g2) lines evaluated at the
    experimental g2 values and the MSE between the fitted g2(mean_n) power
    laws at the experimental mean_n values. Any degenerate or non-finite
    model evaluation returns a flat penalty so optimizers can step past it.
    """
    target = _target(data)
    if h.d < 1:
        return PENALTY
    return float(_objectives(_residuals(_row(h), h.d, target))[0])


def _start_cells(values: np.ndarray, n_starts: int) -> np.ndarray:
    """Flat indices of the n_starts grid cells to polish.

    values holds the objective on the GRID_CELLS^4 grid. The grid-local
    minima, cells no higher than any of their 80 neighbours, come first and
    the other cells after them, each group lowest first. Penalized cells are
    never minima.
    """
    v = values.reshape((GRID_CELLS,) * 4)
    padded = np.pad(v, 1, constant_values=np.inf)
    is_min = v < PENALTY
    for offset in itertools.product(range(3), repeat=4):
        if offset != (1, 1, 1, 1):
            is_min &= v <= padded[tuple(slice(o, o + GRID_CELLS) for o in offset)]
    return np.lexsort((values, ~is_min.ravel()))[:n_starts]


def _polish(x: np.ndarray, target, d: int, lo: np.ndarray, hi: np.ndarray,
            budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projected Levenberg-Marquardt from every row of x, all rows in lockstep.

    Each iteration makes one batched model call for the centre and the
    central-difference stencil of every active row (9 rows each; one-sided
    at a bound), and one for the trial steps of the whole damping ladder;
    each row keeps its best trial if it lowers the objective. A variable on
    a bound that the gradient pushes against is frozen for that step. A row
    converges when no trial improves it or the gain or step is negligible,
    and stops unconverged once another iteration would overrun its budget of
    model rows. Returns the end points, their objectives, the rows each
    start used and the converged flags.
    """
    k = len(x)
    x = x.copy()
    f = np.full(k, PENALTY)
    used = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    active = np.ones(k, dtype=bool)
    width = hi - lo
    eye = np.eye(4, dtype=bool)
    per_iteration = 9 + _DAMPING.size
    while True:
        active &= used + per_iteration <= budget
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return x, f, used, converged
        xa = x[idx]
        up = np.minimum(xa + _FD_STEP * width, hi)
        down = np.maximum(xa - _FD_STEP * width, lo)
        stencil = np.concatenate([xa[:, None],
                                  np.where(eye, up[:, None], xa[:, None]),
                                  np.where(eye, down[:, None], xa[:, None])], axis=1)
        r = _residuals(stencil.reshape(-1, 4), d, target).reshape(idx.size, 9, -1)
        r0 = r[:, 0]
        f0 = _objectives(r0)
        with np.errstate(invalid="ignore"):
            jac = (r[:, 1:5] - r[:, 5:9]) / (up - down)[..., None]
        jac = np.where(np.isfinite(jac), jac, 0.0)
        g = np.einsum("kim,km->ki", jac, np.nan_to_num(r0))
        free = ~(((xa <= lo) & (g > 0.0)) | ((xa >= hi) & (g < 0.0)))
        a = np.where(free[:, :, None] & free[:, None, :], jac @ jac.transpose(0, 2, 1), 0.0)
        # Marquardt scaling by diag(a), floored so that a flat or frozen
        # direction still gets a damped, zero-length step
        diag = np.diagonal(a, axis1=1, axis2=2)
        scale = np.maximum(diag, 1e-12 * diag.max(axis=1, keepdims=True))
        scale = np.where(scale > 0.0, scale, 1.0)
        system = a[:, None] + eye * (_DAMPING[:, None, None] * scale[:, None, None, :])
        step = np.linalg.solve(system, np.where(free, -g, 0.0)[:, None, :, None])[..., 0]
        trial = np.clip(xa[:, None] + step, lo, hi)
        ft = _objectives(_residuals(trial.reshape(-1, 4), d, target)).reshape(idx.size, -1)
        used[idx] += per_iteration
        best = ft.argmin(axis=1)
        fb = ft[np.arange(idx.size), best]
        xb = trial[np.arange(idx.size), best]
        better = fb < f0
        x[idx[better]] = xb[better]
        f[idx] = np.where(better, fb, f0)
        settled = (~better | (f0 - fb <= _FTOL * f0)
                   | (np.abs(xb - xa).max(axis=1) <= _XTOL * width.max()))
        converged[idx] = settled & (f0 < PENALTY)
        active[idx] = ~settled & (f0 < PENALTY)


def fit_parameters(
    data: list[DataSetPoint],
    bounds: tuple = DEFAULT_BOUNDS,
    n_starts: int = 16,
    max_evaluations: int = 2000,
    d: int | None = None,
) -> FitResult:
    """Grid-seeded, projected Levenberg-Marquardt fit of (B, mu, alpha, n_th).

    The objective is evaluated at the centres of a GRID_CELLS^4 grid of
    cells over the bounds. n_starts cells, the lowest grid-local minima
    first (see _start_cells), are then polished together by _polish on the
    shape residuals, each with a budget of max_evaluations model
    evaluations. The fit is deterministic: nothing in it is random.
    n_evaluations counts the grid cells plus every polish evaluation, and
    start_index is the rank of the winning start. The result is the lowest
    end point; NoConvergenceError is raised only when no start converges,
    and DegenerateFitError when the data have no finite shapes.
    """
    target = _target(data)
    if not np.all(np.isfinite(target[1])):
        raise DegenerateFitError("the dataset has no finite g3(g2) line or g2(mean_n) power law")
    if d is None:
        d = len(data)
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    if n_starts < 1:
        raise InvalidParameterError(f"n_starts must be >= 1, got {n_starts}")
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if lo.shape != (4,) or not np.all(hi > lo):
        raise InvalidParameterError(f"bad bounds {bounds}")

    centres = (np.arange(GRID_CELLS) + 0.5) / GRID_CELLS
    unit = np.stack(np.meshgrid(*[centres] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    cells = lo + unit * (hi - lo)
    values = _objectives(_residuals(cells, d, target))
    starts = _start_cells(values, n_starts)
    x, f, used, converged = _polish(cells[starts], target, d, lo, hi, max_evaluations)
    if not converged.any():
        raise NoConvergenceError(
            f"all {starts.size} starts exhausted {max_evaluations} evaluations"
        )
    i = int(np.argmin(f))
    params = HyperParams(B=float(x[i, 0]), mu=float(x[i, 1]), alpha=float(x[i, 2]),
                         n_th=float(x[i, 3]), d=d)
    return FitResult(params, float(f[i]), cells.shape[0] + int(used.sum()), i, bool(converged[i]))


def _broken_line_sse(lx: np.ndarray, ly: np.ndarray, tb: float):
    """Continuous two-slope fit in log-log space at a fixed break position."""
    a = np.column_stack([np.ones_like(lx), lx, np.maximum(lx - tb, 0.0)])
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    resid = ly - a @ coef
    return float(resid @ resid), coef


def crossover_fit(intensity, yields) -> CrossoverFit:
    """Fit a continuous broken power law to yield-versus-intensity data.

    The break is found exactly over [lx[1], lx[-2]], lx the sorted
    log-intensities, by segmented regression with an unknown join (D. J.
    Hudson, J. Am. Stat. Assoc. 61, 1097 (1966)). In each gap between
    consecutive abscissae the free two-line fit is solved once: its join is
    the gap's optimum if it falls inside the gap, and otherwise the optimum
    sits on a gap edge. So the in-gap joins and every abscissa of the range,
    its two ends included, hold the global optimum; the break is the
    candidate with the lowest squared error. When the data follow a single
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

    lo, hi = lx[1], lx[-2]
    if hi <= lo:
        lo, hi = lx[0], lx[-1]
    candidates = [float(t) for t in lx[(lx >= lo) & (lx <= hi)]]
    for a, b in zip(candidates[:-1], candidates[1:]):
        above = (lx >= b).astype(float)
        coef, *_ = np.linalg.lstsq(np.column_stack([np.ones_like(lx), lx, lx * above, above]),
                                   ly, rcond=None)
        with np.errstate(invalid="ignore", divide="ignore"):
            join = float(-coef[3] / coef[2])
        if a < join < b:
            candidates.append(join)
    tb = min(candidates, key=lambda t: _broken_line_sse(lx, ly, t)[0])
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

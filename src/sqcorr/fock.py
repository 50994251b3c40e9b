"""Truncated number-basis oracle for displaced squeezed thermal modes.

The density matrix is rho = D(alpha) S(zeta) rho_th S(zeta)^+ D(alpha)^+ with
S = exp{(zeta* a^2 - zeta a^+2)/2}^+ acting on a geometric thermal state. Both
generators are anti-Hermitian tridiagonal/pentadiagonal matrices in the number
basis; a fixed phase rotation exp(i phi N) turns i-times-the-generator into a
real symmetric banded matrix, so each propagator is a single real banded
eigendecomposition. The generators scale linearly with r and |alpha|, so the
eigensystem is computed once per truncation dimension at unit strength and
rescaled.

This oracle is the test certificate for the closed forms in the states
module: it builds the state literally instead of assuming Gaussian pairing, so
tests check m1, m2, m3, the broadband combination and the generating-function
photon-number pmf against it. The runtime path does not call it, and no
runtime module imports it. This is the one module that imports scipy, and only
when the oracle runs. scipy is not a runtime dependency: the oracle needs the
`test` extra (`pip install 'sqcorr[test]'`).

Normally ordered moments <a^+n a^n> come from the number diagonal with falling
factorial weights. Truncation is adaptive: the dimension doubles until the
thermal tail deficit and the moments are stable.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exceptions import InvalidParameterError, TruncationError
from .states import ModeParams, NormallyOrderedMoments

# squeezing magnitudes below this are treated as zero (indistinguishable from
# rounding noise in the generator entries, and r=0 skips a propagator entirely)
R_FLOOR = 1e-12

# moments smaller than this are compared absolutely during adaptive doubling:
# they sit at the double-precision construction-noise floor where a relative
# criterion can never be met (e.g. m3 ~ 9 r^4 for r ~ 1e-5)
MOMENT_ABS_FLOOR = 1e-18

_THERMAL_COLUMN_CUTOFF = 1e-22

# photon_number_pmf doubles its dimension up to this; a diagonal not yet
# stable there raises TruncationError
PMF_DIM_CEILING = 1 << 14


def thermal_pmf(n_th: float, dim: int) -> np.ndarray:
    """Geometric photon-number pmf p(n) = n_th^n / (1+n_th)^(n+1), length dim."""
    if n_th <= 0.0:
        p = np.zeros(dim)
        p[0] = 1.0
        return p
    n = np.arange(dim)
    # log space avoids overflow of n_th**n at large dim
    return np.exp(n * np.log(n_th) - (n + 1) * np.log1p(n_th))


@lru_cache(maxsize=64)
def _unit_squeeze_eig(dim: int):
    from scipy.linalg import eig_banded  # deferred: scipy is slow to import

    # i * squeeze generator, phase-rotated to real symmetric form; entries on
    # the second subdiagonal are 0.5*sqrt((n+1)(n+2)) at r=1
    n = np.arange(dim, dtype=float)
    band = np.zeros((3, dim))
    band[2, : dim - 2] = 0.5 * np.sqrt((n[: dim - 2] + 1.0) * (n[: dim - 2] + 2.0))
    w, v = eig_banded(band, lower=True)
    return w, v


@lru_cache(maxsize=64)
def _unit_displace_eig(dim: int):
    from scipy.linalg import eig_banded

    # i * displacement generator at |alpha|=1: first subdiagonal sqrt(n+1)
    n = np.arange(dim, dtype=float)
    band = np.zeros((2, dim))
    band[1, : dim - 1] = np.sqrt(n[: dim - 1] + 1.0)
    w, v = eig_banded(band, lower=True)
    return w, v


def _apply_propagator(w_unit, v, strength: float, phi: float, x: np.ndarray) -> np.ndarray:
    """Apply exp(generator) = e^{i phi N} V e^{i strength w} V^T e^{-i phi N} to columns x."""
    dim = x.shape[0]
    ph = np.exp(1j * phi * np.arange(dim))
    y = v.T @ (np.conj(ph)[:, None] * x)
    y = np.exp(1j * strength * w_unit)[:, None] * y
    return ph[:, None] * (v @ y)


def _thermal_columns(n_th: float, dim: int) -> int:
    """Number of thermal basis columns with weight above the cutoff."""
    if n_th <= 0.0:
        return 1
    q = n_th / (1.0 + n_th)
    c = int(np.ceil(np.log(_THERMAL_COLUMN_CUTOFF) / np.log(q))) + 4
    return min(dim, max(1, c))


def _transform_columns(mode: ModeParams, dim: int, ncols: int) -> np.ndarray:
    """Columns T e_n of the combined propagator T = D(alpha) S(zeta)."""
    x = np.eye(dim, ncols, dtype=complex)
    r = 0.0 if mode.r < R_FLOOR else float(mode.r)
    if r != 0.0:
        w, v = _unit_squeeze_eig(dim)
        x = _apply_propagator(w, v, r, -(np.pi / 2.0 + mode.theta) / 2.0, x)
    alpha = complex(mode.alpha)
    if alpha != 0.0:
        w, v = _unit_displace_eig(dim)
        x = _apply_propagator(w, v, abs(alpha), np.angle(alpha) - np.pi / 2.0, x)
    return x


def number_diagonal(mode: ModeParams, dim: int) -> tuple[np.ndarray, float]:
    """Diagonal of the truncated density matrix and its trace.

    The propagator is exactly unitary at the working dimension, so the trace
    deficit is the thermal tail mass beyond dim; operator truncation error is
    caught by the moment-stability check in oracle_moments.
    """
    ncols = _thermal_columns(mode.n_th, dim)
    x = _transform_columns(mode, dim, ncols)
    p = thermal_pmf(mode.n_th, dim)
    diag = (np.abs(x) ** 2 * p[:ncols]).sum(axis=1)
    return diag, float(p.sum())


def _moments_from_diagonal(diag: np.ndarray) -> tuple[float, float, float]:
    n = np.arange(diag.size, dtype=float)
    m1 = float(np.dot(n, diag))
    m2 = float(np.dot(n * (n - 1.0), diag))
    m3 = float(np.dot(n * (n - 1.0) * (n - 2.0), diag))
    return m1, m2, m3


def suggest_start_dim(mode: ModeParams) -> int:
    """Power-of-two starting dimension covering the bulk of the distribution."""
    mean = abs(mode.alpha) ** 2 + mode.n_th * np.cosh(2.0 * mode.r) + np.sinh(mode.r) ** 2
    goal = 16.0 + 10.0 * mean + 16.0 * np.sinh(abs(mode.r)) ** 2
    dim = 16
    while dim < goal:
        dim *= 2
    return dim


def _stable(a: tuple[float, float, float], b: tuple[float, float, float], tol: float) -> bool:
    return all(
        abs(x - y) <= max(tol * max(abs(x), abs(y)), MOMENT_ABS_FLOOR)
        for x, y in zip(a, b)
    )


def oracle_moments(
    mode: ModeParams,
    dim: int | None = None,
    *,
    ceiling: int = 512,
    trace_tol: float = 1e-10,
    moment_tol: float = 1e-9,
) -> NormallyOrderedMoments:
    """Normally ordered moments <a^+a>, <a^+2 a^2>, <a^+3 a^3> by literal construction.

    Starts at dim (or a size heuristic) and doubles the truncation until the
    thermal trace deficit is below trace_tol and all three moments are stable
    on doubling to relative moment_tol (absolute below MOMENT_ABS_FLOOR).

    Raises TruncationError if stability is not reached at the ceiling.
    """
    mode.validate()
    if dim is None:
        dim = suggest_start_dim(mode)
    elif dim < 2:
        raise InvalidParameterError(f"truncation dimension must be >= 2, got {dim}")
    prev = None
    while dim <= ceiling:
        diag, trace = number_diagonal(mode, dim)
        mom = _moments_from_diagonal(diag)
        if prev is not None and abs(1.0 - trace) < trace_tol and _stable(mom, prev, moment_tol):
            return NormallyOrderedMoments(*mom)
        prev = mom
        dim *= 2
    raise TruncationError(
        f"moments not stable below dim ceiling {ceiling} for {mode}"
    )


def photon_number_pmf(mode: ModeParams, max_n: int) -> np.ndarray:
    """Photon-number probabilities p(0..max_n), renormalized to sum 1.

    The diagonal is computed at an adaptively converged dimension and then cut
    at max_n; the cut tail is folded back in by the renormalization.

    Raises TruncationError if the diagonal is not stable on doubling below
    PMF_DIM_CEILING.
    """
    mode.validate()
    if max_n < 0:
        raise InvalidParameterError(f"max_n must be >= 0, got {max_n}")
    dim = max(suggest_start_dim(mode), 16)
    prev = None
    while True:
        diag, _ = number_diagonal(mode, dim)
        if prev is not None and np.allclose(diag[: prev.size], prev, rtol=0, atol=1e-14):
            break
        if dim >= PMF_DIM_CEILING:
            raise TruncationError(
                f"photon-number pmf not stable below dim ceiling {PMF_DIM_CEILING} for {mode}"
            )
        prev = diag
        dim *= 2
    out = np.zeros(max_n + 1)
    k = min(max_n + 1, diag.size)
    out[:k] = diag[:k]
    s = out.sum()
    if s <= 0.0:
        raise InvalidParameterError("pmf support entirely above max_n")
    return out / s


def mode_density_matrix(mode: ModeParams, dim: int) -> np.ndarray:
    """Explicit truncated density matrix T diag(p_th) T^+ at fixed dimension."""
    mode.validate()
    if dim < 2:
        raise InvalidParameterError(f"dim must be >= 2, got {dim}")
    t = _transform_columns(mode, dim, dim)
    p = thermal_pmf(mode.n_th, dim)
    return (t * p) @ t.conj().T


def tensor_broadband_moments(modes, dim: int) -> tuple[float, float, float]:
    """(S1, g2, g3) from the explicit tensor-product density matrix.

    Brute-force cross-check of the broadband combination formulas: builds
    kron(rho_1, ..., rho_k) at a shared per-mode truncation and evaluates the
    total-number falling factorials <N>, <N(N-1)>, <N(N-1)(N-2)> directly.
    Intended for 2-3 modes at dim <= 12 or so; memory grows as dim^(2k).
    """
    rho = None
    n_tot = None
    for mode in modes:
        rho_k = mode_density_matrix(mode, dim)
        n_k = np.arange(dim, dtype=float)
        if rho is None:
            rho, n_tot = rho_k, n_k
        else:
            rho = np.kron(rho, rho_k)
            n_tot = (n_tot[:, None] + n_k[None, :]).ravel()
    p = np.real(np.diagonal(rho))
    s1 = float(np.dot(n_tot, p))
    if s1 == 0.0:
        from .exceptions import DegenerateStateError

        raise DegenerateStateError("vacuum tensor state has no photons")
    f2 = float(np.dot(n_tot * (n_tot - 1.0), p))
    f3 = float(np.dot(n_tot * (n_tot - 1.0) * (n_tot - 2.0), p))
    return s1, f2 / s1**2, f3 / s1**3

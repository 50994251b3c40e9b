"""Displaced squeezed thermal modes and broadband photon statistics.

A spectral mode is parametrized by squeezing magnitude r, squeezing phase
theta, complex displacement alpha and thermal occupation n_th. A multimode
state is a list of statistically independent modes; the measured broadband
correlations g2(0), g3(0) follow from normally ordered per-mode moments by a
multinomial combination.

All three moments m1, m2, m3 are closed forms: the Gaussian (Wick/Isserlis)
expansion of a = alpha + b around the central moments of b,

    N = n_th cosh(2r) + sinh^2(r)
    M = (2 n_th + 1) sinh(r) cosh(r) e^{i phi},   phi = -theta

evaluated elementwise over arrays of modes (mode_moments). The photon-number
generating function E[z^n] (photon_log_pgf) is a closed form in the same N, M
and alpha; the simulate module inverts it into the photon-number pmf. The phase
convention phi(theta) was calibrated once against the number-basis oracle in
the fock module at a complex displacement and is frozen by a regression test;
that oracle certifies the closed forms in the tests and is not called here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateStateError, InvalidParameterError

DB_PER_UNIT_R = 20.0 / math.log(10.0)  # 10*log10(e^2r) = 8.6859*r


@dataclass(frozen=True)
class ModeParams:
    """Single-mode parameters of D(alpha) S(r e^{i theta}) rho_th S^+ D^+."""

    r: float = 0.0
    theta: float = 0.0
    alpha: complex = 0.0
    n_th: float = 0.0

    def validate(self) -> None:
        vals = (self.r, self.theta, self.n_th, abs(self.alpha))
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParameterError(f"non-finite mode parameter in {self}")
        if self.r < 0.0:
            raise InvalidParameterError(f"squeezing magnitude r must be >= 0, got {self.r}")
        if self.n_th < 0.0:
            raise InvalidParameterError(f"thermal occupation must be >= 0, got {self.n_th}")


@dataclass(frozen=True)
class HyperParams:
    """Squeezer-distribution hyperparameters (B, mu) plus isotropic alpha, n_th.

    Mode k of d carries r_k = B sqrt(1-mu^2) mu^k; displacement and thermal
    occupation are copied to every mode.
    """

    B: float
    mu: float
    alpha: float = 0.0
    n_th: float = 0.0
    d: int = 50

    def validate(self) -> None:
        if not all(math.isfinite(v) for v in (self.B, abs(self.alpha), self.n_th)):
            raise InvalidParameterError(f"non-finite hyperparameter in {self}")
        if not (0.0 <= self.mu < 1.0):
            raise InvalidParameterError(f"mu must lie in [0, 1), got {self.mu}")
        if self.B < 0.0:
            raise InvalidParameterError(f"B must be >= 0, got {self.B}")
        if self.n_th < 0.0:
            raise InvalidParameterError(f"n_th must be >= 0, got {self.n_th}")
        if self.d < 1:
            raise InvalidParameterError(f"d must be >= 1, got {self.d}")


@dataclass(frozen=True)
class MultimodeState:
    """Ordered collection of independent spectral modes."""

    modes: tuple[ModeParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))

    def validate(self) -> None:
        if len(self.modes) < 1:
            raise InvalidParameterError("state needs at least one mode")
        for m in self.modes:
            m.validate()


@dataclass(frozen=True)
class NormallyOrderedMoments:
    """<a^+a>, <a^+2 a^2>, <a^+3 a^3> of one mode."""

    m1: float
    m2: float
    m3: float


def mode_weights(mu: float, d: int) -> np.ndarray:
    """Thermal squeezer weights lambda_k = sqrt(1-mu^2) mu^k, k = 0..d-1."""
    if not (0.0 <= mu < 1.0):
        raise InvalidParameterError(f"mu must lie in [0, 1), got {mu}")
    return math.sqrt(1.0 - mu * mu) * mu ** np.arange(d)


def expand_hyperparams(h: HyperParams) -> MultimodeState:
    """Expand (B, mu, alpha, n_th, d) into d modes with r_k = B lambda_k."""
    h.validate()
    lam = mode_weights(h.mu, h.d)
    return MultimodeState(
        tuple(ModeParams(r=float(h.B * l), theta=0.0, alpha=h.alpha, n_th=h.n_th) for l in lam)
    )


def _central_moments(r, n_th):
    """N and |M| of the undisplaced mode (arg M = -theta)."""
    sh = np.sinh(r)
    return n_th * np.cosh(2.0 * r) + sh * sh, (2.0 * n_th + 1.0) * sh * np.cosh(r)


def mode_moments(r, theta, alpha, n_th) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m1, m2, m3 of independent modes, elementwise over broadcast arrays.

    With A = |alpha|^2 and c = Re(alpha*^2 M) = A |M| cos(2 arg(alpha) + theta),
    Isserlis pairing of a = alpha + b gives

        m1 = A + N
        m2 = A^2 + 4AN + 2c + 2N^2 + |M|^2
        m3 = A^3 + 9A^2 N + 18AN^2 + 9A|M|^2 + 6Ac + 18Nc + 6N^3 + 9N|M|^2

    Inputs are not validated; callers check them.
    """
    n, m_abs = _central_moments(r, n_th)
    a = np.abs(alpha) ** 2
    c = a * m_abs * np.cos(2.0 * np.angle(alpha) + theta)
    mm = m_abs * m_abs
    m1 = a + n
    m2 = a * a + 4.0 * a * n + 2.0 * c + 2.0 * n * n + mm
    m3 = (a * (a * a + 9.0 * a * n + 18.0 * n * n + 9.0 * mm + 6.0 * c)
          + n * (18.0 * c + 6.0 * n * n + 9.0 * mm))
    return m1, m2, m3


def _mode_arrays(state: MultimodeState) -> tuple[np.ndarray, ...]:
    state.validate()
    modes = state.modes
    return (
        np.array([m.r for m in modes]),
        np.array([m.theta for m in modes]),
        np.array([complex(m.alpha) for m in modes]),
        np.array([m.n_th for m in modes]),
    )


def photon_log_pgf(state: MultimodeState, s) -> np.ndarray:
    """log E[(1-s)^n] of the state's total photon number, at an array of s.

    s may be real or complex. With l+- = N +- |M| and a' + i b' =
    alpha e^{i theta/2} (the displacement in the frame where M is real), the
    Gaussian generating function of one mode, <:exp(-s a^+a):> (Weedbrook et
    al., Rev. Mod. Phys. 84, 621 (2012)), is

        G = exp(-s (a'^2/(1 + s l+) + b'^2/(1 + s l-))) / sqrt((1 + s l+)(1 + s l-))

    Physical modes have l- > -1/2, so both factors have positive real part on
    the unit circle |1 - s| = 1 and for real s in (-1/l+, 0]: there the
    principal logs add without branch jumps.
    """
    s = np.asarray(s)
    r, theta, alpha, n_th = _mode_arrays(state)
    n, m_abs = _central_moments(r, n_th)
    rot = alpha * np.exp(0.5j * theta)
    out = np.zeros(s.shape, dtype=np.result_type(s, float))
    # one mode at a time: s may be long, and modes x points would not fit
    for lp, lm, a, b in zip(n + m_abs, n - m_abs, rot.real, rot.imag):
        xp, xm = s * lp, s * lm  # log1p keeps the relative precision of small s
        out += -s * (a * a / (1.0 + xp) + b * b / (1.0 + xm)) - 0.5 * (np.log1p(xp) + np.log1p(xm))
    return out


def photon_pgf_radius(state: MultimodeState) -> float:
    """Radius of convergence 1 + 1/max(l+) of E[z^n] (inf if every l+ is 0)."""
    r, _, _, n_th = _mode_arrays(state)
    n, m_abs = _central_moments(r, n_th)
    lp = float(np.max(n + m_abs))
    return math.inf if lp == 0.0 else 1.0 + 1.0 / lp


def _state_moments(state: MultimodeState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return mode_moments(*_mode_arrays(state))


def wick_moments(mode: ModeParams) -> NormallyOrderedMoments:
    """Per-mode moments m1, m2, m3 in closed form (see mode_moments)."""
    mode.validate()
    m1, m2, m3 = mode_moments(mode.r, mode.theta, complex(mode.alpha), mode.n_th)
    return NormallyOrderedMoments(float(m1), float(m2), float(m3))


def g2_g3_from_sums(s1, s2, s3, p2, p3, x):
    """Broadband g2, g3 of independent modes from sums of per-mode moments.

    Expanding sum_{l,m} <a_l^+ a_m^+ a_l a_m> and the three-index analogue
    over distinct/coincident mode indices gives

        g2 = (S1^2 - P2 + S2) / S1^2
        g3 = (S1^3 - 3 S1 P2 + 2 P3 + 3 (S2 S1 - X) + S3) / S1^3

    with S_i = sum m_i, P2 = sum m1^2, P3 = sum m1^3, X = sum m2 m1. The sums
    may be floats or arrays (elementwise); S1 = 0 is not checked here.
    """
    g2 = (s1 * s1 - p2 + s2) / (s1 * s1)
    g3 = (s1**3 - 3.0 * s1 * p2 + 2.0 * p3 + 3.0 * (s2 * s1 - x) + s3) / s1**3
    return g2, g3


def combine_moments(m1, m2, m3) -> tuple[float, float, float]:
    """Broadband (S1, g2, g3) from arrays of per-mode moments (see g2_g3_from_sums)."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    m3 = np.asarray(m3, dtype=float)
    s1 = float(m1.sum())
    if s1 == 0.0:
        raise DegenerateStateError("vacuum state: g2, g3 undefined")
    g2, g3 = g2_g3_from_sums(s1, float(m2.sum()), float(m3.sum()), float((m1**2).sum()),
                             float((m1**3).sum()), float((m2 * m1).sum()))
    return s1, g2, g3


def per_mode_moments(state: MultimodeState) -> list[NormallyOrderedMoments]:
    return [
        NormallyOrderedMoments(float(a), float(b), float(c))
        for a, b, c in zip(*_state_moments(state))
    ]


def broadband_moments(state: MultimodeState) -> tuple[float, float, float]:
    """(S1, g2, g3) of the full multimode state."""
    return combine_moments(*_state_moments(state))


def schmidt_number(lambdas) -> float:
    """Effective Schmidt number K = 1 / sum(lambda_k^4) of normalized weights."""
    lam = np.asarray(lambdas, dtype=float)
    norm = float((lam**2).sum())
    if not np.isfinite(norm) or norm <= 0.0:
        raise InvalidParameterError("mode weights are not normalizable")
    lam4 = float((lam**4).sum()) / (norm * norm)
    return 1.0 / lam4


def schmidt_number_mu(mu: float) -> float:
    """Closed form for the thermal weight distribution: K = (1+mu^2)/(1-mu^2)."""
    if not (0.0 <= mu < 1.0):
        raise InvalidParameterError(f"mu must lie in [0, 1), got {mu}")
    return (1.0 + mu * mu) / (1.0 - mu * mu)


def squeezing_db(r: float) -> float:
    """Squeezing level in dB under the standard convention 10 log10(e^{2r})."""
    return DB_PER_UNIT_R * r

"""Physics computed apart from sqcorr, for checking its outputs.

Nothing here imports sqcorr. Each function rests on a published closed form
or on a convention sqcorr documents (its tag-file layout, its histogram
binning, the central moments named in the `states` module docstring), so a
check built on these numbers does not rest on the program's own numbers.

Quadrature convention: x = (a + a^+)/sqrt(2), p = (a - a^+)/(i sqrt(2)),
vacuum covariance I/2.
"""
from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# single displaced squeezed thermal modes

def central_moments(r: float, theta: float, n_th: float) -> tuple[float, complex]:
    """N = <b^+ b> and M = <b b> of the undisplaced squeezed thermal state.

    N = n_th cosh(2r) + sinh^2(r), M = (2 n_th + 1) sinh(r) cosh(r) e^{-i theta}
    (sqcorr's documented phase convention phi = -theta).
    """
    n = n_th * math.cosh(2.0 * r) + math.sinh(r) ** 2
    m = (2.0 * n_th + 1.0) * math.sinh(r) * math.cosh(r) * complex(math.cos(theta), -math.sin(theta))
    return n, m


def mode_moments(r: float, theta: float, alpha: complex, n_th: float) -> tuple[float, float, float]:
    """<a^+ a>, <a^+2 a^2>, <a^+3 a^3> by the Isserlis expansion over a = alpha + b."""
    n, m = central_moments(r, theta, n_th)
    a = complex(alpha)
    big_a = abs(a) ** 2
    mm = abs(m) ** 2
    c = (a.conjugate() ** 2 * m).real
    m1 = big_a + n
    m2 = big_a ** 2 + 4.0 * big_a * n + 2.0 * c + 2.0 * n * n + mm
    m3 = (big_a ** 3 + 9.0 * big_a ** 2 * n + 18.0 * big_a * n * n + 9.0 * big_a * mm
          + 6.0 * big_a * c + 18.0 * n * c + 6.0 * n ** 3 + 9.0 * n * mm)
    return m1, m2, m3


def mode_covariance(r: float, theta: float, alpha: complex, n_th: float):
    """Quadrature covariance V and mean vector d of one mode."""
    n, m = central_moments(r, theta, n_th)
    v = np.array([[n + 0.5 + m.real, m.imag],
                  [m.imag, n + 0.5 - m.real]])
    a = complex(alpha)
    d = math.sqrt(2.0) * np.array([a.real, a.imag])
    return v, d


def vacuum_probability(v: np.ndarray, d: np.ndarray, q: float) -> float:
    """Probability that no photon survives a loss channel of transmission q.

    det(V' + I/2)^(-1/2) exp(-d'^T (V' + I/2)^(-1) d' / 2) with
    V' = q V + (1 - q) I/2 and d' = sqrt(q) d (Weedbrook et al.,
    Rev. Mod. Phys. 84, 621 (2012)).
    """
    s = q * v + (1.0 - q) * 0.5 * np.eye(2) + 0.5 * np.eye(2)
    dq = math.sqrt(q) * d
    return float(np.exp(-0.5 * dq @ np.linalg.solve(s, dq)) / math.sqrt(np.linalg.det(s)))


# ---------------------------------------------------------------------------
# hyperparametrized multimode source

def hyper_modes(b: float, mu: float, alpha: float, n_th: float, d: int):
    """(r, theta, alpha, n_th) per mode: r_k = B sqrt(1 - mu^2) mu^k, k < d."""
    lam = math.sqrt(1.0 - mu * mu)
    return [(b * lam * mu ** k, 0.0, complex(alpha), n_th) for k in range(d)]


def no_click_probability(modes, q: float) -> float:
    """Joint no-click probability of detectors that together see a share q."""
    p = 1.0
    for mode in modes:
        p *= vacuum_probability(*mode_covariance(*mode), q)
    return p


def click_statistics(modes, q: float) -> dict:
    """Single, pair and triple click probabilities of three arms of share q each.

    Inclusion-exclusion over the joint no-click probabilities P0(k q), k = 1..3.
    """
    f1, f2, f3 = (no_click_probability(modes, k * q) for k in (1, 2, 3))
    single = 1.0 - f1
    pair = 1.0 - 2.0 * f1 + f2
    triple = 1.0 - 3.0 * f1 + 3.0 * f2 - f3
    return {"single": single, "g2": pair / single ** 2, "g3": triple / single ** 3}


def cumulative_curve(modes) -> np.ndarray:
    """(mean_n, g2, g3) of the first k modes, k = 1..len(modes).

    Independent modes: <:N^2:> = S2 + S1^2 - P2 and
    <:N^3:> = S3 + 3 (S2 S1 - X) + S1^3 - 3 S1 P2 + 2 P3, with S the running
    sums of m1, m2, m3, P2, P3 those of m1^2, m1^3 and X that of m1 m2.
    """
    mom = np.array([mode_moments(*m) for m in modes])
    m1, m2, m3 = mom[:, 0], mom[:, 1], mom[:, 2]
    s1, s2, s3 = np.cumsum(m1), np.cumsum(m2), np.cumsum(m3)
    p2, p3, x = np.cumsum(m1 ** 2), np.cumsum(m1 ** 3), np.cumsum(m1 * m2)
    g2 = (s2 + s1 ** 2 - p2) / s1 ** 2
    g3 = (s3 + 3.0 * (s2 * s1 - x) + s1 ** 3 - 3.0 * s1 * p2 + 2.0 * p3) / s1 ** 3
    return np.column_stack([s1, g2, g3])


def shape_objective(model: np.ndarray, data: np.ndarray) -> float:
    """Mismatch of the g3(g2) lines and g2(mean_n) power laws at the data points.

    model and data are (mean_n, g2, g3) rows; this is the shape objective the
    sqcorr documentation describes, built on numpy's least-squares polyfit.
    """
    sm, bm = np.polyfit(model[:, 1], model[:, 2], 1)
    sd, bd = np.polyfit(data[:, 1], data[:, 2], 1)
    pm, lam = np.polyfit(np.log(model[:, 0]), np.log(model[:, 1]), 1)
    pd, lad = np.polyfit(np.log(data[:, 0]), np.log(data[:, 1]), 1)
    dn, dg2 = data[:, 0], data[:, 1]
    line = np.mean(((sm - sd) * dg2 + (bm - bd)) ** 2)
    power = np.mean((math.exp(lam) * dn ** pm - math.exp(lad) * dn ** pd) ** 2)
    return float(line + power)


# ---------------------------------------------------------------------------
# beams fed the same geometric (thermal-marginal) photon number

def geometric_beams(n_bar: float, q: float) -> dict:
    """Click-level g2 within a beam, g2 across beams, g3 within a beam and R.

    Every beam receives the same photon number n, geometric with mean n_bar,
    and splits it over arms of share q. Detectors that see a combined share Q
    of one beam all stay dark with probability 1/(1 + n_bar Q); one arm on
    each of two beams stays dark with probability 1/(1 + n_bar (2q - q^2)).
    """
    def dark(share):
        return 1.0 / (1.0 + n_bar * share)

    single = 1.0 - dark(q)
    auto = 1.0 - 2.0 * dark(q) + dark(2.0 * q)
    cross = 1.0 - 2.0 * dark(q) + dark(2.0 * q - q * q)
    triple = 1.0 - 3.0 * dark(q) + 3.0 * dark(2.0 * q) - dark(3.0 * q)
    g2_auto = auto / single ** 2
    g2_cross = cross / single ** 2
    return {
        "single": single,
        "g2_auto": g2_auto,
        "g2_cross": g2_cross,
        "g3_auto": triple / single ** 3,
        "R": (g2_cross / g2_auto) ** 2,
    }


# ---------------------------------------------------------------------------
# coincidence windows (sqcorr's documented binning)

def window_edges(bin_ps: int, range_ps: float) -> tuple[int, int]:
    """[lo, hi) delay window of an odd bin count centered on multiples of bin_ps."""
    nbins = 2 * int(range_ps // bin_ps) + 1
    lo = -((nbins // 2) * bin_ps + bin_ps // 2)
    return lo, lo + nbins * bin_ps


def pairs_in_window(ta: np.ndarray, tb: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per anchor in ta, how many tb fall at a delay in [lo, hi)."""
    return np.searchsorted(tb, ta + hi, side="left") - np.searchsorted(tb, ta + lo, side="left")


def pair_total(ta, tb, lo: int, hi: int) -> int:
    return int(pairs_in_window(ta, tb, lo, hi).sum())


def triple_total(t0, t1, t2, lo: int, hi: int) -> int:
    """Anchors in t0 times partners in t1 times partners in t2, summed."""
    return int((pairs_in_window(t0, t1, lo, hi) * pairs_in_window(t0, t2, lo, hi)).sum())

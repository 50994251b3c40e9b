"""Synthetic pulsed-experiment generator.

A source fixes the photon-number pmf p(n) of one beam in one pulse and a beam
count B: B = 1 for a multimode state (p is the pmf of its total photon
number, state_photon_pmf), B = n_beams for the pair source (geometric p, the
same n in every beam). Every photon is detected independently with the
end-to-end efficiency eta; a beam's detected photons are split multinomially
across its detector arms, and an arm clicks when it gets at least one
(SPADs report only presence). Click times are the pulse grid plus Gaussian
jitter.

Only the pulses that click are drawn, from the exact law of that chain. A
pulse with n photons per beam is silent with probability (1-eta)^(Bn), so
clicking pulses are Bernoulli(P_click) with P_click = sum p(n)(1-(1-eta)^(Bn))
and their indices follow from geometric gaps. Each clicking pulse draws n
from p(n)(1-(1-eta)^(Bn)) / P_click by inverse CDF, then K >= 1, the photons
detected over all beams: the first detected photon is geometric truncated
to [1, Bn] and the photons after it are detected freely. K is split over the
beams hypergeometrically (each holds n) and each beam's share over its arms.
Pulses are taken in fixed-size blocks seeded from spawned sub-streams, so
output files are bit-identical for a given (config, seed) regardless of how
generation is scheduled, and no array spans all pulses. The blocks are drawn
on every core in the process's affinity mask (sqcorr.parallel); the files do
not depend on how many, and `taskset` limits them.

Binary detectors bias click-based correlation estimates at O(click
probability); click_expectations provides the exact analytic click-level
values so tests can separate detector physics from estimator errors.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from .constants import DEFAULT_JITTER_SIGMA_PS, DEFAULT_REP_RATE_HZ
from .exceptions import InvalidParameterError, TruncationError
from .parallel import parallel_map
from .states import (
    HyperParams,
    MultimodeState,
    broadband_moments,
    expand_hyperparams,
    per_mode_moments,
    photon_log_pgf,
    photon_pgf_radius,
)
from .tags import write_tags, write_tags_csv

_BLOCK_PULSES = 1 << 20

# photon-number pmfs drop a tail of at most this mass
PMF_TAIL = 1e-15
# state_photon_pmf doubles its FFT length up to this; a tail bound not yet
# below PMF_TAIL there raises TruncationError
PMF_FFT_CEILING = 1 << 20


@dataclass(frozen=True)
class OpticsConfig:
    """Optics chain: efficiency, splitter ratios, jitter, dead time, pulse grid."""

    eta: float
    n_pulses: int
    splitter: tuple[float, ...] = (0.5, 0.5)
    jitter_sigma_ps: float = DEFAULT_JITTER_SIGMA_PS
    dead_time_ps: float = 0.0
    rep_rate_hz: float = DEFAULT_REP_RATE_HZ

    def validate(self) -> None:
        # every test is written so that NaN fails it
        if not (0.0 < self.eta <= 1.0):
            raise InvalidParameterError(f"eta must lie in (0, 1], got {self.eta}")
        if not (isinstance(self.n_pulses, numbers.Integral) and self.n_pulses >= 0):
            raise InvalidParameterError(f"n_pulses must be an integer >= 0, got {self.n_pulses!r}")
        if len(self.splitter) < 1 or not all(0.0 <= p <= 1.0 for p in self.splitter):
            raise InvalidParameterError(f"bad splitter ratios {self.splitter}")
        if not abs(sum(self.splitter) - 1.0) <= 1e-9:
            raise InvalidParameterError("splitter ratios must sum to 1")
        if not (0.0 <= self.jitter_sigma_ps < math.inf and 0.0 <= self.dead_time_ps < math.inf):
            raise InvalidParameterError("jitter and dead time must be finite and >= 0")
        if not (0.0 < self.rep_rate_hz < math.inf):
            raise InvalidParameterError(f"rep_rate_hz must be finite and > 0, got {self.rep_rate_hz}")

    @property
    def period_ps(self) -> float:
        return 1e12 / self.rep_rate_hz

    @property
    def n_arms(self) -> int:
        return len(self.splitter)


@dataclass(frozen=True)
class PairSourceConfig:
    """Photon-number-correlated source: identical n injected into every beam.

    Marginals are thermal (geometric pmf) with mean n_bar; with two beams this
    is the minimal model of a two-mode squeezed vacuum for CSI purposes. The
    three-beam variant feeds the tripartite CSI run.
    """

    n_bar: float
    n_beams: int = 2

    def validate(self) -> None:
        if not (0.0 < self.n_bar < math.inf):
            raise InvalidParameterError(f"n_bar must be finite and > 0, got {self.n_bar}")
        if not (isinstance(self.n_beams, numbers.Integral) and self.n_beams >= 2):
            raise InvalidParameterError("pair source needs an integer of at least 2 beams")


def state_photon_pmf(state: MultimodeState) -> np.ndarray:
    """Exact pmf of the per-pulse total photon number, up to a PMF_TAIL tail.

    The product of the per-mode Gaussian generating functions is sampled at L
    roots of unity and inverted by FFT. The inversion folds the mass above L
    onto 0..L-1, so L starts from the mean and variance and doubles until the
    Chernoff bound on P(n >= L) is below PMF_TAIL; the closed form is exact
    inside the radius of convergence, where the bound is taken. Raises
    TruncationError if that needs more than PMF_FFT_CEILING points.
    """
    moments = per_mode_moments(state)
    mean = sum(m.m1 for m in moments)
    var = sum(m.m2 + m.m1 - m.m1 * m.m1 for m in moments)
    radius = photon_pgf_radius(state)
    if math.isinf(radius):
        x = 1.0 + 2.0 ** np.arange(-20.0, 60.0)
    else:
        t = np.concatenate((2.0 ** -np.arange(1.0, 40.0), 1.0 - 2.0 ** -np.arange(2.0, 40.0)))
        x = 1.0 + (radius - 1.0) * t
    log_pgf_x = photon_log_pgf(state, 1.0 - x)
    length = 64
    while length < mean + 16.0 * math.sqrt(var) + 16.0:
        length *= 2
    # Chernoff: P(n >= L) <= G(x) x^-L for every x > 1 inside the radius
    while np.min(log_pgf_x - length * np.log(x)) > math.log(PMF_TAIL):
        if length >= PMF_FFT_CEILING:
            raise TruncationError(
                f"photon-number tail not below {PMF_TAIL} within {PMF_FFT_CEILING} points"
            )
        length *= 2
    z = np.exp(2j * np.pi * np.arange(length) / length)
    p = np.fft.fft(np.exp(photon_log_pgf(state, 1.0 - z))).real / length
    p = np.maximum(p, 0.0)  # rounding noise around the zeros of the far tail
    tail = np.cumsum(p[::-1])[::-1]  # tail[n] = mass at n and above
    p = p[: max(int(np.count_nonzero(tail > PMF_TAIL)), 1)]
    return p / p.sum()


def thermal_pmf(n_th: float, dim: int) -> np.ndarray:
    """Geometric photon-number pmf p(n) = n_th^n / (1+n_th)^(n+1), length dim."""
    if n_th <= 0.0:
        p = np.zeros(dim)
        p[0] = 1.0
        return p
    n = np.arange(dim)
    # log space avoids overflow of n_th**n at large dim
    return np.exp(n * np.log(n_th) - (n + 1) * np.log1p(n_th))


def _pair_pmf(cfg: PairSourceConfig) -> np.ndarray:
    """Geometric per-beam pmf of the pair source, up to a PMF_TAIL tail."""
    q = cfg.n_bar / (1.0 + cfg.n_bar)
    p = thermal_pmf(cfg.n_bar, int(math.ceil(math.log(PMF_TAIL) / math.log(q))))
    return p / p.sum()


def _as_state(source) -> MultimodeState:
    if isinstance(source, HyperParams):
        return expand_hyperparams(source)
    if isinstance(source, MultimodeState):
        return source
    raise InvalidParameterError(f"unsupported source {type(source).__name__}")


@dataclass(frozen=True)
class ClickLaw:
    """Law of one clicking pulse, built once per run by click_law.

    cdf[n] is the probability, given a click, that each beam holds at most n
    photons; heard[n] = 1 - (1-eta)^(Bn) is the probability that at least one
    of the Bn photons of a pulse is detected.
    """

    p_click: float
    n_beams: int
    eta: float
    heard: np.ndarray
    cdf: np.ndarray


def click_law(pmf, n_beams: int, eta: float) -> ClickLaw:
    """Click law of B = n_beams beams that each hold n ~ pmf photons, thinned by eta."""
    pmf = np.asarray(pmf, dtype=float)
    trials = n_beams * np.arange(pmf.size)
    heard = -np.expm1(trials * math.log1p(-eta)) if eta < 1.0 else (trials > 0).astype(float)
    cdf = np.cumsum(pmf * heard)
    p_click = min(float(cdf[-1]), 1.0) if cdf.size else 0.0  # 1 - P(no photon detected)
    if p_click > 0.0:
        cdf /= cdf[-1]
    return ClickLaw(p_click, n_beams, eta, heard, cdf)


def _detected_photons(law: ClickLaw, n: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """K ~ Binomial(Bn, eta) given K >= 1, for pulses with n photons per beam.

    The first detected photon J is geometric truncated to [1, Bn], drawn by
    inverse CDF; the Bn - J photons after it are detected freely.
    """
    trials = law.n_beams * n
    if law.eta >= 1.0:
        return trials
    u = rng.random(n.size)
    first = np.ceil(np.log1p(-u * law.heard[n]) / math.log1p(-law.eta))
    first = np.clip(first, 1, trials).astype(np.int64)
    return 1 + rng.binomial(trials - first, law.eta)


def _clicking_pulses(p_click: float, n_pulses: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of the clicking pulses among n_pulses, from geometric gaps."""
    if p_click <= 0.0 or n_pulses <= 0:
        return np.empty(0, dtype=np.int64)
    expect = n_pulses * p_click
    chunk = int(expect + 6.0 * math.sqrt(expect) + 16.0)
    pos = np.cumsum(rng.geometric(p_click, chunk)) - 1
    while pos[-1] < n_pulses:
        pos = np.concatenate((pos, pos[-1] + np.cumsum(rng.geometric(p_click, chunk))))
    return pos[: int(np.searchsorted(pos, n_pulses))]


def _split_beams(n: np.ndarray, k: np.ndarray, n_beams: int, rng: np.random.Generator) -> np.ndarray:
    """Hypergeometric split of k detected photons over beams holding n each."""
    shares = np.empty((k.size, n_beams), dtype=np.int64)
    rem = k
    for b in range(n_beams - 1):
        take = rng.hypergeometric(n, (n_beams - 1 - b) * n, rem)
        shares[:, b] = take
        rem = rem - take
    shares[:, -1] = rem
    return shares


def _split_arms(
    kept: np.ndarray, splitter: tuple[float, ...], rng: np.random.Generator
) -> np.ndarray:
    """Multinomial split of kept photons across arms, per pulse."""
    arms = np.empty((kept.size, len(splitter)), dtype=np.int64)
    rem = kept
    p_left = 1.0
    for a, frac in enumerate(splitter[:-1]):
        take = rng.binomial(rem, min(max(frac / p_left, 0.0), 1.0))
        arms[:, a] = take
        rem = rem - take
        p_left -= frac
    arms[:, -1] = rem
    return arms


def sample_clicks(
    law: ClickLaw,
    optics: OpticsConfig,
    rng: np.random.Generator,
    n_pulses: int,
    start_pulse: int = 0,
) -> list[np.ndarray]:
    """Draw the clicks of pulses start_pulse .. start_pulse + n_pulses - 1.

    Returns one unsorted int64 ps array of click times per channel (channels
    beam-major). Dead-time suppression is applied by the caller on the
    assembled streams so block boundaries cannot leak clicks.
    """
    optics.validate()
    pulses = start_pulse + _clicking_pulses(law.p_click, n_pulses, rng)
    n = np.searchsorted(law.cdf, rng.random(pulses.size), side="right")
    shares = _split_beams(n, _detected_photons(law, n, rng), law.n_beams, rng)
    del n  # the arm split below is the block's peak; it needs only shares and base
    base = pulses.astype(np.float64)
    del pulses
    base *= optics.period_ps
    base = np.round(base, out=base).astype(np.int64)
    times = []
    for beam in range(law.n_beams):
        arms = _split_arms(shares[:, beam], optics.splitter, rng)
        for a in range(optics.n_arms):
            idx = np.flatnonzero(arms[:, a])
            t = base[idx]
            if optics.jitter_sigma_ps > 0:
                jitter = rng.normal(0.0, optics.jitter_sigma_ps, idx.size)
                t = t + np.round(jitter).astype(np.int64)
            times.append(t)
    return times


def _suppress_dead_time(t_sorted: np.ndarray, dead_ps: float) -> np.ndarray:
    """Drop every tag closer than dead_ps after the last kept tag of its channel.

    A tag at least dead_ps after its predecessor heads a run and is kept. In
    each run the tag kept after t[k] is the first at or after t[k] + dead_ps,
    so all runs jump at once, one kept tag per pass, until each run ends.
    """
    if dead_ps <= 0.0 or t_sorted.size == 0:
        return t_sorted
    if dead_ps > t_sorted[-1] - t_sorted[0]:
        return t_sorted[:1]
    dead = math.ceil(dead_ps)  # tags are whole ps: gap >= dead_ps iff gap >= dead
    k = np.concatenate(([0], np.flatnonzero(np.diff(t_sorted) >= dead) + 1))  # run heads
    end = np.append(k[1:], t_sorted.size)  # each run's end
    keep = np.zeros(t_sorted.size, dtype=bool)
    while k.size:
        keep[k] = True
        k = np.searchsorted(t_sorted, t_sorted[k] + dead, side="left")
        inside = k < end
        k, end = k[inside], end[inside]
    return t_sorted[keep]


def generate_timetags(
    source,
    optics: OpticsConfig,
    seed: int,
    path,
    sidecar_path=None,
) -> dict:
    """Simulate a full acquisition and write the tag file (CSV if path ends in .csv).

    source is a MultimodeState, HyperParams, or PairSourceConfig. For a pair
    source the same photon number enters every beam, and each beam gets its
    own splitter copy; channels are numbered beam-major. Only clicking pulses
    are drawn (see the module docstring), block by block, with the blocks
    spread over the process's cores. Returns the sidecar dict (true
    parameters, analytic targets, measured click rates).
    """
    optics.validate()
    pair = isinstance(source, PairSourceConfig)
    if pair:
        source.validate()
        law = click_law(_pair_pmf(source), source.n_beams, optics.eta)
    else:
        state = _as_state(source)
        law = click_law(state_photon_pmf(state), 1, optics.eta)
    n_channels = law.n_beams * optics.n_arms

    n_blocks = -(-optics.n_pulses // _BLOCK_PULSES)
    seeds = np.random.SeedSequence(seed).spawn(n_blocks)

    def draw_block(b: int) -> list[np.ndarray]:
        start = b * _BLOCK_PULSES
        size = min(_BLOCK_PULSES, optics.n_pulses - start)
        return sample_clicks(law, optics, np.random.default_rng(seeds[b]), size, start)

    blocks = parallel_map(draw_block, range(n_blocks))
    streams, clicks_total = [], []
    for ch in range(n_channels):
        t = np.concatenate([np.empty(0, dtype=np.int64)] + [times[ch] for times in blocks])
        for times in blocks:
            times[ch] = None  # a click is held once: in its block or in its channel
        # blocks come in pulse order, each sorted up to jitter: a merge sort's best case
        t.sort(kind="stable")
        clicks_total.append(t.size)
        streams.append(_suppress_dead_time(t, optics.dead_time_ps))
    writer = write_tags_csv if str(path).endswith(".csv") else write_tags
    writer(path, streams, channel_count=n_channels)

    sidecar = {
        "seed": int(seed),
        "n_pulses": int(optics.n_pulses),
        "n_channels": n_channels,
        "optics": asdict(optics),
        "clicks_per_pulse_per_channel": [
            c / optics.n_pulses if optics.n_pulses else 0.0 for c in clicks_total
        ],
    }
    if pair:
        sidecar["source"] = {"kind": "pair", **asdict(source)}
        sidecar["truth"] = {
            "g2_auto": 2.0,
            "g2_cross": 2.0 + 1.0 / source.n_bar,
            "csi_r": (2.0 + 1.0 / source.n_bar) ** 2 / 4.0,
        }
    else:
        s1, g2, g3 = broadband_moments(state)
        sidecar["source"] = {
            "kind": "state",
            "n_modes": len(state.modes),
        }
        sidecar["truth"] = {"mean_photon": s1, "g2": g2, "g3": g3}
    if sidecar_path is not None:
        with open(sidecar_path, "w") as f:
            json.dump(sidecar, f, indent=2, sort_keys=True)
    return sidecar


# ---------------------------------------------------------------------------
# analytic click-level expectations (binary detectors)

def _gen_fn(pmf: np.ndarray, x: float) -> float:
    """E[(1-x)^n] for the pmf; click probability of an arm is 1 - E[(1-q)^n]."""
    n = np.arange(pmf.size)
    return float(np.dot(pmf, (1.0 - x) ** n))


def click_expectations(pmf: np.ndarray, arm_probs) -> dict:
    """Exact click statistics for one beam split across arms.

    arm_probs are the per-arm photon detection probabilities (eta times the
    splitter ratio). Joint no-click probabilities follow from the generating
    function E[(1-x)^n] with x the summed arm probabilities; pair and triple
    click probabilities come out by inclusion-exclusion over the first two
    (three) arms.
    """
    q = list(arm_probs)
    singles = [1.0 - _gen_fn(pmf, qi) for qi in q]
    out = {"singles": singles}
    if len(q) >= 2:
        f_a, f_b = _gen_fn(pmf, q[0]), _gen_fn(pmf, q[1])
        f_ab = _gen_fn(pmf, q[0] + q[1])
        pair = 1.0 - f_a - f_b + f_ab
        out["pair"] = pair
        out["g2_click"] = pair / (singles[0] * singles[1])
    if len(q) >= 3:
        f_c = _gen_fn(pmf, q[2])
        f_ac = _gen_fn(pmf, q[0] + q[2])
        f_bc = _gen_fn(pmf, q[1] + q[2])
        f_abc = _gen_fn(pmf, q[0] + q[1] + q[2])
        f_ab = _gen_fn(pmf, q[0] + q[1])
        triple = 1.0 - (f_a + f_b + f_c) + (f_ab + f_ac + f_bc) - f_abc
        out["triple"] = triple
        out["g3_click"] = triple / (singles[0] * singles[1] * singles[2])
    return out


def pair_source_click_expectations(cfg: PairSourceConfig, optics: OpticsConfig) -> dict:
    """Exact click-level auto/cross g2 and R for the correlated-beam source.

    Same-beam detectors share a multinomial split (a photon avoids both arms
    with probability 1 - q1 - q2); detectors on different beams thin the same
    n independently (joint no-click factor (1-q)(1-q') per photon).
    """
    cfg.validate()
    optics.validate()
    pmf = _pair_pmf(cfg)
    q1 = optics.eta * optics.splitter[0]
    q2 = optics.eta * optics.splitter[1] if optics.n_arms > 1 else q1
    s1 = 1.0 - _gen_fn(pmf, q1)
    s2 = 1.0 - _gen_fn(pmf, q2)
    auto = 1.0 - _gen_fn(pmf, q1) - _gen_fn(pmf, q2) + _gen_fn(pmf, q1 + q2)
    g2_auto = auto / (s1 * s2)
    n = np.arange(pmf.size)
    f_cross = float(np.dot(pmf, ((1.0 - q1) * (1.0 - q1)) ** n))
    cross = 1.0 - 2.0 * _gen_fn(pmf, q1) + f_cross
    g2_cross = cross / (s1 * s1)
    return {
        "g2_auto": g2_auto,
        "g2_cross": g2_cross,
        "csi_r": g2_cross * g2_cross / (g2_auto * g2_auto),
        "pair_prob_auto": auto,
        "pair_prob_cross": cross,
    }

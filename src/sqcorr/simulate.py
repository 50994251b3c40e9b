"""Synthetic pulsed-experiment generator.

A source puts n photons into each of B beams in one pulse: B = 1 for a
multimode state (n is its total photon number), B = n_beams for the pair
source (geometric n, the same in every beam). Every photon is detected
independently with the end-to-end efficiency eta and goes to arm a of its
beam with the splitter ratio f_a; an arm clicks when it gets at least one
(SPADs report only presence). Channel b * n_arms + a is arm a of beam b.
Click times are the pulse grid plus Gaussian jitter.

Only the set of channels that click reaches the tag file, so each clicking
pulse draws that set in one step from its exact law, built once per run by
click_patterns. A channel set U stays silent with probability
N(U) = E[(1 - s_U)^n], 1 - s_U = prod_b (1 - eta sum_{a in U, beam b} f_a),
a closed form of the source's generating function (states.photon_log_pgf,
or 1/(1 + n_bar s) for the pair source). From D(U) = 1 - N(U), one superset
Moebius transform over the 2^C channel sets gives the probability of every
exact pattern, with rounding of order 2^C eps p_click; C is at most
MAX_CHANNELS. Clicking pulses are Bernoulli(p_click), p_click = D(all
channels), with indices from geometric gaps; each draws its pattern with one
uniform searched in the cumulative table.
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
# click_patterns tabulates all 2^C channel sets: 65,536 at this cap
MAX_CHANNELS = 16

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


def _pair_clicked(n_bar: float, s):
    """1 - E[(1-s)^n] = n_bar s / (1 + n_bar s) for geometric n of mean n_bar."""
    return n_bar * s / (1.0 + n_bar * s)


def _as_state(source) -> MultimodeState:
    if isinstance(source, HyperParams):
        return expand_hyperparams(source)
    if isinstance(source, MultimodeState):
        return source
    raise InvalidParameterError(f"unsupported source {type(source).__name__}")


@dataclass(frozen=True)
class ClickPatterns:
    """Law of one pulse's click pattern, built once per run by click_patterns.

    Bit c of a pattern is channel c. prob[S] is the probability that exactly
    the channels of S click (prob[0] = 0), p_click the probability that any
    does, and cdf the cumulative prob, normalized to end at 1.
    """

    p_click: float
    prob: np.ndarray
    cdf: np.ndarray

    @property
    def n_channels(self) -> int:
        return self.prob.size.bit_length() - 1


def click_patterns(clicked, n_beams: int, optics: OpticsConfig) -> ClickPatterns:
    """Exact click-pattern law of n_beams beams, each behind optics' splitter.

    clicked(s) = 1 - E[(1-s)^n], over an array of s in [0, 1], is the chance
    that at least one of n photons survives a thinning to s; every beam holds
    the same n. Raises InvalidParameterError above MAX_CHANNELS channels, and
    TruncationError if rounding leaves a pattern probability below
    -2^C 8 eps p_click (entries above that are clamped to 0).
    """
    n_channels = n_beams * optics.n_arms
    if n_channels > MAX_CHANNELS:
        raise InvalidParameterError(
            f"{n_beams} beams x {optics.n_arms} arms = {n_channels} channels; "
            f"the click-pattern table holds at most {MAX_CHANNELS}")
    arms = np.arange(1 << optics.n_arms)
    ratio = sum(((arms >> a) & 1) * f for a, f in enumerate(optics.splitter))
    caught = np.minimum(optics.eta * ratio, 1.0)  # a photon clicks one of these arms
    log_kept = np.full(caught.shape, -np.inf)  # -inf where every photon is caught
    np.log1p(-caught, out=log_kept, where=caught < 1.0)
    log_kept_all = log_kept
    for _ in range(n_beams - 1):  # later beams take the higher bits
        log_kept_all = np.add.outer(log_kept, log_kept_all).ravel()
    d = clicked(-np.expm1(log_kept_all))  # d[U]: some channel of U clicks
    p_click = max(float(d[-1]), 0.0)
    for c in range(n_channels):
        half = d.reshape(-1, 2, 1 << c)
        half[:, 0] -= half[:, 1]
    prob = -d[::-1]  # -d[R] is P(exactly the channels outside R click), R != all
    prob[0] = 0.0
    floor = -(2.0**n_channels) * 8.0 * np.finfo(float).eps * p_click
    if prob.min() < floor:
        raise TruncationError(f"click-pattern probability {prob.min():.3g} below {floor:.3g}")
    np.maximum(prob, 0.0, out=prob)
    cdf = np.cumsum(prob)
    if cdf[-1] > 0.0:
        cdf /= cdf[-1]
    return ClickPatterns(p_click, prob, cdf)


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


def sample_clicks(
    law: ClickPatterns,
    optics: OpticsConfig,
    rng: np.random.Generator,
    n_pulses: int,
    start_pulse: int = 0,
) -> list[np.ndarray]:
    """Draw the clicks of pulses start_pulse .. start_pulse + n_pulses - 1.

    Returns one unsorted int64 ps array of click times per channel. The caller
    validates optics once per run, and applies dead time on the assembled
    streams so block boundaries cannot leak clicks.
    """
    pulses = start_pulse + _clicking_pulses(law.p_click, n_pulses, rng)
    # uint16 holds MAX_CHANNELS bits, and a bool mask is the fastest to search
    pattern = np.searchsorted(law.cdf, rng.random(pulses.size), side="right").astype(np.uint16)
    base = pulses.astype(np.float64)
    del pulses
    base *= optics.period_ps
    base = np.round(base, out=base).astype(np.int64)
    times = []
    for c in range(law.n_channels):
        idx = np.flatnonzero((pattern & (1 << c)) != 0)
        t = base[idx]
        if optics.jitter_sigma_ps > 0:
            t += np.round(rng.normal(0.0, optics.jitter_sigma_ps, idx.size)).astype(np.int64)
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
        law = click_patterns(lambda s: _pair_clicked(source.n_bar, s), source.n_beams, optics)
    else:
        state = _as_state(source)
        law = click_patterns(lambda s: -np.expm1(photon_log_pgf(state, s)), 1, optics)
    n_channels = law.n_channels

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
    n independently (joint no-click factor (1-q)(1-q') per photon). Each
    no-click probability is the geometric closed form 1/(1 + n_bar s).
    """
    cfg.validate()
    optics.validate()
    q1 = optics.eta * optics.splitter[0]
    q2 = optics.eta * optics.splitter[1] if optics.n_arms > 1 else q1
    s1 = _pair_clicked(cfg.n_bar, q1)
    s2 = _pair_clicked(cfg.n_bar, q2)
    auto = s1 + s2 - _pair_clicked(cfg.n_bar, q1 + q2)
    g2_auto = auto / (s1 * s2)
    cross = 2.0 * s1 - _pair_clicked(cfg.n_bar, q1 * (2.0 - q1))
    g2_cross = cross / (s1 * s1)
    return {
        "g2_auto": g2_auto,
        "g2_cross": g2_cross,
        "csi_r": g2_cross * g2_cross / (g2_auto * g2_auto),
        "pair_prob_auto": auto,
        "pair_prob_cross": cross,
    }

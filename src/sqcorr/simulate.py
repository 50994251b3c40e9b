"""Synthetic pulsed-experiment generator.

Per pulse, a photon number is drawn from the source statistics, thinned
binomially by the end-to-end efficiency, split multinomially across detector
arms, and turned into binary clicks (SPADs report only presence). Click times
are the pulse grid plus Gaussian jitter. Pulses are generated in fixed-size
blocks seeded from spawned sub-streams, so output files are bit-identical for
a given (config, seed) regardless of how generation is scheduled.

Binary detectors bias click-based correlation estimates at O(click
probability); click_expectations provides the exact analytic click-level
values so tests can separate detector physics from estimator errors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .constants import DEFAULT_JITTER_SIGMA_PS, DEFAULT_REP_RATE_HZ
from .exceptions import InvalidParameterError
from .fock import photon_number_pmf, suggest_start_dim, thermal_pmf
from .states import (
    HyperParams,
    ModeParams,
    MultimodeState,
    broadband_moments,
    expand_hyperparams,
)
from .tags import write_tags, write_tags_csv

_BLOCK_PULSES = 1 << 20
_PMF_TAIL = 1e-14


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
        if not (0.0 < self.eta <= 1.0):
            raise InvalidParameterError(f"eta must lie in (0, 1], got {self.eta}")
        if self.n_pulses < 0:
            raise InvalidParameterError("n_pulses must be >= 0")
        if len(self.splitter) < 1 or any(p < 0.0 or p > 1.0 for p in self.splitter):
            raise InvalidParameterError(f"bad splitter ratios {self.splitter}")
        if abs(sum(self.splitter) - 1.0) > 1e-9:
            raise InvalidParameterError("splitter ratios must sum to 1")
        if self.jitter_sigma_ps < 0.0 or self.dead_time_ps < 0.0:
            raise InvalidParameterError("jitter and dead time must be >= 0")
        if self.rep_rate_hz <= 0.0:
            raise InvalidParameterError("rep_rate_hz must be > 0")

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
        if not (self.n_bar > 0.0):
            raise InvalidParameterError(f"n_bar must be > 0, got {self.n_bar}")
        if self.n_beams < 2:
            raise InvalidParameterError("pair source needs at least 2 beams")


def _trimmed_mode_pmf(mode: ModeParams, tail: float = _PMF_TAIL) -> np.ndarray:
    max_n = 4 * suggest_start_dim(mode)
    p = photon_number_pmf(mode, max_n)
    cum = np.cumsum(p)
    k = int(np.searchsorted(cum, 1.0 - tail)) + 1
    p = p[: max(k, 1)]
    return p / p.sum()


def state_photon_pmf(state: MultimodeState, tail: float = _PMF_TAIL) -> np.ndarray:
    """Exact pmf of the per-pulse total photon number (convolution over modes).

    The total over independent modes is distributed as the convolution of the
    per-mode pmfs, so one draw from this pmf is statistically identical to
    summing d independent per-mode draws.
    """
    state.validate()
    total = np.array([1.0])
    for mode in state.modes:
        p = _trimmed_mode_pmf(mode, tail)
        if p.size > 1:
            total = np.convolve(total, p)
    cum = np.cumsum(total)
    k = int(np.searchsorted(cum, 1.0 - 1e-15)) + 1
    total = total[: max(k, 1)]
    return total / total.sum()


def _as_state(source) -> MultimodeState:
    if isinstance(source, HyperParams):
        return expand_hyperparams(source)
    if isinstance(source, MultimodeState):
        return source
    raise InvalidParameterError(f"unsupported source {type(source).__name__}")


def _draw_from_pmf(pmf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(n), side="right").astype(np.int64)


def sample_pulse_counts(
    source, n_pulses: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-pulse photon numbers for a multimode state (or hyperparameters)."""
    pmf = state_photon_pmf(_as_state(source))
    return _draw_from_pmf(pmf, n_pulses, rng)


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


def optics_chain(
    counts: np.ndarray,
    config: OpticsConfig,
    rng: np.random.Generator,
    start_pulse: int = 0,
):
    """Propagate per-pulse photon counts to clicks and jittered timestamps.

    Returns (clicks, times): clicks is a boolean (n_pulses, n_arms) array and
    times a list of unsorted int64 ps arrays, one per arm. Dead-time
    suppression is applied by the caller on the assembled streams so block
    boundaries cannot leak clicks.
    """
    config.validate()
    counts = np.asarray(counts, dtype=np.int64)
    kept = rng.binomial(counts, config.eta)
    arms = _split_arms(kept, config.splitter, rng)
    clicks = arms > 0
    base = np.round(
        (start_pulse + np.arange(counts.size, dtype=np.float64)) * config.period_ps
    ).astype(np.int64)
    times = []
    for a in range(config.n_arms):
        idx = np.flatnonzero(clicks[:, a])
        jit = rng.normal(0.0, config.jitter_sigma_ps, idx.size) if config.jitter_sigma_ps > 0 else 0.0
        times.append(base[idx] + np.round(jit).astype(np.int64))
    return clicks, times


def _suppress_dead_time(t_sorted: np.ndarray, dead_ps: float) -> np.ndarray:
    if dead_ps <= 0.0 or t_sorted.size == 0:
        return t_sorted
    keep = np.ones(t_sorted.size, dtype=bool)
    last = t_sorted[0]
    for i in range(1, t_sorted.size):
        if t_sorted[i] - last < dead_ps:
            keep[i] = False
        else:
            last = t_sorted[i]
    return t_sorted[keep]


def _pair_beam_counts(
    cfg: PairSourceConfig, n_pulses: int, rng: np.random.Generator
) -> np.ndarray:
    # geometric on {0, 1, ...}: success prob 1/(1+n_bar)
    return (rng.geometric(1.0 / (1.0 + cfg.n_bar), size=n_pulses) - 1).astype(np.int64)


def generate_timetags(
    source,
    optics: OpticsConfig,
    seed: int,
    path,
    sidecar_path=None,
) -> dict:
    """Simulate a full acquisition and write the binary tag file.

    source is a MultimodeState, HyperParams, or PairSourceConfig. For a pair
    source the same drawn photon number enters every beam, and each beam gets
    its own splitter copy; channels are numbered beam-major. Returns the
    sidecar dict (true parameters, analytic targets, measured click rates).
    """
    optics.validate()
    pair = isinstance(source, PairSourceConfig)
    if pair:
        source.validate()
        n_beams = source.n_beams
        pmf = None
    else:
        state = _as_state(source)
        pmf = state_photon_pmf(state)
        n_beams = 1
    n_channels = n_beams * optics.n_arms

    n_blocks = max(1, -(-optics.n_pulses // _BLOCK_PULSES))
    seeds = np.random.SeedSequence(seed).spawn(n_blocks)
    per_channel = [[] for _ in range(n_channels)]
    clicks_total = np.zeros(n_channels, dtype=np.int64)
    for b in range(n_blocks):
        rng = np.random.default_rng(seeds[b])
        start = b * _BLOCK_PULSES
        size = min(_BLOCK_PULSES, optics.n_pulses - start)
        if size <= 0:
            break
        if pair:
            counts = _pair_beam_counts(source, size, rng)
            for beam in range(n_beams):
                clicks, times = optics_chain(counts, optics, rng, start_pulse=start)
                for a in range(optics.n_arms):
                    ch = beam * optics.n_arms + a
                    per_channel[ch].append(times[a])
                    clicks_total[ch] += int(clicks[:, a].sum())
        else:
            counts = _draw_from_pmf(pmf, size, rng)
            clicks, times = optics_chain(counts, optics, rng, start_pulse=start)
            for a in range(optics.n_arms):
                per_channel[a].append(times[a])
                clicks_total[a] += int(clicks[:, a].sum())

    streams = []
    for parts in per_channel:
        t = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
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
    n_max = int(max(64.0, cfg.n_bar * 50))
    pmf = thermal_pmf(cfg.n_bar, n_max + 1)
    pmf /= pmf.sum()
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

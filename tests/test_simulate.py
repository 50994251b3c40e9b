"""Synthetic tag generation against exact click-level analytics."""
import ast
import inspect
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sqcorr import (
    HyperParams,
    InvalidParameterError,
    ModeParams,
    MultimodeState,
    OpticsConfig,
    PairSourceConfig,
    TruncationError,
    broadband_moments,
    click_expectations,
    expand_hyperparams,
    generate_timetags,
    load_tags,
    pair_source_click_expectations,
    state_photon_pmf,
)
from sqcorr import simulate
from sqcorr.fock import photon_number_pmf, thermal_pmf
from sqcorr.simulate import (
    _BLOCK_PULSES,
    _pair_clicked,
    _suppress_dead_time,
    click_patterns,
    sample_clicks,
)
from sqcorr.states import photon_log_pgf


def test_state_pmf_single_thermal_is_geometric():
    p = state_photon_pmf(MultimodeState((ModeParams(n_th=0.4),)))
    np.testing.assert_allclose(p, thermal_pmf(0.4, p.size), rtol=1e-10, atol=1e-16)


def test_state_pmf_coherent_modes_compose_poisson():
    state = MultimodeState((ModeParams(alpha=0.6), ModeParams(alpha=0.8)))
    p = state_photon_pmf(state)
    lam = 0.6**2 + 0.8**2
    n = np.arange(p.size)
    want = np.exp(-lam) * lam**n / [math.factorial(int(k)) for k in n]
    # the pmf drops a tail of at most 1e-15 and is renormalized, so its far
    # end is only accurate to that budget
    np.testing.assert_allclose(p, want, rtol=2e-4, atol=1e-12)
    np.testing.assert_allclose(p[:10], want[:10], rtol=1e-9)


def test_state_pmf_moments_match_broadband(h4):
    small = HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=10)
    state = expand_hyperparams(small)
    p = state_photon_pmf(state)
    n = np.arange(p.size, dtype=float)
    s1, g2, _ = broadband_moments(state)
    assert float(np.dot(p, n)) == pytest.approx(s1, rel=1e-9)
    assert float(np.dot(p, n * (n - 1))) == pytest.approx(g2 * s1 * s1, rel=1e-8)


def test_sample_rejects_unknown_source(tmp_path):
    with pytest.raises(InvalidParameterError):
        generate_timetags(object(), OpticsConfig(eta=0.5, n_pulses=10), 0, tmp_path / "t.bin")


@pytest.mark.parametrize(
    "modes",
    [
        (ModeParams(n_th=0.4),),
        (ModeParams(alpha=0.9 + 0.3j),),
        (ModeParams(r=0.9),),
        (ModeParams(r=0.5, theta=0.7, alpha=0.6 - 0.4j, n_th=0.2),),
        (ModeParams(r=0.3, theta=-1.2, alpha=0.5j, n_th=0.05),
         ModeParams(r=0.2, theta=2.0, alpha=-0.3, n_th=0.0)),
    ],
)
def test_state_pmf_matches_fock_oracle(modes):
    """The generating-function FFT agrees with the convolved number-basis pmfs."""
    p = state_photon_pmf(MultimodeState(modes))
    oracle = np.array([1.0])
    for mode in modes:
        oracle = np.convolve(oracle, photon_number_pmf(mode, 200))
    assert oracle[p.size:].sum() < 1e-14
    np.testing.assert_allclose(p, oracle[: p.size], rtol=0, atol=1e-12)


def test_state_pmf_h4_matches_fock_oracle(h4):
    state = expand_hyperparams(HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=6))
    p = state_photon_pmf(state)
    oracle = np.array([1.0])
    for mode in state.modes:
        oracle = np.convolve(oracle, photon_number_pmf(mode, 120))
    assert oracle[p.size:].sum() < 1e-14
    np.testing.assert_allclose(p, oracle[: p.size], rtol=0, atol=1e-12)


def test_state_pmf_raises_at_fft_ceiling(monkeypatch):
    state = MultimodeState((ModeParams(n_th=40.0),))
    assert state_photon_pmf(state).sum() == pytest.approx(1.0)
    monkeypatch.setattr("sqcorr.simulate.PMF_FFT_CEILING", 128)
    with pytest.raises(TruncationError):
        state_photon_pmf(state)


def _pmf_clicked(pmf):
    """clicked(s) = 1 - E[(1-s)^n] of a photon-number pmf, summed term by term."""
    pmf = np.asarray(pmf, dtype=float)
    n = np.arange(pmf.size)[:, None]
    return lambda s: pmf @ (1.0 - (1.0 - np.asarray(s)[None, :]) ** n)


def _brute_force_patterns(pmf, n_beams, splitter, eta):
    """P(exactly the channels of S click), photon by photon over every fate."""
    n_arms = len(splitter)
    fate_prob = [eta * f for f in splitter] + [1.0 - eta]  # last fate: not detected
    out = np.zeros(1 << (n_beams * n_arms))
    for n, p_n in enumerate(pmf):
        beam = np.zeros(1 << n_arms)  # one beam's pattern law given n
        for fates in itertools.product(range(n_arms + 1), repeat=n):
            mask = sum({1 << f for f in fates if f < n_arms})
            beam[mask] += math.prod(fate_prob[f] for f in fates)
        joint = np.ones(1)
        for _ in range(n_beams):  # beams are independent given n; later beams, higher bits
            joint = np.outer(beam, joint).ravel()
        out += p_n * joint
    return out


@pytest.mark.parametrize("pmf, n_beams, splitter, eta", [
    ([0.3, 0.25, 0.2, 0.15, 0.1], 1, (0.5, 0.3, 0.2), 0.4),
    ([0.3, 0.25, 0.2, 0.15, 0.1], 2, (0.6, 0.4), 0.7),
    ([0.5, 0.3, 0.2], 3, (1.0,), 0.25),
    ([0.1, 0.2, 0.3, 0.4], 3, (0.5, 0.2, 0.3), 0.05),
    ([0.4, 0.3, 0.2, 0.1], 2, (0.7, 0.0, 0.3), 1.0),
    ([0.0, 0.0, 0.0, 1.0], 1, (0.25, 0.25, 0.25, 0.25), 0.9),
], ids=["1x3", "2x2", "3x1", "3x3-dim", "2x3-lossless-empty-arm", "1x4-three-photons"])
def test_pattern_table_matches_brute_force(pmf, n_beams, splitter, eta):
    optics = OpticsConfig(eta=eta, n_pulses=1, splitter=splitter)
    law = click_patterns(_pmf_clicked(pmf), n_beams, optics)
    want = _brute_force_patterns(pmf, n_beams, splitter, eta)
    assert law.n_channels == n_beams * len(splitter)
    assert law.p_click == pytest.approx(1.0 - want[0], rel=1e-12)
    assert law.prob[0] == 0.0
    np.testing.assert_allclose(law.prob[1:], want[1:], rtol=0, atol=1e-12 * law.p_click)
    np.testing.assert_allclose(law.cdf, np.cumsum(law.prob) / law.prob.sum(), rtol=1e-14)
    assert law.cdf[-1] == 1.0


def test_pattern_table_matches_click_expectations_h4(h4):
    state = expand_hyperparams(h4)
    q = 0.045 / 3.0
    optics = OpticsConfig(eta=0.045, n_pulses=1, splitter=(1 / 3, 1 / 3, 1 / 3))
    law = click_patterns(lambda s: -np.expm1(photon_log_pgf(state, s)), 1, optics)
    exp = click_expectations(state_photon_pmf(state), [q, q, q])
    tol = 1e-12 * law.p_click
    masks = np.arange(8)
    for c, single in enumerate(exp["singles"]):
        assert abs(law.prob[masks & (1 << c) > 0].sum() - single) < tol
    assert abs(law.prob[3] + law.prob[7] - exp["pair"]) < tol
    assert abs(law.prob[7] - exp["triple"]) < tol


def test_pattern_table_lossless_zero_arm_and_vacuum():
    """eta = 1 with an empty arm, and a vacuum source: exact zeros, no log of zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lossless = OpticsConfig(eta=1.0, n_pulses=1, splitter=(1.0, 0.0))
        law = click_patterns(_pmf_clicked([0.0, 1.0]), 1, lossless)
        assert law.p_click == 1.0
        np.testing.assert_array_equal(law.prob, [0.0, 1.0, 0.0, 0.0])
        pair = click_patterns(lambda s: _pair_clicked(0.7, s), 2, lossless)
        assert pair.p_click == pytest.approx(0.7 / 1.7, rel=1e-15)
        # only arm 0 of each beam can click, and both beams hold the same n
        assert pair.prob[0b0101] == pytest.approx(pair.p_click, rel=1e-15)
        assert np.count_nonzero(pair.prob) == 1
        state = MultimodeState((ModeParams(r=0.4, alpha=0.3, n_th=0.1),))
        law = click_patterns(lambda s: -np.expm1(photon_log_pgf(state, s)), 1, lossless)
        assert law.prob[2] == 0.0 and law.prob[3] == 0.0
        vacuum = MultimodeState((ModeParams(),))
        optics = OpticsConfig(eta=1.0, n_pulses=5000, splitter=(0.5, 0.5))
        law = click_patterns(lambda s: -np.expm1(photon_log_pgf(vacuum, s)), 1, optics)
        assert law.p_click == 0.0 and not law.prob.any()
        times = sample_clicks(law, optics, np.random.default_rng(3), optics.n_pulses)
    assert [t.size for t in times] == [0, 0]


def test_pattern_table_clamps_rounding_and_raises_beyond_it():
    """Both arms of a one-photon pulse never click; 2 eps of noise in D is clamped."""
    optics = OpticsConfig(eta=1.0, n_pulses=1, splitter=(0.5, 0.5))
    one = _pmf_clicked([0.4, 0.6])
    eps = np.finfo(float).eps
    law = click_patterns(lambda s: one(s) * (1.0 + 2.0 * eps * (s == 1.0)), 1, optics)
    assert law.prob[3] == 0.0  # -1.2 eps before the clamp
    np.testing.assert_allclose(law.prob[1:3], [0.3, 0.3], rtol=1e-14)
    # D(both arms) below D(one arm) is no law: P(only arm 0) would be -1/4
    with pytest.raises(TruncationError):
        click_patterns(lambda s: np.where(s < 1.0, s, 0.25), 1, optics)


def _clicking(times, period_ps):
    """Pulse indices of jitter-free click times."""
    return np.unique(np.round(np.concatenate(times) / period_ps).astype(np.int64))


def test_sample_clicks_lossless_single_arm(rng):
    cfg = OpticsConfig(eta=1.0, n_pulses=20_000, splitter=(1.0,), jitter_sigma_ps=0.0)
    law = click_patterns(_pmf_clicked([0.6, 0.1, 0.3]), 1, cfg)
    times = sample_clicks(law, cfg, rng, cfg.n_pulses)
    pulses = _clicking(times, cfg.period_ps)
    assert pulses.size == times[0].size
    assert 0 <= pulses[0] and pulses[-1] < cfg.n_pulses
    np.testing.assert_array_equal(
        np.sort(times[0]), np.round(pulses * cfg.period_ps).astype(np.int64))
    sigma = math.sqrt(0.4 * 0.6 / cfg.n_pulses)
    assert pulses.size / cfg.n_pulses == pytest.approx(0.4, abs=5 * sigma)


def test_sample_clicks_single_photon_clicks_one_arm(rng):
    cfg = OpticsConfig(eta=1.0, n_pulses=5000, jitter_sigma_ps=0.0)
    times = sample_clicks(click_patterns(_pmf_clicked([0.0, 1.0]), 1, cfg), cfg, rng, 5000)
    both = np.concatenate(times)
    np.testing.assert_array_equal(
        np.sort(both), np.round(np.arange(5000) * cfg.period_ps).astype(np.int64))
    assert 0 < times[0].size < 5000


def test_sample_clicks_splitter_ratios(rng):
    cfg = OpticsConfig(eta=1.0, n_pulses=20_000, splitter=(0.5, 0.3, 0.2),
                       jitter_sigma_ps=0.0)
    n = np.arange(40)
    pmf = np.exp(-5.0) * 5.0**n / [math.factorial(int(k)) for k in n]
    times = sample_clicks(click_patterns(_pmf_clicked(pmf), 1, cfg), cfg, rng, cfg.n_pulses)
    want = click_expectations(pmf, cfg.splitter)["singles"]
    for t, p in zip(times, want):
        exp = p * cfg.n_pulses
        assert t.size == pytest.approx(exp, abs=5 * math.sqrt(exp * (1 - p)) + 1)


def test_sample_clicks_start_pulse_offset():
    cfg = OpticsConfig(eta=1.0, n_pulses=3, splitter=(1.0,), jitter_sigma_ps=0.0)
    law = click_patterns(_pmf_clicked([0.0, 1.0]), 1, cfg)
    t0 = sample_clicks(law, cfg, np.random.default_rng(1), 3)
    t7 = sample_clicks(law, cfg, np.random.default_rng(1), 3, start_pulse=7)
    want = np.round((7 + np.arange(3)) * cfg.period_ps).astype(np.int64)
    np.testing.assert_array_equal(t7[0], want)
    np.testing.assert_array_equal(_clicking(t7, cfg.period_ps), 7 + _clicking(t0, cfg.period_ps))
    assert t7[0][0] > t0[0][-1]


def test_dead_time_suppression():
    t = np.array([0, 50, 200, 260, 400], dtype=np.int64)
    np.testing.assert_array_equal(_suppress_dead_time(t, 100.0), [0, 200, 400])
    np.testing.assert_array_equal(_suppress_dead_time(t, 0.0), t)
    # a chain of close tags is measured from the last kept tag, equal stamps included
    chain = np.array([0, 60, 120, 180, 240, 240, 240, 500, 560], dtype=np.int64)
    np.testing.assert_array_equal(_suppress_dead_time(chain, 100.0), [0, 120, 240, 500])
    for few in ([], [5]):
        np.testing.assert_array_equal(_suppress_dead_time(np.array(few, dtype=np.int64), 10.0), few)


def _dead_time_loop(t_sorted, dead_ps):
    """Reference: walk the tags, keeping each at least dead_ps after the last kept."""
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


@pytest.mark.parametrize("dead", [1.0, 7.0, 100.0, 99.5, 100.25, 1e4])
def test_dead_time_matches_per_tag_loop(rng, dead):
    step = int(dead)
    for trial in range(40):
        # dense clusters (gaps 0 and 1), gaps of exactly the dead time and
        # either side of it, and long gaps that start new runs
        gaps = rng.choice([0, 1, max(step - 1, 0), step, step + 1, 3 * step + 5],
                          int(rng.integers(0, 300)),
                          p=[0.15, 0.2, 0.2, 0.2, 0.15, 0.1])
        t = np.cumsum(gaps).astype(np.int64) - int(rng.integers(0, 10**6))
        np.testing.assert_array_equal(_suppress_dead_time(t, dead), _dead_time_loop(t, dead))
    t = np.array([0, 5, 9], dtype=np.int64)
    for long in (10.0, 1e30, math.inf):
        np.testing.assert_array_equal(_suppress_dead_time(t, long), _dead_time_loop(t, long))


@pytest.mark.parametrize("n_pulses", [2 * _BLOCK_PULSES + 999, 5000])
def test_generate_bytes_independent_of_core_count(tmp_path, monkeypatch, n_pulses):
    """Three blocks and one block: the file is the same on 1, 2 and 3 cores."""
    cfg = OpticsConfig(eta=0.2, n_pulses=n_pulses, dead_time_ps=60_000.0)
    source = PairSourceConfig(n_bar=0.05, n_beams=2)
    files = []
    for cores in (1, 2, 3):
        monkeypatch.setattr("sqcorr.parallel._CORES", cores)
        path = tmp_path / f"c{cores}.bin"
        generate_timetags(source, cfg, 5, path)
        files.append(path.read_bytes())
    assert len(files[0]) > 16 + 12 * 100
    assert files[1] == files[0] and files[2] == files[0]


def test_generate_deterministic_bytes(tmp_path):
    cfg = OpticsConfig(eta=0.8, n_pulses=50_000)
    state = MultimodeState((ModeParams(n_th=0.3),))
    a, b, c = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "c.bin"
    generate_timetags(state, cfg, 42, a)
    generate_timetags(state, cfg, 42, b)
    generate_timetags(state, cfg, 43, c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generate_spans_block_boundary(tmp_path):
    n_pulses = _BLOCK_PULSES + 1234
    cfg = OpticsConfig(eta=0.5, n_pulses=n_pulses, splitter=(1.0,),
                       jitter_sigma_ps=0.0)
    state = MultimodeState((ModeParams(n_th=0.05),))
    path = tmp_path / "t.bin"
    sidecar = generate_timetags(state, cfg, 7, path, sidecar_path=tmp_path / "t.json")
    t = load_tags(path).channel(0)
    assert t[-1] > _BLOCK_PULSES * cfg.period_ps  # clicks beyond the first block
    assert t[-1] <= round((n_pulses - 1) * cfg.period_ps)
    assert np.all(np.diff(t) > 0)
    on_disk = json.loads((tmp_path / "t.json").read_text())
    assert on_disk == json.loads(json.dumps(sidecar))


def test_generation_memory_follows_clicks_not_pulses(tmp_path):
    """A dim source over three blocks allocates for its few clicks only."""
    optics = OpticsConfig(eta=0.01, n_pulses=3 * _BLOCK_PULSES)
    state = MultimodeState((ModeParams(n_th=0.01),))
    tracemalloc.start()
    try:
        sidecar = generate_timetags(state, optics, 4, tmp_path / "t.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < sum(sidecar["clicks_per_pulse_per_channel"]) * optics.n_pulses < 2000
    assert peak < _BLOCK_PULSES  # under one byte per pulse of a single block


def test_bright_pair_source_memory_linear_in_pmf(tmp_path):
    """n_bar = 100 over three beams: the law is closed-form, so brightness costs no memory."""
    src = PairSourceConfig(n_bar=100.0, n_beams=3)
    optics = OpticsConfig(eta=0.005, n_pulses=4000, jitter_sigma_ps=0.0)
    tracemalloc.start()
    try:
        sidecar = generate_timetags(src, optics, 9, tmp_path / "t.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    ref = pair_source_click_expectations(src, optics)
    single = _pair_clicked(src.n_bar, optics.eta / 2)
    for rate in sidecar["clicks_per_pulse_per_channel"]:
        assert _within_5_sigma(round(rate * optics.n_pulses), optics.n_pulses, single)
    ch = [load_tags(tmp_path / "t.bin").channel(i) for i in range(6)]
    assert _within_5_sigma(np.intersect1d(ch[0], ch[2]).size, optics.n_pulses,
                           ref["pair_prob_cross"])


def test_click_rates_match_analytics(tmp_path):
    cfg = OpticsConfig(eta=0.6, n_pulses=300_000, jitter_sigma_ps=0.0)
    state = MultimodeState((ModeParams(n_th=0.2),))
    sidecar = generate_timetags(state, cfg, 3, tmp_path / "t.bin")
    pmf = state_photon_pmf(state)
    singles = click_expectations(pmf, [0.6 * 0.5, 0.6 * 0.5])["singles"]
    for rate, p in zip(sidecar["clicks_per_pulse_per_channel"], singles):
        sigma = math.sqrt(p * (1 - p) / cfg.n_pulses)
        assert rate == pytest.approx(p, abs=5 * sigma)


def _within_5_sigma(count: int, n: int, p: float) -> bool:
    return abs(count - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))


@pytest.mark.parametrize(
    "source, eta, n_pulses",
    [
        (MultimodeState((ModeParams(n_th=0.2),)), 0.6, 300_000),
        (HyperParams(B=0.471, mu=0.4226, alpha=0.127, n_th=0.001, d=50), 0.045, 4_000_000),
    ],
    ids=["thermal", "h4"],
)
def test_generated_state_click_rates(tmp_path, source, eta, n_pulses):
    """Clicking fraction, singles, pairs and triples against the exact law."""
    optics = OpticsConfig(eta=eta, n_pulses=n_pulses, splitter=(1 / 3, 1 / 3, 1 / 3),
                          jitter_sigma_ps=0.0)
    generate_timetags(source, optics, 8, tmp_path / "t.bin")
    # without jitter every tag sits on its pulse's grid time, so equal times
    # are clicks of the same pulse
    a, b, c = (load_tags(tmp_path / "t.bin").channel(i) for i in range(3))
    pmf = state_photon_pmf(source if isinstance(source, MultimodeState)
                           else expand_hyperparams(source))
    q = eta / 3.0
    exp = click_expectations(pmf, [q, q, q])
    p0 = float(np.dot(pmf, (1.0 - eta) ** np.arange(pmf.size)))
    assert _within_5_sigma(np.union1d(np.union1d(a, b), c).size, n_pulses, 1.0 - p0)
    for t, p in zip((a, b, c), exp["singles"]):
        assert _within_5_sigma(t.size, n_pulses, p)
    assert _within_5_sigma(np.intersect1d(a, b).size, n_pulses, exp["pair"])
    assert _within_5_sigma(np.intersect1d(np.intersect1d(a, b), c).size, n_pulses,
                           exp["triple"])


def test_generated_pair_source_click_rates(tmp_path):
    src = PairSourceConfig(n_bar=0.5, n_beams=3)
    optics = OpticsConfig(eta=0.2, n_pulses=400_000, jitter_sigma_ps=0.0)
    generate_timetags(src, optics, 8, tmp_path / "t.bin")
    ch = [load_tags(tmp_path / "t.bin").channel(i) for i in range(6)]
    n = optics.n_pulses
    anyclick = ch[0]
    for t in ch[1:]:
        anyclick = np.union1d(anyclick, t)
    assert _within_5_sigma(anyclick.size, n, _pair_clicked(src.n_bar, 1.0 - (1.0 - optics.eta) ** 3))
    ref = pair_source_click_expectations(src, optics)
    single = _pair_clicked(src.n_bar, optics.eta / 2)
    for t in ch:
        assert _within_5_sigma(t.size, n, single)
    for beam in range(3):
        auto = np.intersect1d(ch[2 * beam], ch[2 * beam + 1]).size
        assert _within_5_sigma(auto, n, ref["pair_prob_auto"])
    for i, j in ((0, 2), (0, 4), (2, 4)):
        assert _within_5_sigma(np.intersect1d(ch[i], ch[j]).size, n, ref["pair_prob_cross"])


def test_generated_pair_source_pattern_frequencies(tmp_path):
    """Every pattern of a 2-beam x 2-arm pair source, counted from the tags, within 5 sigma."""
    src = PairSourceConfig(n_bar=0.8, n_beams=2)
    optics = OpticsConfig(eta=0.3, n_pulses=300_000, splitter=(0.6, 0.4), jitter_sigma_ps=0.0)
    generate_timetags(src, optics, 21, tmp_path / "t.bin")
    tags = load_tags(tmp_path / "t.bin")
    pattern = np.zeros(optics.n_pulses, dtype=np.int64)
    for c in range(4):
        pattern[np.round(tags.channel(c) / optics.period_ps).astype(np.int64)] |= 1 << c
    got = np.bincount(pattern, minlength=16)
    law = click_patterns(lambda s: _pair_clicked(src.n_bar, s), 2, optics)
    assert law.prob[1:].min() > 1e-3  # every pattern is seen often enough to count
    assert _within_5_sigma(got[0], optics.n_pulses, 1.0 - law.p_click)
    for mask in range(1, 16):
        assert _within_5_sigma(got[mask], optics.n_pulses, law.prob[mask]), mask
    # the auto and cross pairs of the table are the closed-form expectations
    ref = pair_source_click_expectations(src, optics)
    masks = np.arange(16)
    assert law.prob[masks & 0b0011 == 0b0011].sum() == pytest.approx(ref["pair_prob_auto"], rel=1e-12)
    assert law.prob[masks & 0b0101 == 0b0101].sum() == pytest.approx(ref["pair_prob_cross"], rel=1e-12)


def test_click_expectations_poisson_closed_form():
    """Coherent light: clicks on disjoint arms are exactly independent."""
    lam = 0.8
    n = np.arange(60)
    pmf = np.exp(-lam) * lam**n / [math.factorial(int(k)) for k in n]
    exp = click_expectations(pmf, [0.2, 0.3, 0.1])
    for s, q in zip(exp["singles"], (0.2, 0.3, 0.1)):
        assert s == pytest.approx(1.0 - math.exp(-lam * q), rel=1e-10)
    assert exp["g2_click"] == pytest.approx(1.0, rel=1e-10)
    assert exp["g3_click"] == pytest.approx(1.0, rel=1e-10)


def test_pair_source_same_n_in_both_beams(tmp_path):
    cfg = OpticsConfig(eta=1.0, n_pulses=20_000, splitter=(1.0,),
                       jitter_sigma_ps=0.0)
    src = PairSourceConfig(n_bar=0.8)
    generate_timetags(src, cfg, 5, tmp_path / "t.bin")
    tags = load_tags(tmp_path / "t.bin")
    np.testing.assert_array_equal(tags.channel(0), tags.channel(1))


def test_pair_source_click_reference():
    ref = pair_source_click_expectations(
        PairSourceConfig(n_bar=1.0),
        OpticsConfig(eta=0.05, n_pulses=1),
    )
    assert ref["g2_auto"] < 2.0 < ref["g2_cross"] < 3.0
    assert ref["csi_r"] == pytest.approx(2.2153, abs=2e-3)


def test_pair_source_mc_pair_rates(tmp_path):
    optics = OpticsConfig(eta=0.2, n_pulses=200_000, jitter_sigma_ps=0.0)
    src = PairSourceConfig(n_bar=1.0)
    generate_timetags(src, optics, 9, tmp_path / "t.bin")
    tags = load_tags(tmp_path / "t.bin")
    ref = pair_source_click_expectations(src, optics)
    n = optics.n_pulses
    auto = np.intersect1d(tags.channel(0), tags.channel(1)).size
    cross = np.intersect1d(tags.channel(0), tags.channel(2)).size
    for got, p in ((auto, ref["pair_prob_auto"]), (cross, ref["pair_prob_cross"])):
        assert got == pytest.approx(n * p, abs=5 * math.sqrt(n * p * (1 - p)))


def test_mean_photon_consistent_with_pmf(h4):
    state = expand_hyperparams(HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=6))
    p = state_photon_pmf(state)
    assert float(np.dot(p, np.arange(p.size))) == pytest.approx(
        broadband_moments(state)[0], rel=1e-9
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eta=0.0, n_pulses=1),
        dict(eta=1.2, n_pulses=1),
        dict(eta=0.5, n_pulses=-1),
        dict(eta=0.5, n_pulses=1, splitter=(0.7, 0.7)),
        dict(eta=0.5, n_pulses=1, splitter=()),
        dict(eta=0.5, n_pulses=1, jitter_sigma_ps=-1.0),
        dict(eta=0.5, n_pulses=1, jitter_sigma_ps=math.nan),
        dict(eta=0.5, n_pulses=1, dead_time_ps=-1.0),
        dict(eta=0.5, n_pulses=1, dead_time_ps=math.nan),
        dict(eta=0.5, n_pulses=1, rep_rate_hz=0.0),
        dict(eta=0.5, n_pulses=1, rep_rate_hz=math.nan),
        dict(eta=0.5, n_pulses=1, rep_rate_hz=math.inf),
        dict(eta=0.5, n_pulses=1, splitter=(math.nan, math.nan)),
        dict(eta=0.5, n_pulses=1, splitter=(0.5, math.nan)),
        dict(eta=0.5, n_pulses=20000.5),
        dict(eta=0.5, n_pulses=20000.0),
        dict(eta=math.nan, n_pulses=1),
        dict(eta=0.5, n_pulses=1, jitter_sigma_ps=math.inf),
        dict(eta=0.5, n_pulses=1, dead_time_ps=math.inf),
    ],
)
def test_optics_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        OpticsConfig(**kwargs).validate()


@pytest.mark.parametrize("kwargs", [
    dict(n_bar=0.0),
    dict(n_bar=1.0, n_beams=1),
    dict(n_bar=math.inf),
    dict(n_bar=math.nan),
    dict(n_bar=1.0, n_beams=2.5),
])
def test_pair_source_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        PairSourceConfig(**kwargs).validate()


def test_simulate_module_does_not_import_fock():
    tree = ast.parse(inspect.getsource(simulate))
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    } | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert not any(name and "fock" in name for name in imported), imported

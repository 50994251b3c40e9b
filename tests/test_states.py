"""Wick moments, broadband combination and Schmidt-mode bookkeeping."""
import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcorr import (
    DegenerateStateError,
    HyperParams,
    InvalidParameterError,
    ModeParams,
    MultimodeState,
    OpticsConfig,
    broadband_moments,
    combine_moments,
    expand_hyperparams,
    generate_timetags,
    mode_moments,
    mode_weights,
    model_curve,
    objective,
    oracle_moments,
    per_mode_moments,
    schmidt_number,
    schmidt_number_mu,
    squeezing_db,
    wick_moments,
)
from sqcorr import states
from sqcorr.estimation import DataSetPoint

# broadband values for the two reference hyperparameter sets, frozen from the
# number-basis oracle
H4_REFERENCE = (1.09046505, 1.29216029, 2.14113103)
H5_REFERENCE = (1.51085714, 1.11035926, 1.39313899)


@pytest.mark.parametrize(
    "mode",
    [
        ModeParams(r=0.5, theta=0.0, alpha=0.3, n_th=0.1),
        ModeParams(r=0.9, theta=1.2, alpha=0.6 + 0.4j, n_th=0.02),
        ModeParams(r=0.2, theta=-2.0, alpha=1.1, n_th=0.5),
        ModeParams(r=1.4, theta=0.7, alpha=0.0, n_th=0.0),
    ],
)
def test_wick_matches_oracle(mode):
    w = wick_moments(mode)
    o = oracle_moments(mode)
    assert w.m1 == pytest.approx(o.m1, rel=1e-9)
    assert w.m2 == pytest.approx(o.m2, rel=1e-9)
    assert w.m3 == pytest.approx(o.m3, rel=1e-9)


def test_squeezing_phase_convention_frozen():
    """A sign flip in phi(theta) moves m2 by ~50% at this operating point."""
    mode = ModeParams(r=0.5, theta=0.9, alpha=0.8 * np.exp(0.4j), n_th=0.2)
    w = wick_moments(mode)
    o = oracle_moments(mode)
    assert w.m2 == pytest.approx(o.m2, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(0.0, 1.2),
    theta=st.floats(-math.pi, math.pi),
    amag=st.floats(0.0, 1.5),
    aarg=st.floats(-math.pi, math.pi),
    n_th=st.floats(0.0, 0.5),
)
def test_wick_matches_oracle_property(r, theta, amag, aarg, n_th):
    mode = ModeParams(r=r, theta=theta, alpha=amag * np.exp(1j * aarg), n_th=n_th)
    w = wick_moments(mode)
    o = oracle_moments(mode, ceiling=2048)
    assert w.m1 == pytest.approx(o.m1, rel=1e-9, abs=1e-12)
    assert w.m2 == pytest.approx(o.m2, rel=1e-9, abs=1e-12)
    assert w.m3 == pytest.approx(o.m3, rel=1e-9, abs=1e-12)


def test_mode_moments_broadcast_matches_scalar_calls():
    r = np.array([0.0, 0.4, 1.1])
    theta = np.array([0.0, 0.9, -2.1])
    alpha = np.array([0.0, 0.5 - 0.3j, 1.2j])
    n_th = np.array([0.2, 0.0, 0.05])
    got = np.array(mode_moments(r, theta, alpha, n_th))
    for k in range(3):
        w = wick_moments(ModeParams(r=r[k], theta=theta[k], alpha=alpha[k], n_th=n_th[k]))
        np.testing.assert_allclose(got[:, k], (w.m1, w.m2, w.m3), rtol=1e-13)


def test_states_module_does_not_import_fock():
    tree = ast.parse(inspect.getsource(states))
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    } | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert not any(name and "fock" in name for name in imported), imported


def test_runtime_path_never_calls_oracle(monkeypatch, tmp_path, h4):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle_moments called on the runtime path")

    monkeypatch.setattr("sqcorr.fock.oracle_moments", refuse)
    curve = model_curve(h4)
    data = [DataSetPoint(r[0], r[1], 0.01, r[2], 0.05) for r in curve[:12]]
    assert objective(data, HyperParams(h4.B, h4.mu, h4.alpha, h4.n_th, d=12)) < 1e-20
    assert broadband_moments(expand_hyperparams(h4))[1] == pytest.approx(curve[-1, 1])
    sidecar = generate_timetags(
        h4, OpticsConfig(eta=0.045, n_pulses=20_000, splitter=(1 / 3, 1 / 3, 1 / 3)),
        seed=1, path=tmp_path / "tags.bin",
    )
    assert sidecar["truth"]["g3"] == pytest.approx(curve[-1, 2])


def test_single_thermal_g2_g3():
    s1, g2, g3 = broadband_moments(MultimodeState((ModeParams(n_th=0.3),)))
    assert s1 == pytest.approx(0.3, rel=1e-12)
    assert g2 == pytest.approx(2.0, rel=1e-9)
    assert g3 == pytest.approx(6.0, rel=1e-9)


def test_single_coherent_g2_g3():
    _, g2, g3 = broadband_moments(MultimodeState((ModeParams(alpha=0.9),)))
    assert g2 == pytest.approx(1.0, rel=1e-9)
    assert g3 == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("r", [0.3, 0.7, 1.1])
def test_squeezed_vacuum_g2(r):
    _, g2, _ = broadband_moments(MultimodeState((ModeParams(r=r),)))
    assert g2 == pytest.approx(3.0 + 1.0 / math.sinh(r) ** 2, rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 10])
def test_equal_thermal_modes_g2(d):
    """d equal thermal modes: g2 = 1 + 1/d."""
    state = MultimodeState(tuple(ModeParams(n_th=0.2) for _ in range(d)))
    _, g2, _ = broadband_moments(state)
    assert g2 == pytest.approx(1.0 + 1.0 / d, rel=1e-9)


def test_combine_rejects_vacuum():
    with pytest.raises(DegenerateStateError):
        combine_moments([0.0], [0.0], [0.0])


def test_loss_scaling_preserves_g2_g3(rng):
    m1 = rng.uniform(0.01, 1.0, 6)
    m2 = rng.uniform(0.01, 2.0, 6)
    m3 = rng.uniform(0.01, 5.0, 6)
    s1a, g2a, g3a = combine_moments(m1, m2, m3)
    eta = 0.17
    # binomial loss scales the normally ordered moments as m_n -> eta^n m_n
    s1b, g2b, g3b = combine_moments(eta * m1, eta**2 * m2, eta**3 * m3)
    assert s1b == pytest.approx(eta * s1a, rel=1e-12)
    assert g2b == pytest.approx(g2a, rel=1e-12)
    assert g3b == pytest.approx(g3a, rel=1e-12)


def test_broadband_reference_h4(h4):
    s1, g2, g3 = broadband_moments(expand_hyperparams(h4))
    assert s1 == pytest.approx(H4_REFERENCE[0], abs=5e-8)
    assert g2 == pytest.approx(H4_REFERENCE[1], abs=5e-8)
    assert g3 == pytest.approx(H4_REFERENCE[2], abs=5e-8)


def test_broadband_reference_h5(h5):
    s1, g2, g3 = broadband_moments(expand_hyperparams(h5))
    assert s1 == pytest.approx(H5_REFERENCE[0], abs=5e-8)
    assert g2 == pytest.approx(H5_REFERENCE[1], abs=5e-8)
    assert g3 == pytest.approx(H5_REFERENCE[2], abs=5e-8)


def test_mean_photon_matches_oracle(h4):
    state = expand_hyperparams(h4)
    mom = per_mode_moments(state)
    assert broadband_moments(state)[0] == pytest.approx(sum(m.m1 for m in mom), rel=1e-9)


def test_mode_weights_shape_and_norm():
    lam = mode_weights(0.4226, 50)
    assert lam.size == 50
    assert lam[0] == pytest.approx(math.sqrt(1.0 - 0.4226**2), rel=1e-12)
    assert (lam**2).sum() == pytest.approx(1.0, abs=0.4226**100 + 1e-15)
    np.testing.assert_allclose(lam[1:] / lam[:-1], 0.4226, rtol=1e-12)


def test_expand_hyperparams_structure(h4):
    state = expand_hyperparams(h4)
    assert len(state.modes) == 50
    assert state.modes[0].r == pytest.approx(0.471 * math.sqrt(1 - 0.4226**2), rel=1e-12)
    assert all(m.alpha == h4.alpha and m.n_th == h4.n_th for m in state.modes)


@pytest.mark.parametrize(
    "mu,expected", [(0.4226, 1.4349), (0.32, 1.2282), (0.0, 1.0)]
)
def test_schmidt_number_closed_form(mu, expected):
    assert schmidt_number_mu(mu) == pytest.approx(expected, abs=1e-3)


@pytest.mark.parametrize("mu", [0.0, 0.2, 0.4226, 0.7, 0.9])
def test_schmidt_number_from_weights_matches_closed_form(mu):
    k = schmidt_number(mode_weights(mu, 400))
    assert k == pytest.approx(schmidt_number_mu(mu), rel=1e-9)


def test_schmidt_number_rejects_zero_weights():
    with pytest.raises(InvalidParameterError):
        schmidt_number(np.zeros(5))


def test_squeezing_db_convention():
    assert squeezing_db(1.0) == pytest.approx(10.0 * math.log10(math.e**2), rel=1e-12)
    assert squeezing_db(0.0) == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [dict(B=-0.1, mu=0.4), dict(B=0.4, mu=1.0), dict(B=0.4, mu=0.4, n_th=-1e-4),
     dict(B=0.4, mu=0.4, d=0), dict(B=math.nan, mu=0.4),
     dict(B=0.4, mu=0.4, alpha=math.inf), dict(B=0.4, mu=0.4, n_th=math.nan)],
)
def test_hyperparams_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        HyperParams(**kwargs).validate()


def test_empty_state_rejected():
    with pytest.raises(InvalidParameterError):
        MultimodeState(()).validate()

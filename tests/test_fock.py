"""Number-basis oracle: exact moments against independent closed forms."""
import math

import numpy as np
import pytest
from scipy.special import eval_laguerre
from scipy.stats import poisson

from sqcorr import (
    InvalidParameterError,
    ModeParams,
    TruncationError,
    mode_density_matrix,
    oracle_moments,
    photon_number_pmf,
)
from sqcorr.fock import suggest_start_dim, thermal_pmf


@pytest.mark.parametrize("n_th", [0.001, 0.1, 0.5, 1.0, 2.5])
def test_thermal_moments(n_th):
    m = oracle_moments(ModeParams(n_th=n_th))
    assert m.m1 == pytest.approx(n_th, rel=1e-10)
    assert m.m2 == pytest.approx(2.0 * n_th**2, rel=1e-9)
    assert m.m3 == pytest.approx(6.0 * n_th**3, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7, 0.8 * np.exp(0.9j), -0.4 + 1.1j])
def test_coherent_moments(alpha):
    m = oracle_moments(ModeParams(alpha=alpha))
    a2 = abs(alpha) ** 2
    assert m.m1 == pytest.approx(a2, rel=1e-10)
    assert m.m2 == pytest.approx(a2**2, rel=1e-10)
    assert m.m3 == pytest.approx(a2**3, rel=1e-9)


@pytest.mark.parametrize("r,theta", [(0.2, 0.0), (0.6, 1.3), (1.2, -0.7), (2.0, 2.5)])
def test_squeezed_vacuum_moments(r, theta):
    # zero-mean Gaussian: m2 = 2N^2 + |M|^2, m3 = 6N^3 + 9N|M|^2 by Wick pairing
    m = oracle_moments(ModeParams(r=r, theta=theta), ceiling=4096)
    n = math.sinh(r) ** 2
    m2abs = (math.sinh(r) * math.cosh(r)) ** 2
    assert m.m1 == pytest.approx(n, rel=1e-9)
    assert m.m2 == pytest.approx(2.0 * n * n + m2abs, rel=1e-9)
    assert m.m3 == pytest.approx(6.0 * n**3 + 9.0 * n * m2abs, rel=1e-8)


@pytest.mark.parametrize(
    "alpha,n_th", [(0.7, 0.3), (1.2, 0.05), (0.2, 1.5), (1.8, 0.5)]
)
def test_displaced_thermal_moments(alpha, n_th):
    # <a+^k a^k> = k! n_th^k L_k(-|alpha|^2 / n_th) for displaced thermal light
    m = oracle_moments(ModeParams(alpha=alpha, n_th=n_th))
    x = -abs(alpha) ** 2 / n_th
    for k, got in enumerate((m.m1, m.m2, m.m3), start=1):
        want = math.factorial(k) * n_th**k * eval_laguerre(k, x)
        assert got == pytest.approx(want, rel=1e-9)


def test_vacuum_moments():
    m = oracle_moments(ModeParams())
    assert m.m1 == 0.0
    assert m.m2 == 0.0
    assert m.m3 == 0.0


def test_adaptive_start_dim_agrees_with_heuristic():
    mode = ModeParams(r=0.8, alpha=0.5, n_th=0.2)
    a = oracle_moments(mode)
    b = oracle_moments(mode, dim=4)
    assert a.m1 == pytest.approx(b.m1, rel=1e-12)
    assert a.m2 == pytest.approx(b.m2, rel=1e-12)
    assert a.m3 == pytest.approx(b.m3, rel=1e-11)


def test_truncation_error_at_low_ceiling():
    bright = ModeParams(r=2.0, alpha=2.0, n_th=0.5)
    with pytest.raises(TruncationError):
        oracle_moments(bright, ceiling=64)


def test_bright_mode_converges_at_raised_ceiling():
    bright = ModeParams(r=1.5, alpha=1.0, n_th=0.5)
    m = oracle_moments(bright, ceiling=2048)
    assert math.isfinite(m.m3) and m.m3 > 0.0


@pytest.mark.parametrize("bad", [dict(r=-0.1), dict(n_th=-1e-3)])
def test_invalid_mode_parameters(bad):
    with pytest.raises(InvalidParameterError):
        oracle_moments(ModeParams(**bad))


def test_oracle_rejects_tiny_dim():
    with pytest.raises(InvalidParameterError):
        oracle_moments(ModeParams(n_th=0.1), dim=1)


def test_thermal_pmf_geometric():
    p = thermal_pmf(0.4, 40)
    q = 0.4 / 1.4
    want = (1.0 - q) * q ** np.arange(40)
    np.testing.assert_allclose(p, want, rtol=1e-12)


def test_photon_pmf_coherent_is_poisson():
    alpha = 1.1
    p = photon_number_pmf(ModeParams(alpha=alpha), 30)
    want = poisson.pmf(np.arange(31), alpha**2)
    np.testing.assert_allclose(p, want / want.sum(), rtol=1e-9, atol=1e-14)


def test_photon_pmf_squeezed_vacuum_odd_terms_vanish():
    p = photon_number_pmf(ModeParams(r=0.9), 40)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p[1::2] < 1e-14)
    assert p[2] > p[4] > p[6] > 0.0


def test_photon_pmf_renormalizes_cut_tail():
    p = photon_number_pmf(ModeParams(n_th=2.0), 5)
    assert p.size == 6
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_photon_pmf_raises_at_dim_ceiling(monkeypatch):
    mode = ModeParams(n_th=2.0)
    assert photon_number_pmf(mode, 5).sum() == pytest.approx(1.0, abs=1e-12)
    monkeypatch.setattr("sqcorr.fock.PMF_DIM_CEILING", suggest_start_dim(mode))
    with pytest.raises(TruncationError):
        photon_number_pmf(mode, 5)


def test_density_matrix_hermitian_unit_trace():
    rho = mode_density_matrix(ModeParams(r=0.5, alpha=0.4, n_th=0.1), 48)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
    ev = np.linalg.eigvalsh(rho)
    assert ev.min() > -1e-12


def test_density_matrix_pure_state_purity():
    rho = mode_density_matrix(ModeParams(r=0.6, alpha=0.3), 64)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)


def test_suggest_start_dim_power_of_two():
    for mode in (ModeParams(), ModeParams(r=1.5, alpha=1.2, n_th=0.4)):
        dim = suggest_start_dim(mode)
        assert dim >= 16 and (dim & (dim - 1)) == 0

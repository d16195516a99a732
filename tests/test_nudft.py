import numpy as np
import pytest

from qincoh.channels import RFProfile, make_synthetic_profile
from qincoh.nudft import (
    DEFAULT_GRID,
    MAX_GRID_BINS,
    RIDGE_PER_SAMPLE,
    RecoveryGrid,
    forward_nudft,
    inverse_nudft,
    voronoi_weights,
)
from qincoh.spectral import SpectralSampleSet, profile_metrics


def jittered_samples(profile, k_max, seed=42, n_half=28, jitter=0.3):
    """Conjugate-symmetric irregular sample set from the forward oracle."""
    rng = np.random.default_rng(seed)
    base = np.linspace(k_max / 40, k_max, n_half)
    pos = np.sort(base + rng.uniform(-jitter, jitter, n_half))
    ks = np.concatenate([-pos[::-1], [0.0], pos])
    return SpectralSampleSet(ks, forward_nudft(profile, ks))


def test_forward_at_zero_is_one():
    p = make_synthetic_profile("skewed", width=0.05, skew=0.3, n_points=21)
    assert abs(forward_nudft(p, np.array([0.0]))[0] - 1.0) < 1e-12


def test_forward_of_delta_is_pure_phase():
    p = RFProfile(np.array([0.07]), np.array([1.0]))
    ks = np.linspace(-30, 30, 13)
    f = forward_nudft(p, ks)
    assert np.abs(np.abs(f) - 1.0).max() < 1e-12
    assert np.abs(f - np.exp(-1j * ks * 0.07)).max() < 1e-12


def test_forward_of_symmetric_profile_is_real():
    p = make_synthetic_profile("gaussian", center=0.0, width=0.04, n_points=41)
    f = forward_nudft(p, np.linspace(-50, 50, 21))
    assert np.abs(f.imag).max() < 1e-12


def test_forward_is_linear():
    rng = np.random.default_rng(51)
    xs = np.sort(rng.uniform(-0.1, 0.1, 15))
    w1 = rng.random(15)
    w2 = rng.random(15)
    ks = rng.uniform(-40, 40, 9)
    p1 = RFProfile(xs, w1 / w1.sum())
    p2 = RFProfile(xs, w2 / w2.sum())
    mix = 0.3 * p1.weight + 0.7 * p2.weight
    f_mix = forward_nudft(RFProfile(xs, mix), ks)
    f_sum = 0.3 * forward_nudft(p1, ks) + 0.7 * forward_nudft(p2, ks)
    assert np.abs(f_mix - f_sum).max() < 1e-12


def test_voronoi_weights_hand_example():
    assert np.array_equal(voronoi_weights(np.array([0.0, 1.0, 3.0])), [0.5, 1.5, 1.0])


def test_voronoi_weights_uniform_axis():
    w = voronoi_weights(np.linspace(-5, 5, 11))
    assert np.abs(w[1:-1] - 1.0).max() < 1e-12
    assert abs(w[0] - 0.5) < 1e-12 and abs(w[-1] - 0.5) < 1e-12


def test_gaussian_recovery_from_irregular_samples():
    true = make_synthetic_profile("gaussian", center=0.02, width=0.13, n_points=81)
    samples = jittered_samples(true, 20.0)
    tm = profile_metrics(true)
    for method in ("weighted_riemann", "least_squares"):
        res = inverse_nudft(samples, RecoveryGrid(-0.5, 0.5, 41), method=method)
        rm = profile_metrics(res.profile)
        assert abs(rm.mean - tm.mean) < 0.005
        assert abs(rm.std - tm.std) / tm.std < 0.15
        assert res.clipped_mass < 0.01


def test_flat_spectrum_recovers_a_delta():
    rng = np.random.default_rng(42)
    base = np.linspace(10, 300, 28)
    pos = np.sort(base + rng.uniform(-4, 4, 28))
    ks = np.concatenate([-pos[::-1], [0.0], pos])
    samples = SpectralSampleSet(ks, np.ones(57, dtype=complex))
    grid = RecoveryGrid(-0.15, 0.15, 31)
    res = inverse_nudft(samples, grid)
    prof = res.profile
    assert prof.delta_omega[np.argmax(prof.weight)] == 0.0
    assert prof.weight[np.abs(prof.delta_omega) <= grid.bin_width].sum() >= 0.5


def test_round_trip_total_variation():
    grid = RecoveryGrid(-0.6, 0.6, 25)
    xs = grid.points()
    ws = np.exp(-0.5 * ((xs + 0.05) / 0.1) ** 2)
    true = RFProfile(xs, ws / ws.sum())
    samples = jittered_samples(true, 70.0, n_half=28, jitter=1.0)
    res = inverse_nudft(samples, grid)
    assert 0.5 * np.abs(res.profile.weight - true.weight).sum() < 0.15
    assert abs(profile_metrics(res.profile).mean - profile_metrics(true).mean) < grid.bin_width


def test_conjugate_symmetric_input_keeps_imag_residual_tiny():
    true = make_synthetic_profile("gaussian", center=0.01, width=0.1, n_points=41)
    samples = jittered_samples(true, 25.0)
    res = inverse_nudft(samples, RecoveryGrid(-0.5, 0.5, 41))
    assert res.imag_residual < 1e-8


def test_recovered_profile_is_always_valid():
    true = make_synthetic_profile("skewed", width=0.1, skew=0.4, n_points=41)
    samples = jittered_samples(true, 30.0)
    res = inverse_nudft(samples, RecoveryGrid(-0.6, 0.6, 49))
    prof = res.profile
    assert np.all(prof.weight >= 0.0)
    assert abs(prof.weight.sum() - 1.0) < 1e-12


def test_inverse_requires_five_samples():
    s = SpectralSampleSet(np.array([-1.0, 0.0, 1.0]), np.array([1, 1, 1], dtype=complex))
    with pytest.raises(ValueError, match="at least 5"):
        inverse_nudft(s, DEFAULT_GRID)


def test_inverse_warns_on_asymmetric_samples():
    ks = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    f = np.array([0.5, 0.8, 1.0, 0.8 + 0.2j, 0.5], dtype=complex)
    with pytest.warns(UserWarning, match="asymmetric"):
        inverse_nudft(SpectralSampleSet(ks, f), DEFAULT_GRID)


def test_inverse_rejects_unknown_method():
    s = SpectralSampleSet(np.linspace(-2, 2, 9), np.ones(9, dtype=complex))
    with pytest.raises(ValueError, match="method"):
        inverse_nudft(s, DEFAULT_GRID, method="magic")


def test_least_squares_condition_number_is_bounded():
    # every design entry has modulus 1, so the normal matrix D^H D + mu*I,
    # mu = RIDGE_PER_SAMPLE * n_samples, has eigenvalues in
    # [mu, mu + n_samples * n_bins]; samples clustered near k = 0 make D^H D
    # nearly rank one and meet the bound, so the check allows the rounding of
    # forming D^H D, about eps * n_bins relative to mu
    true = make_synthetic_profile("gaussian", width=0.05, n_points=21)
    rng = np.random.default_rng(143)
    # five samples cannot constrain 201 bins, yet the ridge bounds the condition
    cases = [(np.array([1.0, 2.0]), RecoveryGrid(-0.5, 0.5, 201))]
    for _ in range(40):
        pos = np.sort(rng.uniform(0.0, 10 ** rng.uniform(-3, 2.5), rng.integers(2, 151)))
        half = rng.uniform(0.05, 1.0)
        cases.append((pos, RecoveryGrid(-half, half, int(rng.integers(8, 301)))))
    ratios = []
    for pos, grid in cases:
        ks = np.concatenate([-pos[::-1], [0.0], pos])
        samples = SpectralSampleSet(ks, forward_nudft(true, ks))
        res = inverse_nudft(samples, grid, method="least_squares")
        bound = 1 + grid.n_bins / RIDGE_PER_SAMPLE
        rounding = 8 * np.finfo(float).eps * grid.n_bins / RIDGE_PER_SAMPLE
        assert 1.0 <= res.condition_number <= bound * (1 + rounding)
        ratios.append(res.condition_number / bound)
    # the bound is sharp: clustered sample sets come within 1% of it
    assert max(ratios) > 0.99


@pytest.mark.filterwarnings("error")
def test_grid_refuses_a_non_finite_span_without_a_warning():
    for lo, hi in ((-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)), (-np.inf, 0.0)):
        with pytest.raises(ValueError, match="^grid span delta_omega_max - delta_omega_min is not finite$"):
            RecoveryGrid(lo, hi, 101)
    assert np.isfinite(RecoveryGrid(-8e307, 8e307, 101).points()).all()


def test_grid_refuses_more_than_max_bins_before_allocating(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a grid array was allocated")

    monkeypatch.setattr(np, "linspace", refused)
    assert RecoveryGrid(-1.0, 1.0, MAX_GRID_BINS).n_bins == MAX_GRID_BINS
    for n_bins in (MAX_GRID_BINS + 1, 10**11):
        with pytest.raises(ValueError, match=f"^grid has {n_bins} bins, more than MAX_GRID_BINS = 4096$"):
            RecoveryGrid(-1.0, 1.0, n_bins)


def test_grid_validation():
    with pytest.raises(ValueError, match="min"):
        RecoveryGrid(0.2, -0.2, 61)
    with pytest.raises(ValueError, match="bins"):
        RecoveryGrid(-0.1, 0.1, 4)

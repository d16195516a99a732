import re
import warnings

import numpy as np
import pytest

from oracles import dense_ridge_fit
from qincoh.channels import RFProfile, make_synthetic_profile, rf_incoherent_channel
from qincoh.nudft import (
    K_DEDUP_TOL,
    MAX_GRID_BINS,
    RIDGE_PER_SAMPLE,
    RecoveryGrid,
    SpectralSampleSet,
    forward_nudft,
    inverse_nudft,
)
from qincoh.spectral import (
    build_samples,
    four_qubit_fixture,
    pair_eigenvalues,
    profile_metrics,
    three_qubit_fixture,
)

# a grid that the test sample sets below do not alias on
GRID = RecoveryGrid(-0.15, 0.15, 61)


def jittered_samples(profile, k_max, seed=42, n_half=28, jitter=0.3):
    """Irregular sample set at k > 0 from the forward oracle."""
    rng = np.random.default_rng(seed)
    base = np.linspace(k_max / 40, k_max, n_half)
    pos = np.sort(base + rng.uniform(-jitter, jitter, n_half))
    return SpectralSampleSet(pos, forward_nudft(profile, pos))


def test_forward_at_zero_is_one():
    p = make_synthetic_profile("skewed", width=0.05, skew=0.3, n_points=21)
    assert abs(forward_nudft(p, np.array([0.0]))[0] - 1.0) < 1e-12


def test_forward_of_delta_is_pure_phase():
    p = RFProfile(np.array([0.07]), np.array([1.0]))
    ks = np.linspace(-30, 30, 13)
    f = forward_nudft(p, ks)
    assert np.abs(np.abs(f) - 1.0).max() < 1e-12
    assert np.abs(f - np.exp(-1j * ks * 0.07)).max() < 1e-12


def test_forward_refuses_complex_coordinates_by_name():
    p = make_synthetic_profile("skewed", width=0.05, skew=0.3, n_points=21)
    for ks in (np.array([1 + 5j, 2.0]), [1.0, 2j], np.zeros((2, 2), dtype=complex)):
        with pytest.raises(ValueError, match="^forward_nudft coordinates ks is complex, expected real$"):
            forward_nudft(p, ks)
    # a real (N, N) array keeps its shape, as the eigenvalue prediction needs
    ks = np.arange(6.0).reshape(2, 3)
    assert forward_nudft(p, ks).shape == (2, 3)
    assert np.array_equal(forward_nudft(p, ks), np.exp(-1j * np.multiply.outer(ks, p.delta_omega)) @ p.weight)


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


def test_gaussian_recovery_from_irregular_samples():
    true = make_synthetic_profile("gaussian", center=0.02, width=0.13, n_points=81)
    samples = jittered_samples(true, 20.0)
    tm = profile_metrics(true)
    res = inverse_nudft(samples, RecoveryGrid(-0.5, 0.5, 41))
    rm = profile_metrics(res.profile)
    assert abs(rm.mean - tm.mean) < 0.005
    assert abs(rm.std - tm.std) / tm.std < 0.15
    assert res.clipped_mass < 0.01


def test_flat_spectrum_recovers_a_delta():
    rng = np.random.default_rng(42)
    base = np.linspace(10, 300, 28)
    pos = np.sort(base + rng.uniform(-4, 4, 28))
    samples = SpectralSampleSet(pos, np.ones(28, dtype=complex))
    assert len(samples) == 57
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
    # max|k| is at most 61, so bin width times max|k| stays below pi
    samples = jittered_samples(true, 60.0, n_half=28, jitter=1.0)
    res = inverse_nudft(samples, grid)
    assert 0.5 * np.abs(res.profile.weight - true.weight).sum() < 0.15
    assert abs(profile_metrics(res.profile).mean - profile_metrics(true).mean) < grid.bin_width


def test_recovered_profile_is_always_valid():
    true = make_synthetic_profile("skewed", width=0.1, skew=0.4, n_points=41)
    samples = jittered_samples(true, 30.0)
    res = inverse_nudft(samples, RecoveryGrid(-0.6, 0.6, 49))
    prof = res.profile
    assert np.all(prof.weight >= 0.0)
    assert abs(prof.weight.sum() - 1.0) < 1e-12


def assert_matches_dense_fit(samples, grid):
    # the dense fit runs over every Fourier point the set stands for
    res = inverse_nudft(samples, grid)
    ks, f = samples.mirrored()
    assert ks.size == len(samples)
    expected = dense_ridge_fit(grid.points(), ks, f, RIDGE_PER_SAMPLE * ks.size)
    assert np.abs(res.profile.weight - expected).max() <= 1e-8


@pytest.mark.parametrize("fixture", [three_qubit_fixture, four_qubit_fixture])
def test_toeplitz_fit_matches_the_dense_kernel_fit(fixture):
    h0t, k = fixture()
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)
    samples = build_samples(pair_eigenvalues(rf_incoherent_channel(h0t, k, profile), h0t, k))
    assert_matches_dense_fit(samples, RecoveryGrid(-0.25, 0.25, 101))


def test_toeplitz_fit_matches_the_dense_kernel_fit_on_asymmetric_samples():
    # raw points without their mirror images, and noise that breaks
    # f(-k) = conj(f(k)): from_points folds the points at k < 0 onto -k
    true = make_synthetic_profile("skewed", width=0.1, skew=0.4, n_points=41)
    rng = np.random.default_rng(8)
    ks = rng.uniform(-20.0, 30.0, 60)
    noise = 0.01 * (rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = SpectralSampleSet.from_points(ks, forward_nudft(true, ks) + noise)
    assert samples.k.size == 60 and np.any(ks < 0.0)
    assert_matches_dense_fit(samples, RecoveryGrid(-0.6, 0.6, 49))


def test_the_fit_solves_one_real_system(monkeypatch):
    h0t, k = three_qubit_fixture()
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)
    samples = build_samples(pair_eigenvalues(rf_incoherent_channel(h0t, k, profile), h0t, k))
    solve, dtypes = np.linalg.solve, []

    def recorded(a, b):
        dtypes.append((a.dtype, b.dtype))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    inverse_nudft(samples, RecoveryGrid(-0.25, 0.25, 101))
    assert dtypes == [(np.dtype(float), np.dtype(float))]


def test_inverse_refuses_a_fit_with_no_positive_weight_by_name(monkeypatch):
    samples = jittered_samples(make_synthetic_profile("gaussian", width=0.03, n_points=31), 40.0)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: -np.abs(b))
    with pytest.raises(ValueError, match="^recovered profile has no positive mass$"):
        inverse_nudft(samples, GRID)


def test_power_table_stays_within_1e_11_of_exp_at_the_bin_cap():
    grid = RecoveryGrid(-1.0, 1.0, MAX_GRID_BINS)
    h = grid.bin_width
    # h * max|k| just under pi, the largest product the fit admits
    ks = np.linspace(-1.0, 1.0, 257) * (np.pi * (1 - 1e-9) / h)
    exact = np.exp(1j * np.multiply.outer(np.arange(MAX_GRID_BINS) * h, ks))
    assert np.abs(grid.powers(ks) - exact).max() <= 1e-11


def test_inverse_requires_five_samples():
    s = SpectralSampleSet(np.array([1.0]), np.array([1], dtype=complex))
    assert len(s) == 3
    with pytest.raises(ValueError, match="at least 5"):
        inverse_nudft(s, GRID)


def test_points_that_all_drop_near_dc_end_in_the_five_sample_refusal():
    with pytest.warns(UserWarning, match="^dropping 3 sample"):
        samples = SpectralSampleSet.from_points([-K_DEDUP_TOL, 0.0, K_DEDUP_TOL], np.ones(3))
    assert samples.k.size == 0 and len(samples) == 1
    with pytest.raises(ValueError, match="^need at least 5 samples, got 1$"):
        inverse_nudft(samples, GRID)


@pytest.mark.filterwarnings("error")
def test_sample_set_refuses_non_finite_and_mismatched_arrays_by_name():
    ks = np.linspace(1.0, 5.0, 5)
    f = np.ones(5, dtype=complex)
    samples = SpectralSampleSet(list(ks), [1, 1, 1, 1, 1])
    assert samples.k.dtype == float and samples.f.dtype == complex
    assert np.array_equal(samples.k, ks) and np.array_equal(samples.f, f)
    for bad_k, bad_f, name in ((np.where(ks == 3.0, np.nan, ks), f, "k"),
                               (ks, np.where(ks == 3.0, np.nan, f), "f"),
                               (ks, np.where(ks == 3.0, np.inf, f), "f")):
        with pytest.raises(ValueError, match=f"^sample set {name} is not finite$"):
            SpectralSampleSet(bad_k, bad_f)
    for bad_k, bad_f in ((ks, f[:-1]), (ks[None, :], f[None, :])):
        with pytest.raises(ValueError, match="^sample set needs matching 1-d k and f arrays, got shapes"):
            SpectralSampleSet(bad_k, bad_f)


@pytest.mark.filterwarnings("error")
def test_sample_set_refuses_complex_and_not_strictly_increasing_k_by_name():
    for bad_k in (np.array([1.0, 2.0 + 1j, 3.0]), [1.0, 2j, 3.0]):
        with pytest.raises(ValueError, match="^sample set k is complex, expected real$"):
            SpectralSampleSet(bad_k, np.ones(3, dtype=complex))
    for bad_k in ([1.0, 3.0, 2.0], [1.0, 2.0, 2.0], [1.0, 1.0 + 1e-17, 2.0]):
        with pytest.raises(ValueError, match="^sample set k is not strictly increasing$"):
            SpectralSampleSet(np.array(bad_k), np.ones(3, dtype=complex))
    # no stored sample: the DC anchor alone, which the fit refuses
    empty = SpectralSampleSet(np.array([]), np.array([], dtype=complex))
    assert len(empty) == 1
    with pytest.raises(ValueError, match="^need at least 5 samples, got 1$"):
        inverse_nudft(empty, GRID)


@pytest.mark.filterwarnings("error")
def test_sample_set_refuses_k_at_or_below_the_dedup_tolerance_by_name():
    for bad_k in ([-2.0, -1.0, 1.0], [0.0, 1.0, 2.0], [K_DEDUP_TOL, 1.0, 2.0]):
        with pytest.raises(ValueError, match=(
            "^sample set k is not above K_DEDUP_TOL = 1e-09: the DC point and the mirror half are implied$"
        )):
            SpectralSampleSet(np.array(bad_k), np.ones(3, dtype=complex))
    assert len(SpectralSampleSet([2 * K_DEDUP_TOL, 1.0, 2.0], np.ones(3))) == 7


def test_from_points_refuses_mismatched_lengths_by_name():
    with pytest.raises(ValueError, match=(
        r"^sample set needs matching 1-d k and f arrays, got shapes \(3,\) and \(2,\)$"
    )):
        SpectralSampleSet.from_points(np.array([-1.0, 1.0, 2.0]), np.ones(2, dtype=complex))


def test_from_points_refuses_2d_arrays_by_name():
    with pytest.raises(ValueError, match=(
        r"^sample set needs matching 1-d k and f arrays, got shapes \(1, 2\) and \(1, 2\)$"
    )):
        SpectralSampleSet.from_points(np.array([[-1.0, 1.0]]), np.ones((1, 2), dtype=complex))


@pytest.mark.filterwarnings("error")
def test_from_points_refuses_a_non_finite_point_by_name_before_any_drop():
    # a NaN k is neither near DC nor sortable, so it must be refused before
    # the DC drop warns and before the fold and the merge read it
    for bad_k in ([np.nan], [np.nan, np.nan], [np.nan, 0.0], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="^sample set k is not finite$"):
            SpectralSampleSet.from_points(bad_k, np.ones(len(bad_k), dtype=complex))
    for bad_f in ([np.nan, 1.0], [1.0, complex(np.inf, 0.0)]):
        with pytest.raises(ValueError, match="^sample set f is not finite$"):
            SpectralSampleSet.from_points([0.0, 1.0], bad_f)


def test_from_points_reads_lists_as_arrays():
    samples = SpectralSampleSet.from_points([1.0, -1.0], [0.5 + 0.1j, 0.5 - 0.1j])
    assert np.array_equal(samples.k, [1.0]) and np.array_equal(samples.f, [0.5 + 0.1j])
    ks, f = samples.mirrored()
    assert np.array_equal(ks, [-1.0, 0.0, 1.0])
    assert np.array_equal(f, [0.5 - 0.1j, 1.0, 0.5 + 0.1j])


@pytest.mark.filterwarnings("error")
def test_from_points_folds_a_point_at_negative_k_onto_its_mirror():
    a, b = 0.6 + 0.2j, 0.62 - 0.21j
    samples = SpectralSampleSet.from_points([1.0, -1.0], [a, b])
    assert np.array_equal(samples.k, [1.0])
    assert samples.f[0] == (a + np.conj(b)) / 2
    # a lone point at k < 0 is stored at -k as its conjugate
    samples = SpectralSampleSet.from_points([-2.0, 1.0], [a, b])
    assert np.array_equal(samples.k, [1.0, 2.0]) and np.array_equal(samples.f, [b, np.conj(a)])


def test_nudft_warnings_are_attributed_to_the_direct_caller():
    ks = np.array([-2.0, -1.0, 1e-12, 1.0, 1.0, 2.0])
    f = np.array([0.5, 0.8, 1.0, 0.8, 0.2, 0.5], dtype=complex)
    # a mirror pair whose values are not conjugates: the fold lands 0.8 and
    # 0.8 + 0.2j on k = 1, a spread of 0.1 above F_DISAGREEMENT_TOL
    asymmetric = np.array([-2.0, -1.0, 1.0, 2.0]), np.array([0.5, 0.8, 0.8 + 0.2j, 0.5])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SpectralSampleSet.from_points(ks, f)
        SpectralSampleSet.from_points(*asymmetric)
    assert [str(w.message).split()[:3] for w in caught] == [
        ["dropping", "1", "sample(s)"], ["samples", "sharing", "k=1"], ["samples", "sharing", "k=1"]]
    assert all(w.filename == __file__ for w in caught), [w.filename for w in caught]


def test_inverse_refuses_an_aliasing_grid_before_the_fit(monkeypatch):
    # the bundled recover3q samples reach max|k| = 79.2: on 101 bins over
    # +-0.25 the product with the bin width is 0.396, on 11 bins it is 3.96
    h0t, k = three_qubit_fixture()
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)
    samples = build_samples(pair_eigenvalues(rf_incoherent_channel(h0t, k, profile), h0t, k))
    assert inverse_nudft(samples, RecoveryGrid(-0.25, 0.25, 101)).clipped_mass < 0.1

    def refused(*args, **kwargs):
        raise AssertionError("the fit ran on an aliasing grid")

    monkeypatch.setattr(np.linalg, "solve", refused)
    with pytest.raises(ValueError, match=(
        r"^grid bin width 0\.05 times max\|k\| 79\.2 is 3\.96, not below pi: "
        r"the samples alias on this grid$"
    )):
        inverse_nudft(samples, RecoveryGrid(-0.25, 0.25, 11))


def test_inverse_refuses_a_grid_from_pi_on():
    # bin width 0.1: a max|k| just below pi / 0.1 is fitted, just above it is refused
    grid = RecoveryGrid(-0.5, 0.5, 11)
    ks = np.array([0.5, 1.0]) * (np.pi / grid.bin_width)
    f = np.ones(2, dtype=complex)
    inverse_nudft(SpectralSampleSet(ks * (1 - 1e-9), f), grid)
    with pytest.raises(ValueError, match="not below pi"):
        inverse_nudft(SpectralSampleSet(ks * (1 + 1e-9), f), grid)


@pytest.mark.filterwarnings("error")
def test_grid_refuses_a_non_finite_span_without_a_warning():
    for lo, hi in ((-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))):
        with pytest.raises(ValueError, match="^grid span delta_omega_max - delta_omega_min is not finite$"):
            RecoveryGrid(lo, hi, 101)
    for bad in (-np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^grid delta_omega_min must be finite, got {bad!r}$"):
            RecoveryGrid(bad, 0.0, 101)
    assert np.isfinite(RecoveryGrid(-8e307, 8e307, 101).points()).all()


def test_grid_refuses_complex_and_non_real_bounds_by_name():
    for lo, hi, name in ((-0.1 + 0j, 0.1, "delta_omega_min"), (-0.1, np.complex128(0.1), "delta_omega_max"),
                         ("-0.1", 0.1, "delta_omega_min"), (-0.1, None, "delta_omega_max")):
        with pytest.raises(ValueError, match=f"^grid {name} must be a real number, got "):
            RecoveryGrid(lo, hi, 11)
    assert RecoveryGrid(np.float64(-1.0), 1, 11).bin_width == 0.2
    # the grid holds the float bounds and the int bin count that it checked
    grid = RecoveryGrid(-1, np.float64(1.0), np.int64(11))
    assert [type(x) for x in (grid.delta_omega_min, grid.delta_omega_max, grid.n_bins)] == [float, float, int]
    assert grid == RecoveryGrid(-1.0, 1.0, 11)


def test_grid_refuses_more_than_max_bins_before_allocating(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a grid array was allocated")

    monkeypatch.setattr(np, "linspace", refused)
    assert RecoveryGrid(-1.0, 1.0, MAX_GRID_BINS).n_bins == MAX_GRID_BINS
    for n_bins in (MAX_GRID_BINS + 1, 10**11):
        with pytest.raises(ValueError, match=f"^grid has {n_bins} bins, more than MAX_GRID_BINS = 4096$"):
            RecoveryGrid(-1.0, 1.0, n_bins)


def test_grid_refuses_a_non_integer_bin_count_by_name():
    for n_bins in (50.5, 51.0, np.float64(51.0), True, "51", None):
        with pytest.raises(ValueError, match=f"^grid n_bins must be an integer, got {re.escape(repr(n_bins))}$"):
            RecoveryGrid(-0.1, 0.1, n_bins)
    for n_bins in (51, np.int64(51), np.uint16(51)):
        grid = RecoveryGrid(-0.1, 0.1, n_bins)
        assert grid.points().size == 51 and grid.powers(np.ones(2)).shape == (51, 2)


def test_grid_validation():
    with pytest.raises(ValueError, match="min"):
        RecoveryGrid(0.2, -0.2, 61)
    with pytest.raises(ValueError, match="bins"):
        RecoveryGrid(-0.1, 0.1, 4)


def test_grid_refuses_bool_bounds_by_name():
    # the config reader refuses a JSON boolean as a number; the grid does too
    for lo, hi, name, bad in ((False, True, "delta_omega_min", False),
                              (-0.1, np.bool_(True), "delta_omega_max", np.bool_(True))):
        with pytest.raises(ValueError, match=f"^grid {name} must be a real number, got {re.escape(repr(bad))}$"):
            RecoveryGrid(lo, hi, 10)
    with pytest.raises(ValueError, match=f"^grid delta_omega_max overflows a float, got {10**400}$"):
        RecoveryGrid(0, 10**400, 10)


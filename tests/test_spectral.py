import functools
import warnings

import numpy as np
import pytest

from qincoh.channels import (
    expm_unitary,
    make_synthetic_profile,
    rf_incoherent_channel,
    RFProfile,
)
from qincoh.errors import DegenerateSpectrumError, PairingError
from qincoh.liouville import unitary_superoperator
from qincoh.spectral import (
    F_DISAGREEMENT_TOL,
    K_DEDUP_TOL,
    EigenPairing,
    PairedEigenvalue,
    SpectralSampleSet,
    build_samples,
    eigenbasis,
    four_qubit_fixture,
    label_seeds,
    pair_eigenvalues,
    predict_eigenvalues,
    profile_metrics,
    three_qubit_fixture,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

SKEWED_PROFILE = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)


@functools.lru_cache(maxsize=1)
def fixture_channel():
    h0t, k = three_qubit_fixture()
    s = rf_incoherent_channel(h0t, k, SKEWED_PROFILE)
    return h0t, k, s


def test_eigenbasis_sorted_and_reconstructs():
    h0t, _ = three_qubit_fixture()
    basis = eigenbasis(h0t)
    assert np.all(np.diff(basis.phis) > 0)
    rebuilt = (basis.vectors * basis.phis) @ basis.vectors.conj().T
    assert np.abs(rebuilt - h0t).max() < 1e-10


def test_eigenbasis_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        eigenbasis(np.diag([1.0, 1.0, 2.0]))


def test_eigenbasis_names_non_hermitian_h0t():
    with pytest.raises(ValueError, match="h0t is not Hermitian"):
        eigenbasis(np.array([[1.0, 0.5], [0.0, 2.0]]))


def test_predict_without_perturbation_is_unperturbed():
    h0 = 0.8 * SZ
    profile = make_synthetic_profile("uniform", width=0.1, n_points=11)
    lam = predict_eigenvalues(h0, np.zeros((2, 2)), profile)
    assert np.abs(np.abs(lam) - 1.0).max() < 1e-12
    basis = eigenbasis(h0)
    expected = np.exp(-1j * (basis.phis[:, None] - basis.phis[None, :]))
    assert np.abs(lam - expected).max() < 1e-12


def test_predict_matches_direct_sum_oracle():
    h0 = np.pi / 2 * SX / 2
    profile = make_synthetic_profile("uniform", width=0.1, n_points=41)
    lam = predict_eigenvalues(h0, h0, profile)
    # (j, m) = (1, 0): phase gap pi/2, K_10 = pi/2
    oracle = 0.0j
    for dw, w in zip(profile.delta_omega, profile.weight):
        oracle += w * np.exp(-1j * np.pi / 2 * dw)
    oracle *= np.exp(-1j * np.pi / 2)
    assert abs(lam[1, 0] - oracle) < 1e-12
    assert abs(lam[1, 0]) < 1.0


def test_predict_exact_in_commuting_case():
    h0 = 0.8 * SZ + 0.15 * np.eye(2)
    k = 0.3 * h0
    profile = make_synthetic_profile("gaussian", width=0.03, n_points=21)
    s = rf_incoherent_channel(h0, k, profile)
    pairing = pair_eigenvalues(s, h0, k)
    lam = predict_eigenvalues(h0, k, profile)
    for e in pairing.entries:
        assert abs(lam[e.j, e.m] - e.lambda_measured) < 1e-10


def test_pairing_of_unperturbed_channel_is_exact():
    h0t, k, _ = fixture_channel()
    s0 = unitary_superoperator(expm_unitary(h0t))
    pairing = pair_eigenvalues(s0, h0t, k)
    assert len(pairing.warnings) == 0
    for e in pairing.entries:
        assert e.distance < 1e-10
        assert abs(e.lambda_measured - e.lambda_unperturbed) < 1e-9


def test_pairing_on_fixture_channel():
    h0t, k, s = fixture_channel()
    pairing = pair_eigenvalues(s, h0t, k)
    assert len(pairing.entries) == 64
    assert sum(e.degenerate for e in pairing.entries) == 8
    assert len(pairing.warnings) == 0
    # injective: every measured eigenvalue used once
    measured = sorted((e.lambda_measured.real, e.lambda_measured.imag) for e in pairing.entries)
    assert len(set(measured)) == 64
    # k coordinate is the diagonal contrast of the model perturbation
    basis = eigenbasis(h0t)
    kd = np.einsum("ij,ij->j", basis.vectors.conj(), k @ basis.vectors).real
    for e in pairing.entries[:10]:
        assert abs(e.k_jm - (kd[e.j] - kd[e.m])) < 1e-12


def test_label_seeds_match_dense_expectation_values():
    h0t, _, s = fixture_channel()
    rng = np.random.default_rng(27)
    s_random = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h_random = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h_random = h_random + h_random.conj().T
    for h, sup in ((h0t, s), (h_random, s_random)):
        v = eigenbasis(h).vectors
        n = v.shape[0]
        # oracle: diag(B^dag S B) with the dense basis B = conj(V) kron V
        big_basis = np.kron(v.conj(), v)
        dense = np.einsum("ij,ij->j", big_basis.conj(), sup @ big_basis)
        seeds = label_seeds(sup, v)
        assert np.abs(seeds - dense.reshape(n, n).T).max() < 1e-13


def test_pairing_computes_eigenvalues_only(monkeypatch):
    h0t, k, s = fixture_channel()
    calls = {"eig": 0, "eigvals": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    pairing = pair_eigenvalues(s, h0t, k)
    assert calls == {"eig": 0, "eigvals": 1}
    assert len(pairing.warnings) == 0


def test_pairing_fails_loudly_when_spectrum_is_unrelated():
    h0 = 0.7 * SX
    s_far = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    with pytest.raises(PairingError):
        pair_eigenvalues(s_far, h0, 0.3 * h0)


def test_build_samples_on_fixture():
    h0t, k, s = fixture_channel()
    samples = build_samples(pair_eigenvalues(s, h0t, k))
    assert len(samples) == 57
    assert samples.conjugate_symmetry_residual() < 1e-9
    assert np.all(np.diff(samples.k) > 0)
    dc = np.flatnonzero(samples.k == 0.0)
    assert dc.size == 1
    assert samples.f[dc[0]] == 1.0 + 0.0j


def _symmetry_residual_loop(samples):
    """Reference: the nearest partner of each sample by a full scan."""
    worst = 0.0
    for i in range(samples.k.size):
        partner = int(np.argmin(np.abs(samples.k + samples.k[i])))
        worst = max(
            worst,
            abs(samples.k[partner] + samples.k[i]),
            abs(samples.f[partner] - np.conj(samples.f[i])),
        )
    return worst


def test_conjugate_symmetry_residual_matches_loop_on_asymmetric_sets():
    rng = np.random.default_rng(42)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        if trial % 3 == 0:
            # integer coordinates: repeated k and partners tied on both sides
            ks = rng.integers(-6, 7, n).astype(float)
        else:
            ks = rng.normal(scale=5.0, size=n)
        if trial % 2 == 0:
            ks = np.sort(ks)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        samples = SpectralSampleSet(ks, f)
        expected = _symmetry_residual_loop(samples)
        assert abs(samples.conjugate_symmetry_residual() - expected) <= 1e-15 * expected
    h0t, k, s = fixture_channel()
    samples = build_samples(pair_eigenvalues(s, h0t, k))
    assert samples.conjugate_symmetry_residual() == _symmetry_residual_loop(samples)


def test_build_samples_flat_spectrum_for_unperturbed_channel():
    h0t, k, _ = fixture_channel()
    s0 = unitary_superoperator(expm_unitary(h0t))
    samples = build_samples(pair_eigenvalues(s0, h0t, k))
    assert np.abs(samples.f - 1.0).max() < 1e-9


def test_build_samples_is_order_invariant():
    h0t, k, s = fixture_channel()
    pairing = pair_eigenvalues(s, h0t, k)
    samples = build_samples(pairing)
    rng = np.random.default_rng(41)
    shuffled = list(pairing.entries)
    rng.shuffle(shuffled)
    samples2 = build_samples(EigenPairing(tuple(shuffled), pairing.warnings))
    assert np.array_equal(samples.k, samples2.k)
    assert np.array_equal(samples.f, samples2.f)


def test_four_qubit_fixture_sample_count():
    h0t, k = four_qubit_fixture()
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=21)
    s = rf_incoherent_channel(h0t, k, profile)
    pairing = pair_eigenvalues(s, h0t, k)
    assert len(pairing.entries) == 256
    assert sum(e.degenerate for e in pairing.entries) == 16
    samples = build_samples(pairing)
    assert len(samples) == 241


def _entry(j, m, lam, lam0, kjm):
    return PairedEigenvalue(j, m, lam, lam0, kjm, 0.0, j == m)


def test_build_samples_merges_duplicate_coordinates():
    entries = (
        _entry(0, 0, 1.0, 1.0, 0.0),
        _entry(0, 1, 0.9 + 0.1j, 1.0, 2.0),
        _entry(1, 0, 0.9 - 0.1j, 1.0, -2.0),
        _entry(0, 2, 0.88 + 0.1j, 1.0, 2.0),
        _entry(2, 0, 0.88 - 0.1j, 1.0, -2.0),
    )
    samples = build_samples(EigenPairing(entries, ()))
    assert len(samples) == 3
    merged = samples.f[samples.k == 2.0]
    assert abs(merged[0] - (0.89 + 0.1j)) < 1e-12


def test_build_samples_warns_on_model_disagreement():
    entries = (
        _entry(0, 1, 1.0, 1.0, 2.0),
        _entry(0, 2, 0.5, 1.0, 2.0),
        _entry(1, 0, 1.0, 1.0, -2.0),
        _entry(2, 0, 0.5, 1.0, -2.0),
    )
    with pytest.warns(UserWarning, match="disagree"):
        build_samples(EigenPairing(entries, ()))


def _build_samples_loop(pairing):
    """Reference: the per-group merge loop that the grouped reduction replaced."""
    live = [e for e in pairing.entries if not e.degenerate]
    ks = np.array([e.k_jm for e in live])
    fs = np.array([e.lambda_measured * np.conj(e.lambda_unperturbed) for e in live], dtype=complex)
    near_dc = np.abs(ks) <= K_DEDUP_TOL
    if near_dc.any():
        warnings.warn(f"dropping {int(near_dc.sum())} sample(s) indistinguishable from the DC point")
        ks, fs = ks[~near_dc], fs[~near_dc]
    order = np.argsort(ks)
    ks, fs = ks[order], fs[order]
    out_k = [0.0]
    out_f = [1.0 + 0.0j]
    start = 0
    while start < ks.size:
        stop = start + 1
        while stop < ks.size and ks[stop] - ks[stop - 1] <= K_DEDUP_TOL:
            stop += 1
        group_f = fs[start:stop]
        if stop - start > 1:
            spread = float(np.abs(group_f - group_f.mean()).max())
            if spread > F_DISAGREEMENT_TOL:
                warnings.warn(
                    f"samples sharing k={ks[start]:.6g} disagree by {spread:.3g}; "
                    "the perturbation model may be violated"
                )
        out_k.append(float(ks[start:stop].mean()))
        out_f.append(complex(group_f.mean()))
        start = stop
    order = np.argsort(out_k)
    return SpectralSampleSet(np.array(out_k)[order], np.array(out_f)[order])


def _samples_and_warnings(build, pairing):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = build(pairing)
    return samples, [str(w.message) for w in caught]


def test_build_samples_equals_merge_loop_on_fixtures():
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=21)
    fixtures = (three_qubit_fixture(), three_qubit_fixture(off_diagonal_ratio=0.0), four_qubit_fixture())
    for h0t, k in fixtures:
        pairing = pair_eigenvalues(rf_incoherent_channel(h0t, k, profile), h0t, k)
        samples, caught = _samples_and_warnings(build_samples, pairing)
        expected, expected_caught = _samples_and_warnings(_build_samples_loop, pairing)
        assert np.array_equal(samples.k, expected.k)
        assert np.array_equal(samples.f, expected.f)
        assert caught == expected_caught == []


def test_build_samples_matches_merge_loop_on_repeated_coordinates():
    # repeated k, neighbours just inside and just outside the merge
    # tolerance, chains of them, and near-DC coordinates
    rng = np.random.default_rng(43)
    steps = K_DEDUP_TOL * np.array([0.0, 0.5, 0.999, 1.001, 2.0])
    n_warned = 0
    for trial in range(200):
        n = int(rng.integers(2, 40))
        ks = rng.integers(-5, 6, n) + rng.choice(steps, n) * rng.choice([-1.0, 1.0], n)
        ks[0] = max(abs(ks[0]), 1.0)  # at least one coordinate off the DC point
        # samples sharing a k estimate one Fourier point, with scatter that
        # exceeds F_DISAGREEMENT_TOL on every other trial
        spread = 0.2 if trial % 2 else 1e-3
        f = 0.9 * np.exp(-0.05j * ks) + spread * (rng.normal(size=n) + 1j * rng.normal(size=n))
        lam0 = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        lam = f * lam0
        entries = tuple(_entry(0, i + 1, lam[i], lam0[i], ks[i]) for i in range(n))
        pairing = EigenPairing(entries, ())
        samples, caught = _samples_and_warnings(build_samples, pairing)
        expected, expected_caught = _samples_and_warnings(_build_samples_loop, pairing)
        assert samples.k.shape == expected.k.shape
        assert np.all(np.abs(samples.k - expected.k) <= 1e-15 * np.abs(expected.k))
        assert np.all(np.abs(samples.f - expected.f) <= 1e-15 * np.abs(expected.f))
        assert len(caught) == len(expected_caught)
        n_warned += bool(caught)
    assert n_warned > 50


def test_build_samples_rejects_contrastless_model():
    h0 = 0.8 * SZ
    k = 0.5 * SX  # zero diagonal in the h0 eigenbasis
    profile = make_synthetic_profile("gaussian", width=0.02, n_points=11)
    s = rf_incoherent_channel(h0, k, profile)
    pairing = pair_eigenvalues(s, h0, k)
    with pytest.raises(PairingError, match="contrast"):
        build_samples(pairing)


def test_profile_metrics_gaussian_and_delta():
    g = make_synthetic_profile("gaussian", center=0.02, width=0.05, n_points=61)
    m = profile_metrics(g)
    assert abs(m.mean - 0.02) < 1e-12
    assert abs(m.skewness) < 1e-10
    delta = RFProfile(np.array([0.07]), np.array([1.0]))
    dm = profile_metrics(delta)
    assert dm.mean == 0.07 and dm.std == 0.0 and dm.skewness == 0.0


def test_offset_leaves_recovered_skewness_unchanged():
    # third moments are sensitive to far-field ripple mass, which the
    # ridge-regularized method suppresses; the Riemann variant only keeps
    # ripples balanced when the grid is symmetric about the peak
    from qincoh.nudft import RecoveryGrid, inverse_nudft

    h0t, k, _ = fixture_channel()
    grid = RecoveryGrid(-0.35, 0.35, 141)
    base = make_synthetic_profile("gaussian", width=0.04, n_points=41)

    def recovered_metrics(offset):
        from qincoh.channels import shifted_profile

        profile = shifted_profile(base, offset) if offset else base
        s = rf_incoherent_channel(h0t, k, profile)
        res = inverse_nudft(
            build_samples(pair_eigenvalues(s, h0t, k)), grid, method="least_squares"
        )
        return profile_metrics(res.profile)

    plain = recovered_metrics(0.0)
    shifted = recovered_metrics(0.1)
    assert abs(shifted.mean - 0.1) < 2 * grid.bin_width
    assert abs(shifted.skewness - plain.skewness) < 0.1

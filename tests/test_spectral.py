import functools
import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_eigenbasis_form, second_order_loop
from qincoh import spectral
from qincoh.channels import (
    expm_unitary,
    make_synthetic_profile,
    rf_incoherent_channel,
    RFProfile,
    random_unitary,
)
from qincoh.errors import DegenerateSpectrumError, PairingError
from qincoh.liouville import (
    CHOI_HERMITIAN_TOL,
    GENERATOR_HERMITIAN_TOL,
    eigenbasis_form,
    superop_to_choi,
    unitary_superoperator,
)
from qincoh.nudft import F_DISAGREEMENT_TOL, K_DEDUP_TOL, RecoveryGrid, SpectralSampleSet, inverse_nudft
from qincoh.spectral import (
    DIAGONAL_COUPLING,
    MATCH_TOL,
    MAX_DISC_PAIRS,
    PAIRING_DTYPE,
    EigenPairing,
    _TILE,
    _component_extents,
    _disc_components,
    _label_basis,
    _second_order_values,
    build_samples,
    four_qubit_fixture,
    pair_eigenvalues,
    predict_eigenvalues,
    profile_metrics,
    three_qubit_fixture,
)

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

SKEWED_PROFILE = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)


@functools.lru_cache(maxsize=1)
def fixture_channel():
    h0t, k = three_qubit_fixture()
    s = rf_incoherent_channel(h0t, k, SKEWED_PROFILE)
    return h0t, k, s


def _vectors(h0t):
    """The nominal eigenvectors: the label basis with no perturbation."""
    return _label_basis(h0t, np.zeros_like(h0t))[0]


def test_eigenbasis_sorted_and_reconstructs():
    h0t, _ = three_qubit_fixture()
    vectors, unperturbed, k_jm = _label_basis(h0t, np.zeros_like(h0t))
    phis = np.einsum("ij,ij->j", vectors.conj(), h0t @ vectors).real
    assert np.all(np.diff(phis) > 0)
    rebuilt = (vectors * phis) @ vectors.conj().T
    assert np.abs(rebuilt - h0t).max() < 1e-10
    assert np.abs(unperturbed - np.exp(-1j * (phis[:, None] - phis[None, :]))).max() < 1e-10
    assert np.array_equal(k_jm, np.zeros((8, 8)))


def test_eigenbasis_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        _label_basis(np.diag([1.0, 1.0, 2.0]), np.zeros((3, 3)))


def test_eigenbasis_names_non_hermitian_h0t():
    with pytest.raises(ValueError, match="h0t is not Hermitian"):
        _label_basis(np.array([[1.0, 0.5], [0.0, 2.0]]), np.zeros((2, 2)))


def test_one_hermiticity_verdict_per_generator():
    # every function that reads h0t or k refuses the same deviation
    h0t, k, s = fixture_channel()
    skew = np.zeros_like(h0t)
    skew[0, 1] = 1e-11
    refused = f"is not Hermitian within {GENERATOR_HERMITIAN_TOL:g} "
    for bad_h0t, bad_k in ((h0t + skew, k), (h0t, k + skew)):
        calls = [
            lambda: rf_incoherent_channel(bad_h0t, bad_k, SKEWED_PROFILE),
            lambda: predict_eigenvalues(bad_h0t, bad_k, SKEWED_PROFILE),
            lambda: pair_eigenvalues(s, bad_h0t, bad_k),
            lambda: _label_basis(bad_h0t, bad_k),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=refused):
                call()


def test_predict_without_perturbation_is_unperturbed():
    h0 = 0.8 * SZ
    profile = make_synthetic_profile("uniform", width=0.1, n_points=11)
    lam = predict_eigenvalues(h0, np.zeros((2, 2)), profile)
    assert np.abs(np.abs(lam) - 1.0).max() < 1e-12
    phis = np.linalg.eigvalsh(h0)
    expected = np.exp(-1j * (phis[:, None] - phis[None, :]))
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
    assert sum(e.j == e.m for e in pairing.entries) == 8
    assert len(pairing.warnings) == 0
    # distinct: each label holds its own eigenvalue
    measured = sorted((e.lambda_measured.real, e.lambda_measured.imag) for e in pairing.entries)
    assert len(set(measured)) == 64
    # k coordinate is the diagonal contrast of the model perturbation
    v = _vectors(h0t)
    kd = np.einsum("ij,ij->j", v.conj(), k @ v).real
    for e in pairing.entries[:10]:
        assert abs(e.k_jm - (kd[e.j] - kd[e.m])) < 1e-12


def _random_preserving_map(n, rng):
    """A seeded Hermiticity-preserving map: the superoperator whose Choi
    matrix is a random Hermitian matrix."""
    g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return superop_to_choi((g + g.conj().T) / 2)


def _label_form(sup, v):
    """The full ``S_B``: the rows ``m >= j`` of :func:`eigenbasis_form`, and
    each row ``(m, j)`` the conjugate of row ``(j, m)`` with its column
    pairs swapped."""
    n = v.shape[0]
    j, m = np.triu_indices(n)
    half = eigenbasis_form(sup, v).reshape(-1, n, n)
    sb4 = np.empty((n, n, n, n), dtype=complex)
    sb4[m, j] = half.conj().transpose(0, 2, 1)
    sb4[j, m] = half
    return sb4.reshape(n * n, n * n)


def _transform_cases():
    """Maps with their label bases, each transformed one label at a time:
    the 3q fixture (N = 8), the 4q fixture (N = 16), and seeded maps at
    N = 1, 2, 3, 4, 8, 10 and 16."""
    h0t, _, s = fixture_channel()
    h4, k4 = four_qubit_fixture()
    cases = [(s, _vectors(h0t)), (rf_incoherent_channel(h4, k4, SKEWED_PROFILE), _vectors(h4))]
    rng = np.random.default_rng(27)
    return cases + [(_random_preserving_map(n, rng), random_unitary(n, rng)) for n in (1, 2, 3, 4, 8, 10, 16)]


def test_eigenbasis_form_rows_m_ge_j_match_dense_change_of_basis():
    for sup, v in _transform_cases():
        n = v.shape[0]
        j, m = np.triu_indices(n)
        half = eigenbasis_form(sup, v)
        assert half.shape == (j.size, n * n)
        assert np.abs(half - dense_eigenbasis_form(sup, v)[j * n + m]).max() < 1e-13


def test_eigenbasis_form_rows_j_eq_m_equal_their_own_mirror_bit_for_bit():
    # row (j, j) is its own mirror: as an (N, N) matrix over the column pair
    # (j', m'), it equals its conjugate transpose, so its seed is real
    for sup, v in _transform_cases():
        n = v.shape[0]
        j, m = np.triu_indices(n)
        own = eigenbasis_form(sup, v).reshape(-1, n, n)[j == m]
        assert np.array_equal(own, own.conj().transpose(0, 2, 1))
        assert not own[:, range(n), range(n)].imag.any()


def _mirror_symmetric_label_form(size, rng):
    """A random ``S_B`` over ``size`` labels with ``S_B[p[a], p[b]] = conj
    S_B[a, b]`` for a random involution ``p`` that fixes about
    ``sqrt(size)`` labels, as the mirror fixes the labels (j, j); then the
    labels ``upper``, every fixed one and one of each pair, and ``p``."""
    fixed = math.isqrt(size)
    fixed += (size - fixed) % 2
    order = rng.permutation(size)
    first, second = order[fixed::2], order[fixed + 1::2]
    p = np.arange(size)
    p[first], p[second] = second, first
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    sb = (g + g[np.ix_(p, p)].conj()) / 2
    return sb, np.sort(np.concatenate([order[:fixed], first])), p


@pytest.mark.parametrize("size", [1, 64, _TILE - 1, _TILE, _TILE + 1, 300])
def test_second_order_values_match_double_loop(size, monkeypatch):
    rng = np.random.default_rng(size)
    sb, upper, p = _mirror_symmetric_label_form(size, rng)
    half, lower = sb[upper], p[upper]
    singletons = np.arange(size)
    # members on both sides of the first tile boundary, and the last label,
    # in one component with their mirrors, as the labels (j, j) are
    joined = singletons.copy()
    members = [i for i in (0, _TILE - 1, _TILE, size - 1) if i < size]
    group = np.union1d(members, p[members])
    joined[group] = group.min()
    # recursive summation of n terms, each quotient rounded a few times
    rtol = (size + 4) * np.finfo(float).eps
    for component in (singletons, joined):
        want, magnitude = second_order_loop(sb, component)
        # tiles with one label past the last boundary, exactly on it, and as built
        for tile in (max(1, upper.size - 1), upper.size, _TILE):
            monkeypatch.setattr(spectral, "_TILE", tile)
            got = _second_order_values(half, upper, lower, component)
            assert np.all(np.abs(got - want[upper]) <= rtol * magnitude[upper])
    # one component holding every label leaves every seed as it is
    everything = np.zeros(size, dtype=int)
    assert np.array_equal(_second_order_values(half, upper, lower, everything), sb.diagonal()[upper])


def test_k_of_another_shape_is_refused_by_name():
    h0t, k, s = fixture_channel()
    refused = r"^k has shape \(4, 4\), but h0t has shape \(8, 8\)$"
    with pytest.raises(ValueError, match=refused):
        predict_eigenvalues(h0t, k[:4, :4], SKEWED_PROFILE)
    with pytest.raises(ValueError, match=refused):
        pair_eigenvalues(s, h0t, k[:4, :4])


def test_pairing_reads_nothing_that_depends_on_eigenvector_phases():
    # eigenvectors carry no phase convention: rotating each column by a phase
    # must leave the diagonal of S_B, |S_B| and S_B[a,b] S_B[b,a] unchanged
    h0t, _, s = fixture_channel()
    rng = np.random.default_rng(28)
    v = _vectors(h0t)
    rotated = v * np.exp(2j * np.pi * rng.random(v.shape[1]))
    for sup in (s, _noisy_map(s, 1e-4, rng)):
        sb, sb_rot = _label_form(sup, v), _label_form(sup, rotated)
        for read in (np.diagonal, np.abs, lambda m: m * m.T):
            reference = read(sb)
            assert np.abs(read(sb_rot) - reference).max() <= 1e-12 * np.abs(reference).max()


def test_pairing_runs_no_eigensolver_on_the_superoperator(monkeypatch):
    h0t, k, s = fixture_channel()
    calls = {"eig": 0, "eigvals": 0, "eigh": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    pairing = pair_eigenvalues(s, h0t, k)
    # the only solve is the nominal basis: one eigh of the N x N generator
    assert calls == {"eig": 0, "eigvals": 0, "eigh": 1, "eigvalsh": 0}
    assert len(pairing.warnings) == 0


def _greedy_pairing_oracle(s, h0t):
    """Reference: every eigenvalue from a dense complex solve, matched in
    (j*N + m) order to the nearest unused one from the label's seed
    ``<b_jm|S|b_jm>`` (the pairing this module used before the discs)."""
    v = _vectors(h0t)
    n = v.shape[0]
    evals = np.linalg.eigvals(s)
    seeds = np.diagonal(dense_eigenbasis_form(s, v))
    used = np.zeros(n * n, dtype=bool)
    picked = np.empty(n * n, dtype=complex)
    for a, seed in enumerate(seeds):
        dist = np.abs(evals - seed)
        dist[used] = np.inf
        pick = int(np.argmin(dist))
        used[pick] = True
        picked[a] = evals[pick]
    return picked, evals


def test_pairing_agrees_with_greedy_oracle():
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=21)
    h3, k3 = three_qubit_fixture()
    # the commuting variant: the perturbation is a multiple of h0t
    hc, kc = h3, DIAGONAL_COUPLING * h3
    h4, k4 = four_qubit_fixture()
    channels = (
        (rf_incoherent_channel(h3, k3, SKEWED_PROFILE), h3, k3),
        (rf_incoherent_channel(h4, k4, profile), h4, k4),
        (rf_incoherent_channel(hc, kc, SKEWED_PROFILE), hc, kc),
        (unitary_superoperator(expm_unitary(h3)), h3, k3),
    )
    for s, h0t, k in channels:
        pairing = pair_eigenvalues(s, h0t, k)
        picked, evals = _greedy_pairing_oracle(s, h0t)
        assert len(pairing.warnings) == 0
        for a, e in enumerate(pairing.entries):
            if e.j != e.m:
                assert abs(e.lambda_measured - picked[a]) < 1e-12
            # the certificate, with room for the oracle solver's rounding
            assert np.abs(evals - e.lambda_measured).min() <= e.radius + 1e-13
            assert e.distance <= e.radius


def _noisy_map(s, sigma, rng):
    """S with Hermitian Gaussian noise of size sigma per entry of its Choi
    matrix: still Hermiticity-preserving, no longer a random-unitary map."""
    g = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
    return superop_to_choi(superop_to_choi(s) + sigma * (g + g.conj().T) / 2)


def _discs(s, h0t):
    """The label discs' centres and radii; disc (m, j) is the reflection of
    disc (j, m), and takes its radius, summed over row (j, m)."""
    n = h0t.shape[0]
    sb = _label_form(s, _vectors(h0t))
    radii = np.abs(sb - np.diag(sb.diagonal())).sum(axis=1).reshape(n, n)
    return sb.diagonal(), (np.triu(radii) + np.triu(radii, 1).T).ravel()


def _dense_components(centres, radii):
    """Reference: connected components of the full pairwise overlap matrix,
    numbered by their smallest member."""
    meet = np.abs(centres[:, None] - centres[None, :]) <= radii[:, None] + radii[None, :]
    label = np.full(centres.size, -1)
    for root in range(centres.size):
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            for other in np.flatnonzero(meet[stack.pop()] & (label < 0)):
                label[other] = root
                stack.append(other)
    return label


def test_fixture_discs_isolate_every_off_diagonal_label():
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=21)
    h3, k3, s3 = fixture_channel()
    h4, k4 = four_qubit_fixture()
    for s, h0t, k in ((s3, h3, k3), (rf_incoherent_channel(h4, k4, profile), h4, k4)):
        centres, radii = _discs(s, h0t)
        component = _disc_components(centres, radii)
        n = h0t.shape[0]
        diagonal = np.arange(n) * (n + 1)
        # the j = m discs, all near 1, form one component; every other disc
        # stands alone, so its label's radius is its own disc radius
        assert np.unique(component[diagonal]).size == 1
        assert np.unique(component).size == n * n - n + 1
        for a, e in enumerate(pair_eigenvalues(s, h0t, k).entries):
            if e.j != e.m:
                assert e.radius == radii[a]


def test_each_disc_component_holds_as_many_eigenvalues_as_discs():
    h0t, _, s = fixture_channel()
    rng = np.random.default_rng(71)
    n_joined = 0
    for sigma in (1e-8, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2):
        for _ in range(3):
            s_noisy = _noisy_map(s, sigma, rng)
            centres, radii = _discs(s_noisy, h0t)
            component = _disc_components(centres, radii)
            assert np.array_equal(component, _dense_components(centres, radii))
            # every eigenvalue lies in some disc, and all discs that hold it
            # meet there, so it belongs to exactly one component
            evals = np.linalg.eigvals(s_noisy)
            inside = np.abs(evals[:, None] - centres[None, :]) <= radii[None, :] * (1 + 1e-9) + 1e-13
            assert inside.any(axis=1).all()
            holder = component[np.argmax(inside, axis=1)]
            assert all(np.unique(component[row]).size == 1 for row in inside)
            assert np.array_equal(
                np.bincount(holder, minlength=centres.size),
                np.bincount(component, minlength=centres.size),
            )
            # beyond the one component of the eight j = m discs
            n_joined += np.unique(component).size < centres.size - 7
    assert n_joined > 0


def test_disc_sweep_refuses_too_many_candidate_pairs_before_forming_them():
    # 4096 discs that all overlap: 8386560 candidate pairs, which would
    # take 512 MiB of pair arrays
    centres, radii = np.zeros(4096, dtype=complex), np.ones(4096)
    refused = f"^8386560 candidate disc pairs exceed MAX_DISC_PAIRS = {MAX_DISC_PAIRS}$"
    tracemalloc.start()
    try:
        with pytest.raises(PairingError, match=refused):
            _disc_components(centres, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_component_extents_form_at_most_max_disc_pairs_gaps_at_once(monkeypatch):
    # a chain of 2048 discs, each meeting its neighbours, is one component;
    # unchunked, its 2048 x 2048 gaps would take 96 MiB
    centres, radii = np.arange(2048) + 0j, np.full(2048, 0.6)
    component = _disc_components(centres, radii)
    assert np.unique(component).size == 1
    expected = _component_extents(centres, radii, component)
    monkeypatch.setattr(spectral, "MAX_DISC_PAIRS", 2**16)
    tracemalloc.start()
    try:
        extents = _component_extents(centres, radii, component)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(extents, expected)
    assert peak < 2**22


def _perfbench_sidon_fixture(n_qubits, seed):
    """The benchmark's generated Sidon fixture, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_fixtures", PERFBENCH_DIR / "fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sidon_fixture(n_qubits, np.random.default_rng(seed))


def test_fixtures_pair_with_at_most_one_candidate_pair_per_label(monkeypatch):
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=21)
    fixtures = [three_qubit_fixture(), four_qubit_fixture()]
    fixtures += [_perfbench_sidon_fixture(5, seed) for seed in (0, 13)]
    for h0t, k in fixtures:
        n = h0t.shape[0]
        s = rf_incoherent_channel(h0t, k, profile)
        expected = pair_eigenvalues(s, h0t, k)
        # a cap of one pair per label still pairs each fixture, bit for bit
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "MAX_DISC_PAIRS", n * n)
            pairing = pair_eigenvalues(s, h0t, k)
        assert pairing.entries.tobytes() == expected.entries.tobytes()
        assert pairing.warnings == expected.warnings == ()
        centres, radii = _discs(s, h0t)
        component = _disc_components(centres, radii)
        assert np.array_equal(component, _dense_components(centres, radii))
        # the j = m discs form one component and every other disc stands alone
        assert np.unique(component).size == n * n - n + 1


def test_pairing_reads_as_the_benchmark_harness_reads_it():
    # perfbench/tracing.py iterates the records and reads their fields by
    # attribute; perfbench/workloads.py tests the warnings with a bare `if`
    h0t, k, s = fixture_channel()
    pairing = pair_eigenvalues(s, h0t, k)
    assert len(pairing.entries) == 64
    entries = pairing.entries
    # each record's attribute is its column's entry, bit for bit
    for name in PAIRING_DTYPE.names:
        assert [getattr(e, name) for e in entries] == getattr(entries, name).tolist()
    predicted = predict_eigenvalues(h0t, k, SKEWED_PROFILE)
    # the same scalar abs on both sides: numpy's array abs may differ from it
    # in the last bit
    residual = max(abs(e.lambda_measured - predicted[e.j, e.m]) for e in entries)
    assert residual == max(abs(x) for x in entries.lambda_measured - predicted.ravel())
    assert max(e.distance for e in pairing.entries) == pairing.entries.distance.max()
    assert pairing.warnings == () and not pairing.warnings
    noisy = pair_eigenvalues(_noisy_map(s, 1e-3, np.random.default_rng(72)), h0t, k)
    assert isinstance(noisy.warnings, tuple) and noisy.warnings
    for j, m, radius in noisy.warnings:
        assert type(j) is int and type(m) is int and type(radius) is float
        assert noisy.entries[j * 8 + m].radius == radius > MATCH_TOL


def test_noisy_map_warns_then_fails_by_name():
    h0t, k, s = fixture_channel()
    rng = np.random.default_rng(72)
    quiet = pair_eigenvalues(_noisy_map(s, 1e-6, rng), h0t, k)
    assert len(quiet.warnings) == 0
    noisy = pair_eigenvalues(_noisy_map(s, 1e-3, rng), h0t, k)
    assert 0 < len(noisy.warnings) < len(noisy.entries)
    assert all(radius > MATCH_TOL for _, _, radius in noisy.warnings)
    for _ in range(3):
        # the run stops before a profile, and so a skewness sign, exists
        with pytest.raises(PairingError, match="every eigenvalue match"):
            samples = build_samples(pair_eigenvalues(_noisy_map(s, 1e-2, rng), h0t, k))
            inverse_nudft(samples, RecoveryGrid(-0.35, 0.35, 141))


def test_repeated_phase_differences_share_a_component_and_merge():
    # equally spaced levels: (0,1), (1,2) and (2,3) share a phase difference,
    # as do (0,2) and (1,3), and the diagonal contrast repeats with them
    rng = np.random.default_rng(73)
    w = random_unitary(4, rng)
    levels = np.diag([-1.5, -0.5, 0.5, 1.5])
    coupling = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.fill_diagonal(coupling, 0.0)  # non-commuting, with no diagonal contrast of its own
    h0 = w @ levels @ w.conj().T
    k = w @ (0.3 * levels + 1e-3 * (coupling + coupling.conj().T)) @ w.conj().T
    h0, k = (h0 + h0.conj().T) / 2, (k + k.conj().T) / 2
    s = rf_incoherent_channel(h0, k, make_synthetic_profile("gaussian", width=0.05, n_points=21))
    centres, radii = _discs(s, h0)
    component = _disc_components(centres, radii)
    label = np.arange(16).reshape(4, 4)
    for group in ([(0, 1), (1, 2), (2, 3)], [(1, 0), (2, 1), (3, 2)],
                  [(0, 2), (1, 3)], [(2, 0), (3, 1)]):
        assert np.unique([component[label[j, m]] for j, m in group]).size == 1
    # the diagonal, the three pairs of groups above and the lone (0, 3), (3, 0)
    assert np.unique(component).size == 1 + 4 + 2
    pairing = pair_eigenvalues(s, h0, k)
    assert len(pairing.warnings) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = build_samples(pairing)
    # k_jm takes the 6 values 0.3 * {+-1, +-2, +-3}, plus the DC anchor
    assert len(samples) == 7


def test_pairing_fails_loudly_when_spectrum_is_unrelated():
    # an unrelated map that does preserve Hermiticity, so it reaches the discs
    h0 = 0.7 * SX
    s_far = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    with pytest.raises(PairingError):
        pair_eigenvalues(s_far, h0, 0.3 * h0)


NOT_PRESERVING = r"^superoperator does not preserve Hermiticity within 1e-10 \(deviation "


def test_pairing_refuses_a_map_that_does_not_preserve_hermiticity_by_name():
    rng = np.random.default_rng(27)
    s_random = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h_random = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h_random = h_random + h_random.conj().T
    with pytest.raises(ValueError, match=NOT_PRESERVING + r"\d\.\d{3}e\+00\)$"):
        pair_eigenvalues(s_random, h_random, 0.3 * h_random)
    h0 = 0.7 * SX
    with pytest.raises(ValueError, match=NOT_PRESERVING + r"2\.000e\+00\)$"):
        pair_eigenvalues(np.diag([1.0, 1.0, -1.0, -1.0]), h0, 0.3 * h0)
    # one entry moved off its mirror by twice the tolerance, then by half
    h0t, k, s = fixture_channel()
    s_moved = s.copy()
    s_moved[3, 17] += 2 * CHOI_HERMITIAN_TOL
    with pytest.raises(ValueError, match=NOT_PRESERVING + r"2\.000e-10\)$"):
        pair_eigenvalues(s_moved, h0t, k)
    s_moved[3, 17] = s[3, 17] + 0.5 * CHOI_HERMITIAN_TOL
    assert len(pair_eigenvalues(s_moved, h0t, k).warnings) == 0


def test_pairing_rejects_non_finite_superoperator():
    h0t, k, s = fixture_channel()
    # an entry and its mirror, and an entry that is its own mirror
    for where in ((3, 17), (0, 0)):
        for bad in (np.nan, np.inf, -np.inf):
            s_bad = s.copy()
            s_bad[where] = bad
            with pytest.raises(ValueError, match="^superoperator is not finite$"):
                pair_eigenvalues(s_bad, h0t, k)
    # a NaN read in a later row block than a larger finite deviation
    s_bad = s.copy()
    s_bad[0, 1] += 1.0
    s_bad[60, 5] = np.nan
    with pytest.raises(ValueError, match="^superoperator is not finite$"):
        pair_eigenvalues(s_bad, h0t, k)


def test_pairing_refuses_a_map_of_another_size_by_name():
    h0t, k = three_qubit_fixture()
    with pytest.raises(ValueError, match=r"^superoperator shape \(16, 16\) does not match dim 8$"):
        pair_eigenvalues(np.eye(16), h0t, k)


def test_build_samples_on_fixture():
    h0t, k, s = fixture_channel()
    samples = build_samples(pair_eigenvalues(s, h0t, k))
    assert len(samples) == 57 and samples.k.size == 28
    assert samples.k[0] > K_DEDUP_TOL and np.all(np.diff(samples.k) > 0)
    ks, f = samples.mirrored()
    assert ks.size == 57 and ks[28] == 0.0 and f[28] == 1.0 + 0.0j


@pytest.mark.filterwarnings("error")
def test_build_samples_reads_the_labels_j_lt_m_and_their_mirrors_agree_bit_for_bit():
    # label (m, j) holds -k_jm and the conjugate value of (j, m), so folding
    # every label merges each mirror pair with no spread, and the mirrored
    # set is the raw points of all labels j != m, bit for bit
    for h0t, k in (three_qubit_fixture(), four_qubit_fixture()):
        profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=21)
        pairing = pair_eigenvalues(rf_incoherent_channel(h0t, k, profile), h0t, k)
        samples = build_samples(pairing)
        live = pairing.entries[pairing.entries.j != pairing.entries.m]
        f_live = np.array([complex(a) * complex(b).conjugate()
                           for a, b in zip(live.lambda_measured, live.lambda_unperturbed)])
        every_label = SpectralSampleSet.from_points(live.k_jm, f_live)
        assert np.array_equal(every_label.k, samples.k) and np.array_equal(every_label.f, samples.f)
        order = np.argsort(live.k_jm)
        ks, f = samples.mirrored()
        assert np.array_equal(ks[ks != 0.0], live.k_jm[order])
        assert np.array_equal(f[ks != 0.0], f_live[order])


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
    perm = rng.permutation(len(pairing.entries))
    samples2 = build_samples(EigenPairing(pairing.entries[perm], pairing.warnings))
    assert np.array_equal(samples.k, samples2.k)
    assert np.array_equal(samples.f, samples2.f)


def test_four_qubit_fixture_sample_count():
    h0t, k = four_qubit_fixture()
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=21)
    s = rf_incoherent_channel(h0t, k, profile)
    pairing = pair_eigenvalues(s, h0t, k)
    assert len(pairing.entries) == 256
    assert sum(e.j == e.m for e in pairing.entries) == 16
    samples = build_samples(pairing)
    assert len(samples) == 241


def _entry(j, m, lam, lam0, kjm):
    return (j, m, lam, lam0, kjm, 0.0, 0.0)


def _pairing(entries):
    return EigenPairing(np.rec.fromrecords(list(entries), dtype=PAIRING_DTYPE), ())


def test_build_samples_merges_duplicate_coordinates():
    entries = (
        _entry(0, 0, 1.0, 1.0, 0.0),
        _entry(0, 1, 0.9 + 0.1j, 1.0, 2.0),
        _entry(1, 0, 0.9 - 0.1j, 1.0, -2.0),
        _entry(0, 2, 0.88 + 0.1j, 1.0, 2.0),
        _entry(2, 0, 0.88 - 0.1j, 1.0, -2.0),
    )
    samples = build_samples(_pairing(entries))
    assert len(samples) == 3
    merged = samples.f[samples.k == 2.0]
    assert abs(merged[0] - (0.89 + 0.1j)) < 1e-12


def test_build_samples_attributes_its_drop_warning_to_the_caller():
    entries = (
        _entry(0, 0, 1.0, 1.0, 0.0),
        _entry(0, 1, 1.0, 1.0, 1e-12),
        _entry(1, 0, 1.0, 1.0, -1e-12),
        _entry(0, 2, 0.9 + 0.1j, 1.0, 2.0),
        _entry(2, 0, 0.9 - 0.1j, 1.0, -2.0),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = build_samples(_pairing(entries))
    # the labels j < m are read, so a drop counts mirror pairs of labels
    assert [str(w.message) for w in caught] == ["dropping 1 sample(s) indistinguishable from the DC point"]
    assert caught[0].filename == __file__
    assert np.array_equal(samples.k, [2.0]) and np.array_equal(samples.mirrored()[0], [-2.0, 0.0, 2.0])


def test_build_samples_warns_on_model_disagreement():
    entries = (
        _entry(0, 1, 1.0, 1.0, 2.0),
        _entry(0, 2, 0.5, 1.0, 2.0),
        _entry(1, 0, 1.0, 1.0, -2.0),
        _entry(2, 0, 0.5, 1.0, -2.0),
    )
    with pytest.warns(UserWarning, match="disagree"):
        build_samples(_pairing(entries))


def _build_samples_loop(pairing):
    """Reference: the per-group merge loop that the grouped reduction
    replaced, over the labels j < m, each folded onto k > 0 first."""
    live = [e for e in pairing.entries if e.j < e.m]
    ks = np.array([abs(e.k_jm) for e in live])
    fs = np.array([e.lambda_measured * np.conj(e.lambda_unperturbed) for e in live], dtype=complex)
    fs = np.array([np.conj(x) if e.k_jm < 0 else x for e, x in zip(live, fs)], dtype=complex)
    near_dc = ks <= K_DEDUP_TOL
    if near_dc.any():
        warnings.warn(f"dropping {int(near_dc.sum())} sample(s) indistinguishable from the DC point")
        ks, fs = ks[~near_dc], fs[~near_dc]
    order = np.argsort(ks)
    ks, fs = ks[order], fs[order]
    out_k = []
    out_f = []
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
    h3, k3 = three_qubit_fixture()
    # the fixture, its commuting variant and the 4-qubit fixture
    fixtures = ((h3, k3), (h3, DIAGONAL_COUPLING * h3), four_qubit_fixture())
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
        pairing = _pairing(entries)
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
    # every |k_jm| at K_DEDUP_TOL, which the sample set drops as the DC point
    at_dc = _pairing((
        _entry(0, 0, 1.0, 1.0, 0.0),
        _entry(0, 1, 0.9 + 0.1j, 1.0, K_DEDUP_TOL),
        _entry(1, 0, 0.9 - 0.1j, 1.0, -K_DEDUP_TOL),
        _entry(1, 1, 1.0, 1.0, 0.0),
    ))
    for pairing in (pair_eigenvalues(s, h0, k), at_dc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PairingError, match="contrast"):
                build_samples(pairing)


def test_build_samples_refuses_a_one_level_channel_by_name():
    # N = 1 has the one label (0, 0), so no label j < m gives a sample
    h0, k = np.array([[0.3]]), np.array([[0.1]])
    profile = make_synthetic_profile("gaussian", width=0.02, n_points=11)
    pairing = pair_eigenvalues(rf_incoherent_channel(h0, k, profile), h0, k)
    with pytest.raises(ValueError, match=r"^pairing has no label with j < m$"):
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
    # third moments are sensitive to far-field ripple mass, which the ridge
    # of the least-squares fit suppresses
    from qincoh.nudft import F_DISAGREEMENT_TOL, K_DEDUP_TOL, RecoveryGrid, SpectralSampleSet, inverse_nudft

    h0t, k, _ = fixture_channel()
    grid = RecoveryGrid(-0.35, 0.35, 141)
    base = make_synthetic_profile("gaussian", width=0.04, n_points=41)

    def recovered_metrics(offset):
        profile = RFProfile(base.delta_omega + offset, base.weight) if offset else base
        s = rf_incoherent_channel(h0t, k, profile)
        res = inverse_nudft(build_samples(pair_eigenvalues(s, h0t, k)), grid)
        return profile_metrics(res.profile)

    plain = recovered_metrics(0.0)
    shifted = recovered_metrics(0.1)
    assert abs(shifted.mean - 0.1) < 2 * grid.bin_width
    assert abs(shifted.skewness - plain.skewness) < 0.1

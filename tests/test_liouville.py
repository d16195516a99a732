import tracemalloc

import numpy as np
import pytest

from oracles import kraus_operators, kraus_sum, random_rud_ensemble
from qincoh.channels import make_synthetic_profile, random_unitary, rf_incoherent_channel, rud_superoperator
from qincoh.cli import parse_pauli_sum
from qincoh.liouville import (
    CHOI_HERMITIAN_TOL,
    CP_TOL,
    EIGENVALUE_TIE_TOL,
    choi_spectrum,
    columnize,
    conjugation_sum,
    cp_filter,
    superop_eigenvalues,
    superop_to_choi,
    unitary_superoperator,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

EQ4_S = np.diag([1.0, 1.2j, -1.2j, 1.0])
UNCORR_S = np.diag([1.0, 0.5j, -0.5j, 1.0])


def choi_by_elementary_sum(s):
    """Independent oracle: the literal elementary-matrix double sum."""
    n = int(np.sqrt(s.shape[0]))
    eye = np.eye(n, dtype=complex)
    c = np.zeros_like(s)
    for i in range(n):
        for j in range(n):
            e_ij = np.zeros((n, n), dtype=complex)
            e_ij[i, j] = 1.0
            c += np.kron(e_ij, eye) @ s @ np.kron(eye, e_ij)
    return c


def greedy_multiset_distance(a, b):
    """Largest distance when each entry of a takes the nearest unused entry of b."""
    assert a.size == b.size
    free = np.ones(b.size, dtype=bool)
    worst = 0.0
    for x in a:
        d = np.where(free, np.abs(b - x), np.inf)
        i = int(np.argmin(d))
        free[i] = False
        worst = max(worst, float(d[i]))
    return worst


def test_columnize_examples():
    assert np.array_equal(columnize(np.eye(2) / 2), [0.5, 0, 0, 0.5])
    rho_x = (np.eye(2) + 0.5 * SX) / 2
    assert np.array_equal(columnize(rho_x), [0.5, 0.25, 0.25, 0.5])
    rho_y = (np.eye(2) + 0.6 * SY) / 2
    assert np.abs(columnize(rho_y) - np.array([0.5, 0.3j, -0.3j, 0.5])).max() < 1e-15


def test_columnize_order_is_column_major():
    m = np.arange(9).reshape(3, 3).astype(complex)
    v = columnize(m)
    for i in range(3):
        for j in range(3):
            assert v[i + 3 * j] == m[i, j]


def test_columnize_round_trip_is_exact():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert np.array_equal(columnize(m).reshape(dim, dim, order="F"), m)
        v = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        assert np.array_equal(columnize(v.reshape(dim, dim, order="F")), v)


def test_columnize_of_a_stack_equals_the_per_matrix_column_stacks():
    rng = np.random.default_rng(12)
    for shape in ((5, 3, 3), (2, 3, 2, 4)):
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vectors = columnize(stack)
        assert vectors.shape == (*shape[:-2], shape[-2] * shape[-1])
        for index in np.ndindex(*shape[:-2]):
            assert np.array_equal(vectors[index], columnize(stack[index]))
    assert columnize(np.zeros((0, 2, 2))).shape == (0, 4)


def test_columnize_refuses_a_scalar_and_a_vector_by_name():
    for rho, shape in ((np.float64(0.5), r"\(\)"), (np.ones(4), r"\(4,\)")):
        with pytest.raises(ValueError, match=rf"^rho must be a matrix or a stack of them, got shape {shape}$"):
            columnize(rho)


def test_vectorization_identity():
    rng = np.random.default_rng(12)
    for dim in (2, 3, 4):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = columnize(a @ rho @ b)
        rhs = np.kron(b.T, a) @ columnize(rho)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_unitary_superoperator_identity():
    assert np.array_equal(unitary_superoperator(np.eye(2)), np.eye(4))


def test_unitary_superoperator_z_rotation():
    u = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    s = unitary_superoperator(u)
    assert np.abs(s - np.diag([1.0, 1j, -1j, 1.0])).max() < 1e-15


def test_unitary_superoperator_bit_flip():
    s = unitary_superoperator(SX)
    assert np.abs(s @ np.array([1, 0, 0, 0]) - np.array([0, 0, 0, 1])).max() < 1e-15


def test_unitary_superoperator_matches_conjugation():
    rng = np.random.default_rng(13)
    u = random_unitary(4, rng)
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    assert np.abs(
        unitary_superoperator(u) @ columnize(rho) - columnize(u @ rho @ u.conj().T)
    ).max() < 1e-12


def test_unitary_superoperator_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        unitary_superoperator(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_non_finite_maps_are_refused_by_name():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^u is not finite$"):
            unitary_superoperator(np.full((2, 2), bad))
        s = np.eye(4, dtype=complex)
        s[1, 2] = bad
        with pytest.raises(ValueError, match="^s is not finite$"):
            choi_spectrum(s)


def test_identity_channel_choi_is_maximally_entangled_projector():
    c = superop_to_choi(np.eye(4, dtype=complex))
    w, v = np.linalg.eigh(c)
    assert np.abs(w - np.array([0.0, 0.0, 0.0, 2.0])).max() < 1e-12
    assert abs(np.trace(c) - 2.0) < 1e-12
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.abs(np.abs(v[:, -1].conj() @ bell) - 1.0) < 1e-12


def test_superop_to_choi_matches_elementary_sum_exactly():
    rng = np.random.default_rng(16)
    for s in (EQ4_S, np.kron(random_unitary(3, rng).conj(), random_unitary(3, rng))):
        assert np.array_equal(superop_to_choi(s), choi_by_elementary_sum(s))


def test_choi_reshuffle_is_involution_bit_exact():
    rng = np.random.default_rng(17)
    assert np.array_equal(superop_to_choi(superop_to_choi(EQ4_S)), EQ4_S)
    for _ in range(10):
        s = unitary_superoperator(random_unitary(2, rng))
        assert np.array_equal(superop_to_choi(superop_to_choi(s)), s)
    assert np.array_equal(superop_to_choi(superop_to_choi(np.eye(4))), np.eye(4))


def test_is_cp_examples():
    # the reports' CP verdict: the smallest Choi eigenvalue is at least -CP_TOL
    for s, cp, expected in ((EQ4_S, False, -0.2), (UNCORR_S, True, 0.0), (np.eye(4), True, 0.0)):
        min_eig = choi_spectrum(s)[-1]
        assert (min_eig >= -CP_TOL) == cp
        assert abs(min_eig - expected) < 1e-12


def test_choi_spectrum_is_the_descending_choi_eigvalsh():
    rng = np.random.default_rng(26)
    for s in [EQ4_S, UNCORR_S, np.eye(4)] + [
        rud_superoperator(random_rud_ensemble(2 ** (1 + i % 3), 2 + i % 4, rng)) for i in range(6)
    ]:
        c = superop_to_choi(s)
        w = choi_spectrum(s)
        assert np.array_equal(w, np.linalg.eigvalsh((c + c.conj().T) / 2)[::-1])
    assert np.abs(choi_spectrum(EQ4_S) - np.array([2.2, 0.0, 0.0, -0.2])).max() < 1e-12


def test_is_cp_rejects_a_map_that_does_not_preserve_hermiticity():
    rng = np.random.default_rng(27)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # positive definite, so cp_filter accepts it too
    choi = h @ h.conj().T
    skew = 1j * np.eye(4)
    bad = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for check in (choi_spectrum, cp_filter):
        # adding i*x*I moves max|C - C^dag| to 2x: 0.8 and 1.2 times the tolerance
        check(superop_to_choi(choi + 0.4 * CHOI_HERMITIAN_TOL * skew))
        for s in (superop_to_choi(choi + 0.6 * CHOI_HERMITIAN_TOL * skew), bad):
            with pytest.raises(ValueError, match="^Choi matrix is not Hermitian within 1e-10 "):
                check(s)


def test_choi_spectrum_of_a_stack_equals_the_per_map_spectra():
    rng = np.random.default_rng(28)
    for n_qubits in (1, 2):
        maps = [rud_superoperator(random_rud_ensemble(2**n_qubits, 1 + i % 4, rng)) for i in range(6)]
        maps.append(cp_filter(maps[0] + 0.05 * np.eye(maps[0].shape[0]))[0])
        stack = np.stack(maps)
        spectra = choi_spectrum(stack)
        assert spectra.shape == (7, 4**n_qubits)
        for s, w, c in zip(maps, spectra, superop_to_choi(stack)):
            assert np.array_equal(w, choi_spectrum(s))
            assert np.array_equal(c, superop_to_choi(s))
        # any number of leading axes
        grid = stack[:6].reshape(2, 3, *stack.shape[1:])
        assert np.array_equal(choi_spectrum(grid).reshape(6, -1), spectra[:6])
        assert np.array_equal(superop_to_choi(grid).reshape(6, *stack.shape[1:]), superop_to_choi(stack[:6]))
    assert np.array_equal(superop_to_choi(superop_to_choi(stack)), stack)
    assert superop_to_choi(np.zeros((0, 16, 16))).shape == (0, 16, 16)


def test_choi_spectrum_of_a_stack_names_the_first_non_hermitian_choi_matrix():
    rng = np.random.default_rng(29)
    bad = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    stack = np.stack([UNCORR_S, bad[0], bad[1], EQ4_S])
    with pytest.raises(ValueError, match=r"^Choi matrix\[1\] is not Hermitian within 1e-10 "):
        choi_spectrum(stack)
    with pytest.raises(ValueError, match=r"^Choi matrix\[0\]\[1\] is not Hermitian within 1e-10 "):
        choi_spectrum(stack.reshape(2, 2, 4, 4))


def test_is_cp_converts_and_checks_its_map_once(monkeypatch):
    from qincoh import liouville, validation

    calls = []

    def counted(m, name):
        calls.append(name)
        return convert(m, name)

    convert = validation.as_square_stack
    monkeypatch.setattr(validation, "as_square_stack", counted)
    monkeypatch.setattr(liouville, "as_square_stack", counted)
    # the reports' CP verdict reads one Choi spectrum
    assert choi_spectrum(EQ4_S.tolist())[-1] == pytest.approx(-0.2)
    assert calls == ["s"]


def test_kraus_completeness_for_trace_preserving_maps():
    # the Choi convention: a trace-preserving map's Kraus operators,
    # read off its Choi eigenvectors, satisfy sum A^dag A = I
    ops = kraus_operators(UNCORR_S)
    assert len(ops) == 2
    total = sum(a.conj().T @ a for a in ops)
    assert np.abs(total - np.eye(2)).max() < 1e-10


def test_conjugation_sum_is_exactly_hermiticity_preserving_and_matches_kron_loop():
    # block (c, a) of S is the conjugate transpose of block (a, c), bit for
    # bit, so its Choi matrix is exactly Hermitian
    rng = np.random.default_rng(24)
    for n_qubits in range(4):
        n = 2**n_qubits
        for n_members in range(1, 7):
            ensemble = random_rud_ensemble(2**n_qubits, n_members, rng)
            weights = [p for p, _ in ensemble]
            unitaries = [u for _, u in ensemble]
            s = rud_superoperator(ensemble)
            s4 = s.reshape(n, n, n, n)
            assert np.array_equal(s4, s4.transpose(1, 0, 3, 2).conj())
            choi = superop_to_choi(s)
            assert np.array_equal(choi, choi.conj().T)
            assert np.abs(s - kraus_sum(unitaries, weights)).max() <= 1e-14


def test_conjugation_sum_peak_memory_is_one_superoperator_and_a_half():
    # the output is N^4 complex entries; no second N^2 x N^2 array is made
    n, n_members = 16, 41
    rng = np.random.default_rng(26)
    ops = np.stack([random_unitary(n, rng) for _ in range(n_members)])
    weights = rng.random(n_members)
    weights /= weights.sum()
    tracemalloc.start()
    try:
        conjugation_sum(ops, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n**4 * 16, peak / (n**4 * 16)


def test_superop_eigenvalues_match_eig_multiset():
    rng = np.random.default_rng(25)
    preserving = [EQ4_S, UNCORR_S] + [
        rud_superoperator(random_rud_ensemble(2 ** (1 + i % 3), 2 + i % 4, rng)) for i in range(9)
    ]
    general = [
        np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex),
        rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)),
    ]
    for s in preserving + general:
        w = superop_eigenvalues(s)
        assert greedy_multiset_distance(w, np.linalg.eig(s)[0]) < 1e-12
        assert np.array_equal(w, tie_ordered(w))
    assert np.abs(superop_eigenvalues(EQ4_S) - np.array([1.0, 1.0, 1.2j, -1.2j])).max() < 1e-15


def tie_ordered(w):
    """Reference order: real part descending, with each run of real parts
    whose neighbours lie within EIGENVALUE_TIE_TOL ordered by imaginary part
    descending, as a loop over the runs."""
    rest = sorted(w.tolist(), key=lambda z: -z.real)
    runs = [[rest[0]]]
    for z in rest[1:]:
        if runs[-1][-1].real - z.real <= EIGENVALUE_TIE_TOL:
            runs[-1].append(z)
        else:
            runs.append([z])
    return np.array([z for run in runs for z in sorted(run, key=lambda z: -z.imag)])


def test_superop_eigenvalues_order_survives_rounding_of_a_preserving_map():
    # the bundled rud2q channel: its conjugate pairs have real parts equal to
    # rounding, so an exact (real, imag) sort orders them by rounding noise
    s = rf_incoherent_channel(
        parse_pauli_sum("0.5 * ZI + 0.3 * IZ + 0.2 * XX"),
        parse_pauli_sum("0.1 * ZI + 0.05 * IZ"),
        make_synthetic_profile("gaussian", width=0.05, n_points=11),
    )
    w = superop_eigenvalues(s)
    assert np.array_equal(w, tie_ordered(w))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        # a 1e-15 perturbation that keeps the Choi matrix Hermitian
        perturbed = superop_to_choi(superop_to_choi(s) + 1e-15 * (g + g.conj().T) / 2)
        assert np.abs(superop_eigenvalues(perturbed) - w).max() < 1e-13
        raw = np.linalg.eigvals(perturbed)
        exact = raw[np.lexsort((-raw.imag, -raw.real))]
        # the exact sort swaps rows of a conjugate pair
        assert np.abs(exact - w).max() > 1.0


def test_superop_eigenvalues_rejects_non_square_side():
    with pytest.raises(ValueError, match="perfect square"):
        superop_eigenvalues(np.eye(3))


def test_superop_eigenvalues_names_the_matrix_size_when_eigvals_fails(monkeypatch):
    def fail(s):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(np.linalg.LinAlgError, match=r"^eigendecomposition did not converge for 4x4 matrix "
                       r"\(max\|entry\| = 1\.000e\+00\): Eigenvalues did not converge$"):
        superop_eigenvalues(np.eye(4))


def test_cp_filter_eq4_example():
    filtered, removed = cp_filter(EQ4_S)
    assert abs(removed - 0.2) < 1e-12
    w = choi_spectrum(filtered)
    assert np.abs(w - np.array([2.0, 0.0, 0.0, 0.0])).max() < 1e-12
    # rank one: a single Kraus operator, which is unitary
    (op,) = kraus_operators(filtered)
    assert np.abs(op.conj().T @ op - np.eye(2)).max() < 1e-10
    assert np.abs(kraus_sum([op]) - filtered).max() < 1e-10
    assert abs(np.trace(superop_to_choi(filtered)) - 2.0) < 1e-10


def test_cp_filter_keeps_cp_input():
    filtered, removed = cp_filter(UNCORR_S)
    assert removed == 0.0
    assert np.abs(filtered - UNCORR_S).max() < 1e-12


def test_cp_filter_differs_from_decorrelation():
    filtered, _ = cp_filter(EQ4_S)
    assert np.abs(filtered - UNCORR_S).max() > 0.1


def test_cp_filter_refuses_a_map_with_no_positive_choi_eigenvalue():
    with pytest.raises(ValueError, match=r"^entire Choi spectrum is non-positive; cannot CP-filter$"):
        cp_filter(-unitary_superoperator(np.eye(2)))


def test_cp_filter_output_is_cp_with_unit_choi_trace():
    rng = np.random.default_rng(20)
    for dim in (2, 4):
        # random Hermiticity-preserving maps with indefinite Choi spectra
        h = rng.standard_normal((dim * dim, dim * dim)) + 1j * rng.standard_normal(
            (dim * dim, dim * dim)
        )
        choi = h + h.conj().T
        filtered, removed = cp_filter(superop_to_choi(choi))
        assert removed >= 0.0
        assert choi_spectrum(filtered)[-1] >= -1e-10
        assert abs(np.trace(superop_to_choi(filtered)) - dim) < 1e-10


def test_unitary_superoperator_spectrum_on_unit_circle():
    rng = np.random.default_rng(19)
    for dim in (2, 4):
        s = unitary_superoperator(random_unitary(dim, rng))
        w = np.linalg.eigvals(s)
        assert np.abs(np.abs(w) - 1.0).max() < 1e-10
        # closed under conjugation
        for lam in w:
            assert np.abs(w - np.conj(lam)).min() < 1e-9

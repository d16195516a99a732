import re
import warnings

import numpy as np
import pytest

from oracles import random_rud_ensemble
from qincoh.channels import (
    MAX_PROFILE_POINTS,
    WEIGHT_SUM_TOL,
    RFProfile,
    expm_unitary,
    make_synthetic_profile,
    random_unitary,
    rf_incoherent_channel,
    rud_superoperator,
)
from qincoh.liouville import CP_TOL, choi_spectrum, columnize, unitary_superoperator
from qincoh.spectral import profile_metrics, three_qubit_fixture

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_expm_unitary_zero_hamiltonian():
    assert np.abs(expm_unitary(np.zeros((3, 3))) - np.eye(3)).max() < 1e-15


def test_expm_unitary_zz_coupling():
    u = expm_unitary(np.pi / 4 * np.kron(SZ, SZ))
    phases = np.exp(-1j * np.pi / 4 * np.array([1, -1, -1, 1]))
    assert np.abs(u - np.diag(phases)).max() < 1e-12


def test_expm_unitary_90_degree_pulse():
    u = expm_unitary(np.pi / 2 * SX / 2)
    expected = np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2)
    assert np.abs(u - expected).max() < 1e-12


def test_expm_unitary_is_unitary_and_semigroup():
    rng = np.random.default_rng(21)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    u = expm_unitary(0.7 * h)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-11
    assert np.abs(
        expm_unitary(0.3 * h) @ expm_unitary(0.4 * h) - expm_unitary(0.7 * h)
    ).max() < 1e-11


def test_rud_single_member_is_unitary_superoperator():
    rng = np.random.default_rng(22)
    u = random_unitary(2, rng)
    assert np.abs(rud_superoperator([(1.0, u)]) - unitary_superoperator(u)).max() < 1e-15


def test_rud_zz_dephasing_example():
    u_plus = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    s = rud_superoperator([(0.75, u_plus), (0.25, u_plus.conj())])
    assert np.abs(s - np.diag([1.0, 0.5j, -0.5j, 1.0])).max() < 1e-15


def test_rud_complete_dephasing():
    s = rud_superoperator([(0.5, np.eye(2, dtype=complex)), (0.5, SZ)])
    assert np.abs(s - np.diag([1.0, 0.0, 0.0, 1.0])).max() < 1e-15


def test_rud_rejects_bad_ensembles():
    with pytest.raises(ValueError, match="at least one"):
        rud_superoperator([])
    with pytest.raises(ValueError, match="sum"):
        rud_superoperator([(0.5, np.eye(2, dtype=complex))])
    with pytest.raises(ValueError, match="non-negative"):
        rud_superoperator([(1.5, np.eye(2, dtype=complex)), (-0.5, SZ)])
    with pytest.raises(ValueError, match=r"ensemble\[1\] is not unitary"):
        rud_superoperator([(0.5, SZ), (0.5, np.array([[1.0, 0.1], [0.0, 1.0]]))])
    with pytest.raises(ValueError, match="mismatched"):
        rud_superoperator([(0.5, SZ), (0.5, np.eye(4, dtype=complex))])


def test_rud_refuses_a_non_finite_member_by_name():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^ensemble\[1\] is not finite$"):
            rud_superoperator([(0.5, SZ), (0.5, np.full((2, 2), bad))])


def test_rud_refuses_non_finite_weights_by_name():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^ensemble\\[0\\] weight must be finite, got {bad!r}$"):
            rud_superoperator([(bad, SZ), (0.5, np.eye(2, dtype=complex))])


def test_profile_and_ensemble_weights_share_one_rule():
    builds = {
        "profile": lambda ws: RFProfile(np.array([0.0, 0.1]), np.array(ws)),
        "ensemble": lambda ws: rud_superoperator([(ws[0], SZ), (ws[1], np.eye(2, dtype=complex))]),
    }
    assert WEIGHT_SUM_TOL == 1e-12
    over = [0.5, 0.5 + 2e-12]
    for name, build in builds.items():
        with pytest.raises(ValueError, match=f"^{name} weights must be non-negative$"):
            build([1.5, -0.5])
        refused = f"{name} weights sum to {np.array(over).sum()!r}, expected 1 within 1e-12"
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            build(over)
        build([0.5, 0.5 + 5e-13])


def test_rf_channel_refuses_non_finite_generators_and_members_by_name():
    profile = RFProfile(np.array([0.0, 0.1]), np.array([0.5, 0.5]))
    for bad in (np.nan, np.inf):
        nonfinite = np.full((2, 2), bad)
        with pytest.raises(ValueError, match="^h0 is not finite$"):
            rf_incoherent_channel(nonfinite, SZ, profile)
        with pytest.raises(ValueError, match="^k is not finite$"):
            rf_incoherent_channel(SZ, nonfinite, profile)
    # finite generators whose h0*t overflows exponentiate to NaN members
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"^ensemble\[0\] is not finite$"):
        rf_incoherent_channel(1e300 * SZ, SZ, profile, t=1e10)


def test_rf_channel_refuses_an_overflowing_member_without_a_warning(monkeypatch):
    # no np.errstate here: tier-1 turns a RuntimeWarning into an error, and
    # the named refusal must come first, before any eigensolver sees the stack
    def refused(*args, **kwargs):
        raise AssertionError("eigh ran on an overflowed generator")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    profile = RFProfile(np.array([0.0, 1e10]), np.array([0.5, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^ensemble\[0\] is not finite$"):
            rf_incoherent_channel(1e300 * SZ, SZ, profile, t=1e10)
        # h0*t is finite; dw*k overflows for the second member only
        with pytest.raises(ValueError, match=r"^ensemble\[1\] is not finite$"):
            rf_incoherent_channel(SZ, 1e300 * SZ, profile)


def test_rud_channel_properties_seeded():
    rng = np.random.default_rng(23)
    for i in range(10):
        n_qubits = 1 + i % 3
        s = rud_superoperator(random_rud_ensemble(2**n_qubits, 2 + i % 4, rng))
        dim = 2**n_qubits
        min_eig = choi_spectrum(s)[-1]
        assert min_eig >= -CP_TOL, f"ensemble {i}: min Choi eigenvalue {min_eig}"
        ident = columnize(np.eye(dim) / dim)
        assert np.abs(s @ ident - ident).max() < 1e-11
        bra = columnize(np.eye(dim)).conj()
        assert np.abs(bra @ s - bra).max() < 1e-11
        w = np.linalg.eigvals(s)
        assert np.abs(w).max() <= 1 + 1e-10
        for lam in w:
            assert np.abs(w - np.conj(lam)).min() < 1e-9


def test_rf_channel_trivial_profile():
    h0 = np.pi / 2 * SX / 2
    profile = RFProfile(np.array([0.0]), np.array([1.0]))
    s = rf_incoherent_channel(h0, h0, profile)
    assert np.abs(s - unitary_superoperator(expm_unitary(h0))).max() < 1e-12


def test_rf_channel_sinc_attenuation_oracle():
    # on-resonance 90-degree pulse; K = H0*t exactly, so the weighted-sum
    # oracle over the profile is the exact eigenvalue
    h0 = np.pi / 2 * SX / 2
    profile = make_synthetic_profile("uniform", center=0.0, width=0.1, n_points=51)
    s = rf_incoherent_channel(h0, h0, profile)
    w = np.linalg.eigvals(s)
    oracle = np.exp(-1j * np.pi / 2) * np.sum(
        profile.weight * np.exp(-1j * np.pi / 2 * profile.delta_omega)
    )
    assert abs(oracle.imag) < 1e-12 or abs(oracle) < 1.0
    assert np.abs(w - oracle).min() < 1e-12
    attenuation = np.sum(profile.weight * np.exp(-1j * np.pi / 2 * profile.delta_omega))
    assert abs(attenuation.imag) < 1e-12
    assert attenuation.real < 1.0


def test_rf_channel_matches_member_loop():
    # oracle: the per-member exponential and kron accumulation of the
    # batched build
    rng = np.random.default_rng(26)
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)
    generators = [three_qubit_fixture()]
    for dim in (2, 4):
        h0, k = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in "hk")
        # Hermitian only within 1e-13, so which triangle is read matters
        skew = 1e-13 * rng.standard_normal((dim, dim))
        generators.append((h0 + h0.conj().T + skew, k + k.conj().T - skew))
    for h0, k in generators:
        for t in (1.0, 0.7):
            dim = h0.shape[0]
            oracle = np.zeros((dim * dim, dim * dim), dtype=complex)
            for dw, p in zip(profile.delta_omega, profile.weight):
                u = expm_unitary(h0 * t + dw * k)
                oracle += p * np.kron(u.conj(), u)
            assert np.abs(rf_incoherent_channel(h0, k, profile, t=t) - oracle).max() < 1e-14


def test_rf_channel_dim_mismatch():
    with pytest.raises(ValueError, match="mismatched"):
        rf_incoherent_channel(
            SZ, np.kron(SZ, SZ), RFProfile(np.array([0.0]), np.array([1.0]))
        )


def test_three_qubit_channel_unit_eigenvalue_count():
    h0t, k = three_qubit_fixture()
    profile = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)
    s = rf_incoherent_channel(h0t, k, profile)
    w = np.linalg.eigvals(s)
    assert w.size == 64
    assert int(np.sum(np.abs(w - 1.0) < 1e-9)) == 8


def test_uniform_profile_weights():
    p = make_synthetic_profile("uniform", center=0.0, width=0.1, n_points=5)
    assert np.abs(p.weight - 0.2).max() < 1e-15


def test_gaussian_profile_is_symmetric():
    p = make_synthetic_profile("gaussian", center=0.0, width=0.05, n_points=61)
    assert abs(p.weight.sum() - 1.0) < 1e-12
    moments = profile_metrics(p)
    assert abs(moments.skewness) < 1e-10


def test_skewed_profile_moment_oracle():
    p = make_synthetic_profile("skewed", center=0.0, width=0.05, skew=0.4, n_points=41)
    mean = float(np.sum(p.weight * p.delta_omega))
    var = float(np.sum(p.weight * (p.delta_omega - mean) ** 2))
    third = float(np.sum(p.weight * (p.delta_omega - mean) ** 3))
    moments = profile_metrics(p)
    assert abs(moments.mean - mean) < 1e-12
    assert abs(moments.std - np.sqrt(var)) < 1e-12
    assert abs(moments.skewness - third / var**1.5) < 1e-12
    assert moments.skewness > 0
    neg = make_synthetic_profile("skewed", center=0.0, width=0.05, skew=-0.4, n_points=41)
    assert profile_metrics(neg).skewness < 0


def test_make_synthetic_profile_rejects_bad_params():
    with pytest.raises(ValueError, match="n_points"):
        make_synthetic_profile("uniform", n_points=2)
    with pytest.raises(ValueError, match="width"):
        make_synthetic_profile("gaussian", width=0.0)
    with pytest.raises(ValueError, match="skew"):
        make_synthetic_profile("uniform", skew=0.1)
    with pytest.raises(ValueError, match="skew"):
        make_synthetic_profile("skewed", skew=1.0)
    with pytest.raises(ValueError, match="kind"):
        make_synthetic_profile("lorentzian")


def test_make_synthetic_profile_refuses_a_non_integer_size_by_name():
    for n_points in (41.0, np.float64(41.0), 40.5, True, "41", None):
        with pytest.raises(ValueError, match=f"^n_points must be an integer, got {re.escape(repr(n_points))}$"):
            make_synthetic_profile("gaussian", n_points=n_points)
    for n_points in (np.int64(41), np.int32(41)):
        assert len(make_synthetic_profile("gaussian", n_points=n_points)) == 41


def test_make_synthetic_profile_refuses_non_finite_params_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("center", "width", "skew"):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    make_synthetic_profile("skewed", **{name: bad})


@pytest.mark.filterwarnings("error")
def test_make_synthetic_profile_refuses_an_overflowing_support_without_a_warning():
    # finite parameters whose support, or its length, overflows; numpy
    # scalars overflow with a warning where Python floats do not
    cases = [
        ("uniform", {"center": 1e308, "width": 1e308}),
        ("uniform", {"width": 1e308}),
        ("gaussian", {"width": 1e308}),
        ("gaussian", {"width": np.float64(1e308)}),
        ("gaussian", {"center": -1.7e308, "width": 1e307}),
        ("skewed", {"width": 1e308, "skew": 0.5}),
        ("skewed", {"width": 5e307, "skew": -0.5}),
    ]
    for kind, params in cases:
        with pytest.raises(ValueError, match=f"^{kind} profile support from center=.* has non-finite length$"):
            make_synthetic_profile(kind, **params)
    # half the smallest subnormal rounds to zero
    with pytest.raises(ValueError, match="^side width of width=5e-324, skew=0.5 underflows to zero$"):
        make_synthetic_profile("skewed", width=5e-324, skew=0.5)
    # a support just inside the float range is built
    for kind, width in (("uniform", 8e307), ("gaussian", 2.9e307), ("skewed", 1e307)):
        assert np.isfinite(make_synthetic_profile(kind, width=width).delta_omega).all()


def test_make_synthetic_profile_refuses_more_than_max_points_before_allocating(monkeypatch):
    assert len(make_synthetic_profile("gaussian", n_points=MAX_PROFILE_POINTS)) == MAX_PROFILE_POINTS

    def refused(*args, **kwargs):
        raise AssertionError("a profile array was allocated")

    monkeypatch.setattr(np, "linspace", refused)
    monkeypatch.setattr(np, "full", refused)
    for n_points in (MAX_PROFILE_POINTS + 1, 10**11):
        with pytest.raises(ValueError, match=rf"^n_points must lie in \[3, MAX_PROFILE_POINTS = 4096\], got {n_points}$"):
            make_synthetic_profile("uniform", n_points=n_points)


def test_profile_refuses_non_finite_arrays_by_name():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^profile weight is not finite$"):
            RFProfile(np.array([0.0, 1.0]), np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="^profile delta_omega is not finite$"):
            RFProfile(np.array([0.0, bad]), np.array([0.5, 0.5]))


def test_profile_refuses_complex_and_mismatched_arrays_by_name():
    for dw, w, name in ((np.array([0.0, 1 + 1j]), [0.5, 0.5], "delta_omega"),
                        ([0.0, 1 + 1j], [0.5, 0.5], "delta_omega"),
                        ([0.0, 1.0], np.array([0.5, 0.5 + 0j]), "weight"),
                        ([0.0, 1.0], [0.5, 0.5j], "weight")):
        with pytest.raises(ValueError, match=f"^profile {name} is complex, expected real$"):
            RFProfile(dw, w)
    for dw, w in ((np.array([0.0, 1.0]), np.array([1.0])), (np.array([]), np.array([]))):
        with pytest.raises(ValueError, match=(
            rf"^profile needs matching 1-d delta_omega and weight arrays, got shapes \({dw.size},\) and \({w.size},\)$"
        )):
            RFProfile(dw, w)


def test_profile_refuses_a_complex_value_in_an_object_array_by_name():
    # numpy gives an object array no complex dtype; its values decide
    for dw, w, name in ((np.array([0.0, 1j], dtype=object), [0.5, 0.5], "delta_omega"),
                        ([0.0, 1.0], np.array([0.5, 0.5 + 0j], dtype=object), "weight")):
        with pytest.raises(ValueError, match=f"^profile {name} is complex, expected real$"):
            RFProfile(dw, w)
    # an object array of real numbers is read as one
    assert RFProfile(np.array([0.0, 1.0], dtype=object), [0.5, 0.5]).delta_omega.dtype == float


def test_profile_refuses_a_string_array_by_name():
    for dw, w, name, dtype in ((np.array(["0.0", "1.0"]), [0.5, 0.5], "delta_omega", "<U3"),
                               ([0.0, 1.0], [0.5, "0.5"], "weight", "<U32"),
                               ([0.0, 1.0], np.array([0.5, None], dtype=object), "weight", "object")):
        with pytest.raises(ValueError, match=f"^profile {name} is not numeric \\(dtype {dtype}\\)$"):
            RFProfile(dw, w)


def test_profile_requires_increasing_support_and_normalization():
    with pytest.raises(ValueError, match="increasing"):
        RFProfile(np.array([0.1, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="sum"):
        RFProfile(np.array([0.0, 0.1]), np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="non-negative"):
        RFProfile(np.array([0.0, 0.1]), np.array([1.2, -0.2]))


@pytest.mark.parametrize("kind, center, width, skew", [
    ("gaussian", 1.0, 1e-17, 0.0),
    ("uniform", 1e6, 1e-12, 0.0),
    ("skewed", 1.0, 1e-16, 0.5),
])
def test_make_synthetic_profile_refuses_a_width_below_the_float_spacing_by_name(kind, center, width, skew):
    # every point rounds onto its neighbour near center; the refusal names
    # both parameters before RFProfile sees the repeated points
    message = f"^{kind} profile of width={width!r} is too narrow .* around center={center!r}$"
    with pytest.raises(ValueError, match=message):
        make_synthetic_profile(kind, center=center, width=width, skew=skew)


@pytest.mark.filterwarnings("error")
def test_profile_parameters_must_be_real_numbers_not_bools():
    for name, bad in (("skew", "0.2"), ("center", True), ("width", np.bool_(True)), ("center", 0.1j), ("width", None)):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(bad))}$"):
            make_synthetic_profile("skewed", **{"width": 0.1, name: bad})
    with pytest.raises(ValueError, match=f"^center overflows a float, got {10**400}$"):
        make_synthetic_profile("gaussian", center=10**400)
    # integers and numpy reals are real numbers
    given = make_synthetic_profile("skewed", center=np.float64(0.5), width=1, skew=np.float64(0.2))
    plain = make_synthetic_profile("skewed", center=0.5, width=1.0, skew=0.2)
    assert np.array_equal(given.delta_omega, plain.delta_omega) and np.array_equal(given.weight, plain.weight)


@pytest.mark.filterwarnings("error")
def test_rf_channel_refuses_a_duration_that_is_not_a_real_number():
    # exp(-i (h0*t + dw*k)) of a complex t is no unitary's generator; eigh
    # would read its lower triangle as Hermitian and build a wrong channel
    h0t, k = three_qubit_fixture()
    profile = make_synthetic_profile("gaussian", n_points=5)
    for bad in (1j, 1 + 0j, "1.0", True, None):
        with pytest.raises(ValueError, match=f"^t must be a real number, got {re.escape(repr(bad))}$"):
            rf_incoherent_channel(h0t, k, profile, t=bad)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^t must be finite, got {bad!r}$"):
            rf_incoherent_channel(h0t, k, profile, t=bad)
    assert np.array_equal(rf_incoherent_channel(h0t, k, profile, t=np.float64(2.0)),
                          rf_incoherent_channel(h0t, k, profile, t=2))


@pytest.mark.filterwarnings("error")
def test_ensemble_weights_and_dimension_are_scalars_by_name():
    for bad in ("0.5", True, 0.5 + 0j):
        refusal = f"ensemble[1] weight must be a real number, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            rud_superoperator([(0.5, SZ), (bad, np.eye(2, dtype=complex))])
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError, match=f"^dim must be an integer, got {re.escape(repr(bad))}$"):
            random_unitary(bad, np.random.default_rng(0))
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"^dim must be at least 1, got {bad}$"):
            random_unitary(bad, np.random.default_rng(0))
    assert random_unitary(np.int64(2), np.random.default_rng(0)).shape == (2, 2)

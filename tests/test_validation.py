import pickle
import re

import numpy as np
import pytest

from qincoh.channels import RFProfile, expm_unitary, make_synthetic_profile, rf_incoherent_channel, rud_superoperator
from qincoh.liouville import (
    choi_spectrum,
    columnize,
    cp_filter,
    require_hermiticity_preserving,
    superop_eigenvalues,
    superop_to_choi,
    unitary_superoperator,
)
from qincoh.nudft import SpectralSampleSet, forward_nudft
from qincoh.spectral import pair_eigenvalues, three_qubit_fixture
from qincoh.tomography import evolve_and_reduce, partial_trace_b, prepare_correlated_inputs
from qincoh.validation import (
    as_square_stack,
    first_failure,
    hermitian_part,
    integer,
    numeric,
    real_scalar,
    require_hermitian,
    require_unitary,
    unitary_stack,
)


def test_non_finite_matrices_are_refused_by_name():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        for check in (require_hermitian, require_unitary):
            with pytest.raises(ValueError, match="^m is not finite$"):
                check(m, 1e-10, "m")


def test_unitarity_check_refuses_a_nan_deviation():
    # finite, but u^dag u sums +inf and -inf into NaN
    u = np.array([[1e200, 1e200], [1e200, -1e200]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="^u is not unitary within 1e-10 "):
        require_unitary(u, 1e-10, "u")


# Every public entry that takes an array from outside, with one argument
# spoiled: (entry, the call of the spoiled argument, a valid value of it,
# the name a refusal gives it, whether it is real).
PROFILE = make_synthetic_profile("gaussian", n_points=11)
KS, FS = np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.ones(5, dtype=complex)
H2, M4 = 0.3 * np.diag([1.0, -1.0 + 0j]), np.eye(4, dtype=complex)
H0T, K3 = three_qubit_fixture()
ARRAY_ARGUMENTS = [
    ("forward_nudft", lambda x: forward_nudft(PROFILE, x), KS, "forward_nudft coordinates ks", True),
    ("RFProfile delta_omega", lambda x: RFProfile(x, [0.5, 0.5]), [0.0, 1.0], "profile delta_omega", True),
    ("RFProfile weight", lambda x: RFProfile([0.0, 1.0], x), [0.5, 0.5], "profile weight", True),
    ("SpectralSampleSet k", lambda x: SpectralSampleSet(x, FS), KS, "sample set k", True),
    ("SpectralSampleSet f", lambda x: SpectralSampleSet(KS, x), FS, "sample set f", False),
    ("expm_unitary", expm_unitary, H2, "h", False),
    ("rf_incoherent_channel h0", lambda x: rf_incoherent_channel(x, H2, PROFILE), H2, "h0", False),
    ("rf_incoherent_channel k", lambda x: rf_incoherent_channel(H2, x, PROFILE), H2, "k", False),
    ("pair_eigenvalues s", lambda x: pair_eigenvalues(x, H0T, K3), np.eye(64, dtype=complex), "superoperator", False),
    ("pair_eigenvalues h0t", lambda x: pair_eigenvalues(np.eye(64), x, K3), H0T, "h0t", False),
    ("superop_eigenvalues", superop_eigenvalues, M4, "s", False),
    ("superop_to_choi", superop_to_choi, M4, "s", False),
    ("choi_spectrum", choi_spectrum, M4, "s", False),
    ("cp_filter", cp_filter, M4, "s", False),
    ("unitary_superoperator", unitary_superoperator, M4, "u", False),
    ("columnize", columnize, M4, "rho", False),
    ("rud_superoperator", lambda x: rud_superoperator([(1.0, x)]), M4, "ensemble[0]", False),
    ("partial_trace_b", partial_trace_b, M4, "rho_ab", False),
    ("evolve_and_reduce u_ab", lambda x: evolve_and_reduce(x, M4), M4, "u_ab", False),
    ("evolve_and_reduce rho_ab", lambda x: evolve_and_reduce(M4, x), M4, "rho_ab", False),
    ("prepare_correlated_inputs alpha", lambda x: prepare_correlated_inputs(x, 0.1, 0.1), 0.3, "alpha", True),
]


def _holding(value):
    """A spoiler: the valid array as an object array whose last entry is ``value``."""
    def spoil(x):
        held = np.array(x, dtype=object)
        held.reshape(-1)[-1] = value
        return held
    return spoil


def _ragged(x):
    """A spoiler: nested lists of the valid array's first entry, of two lengths."""
    v = np.ravel(x)[0]
    return [[v, v], [v]]


SPOILERS = {
    "string": (lambda x: np.full(np.shape(x), "a"), r"is not numeric \(dtype <U1\)"),
    "object complex": (_holding(1j), "is complex, expected real"),
    "object None": (_holding(None), r"is not numeric \(dtype object\)"),
    "ragged": (_ragged, "is ragged: its nested sequences differ in length"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spoiler", SPOILERS)
@pytest.mark.parametrize("entry, call, valid, name, real", ARRAY_ARGUMENTS, ids=[a[0] for a in ARRAY_ARGUMENTS])
def test_public_entries_refuse_non_numeric_arrays_by_name(entry, call, valid, name, real, spoiler):
    spoil, refusal = SPOILERS[spoiler]
    if spoiler == "object complex" and not real:
        # where complex is expected, an object array of complex values is
        # read by its values: the result is the one of the valid array
        assert pickle.dumps(call(np.array(valid, dtype=object))) == pickle.dumps(call(valid))
        return
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} {refusal}$"):
        call(spoil(valid))


CONVERSIONS = [
    (np.array([True, False]), (bool, float, complex)),
    (np.array([[1, -2], [3, 4]], dtype=np.int32), (float, complex)),
    ([1, 2**40], (float, complex)),
    (np.array([0.5, -1.5, 1e300]), (float, complex)),
    (np.float32(0.1), (float, complex)),
    (np.array([0.5, -1.5], dtype=object), (float, complex)),
    (np.array([[1 + 2j, 3j]]), (complex,)),
    (np.array([1 + 2j, 0.5], dtype=object), (complex,)),
]


@pytest.mark.parametrize("x, dtypes", CONVERSIONS)
def test_numeric_converts_valid_input_as_asarray_does(x, dtypes):
    for dtype in dtypes:
        got, want = numeric(x, dtype, "x"), np.asarray(x, dtype=dtype)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    # an array of the expected dtype is not copied
    for a, dtype in ((np.eye(3, dtype=complex), complex), (np.eye(3, dtype=complex)[:, ::2], complex),
                     (np.arange(3.0), float), (np.ones(2, dtype=bool), bool)):
        assert numeric(a, dtype, "a") is a


def test_numeric_refuses_kinds_the_dtype_does_not_admit_by_name():
    for x, dtype, refusal in (([1.0], bool, "x is real, expected boolean"),
                              (np.array([1, 0]), bool, "x is integer, expected boolean"),
                              ([0.5, 1j], float, "x is complex, expected real"),
                              (np.array(["1.0"]), complex, r"x is not numeric \(dtype <U3\)"),
                              (np.array([1], dtype="datetime64[s]"), float,
                               r"x is not numeric \(dtype datetime64\[s\]\)")):
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            numeric(x, dtype, "x")
    # an object array of sequences has more axes than it shows: no number
    pairs = np.empty(2, dtype=object)
    pairs[0], pairs[1] = [0.0, 1.0], [2.0, 3.0]
    with pytest.raises(ValueError, match=r"^x is not numeric \(dtype object\)$"):
        numeric(pairs, float, "x")
    with pytest.raises(ValueError, match=r"^profile delta_omega is not numeric \(dtype object\)$"):
        RFProfile(pairs, [0.5, 0.5])
    # an object array of sequences of two lengths is ragged by its values
    pairs[1] = [2.0]
    with pytest.raises(ValueError, match="^x is ragged: its nested sequences differ in length$"):
        numeric(pairs, float, "x")


def test_scalar_checks_refuse_bools_and_non_numbers_by_name():
    for x in (True, np.bool_(False), "1.0", 1j, None, np.array([1.0])):
        with pytest.raises(ValueError, match=f"^x must be a real number, got {re.escape(repr(x))}$"):
            real_scalar(x, "x")
    for x in (True, 1.0, np.float64(2.0), "1", None):
        with pytest.raises(ValueError, match=f"^x must be an integer, got {re.escape(repr(x))}$"):
            integer(x, "x")
    with pytest.raises(ValueError, match=f"^x overflows a float, got {10**400}$"):
        real_scalar(10**400, "x")
    for x in (float("nan"), float("inf"), -np.inf, np.float32("nan")):
        with pytest.raises(ValueError, match=f"^x must be finite, got {re.escape(repr(x))}$"):
            real_scalar(x, "x")
    assert real_scalar(np.int64(3), "x") == 3.0 and type(real_scalar(np.float32(0.5), "x")) is float
    assert integer(np.uint16(7), "x") == 7 and type(integer(np.int64(7), "x")) is int


def test_first_failure_labels_the_leading_axes():
    assert first_failure(np.array(False)) is None
    assert first_failure(np.zeros(3, dtype=bool)) is None
    assert first_failure(np.zeros((2, 3), dtype=bool)) is None
    assert first_failure(np.array(True)) == ((), "")
    assert first_failure(np.array([False, True, True])) == ((1,), "[1]")
    bad = np.zeros((2, 3), dtype=bool)
    bad[1, 2] = bad[1, 0] = True
    assert first_failure(bad) == ((1, 0), "[1][0]")
    # a numpy scalar flag, as a check of a single matrix gives
    assert first_failure(np.float64(1.0) > 0.5) == ((), "")
    assert first_failure(np.float64(0.0) > 0.5) is None


# stacks of identities with one and with two leading axes, each spoiled at
# two positions; the error names the first of them in C order
STACKS = [((3,), (1,), (2,), "[1]"), ((2, 3), (0, 2), (1, 1), "[0][2]")]


def _identities(lead):
    return np.broadcast_to(np.eye(2, dtype=complex), (*lead, 2, 2)).copy()


def test_as_square_stack_names_the_first_non_finite_matrix():
    for lead, first, later, index in STACKS:
        for bad in (np.nan, np.inf):
            m = _identities(lead)
            m[first + (0, 1)] = bad
            m[later + (1, 1)] = bad
            with pytest.raises(ValueError, match=rf"^m{re.escape(index)} is not finite$"):
                as_square_stack(m, "m")


def test_as_square_stack_refuses_a_non_square_and_an_empty_matrix_by_name():
    with pytest.raises(ValueError, match=r"^m must be a square matrix or a stack of them, got shape \(2, 3\)$"):
        as_square_stack(np.zeros((2, 3)), "m")
    with pytest.raises(ValueError, match=r"^m must have at least one row$"):
        as_square_stack(np.zeros((0, 0)), "m")


def test_hermitian_part_names_the_first_non_hermitian_matrix():
    for lead, first, later, index in STACKS:
        m = _identities(lead)
        m[first + (0, 1)] = 1e-3
        m[later + (0, 1)] = 1.0
        with pytest.raises(ValueError, match=(
            rf"^m{re.escape(index)} is not Hermitian within 1e-10 \(deviation 1\.000e-03\)$"
        )):
            hermitian_part(m, 1e-10, "m")


def test_unitary_stack_names_the_first_non_unitary_matrix():
    for lead, first, later, index in STACKS:
        u = _identities(lead)
        u[first] *= 2.0
        u[later] *= 3.0
        with pytest.raises(ValueError, match=(
            rf"^u{re.escape(index)} is not unitary within 1e-10 \(deviation 3\.000e\+00\)$"
        )):
            unitary_stack(u, 1e-10, "u")
        # the check returns the stack it was given
        u = _identities(lead)
        assert unitary_stack(u, 1e-10, "u") is u


# liouville's Hermiticity-preservation check: the check of a superoperator,
# kept beside the matrix checks it complements


def _preserving_map(n, seed):
    """A Hermiticity-preserving map: ``S[(a,b),(c,d)] = conj S[(b,a),(d,c)]``
    holds exactly, as the mean of a random matrix and its mirror."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n))
    return ((g + g.transpose(1, 0, 3, 2).conj()) / 2).reshape(n * n, n * n)


def test_hermiticity_preservation_reads_every_row_block():
    # the check steps one row block a at a time, against the blocks b >= a:
    # an entry spoiled in any row block a, in its first block b = 0 (read
    # from row block 0's step) or its last (read from its own), is refused
    for n in (4, 8):
        s = _preserving_map(n, 4)
        for a in range(n):
            for b in (0, n - 1):
                spoiled = s.copy()
                spoiled[a * n + b, (n - 1 - a) * n + a] += 0.25
                with pytest.raises(ValueError, match=(
                    r"^s does not preserve Hermiticity within 1e-10 \(deviation 2\.500e-01\)$"
                )):
                    require_hermiticity_preserving(spoiled, "s")


def test_hermiticity_preservation_is_checked_against_the_tolerance():
    s = _preserving_map(3, 1)
    assert np.array_equal(require_hermiticity_preserving(s, "s"), s)
    # S[(0,1),(2,0)] against its mirror S[(1,0),(0,2)], moved by 2x and 0.5x
    for move, refused in ((2e-10, True), (0.5e-10, False), (2e-10j, True)):
        moved = s.copy()
        moved[1, 6] += move
        if refused:
            with pytest.raises(ValueError, match=(
                r"^s does not preserve Hermiticity within 1e-10 \(deviation 2\.000e-10\)$"
            )):
                require_hermiticity_preserving(moved, "s")
        else:
            require_hermiticity_preserving(moved, "s")
    # an entry that is its own mirror, S[(1,1),(2,2)], may only be real
    moved = s.copy()
    moved[4, 8] += 1e-10j
    with pytest.raises(ValueError, match=r"\(deviation 2\.000e-10\)$"):
        require_hermiticity_preserving(moved, "s")


def test_hermiticity_preservation_names_non_finite_entries_first():
    s = _preserving_map(4, 2)
    for where in ((1, 6), (5, 10), (15, 15)):
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            spoiled = s.copy()
            spoiled[where] = bad
            with pytest.raises(ValueError, match="^s is not finite$"):
                require_hermiticity_preserving(spoiled, "s")
    # a NaN read in the last row block, after row block 0 has a finite
    # deviation of 1, at n = 4 and in the last of sixteen row blocks, where
    # a running max over the row blocks would drop it
    for n in (4, 16):
        spoiled = _preserving_map(n, 3)
        spoiled[0, 1] += 1.0
        spoiled[n * n - 1, 2] = np.nan
        with pytest.raises(ValueError, match="^s is not finite$"):
            require_hermiticity_preserving(spoiled, "s")


def test_hermiticity_preservation_overflow_is_a_deviation_not_a_warning():
    # finite entries whose difference overflows to inf: no numpy warning,
    # and the map is refused for its deviation, not as non-finite
    s = _preserving_map(2, 3)
    s[1, 2], s[2, 1] = 1e308, -1e308
    with pytest.raises(ValueError, match=r"^s does not preserve Hermiticity within 1e-10 \(deviation inf\)$"):
        require_hermiticity_preserving(s, "s")


def test_hermiticity_preservation_refuses_other_shapes_by_name():
    for shape, message in (
        ((4,), r"^s must be a square 2-d array, got shape \(4,\)$"),
        ((4, 9), r"^s must be a square 2-d array, got shape \(4, 9\)$"),
        ((3, 3), r"^s side 3 is not a positive perfect square$"),
        ((0, 0), r"^s side 0 is not a positive perfect square$"),
    ):
        with pytest.raises(ValueError, match=message):
            require_hermiticity_preserving(np.zeros(shape), "s")

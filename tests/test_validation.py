import re

import numpy as np
import pytest

from qincoh.liouville import require_hermiticity_preserving
from qincoh.validation import (
    as_square_stack,
    first_failure,
    hermitian_part,
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
    assert np.array_equal(require_hermiticity_preserving(s), s)
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

import re

import numpy as np
import pytest

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


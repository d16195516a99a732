import numpy as np
import pytest

from qincoh.validation import require_hermitian, require_unitary


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

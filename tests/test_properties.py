"""Property tests over seeded random-unitary channels of 1-3 qubits.

Each example draws a seed, a qubit count and a member count, and builds the
channel ``sum_k p_k conj(U_k) kron U_k`` from ``random_rud_ensemble``.  The
examples are derandomized and kept few so the suite stays fast and
reproducible.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qincoh.channels import random_rud_ensemble, rud_superoperator  # noqa: E402
from qincoh.liouville import (  # noqa: E402
    choi_to_kraus,
    choi_to_superop,
    cp_filter,
    is_cp,
    kraus_to_superop,
    superop_to_choi,
)

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def rud_channels(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_qubits = draw(st.integers(1, 3))
    return rud_superoperator(random_rud_ensemble(n_qubits, draw(st.integers(1, 4)), rng))


@PROPERTY
@given(rud_channels())
def test_choi_reshuffle_is_an_exact_involution(s):
    c = superop_to_choi(s)
    assert np.array_equal(choi_to_superop(c), s)
    assert np.array_equal(superop_to_choi(choi_to_superop(c)), c)


@PROPERTY
@given(rud_channels(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_cp_filter_is_idempotent(s, seed, strength):
    # a random Hermitian kick to the Choi matrix makes the map non-CP
    rng = np.random.default_rng(seed)
    d = s.shape[0]
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    kicked = choi_to_superop(superop_to_choi(s) + strength * (h + h.conj().T) / 2)
    filtered, _ = cp_filter(kicked)
    again, removed = cp_filter(filtered)
    assert removed <= 1e-12
    assert is_cp(filtered)[0]
    assert np.abs(again - filtered).max() <= 1e-12


@PROPERTY
@given(rud_channels())
def test_kraus_round_trip(s):
    assert np.abs(kraus_to_superop(choi_to_kraus(superop_to_choi(s))) - s).max() <= 1e-12

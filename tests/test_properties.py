"""Property tests over seeded random-unitary channels of 1-3 qubits, over
sets of Gershgorin discs and over synthetic profile parameters.

Each channel example draws a seed, a qubit count and a member count, and
builds the channel ``sum_k p_k conj(U_k) kron U_k`` from
``random_rud_ensemble``.  The examples are derandomized and kept few so the
suite stays fast and reproducible.
"""
import re
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qincoh.channels import (  # noqa: E402
    make_synthetic_profile,
    random_rud_ensemble,
    rud_superoperator,
)
from qincoh.liouville import (  # noqa: E402
    choi_to_kraus,
    choi_to_superop,
    cp_filter,
    is_cp,
    kraus_to_superop,
    superop_to_choi,
)
from qincoh.spectral import _component_extents, _disc_components  # noqa: E402

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


@st.composite
def permuted_discs(draw):
    # centres on a coarse grid, so discs touch, overlap and share left edges
    n = draw(st.integers(1, 12))
    grid = st.integers(-4, 4).map(lambda i: i / 4)
    centres = np.array([complex(draw(grid), draw(grid)) for _ in range(n)])
    radii = np.array([draw(st.integers(0, 4)) / 8 for _ in range(n)])
    return centres, radii, np.array(draw(st.permutations(range(n))), dtype=int)


@PROPERTY
@given(permuted_discs())
def test_disc_components_are_equivariant_under_permutation(discs):
    centres, radii, perm = discs
    component = _disc_components(centres, radii)
    permuted = _disc_components(centres[perm], radii[perm])
    # the same partition: disc i of the permuted set is disc perm[i]
    assert np.array_equal(permuted[:, None] == permuted[None, :],
                          component[perm][:, None] == component[perm][None, :])
    extents = _component_extents(centres, radii, component)
    assert np.array_equal(_component_extents(centres[perm], radii[perm], permuted), extents[perm])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["uniform", "gaussian", "skewed"]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.integers(3, 64),
)
def test_synthetic_profile_is_built_or_refused_by_name(kind, center, width, skew, n_points):
    # any finite parameters give a profile or a named refusal, never a numpy
    # warning; a width below the spacing of floats near the centre collapses
    # the support to repeated points
    skew = skew if kind == "skewed" else 0.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = make_synthetic_profile(kind, center, width, skew, n_points)
    except ValueError as exc:
        assert re.search("non-finite length|underflows to zero|strictly increasing", str(exc)), exc
        return
    assert len(profile) == n_points

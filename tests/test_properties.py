"""Property tests over seeded random-unitary channels of 1-3 qubits, over
their pairings in a random label basis at 2-5 levels, over sets of
Gershgorin discs, over synthetic profile parameters, over sample sets
near a mirror-symmetric one and over the JSON documents that the artifact
encoder writes.

Each channel example draws a seed, a qubit count and a member count, and
builds the channel ``sum_k p_k conj(U_k) kron U_k`` from
``oracles.random_rud_ensemble``.  The examples are derandomized and kept
few so the suite stays fast and reproducible.
"""
import json
import re
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from qincoh import cli  # noqa: E402
from oracles import (  # noqa: E402
    dense_eigenbasis_form,
    kraus_operators,
    kraus_sum,
    random_rud_ensemble,
    second_order_loop,
    symmetry_residual_loop,
)
from qincoh.channels import expm_unitary, make_synthetic_profile, random_unitary, rud_superoperator  # noqa: E402
from qincoh.liouville import CP_TOL, choi_spectrum, cp_filter, superop_to_choi  # noqa: E402
from qincoh.nudft import SpectralSampleSet  # noqa: E402
from qincoh.spectral import _component_extents, _disc_components, _label_basis, pair_eigenvalues  # noqa: E402

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def rud_channels(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_qubits = draw(st.integers(1, 3))
    return rud_superoperator(random_rud_ensemble(2**n_qubits, draw(st.integers(1, 4)), rng))


@PROPERTY
@given(rud_channels())
def test_choi_reshuffle_is_an_exact_involution(s):
    c = superop_to_choi(s)
    assert np.array_equal(superop_to_choi(c), s)
    assert np.array_equal(superop_to_choi(superop_to_choi(c)), c)


@PROPERTY
@given(rud_channels(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_cp_filter_is_idempotent(s, seed, strength):
    # a random Hermitian kick to the Choi matrix makes the map non-CP
    rng = np.random.default_rng(seed)
    d = s.shape[0]
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    kicked = superop_to_choi(superop_to_choi(s) + strength * (h + h.conj().T) / 2)
    filtered, _ = cp_filter(kicked)
    again, removed = cp_filter(filtered)
    assert removed <= 1e-12
    assert choi_spectrum(filtered)[-1] >= -CP_TOL
    assert np.abs(again - filtered).max() <= 1e-12


@PROPERTY
@given(rud_channels())
def test_kraus_round_trip(s):
    # the eigenvectors of superop_to_choi's matrix, column-unstacked, are Kraus operators
    assert np.abs(kraus_sum(kraus_operators(s)) - s).max() <= 1e-12


@st.composite
def nominal_channels(draw):
    # a random label basis at 2-5 levels, and a random-unitary channel near
    # its nominal conjugation: that unitary with weight 1 - eps, and a
    # random ensemble with the rest, so its discs are small and its pairing
    # has labels to certify and a second-order sum to take
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 5))
    w = random_unitary(dim, rng)
    h0t = w @ np.diag(rng.uniform(-np.pi, np.pi, dim)) @ w.conj().T
    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h0t, k = (h0t + h0t.conj().T) / 2, (k + k.conj().T) / 2
    eps = draw(st.floats(1e-4, 0.05))
    members = random_rud_ensemble(dim, draw(st.integers(1, 4)), rng)
    ensemble = [(1.0 - eps, expm_unitary(h0t))] + [(eps * p, u) for p, u in members]
    return rud_superoperator(ensemble), h0t, k


@PROPERTY
@given(nominal_channels())
def test_pairing_mirrors_each_label_and_matches_the_full_matrix_reference(channel):
    s, h0t, k = channel
    entries = pair_eigenvalues(s, h0t, k).entries
    n = h0t.shape[0]
    mirror = entries.m * n + entries.j
    assert np.array_equal(entries.lambda_measured[mirror], entries.lambda_measured.conj())
    assert np.array_equal(entries.radius[mirror], entries.radius)
    assert np.array_equal(entries.distance[mirror], entries.distance)
    # every row of S_B by the dense change of basis, and the double loop
    sb = dense_eigenbasis_form(s, _label_basis(h0t, k)[0])
    seeds = sb.diagonal()
    radii = np.abs(sb - np.diag(seeds)).sum(axis=1)
    component = _disc_components(seeds, radii)
    values, _ = second_order_loop(sb, component)
    assert np.abs(entries.lambda_measured - values).max() <= 1e-12
    assert np.abs(entries.distance - np.abs(values - seeds)).max() <= 1e-12
    assert np.abs(entries.radius - _component_extents(seeds, radii, component)).max() <= 1e-12


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
    # warning; a width below the spacing of floats near the centre, which
    # would collapse the support to repeated points, is refused by name
    skew = skew if kind == "skewed" else 0.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = make_synthetic_profile(kind, center, width, skew, n_points)
    except ValueError as exc:
        assert re.search("non-finite length|underflows to zero|width=.* is too narrow to place .* around center=", str(exc)), exc
        return
    assert len(profile) == n_points


@st.composite
def mirrored_sample_sets(draw):
    # k symmetric about 0, with or without the DC point, on integer multiples
    # of a drawn scale; f conjugate-symmetric; and a seed for perturbations
    scale = draw(st.floats(1e-3, 1e3))
    pos = scale * np.cumsum(draw(st.lists(st.integers(1, 100), min_size=1, max_size=20)))
    ks = np.concatenate([-pos[::-1], [0.0] if draw(st.booleans()) else [], pos])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=pos.size) + 1j * rng.normal(size=pos.size)
    f = np.concatenate([np.conj(g[::-1]), rng.normal(size=ks.size - 2 * pos.size), g])
    return ks, f, rng


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mirrored_sample_sets())
def test_symmetry_residual_is_zero_on_mirrored_sets_and_the_nearest_partner_loop_near_them(drawn):
    ks, f, rng = drawn
    assert SpectralSampleSet(ks, f).conjugate_symmetry_residual() == 0.0
    # moves below a quarter of the smallest spacing keep k sorted and leave
    # each sample's mirror its unique nearest partner
    ks = ks + rng.uniform(-0.24, 0.24, ks.size) * np.diff(ks).min()
    f = f + rng.normal(scale=rng.choice([1e-9, 1.0]), size=(ks.size, 2)) @ [1.0, 1j]
    samples = SpectralSampleSet(ks, f)
    expected = symmetry_residual_loop(samples)
    assert abs(samples.conjugate_symmetry_residual() - expected) <= 1e-15 * expected


# the leaves a report holds, with the edge cases of each drawn often
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, np.float64("nan")]),
    st.text(),
    st.text(alphabet=st.sampled_from('"\\\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e/')),
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_JSON_DOCUMENTS)
@example({"": [], "a": {}, "b": (), "nan": [float("nan"), float("inf"), float("-inf"), -0.0],
          "ints": [10**40, -(10**40), True, False, None], "np": np.float64(0.1),
          "text": 'é"\\\x01\u2028\U0001d11e'})
def test_json_bytes_equal_the_stdlib_indent_2_encoding(doc):
    assert cli._json_bytes(doc) == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("doc, name", [
    ({1, 2}, "set"),
    ([0.5, 1j], "complex"),
    ({"a": {1: 2.0}}, "int"),
    ({"a": [{None: 1}]}, "NoneType"),
    (np.int64(3), "int64"),
])
def test_json_bytes_refuse_other_types_by_name(doc, name):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        cli._json_bytes(doc)

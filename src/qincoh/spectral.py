"""Superoperator eigenvalue spectra and their perturbative structure.

For a channel built from unitaries ``exp(-i(H0*t + dw*K))`` the eigenvalues
pair, to first order, as

    lambda_jm = exp(-i(phi_j - phi_m)) * sum_k p_k exp(-i K_jm dw_k)

with ``phi_j`` the eigenphases of the nominal generator and
``K_jm = <phi_j|K|phi_j> - <phi_m|K|phi_m>``.  Dividing out the unperturbed
phase therefore samples the Fourier transform of the deviation profile at
the (generally unequally spaced) coordinates ``K_jm``; those samples are
what the recovery transform consumes.  One private function gives the
prediction and the pairing the nominal eigenvectors, the unperturbed phases
and ``K_jm``; the sum over the profile is ``nudft.forward_nudft``.

Pairing reads the map in the unperturbed label basis.  A
``channels.RandomUnitaryChannel`` is read there from its members
(``liouville.ensemble_eigenbasis_form``), with no ``N^2 x N^2``
superoperator; a matrix (``liouville.eigenbasis_form``) must preserve
Hermiticity, as every physical map does, and ``liouville`` refuses one that
does not within ``CHOI_HERMITIAN_TOL`` by name, with its deviation, before
any transform.  For such a map label ``(m, j)`` holds the conjugate of the
eigenvalue at ``(j, m)``, so the pairing reads only the ``N(N+1)/2`` rows
``m >= j`` and conjugates.  This module keeps the discs and the
second-order sum, and hands the raw points of the labels ``j < m`` of a
pairing to the one constructor of ``nudft.SpectralSampleSet``, which owns
the fold and merge rules and implies their mirrors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import RandomUnitaryChannel, RFProfile, random_unitary
from .errors import DegenerateSpectrumError, PairingError
from .liouville import (
    GENERATOR_HERMITIAN_TOL,
    eigenbasis_form,
    ensemble_eigenbasis_form,
    require_hermiticity_preserving,
)
from .nudft import K_DEDUP_TOL, SpectralSampleSet, forward_nudft
from .validation import require_hermitian, shape

# Nominal eigenphases closer than this make first-order pairing invalid.
DEGENERACY_TOL = 1e-6
# A label whose certified radius exceeds this is a pairing warning; a pairing
# with only such labels is broken.
MATCH_TOL = 0.2
# The most candidate disc pairs the sweep may form (268 MB at 64 bytes a pair)
# and the most centre gaps the component extents form at once (134 MB at 32
# bytes a gap).  The fixtures form about one pair per label (4240 at 6 qubits).
MAX_DISC_PAIRS = 2**22


# The record of one label ``a = j*N + m`` in :attr:`EigenPairing.entries`: its
# eigenvalue, the distance of that value from the label's seed, and the
# certified radius about the seed that holds it.
PAIRING_DTYPE = np.dtype([
    ("j", np.int64), ("m", np.int64),
    ("lambda_measured", complex), ("lambda_unperturbed", complex),
    ("k_jm", float), ("distance", float), ("radius", float),
])


@dataclass(frozen=True)
class EigenPairing:
    """Measured eigenvalues labelled by (j, m).

    ``entries`` is one :data:`PAIRING_DTYPE` record array over all ``N**2``
    labels, j-major; a label ``j = m`` holds an eigenvalue near 1 at
    ``k_jm = 0``, and no Fourier sample.  ``warnings`` lists the (j, m,
    radius) triples whose certified radius exceeded :data:`MATCH_TOL`.
    """

    entries: np.recarray
    warnings: tuple[tuple[int, int, float], ...]


class ProfileMoments(NamedTuple):
    mean: float
    std: float
    skewness: float


def _label_basis(h0t: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nominal eigenvectors (columns, by ascending eigenphase ``phi``,
    from one ``eigh``), the unperturbed phases ``exp(-i(phi_j - phi_m))``
    and the coordinates ``k_jm = kd_j - kd_m``, with ``kd`` the diagonal of
    k in that eigenbasis; the last two are (N, N) arrays indexed [j, m].
    A near-degenerate nominal spectrum is refused."""
    phis, vectors = np.linalg.eigh(require_hermitian(h0t, GENERATOR_HERMITIAN_TOL, "h0t"))
    if phis.size > 1:
        min_gap = float(np.min(np.diff(phis)))
        if min_gap <= DEGENERACY_TOL:
            raise DegenerateSpectrumError(
                f"nominal spectrum has gap {min_gap:.3e} <= {DEGENERACY_TOL:g}; "
                "first-order pairing is invalid"
            )
    k = require_hermitian(k, GENERATOR_HERMITIAN_TOL, "k")
    if k.shape != vectors.shape:
        raise ValueError(f"k has shape {k.shape}, but h0t has shape {vectors.shape}")
    kd = np.einsum("ij,ij->j", vectors.conj(), k @ vectors).real
    return vectors, np.exp(-1j * (phis[:, None] - phis[None, :])), kd[:, None] - kd[None, :]


def predict_eigenvalues(h0t: np.ndarray, k: np.ndarray, profile: RFProfile) -> np.ndarray:
    """First-order channel eigenvalues, as an (N, N) array indexed [j, m]:
    the unperturbed phases times the profile's characteristic function
    (:func:`~qincoh.nudft.forward_nudft`) at ``k_jm``."""
    _, unperturbed, k_jm = _label_basis(h0t, k)
    return unperturbed * forward_nudft(profile, k_jm)


def _disc_components(centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Connected components of overlapping closed discs, as one index per disc.

    Candidate pairs come from a sweep over the discs' real extents sorted by
    their left edge: a disc can only meet the discs whose left edge lies
    within its own extent.  More than :data:`MAX_DISC_PAIRS` candidates
    are refused before any pair array exists.  Components are found by
    propagating the smallest index across the overlaps.
    """
    size = centres.size
    left, right = centres.real - radii, centres.real + radii
    order = np.argsort(left, kind="stable")
    stop = np.searchsorted(left[order], right[order], side="right")
    counts = stop - np.arange(size) - 1
    n_pairs = int(counts.sum())
    if n_pairs > MAX_DISC_PAIRS:
        raise PairingError(f"{n_pairs} candidate disc pairs exceed MAX_DISC_PAIRS = {MAX_DISC_PAIRS}")
    first = np.repeat(np.arange(size), counts)
    # the window of sorted disc i is i+1, ..., stop[i]-1
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[first], order[second]
    meet = np.abs(centres[a] - centres[b]) <= radii[a] + radii[b]
    a, b = a[meet], b[meet]
    label = np.arange(size)
    while True:
        new = label.copy()
        np.minimum.at(new, a, label[b])
        np.minimum.at(new, b, label[a])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _component_extents(centres: np.ndarray, radii: np.ndarray, component: np.ndarray) -> np.ndarray:
    """Per disc, the radius about its centre that covers its whole component:
    the disc's own radius when it stands alone.  A component of ``c`` discs
    is taken ``MAX_DISC_PAIRS // c`` rows of ``c`` gaps at a time."""
    extent = radii.copy()
    for label in np.flatnonzero(np.bincount(component) > 1):
        group = np.flatnonzero(component == label)
        step = max(1, MAX_DISC_PAIRS // group.size)
        for rows in np.split(group, range(step, group.size, step)):
            gap = np.abs(centres[rows, None] - centres[None, group])
            extent[rows] = np.max(gap + radii[group], axis=1)
    return extent


# Side of the square tiles of S_B that the second-order sum reads.
_TILE = 128


def _second_order_values(half: np.ndarray, upper: np.ndarray, lower: np.ndarray,
                         component: np.ndarray) -> np.ndarray:
    """``d_a + sum_b S_B[a,b] S_B[b,a] / (d_a - d_b)`` over the labels ``b``
    outside the component of ``a``, for the labels ``a`` of ``upper``, the
    rows ``R = half`` of a mirror-symmetric ``S_B`` with diagonal ``d``;
    ``lower`` holds their mirrors (``upper[c] == lower[c]`` for a label that
    is its own mirror).

    The ``b = upper[c]`` give ``Q1[a,c] = R[a,b] R[c,upper[a]] / (d_a -
    d_c)``, the ``b = lower[c] != upper[c]`` give ``Q2[a,c] = R[a,b]
    conj(R[c,lower[a]]) / (d_a - conj d_c)``.  Discs of different components
    are disjoint, so no denominator is 0.  Each quotient is taken as
    ``x * conj(g) / |g|^2``, so ``Q1[c,a] = -Q1[a,c]`` and ``Q2[c,a] = -conj
    Q2[a,c]`` bit for bit, and only the square tiles on and above the
    diagonal of each are formed: tile ``(r, c)`` adds its row sums to the
    labels of ``r`` and, off the diagonal, its negated (in ``Q2``,
    conjugated) column sums to those of ``c``.  That is about ``N^4/4``
    quotients for ``N^2`` labels, where the full ``S_B`` takes ``N^4/2``.
    """
    d = half[np.arange(upper.size), upper]
    values, dc, own, paired = d.copy(), d.conj(), component[upper], (upper != lower).astype(float)
    # Q1, then Q2: b, the flip of a transpose (none in Q1), the weights of the sums, conj d at b
    for b, flip, weight, ec in ((upper, lambda a, out=None: a, np.ones(d.size), dc),
                                (lower, np.conjugate, paired, d)):
        outer = component[b]
        for lo in range(0, d.size, _TILE):
            rows = slice(lo, lo + _TILE)
            for co in range(lo, d.size, _TILE):
                cols = slice(co, co + _TILE)
                gap = dc[rows, None] - ec[None, cols]  # conj(g)
                scale = np.divide(1.0, gap.real**2 + gap.imag**2, out=np.zeros(gap.shape),
                                  where=own[rows, None] != outer[None, cols])
                # R[rows, b[cols]] times the flipped transpose of R[cols, b[rows]]
                terms, y = np.take(half[rows], b[cols], axis=1), np.take(half[cols], b[rows], axis=1)
                terms *= flip(y, out=y).T
                terms *= gap
                terms *= scale
                values[rows] += terms @ weight[cols]
                if co != lo:
                    values[cols] -= flip(weight[rows] @ terms)
    return values


def pair_eigenvalues(s: RandomUnitaryChannel | np.ndarray, h0t: np.ndarray, k: np.ndarray) -> EigenPairing:
    """Label the eigenvalues of a channel by (j, m), with a Gershgorin
    certificate and no eigensolver on its superoperator S.

    ``s`` is a :class:`~qincoh.channels.RandomUnitaryChannel` or a measured
    superoperator.  A channel's members must be ``N x N``, as ``h0t`` is;
    its rows of S_B are formed from them
    (:func:`~qincoh.liouville.ensemble_eigenbasis_form`), with no
    ``N^2 x N^2`` array, and need no check: a real-weighted sum of unitary
    conjugations preserves Hermiticity exactly.  A matrix must preserve
    Hermiticity: one check
    (:func:`~qincoh.liouville.require_hermiticity_preserving`, within
    :data:`~qincoh.liouville.CHOI_HERMITIAN_TOL`, the tolerance of the Choi
    Hermiticity check) refuses a map that does not, naming its deviation,
    and refuses a NaN or infinite entry as ``superoperator is not finite``.
    That is the one validation of a matrix, and it licenses the half-label
    pairing: only the rows ``m >= j`` of S_B are read, and label ``(m, j)``
    takes the conjugate seed and value of ``(j, m)``, and the same radius.

    In the unperturbed label basis (:func:`~qincoh.liouville.eigenbasis_form`)
    label ``a = (j, m)`` owns the disc with centre ``S_B[a, a]`` (its seed)
    and radius the off-diagonal absolute sum of row ``a``.  Overlapping
    discs form components (the ``j = m`` discs, all near 1, typically form
    one); by Gershgorin's theorem a component of ``c`` discs holds exactly
    ``c`` eigenvalues.  Each label's value is its seed plus the second-order
    coupling to the labels outside its component.  Its ``radius`` is the
    disc radius for a lone disc, otherwise the extent of the component about
    its seed.  Labels whose radius exceeds :data:`MATCH_TOL` are collected
    as warnings; if every label warns, pairing is considered broken.
    """
    vectors, unperturbed, k_jm = _label_basis(h0t, k)
    n = vectors.shape[0]
    if isinstance(s, RandomUnitaryChannel):
        if s.unitaries.shape[1:] != vectors.shape:
            raise ValueError(
                f"channel members have shape {s.unitaries.shape[1:]}, but h0t has shape {vectors.shape}"
            )
        half = ensemble_eigenbasis_form(s.unitaries, s.weights, vectors)
    else:
        if (s_shape := shape(s, "superoperator")) != (n * n, n * n):
            raise ValueError(f"superoperator shape {s_shape} does not match dim {n}")
        half = eigenbasis_form(require_hermiticity_preserving(s, "superoperator"), vectors)
    # the labels of the rows of half, j-major, and their mirrors
    j, m = np.divmod(np.arange(n * n), n)
    upper = np.flatnonzero(m >= j)
    lower = m[upper] * n + j[upper]

    def mirrored(x):  # per label: x at upper, and its conjugate at lower
        full = np.empty(n * n, dtype=x.dtype)
        full[lower], full[upper] = np.conjugate(x), x  # in this order: a label may be both
        return full

    own = np.arange(upper.size), upper
    off_diagonal = np.abs(half)
    off_diagonal[own] = 0.0
    seeds, disc_radii = mirrored(half[own]), mirrored(off_diagonal.sum(axis=1))
    component = _disc_components(seeds, disc_radii)
    radii = _component_extents(seeds, disc_radii, component)
    values = mirrored(_second_order_values(half, upper, lower, component))
    entries = np.rec.fromarrays(
        (j, m, values, unperturbed.ravel(), k_jm.ravel(), np.abs(values - seeds), radii),
        dtype=PAIRING_DTYPE,
    )
    warn = radii > MATCH_TOL
    if warn.all():
        raise PairingError(
            f"every eigenvalue match exceeded match_tol={MATCH_TOL}; "
            "the measured map does not resemble the nominal channel"
        )
    return EigenPairing(entries, tuple(zip(j[warn].tolist(), m[warn].tolist(), radii[warn].tolist())))


def build_samples(pairing: EigenPairing) -> SpectralSampleSet:
    """The sample set of a pairing: the raw points
    ``(k_jm, lambda_measured * conj(lambda_unperturbed))`` of the labels
    ``j < m``, which :class:`~qincoh.nudft.SpectralSampleSet` folds and
    merges, refused when there is none (``N = 1``) or every ``|k_jm|`` is
    at most :data:`~qincoh.nudft.K_DEDUP_TOL`, where the sample set would
    drop it as the DC point; label ``(m, j)`` holds the mirror point, which
    the sample set implies."""
    live = pairing.entries[pairing.entries.j < pairing.entries.m]
    if not live.size:
        raise ValueError("pairing has no label with j < m")
    ks, a, b = live.k_jm, live.lambda_measured, live.lambda_unperturbed
    # a * conj(b) in real parts, which rounds as the scalar complex product
    # does; numpy's array product can differ from it in the last bit
    fs = (a.real * b.real + a.imag * b.imag) + 1j * (a.imag * b.real - a.real * b.imag)
    if float(np.abs(ks).max()) <= K_DEDUP_TOL:
        raise PairingError(
            "all diagonal perturbation differences vanish; the model "
            "perturbation provides no spectral contrast"
        )
    return SpectralSampleSet(ks, fs)


def profile_metrics(profile: RFProfile) -> ProfileMoments:
    """First three standardized moments of a discrete profile."""
    x = profile.delta_omega
    w = profile.weight
    mean = float(w @ x)
    var = float(w @ (x - mean) ** 2)
    std = float(np.sqrt(var))
    if std == 0.0:
        return ProfileMoments(mean, 0.0, 0.0)
    skew = float(w @ (x - mean) ** 3) / std**3
    return ProfileMoments(mean, std, skew)


# ---------------------------------------------------------------------------
# Demonstration fixtures
# ---------------------------------------------------------------------------

# First terms of the Mian-Chowla (Sidon) sequence: all pairwise differences
# are distinct, so every (j, m) label lands on its own k coordinate.
_SIDON_LEVELS = (1.0, 2.0, 4.0, 8.0, 13.0, 21.0, 31.0, 45.0,
                 66.0, 81.0, 97.0, 123.0, 148.0, 182.0, 204.0, 252.0)

_FIXTURE_SEED = 20260809
THREE_QUBIT_PHASE_SCALE = 6.0
FOUR_QUBIT_PHASE_SCALE = 0.5
DIAGONAL_COUPLING = 0.3
# Off-diagonal coupling ratios are kept tiny so the 2^n unit eigenvalues of
# the demo channels stay pinned to 1 at the 1e-9 level while the quadratic
# shrinking of the first-order prediction error under K -> K/2 remains
# resolvable far above eigensolver noise.
THREE_QUBIT_OFF_DIAGONAL_RATIO = 1.5e-4
FOUR_QUBIT_OFF_DIAGONAL_RATIO = 1.5e-4


def _demo_generators(
    n_qubits: int,
    phase_scale: float,
    off_diagonal_ratio: float,
) -> tuple[np.ndarray, np.ndarray]:
    dim = 2**n_qubits
    if dim > len(_SIDON_LEVELS):
        raise ValueError(f"no Sidon levels tabulated for {n_qubits} qubits")
    phis = phase_scale * np.array(_SIDON_LEVELS[:dim])
    phis = phis - phis.mean()

    rng = np.random.default_rng(_FIXTURE_SEED + n_qubits)
    w = random_unitary(dim, rng)
    v = np.zeros((dim, dim), dtype=complex)
    for l in range(dim - 1):
        coupling = (phis[l + 1] - phis[l]) * np.exp(2j * np.pi * rng.random())
        v[l, l + 1] = coupling
        v[l + 1, l] = np.conj(coupling)

    k_eig = DIAGONAL_COUPLING * np.diag(phis) + off_diagonal_ratio * v
    h0t = w @ np.diag(phis) @ w.conj().T
    k = w @ k_eig @ w.conj().T
    h0t = (h0t + h0t.conj().T) / 2
    k = (k + k.conj().T) / 2
    return h0t, k


def three_qubit_fixture() -> tuple[np.ndarray, np.ndarray]:
    """Nominal generator and perturbation model of the 3-qubit demo channel.

    The eigenphase levels form a Sidon set so all 56 off-diagonal k
    coordinates are distinct, yielding 57 Fourier samples after the DC
    anchor.  The perturbation is :data:`DIAGONAL_COUPLING` times the nominal
    generator plus a small non-commuting coupling of ratio
    :data:`THREE_QUBIT_OFF_DIAGONAL_RATIO`.
    """
    return _demo_generators(3, THREE_QUBIT_PHASE_SCALE, THREE_QUBIT_OFF_DIAGONAL_RATIO)


def four_qubit_fixture() -> tuple[np.ndarray, np.ndarray]:
    """4-qubit variant of :func:`three_qubit_fixture` (241 Fourier samples)."""
    return _demo_generators(4, FOUR_QUBIT_PHASE_SCALE, FOUR_QUBIT_OFF_DIAGONAL_RATIO)

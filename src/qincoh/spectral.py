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

Pairing reads the map in the unperturbed label basis
(``liouville.eigenbasis_form``) and requires a map that preserves
Hermiticity, as every physical map does; ``liouville`` refuses one that
does not within ``CHOI_HERMITIAN_TOL`` by name, with its deviation, before
any transform.  This module keeps the discs, the second-order sum and the
samples.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import RFProfile, random_unitary
from .errors import DegenerateSpectrumError, PairingError
from .liouville import GENERATOR_HERMITIAN_TOL, eigenbasis_form, require_hermiticity_preserving
from .nudft import forward_nudft
from .validation import require_hermitian

# Nominal eigenphases closer than this make first-order pairing invalid.
DEGENERACY_TOL = 1e-6
# A label whose certified radius exceeds this is a pairing warning; a pairing
# with only such labels is broken.
MATCH_TOL = 0.2
# Sample k coordinates closer than this estimate the same Fourier point; a
# |k| within it is indistinguishable from the DC anchor.
K_DEDUP_TOL = 1e-9
# Merged samples that spread by more than this signal a model violation.
F_DISAGREEMENT_TOL = 0.05
# The most candidate pairs the disc sweep may form: 268 MB of pair arrays at
# 64 bytes a pair.  The fixtures form about one per label (4240 at 6 qubits).
MAX_DISC_PAIRS = 2**22


# The record of one label ``a = j*N + m`` in :attr:`EigenPairing.entries`: its
# eigenvalue, the distance of that value from the label's seed, and the
# certified radius about the seed that holds it.
PAIRING_DTYPE = np.dtype([
    ("j", np.int64), ("m", np.int64),
    ("lambda_measured", complex), ("lambda_unperturbed", complex),
    ("k_jm", float), ("distance", float), ("radius", float), ("degenerate", bool),
])


@dataclass(frozen=True)
class EigenPairing:
    """Measured eigenvalues labelled by (j, m).

    ``entries`` is one :data:`PAIRING_DTYPE` record array over the labels.
    ``warnings`` lists the (j, m, radius) triples whose certified radius
    exceeded :data:`MATCH_TOL`.
    """

    entries: np.recarray
    warnings: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class SpectralSampleSet:
    """Samples ``(k, f(k))`` of the profile's Fourier transform, sorted by k."""

    k: np.ndarray
    f: np.ndarray

    def __len__(self) -> int:
        return self.k.size

    def window_span(self) -> float:
        return float(self.k.max() - self.k.min())

    def resolution_estimate(self) -> float:
        """Rayleigh-style resolution in the deviation domain, pi / max|k|."""
        return float(np.pi / np.abs(self.k).max())

    def conjugate_symmetry_residual(self) -> float:
        """Worst mismatch between each sample and the conjugate at -k.

        The partner of sample i is the sample whose k is nearest to -k[i],
        the lowest index among equally near ones.
        """
        k, n = self.k, self.k.size
        order = np.argsort(k, kind="stable")
        k_sorted = k[order]
        pos = np.searchsorted(k_sorted, -k)
        # nearest at or above -k[i], and the first of the run of equal k just below
        above = order[np.minimum(pos, n - 1)]
        below = order[np.searchsorted(k_sorted, k_sorted[np.maximum(pos - 1, 0)])]
        d_above = np.where(pos < n, np.abs(k[above] + k), np.inf)
        d_below = np.where(pos > 0, np.abs(k[below] + k), np.inf)
        take_above = (d_above < d_below) | ((d_above == d_below) & (above < below))
        partner = np.where(take_above, above, below)
        return float(max(
            np.max(np.abs(k[partner] + k), initial=0.0),
            np.max(np.abs(self.f[partner] - np.conj(self.f)), initial=0.0),
        ))


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
    the disc's own radius when it stands alone."""
    extent = radii.copy()
    for label in np.flatnonzero(np.bincount(component) > 1):
        group = np.flatnonzero(component == label)
        gap = np.abs(centres[group, None] - centres[None, group])
        extent[group] = np.max(gap + radii[group], axis=1)
    return extent


# Side of the square tiles of S_B that the second-order sum reads.
_TILE = 128


def _second_order_values(sb: np.ndarray, component: np.ndarray) -> np.ndarray:
    """``d_a + sum_b S_B[a,b] S_B[b,a] / (d_a - d_b)`` over the labels ``b``
    outside the component of ``a``; ``d`` is the diagonal of ``S_B``.

    Discs of different components are disjoint, so no denominator is 0.
    Each quotient is taken as ``x * conj(g) / |g|^2``, one real division.
    The quotients ``Q[a,b]``, with ``g = d_a - d_b``, are antisymmetric bit
    for bit: the complex product ``S_B[a,b] S_B[b,a]`` commutes, ``g``
    changes sign and ``|g|^2`` does not.  So only the square tiles on and
    above the diagonal are formed, each from two tiles of ``S_B``: tile
    ``(r, c)`` adds its row sums to the labels of ``r`` and, off the
    diagonal, subtracts its column sums from the labels of ``c``.
    """
    d = sb.diagonal()
    values = d.copy()
    for lo in range(0, d.size, _TILE):
        rows = slice(lo, lo + _TILE)
        for co in range(lo, d.size, _TILE):
            cols = slice(co, co + _TILE)
            gap = d[rows, None] - d[None, cols]
            outside = component[rows, None] != component[None, cols]
            scale = np.divide(1.0, gap.real**2 + gap.imag**2, out=np.zeros(gap.shape), where=outside)
            terms = sb[rows, cols] * sb[cols, rows].T
            terms *= gap.conj()
            terms *= scale
            values[rows] += terms.sum(axis=1)
            if co != lo:
                values[cols] -= terms.sum(axis=0)
    return values


def pair_eigenvalues(s: np.ndarray, h0t: np.ndarray, k: np.ndarray) -> EigenPairing:
    """Label the eigenvalues of a measured superoperator by (j, m), with a
    Gershgorin certificate and no eigensolver on S.

    S must preserve Hermiticity: one check
    (:func:`~qincoh.liouville.require_hermiticity_preserving`, within
    :data:`~qincoh.liouville.CHOI_HERMITIAN_TOL`, the tolerance of the Choi
    Hermiticity check) refuses a map that does not, naming its deviation,
    and refuses a NaN or infinite entry as ``superoperator is not finite``.
    That is the one validation of S, and it licenses the half-label
    transform of :func:`~qincoh.liouville.eigenbasis_form`.

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
    if np.shape(s) != (n * n, n * n):
        raise ValueError(f"superoperator shape {np.shape(s)} does not match dim {n}")
    s = require_hermiticity_preserving(s, "superoperator")
    sb = eigenbasis_form(s, vectors)
    seeds = sb.diagonal()
    off_diagonal = np.abs(sb)
    np.fill_diagonal(off_diagonal, 0.0)
    disc_radii = off_diagonal.sum(axis=1)
    component = _disc_components(seeds, disc_radii)
    radii = _component_extents(seeds, disc_radii, component)
    values = _second_order_values(sb, component)
    j, m = np.divmod(np.arange(n * n), n)
    entries = np.rec.fromarrays(
        (j, m, values, unperturbed.ravel(), k_jm.ravel(), np.abs(values - seeds), radii, j == m),
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
    """Fourier samples from a pairing: drop degenerate labels, divide out the
    unperturbed phase, merge duplicate k coordinates, add the DC anchor.

    Degenerate (j = m) entries carry no profile information beyond
    normalization and are dropped; a single sample (0, 1) is inserted so the
    recovered distribution has no DC offset.  Runs of sorted k coordinates
    whose neighbours lie within :data:`K_DEDUP_TOL` estimate the same Fourier
    point and are averaged; a spread beyond :data:`F_DISAGREEMENT_TOL`
    signals a model violation and emits a warning.
    """
    live = pairing.entries[~pairing.entries.degenerate]
    if not live.size:
        raise ValueError("pairing contains only degenerate entries")
    ks, a, b = live.k_jm, live.lambda_measured, live.lambda_unperturbed
    # a * conj(b) in real parts, which rounds as the scalar complex product
    # does; numpy's array product can differ from it in the last bit
    fs = (a.real * b.real + a.imag * b.imag) + 1j * (a.imag * b.real - a.real * b.imag)
    if float(np.abs(ks).max()) < K_DEDUP_TOL:
        raise PairingError(
            "all diagonal perturbation differences vanish; the model "
            "perturbation provides no spectral contrast"
        )
    near_dc = np.abs(ks) <= K_DEDUP_TOL
    if near_dc.any():
        warnings.warn(
            f"dropping {int(near_dc.sum())} sample(s) indistinguishable from the DC point",
            stacklevel=2,
        )
        ks, fs = ks[~near_dc], fs[~near_dc]

    order = np.argsort(ks)
    ks, fs = ks[order], fs[order]
    starts = np.flatnonzero(np.diff(ks, prepend=-np.inf) > K_DEDUP_TOL)
    sizes = np.diff(starts, append=ks.size)
    k_mean = np.add.reduceat(ks, starts) / sizes
    f_mean = np.add.reduceat(fs, starts) / sizes
    spread = np.maximum.reduceat(np.abs(fs - np.repeat(f_mean, sizes)), starts)
    # a single sample has spread 0, so only merged groups can warn
    for i in np.flatnonzero(spread > F_DISAGREEMENT_TOL):
        warnings.warn(
            f"samples sharing k={ks[starts[i]]:.6g} disagree by {spread[i]:.3g}; "
            "the perturbation model may be violated",
            stacklevel=2,
        )
    dc = np.searchsorted(k_mean, 0.0)
    return SpectralSampleSet(np.insert(k_mean, dc, 0.0), np.insert(f_mean, dc, 1.0))


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

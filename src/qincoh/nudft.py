"""Fourier samples at unequally spaced frequencies, and their inversion.

The profile is real, so ``f(-k) = conj(f(k))`` and ``f(0) = 1``: a
:class:`SpectralSampleSet` holds the samples at ``k > 0`` and implies the
rest.  Its one constructor, which ``spectral`` feeds raw points, owns the
fold onto ``k > 0`` and the merge rules.  Warnings here name the first
caller outside ``nudft`` and ``spectral``.  The forward
direction is a discrete profile's characteristic function
``f(k) = sum_b p_b exp(-i k x_b)`` at real k, which ``spectral``'s
prediction calls too; the inverse is one ridge least-squares fit onto a
uniform grid: one real solve of ``n_bins`` unknowns, whose symmetric
Toeplitz normal matrix comes from a table of powers of
``exp(i * bin_width * k)``, never from the dense kernel.
"""
from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import RFProfile
from .validation import integer, numeric, point_arrays, real_scalar

# Sample k coordinates closer than this estimate the same Fourier point; a
# |k| within it is indistinguishable from the DC anchor.
K_DEDUP_TOL = 1e-9
# Merged samples that spread by more than this signal a model violation.
F_DISAGREEMENT_TOL = 0.05
# The least-squares ridge is this times the number of samples.  Every entry
# of the kernel K has modulus 1, so the normal matrix K K^H + mu*I has
# eigenvalues in [mu, mu + n_samples * n_bins] and, up to rounding, a condition
# number of at most 1 + n_bins / RIDGE_PER_SAMPLE.
RIDGE_PER_SAMPLE = 1e-6
# The most bins a recovery grid may have: the fit holds an n_bins**2 real
# normal matrix, 134 MB at this cap, and an n_bins x k.size complex power
# table over the stored half, 132 MB at this cap, since 6 qubits give at most
# 2016 samples at k > 0.
MAX_GRID_BINS = 4096


def _warn(message: str) -> None:
    """Warn ``message`` from the first caller outside ``nudft`` and ``spectral``."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__") in (__name__, "qincoh.spectral"):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


@dataclass(frozen=True)
class RecoveryGrid:
    """Uniform grid of deviation values on which the profile is recovered.

    The bounds are finite real numbers and ``n_bins`` an integer, none of
    them a bool (:func:`~qincoh.validation.real_scalar`,
    :func:`~qincoh.validation.integer`); the grid stores them as the float
    and the int that were checked."""

    delta_omega_min: float
    delta_omega_max: float
    n_bins: int

    def __post_init__(self):
        lo, hi = (real_scalar(getattr(self, name), f"grid {name}") for name in ("delta_omega_min", "delta_omega_max"))
        if not lo < hi:
            raise ValueError("grid requires delta_omega_min < delta_omega_max")
        # Python floats overflow to inf without the warning numpy gives
        if not np.isfinite(hi - lo):
            raise ValueError("grid span delta_omega_max - delta_omega_min is not finite")
        n_bins = integer(self.n_bins, "grid n_bins")
        if n_bins < 8:
            raise ValueError("grid needs at least 8 bins")
        if n_bins > MAX_GRID_BINS:
            raise ValueError(f"grid has {n_bins} bins, more than MAX_GRID_BINS = {MAX_GRID_BINS}")
        for name, value in (("delta_omega_min", lo), ("delta_omega_max", hi), ("n_bins", n_bins)):
            object.__setattr__(self, name, value)

    def points(self) -> np.ndarray:
        return np.linspace(self.delta_omega_min, self.delta_omega_max, self.n_bins)

    @property
    def bin_width(self) -> float:
        return (self.delta_omega_max - self.delta_omega_min) / (self.n_bins - 1)

    def powers(self, ks: np.ndarray) -> np.ndarray:
        """The ``(n_bins, len(ks))`` table ``exp(i * a * bin_width * k_j)``
        over the grid indices ``a``: row ``a`` is the running product of
        ``a`` factors ``exp(i * bin_width * k)``."""
        table = np.empty((self.n_bins, ks.size), dtype=complex)
        table[0] = 1.0
        table[1:] = np.exp(1j * self.bin_width * ks)
        return np.cumprod(table, axis=0, out=table)


@dataclass(frozen=True)
class SpectralSampleSet:
    """Samples ``(k, f(k))`` of a real profile's Fourier transform at real k,
    stored as their canonical half: strictly increasing and above
    :data:`K_DEDUP_TOL`.  The DC anchor and the mirror half are implied: the
    length is the ``2 * k.size + 1`` Fourier points the set stands for, 1
    for an empty set.

    The constructor takes raw points.  A point within :data:`K_DEDUP_TOL` of
    ``k = 0`` is dropped, one at ``k < 0`` is folded onto ``-k`` as
    ``conj(f)``, and runs of sorted k whose neighbours lie within the
    tolerance are averaged, a point and its mirror among them; on canonical
    points it is the identity, bit for bit.  A drop, or a merged spread
    beyond :data:`F_DISAGREEMENT_TOL` (a model violation, or a set that is
    not conjugate-symmetric), warns the first caller outside ``nudft`` and
    ``spectral``.  Arrays that :func:`~qincoh.validation.point_arrays`
    refuses (not 1-d of one length, not numeric, complex k, a NaN or
    infinite entry) are refused by name before any point is dropped."""

    k: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        k, f = point_arrays(self.k, self.f, complex, "sample set", ("k", "f"), min_size=0)
        near_dc = np.abs(k) <= K_DEDUP_TOL
        if near_dc.any():
            _warn(f"dropping {int(near_dc.sum())} sample(s) indistinguishable from the DC point")
            k, f = k[~near_dc], f[~near_dc]
        k, f = np.abs(k), np.where(k < 0.0, np.conj(f), f)
        order = np.argsort(k)
        k, f = k[order], f[order]
        starts = np.flatnonzero(np.diff(k, prepend=-np.inf) > K_DEDUP_TOL)
        sizes = np.diff(starts, append=k.size)
        k_mean = np.add.reduceat(k, starts) / sizes
        f_mean = np.add.reduceat(f, starts) / sizes
        spread = np.maximum.reduceat(np.abs(f - np.repeat(f_mean, sizes)), starts)
        # a single sample has spread 0, so only merged groups can warn
        for i in np.flatnonzero(spread > F_DISAGREEMENT_TOL):
            _warn(f"samples sharing k={k[starts[i]]:.6g} disagree by {spread[i]:.3g}; "
                  "the perturbation model may be violated")
        object.__setattr__(self, "k", k_mean)
        object.__setattr__(self, "f", f_mean)

    def __len__(self) -> int:
        return 2 * self.k.size + 1

    def mirrored(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` and ``f`` of the Fourier points the set stands for,
        strictly increasing in k: the mirror half, the DC anchor and the
        stored half."""
        return (np.concatenate([-self.k[::-1], [0.0], self.k]),
                np.concatenate([np.conj(self.f[::-1]), [1.0], self.f]))


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered profile plus the mass that clipping its negative weights removed."""

    profile: RFProfile
    clipped_mass: float
    # The fit is real, so no imaginary part is left.  The benchmark's tracer
    # reads this name until the benchmark change of ROADMAP item 1.
    imag_residual = 0.0


def forward_nudft(profile: RFProfile, ks: np.ndarray) -> np.ndarray:
    """Fourier transform of a profile at real coordinates of any shape; f(0) = 1."""
    ks = numeric(ks, float, "forward_nudft coordinates ks")
    return np.exp(-1j * np.multiply.outer(ks, profile.delta_omega)) @ profile.weight


def _clip_and_normalize(raw: np.ndarray) -> tuple[np.ndarray, float]:
    negative = float(np.abs(raw[raw < 0.0]).sum())
    positive = float(raw[raw > 0.0].sum())
    if positive <= 0.0:
        raise ValueError("recovered profile has no positive mass")
    clipped = np.clip(raw, 0.0, None)
    return clipped / clipped.sum(), negative / positive


def inverse_nudft(samples: SpectralSampleSet, grid: RecoveryGrid) -> RecoveryResult:
    """Recover a deviation profile from unequally spaced Fourier samples.

    The profile ``p`` on the grid points ``x`` minimizes
    ``|K^H p - f|^2 + mu*|p|^2`` over the points of
    :meth:`SpectralSampleSet.mirrored`, with ``K = exp(i * outer(x, k))`` and
    ``mu = RIDGE_PER_SAMPLE * len(samples)``: one solve of the real system
    ``(K K^H + mu*I) p = K f``.  With ``x_a = x_0 + a*h`` and the power table
    ``P[a, j] = exp(i*a*h*k_j)`` over the stored half (:meth:`RecoveryGrid.powers`),
    the normal matrix is the symmetric Toeplitz ``g(|a - b|)`` with
    ``g(d) = 1 + 2 * sum_j Re P[d, j]``, and ``K f`` is
    ``1 + 2 * Re(P @ (exp(i*x_0*k) * f))``; ``K`` itself is never formed.

    A grid whose bin width times the largest ``k`` reaches pi is refused
    before the fit: on it, the kernel column of a sample at ``k > 0``
    equals, up to a constant phase, that of one at ``k - 2*pi/bin_width``,
    inside the sampled window, so the samples alias.  Negative weights are
    clipped to zero and the clipped mass (relative to the retained positive
    mass) is reported, then the profile is renormalized.
    """
    if len(samples) < 5:
        raise ValueError(f"need at least 5 samples, got {len(samples)}")
    k_max = float(samples.k[-1])
    if not grid.bin_width * k_max < np.pi:
        raise ValueError(
            f"grid bin width {grid.bin_width:.6g} times max|k| {k_max:.6g} is "
            f"{grid.bin_width * k_max:.6g}, not below pi: the samples alias on this grid"
        )
    m = grid.n_bins
    table = grid.powers(samples.k)
    g = 1.0 + 2.0 * table.real.sum(axis=1)
    index = np.arange(m)
    normal = g[np.abs(index[:, None] - index[None, :])]
    normal.flat[:: m + 1] += RIDGE_PER_SAMPLE * len(samples)
    rhs = 1.0 + 2.0 * (table @ (np.exp(1j * grid.delta_omega_min * samples.k) * samples.f)).real
    weight, clipped_mass = _clip_and_normalize(np.linalg.solve(normal, rhs))
    return RecoveryResult(profile=RFProfile(grid.points(), weight), clipped_mass=clipped_mass)

"""Fourier samples at unequally spaced frequencies, and their inversion.

A :class:`SpectralSampleSet` holds the samples strictly increasing in k, so
its symmetry residual pairs each sample with its mirror; its merge rules live
in :meth:`SpectralSampleSet.from_points`, which ``spectral`` feeds raw points.
Warnings here name the first caller outside ``nudft`` and ``spectral``.  The
forward direction is a discrete profile's characteristic function
``f(k) = sum_b p_b exp(-i k x_b)`` at real k, which ``spectral``'s prediction
calls too; the inverse maps a sample set onto a uniform deviation grid by one
ridge-regularized least-squares fit, whose Hermitian Toeplitz normal matrix
is built from one table of powers of ``exp(i * bin_width * k)``, never from
the dense kernel: one direct solve of ``n_bins`` unknowns.
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
# A sample set whose conjugate-symmetry residual exceeds this gets a warning.
SYMMETRY_TOL = 1e-6
# The least-squares ridge is this times the number of samples.  Every entry
# of the kernel K has modulus 1, so the normal matrix K K^H + mu*I has
# eigenvalues in [mu, mu + n_samples * n_bins] and, up to rounding, a condition
# number of at most 1 + n_bins / RIDGE_PER_SAMPLE.
RIDGE_PER_SAMPLE = 1e-6
# The most bins a recovery grid may have: the fit holds an n_bins**2 complex
# normal matrix, 268 MB at this cap, and an n_bins x n_samples complex power
# table, 264 MB at this cap, since 6 qubits give at most 4033 samples.
MAX_GRID_BINS = 4096


def _warn(message: str) -> None:
    """Warn ``message`` from the first caller outside ``nudft`` and ``spectral``."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__") in (__name__, "qincoh.spectral"):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


@dataclass(frozen=True)
class RecoveryGrid:
    """Uniform grid of deviation values on which the profile is recovered."""

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
        integer(self.n_bins, "grid n_bins")
        if self.n_bins < 8:
            raise ValueError("grid needs at least 8 bins")
        if self.n_bins > MAX_GRID_BINS:
            raise ValueError(f"grid has {self.n_bins} bins, more than MAX_GRID_BINS = {MAX_GRID_BINS}")

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
    """Samples ``(k, f(k))`` of the profile's Fourier transform, strictly increasing in real k."""

    k: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        k, f = point_arrays(self.k, self.f, complex, "sample set", ("k", "f"))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "f", f)

    @classmethod
    def from_points(cls, k: np.ndarray, f: np.ndarray) -> SpectralSampleSet:
        """The sample set of raw points: a point within :data:`K_DEDUP_TOL` of
        ``k = 0`` is dropped, runs of sorted k whose neighbours lie within it
        are averaged, and (0, 1) is inserted as the DC anchor.  A drop, or a
        merged spread beyond :data:`F_DISAGREEMENT_TOL` (a model violation),
        warns the first caller outside ``nudft`` and ``spectral``.  Arrays
        that are not 1-d of one length are refused by name first, then
        arrays that :func:`~qincoh.validation.numeric` refuses."""
        if np.ndim(k) != 1 or np.shape(f) != np.shape(k):
            raise ValueError(f"sample set needs matching 1-d k and f arrays, "
                             f"got shapes {np.shape(k)} and {np.shape(f)}")
        k, f = numeric(k, float, "sample set k"), numeric(f, complex, "sample set f")
        near_dc = np.abs(k) <= K_DEDUP_TOL
        if near_dc.any():
            _warn(f"dropping {int(near_dc.sum())} sample(s) indistinguishable from the DC point")
            k, f = k[~near_dc], f[~near_dc]
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
        dc = np.searchsorted(k_mean, 0.0)
        return cls(np.insert(k_mean, dc, 0.0), np.insert(f_mean, dc, 1.0))

    def __len__(self) -> int:
        return self.k.size

    def conjugate_symmetry_residual(self) -> float:
        """Worst mismatch between each sample and the conjugate of its
        mirror: k is strictly increasing, so sample i pairs with sample
        n-1-i, the nearest to -k[i] on a symmetric or nearly symmetric set."""
        k, f = self.k, self.f
        return float(max(np.abs(k + k[::-1]).max(), np.abs(f - np.conj(f[::-1])).max()))


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered profile plus the quality diagnostics of the inversion,
    including the sample set's conjugate-symmetry residual."""

    profile: RFProfile
    imag_residual: float
    clipped_mass: float
    symmetry_residual: float


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
    ``|K^H p - f|^2 + mu*|p|^2``, with the kernel ``K = exp(i * outer(x, k))``
    and the ridge ``mu = RIDGE_PER_SAMPLE * n_samples``: one solve of
    ``(K K^H + mu*I) p = K f``.  With ``x_a = x_0 + a*h`` and the power
    table ``P[a, j] = exp(i*a*h*k_j)`` (:meth:`RecoveryGrid.powers`), the
    normal matrix is the Hermitian Toeplitz ``g(a - b)`` with
    ``g(d) = sum_j P[d, j]`` and ``g(-d) = conj(g(d))``, and ``K f`` is
    ``P @ (exp(i*x_0*k) * f)``; ``K`` itself is never formed.

    A grid whose bin width times the largest ``|k|`` reaches pi is refused
    before the fit: on it, the kernel column of a sample at ``k > 0``
    equals, up to a constant phase, that of one at ``k - 2*pi/bin_width``,
    inside the sampled window, so the samples alias.
    A sample set whose conjugate-symmetry residual exceeds
    :data:`SYMMETRY_TOL` draws a warning.  The imaginary part left over
    after inversion is reported relative to the real part; negative weights
    are clipped to zero and the clipped mass (relative to the retained
    positive mass) is reported, then the profile is renormalized.
    """
    if len(samples) < 5:
        raise ValueError(f"need at least 5 samples, got {len(samples)}")
    k_max = float(np.abs(samples.k).max())
    if not grid.bin_width * k_max < np.pi:
        raise ValueError(
            f"grid bin width {grid.bin_width:.6g} times max|k| {k_max:.6g} is "
            f"{grid.bin_width * k_max:.6g}, not below pi: the samples alias on this grid"
        )
    sym = samples.conjugate_symmetry_residual()
    if sym > SYMMETRY_TOL:
        _warn(f"sample set is conjugate-asymmetric by {sym:.3e}; the recovered profile may not be real")
    m = grid.n_bins
    table = grid.powers(samples.k)
    g = table.sum(axis=1)
    # entry i of g_desc is g(m-1-i), so row a of the normal matrix, g(a - b)
    # over b, is the window of g_desc that starts at m-1-a
    g_desc = np.concatenate([g[::-1], g[1:].conj()])
    normal = np.lib.stride_tricks.sliding_window_view(g_desc, m)[::-1].copy()
    normal.flat[:: m + 1] += RIDGE_PER_SAMPLE * len(samples)
    rhs = table @ (np.exp(1j * grid.delta_omega_min * samples.k) * samples.f)
    raw = np.linalg.solve(normal, rhs)
    re_norm = float(np.linalg.norm(raw.real))
    imag_residual = float(np.linalg.norm(raw.imag)) / re_norm if re_norm > 0.0 else np.inf
    weight, clipped_mass = _clip_and_normalize(raw.real)
    return RecoveryResult(
        profile=RFProfile(grid.points(), weight),
        imag_residual=imag_residual,
        clipped_mass=clipped_mass,
        symmetry_residual=sym,
    )

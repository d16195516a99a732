"""Inverse Fourier transform of samples at unequally spaced frequencies.

The forward direction is a discrete profile's characteristic function
``f(k) = sum_b p_b exp(-i k x_b)``, which the first-order prediction of
``spectral`` calls too; the inverse maps a sample set back onto a uniform
deviation grid by one least-squares fit with a fixed ridge.  On the
uniform grid the fit's normal matrix is Hermitian Toeplitz, so it is built
from one table of powers of ``exp(i * bin_width * k)``, never from the
dense kernel, and the fit is one direct solve of ``n_bins`` unknowns.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channels import RFProfile

if TYPE_CHECKING:  # spectral imports forward_nudft from this module
    from .spectral import SpectralSampleSet

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


@dataclass(frozen=True)
class RecoveryGrid:
    """Uniform grid of deviation values on which the profile is recovered."""

    delta_omega_min: float
    delta_omega_max: float
    n_bins: int

    def __post_init__(self):
        if not self.delta_omega_min < self.delta_omega_max:
            raise ValueError("grid requires delta_omega_min < delta_omega_max")
        # Python floats overflow to inf without the warning numpy gives
        if not np.isfinite(float(self.delta_omega_max) - float(self.delta_omega_min)):
            raise ValueError("grid span delta_omega_max - delta_omega_min is not finite")
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
class RecoveryResult:
    """Recovered profile plus the quality diagnostics of the inversion,
    including the sample set's conjugate-symmetry residual."""

    profile: RFProfile
    imag_residual: float
    clipped_mass: float
    symmetry_residual: float


def forward_nudft(profile: RFProfile, ks: np.ndarray) -> np.ndarray:
    """Fourier transform of a profile at arbitrary coordinates; f(0) = 1."""
    ks = np.asarray(ks, dtype=float)
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
        warnings.warn(
            f"sample set is conjugate-asymmetric by {sym:.3e}; "
            "the recovered profile may not be real",
            stacklevel=2,
        )
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
    xs = grid.points()

    re, im = raw.real, raw.imag
    re_norm = float(np.linalg.norm(re))
    imag_residual = float(np.linalg.norm(im)) / re_norm if re_norm > 0.0 else np.inf
    weight, clipped_mass = _clip_and_normalize(re)
    return RecoveryResult(
        profile=RFProfile(xs, weight),
        imag_residual=imag_residual,
        clipped_mass=clipped_mass,
        symmetry_residual=sym,
    )

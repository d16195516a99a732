"""Inverse Fourier transform of samples at unequally spaced frequencies.

The forward direction evaluates ``f(k) = sum_b p_b exp(-i k x_b)`` for a
discrete profile; the inverse maps a sample set back onto a uniform
deviation grid.  Two methods are provided: a Voronoi-gap-weighted Riemann
sum of the inversion integral (default, parameter-light) and a
least-squares fit with a fixed ridge.  Sample counts stay small (57 at 3
qubits, 241 at 4 and 993 at 5), so direct summation is used throughout.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import RFProfile
from .spectral import SpectralSampleSet

METHODS = ("weighted_riemann", "least_squares")
# A sample set whose conjugate-symmetry residual exceeds this gets a warning.
SYMMETRY_TOL = 1e-6
# The least-squares ridge is this times the number of samples.  Every entry
# of the design matrix has modulus 1, so the normal matrix D^H D + mu*I has
# eigenvalues in [mu, mu + n_samples * n_bins] and, up to rounding, a condition
# number of at most 1 + n_bins / RIDGE_PER_SAMPLE.
RIDGE_PER_SAMPLE = 1e-6
# The most bins a recovery grid may have: the least-squares normal matrix is
# n_bins**2 complex entries, 268 MB at this cap.
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


DEFAULT_GRID = RecoveryGrid(-0.15, 0.15, 61)


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered profile plus the quality diagnostics of the inversion,
    including the sample set's conjugate-symmetry residual."""

    profile: RFProfile
    imag_residual: float
    clipped_mass: float
    condition_number: float | None
    symmetry_residual: float


def forward_nudft(profile: RFProfile, ks: np.ndarray) -> np.ndarray:
    """Fourier transform of a profile at arbitrary coordinates; f(0) = 1."""
    ks = np.asarray(ks, dtype=float)
    return np.exp(-1j * np.multiply.outer(ks, profile.delta_omega)) @ profile.weight


def voronoi_weights(ks: np.ndarray) -> np.ndarray:
    """Integration weights on a sorted 1-d sample axis.

    Interior samples own half the distance to each neighbor; edge samples
    only their single one-sided half-gap.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.size < 2:
        raise ValueError("need at least two samples for gap weights")
    if np.any(np.diff(ks) <= 0.0):
        raise ValueError("sample coordinates must be strictly increasing")
    w = np.empty_like(ks)
    w[1:-1] = (ks[2:] - ks[:-2]) / 2
    w[0] = (ks[1] - ks[0]) / 2
    w[-1] = (ks[-1] - ks[-2]) / 2
    return w


def _clip_and_normalize(raw: np.ndarray) -> tuple[np.ndarray, float]:
    negative = float(np.abs(raw[raw < 0.0]).sum())
    positive = float(raw[raw > 0.0].sum())
    if positive <= 0.0:
        raise ValueError("recovered profile has no positive mass")
    clipped = np.clip(raw, 0.0, None)
    return clipped / clipped.sum(), negative / positive


def inverse_nudft(
    samples: SpectralSampleSet,
    grid: RecoveryGrid = DEFAULT_GRID,
    method: str = "weighted_riemann",
) -> RecoveryResult:
    """Recover a deviation profile from unequally spaced Fourier samples.

    A sample set whose conjugate-symmetry residual exceeds
    :data:`SYMMETRY_TOL` draws a warning.  The imaginary part left over after
    inversion is reported relative to the real part; negative weights are
    clipped to zero and the clipped mass (relative to the retained positive
    mass) is reported, then the profile is renormalized.  The least-squares
    method also reports the condition number of its normal matrix, which
    :data:`RIDGE_PER_SAMPLE` bounds.
    """
    if len(samples) < 5:
        raise ValueError(f"need at least 5 samples, got {len(samples)}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    sym = samples.conjugate_symmetry_residual()
    if sym > SYMMETRY_TOL:
        warnings.warn(
            f"sample set is conjugate-asymmetric by {sym:.3e}; "
            "the recovered profile may not be real",
            stacklevel=2,
        )
    xs = grid.points()
    kernel = np.exp(1j * np.multiply.outer(xs, samples.k))

    condition_number = None
    if method == "weighted_riemann":
        raw = kernel @ (voronoi_weights(samples.k) * samples.f)
    else:
        design = kernel.conj().T
        normal = design.conj().T @ design + RIDGE_PER_SAMPLE * len(samples) * np.eye(xs.size)
        condition_number = float(np.linalg.cond(normal))
        raw = np.linalg.solve(normal, design.conj().T @ samples.f)

    re, im = raw.real, raw.imag
    re_norm = float(np.linalg.norm(re))
    imag_residual = float(np.linalg.norm(im)) / re_norm if re_norm > 0.0 else np.inf
    weight, clipped_mass = _clip_and_normalize(re)
    return RecoveryResult(
        profile=RFProfile(xs, weight),
        imag_residual=imag_residual,
        clipped_mass=clipped_mass,
        condition_number=condition_number,
        symmetry_residual=sym,
    )

"""Incoherent channels as probability-weighted random-unitary superoperators.

A channel is built from an ensemble ``{(p_k, U_k)}`` as
``S = sum_k p_k conj(U_k) kron U_k``.  The inhomogeneity model takes a
nominal generator ``H0*t`` and a perturbation generator ``K`` (with the
pulse duration already absorbed, so the deviation coordinate is
dimensionless) and exponentiates ``H0*t + dw*K`` for every point ``dw`` of
a discrete amplitude-deviation profile.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .liouville import GENERATOR_HERMITIAN_TOL, UNITARY_TOL, conjugation_sum
from .validation import (
    as_square_matrix,
    as_square_stack,
    integer,
    point_arrays,
    real_scalar,
    require_hermitian,
    unitary_stack,
)

# The most points make_synthetic_profile builds.  Each point is one channel
# member, so at 6 qubits (64 x 64 generators) the member stack of
# rf_incoherent_channel stays at or below 4096 * 64**2 * 16 bytes = 268 MB.
MAX_PROFILE_POINTS = 4096
# Profile and ensemble weights must sum to 1 within this.
WEIGHT_SUM_TOL = 1e-12


def _require_distribution(weights: np.ndarray, name: str) -> None:
    """Refuse negative weights, or a sum off 1 by more than :data:`WEIGHT_SUM_TOL` or NaN."""
    if np.any(weights < 0.0):
        raise ValueError(f"{name} weights must be non-negative")
    if not abs(float(weights.sum()) - 1.0) <= WEIGHT_SUM_TOL:
        raise ValueError(f"{name} weights sum to {weights.sum()!r}, expected 1 within {WEIGHT_SUM_TOL:g}")


@dataclass(frozen=True)
class RFProfile:
    """Discrete probability distribution over the normalized amplitude deviation.

    Both arrays must be real and finite, ``delta_omega`` strictly increasing
    (:func:`~qincoh.validation.point_arrays`), weights non-negative and
    normalized to 1 within :data:`WEIGHT_SUM_TOL`.
    """

    delta_omega: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        dw, w = point_arrays(self.delta_omega, self.weight, float, "profile", ("delta_omega", "weight"))
        _require_distribution(w, "profile")
        object.__setattr__(self, "delta_omega", dw)
        object.__setattr__(self, "weight", w)

    def __len__(self) -> int:
        return self.delta_omega.size


def make_synthetic_profile(
    kind: str,
    center: float = 0.0,
    width: float = 0.05,
    skew: float = 0.0,
    n_points: int = 41,
) -> RFProfile:
    """Parameterized stand-in for a measured amplitude-inhomogeneity profile.

    kind "uniform": equal weights on ``[center-width, center+width]``.
    kind "gaussian": ``width`` is the standard deviation, truncated at 3 sigma.
    kind "skewed": two-piece gaussian with mode at ``center`` and side
    standard deviations ``width*(1-skew)`` (left) and ``width*(1+skew)``
    (right), truncated at 3 side-sigmas, so the third central moment has
    the sign of ``skew``.  The smooth shape keeps the Fourier transform
    compact, which sparse spectral sampling needs.

    ``center``, ``width`` and ``skew`` must be finite real numbers and
    ``n_points`` an integer of at most :data:`MAX_PROFILE_POINTS`, none of
    them a bool (:func:`~qincoh.validation.real_scalar`,
    :func:`~qincoh.validation.integer`).  A support whose length overflows,
    or a side width that underflows to zero, is refused by name before any
    array is built.  A width too small for ``n_points`` distinct floats around
    ``center`` is refused by name too.
    """
    # Python floats overflow to inf without a warning, so the support is
    # checked in them before numpy computes on it
    center, width, skew = real_scalar(center, "center"), real_scalar(width, "width"), real_scalar(skew, "skew")
    n_points = integer(n_points, "n_points")
    if not 3 <= n_points <= MAX_PROFILE_POINTS:
        raise ValueError(
            f"n_points must lie in [3, MAX_PROFILE_POINTS = {MAX_PROFILE_POINTS}], got {n_points}"
        )
    if width <= 0.0:
        raise ValueError("width must be positive")
    if kind in ("uniform", "gaussian"):
        if skew != 0.0:
            raise ValueError(f"skew is only meaningful for kind 'skewed', not {kind!r}")
    elif kind == "skewed":
        if not -1.0 < skew < 1.0:
            raise ValueError("skew must lie strictly inside (-1, 1)")
    else:
        raise ValueError(f"unknown profile kind {kind!r}, expected 'uniform', 'gaussian' or 'skewed'")
    # a gaussian has equal sides; a uniform profile reaches one width out
    sigma_left = width * (1.0 - skew)
    sigma_right = width * (1.0 + skew)
    if min(sigma_left, sigma_right) <= 0.0:
        raise ValueError(f"side width of width={width!r}, skew={skew!r} underflows to zero")
    reach = 1 if kind == "uniform" else 3
    lo, hi = center - reach * sigma_left, center + reach * sigma_right
    if not np.isfinite(hi - lo):
        raise ValueError(
            f"{kind} profile support from center={center!r}, width={width!r} has non-finite length"
        )
    xs = np.linspace(lo, hi, n_points)
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError(
            f"{kind} profile of width={width!r} is too narrow to place {n_points} distinct "
            f"points around center={center!r}"
        )
    if kind == "uniform":
        ws = np.full(n_points, 1.0 / n_points)
    else:
        ws = np.where(
            xs <= center,
            np.exp(-0.5 * ((xs - center) / sigma_left) ** 2),
            np.exp(-0.5 * ((xs - center) / sigma_right) ** 2),
        )
        ws = ws / ws.sum()
    return RFProfile(xs, ws)


def _expm_hermitian(h: np.ndarray) -> np.ndarray:
    """``exp(-i h)`` for a Hermitian ``h`` or a stack of them, from one
    (batched) ``eigh``, which reads the lower triangle."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def expm_unitary(h: np.ndarray) -> np.ndarray:
    """``exp(-i H)`` for Hermitian H, via eigendecomposition (exact for
    Hermitian generators, no scaling-and-squaring error); a duration is
    part of ``H``."""
    return _expm_hermitian(require_hermitian(h, GENERATOR_HERMITIAN_TOL, "h"))


def rud_superoperator(ensemble: Sequence[tuple[float, np.ndarray]]) -> np.ndarray:
    """Weighted random-unitary superoperator ``sum_k p_k conj(U_k) kron U_k``.

    Weights must be non-negative and sum to 1 within ``WEIGHT_SUM_TOL``, and
    every member unitary within ``UNITARY_TOL``.  The sum is built by
    :func:`liouville.conjugation_sum` from half its ``N x N`` blocks, so it
    preserves Hermiticity exactly, and the same ensemble gives the same
    bytes for a given BLAS and thread count.
    """
    if len(ensemble) == 0:
        raise ValueError("ensemble must contain at least one member")
    weights = np.array([real_scalar(p, f"ensemble[{i}] weight") for i, (p, _) in enumerate(ensemble)])
    _require_distribution(weights, "ensemble")
    mats = [as_square_matrix(u, f"ensemble[{i}]") for i, (_, u) in enumerate(ensemble)]
    if any(u.shape != mats[0].shape for u in mats):
        raise ValueError("ensemble members have mismatched dimensions")
    return conjugation_sum(unitary_stack(np.stack(mats), UNITARY_TOL, "ensemble"), weights)


def rf_incoherent_channel(
    h0: np.ndarray,
    k: np.ndarray,
    profile: RFProfile,
    t: float = 1.0,
) -> np.ndarray:
    """Incoherent channel of an inhomogeneous control amplitude.

    Each profile point ``dw`` contributes the unitary
    ``exp(-i (h0*t + dw*k))`` with its probability weight; note that ``k``
    carries the full dimensionless product (duration absorbed), so ``t``
    scales the nominal generator only, and must be a real number.  The
    member generators are real combinations of the validated ``h0`` and
    ``k``, so they are Hermitian without a check of their own and are
    diagonalized as one stack.
    """
    h0 = require_hermitian(h0, GENERATOR_HERMITIAN_TOL, "h0")
    k = require_hermitian(k, GENERATOR_HERMITIAN_TOL, "k")
    t = real_scalar(t, "t")
    if h0.shape != k.shape:
        raise ValueError(f"h0 and k have mismatched shapes {h0.shape} vs {k.shape}")
    # finite h0, k and t can still overflow; such a member is refused by name
    with np.errstate(over="ignore", invalid="ignore"):
        generators = as_square_stack(h0 * t + profile.delta_omega[:, None, None] * k, "ensemble")
    members = unitary_stack(_expm_hermitian(generators), UNITARY_TOL, "ensemble")
    return conjugation_sum(members, profile.weight)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary (QR of a complex Ginibre matrix, phase-corrected)."""
    dim = integer(dim, "dim")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


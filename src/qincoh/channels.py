"""Incoherent channels as probability-weighted random-unitary superoperators.

A channel is built from an ensemble ``{(p_k, U_k)}`` as
``S = sum_k p_k conj(U_k) kron U_k``.  The inhomogeneity model takes a
nominal generator ``H0*t`` and a perturbation generator ``K`` (with the
pulse duration already absorbed, so the deviation coordinate is
dimensionless) and exponentiates ``H0*t + dw*K`` for every point ``dw`` of
a discrete amplitude-deviation profile.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .liouville import GENERATOR_HERMITIAN_TOL, UNITARY_TOL, conjugation_sum
from .validation import as_square_matrix, require_hermitian

PROFILE_CSV_HEADER = "delta_omega,weight"


@dataclass(frozen=True)
class RFProfile:
    """Discrete probability distribution over the normalized amplitude deviation.

    Both arrays must be finite, ``delta_omega`` strictly increasing, weights
    non-negative and normalized to 1 within 1e-12.
    """

    delta_omega: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        dw = np.asarray(self.delta_omega, dtype=float)
        w = np.asarray(self.weight, dtype=float)
        if dw.ndim != 1 or w.shape != dw.shape or dw.size < 1:
            raise ValueError("profile needs matching 1-d delta_omega and weight arrays")
        for name, x in (("delta_omega", dw), ("weight", w)):
            if not np.isfinite(x).all():
                raise ValueError(f"profile {name} is not finite")
        if dw.size > 1 and np.any(np.diff(dw) <= 0.0):
            raise ValueError("delta_omega values must be strictly increasing")
        if np.any(w < 0.0):
            raise ValueError("profile weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"profile weights sum to {w.sum()!r}, expected 1 within 1e-12")
        object.__setattr__(self, "delta_omega", dw)
        object.__setattr__(self, "weight", w)

    def __len__(self) -> int:
        return self.delta_omega.size


def shifted_profile(profile: RFProfile, offset: float) -> RFProfile:
    """Same weights on deviation points displaced by a constant offset."""
    return RFProfile(profile.delta_omega + float(offset), profile.weight)


def profile_to_csv(profile: RFProfile) -> str:
    lines = [PROFILE_CSV_HEADER]
    for x, w in zip(profile.delta_omega, profile.weight):
        lines.append(f"{float(x)!r},{float(w)!r}")
    return "\n".join(lines) + "\n"


def profile_from_csv(text: str) -> RFProfile:
    reader = io.StringIO(text)
    header = reader.readline().strip()
    if header != PROFILE_CSV_HEADER:
        raise ValueError(f"expected header {PROFILE_CSV_HEADER!r}, got {header!r}")
    xs, ws = [], []
    for line in reader:
        line = line.strip()
        if not line:
            continue
        sx, sw = line.split(",")
        xs.append(float(sx))
        ws.append(float(sw))
    return RFProfile(np.array(xs), np.array(ws))


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
    """
    for name, x in (("center", center), ("width", width), ("skew", skew)):
        if not np.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    if n_points < 3:
        raise ValueError("n_points must be >= 3")
    if width <= 0.0:
        raise ValueError("width must be positive")
    if kind in ("uniform", "gaussian"):
        if skew != 0.0:
            raise ValueError(f"skew is only meaningful for kind 'skewed', not {kind!r}")
        if kind == "uniform":
            xs = np.linspace(center - width, center + width, n_points)
            ws = np.full(n_points, 1.0 / n_points)
        else:
            xs = np.linspace(center - 3 * width, center + 3 * width, n_points)
            ws = np.exp(-0.5 * ((xs - center) / width) ** 2)
            ws = ws / ws.sum()
    elif kind == "skewed":
        if not -1.0 < skew < 1.0:
            raise ValueError("skew must lie strictly inside (-1, 1)")
        sigma_left = width * (1.0 - skew)
        sigma_right = width * (1.0 + skew)
        xs = np.linspace(center - 3 * sigma_left, center + 3 * sigma_right, n_points)
        ws = np.where(
            xs <= center,
            np.exp(-0.5 * ((xs - center) / sigma_left) ** 2),
            np.exp(-0.5 * ((xs - center) / sigma_right) ** 2),
        )
        ws = ws / ws.sum()
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return RFProfile(xs, ws)


def _expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """``exp(-i h t)`` for a Hermitian ``h`` or a stack of them, from one
    (batched) ``eigh``, which reads the lower triangle."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def expm_unitary(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """``exp(-i H t)`` for Hermitian H, via eigendecomposition (exact for
    Hermitian generators, no scaling-and-squaring error)."""
    return _expm_hermitian(require_hermitian(h, GENERATOR_HERMITIAN_TOL, "h"), t)


def _unitary_ensemble_superop(weights: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Check a ``(K, N, N)`` stack is unitary within ``UNITARY_TOL`` with one
    batched ``U^dag U``, then sum ``sum_k p_k conj(U_k) kron U_k`` in one GEMM.

    A member with a non-finite entry has a NaN or infinite deviation and is
    refused as not finite."""
    gram = np.swapaxes(unitaries.conj(), -1, -2) @ unitaries
    dev = np.abs(gram - np.eye(unitaries.shape[-1])).max(axis=(1, 2))
    bad = np.flatnonzero(~(dev <= UNITARY_TOL))
    if bad.size:
        i = bad[0]
        if not np.isfinite(unitaries[i]).all():
            raise ValueError(f"ensemble[{i}] is not finite")
        raise ValueError(
            f"ensemble[{i}] is not unitary within {UNITARY_TOL:g} (deviation {dev[i]:.3e})"
        )
    return conjugation_sum(unitaries, weights)


def rud_superoperator(ensemble: Sequence[tuple[float, np.ndarray]]) -> np.ndarray:
    """Weighted random-unitary superoperator ``sum_k p_k conj(U_k) kron U_k``.

    Weights must be non-negative and sum to 1 within 1e-12, and every member
    unitary within ``UNITARY_TOL``.  The sum is one matrix product, so the
    same ensemble gives the same bytes for a given BLAS and thread count.
    """
    if len(ensemble) == 0:
        raise ValueError("ensemble must contain at least one member")
    weights = np.array([float(p) for p, _ in ensemble])
    if np.any(weights < 0.0):
        raise ValueError("ensemble weights must be non-negative")
    if not abs(float(weights.sum()) - 1.0) <= 1e-12:
        raise ValueError(f"ensemble weights sum to {weights.sum()!r}, expected 1 within 1e-12")
    mats = [as_square_matrix(u, f"ensemble[{i}]") for i, (_, u) in enumerate(ensemble)]
    if any(u.shape != mats[0].shape for u in mats):
        raise ValueError("ensemble members have mismatched dimensions")
    return _unitary_ensemble_superop(weights, np.stack(mats))


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
    scales the nominal generator only.  The member generators are real
    combinations of the validated ``h0`` and ``k``, so they are Hermitian
    without a check of their own and are diagonalized as one stack.
    """
    h0 = require_hermitian(h0, GENERATOR_HERMITIAN_TOL, "h0")
    k = require_hermitian(k, GENERATOR_HERMITIAN_TOL, "k")
    if h0.shape != k.shape:
        raise ValueError(f"h0 and k have mismatched shapes {h0.shape} vs {k.shape}")
    # finite h0, k and t can still overflow; such a member is refused by name
    with np.errstate(over="ignore", invalid="ignore"):
        generators = h0 * t + profile.delta_omega[:, None, None] * k
    bad = np.flatnonzero(~np.isfinite(generators).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"ensemble[{bad[0]}] is not finite")
    return _unitary_ensemble_superop(profile.weight, _expm_hermitian(generators))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary (QR of a complex Ginibre matrix, phase-corrected)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_rud_ensemble(
    n_qubits: int,
    n_members: int,
    rng: np.random.Generator,
) -> list[tuple[float, np.ndarray]]:
    """Seeded random ensemble for property testing (weights strictly positive)."""
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    dim = 2**n_qubits
    weights = rng.random(n_members) + 0.05
    weights = weights / weights.sum()
    return [(float(p), random_unitary(dim, rng)) for p in weights]

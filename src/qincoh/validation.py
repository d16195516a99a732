"""Input validation helpers used across the package.

Every check is tolerance-based and the tolerance is always an explicit
argument; nothing here compares floats for exact equality.
"""
from __future__ import annotations

import numpy as np


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm ``max |a_ij|`` (0.0 for empty input)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def as_square_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``m`` as a complex array, once it is checked to be a non-empty square
    2-d matrix with finite entries; ``name`` labels it in a rejection."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have at least one row")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} is not finite")
    return m


def require_hermitian(m: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    """The Hermitian part ``(m + m^dag) / 2`` of ``m``, once ``max|m - m^dag|``
    is checked to be at most ``tol``; callers use it in place of ``m``."""
    m = as_square_matrix(m, name)
    dev = max_abs(m - m.conj().T)
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian within {tol:g} (deviation {dev:.3e})")
    return (m + m.conj().T) / 2


def require_unitary(u: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    u = as_square_matrix(u, name)
    dev = max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    # huge finite entries can make the product NaN, which ``dev > tol`` passes
    if not dev <= tol:
        raise ValueError(f"{name} is not unitary within {tol:g} (deviation {dev:.3e})")
    return u

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


def as_square_stack(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``m`` as a complex array, once it is checked to be a ``(..., n, n)``
    stack of non-empty square matrices with finite entries (a single matrix
    is a stack with no leading axes); ``name`` labels it in a rejection."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError(f"{name} must have at least one row")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} is not finite")
    return m


def as_square_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """:func:`as_square_stack` for a single square 2-d matrix; the shape is
    read before the one conversion there."""
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {shape}")
    return as_square_stack(m, name)


def hermitian_part(m: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    """``(m + m^dag) / 2`` of each matrix of ``m``, a stack already checked
    by :func:`as_square_stack`, once every ``max|m - m^dag|`` is at most
    ``tol``.  One vectorized check covers the stack; the first matrix above
    ``tol`` is named by its index in the leading axes, as ``name[i]`` (a
    single matrix as ``name``)."""
    m_dag = m.conj().swapaxes(-1, -2)
    dev = np.abs(m - m_dag).max(axis=(-2, -1))
    bad = np.flatnonzero(dev > tol)
    if bad.size:
        where = np.unravel_index(bad[0], dev.shape)
        index = "".join(f"[{i}]" for i in where)
        raise ValueError(f"{name}{index} is not Hermitian within {tol:g} (deviation {dev[where]:.3e})")
    return (m + m_dag) / 2


def require_hermitian(m: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    """The Hermitian part ``(m + m^dag) / 2`` of ``m``, once ``max|m - m^dag|``
    is checked to be at most ``tol``; callers use it in place of ``m``."""
    return hermitian_part(as_square_matrix(m, name), tol, name)


def require_unitary(u: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    u = as_square_matrix(u, name)
    dev = max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    # huge finite entries can make the product NaN, which ``dev > tol`` passes
    if not dev <= tol:
        raise ValueError(f"{name} is not unitary within {tol:g} (deviation {dev:.3e})")
    return u

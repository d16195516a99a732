"""Input validation helpers used across the package.

The checks here know matrices and stacks of them, and the 1-d point arrays
of a profile or a sample set (:func:`point_arrays`), and no superoperator
layout (``liouville`` owns that).  Every matrix check is tolerance-based and
the tolerance is always an explicit argument; nothing here compares floats
for exact equality.  A check of a ``(..., n, n)`` stack names the first
failing matrix by its index in the leading axes, as ``name[i][j]``
(:func:`first_failure`).
"""
from __future__ import annotations

import numpy as np


def point_arrays(x, y, y_dtype: type, what: str, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a float and ``y`` as a ``y_dtype`` (float or complex) array,
    once checked in this order: 1-d of one non-zero length, not complex where
    float, finite, and ``x`` strictly increasing; a refusal names ``what`` and the array."""
    xs, ys = np.asarray(x), np.asarray(y)
    if xs.ndim != 1 or ys.shape != xs.shape or xs.size < 1:
        raise ValueError(f"{what} needs matching 1-d {names[0]} and {names[1]} arrays, "
                         f"got shapes {xs.shape} and {ys.shape}")
    for name, a, dtype in zip(names, (xs, ys), (float, y_dtype)):
        if dtype is float and np.iscomplexobj(a):
            raise ValueError(f"{what} {name} is complex, expected real")
    xs, ys = xs.astype(float, copy=False), ys.astype(y_dtype, copy=False)
    for name, a in zip(names, (xs, ys)):
        if not np.isfinite(a).all():
            raise ValueError(f"{what} {name} is not finite")
    if np.any(xs[1:] <= xs[:-1]):
        raise ValueError(f"{what} {names[0]} is not strictly increasing")
    return xs, ys


def first_failure(bad: np.ndarray) -> tuple[tuple[int, ...], str] | None:
    """The position of the first set flag of ``bad``, one flag per matrix of
    a stack, in C order, and its label ``[i][j]`` (``""`` for a 0-d
    ``bad``); None when no flag is set, which ``bad.any()`` alone tells."""
    if not bad.any():
        return None
    where = tuple(int(i) for i in np.argwhere(bad)[0])
    return where, "".join(f"[{i}]" for i in where)


def first_non_finite(m: np.ndarray) -> tuple[tuple[int, ...], str] | None:
    """:func:`first_failure` over the matrices of the stack ``m`` that hold
    a NaN or infinite entry."""
    finite = np.isfinite(m)
    return None if finite.all() else first_failure(~finite.all(axis=(-2, -1)))


def as_square_stack(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``m`` as a complex array, once it is checked to be a ``(..., n, n)``
    stack of non-empty square matrices with finite entries; ``name`` labels
    it in a rejection."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError(f"{name} must have at least one row")
    if found := first_non_finite(m):
        raise ValueError(f"{name}{found[1]} is not finite")
    return m


def square_side(m: np.ndarray, name: str) -> int:
    """The side of ``m``, read from its shape with no conversion, once that
    shape is checked to be a square 2-d one."""
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {shape}")
    return shape[0]


def as_square_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """:func:`as_square_stack` for a single square 2-d matrix; the shape is
    read before the one conversion there."""
    square_side(m, name)
    return as_square_stack(m, name)


def _refuse_deviation(dev: np.ndarray, tol: float, name: str, what: str) -> None:
    """Refuse the first matrix whose deviation ``dev`` exceeds ``tol``; huge
    finite entries can make it NaN, which ``dev > tol`` would pass."""
    if found := first_failure(~(dev <= tol)):
        where, index = found
        raise ValueError(f"{name}{index} is not {what} within {tol:g} (deviation {dev[where]:.3e})")


def hermitian_part(m: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    """``(m + m^dag) / 2`` of each matrix of ``m``, a stack already checked
    by :func:`as_square_stack`, once every ``max|m - m^dag|`` is at most
    ``tol``; one vectorized check covers the stack."""
    m_dag = m.conj().swapaxes(-1, -2)
    _refuse_deviation(np.abs(m - m_dag).max(axis=(-2, -1)), tol, name, "Hermitian")
    return (m + m_dag) / 2


def unitary_stack(u: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    """``u``, a stack already checked by :func:`as_square_stack`, once every
    ``max|u^dag u - I|`` is at most ``tol``; one batched product covers the
    stack."""
    gram = u.conj().swapaxes(-1, -2) @ u
    _refuse_deviation(np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1)), tol, name, "unitary")
    return u


def require_hermitian(m: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    """The Hermitian part ``(m + m^dag) / 2`` of ``m``, once ``max|m - m^dag|``
    is checked to be at most ``tol``; callers use it in place of ``m``."""
    return hermitian_part(as_square_matrix(m, name), tol, name)


def require_unitary(u: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    """:func:`unitary_stack` for a single square 2-d matrix."""
    return unitary_stack(as_square_matrix(u, name), tol, name)


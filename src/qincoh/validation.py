"""Input validation helpers used across the package.

Every check is tolerance-based and the tolerance is always an explicit
argument; nothing here compares floats for exact equality.  A check of a
``(..., n, n)`` stack names the first failing matrix by its index in the
leading axes, as ``name[i][j]`` (:func:`first_failure`).
"""
from __future__ import annotations

import math

import numpy as np


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


def _square_side(m: np.ndarray, name: str) -> int:
    """The side of ``m``, read from its shape with no conversion, once that
    shape is checked to be a square 2-d one."""
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {shape}")
    return shape[0]


def as_square_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """:func:`as_square_stack` for a single square 2-d matrix; the shape is
    read before the one conversion there."""
    _square_side(m, name)
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


# Loops over the row blocks ``a`` of a superoperator's ``(n, n, n, n)`` view
# take consecutive row blocks together, up to this many entries of S: at
# small n the whole matrix in one step, so the numpy call overhead is paid
# once, and at large n one row block at a time, whose work stays in cache.
ROW_BLOCK_ENTRIES = 2**12


def row_block_ranges(n: int) -> list[tuple[int, int]]:
    """The ranges ``[a0, a1)`` that cover the row blocks ``0 <= a < n`` of a
    superoperator of side ``n^2`` in order, each of
    ``max(1, ROW_BLOCK_ENTRIES // n^3)`` row blocks but the last."""
    step = max(1, ROW_BLOCK_ENTRIES // n**3)
    return [(a0, min(a0 + step, n)) for a0 in range(0, n, step)]


def require_hermiticity_preserving(s: np.ndarray, tol: float, name: str = "superoperator") -> np.ndarray:
    """``s`` as a complex array, once it is checked to be a square matrix of
    side ``n^2`` whose map preserves Hermiticity within ``tol``.

    The deviation ``max|S[(a,b),(c,d)] - conj S[(b,a),(d,c)]|`` equals
    ``max|C - C^dag|`` of the map's Choi matrix ``C``.  It is taken over the
    row blocks ``a`` of each of :func:`row_block_ranges` at a time, against
    the blocks ``b >= a0`` of the range, which reads every entry.  It
    replaces a separate finiteness scan: a NaN or infinite entry makes the
    deviation NaN or infinite, and a failed check then names ``name is not
    finite`` before it names the deviation.
    """
    side = _square_side(s, name)
    n = math.isqrt(side)
    if n < 1 or n * n != side:
        raise ValueError(f"{name} side {side} is not a positive perfect square")
    s = np.asarray(s, dtype=complex)
    s4 = s.reshape(n, n, n, n)
    ranges = row_block_ranges(n)
    step = ranges[0][1]
    diff, mag, dev = np.empty((step, n, n, n), dtype=complex), np.empty((step, n, n, n)), np.empty(len(ranges))
    # the per-range maxima stay in an array, so one NaN range is not lost
    # as it would be in a running max; non-finite entries are named below
    with np.errstate(invalid="ignore", over="ignore"):
        for i, (a0, a1) in enumerate(ranges):
            block = diff[:a1 - a0, a0:]
            np.conjugate(s4[a0:, a0:a1].transpose(1, 0, 3, 2), out=block)
            np.subtract(s4[a0:a1, a0:], block, out=block)
            dev[i] = np.maximum.reduce(np.abs(block, out=mag[:a1 - a0, a0:]), axis=None)
    worst = dev.max()
    if not worst <= tol:
        if first_non_finite(s):
            raise ValueError(f"{name} is not finite")
        raise ValueError(f"{name} does not preserve Hermiticity within {tol:g} (deviation {worst:.3e})")
    return s

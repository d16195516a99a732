"""Input validation helpers used across the package.

This module holds the one rule for a number from outside, a config's
included: it is finite, it is no bool, it fits a float, and a ragged nested
sequence is refused by name.  Every array from outside is read once, by
:func:`numeric`, which refuses a ragged, a non-numeric array, or one of a
kind the expected dtype does not admit, by name, its shape by
:func:`shape`, and every scalar from outside by :func:`real_scalar` (a
finite real number that fits a float) or :func:`integer`, neither of which
takes a bool.  The checks here know
matrices and stacks of them, and the 1-d point arrays of a profile or a
sample set (:func:`point_arrays`), and no superoperator layout
(``liouville`` owns that).  Every matrix check is tolerance-based and
the tolerance is always an explicit argument; nothing here compares floats
for exact equality.  A check of a ``(..., n, n)`` stack names the first
failing matrix by its index in the leading axes, as ``name[i][j]``
(:func:`first_failure`).
"""
from __future__ import annotations

import math
import numbers

import numpy as np


# What an array of each numeric dtype kind holds, as a refusal names it, and
# the kinds that each expected dtype admits, the last being its own.
_KINDS = {"b": "boolean", "i": "integer", "u": "integer", "f": "real", "c": "complex"}
_ADMITS = {bool: "b", float: "biuf", complex: "biufc"}


def _as_array(a, name: str) -> np.ndarray:
    """``np.asarray(a)``, where numpy's bare error on a ragged nested
    sequence becomes a refusal that names ``name``."""
    try:
        return np.asarray(a)
    except ValueError:
        raise ValueError(f"{name} is ragged: its nested sequences differ in length") from None


def shape(a, name: str) -> tuple[int, ...]:
    """The shape of ``a``, an array from outside, with no copy of an array;
    a ragged nested sequence is refused by name."""
    return _as_array(a, name).shape


def numeric(a, dtype: type, name: str) -> np.ndarray:
    """``a``, an array from outside, as a ``dtype`` (bool, float or complex)
    array, once it is checked to be rectangular, numeric (an object array by
    its values) and of a kind that ``dtype`` admits: no complex where real,
    and nothing but booleans where boolean; a refusal names ``name``."""
    a = _as_array(a, name)
    if a.dtype == object:
        values = _as_array(a.tolist(), name)
        # an object array of sequences reads back with more axes; it stays
        # an object array, which is no number
        a = values if values.shape == a.shape else a
    kind = a.dtype.kind
    if kind not in _KINDS:
        raise ValueError(f"{name} is not numeric (dtype {a.dtype})")
    if kind not in _ADMITS[dtype]:
        raise ValueError(f"{name} is {_KINDS[kind]}, expected {_KINDS[_ADMITS[dtype][-1]]}")
    return a.astype(dtype, copy=False)


def real_scalar(x, name: str) -> float:
    """``x`` as a float, once it is checked to be a real number, not a bool,
    that fits a float and is finite."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:
        raise ValueError(f"{name} overflows a float, got {x!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return value


def integer(x, name: str) -> int:
    """``x`` as an int, once it is checked to be an integer and not a bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def point_arrays(x, y, y_dtype: type, what: str, names: tuple[str, str],
                 min_size: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a float and ``y`` as a ``y_dtype`` (float or complex) array,
    once checked in this order: 1-d of one length of at least ``min_size``,
    :func:`numeric`, finite; a refusal names ``what`` and the array."""
    x_shape, y_shape = (shape(a, f"{what} {name}") for a, name in zip((x, y), names))
    if len(x_shape) != 1 or y_shape != x_shape or x_shape[0] < min_size:
        raise ValueError(f"{what} needs matching 1-d {names[0]} and {names[1]} arrays, "
                         f"got shapes {x_shape} and {y_shape}")
    xs, ys = (numeric(a, dtype, f"{what} {name}") for a, dtype, name in zip((x, y), (float, y_dtype), names))
    for name, a in zip(names, (xs, ys)):
        if not np.isfinite(a).all():
            raise ValueError(f"{what} {name} is not finite")
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


def as_square_stack(m: np.ndarray, name: str) -> np.ndarray:
    """``m`` as a complex array, once it is checked to be a ``(..., n, n)``
    stack of non-empty square matrices with finite entries; ``name`` labels
    it in a rejection."""
    m = numeric(m, complex, name)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError(f"{name} must have at least one row")
    if found := first_non_finite(m):
        raise ValueError(f"{name}{found[1]} is not finite")
    return m


def square_side(m: np.ndarray, name: str) -> int:
    """The side of ``m``, read from its :func:`shape` with no copy of an
    array, once that shape is checked to be a square 2-d one."""
    m_shape = shape(m, name)
    if len(m_shape) != 2 or m_shape[0] != m_shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {m_shape}")
    return m_shape[0]


def as_square_matrix(m: np.ndarray, name: str) -> np.ndarray:
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


def hermitian_part(m: np.ndarray, tol: float, name: str) -> np.ndarray:
    """``(m + m^dag) / 2`` of each matrix of ``m``, a stack already checked
    by :func:`as_square_stack`, once every ``max|m - m^dag|`` is at most
    ``tol``; one vectorized check covers the stack."""
    m_dag = m.conj().swapaxes(-1, -2)
    _refuse_deviation(np.abs(m - m_dag).max(axis=(-2, -1)), tol, name, "Hermitian")
    return (m + m_dag) / 2


def unitary_stack(u: np.ndarray, tol: float, name: str) -> np.ndarray:
    """``u``, a stack already checked by :func:`as_square_stack`, once every
    ``max|u^dag u - I|`` is at most ``tol``; one batched product covers the
    stack."""
    gram = u.conj().swapaxes(-1, -2) @ u
    _refuse_deviation(np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1)), tol, name, "unitary")
    return u


def require_hermitian(m: np.ndarray, tol: float, name: str) -> np.ndarray:
    """The Hermitian part ``(m + m^dag) / 2`` of ``m``, once ``max|m - m^dag|``
    is checked to be at most ``tol``; callers use it in place of ``m``."""
    return hermitian_part(as_square_matrix(m, name), tol, name)


def require_unitary(u: np.ndarray, tol: float, name: str) -> np.ndarray:
    """:func:`unitary_stack` for a single square 2-d matrix."""
    return unitary_stack(as_square_matrix(u, name), tol, name)


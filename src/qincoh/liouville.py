"""Column-stacking Liouville-space algebra.

A density matrix is vectorized by stacking its columns left to right, so
entry ``i + j*N`` of the vector is ``rho[i, j]``.  Under this convention a
triple product ``A @ rho @ B`` acts on the vectorized state as
``transpose(B) kron A``; in particular a unitary conjugation
``rho -> U rho U^dag`` becomes the superoperator ``conj(U) kron U``.

Superoperators and Choi matrices are plain ``N^2 x N^2`` complex ndarrays;
:func:`superop_to_choi` and :func:`choi_spectrum` also take a
``(..., N^2, N^2)`` stack of them.
The Choi matrix of a superoperator ``S`` is

    C = sum_ij (E_ij kron I) S (I kron E_ij)

with ``E_ij`` the elementary matrix; on entries this is the exact index
permutation ``C[(a,b),(c,d)] = S[(d,b),(c,a)]``, which is its own inverse.

This module owns a superoperator's ``(N, N, N, N)`` view.  A map preserves
Hermiticity when the view equals its mirror ``x[a,b,c,d] = conj x[b,a,d,c]``
(``C = C^dag``): one private helper writes the mirror for
:func:`conjugation_sum`, :func:`require_hermiticity_preserving` checks it on
the same axes, and :func:`eigenbasis_form` forms only the label-basis rows
that the mirror does not give.  :func:`ensemble_eigenbasis_form` forms the
same rows from a random-unitary ensemble's members, with no ``N^2 x N^2``
array.  All four take one step shape at every map size: one row block ``a``
(the build and the check) or one label ``j`` (the transforms) at a time.
"""
from __future__ import annotations

import math

import numpy as np

from .validation import (
    as_square_matrix,
    as_square_stack,
    first_non_finite,
    hermitian_part,
    numeric,
    require_unitary,
    square_side,
)


def columnize(rho: np.ndarray) -> np.ndarray:
    """Stack the columns of an ``(n, m)`` matrix into an ``(n*m,)`` vector
    (|rho>), or of each matrix of an ``(..., n, m)`` stack into an
    ``(..., n*m)`` stack; like ``ravel``, it may return a view of ``rho``."""
    rho = numeric(rho, complex, "rho")
    if rho.ndim < 2:
        raise ValueError(f"rho must be a matrix or a stack of them, got shape {rho.shape}")
    return rho.swapaxes(-1, -2).reshape(*rho.shape[:-2], rho.shape[-2] * rho.shape[-1])


# unitary_superoperator accepts U with max|U^dag U - I| up to this.
UNITARY_TOL = 1e-10
# A generator (h0, h0*t, k or a Hamiltonian h) is refused when max|H - H^dag|
# exceeds this, by every function that takes one.
GENERATOR_HERMITIAN_TOL = 1e-12
# The complete-positivity tolerance: a map is CP when its smallest Choi
# eigenvalue is at least -CP_TOL (the tomography and channel reports).
CP_TOL = 1e-9


def unitary_superoperator(u: np.ndarray) -> np.ndarray:
    """Superoperator ``conj(U) kron U`` of the conjugation ``rho -> U rho U^dag``."""
    u = require_unitary(u, UNITARY_TOL, "u")
    return np.kron(u.conj(), u)


def _hilbert_dim(side: int, name: str) -> int:
    """The Hilbert dimension ``sqrt(side)`` of a superoperator of side
    ``side``, once that side is checked to be a positive perfect square."""
    n = math.isqrt(side)
    if n < 1 or n * n != side:
        raise ValueError(f"{name} side {side} is not a positive perfect square")
    return n


# superop_eigenvalues treats real parts within this of their neighbour in
# descending order as tied, so rounding never decides the order of a pair.
EIGENVALUE_TIE_TOL = 1e-10


def superop_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of a superoperator, with multiplicity, ordered by real
    part descending; each run of real parts whose neighbours lie within
    :data:`EIGENVALUE_TIE_TOL` is a tie, ordered by imaginary part
    descending.  So the conjugate pairs of a Hermiticity-preserving map,
    whose real parts agree to rounding, keep their order under rounding.

    One ``eigvals`` of ``S`` as given; no eigenvectors are computed.  A
    LAPACK failure is re-raised as a ``LinAlgError`` that names the matrix
    size.
    """
    s = as_square_matrix(s, "s")
    _hilbert_dim(s.shape[0], "s")
    try:
        w = np.linalg.eigvals(s)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition did not converge for {s.shape[0]}x{s.shape[1]} "
            f"matrix (max|entry| = {np.abs(s).max():.3e}): {exc}"
        ) from exc
    w = w[np.argsort(-w.real, kind="stable")]
    run = np.cumsum(np.diff(-w.real, prepend=-np.inf) > EIGENVALUE_TIE_TOL)
    return w[np.lexsort((-w.imag, run))]


def superop_to_choi(s: np.ndarray) -> np.ndarray:
    """Choi matrix of a superoperator, or of each of a ``(..., N^2, N^2)``
    stack (pure index permutation, involutive: applied to a Choi matrix it
    gives back the superoperator)."""
    s = as_square_stack(s, "s")
    n = _hilbert_dim(s.shape[-1], "s")
    return s.reshape(-1, n, n, n, n).transpose(0, 4, 2, 3, 1).reshape(s.shape)


# A map is refused as not Hermiticity-preserving when its Choi matrix is
# further than this from Hermitian: by choi_spectrum and cp_filter, and by
# require_hermiticity_preserving, which reads the same deviation off S's
# mirror, max|S[(a,b),(c,d)] - conj S[(b,a),(d,c)]| = max|C - C^dag|.
CHOI_HERMITIAN_TOL = 1e-10


def choi_spectrum(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Choi matrix of ``s``, sorted descending: one check
    that it is Hermitian within :data:`CHOI_HERMITIAN_TOL` (that ``s``
    preserves Hermiticity), then one ``eigvalsh``, with no eigenvectors.

    ``s`` may be a ``(..., N^2, N^2)`` stack of superoperators; the stack
    then gets one check, whose error names the first failing Choi matrix by
    its index, and one batched ``eigvalsh``, and each row of the result
    equals the spectrum of its map alone."""
    c = hermitian_part(superop_to_choi(s), CHOI_HERMITIAN_TOL, "Choi matrix")
    return np.linalg.eigvalsh(c)[..., ::-1]


# The mirror x[a,b,c,d] = conj x[b,a,d,c] of a superoperator's (n, n, n, n)
# view x is the conjugate of this transpose of x.
_MIRROR = (1, 0, 3, 2)


def _average_with_mirror(square: np.ndarray) -> None:
    """Average a square ``(a, a)``, a ``(1, 1, n, n)`` slice of an
    ``(n, n, n, n)`` view, with its own mirror in place, so it equals that
    mirror bit for bit."""
    square += square.conj().transpose(_MIRROR)
    square *= 0.5


def _mirror_row(x: np.ndarray, a: int) -> None:
    """Finish the rows ``(b, a)`` of the ``(n, n, n, n)`` view ``x``, given
    its rows ``(a, b >= a)``: the rows ``b > a`` are the mirror of the given
    rows, and the square ``(a, a)`` is averaged with its own mirror."""
    np.conjugate(x[a:a + 1, a + 1:].transpose(_MIRROR), out=x[a + 1:, a:a + 1])
    _average_with_mirror(x[a:a + 1, a:a + 1])


def require_hermiticity_preserving(s: np.ndarray, name: str) -> np.ndarray:
    """``s`` as a complex array, once it is checked to be a square matrix of
    side ``n^2`` whose map preserves Hermiticity within
    :data:`CHOI_HERMITIAN_TOL`.

    The deviation ``max|S[(a,b),(c,d)] - conj S[(b,a),(d,c)]|`` of S from
    its mirror equals ``max|C - C^dag|`` of the map's Choi matrix ``C``.  It
    is taken one row block ``a`` at a time, against the blocks ``b >= a``,
    which reads every entry.  It replaces a separate finiteness scan: a NaN
    or infinite entry makes the deviation NaN or infinite, and a failed
    check then names ``name is not finite`` before it names the deviation.
    """
    n = _hilbert_dim(square_side(s, name), name)
    s4 = numeric(s, complex, name).reshape(n, n, n, n)
    diff, mag, dev = np.empty((1, n, n, n), dtype=complex), np.empty((1, n, n, n)), np.empty(n)
    # the per-row-block maxima stay in an array, so one NaN row block is not
    # lost as it would be in a running max; non-finite entries are named below
    with np.errstate(invalid="ignore", over="ignore"):
        for a in range(n):
            row = diff[:, a:]
            np.conjugate(s4[a:, a:a + 1].transpose(_MIRROR), out=row)
            np.subtract(s4[a:a + 1, a:], row, out=row)
            dev[a] = np.maximum.reduce(np.abs(row, out=mag[:, a:]), axis=None)
    worst = dev.max()
    if not worst <= CHOI_HERMITIAN_TOL:
        if first_non_finite(s4):
            raise ValueError(f"{name} is not finite")
        raise ValueError(f"{name} does not preserve Hermiticity within {CHOI_HERMITIAN_TOL:g} (deviation {worst:.3e})")
    return s4.reshape(n * n, n * n)


def _block_factors(ops: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``left``, ``right`` of a ``(K, N, N)`` stack and real weights such
    that ``left[a] @ right[c]`` is block ``(a, c)``, ``sum_k w_k
    conj(A_k[a])^T A_k[c]``, of ``sum_k w_k conj(A_k) kron A_k`` in its
    ``[(a,c), (b,d)]`` layout; ``right`` is a view of ``ops``."""
    left = ops.conj()
    left *= weights[:, None, None]
    return left.transpose(1, 2, 0), ops.transpose(1, 0, 2)  # [a, b, k], [c, k, d]


def conjugation_sum(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k w_k conj(A_k) kron A_k`` for a ``(K, N, N)`` stack and real
    weights, written straight into the superoperator's ``[(a,c), (b,d)]``
    layout.

    Its ``N x N`` block ``(a, c)`` is ``sum_k w_k conj(A_k[a])^T A_k[c]``,
    and block ``(c, a)`` is the conjugate transpose of block ``(a, c)``.
    So only the blocks ``c >= a`` are computed, one matrix product per row
    ``a``, and :func:`_mirror_row` completes each row.  The result
    preserves Hermiticity exactly: its Choi matrix equals its own conjugate
    transpose bit for bit.  The same inputs give the same bytes for a given
    BLAS and thread count.
    """
    _, n, _ = ops.shape
    left, right = _block_factors(ops, weights)
    s = np.empty((n, n, n, n), dtype=complex)  # [a, c, b, d]
    for a in range(n):
        np.matmul(left[a], right[a:], out=s[a, a:])
        _mirror_row(s, a)
    return s.reshape(n * n, n * n)


def eigenbasis_form(s: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The rows ``(j, m)``, ``m >= j``, of ``S_B = B^dag S B`` in the
    unperturbed label basis, for a Hermiticity-preserving ``S``, j-major
    (as ``np.triu_indices(N)`` lists them), with columns ``j*N + m``.

    ``B`` has columns ``b_jm = conj(|phi_m>) kron |phi_j>``, with ``|phi_j>``
    the columns of ``vectors``.  As S equals its mirror, so does ``S_B``:
    row ``(m, j)`` is the conjugate of row ``(j, m)`` with each column pair
    swapped, and is not formed.  Each eigenvector index is contracted with
    the ``(N, N, N, N)`` view of S as a matrix product: the row indices
    first (``b -> j``, then ``a -> m >= j``), then the column indices of the
    ``N(N+1)/2`` rows, about ``2.5 N^5`` complex multiply-adds where all
    rows take ``4 N^5``.  One label ``j`` is taken at a time, and its rows
    are written straight into the result; its row ``(j, j)``, its own
    mirror, is averaged with that mirror, so it equals it bit for bit.
    Callers check the precondition (:func:`require_hermiticity_preserving`).
    """
    n = vectors.shape[0]
    v, vc = vectors, vectors.conj()
    start = [j * n - j * (j - 1) // 2 for j in range(n + 1)]  # the first row of each label j
    # t[a, b, c, d] = S[a*n + b, c*n + d] and B[(a, b), (j, m)] = vc[a, m] v[b, j];
    # the products read transposed and strided operands in place
    rows = vc.T @ s.reshape(n, n, n * n)  # b -> j: [a, j, cd]
    half = np.empty((start[n], n, n), dtype=complex)  # [(j, m >= j), j', m']
    for j in range(n):
        t = v[:, j:].T @ rows[:, j]  # a -> m >= j: [m, cd]
        t = (t.reshape(-1, n) @ v).reshape(n - j, 1, n, n)  # d -> j': [m, j, c, j']
        block = np.matmul(t.transpose(0, 1, 3, 2), vc, out=half[start[j]:start[j + 1], None])  # c -> m': [m, j, j', m']
        _average_with_mirror(block[:1])
    return half.reshape(-1, n * n)


def ensemble_eigenbasis_form(unitaries: np.ndarray, weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """:func:`eigenbasis_form` of ``S = conjugation_sum(unitaries, weights)``,
    formed from the members without S, for a ``(K, N, N)`` stack of
    unitaries and real weights, as :class:`~qincoh.channels.RandomUnitaryChannel`
    holds them checked.

    With ``W_x = V^dag U_x V`` (one batched product),
    ``S_B[(j,m),(j',m')] = sum_x p_x W_x[j,j'] conj(W_x[m,m'])``: the block
    ``(j, m)`` of the conjugation sum of the ``conj(W_x)``.  So the rows
    ``(j, m >= j)`` of label ``j`` are one ``(N, K) x (K, N)`` product per
    ``m``, written straight into the result, about ``K N^4 / 2`` complex
    multiply-adds in all; the row ``(j, j)`` is averaged with its own
    mirror, so it equals it bit for bit, as in :func:`eigenbasis_form`.
    With real weights S preserves Hermiticity exactly, whatever the
    matrices, so no check is needed.  No ``N^2 x N^2`` array is formed:
    the peak is the ``N(N+1)/2 x N^2`` result plus a few ``K x N x N``
    stacks.
    """
    n = vectors.shape[0]
    left, right = _block_factors((vectors.conj().T @ unitaries @ vectors).conj(), weights)
    half = np.empty((n * (n + 1) // 2, n, n), dtype=complex)  # [(j, m >= j), j', m']
    start = 0
    for j in range(n):
        rows = np.matmul(left[j], right[j:], out=half[start:start + n - j])
        _average_with_mirror(rows[:1, None])
        start += n - j
    return half.reshape(-1, n * n)


def cp_filter(s: np.ndarray) -> tuple[np.ndarray, float]:
    """Project to a CP map by zeroing negative Choi eigenvalues.

    The surviving spectrum is rescaled so the Choi trace equals the Hilbert
    dimension N.  Returns the filtered superoperator and the removed weight
    (sum of |negative eigenvalues|).
    """
    n = math.isqrt(square_side(s, "s"))  # one map: a stack is refused by name
    c = superop_to_choi(s)
    w, v = np.linalg.eigh(hermitian_part(c, CHOI_HERMITIAN_TOL, "Choi matrix"))
    # descending, as choi_spectrum orders them; the sums below add in this
    # order, which fixes their rounding
    w, v = w[::-1], v[:, ::-1]
    removed_weight = float(np.abs(w[w < 0.0]).sum())
    kept = np.clip(w, 0.0, None)
    total = float(kept.sum())
    if total <= 0.0:
        raise ValueError("entire Choi spectrum is non-positive; cannot CP-filter")
    kept = kept * (n / total)
    c_filtered = (v * kept) @ v.conj().T
    return superop_to_choi(c_filtered), removed_weight

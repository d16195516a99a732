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
(``C = C^dag``); one private helper writes the mirror for
:func:`conjugation_sum` and :func:`eigenbasis_form`, and
:func:`require_hermiticity_preserving` checks it on the same axes.
"""
from __future__ import annotations

import math

import numpy as np

from .validation import (
    as_square_matrix,
    as_square_stack,
    first_non_finite,
    hermitian_part,
    require_unitary,
    square_side,
)


def columnize(rho: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into a single vector (|rho>)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {rho.shape}")
    return rho.flatten(order="F")


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
    lead = s.shape[:-2]
    axes = tuple(range(len(lead))) + tuple(len(lead) + a for a in (3, 1, 2, 0))
    return s.reshape(*lead, n, n, n, n).transpose(axes).reshape(*lead, n * n, n * n)


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


def _mirror_rows(x: np.ndarray, a0: int, a1: int) -> None:
    """Finish the rows ``(a, b)`` of the ``(n, n, n, n)`` view ``x`` whose
    ``b`` lies in ``[a0, a1)``, given its rows ``a0 <= a < a1, b >= a0``:
    the rows ``a >= a1`` are the mirror of the given rows ``b >= a1``, and
    the square ``a0 <= a, b < a1`` is averaged with its own mirror, so it
    equals that mirror bit for bit."""
    np.conjugate(x[a0:a1, a1:].transpose(_MIRROR), out=x[a1:, a0:a1])
    square = x[a0:a1, a0:a1]
    square += square.conj().transpose(_MIRROR)
    square *= 0.5


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


def require_hermiticity_preserving(s: np.ndarray, name: str = "superoperator") -> np.ndarray:
    """``s`` as a complex array, once it is checked to be a square matrix of
    side ``n^2`` whose map preserves Hermiticity within
    :data:`CHOI_HERMITIAN_TOL`.

    The deviation ``max|S[(a,b),(c,d)] - conj S[(b,a),(d,c)]|`` of S from
    its mirror equals ``max|C - C^dag|`` of the map's Choi matrix ``C``.  It
    is taken over the row blocks ``a`` of each of :func:`row_block_ranges`
    at a time, against the blocks ``b >= a0`` of the range, which reads
    every entry.  It replaces a separate finiteness scan: a NaN or infinite
    entry makes the deviation NaN or infinite, and a failed check then names
    ``name is not finite`` before it names the deviation.
    """
    n = _hilbert_dim(square_side(s, name), name)
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
            np.conjugate(s4[a0:, a0:a1].transpose(_MIRROR), out=block)
            np.subtract(s4[a0:a1, a0:], block, out=block)
            dev[i] = np.maximum.reduce(np.abs(block, out=mag[:a1 - a0, a0:]), axis=None)
    worst = dev.max()
    if not worst <= CHOI_HERMITIAN_TOL:
        if first_non_finite(s):
            raise ValueError(f"{name} is not finite")
        raise ValueError(f"{name} does not preserve Hermiticity within {CHOI_HERMITIAN_TOL:g} (deviation {worst:.3e})")
    return s


def conjugation_sum(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k w_k conj(A_k) kron A_k`` for a ``(K, N, N)`` stack and real
    weights, written straight into the superoperator's ``[(a,c), (b,d)]``
    layout.

    Its ``N x N`` block ``(a, c)`` is ``sum_k w_k conj(A_k[a])^T A_k[c]``,
    and block ``(c, a)`` is the conjugate transpose of block ``(a, c)``.
    So only the blocks ``c >= a`` are computed, one matrix product per row
    ``a``, and :func:`_mirror_rows` completes each row.  The result
    preserves Hermiticity exactly: its Choi matrix equals its own conjugate
    transpose bit for bit.  The same inputs give the same bytes for a given
    BLAS and thread count.
    """
    _, n, _ = ops.shape
    left = ops.conj()
    left *= weights[:, None, None]
    left = left.transpose(1, 2, 0)  # [a, b, k]
    right = ops.transpose(1, 0, 2)  # [c, k, d]
    s = np.empty((n, n, n, n), dtype=complex)  # [a, c, b, d]
    for a in range(n):
        np.matmul(left[a], right[a:], out=s[a, a:])
        _mirror_rows(s, a, a + 1)
    return s.reshape(n * n, n * n)


def eigenbasis_form(s: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``S_B = B^dag S B`` in the unperturbed label basis, for a
    Hermiticity-preserving ``S``.

    ``B`` has columns ``b_jm = conj(|phi_m>) kron |phi_j>``, with ``|phi_j>``
    the columns of ``vectors``; rows and columns of ``S_B`` are indexed
    ``j*N + m``.  Each eigenvector index is contracted with the
    ``(N, N, N, N)`` view of S as a matrix product, with no ``N^2 x N^2``
    basis matrix.  As S equals its mirror, so does the ``(N, N, N, N)`` view
    of ``S_B``: row ``(m, j)`` is the conjugate of row ``(j, m)`` with each
    column pair ``(j', m')`` swapped.  So only the rows ``m >= j`` are
    transformed: the row indices first (``b -> j``, then ``a -> m`` for
    ``m >= j``), then the column indices of those ``N(N+1)/2`` rows, about
    ``2.5 N^5`` complex multiply-adds where all rows would take ``4 N^5``.
    The labels ``j`` are taken a range of :func:`row_block_ranges` at a
    time (one label at 5 qubits, all of them at 3), and each range also
    transforms the rows ``m < j`` of its own square ``j0 <= j, m < j1``, a
    few extra rows that spare numpy calls at small ``N``; then
    :func:`_mirror_rows` completes the range, so the result equals its own
    mirror bit for bit.  For a unitary ``vectors`` it is similar to S.
    Callers check the precondition (:func:`require_hermiticity_preserving`);
    for another S the result is not ``S_B``.
    """
    n = vectors.shape[0]
    v, vc = vectors, vectors.conj()
    # t[a, b, c, d] = S[a*n + b, c*n + d] and B[(a, b), (j, m)] = vc[a, m] v[b, j];
    # the products read transposed and strided operands in place
    rows = vc.T @ s.reshape(n, n, n * n)  # b -> j: [a, j, cd]
    sb = np.empty((n, n, n, n), dtype=complex)  # [j, m, j', m']
    for j0, j1 in row_block_ranges(n):
        # the rows (j, m) of the labels j0 <= j < j1, for m >= j0
        t = v[:, j0:].T @ rows[:, j0:j1].reshape(n, -1)  # a -> m: [m, (j, c, d)]
        t = (t.reshape(-1, n) @ v).reshape(n - j0, j1 - j0, n, n)  # d -> j': [m, j, c, j']
        np.matmul(t.transpose(0, 1, 3, 2), vc, out=sb[j0:j1, j0:].transpose(1, 0, 2, 3))  # c -> m'
        _mirror_rows(sb, j0, j1)
    return sb.reshape(n * n, n * n)


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

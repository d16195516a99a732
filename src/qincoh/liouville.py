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
"""
from __future__ import annotations

import math

import numpy as np

from .validation import (
    as_square_matrix,
    as_square_stack,
    hermitian_part,
    require_hermitian,
    require_unitary,
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


def _hilbert_dim(mat: np.ndarray, name: str) -> int:
    """The Hilbert dimension ``sqrt(side)`` of a checked superoperator or
    stack of them."""
    n = math.isqrt(mat.shape[-1])
    if n * n != mat.shape[-1]:
        raise ValueError(f"{name} side {mat.shape[-1]} is not a perfect square")
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
    _hilbert_dim(s, "s")
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
    n = _hilbert_dim(s, "s")
    lead = s.shape[:-2]
    axes = tuple(range(len(lead))) + tuple(len(lead) + a for a in (3, 1, 2, 0))
    return s.reshape(*lead, n, n, n, n).transpose(axes).reshape(*lead, n * n, n * n)


# A map is refused as not Hermiticity-preserving when its Choi matrix is
# further than this from Hermitian: by choi_spectrum and cp_filter, and by
# spectral.pair_eigenvalues, which reads the same deviation off S directly,
# max|S[(a,b),(c,d)] - conj S[(b,a),(d,c)]| = max|C - C^dag|.
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


def conjugation_sum(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k w_k conj(A_k) kron A_k`` for a ``(K, N, N)`` stack and real
    weights, written straight into the superoperator's ``[(a,c), (b,d)]``
    layout.

    Its ``N x N`` block ``(a, c)`` is ``sum_k w_k conj(A_k[a])^T A_k[c]``,
    and block ``(c, a)`` is the conjugate transpose of block ``(a, c)``.
    So only the blocks ``c >= a`` are computed, one matrix product per row
    ``a``; the rest are mirrored and each diagonal block is averaged with its
    conjugate transpose.  The result preserves Hermiticity exactly: its
    Choi matrix equals its own conjugate transpose bit for bit.  The same
    inputs give the same bytes for a given BLAS and thread count.
    """
    _, n, _ = ops.shape
    left = ops.conj()
    left *= weights[:, None, None]
    left = left.transpose(1, 2, 0)  # [a, b, k]
    right = ops.transpose(1, 0, 2)  # [c, k, d]
    s = np.empty((n, n, n, n), dtype=complex)  # [a, c, b, d]
    for a in range(n):
        np.matmul(left[a], right[a:], out=s[a, a:])
        np.conjugate(s[a, a + 1:].transpose(0, 2, 1), out=s[a + 1:, a])
        diag = s[a, a]
        diag += diag.conj().T
        diag *= 0.5
    return s.reshape(n * n, n * n)


def cp_filter(s: np.ndarray) -> tuple[np.ndarray, float]:
    """Project to a CP map by zeroing negative Choi eigenvalues.

    The surviving spectrum is rescaled so the Choi trace equals the Hilbert
    dimension N.  Returns the filtered superoperator and the removed weight
    (sum of |negative eigenvalues|).
    """
    c = superop_to_choi(s)
    n = math.isqrt(c.shape[0])
    w, v = np.linalg.eigh(require_hermitian(c, CHOI_HERMITIAN_TOL, "Choi matrix"))
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

"""Sidon-level demo generators beyond the package's 16 tabulated levels.

The package fixtures stop at 4 qubits because ``spectral._SIDON_LEVELS``
holds 16 levels.  The greedy Mian-Chowla rule reproduces those 16 and
continues the sequence, so a 5-qubit fixture needs 32 generated levels.
The construction mirrors the package's demo generators: nominal eigenphases
on Sidon levels, a perturbation that is ``DIAGONAL_COUPLING`` times the
nominal generator plus a small nearest-neighbour coupling, both rotated by a
Haar-random unitary.  Rotation and coupling phases come from the caller's
generator, so each benchmark seed gives its own fixture.
"""
from __future__ import annotations

import numpy as np

from qincoh.channels import random_unitary
from qincoh.spectral import DIAGONAL_COUPLING, FOUR_QUBIT_OFF_DIAGONAL_RATIO

# Levels reach 1523 at 32 terms; this scale keeps max|k| near 80, the
# k-window of the 3-qubit fixture (6.0 * 0.3 * 44).
FIVE_QUBIT_PHASE_SCALE = 0.175


def mian_chowla(count: int) -> list[int]:
    """First ``count`` terms of the Mian-Chowla sequence.

    Greedy rule: start at 1 and take each next integer whose differences to
    all earlier terms are new, so all pairwise differences stay distinct.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    terms = [1]
    diffs: set[int] = set()
    candidate = 1
    while len(terms) < count:
        candidate += 1
        new = {candidate - a for a in terms}
        if diffs.isdisjoint(new):
            terms.append(candidate)
            diffs |= new
    return terms


def sidon_fixture(
    n_qubits: int,
    rng: np.random.Generator,
    phase_scale: float = FIVE_QUBIT_PHASE_SCALE,
    off_diagonal_ratio: float = FOUR_QUBIT_OFF_DIAGONAL_RATIO,
) -> tuple[np.ndarray, np.ndarray]:
    """Nominal generator ``h0t`` and perturbation ``k`` on ``2**n_qubits``
    Sidon levels, with a Haar rotation and coupling phases drawn from ``rng``."""
    dim = 2**n_qubits
    phis = phase_scale * np.array(mian_chowla(dim), dtype=float)
    phis = phis - phis.mean()
    w = random_unitary(dim, rng)
    v = np.zeros((dim, dim), dtype=complex)
    for l in range(dim - 1):
        coupling = (phis[l + 1] - phis[l]) * np.exp(2j * np.pi * rng.random())
        v[l, l + 1] = coupling
        v[l + 1, l] = np.conj(coupling)
    k_eig = DIAGONAL_COUPLING * np.diag(phis) + off_diagonal_ratio * v
    h0t = w @ np.diag(phis) @ w.conj().T
    k = w @ k_eig @ w.conj().T
    return (h0t + h0t.conj().T) / 2, (k + k.conj().T) / 2

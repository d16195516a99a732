"""Independent references that the tests check the package against.

Each one states a physical or numerical definition directly, by the most
literal route (a loop of ``kron`` products, one ``np.linalg.solve``, one
``float()`` per field, one ``eigh``), so that it shares no code path with
the pipeline it checks.
"""
import math

import numpy as np

from qincoh.channels import RFProfile, random_unitary
from qincoh.liouville import superop_to_choi


def kraus_sum(ops, weights=None):
    """``sum_i w_i conj(A_i) kron A_i``, one ``kron`` per operator; every
    weight is 1 unless ``weights`` are given."""
    dim = ops[0].shape[0]
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for w, a in zip(np.ones(len(ops)) if weights is None else weights, ops):
        s += w * np.kron(a.conj(), a)
    return s


def dense_ridge_fit(xs, ks, f, ridge):
    """Profile weights of the ridge fit ``min |K^H p - f|^2 + ridge*|p|^2``
    with the dense kernel ``K = exp(i * outer(xs, ks))``: one
    ``np.linalg.solve`` of ``(K K^H + ridge*I) p = K f``, then the real
    part clipped at zero and normalized to sum 1."""
    kernel = np.exp(1j * np.multiply.outer(xs, ks))
    normal = kernel @ kernel.conj().T + ridge * np.eye(len(xs))
    weight = np.clip(np.linalg.solve(normal, kernel @ f).real, 0.0, None)
    return weight / weight.sum()


def symmetry_residual_loop(samples):
    """The conjugate-symmetry residual by a full scan: the worst mismatch
    between each sample and the conjugate of its nearest partner, the
    sample whose k is nearest to -k, the lowest index among equally near."""
    worst = 0.0
    for i in range(samples.k.size):
        partner = int(np.argmin(np.abs(samples.k + samples.k[i])))
        worst = max(
            worst,
            abs(samples.k[partner] + samples.k[i]),
            abs(samples.f[partner] - np.conj(samples.f[i])),
        )
    return worst


def dense_eigenbasis_form(sup, v):
    """``B^dag S B`` with the dense basis ``B = conj(V) kron V``, whose
    column ``m*N + j`` is ``b_jm``, reordered to ``j*N + m``: every row."""
    n = v.shape[0]
    big_basis = np.kron(v.conj(), v)
    dense = big_basis.conj().T @ sup @ big_basis
    return dense.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)


def second_order_loop(sb, component):
    """Per label ``a``: ``d_a + sum_b S_B[a,b] S_B[b,a] / (d_a - d_b)`` over
    the ``b`` outside the component of ``a``, as a double loop over the full
    ``S_B``, and the magnitude ``|d_a| + sum_b |term|`` that bounds its
    rounding."""
    rows, d, comp = sb.tolist(), sb.diagonal().tolist(), component.tolist()
    values, magnitudes = [], []
    for a, row in enumerate(rows):
        total, magnitude = d[a], abs(d[a])
        for b, x in enumerate(row):
            if comp[b] != comp[a]:
                term = x * rows[b][a] / (d[a] - d[b])
                total += term
                magnitude += abs(term)
        values.append(total)
        magnitudes.append(magnitude)
    return np.array(values), np.array(magnitudes)


def kraus_operators(s):
    """Kraus operators of a CP map: each eigenvector of its Choi matrix
    whose eigenvalue ``lam`` exceeds 1e-12, column-unstacked and scaled by
    ``sqrt(lam)``, in ascending order of ``lam``."""
    w, v = np.linalg.eigh(superop_to_choi(s))
    n = math.isqrt(s.shape[0])
    return [np.sqrt(x) * col.reshape(n, n, order="F") for x, col in zip(w, v.T) if x > 1e-12]


def solve_map(input_vectors, output_vectors):
    """The map ``S`` with ``S @ In = Out`` for one square input matrix whose
    columns are the vectorized inputs, by one ``np.linalg.solve``; returns
    ``S`` and the condition number of ``In``."""
    in_mat = np.column_stack(input_vectors)
    out_mat = np.column_stack(output_vectors)
    s = np.linalg.solve(in_mat.T, out_mat.T).T
    return s, float(np.linalg.cond(in_mat))


def parse_profile_csv(text):
    """A profile CSV as the CLI writes it: a
    ``delta_omega,weight`` header, then one ``float()`` pair per line."""
    header, *rows = text.strip().split("\n")
    assert header == "delta_omega,weight", header
    # one contiguous array per column, as the package's profiles hold them
    delta_omega, weight = np.array([[float(x) for x in row.split(",")] for row in rows]).T.copy()
    return RFProfile(delta_omega, weight)


def random_rud_ensemble(dim, n_members, rng):
    """Seeded random-unitary ensemble: Haar members of side ``dim``, weights
    strictly positive."""
    weights = rng.random(n_members) + 0.05
    weights = weights / weights.sum()
    return [(float(p), random_unitary(dim, rng)) for p in weights]


def environment_kraus_operators(u_ab, rho_b):
    """Kraus operators of the uncorrelated reduced dynamics of a system and
    a trailing environment in the state ``rho_b``.

    Each environment eigenstate ``|nu>`` of weight ``p_nu`` above 1e-12
    gives the operators ``sqrt(p_nu) <mu|U_AB|nu>``, one per environment
    basis state ``|mu>``.
    """
    probs, basis = np.linalg.eigh(rho_b)
    db = basis.shape[0]
    da = u_ab.shape[0] // db
    u4 = u_ab.reshape(da, db, da, db)
    ops = []
    for p, nu in zip(probs, basis.T):
        if p > 1e-12:
            block = np.einsum("ambn,n->amb", u4, nu)
            ops.extend(np.sqrt(p) * block[:, mu, :] for mu in range(db))
    return ops

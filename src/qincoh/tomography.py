"""Process tomography with correlated system-environment input states.

The simulated procedure prepares four joint two-qubit states whose reduced
system inputs are ``{I/2, (I+a*sx)/2, (I+a*sy)/2, (I+a*sz)/2}`` while the
environment marginal ``(I+b*sz)/2`` is identical across the set, evolves
them under a joint unitary, reduces, and solves for the map by
right-multiplying the output-state matrix with the inverse of the
input-state matrix.  With correlations present the resulting map need not
be completely positive.

A run of S scenarios (:func:`run_qpt_scenarios`) travels as one stack: the
``(S, 4, 4, 4)`` joint states are built from constant stacks of Pauli
products, checked for positivity by one batched ``eigvalsh``, evolved by one
batched product under one unitarity check of ``u_ab``, and inverted by one
batched condition check, solve and forward residual, so a run makes one
preparation and one evolution however many scenarios it holds.  Only the
CP filter and the Choi spectrum run per scenario.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IllConditionedError, NonPhysicalStateError
from .liouville import CP_TOL, UNITARY_TOL, choi_spectrum, cp_filter, eig_hermitian
from .validation import as_square_matrix, require_unitary

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)

# The joint state k (k = 1..4, with sigma_1 = 0) is
# (I + alpha*sigma_k x I + beta*I x Z + gamma*sigma_k x Z) / 4,
# summed in this order; these are its constant terms, one stack per weight.
_EYE4 = np.eye(4, dtype=complex)
_ZERO2 = np.zeros((2, 2), dtype=complex)
_SIGMA_KRON_I = np.stack([np.kron(s, _EYE2) for s in (_ZERO2, SIGMA_X, SIGMA_Y, SIGMA_Z)])
_I_KRON_Z = np.kron(_EYE2, SIGMA_Z)
_SIGMA_KRON_Z = np.stack([np.kron(s, SIGMA_Z) for s in (_ZERO2, SIGMA_X, SIGMA_Y, SIGMA_Z)])

# The environment is one qubit.
ENV_DIM = 2
# A joint input state with an eigenvalue below -PSD_TOL is not physical.
PSD_TOL = 1e-10
# qpt_solve rejects an input-state matrix with a larger condition number.
COND_LIMIT = 1e8
# environment_kraus_operators skips environment eigenstates of weight up to this.
KRAUS_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class CorrelatedInputSet:
    """The four joint input states, a ``(4, 4, 4)`` stack, their reduced
    system inputs, a ``(4, 2, 2)`` stack, and the environment marginal
    ``(I + beta*Z)/2`` that all four share; prepared for several scenarios
    at once, each field has the scenarios' shape in front."""

    joint_states: np.ndarray
    reduced_inputs: np.ndarray
    environment_state: np.ndarray


@dataclass(frozen=True)
class QPTReport:
    """Diagnostics of one simulated tomography scenario.

    ``is_cp``, ``kraus_count`` and ``choi_eigenvalues`` all read one
    :func:`~qincoh.liouville.choi_spectrum` of the reported map.
    ``kraus_count`` is present exactly when the reported map is CP;
    ``removed_weight`` is present exactly when CP-filtering was applied, and
    ``forward_residual`` (``max|S_obs @ In - Out|`` over the tomography
    inputs) exactly when it was not.
    """

    s_obs: np.ndarray
    choi_eigenvalues: np.ndarray
    is_cp: bool
    kraus_count: int | None
    removed_weight: float | None
    condition_number: float
    forward_residual: float | None


def prepare_correlated_inputs(
    alpha: float | np.ndarray,
    beta: float | np.ndarray,
    gamma: float | np.ndarray,
) -> CorrelatedInputSet:
    """Build the four correlated joint states and check they are physical.

    ``alpha``, ``beta`` and ``gamma`` may also be arrays of one shape, such as
    ``(S,)`` for S scenarios; every field of the result then carries that
    shape in front, and the error names the first non-physical state of the
    first scenario that has one.  Non-finite parameters are refused by name
    before the states are built, and a state that overflows to a non-finite
    entry (finite parameters can) is refused by name before the positivity
    check, with no numpy warning.
    """
    params = np.array((alpha, beta, gamma), dtype=float)
    finite = np.isfinite(params)
    if not finite.all():
        which, *where = np.argwhere(~finite)[0]
        name = ("alpha", "beta", "gamma")[which]
        raise ValueError(f"{name}{''.join(f'[{i}]' for i in where)} is not finite")

    def state_error(position: np.ndarray, what: str) -> str:
        *scenario, idx = position
        a0, b0, g0 = (float(x[tuple(scenario)]) for x in params)
        return f"joint input state {idx + 1} {what} for (alpha, beta, gamma) = ({a0}, {b0}, {g0})"

    a, b, g = params[..., None, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        joints = (_EYE4 + a * _SIGMA_KRON_I + b * _I_KRON_Z + g * _SIGMA_KRON_Z) / 4
    if not np.isfinite(joints).all():
        overflowed = np.argwhere(~np.isfinite(joints).all(axis=(-2, -1)))[0]
        raise ValueError(state_error(overflowed, "is not finite"))
    min_eigs = np.linalg.eigvalsh(joints)[..., 0]
    bad = np.argwhere(min_eigs < -PSD_TOL)
    if bad.size:
        min_eig = float(min_eigs[tuple(bad[0])])
        raise NonPhysicalStateError(state_error(bad[0], f"has negative eigenvalue {min_eig:.3e}"))
    return CorrelatedInputSet(joints, partial_trace_b(joints), (_EYE2 + b[..., 0] * SIGMA_Z) / 2)


def partial_trace_b(rho_ab: np.ndarray) -> np.ndarray:
    """Trace out the (trailing) qubit environment of a matrix or a ``(..., n, n)`` stack."""
    rho_ab = np.asarray(rho_ab, dtype=complex)
    if rho_ab.ndim < 3 or rho_ab.shape[-1] != rho_ab.shape[-2]:
        rho_ab = as_square_matrix(rho_ab, "rho_ab")
    n = rho_ab.shape[-1]
    if n % ENV_DIM != 0:
        raise ValueError(f"dimension {n} is not divisible by environment dim {ENV_DIM}")
    da = n // ENV_DIM
    blocks = rho_ab.reshape(*rho_ab.shape[:-2], da, ENV_DIM, da, ENV_DIM)
    return np.einsum("...abcb->...ac", blocks)


def evolve_and_reduce(u_ab: np.ndarray, rho_ab: np.ndarray) -> np.ndarray:
    """Joint unitary evolution followed by the environment partial trace.

    ``rho_ab`` may be a ``(..., n, n)`` stack; it is evolved by one batched
    product after one unitarity check of ``u_ab``.
    """
    u_ab = require_unitary(u_ab, UNITARY_TOL, "u_ab")
    return partial_trace_b(u_ab @ rho_ab @ u_ab.conj().T)


def environment_kraus_operators(u_ab: np.ndarray, rho_b: np.ndarray) -> list[np.ndarray]:
    """Kraus operators of the uncorrelated reduced dynamics.

    Built from the environment-block matrix elements ``<mu|U_AB|nu>`` with
    ``|nu>`` the eigenvectors of rho_B, each scaled by sqrt of its weight.
    """
    u_ab = require_unitary(u_ab, UNITARY_TOL, "u_ab")
    probs, basis = eig_hermitian(rho_b, name="rho_b")
    db = basis.shape[0]
    n = u_ab.shape[0]
    if n % db != 0:
        raise ValueError("u_ab dimension incompatible with rho_b")
    da = n // db
    u4 = u_ab.reshape(da, db, da, db)
    ops = []
    for nu in range(db):
        if probs[nu] <= KRAUS_WEIGHT_TOL:
            continue
        block = np.einsum("ambn,n->amb", u4, basis[:, nu])
        for mu in range(db):
            ops.append(np.sqrt(probs[nu]) * block[:, mu, :])
    return ops


def qpt_solve(
    input_vectors: list[np.ndarray],
    output_vectors: list[np.ndarray],
) -> tuple[np.ndarray, float]:
    """Solve ``S @ In = Out`` for the observed map.

    The columns of In/Out are the vectorized input/output states; the input
    matrix must be square and its condition number at most :data:`COND_LIMIT`.
    Returns the map and the condition number.
    """
    in_mat = np.column_stack([np.asarray(v, dtype=complex).ravel() for v in input_vectors])
    out_mat = np.column_stack([np.asarray(v, dtype=complex).ravel() for v in output_vectors])
    if in_mat.shape[0] != in_mat.shape[1]:
        raise ValueError(
            f"need {in_mat.shape[0]} input states to invert, got {in_mat.shape[1]}"
        )
    if out_mat.shape != in_mat.shape:
        raise ValueError("inputs and outputs have mismatched shapes")
    s_obs, cond, _ = _solve_stack(in_mat[None], out_mat[None])
    return s_obs[0], float(cond[0])


def _solve_stack(
    in_mats: np.ndarray,
    out_mats: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`qpt_solve` for a ``(S, n, n)`` stack of input and output
    matrices: every input matrix is checked against :data:`COND_LIMIT` (the
    first that fails is the error), then one batched solve.  Returns the maps,
    the condition numbers and the forward residuals ``max|S @ In - Out|``.
    """
    cond = np.linalg.cond(in_mats)
    bad = np.flatnonzero(~(cond <= COND_LIMIT))
    if bad.size:
        raise IllConditionedError(float(cond[bad[0]]), "tomography input matrix")
    # the right-hand side is a stack of matrices, as the matrix stack is, so
    # numpy 1.x and 2.x read it alike
    s_obs = np.linalg.solve(in_mats.swapaxes(-1, -2), out_mats.swapaxes(-1, -2)).swapaxes(-1, -2)
    residual = np.abs(s_obs @ in_mats - out_mats).max(axis=(-2, -1))
    return s_obs, cond, residual


def _vector_columns(stack: np.ndarray) -> np.ndarray:
    """A ``(..., K, d, d)`` stack of K states to ``(..., d*d, K)`` matrices
    whose column k is ``columnize`` of state k, in C order as
    ``np.column_stack`` builds them in :func:`qpt_solve`, so the residual
    product makes the same BLAS call for a stack as for one map."""
    vectors = stack.swapaxes(-1, -2).reshape(*stack.shape[:-2], -1)
    return np.ascontiguousarray(vectors.swapaxes(-1, -2))


def run_qpt_scenarios(
    u_ab: np.ndarray,
    alpha: Sequence[float],
    beta: Sequence[float],
    gamma: Sequence[float],
    correlated: Sequence[bool],
    apply_cp_filter: Sequence[bool],
    cp_tol: float = CP_TOL,
) -> list[QPTReport]:
    """Simulate S tomography scenarios under one joint unitary as one stack
    and collect the CP diagnostics of each.

    Each argument but ``u_ab`` and ``cp_tol`` holds one value per scenario;
    the reports come back in the same order, and each equals that of its own
    one-row run.  A scenario that is not ``correlated`` has its
    system-environment correlations removed before evolution, by replacing
    each joint state with the product of its marginals (all other parameters
    kept equal).  With ``apply_cp_filter`` the map's negative Choi
    eigenvalues are removed before the diagnostics.  The checks run stage by
    stage over all scenarios (positivity, unitarity of ``u_ab``,
    conditioning, then each Choi matrix), so the error is the first scenario
    that fails the earliest failing stage.
    """
    inputs = prepare_correlated_inputs(alpha, beta, gamma)
    reduced = inputs.reduced_inputs
    if reduced.ndim != 4:
        raise ValueError(f"expected one parameter per scenario, got shape {reduced.shape[:-3]}")
    n = reduced.shape[0]
    correlated = np.asarray(correlated, dtype=bool)
    apply_cp_filter = np.asarray(apply_cp_filter, dtype=bool)
    if correlated.shape != (n,) or apply_cp_filter.shape != (n,):
        raise ValueError(f"expected {n} correlated and apply_cp_filter flags")
    # kron(rho_a, rho_b) for every rho_a, as one outer product per scenario
    rho_b = inputs.environment_state
    products = reduced[..., :, None, :, None] * rho_b[:, None, None, :, None, :]
    joints = np.where(
        correlated[:, None, None, None], inputs.joint_states, products.reshape(n, 4, 4, 4)
    )
    outputs = evolve_and_reduce(u_ab, joints)
    s_obs, cond, residual = _solve_stack(_vector_columns(reduced), _vector_columns(outputs))

    reports = []
    for i in range(n):
        s_i = s_obs[i]
        removed_weight = None
        forward_residual = None
        if apply_cp_filter[i]:
            s_i, removed_weight = cp_filter(s_i)
        else:
            forward_residual = float(residual[i])
        eigenvalues = choi_spectrum(s_i)
        cp_flag = bool(eigenvalues[-1] >= -cp_tol)
        reports.append(QPTReport(
            s_obs=s_i,
            choi_eigenvalues=eigenvalues,
            is_cp=cp_flag,
            kraus_count=int(np.count_nonzero(eigenvalues > cp_tol)) if cp_flag else None,
            removed_weight=removed_weight,
            condition_number=float(cond[i]),
            forward_residual=forward_residual,
        ))
    return reports

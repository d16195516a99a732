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
preparation and one evolution however many scenarios it holds.  The CP
filter runs on each flagged row; then every reported map's Choi spectrum is
taken as one stack, under one Hermiticity check and one ``eigvalsh``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IllConditionedError, NonPhysicalStateError
from .liouville import CP_TOL, UNITARY_TOL, choi_spectrum, columnize, cp_filter
from .validation import as_square_stack, first_failure, first_non_finite, numeric, require_unitary

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
# run_qpt_scenarios rejects an input-state matrix with a larger condition number.
# The solve's rounding moves the map's Choi matrix off Hermitian by up to
# about 7.6e-17 times the condition number (the worst of 48,856 random
# physical rows under 1000 Haar-random u_ab), so an admitted map stays more
# than ten times inside liouville.CHOI_HERMITIAN_TOL = 1e-10.  The condition
# number of the four inputs is about 4/alpha.
COND_LIMIT = 1e5


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
    :func:`~qincoh.liouville.choi_spectrum` of the reported map: the map is
    CP when the smallest eigenvalue is at least ``-CP_TOL``, and
    ``kraus_count``, present exactly when it is, counts the eigenvalues
    above ``CP_TOL``.  ``removed_weight`` is present exactly when
    CP-filtering was applied, and ``forward_residual`` (``max|S_obs @ In -
    Out|`` over the tomography inputs) exactly when it was not.
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
    first scenario that has one.  Parameters that are not real
    (:func:`~qincoh.validation.numeric`), of different shapes, or not finite
    are refused by name before the states are built, and a state that
    overflows to a non-finite entry (finite parameters can) is refused by
    name before the positivity check, with no numpy warning.
    """
    params = _parameter_stack(alpha, beta, gamma)

    def state_error(position: tuple[int, ...], what: str) -> str:
        *scenario, idx = position
        return f"joint input state {idx + 1} {what} {_parameters(params, tuple(scenario))}"

    a, b, g = params[..., None, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        joints = (_EYE4 + a * _SIGMA_KRON_I + b * _I_KRON_Z + g * _SIGMA_KRON_Z) / 4
    if found := first_non_finite(joints):
        raise ValueError(state_error(found[0], "is not finite"))
    min_eigs = np.linalg.eigvalsh(joints)[..., 0]
    if found := first_failure(min_eigs < -PSD_TOL):
        min_eig = min_eigs[found[0]]
        raise NonPhysicalStateError(state_error(found[0], f"has negative eigenvalue {min_eig:.3e}"))
    return CorrelatedInputSet(joints, _trace_out_b(joints), (_EYE2 + b[..., 0] * SIGMA_Z) / 2)


def _parameter_stack(alpha, beta, gamma) -> np.ndarray:
    """``alpha``, ``beta`` and ``gamma`` as one ``(3, ...)`` float array,
    once each is checked to be real and finite, and all three of one shape."""
    params = [numeric(x, float, name) for name, x in zip(("alpha", "beta", "gamma"), (alpha, beta, gamma))]
    if len({x.shape for x in params}) > 1:
        raise ValueError(f"alpha, beta and gamma have different shapes {', '.join(str(x.shape) for x in params)}")
    for name, x in zip(("alpha", "beta", "gamma"), params):
        if found := first_failure(~np.isfinite(x)):
            raise ValueError(f"{name}{found[1]} is not finite")
    return np.stack(params)


def _trace_out_b(rho_ab: np.ndarray) -> np.ndarray:
    """:func:`partial_trace_b` of a stack whose entries are already known to
    be finite; only the dimension is checked."""
    n = rho_ab.shape[-1]
    if n % ENV_DIM != 0:
        raise ValueError(f"dimension {n} is not divisible by environment dim {ENV_DIM}")
    da = n // ENV_DIM
    blocks = rho_ab.reshape(*rho_ab.shape[:-2], da, ENV_DIM, da, ENV_DIM)
    return np.einsum("...abcb->...ac", blocks)


def partial_trace_b(rho_ab: np.ndarray) -> np.ndarray:
    """Trace out the (trailing) qubit environment of a matrix or a ``(..., n, n)`` stack."""
    return _trace_out_b(as_square_stack(rho_ab, "rho_ab"))


def evolve_and_reduce(u_ab: np.ndarray, rho_ab: np.ndarray) -> np.ndarray:
    """Joint unitary evolution followed by the environment partial trace.

    ``rho_ab`` may be a ``(..., n, n)`` stack; it is checked to be finite,
    then evolved by one batched product after one unitarity check of ``u_ab``
    and a check that the sides agree, and the evolved stack is reduced
    without a second check.
    """
    u_ab = require_unitary(u_ab, UNITARY_TOL, "u_ab")
    rho_ab = as_square_stack(rho_ab, "rho_ab")
    if u_ab.shape[-1] != rho_ab.shape[-1]:
        raise ValueError(f"u_ab has side {u_ab.shape[-1]}, but rho_ab has side {rho_ab.shape[-1]}")
    return _trace_out_b(u_ab @ rho_ab @ u_ab.conj().T)


def _parameters(params: np.ndarray, scenario: tuple[int, ...]) -> str:
    """Names one scenario of a ``(3, ...)`` array of alpha, beta, gamma."""
    a, b, g = (float(x[scenario]) for x in params)
    return f"for (alpha, beta, gamma) = ({a}, {b}, {g})"


def _solve_stack(
    inputs: np.ndarray,
    outputs: np.ndarray,
    params: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve ``S @ In = Out`` for each scenario of ``(S, K, d, d)`` stacks of
    K input and K output states, where column k of ``In`` and ``Out`` is
    ``columnize`` of state k: every input matrix is checked against
    :data:`COND_LIMIT` (the first that fails is the error, named by its row
    and its scenario of the ``(3, S)`` ``params``), then one batched solve.
    Returns the maps, the condition numbers and the residuals ``max|S @ In - Out|``.
    """
    # C order, as np.column_stack builds one map's matrix, so the residual
    # product makes the same BLAS call for a stack as for one map
    in_mats, out_mats = (np.ascontiguousarray(columnize(x).swapaxes(-1, -2)) for x in (inputs, outputs))
    cond = np.linalg.cond(in_mats)
    if found := first_failure(~(cond <= COND_LIMIT)):
        where, index = found
        row = f"{index} {_parameters(params, where)}"
        refusal = f"condition number {cond[where]:.3e} exceeds COND_LIMIT = {COND_LIMIT:.3e}"
        raise IllConditionedError(f"tomography input matrix{row}: {refusal}", float(cond[where]))
    # the right-hand side is a stack of matrices, as the matrix stack is, so
    # numpy 1.x and 2.x read it alike
    s_obs = np.linalg.solve(in_mats.swapaxes(-1, -2), out_mats.swapaxes(-1, -2)).swapaxes(-1, -2)
    residual = np.abs(s_obs @ in_mats - out_mats).max(axis=(-2, -1))
    return s_obs, cond, residual


def run_qpt_scenarios(
    u_ab: np.ndarray,
    alpha: Sequence[float],
    beta: Sequence[float],
    gamma: Sequence[float],
    correlated: Sequence[bool],
    apply_cp_filter: Sequence[bool],
) -> list[QPTReport]:
    """Simulate S tomography scenarios under one joint unitary as one stack
    and collect the CP diagnostics of each.

    Each argument but ``u_ab`` holds one value per scenario; the reports
    come back in the same order, and each equals that of its own one-row
    run.  A scenario that is not ``correlated`` has its
    system-environment correlations removed before evolution, by replacing
    each joint state with the product of its marginals (all other parameters
    kept equal).  With ``apply_cp_filter`` the map's negative Choi
    eigenvalues are removed before the diagnostics.  Both flags must be
    booleans: any other array is refused by name.  The checks run stage by
    stage over all scenarios (positivity, unitarity of ``u_ab``,
    conditioning, CP filtering of the flagged rows, then the Hermiticity of
    every reported Choi matrix), so the error is the first scenario that
    fails the earliest failing stage.
    """
    params = _parameter_stack(alpha, beta, gamma)
    if params.ndim != 2 or params.shape[1] < 1:
        raise ValueError(f"expected one parameter per scenario, got shape {params.shape[1:]}")
    inputs = prepare_correlated_inputs(*params)
    reduced = inputs.reduced_inputs
    n = reduced.shape[0]
    correlated = numeric(correlated, bool, "correlated")
    apply_cp_filter = numeric(apply_cp_filter, bool, "apply_cp_filter")
    if correlated.shape != (n,) or apply_cp_filter.shape != (n,):
        raise ValueError(f"expected {n} correlated and apply_cp_filter flags")
    # kron(rho_a, rho_b) for every rho_a, as one outer product per scenario
    rho_b = inputs.environment_state
    products = reduced[..., :, None, :, None] * rho_b[:, None, None, :, None, :]
    joints = np.where(
        correlated[:, None, None, None], inputs.joint_states, products.reshape(n, 4, 4, 4)
    )
    outputs = evolve_and_reduce(u_ab, joints)
    s_obs, cond, residual = _solve_stack(reduced, outputs, params)

    removed_weight = [None] * n
    for i in np.flatnonzero(apply_cp_filter):
        s_obs[i], removed_weight[i] = cp_filter(s_obs[i])
    eigenvalues = choi_spectrum(s_obs)
    cp_flags = eigenvalues[:, -1] >= -CP_TOL
    return [
        QPTReport(
            s_obs=s_obs[i],
            choi_eigenvalues=eigenvalues[i],
            is_cp=bool(cp_flags[i]),
            kraus_count=int(np.count_nonzero(eigenvalues[i] > CP_TOL)) if cp_flags[i] else None,
            removed_weight=removed_weight[i],
            condition_number=float(cond[i]),
            forward_residual=None if apply_cp_filter[i] else float(residual[i]),
        )
        for i in range(n)
    ]

import numpy as np
import pytest

from qincoh.channels import expm_unitary, random_rud_ensemble, rud_superoperator
from qincoh.errors import IllConditionedError, NonPhysicalStateError
from qincoh.liouville import columnize, kraus_to_superop, uncolumnize
from qincoh.tomography import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    environment_kraus_operators,
    evolve_and_reduce,
    partial_trace_b,
    prepare_correlated_inputs,
    qpt_solve,
    run_qpt_scenario,
)

U_ZZ = expm_unitary(np.pi / 4 * np.kron(SIGMA_Z, SIGMA_Z))

EQ4_INPUT_COLUMNS = np.array(
    [
        [0.5, 0.5, 0.5, 0.75],
        [0.0, 0.25, 0.25j, 0.0],
        [0.0, 0.25, -0.25j, 0.0],
        [0.5, 0.5, 0.5, 0.25],
    ]
)
EQ4_OUTPUT_COLUMNS = np.array(
    [
        [0.5, 0.5, 0.5, 0.75],
        [0.0, 0.3j, -0.3, 0.0],
        [0.0, -0.3j, -0.3, 0.0],
        [0.5, 0.5, 0.5, 0.25],
    ]
)


def test_prepared_inputs_columnize_to_eq4_matrix():
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.6)
    in_mat = np.column_stack([columnize(r) for r in inputs.reduced_inputs])
    assert np.abs(in_mat - EQ4_INPUT_COLUMNS).max() < 1e-15


def test_prepared_inputs_reduce_and_share_environment():
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.6)
    rho_b = (np.eye(2) + 0.5 * SIGMA_Z) / 2
    for joint, reduced in zip(inputs.joint_states, inputs.reduced_inputs):
        assert np.abs(partial_trace_b(joint) - reduced).max() < 1e-12
        marginal_b = np.einsum("abad->bd", joint.reshape(2, 2, 2, 2))
        assert np.abs(marginal_b - rho_b).max() < 1e-12


def test_prepared_inputs_alpha_zero_are_products():
    inputs = prepare_correlated_inputs(0.0, 0.3, 0.0)
    rho_b = (np.eye(2) + 0.3 * SIGMA_Z) / 2
    for joint, reduced in zip(inputs.joint_states, inputs.reduced_inputs):
        assert np.abs(joint - np.kron(np.eye(2) / 2, rho_b)).max() < 1e-12
        assert np.abs(reduced - np.eye(2) / 2).max() < 1e-12


def test_prepared_inputs_second_scenario_is_physical():
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.5)
    for joint in inputs.joint_states:
        assert np.linalg.eigvalsh(joint)[0] > -1e-12


def test_prepare_rejects_non_physical_state():
    with pytest.raises(NonPhysicalStateError, match="joint input state 2"):
        prepare_correlated_inputs(0.9, 0.0, 0.9)


def test_partial_trace_product_state():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    rho_b = np.diag([0.7, 0.3]).astype(complex)
    assert np.abs(partial_trace_b(np.kron(rho_a, rho_b)) - rho_a).max() < 1e-12


def test_partial_trace_correlated_example():
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.6)
    expected = (np.eye(2) + 0.5 * SIGMA_X) / 2
    assert np.abs(partial_trace_b(inputs.joint_states[1]) - expected).max() < 1e-12


def test_partial_trace_bell_state():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    assert np.abs(partial_trace_b(bell) - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_rejects_odd_dimension():
    with pytest.raises(ValueError, match="divisible"):
        partial_trace_b(np.eye(3))


def test_evolve_and_reduce_eq4_outputs():
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.6)
    out2 = evolve_and_reduce(U_ZZ, inputs.joint_states[1])
    assert np.abs(out2 - (np.eye(2) + 0.6 * SIGMA_Y) / 2).max() < 1e-12
    out4 = evolve_and_reduce(U_ZZ, inputs.joint_states[3])
    assert np.abs(out4 - (np.eye(2) + 0.5 * SIGMA_Z) / 2).max() < 1e-12


def test_swap_gate_hides_correlations():
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1.0
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.6)
    rho_b = (np.eye(2) + 0.5 * SIGMA_Z) / 2
    for joint in inputs.joint_states:
        assert np.abs(evolve_and_reduce(swap, joint) - rho_b).max() < 1e-12


def test_qpt_solve_eq4():
    s, cond = qpt_solve(list(EQ4_INPUT_COLUMNS.T), list(EQ4_OUTPUT_COLUMNS.T))
    assert np.abs(s - np.diag([1.0, 1.2j, -1.2j, 1.0])).max() < 1e-12
    assert cond < 1e3


def test_qpt_solve_identity():
    vecs = list(EQ4_INPUT_COLUMNS.T)
    s, _ = qpt_solve(vecs, vecs)
    assert np.abs(s - np.eye(4)).max() < 1e-12


def test_qpt_solve_round_trip_with_forward_oracle():
    rng = np.random.default_rng(32)
    s_true = rud_superoperator(random_rud_ensemble(1, 3, rng))
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.0)
    in_vecs = [columnize(r) for r in inputs.reduced_inputs]
    out_vecs = [s_true @ v for v in in_vecs]
    s_rec, _ = qpt_solve(in_vecs, out_vecs)
    assert np.abs(s_rec - s_true).max() < 1e-10


def test_qpt_solve_rejects_singular_inputs():
    inputs = prepare_correlated_inputs(0.0, 0.5, 0.0)
    vecs = [columnize(r) for r in inputs.reduced_inputs]
    with pytest.raises(IllConditionedError) as exc:
        qpt_solve(vecs, vecs)
    assert exc.value.condition_number > 1e8


def _forward_residual_oracle(u_ab, alpha, beta, gamma, correlated, s_obs):
    """Prepare and evolve the inputs again, then compare S_obs @ In with Out."""
    inputs = prepare_correlated_inputs(alpha, beta, gamma)
    if correlated:
        joints = inputs.joint_states
    else:
        rho_b = inputs.environment_state
        joints = tuple(np.kron(r, rho_b) for r in inputs.reduced_inputs)
    in_mat = np.column_stack([columnize(r) for r in inputs.reduced_inputs])
    out_mat = np.column_stack([columnize(evolve_and_reduce(u_ab, j)) for j in joints])
    return float(np.abs(s_obs @ in_mat - out_mat).max())


def test_scenario_reports_match_summary_table():
    rows = [
        ((0.5, 0.5, 0.6), True, False, False, None),
        ((0.5, 0.5, 0.6), True, True, True, 1),
        ((0.5, 0.5, 0.6), False, False, True, 2),
        ((0.5, 0.5, 0.5), True, False, True, 1),
        ((0.5, 0.5, 0.5), False, False, True, 2),
    ]
    for (alpha, beta, gamma), correlated, cpf, expect_cp, expect_kraus in rows:
        report = run_qpt_scenario(
            U_ZZ, alpha, beta, gamma, correlated=correlated, apply_cp_filter=cpf
        )
        assert report.is_cp == expect_cp
        assert report.kraus_count == expect_kraus
        assert (report.kraus_count is not None) == report.is_cp
        assert (report.removed_weight is not None) == cpf
        if cpf:
            assert report.forward_residual is None
        else:
            assert report.forward_residual == _forward_residual_oracle(
                U_ZZ, alpha, beta, gamma, correlated, report.s_obs
            )
            assert report.forward_residual < 1e-10


def test_scenario_diagonalizes_the_reported_choi_matrix_once(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for correlated, cpf, expected in ((True, False, 1), (False, False, 1), (True, True, 2)):
        calls.clear()
        prepare_correlated_inputs(0.5, 0.5, 0.6)
        n_prepare = len(calls)
        calls.clear()
        run_qpt_scenario(U_ZZ, 0.5, 0.5, 0.6, correlated=correlated, apply_cp_filter=cpf)
        # one Choi diagonalization, plus the one inside CP-filtering
        assert len(calls) - n_prepare == expected


def test_scenario_choi_spectra():
    report = run_qpt_scenario(U_ZZ, 0.5, 0.5, 0.6, correlated=True)
    assert np.abs(
        report.choi_eigenvalues - np.array([2.2, 0.0, 0.0, -0.2])
    ).max() < 1e-12
    report_u = run_qpt_scenario(U_ZZ, 0.5, 0.5, 0.6, correlated=False)
    assert np.abs(
        report_u.choi_eigenvalues - np.array([1.5, 0.5, 0.0, 0.0])
    ).max() < 1e-12


def test_uncorrelated_map_matches_environment_kraus_sum():
    rng = np.random.default_rng(33)
    from qincoh.channels import random_unitary

    for u_ab in (U_ZZ, random_unitary(4, rng)):
        report = run_qpt_scenario(u_ab, 0.5, 0.5, 0.6, correlated=False)
        rho_b = (np.eye(2) + 0.5 * SIGMA_Z) / 2
        ops = environment_kraus_operators(u_ab, rho_b)
        assert np.abs(kraus_to_superop(ops) - report.s_obs).max() < 1e-10


def test_correlated_map_is_linear_on_consistent_mixtures():
    # the observed map acts correctly on mixtures whose joint state carries
    # the matching correlations
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.6)
    report = run_qpt_scenario(U_ZZ, 0.5, 0.5, 0.6, correlated=True)
    mix_reduced = (inputs.reduced_inputs[1] + inputs.reduced_inputs[2]) / 2
    mix_joint = (inputs.joint_states[1] + inputs.joint_states[2]) / 2
    predicted = uncolumnize(report.s_obs @ columnize(mix_reduced))
    actual = evolve_and_reduce(U_ZZ, mix_joint)
    assert np.abs(predicted - actual).max() < 1e-10


def test_cp_filter_scenario_kraus_is_unitary():
    report = run_qpt_scenario(U_ZZ, 0.5, 0.5, 0.6, correlated=True, apply_cp_filter=True)
    from qincoh.liouville import choi_to_kraus, superop_to_choi

    (op,) = choi_to_kraus(superop_to_choi(report.s_obs))
    assert np.abs(op.conj().T @ op - np.eye(2)).max() < 1e-10
    assert abs(report.removed_weight - 0.2) < 1e-12

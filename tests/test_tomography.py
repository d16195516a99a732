import itertools
import warnings

import numpy as np
import pytest

from oracles import environment_kraus_operators, kraus_operators, kraus_sum, solve_map
from qincoh.channels import expm_unitary, random_unitary
from qincoh.errors import IllConditionedError, NonPhysicalStateError
from qincoh.liouville import CP_TOL, choi_spectrum, columnize, cp_filter, superop_to_choi
from qincoh.tomography import (
    COND_LIMIT,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    evolve_and_reduce,
    partial_trace_b,
    prepare_correlated_inputs,
    run_qpt_scenarios,
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


EYE2 = np.eye(2, dtype=complex)


def _reduce_oracle(rho_ab):
    return np.einsum("abcb->ac", rho_ab.reshape(2, 2, 2, 2))


def _inputs_oracle(alpha, beta, gamma):
    """The per-state kron construction the constant stacks replaced."""
    joints = [(np.kron(EYE2, EYE2) + beta * np.kron(EYE2, SIGMA_Z)) / 4]
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        joints.append(
            (
                np.kron(EYE2, EYE2)
                + alpha * np.kron(sigma, EYE2)
                + beta * np.kron(EYE2, SIGMA_Z)
                + gamma * np.kron(sigma, SIGMA_Z)
            )
            / 4
        )
    return joints, [_reduce_oracle(rho) for rho in joints]


def _physical_triples(seed, count=40):
    # the joint states have eigenvalues (1 +- beta) / 4 and
    # (1 + s*alpha + t*beta + s*t*gamma) / 4 for signs s, t, so all are positive
    return np.random.default_rng(seed).uniform(-1 / 3, 1 / 3, size=(count, 3))


def test_prepared_stacks_equal_per_state_kron_construction():
    for alpha, beta, gamma in [(0.5, 0.5, 0.6), (0.5, 0.5, 0.5), *_physical_triples(34)]:
        inputs = prepare_correlated_inputs(alpha, beta, gamma)
        joints, reduced = _inputs_oracle(alpha, beta, gamma)
        assert inputs.joint_states.shape == (4, 4, 4)
        assert inputs.reduced_inputs.shape == (4, 2, 2)
        assert np.array_equal(inputs.joint_states, np.stack(joints))
        assert np.array_equal(inputs.reduced_inputs, np.stack(reduced))


def _scenario_oracle(u_ab, alpha, beta, gamma, correlated, apply_cp_filter):
    """One evolution per state, with product states built by np.kron."""
    joints, reduced = _inputs_oracle(alpha, beta, gamma)
    if not correlated:
        rho_b = (EYE2 + beta * SIGMA_Z) / 2
        joints = [np.kron(rho_a, rho_b) for rho_a in reduced]
    in_vecs = [columnize(rho_a) for rho_a in reduced]
    out_vecs = [columnize(_reduce_oracle(u_ab @ rho @ u_ab.conj().T)) for rho in joints]
    s_obs, cond = solve_map(in_vecs, out_vecs)
    if apply_cp_filter:
        s_obs, removed_weight = cp_filter(s_obs)
        return s_obs, cond, removed_weight, None
    residual = s_obs @ np.column_stack(in_vecs) - np.column_stack(out_vecs)
    return s_obs, cond, None, float(np.abs(residual).max())


def test_scenario_equals_per_state_loop_oracle():
    rng = np.random.default_rng(35)
    triples = [(0.5, 0.5, 0.6), (0.5, 0.5, 0.5), *_physical_triples(36, 15)]
    for i, (alpha, beta, gamma) in enumerate(triples):
        u_ab = U_ZZ if i < 2 else random_unitary(4, rng)
        for correlated, cpf in ((True, False), (False, False), (True, True)):
            (report,) = run_qpt_scenarios(u_ab, [alpha], [beta], [gamma], [correlated], [cpf])
            s_obs, cond, removed_weight, residual = _scenario_oracle(
                u_ab, alpha, beta, gamma, correlated, cpf
            )
            assert np.array_equal(report.s_obs, s_obs)
            assert report.condition_number == cond
            assert report.removed_weight == removed_weight
            assert report.forward_residual == residual


def test_prepare_checks_positivity_with_one_eigvalsh(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    prepare_correlated_inputs(0.5, 0.5, 0.6)
    assert calls == ["eigvalsh"]


def test_prepare_names_the_first_non_physical_state(monkeypatch):
    # states 2-4 share one spectrum, so states 3 and 4 are made non-physical
    # by shifting the eigenvalues the check sees
    solver = np.linalg.eigvalsh

    def shifted(a):
        w = solver(a)
        w[2:] -= 0.5
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    with pytest.raises(NonPhysicalStateError) as exc:
        prepare_correlated_inputs(0.2, 0.3, 0.1)
    # state 3's smallest eigenvalue is (1 - alpha - beta + gamma) / 4 = 0.15
    assert str(exc.value).startswith("joint input state 3 has negative eigenvalue -3.500e-01 ")


def test_scenario_rejects_non_unitary_u_ab():
    with pytest.raises(ValueError, match="u_ab is not unitary"):
        run_qpt_scenarios(2.0 * U_ZZ, [0.5], [0.5], [0.6], [True], [False])


def test_a_joint_unitary_of_another_side_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^u_ab has side 8, but rho_ab has side 4$"):
        run_qpt_scenarios(np.eye(8), [0.5], [0.5], [0.6], [True], [False])
    with pytest.raises(ValueError, match=r"^u_ab has side 2, but rho_ab has side 4$"):
        evolve_and_reduce(np.eye(2), np.eye(4) / 4)


def test_stacked_evolution_and_partial_trace_equal_single_matrix_results():
    rng = np.random.default_rng(37)
    u_ab = random_unitary(4, rng)
    stack = prepare_correlated_inputs(0.2, -0.3, 0.1).joint_states
    traced = partial_trace_b(stack)
    evolved = evolve_and_reduce(u_ab, stack)
    for i, rho in enumerate(stack):
        assert np.array_equal(traced[i], partial_trace_b(rho))
        assert np.array_equal(evolved[i], evolve_and_reduce(u_ab, rho))
    for refused in (lambda: partial_trace_b(np.zeros((2, 3, 3))),
                    lambda: evolve_and_reduce(np.eye(3), np.zeros((2, 3, 3)))):
        with pytest.raises(ValueError, match="^rho_ab has side 3, which is not divisible by environment dim 2$"):
            refused()


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
    with pytest.raises(ValueError, match="^rho_ab has side 3, which is not divisible by environment dim 2$"):
        partial_trace_b(np.eye(3))


def test_evolve_and_reduce_rejects_odd_dimension_by_name():
    with pytest.raises(ValueError, match="^rho_ab has side 3, which is not divisible by environment dim 2$"):
        evolve_and_reduce(np.eye(3), np.eye(3) / 3)


def test_non_finite_matrix_in_a_stack_is_refused_by_index():
    # no np.errstate: evolving an infinite entry would warn before it is named
    for bad in (np.nan, np.inf):
        stack = np.stack([np.eye(4, dtype=complex) / 4] * 2)
        stack[1, 2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^rho_ab\[1\] is not finite$"):
                partial_trace_b(stack)
            with pytest.raises(ValueError, match=r"^rho_ab\[1\] is not finite$"):
                evolve_and_reduce(U_ZZ, stack)


def test_evolve_and_reduce_eq4_outputs():
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.6)
    out2 = evolve_and_reduce(U_ZZ, inputs.joint_states[1])
    assert np.abs(out2 - (np.eye(2) + 0.6 * SIGMA_Y) / 2).max() < 1e-12
    out4 = evolve_and_reduce(U_ZZ, inputs.joint_states[3])
    assert np.abs(out4 - (np.eye(2) + 0.5 * SIGMA_Z) / 2).max() < 1e-12
    out_mat = np.column_stack([columnize(evolve_and_reduce(U_ZZ, j)) for j in inputs.joint_states])
    assert np.abs(out_mat - EQ4_OUTPUT_COLUMNS).max() < 1e-12


def test_swap_gate_hides_correlations():
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1.0
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.6)
    rho_b = (np.eye(2) + 0.5 * SIGMA_Z) / 2
    for joint in inputs.joint_states:
        assert np.abs(evolve_and_reduce(swap, joint) - rho_b).max() < 1e-12


def test_ill_conditioned_scenario_is_named_by_row_and_parameters():
    # the condition number of the four inputs is about 4/alpha
    with pytest.raises(IllConditionedError, match=(
        r"^tomography input matrix\[1\] for \(alpha, beta, gamma\) = \(1e-06, 0\.3, 0\.0\): "
        r"condition number 4\.000e\+06 exceeds COND_LIMIT = 1\.000e\+05$"
    )) as exc:
        run_qpt_scenarios(U_ZZ, [0.5, 1e-6], [0.3, 0.3], [0.1, 0.0], [True, True], [False, False])
    assert exc.value.condition_number > COND_LIMIT


def test_condition_check_refuses_what_the_choi_check_would():
    # the solve's rounding, and with it the Choi matrix's deviation from
    # Hermitian, grows with the input matrix's condition number (about
    # 4/alpha); sweeping alpha down, every row passes both checks until
    # COND_LIMIT refuses it by name, never as a non-Hermitian Choi matrix
    outcomes = {"passed": 0, "refused": 0}
    # (beta, gamma / alpha) pairs
    shapes = ((0.3, 0.5), (0.9, 0.0))
    rows = itertools.product(range(10), np.logspace(-2, -8, 25), shapes, (True, False), (False, True))
    for seed, alpha, (beta, gamma_ratio), correlated, cpf in rows:
        u_ab = random_unitary(4, np.random.default_rng(seed))
        gamma = gamma_ratio * alpha
        try:
            (report,) = run_qpt_scenarios(u_ab, [alpha], [beta], [gamma], [correlated], [cpf])
        except IllConditionedError as exc:
            assert exc.condition_number > COND_LIMIT
            outcomes["refused"] += 1
        else:
            assert report.condition_number <= COND_LIMIT
            outcomes["passed"] += 1
    assert outcomes["passed"] > 0 and outcomes["refused"] > 0, outcomes


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
    triples, correlated_flags, cpf_flags, _, _ = zip(*rows)
    reports = run_qpt_scenarios(U_ZZ, *zip(*triples), correlated_flags, cpf_flags)
    for report, row in zip(reports, rows):
        (alpha, beta, gamma), correlated, cpf, expect_cp, expect_kraus = row
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

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    calls.clear()
    prepare_correlated_inputs(0.5, 0.5, 0.6)
    n_prepare = calls.count("eigvalsh")
    assert calls == ["eigvalsh"] * n_prepare
    for correlated, cpf, expected_eigh in ((True, False, 0), (False, False, 0), (True, True, 1)):
        calls.clear()
        run_qpt_scenarios(U_ZZ, [0.5], [0.5], [0.6], [correlated], [cpf])
        # one eigenvalues-only Choi spectrum; eigenvectors only inside CP-filtering
        assert calls.count("eigh") == expected_eigh
        assert calls.count("eigvalsh") - n_prepare == 1


def test_stacked_run_takes_every_choi_spectrum_in_one_eigvalsh(monkeypatch):
    calls, active = [], []
    prepare = prepare_correlated_inputs

    def traced_prepare(*args, **kwargs):
        active.append(True)
        try:
            return prepare(*args, **kwargs)
        finally:
            active.pop()

    monkeypatch.setattr("qincoh.tomography.prepare_correlated_inputs", traced_prepare)
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls.append(("psd_" if active else "") + _name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    cpf = [True, False, True, False]
    reports = run_qpt_scenarios(
        U_ZZ, [0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5], [0.6, 0.6, 0.5, 0.5],
        [True, True, False, True], cpf,
    )
    assert [r.removed_weight is not None for r in reports] == cpf
    # one PSD check, one eigh inside each CP filter, then one Choi spectrum
    # for the stack of all four reported maps
    assert calls == ["psd_eigvalsh", "eigh", "eigh", "eigvalsh"]


def _choi_eigh_oracle(s_obs):
    """The Choi spectrum, descending, from a full ``eigh`` (eigenvectors and
    all) of the Hermitian part of the Choi matrix."""
    c = superop_to_choi(s_obs)
    return np.linalg.eigh((c + c.conj().T) / 2)[0][::-1]


TABLE1_ROWS = [
    ((0.5, 0.5, 0.6), True, False),
    ((0.5, 0.5, 0.6), True, True),
    ((0.5, 0.5, 0.6), False, False),
    ((0.5, 0.5, 0.5), True, False),
    ((0.5, 0.5, 0.5), False, False),
]


def test_choi_spectrum_equals_eigh_oracle():
    rng = np.random.default_rng(38)
    cases = [(U_ZZ, *row) for row in TABLE1_ROWS] + [
        (random_unitary(4, rng), tuple(t), correlated, cpf)
        for t in _physical_triples(39, 15)
        for correlated, cpf in ((True, False), (False, False), (True, True))
    ]
    for u_ab, (alpha, beta, gamma), correlated, cpf in cases:
        (report,) = run_qpt_scenarios(u_ab, [alpha], [beta], [gamma], [correlated], [cpf])
        expected = _choi_eigh_oracle(report.s_obs)
        # ill-conditioned triples give spectra of size ~100, so the bound
        # scales with the largest eigenvalue above 1
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(report.choi_eigenvalues - expected).max() <= 1e-14 * scale
        assert np.array_equal(report.choi_eigenvalues, choi_spectrum(report.s_obs))


def test_scenario_choi_spectra():
    report, report_u = run_qpt_scenarios(
        U_ZZ, [0.5, 0.5], [0.5, 0.5], [0.6, 0.6], [True, False], [False, False]
    )
    assert np.abs(
        report.choi_eigenvalues - np.array([2.2, 0.0, 0.0, -0.2])
    ).max() < 1e-12
    assert np.abs(
        report_u.choi_eigenvalues - np.array([1.5, 0.5, 0.0, 0.0])
    ).max() < 1e-12


def test_uncorrelated_map_matches_environment_kraus_sum():
    rng = np.random.default_rng(33)
    for u_ab in (U_ZZ, random_unitary(4, rng)):
        (report,) = run_qpt_scenarios(u_ab, [0.5], [0.5], [0.6], [False], [False])
        rho_b = (np.eye(2) + 0.5 * SIGMA_Z) / 2
        ops = environment_kraus_operators(u_ab, rho_b)
        assert np.abs(kraus_sum(ops) - report.s_obs).max() < 1e-10


def test_correlated_map_is_linear_on_consistent_mixtures():
    # the observed map acts correctly on mixtures whose joint state carries
    # the matching correlations
    inputs = prepare_correlated_inputs(0.5, 0.5, 0.6)
    (report,) = run_qpt_scenarios(U_ZZ, [0.5], [0.5], [0.6], [True], [False])
    mix_reduced = (inputs.reduced_inputs[1] + inputs.reduced_inputs[2]) / 2
    mix_joint = (inputs.joint_states[1] + inputs.joint_states[2]) / 2
    predicted = (report.s_obs @ columnize(mix_reduced)).reshape(2, 2, order="F")
    actual = evolve_and_reduce(U_ZZ, mix_joint)
    assert np.abs(predicted - actual).max() < 1e-10


def test_cp_filter_scenario_kraus_is_unitary():
    (report,) = run_qpt_scenarios(U_ZZ, [0.5], [0.5], [0.6], [True], [True])
    assert report.kraus_count == 1
    (op,) = kraus_operators(report.s_obs)
    assert np.abs(op.conj().T @ op - np.eye(2)).max() < 1e-10
    assert np.abs(kraus_sum([op]) - report.s_obs).max() < 1e-10
    assert abs(report.removed_weight - 0.2) < 1e-12


def _public_steps_oracle(u_ab, alpha, beta, gamma, correlated, apply_cp_filter):
    """One scenario from single-map steps: prepare, evolve each state, one
    np.linalg.solve, cp_filter, choi_spectrum."""
    inputs = prepare_correlated_inputs(alpha, beta, gamma)
    joints = inputs.joint_states
    if not correlated:
        joints = [np.kron(r, inputs.environment_state) for r in inputs.reduced_inputs]
    in_vecs = [columnize(r) for r in inputs.reduced_inputs]
    out_vecs = [columnize(evolve_and_reduce(u_ab, rho)) for rho in joints]
    s_obs, cond = solve_map(in_vecs, out_vecs)
    removed_weight = residual = None
    if apply_cp_filter:
        s_obs, removed_weight = cp_filter(s_obs)
    else:
        residual = float(np.abs(s_obs @ np.column_stack(in_vecs) - np.column_stack(out_vecs)).max())
    eigenvalues = choi_spectrum(s_obs)
    is_cp = bool(eigenvalues[-1] >= -CP_TOL)
    kraus_count = int(np.count_nonzero(eigenvalues > CP_TOL)) if is_cp else None
    return s_obs, eigenvalues, is_cp, kraus_count, removed_weight, cond, residual


@pytest.mark.parametrize("batch", ["table1", "seeded"])
def test_stacked_run_equals_per_row_oracle(batch):
    if batch == "table1":
        u_ab = U_ZZ
        rows = [(*triple, correlated, cpf) for triple, correlated, cpf in TABLE1_ROWS]
    else:
        rng = np.random.default_rng(40)
        u_ab = random_unitary(4, rng)
        flags = rng.random((24, 2)) < 0.5
        rows = [(*t, c, f) for t, (c, f) in zip(_physical_triples(41, 24), flags)]
        # every combination of the two flags occurs
        assert len({(c, f) for c, f in flags}) == 4
    reports = run_qpt_scenarios(u_ab, *map(list, zip(*rows)))
    assert len(reports) == len(rows)
    for report, row in zip(reports, rows):
        s_obs, eigenvalues, is_cp, kraus_count, removed_weight, cond, residual = (
            _public_steps_oracle(u_ab, *row)
        )
        assert np.array_equal(report.s_obs, s_obs)
        assert np.array_equal(report.choi_eigenvalues, eigenvalues)
        assert report.is_cp == is_cp
        assert report.kraus_count == kraus_count
        assert report.removed_weight == removed_weight
        assert report.condition_number == cond
        assert report.forward_residual == residual


def test_stacked_run_names_a_non_physical_third_row():
    with pytest.raises(NonPhysicalStateError) as single:
        prepare_correlated_inputs(0.9, 0.0, 0.9)
    with pytest.raises(NonPhysicalStateError) as stacked:
        run_qpt_scenarios(
            U_ZZ, [0.5, 0.2, 0.9], [0.5, 0.1, 0.0], [0.6, 0.0, 0.9],
            [True, False, True], [False, True, False],
        )
    assert str(stacked.value) == str(single.value)
    assert str(stacked.value).startswith("joint input state 2 has negative eigenvalue -2.000e-01 ")
    assert str(stacked.value).endswith("for (alpha, beta, gamma) = (0.9, 0.0, 0.9)")


def test_stacked_run_rejects_mismatched_flags():
    with pytest.raises(ValueError, match="expected 2 correlated and apply_cp_filter flags"):
        run_qpt_scenarios(U_ZZ, [0.5, 0.5], [0.5, 0.5], [0.6, 0.5], [True], [False, False])


def test_prepare_refuses_an_overflowing_joint_state_without_a_warning(monkeypatch):
    # finite parameters whose sum overflows: the state is named before any
    # eigensolver sees it, and no numpy warning comes first
    def refused(*args, **kwargs):
        raise AssertionError("eigvalsh ran on an overflowed joint state")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=(
            r"^joint input state 2 is not finite "
            r"for \(alpha, beta, gamma\) = \(1e\+308, 0\.0, 1e\+308\)$"
        )):
            prepare_correlated_inputs(1e308, 0.0, 1e308)
        # in a stack, the first scenario with an overflowing state is named
        with pytest.raises(ValueError, match=(
            r"^joint input state 4 is not finite "
            r"for \(alpha, beta, gamma\) = \(1e\+308, 1e\+308, 0\.0\)$"
        )):
            run_qpt_scenarios(
                U_ZZ, [0.5, 1e308, 1e308], [0.5, 1e308, 0.0], [0.6, 0.0, 1e308],
                [True] * 3, [False] * 3,
            )


def test_prepare_refuses_non_finite_parameters_by_name(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("eigvalsh ran on a non-finite parameter")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    cases = [
        ((np.nan, 0.5, 0.5), "alpha"),
        ((0.5, np.nan, 0.5), "beta"),
        ((0.5, 0.5, np.inf), "gamma"),
        ((0.5, 0.5, -np.inf), "gamma"),
        (([0.5, 0.2], [0.5, 0.1], [0.6, np.inf]), r"gamma\[1\]"),
        (([0.5, np.nan], [0.5, 0.1], [0.6, 0.0]), r"alpha\[1\]"),
    ]
    # no np.errstate: any RuntimeWarning on the way is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, name in cases:
            with pytest.raises(ValueError, match=f"^{name} is not finite$"):
                prepare_correlated_inputs(*params)
        with pytest.raises(ValueError, match=r"^gamma\[2\] is not finite$"):
            run_qpt_scenarios(
                U_ZZ, [0.5] * 3, [0.5] * 3, [0.6, 0.5, np.inf], [True] * 3, [False] * 3
            )


@pytest.mark.filterwarnings("error")
def test_prepare_refuses_complex_and_non_numeric_parameters_by_name():
    for params, refusal in (((0.1 + 0j, 0.1, 0.1), "alpha is complex, expected real"),
                            ((0.1, [0.1, 0.2j], 0.1), "beta is complex, expected real"),
                            ((0.1, 0.1, "0.1"), r"gamma is not numeric \(dtype <U3\)"),
                            ((0.1, 0.1, None), r"gamma is not numeric \(dtype object\)")):
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            prepare_correlated_inputs(*params)
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            run_qpt_scenarios(U_ZZ, *([p] for p in params), [True], [False])


@pytest.mark.filterwarnings("error")
def test_prepare_refuses_parameters_of_different_shapes_by_name():
    for params, shapes in ((([0.5, 0.2], [0.5], 0.6), r"\(2,\), \(1,\), \(\)"),
                           ((0.5, [[0.1, 0.2]], [0.6, 0.1]), r"\(\), \(1, 2\), \(2,\)")):
        with pytest.raises(ValueError, match=f"^alpha, beta and gamma have different shapes {shapes}$"):
            prepare_correlated_inputs(*params)
        with pytest.raises(ValueError, match=f"^alpha, beta and gamma have different shapes {shapes}$"):
            run_qpt_scenarios(U_ZZ, *params, [True, True], [False, False])


@pytest.mark.filterwarnings("error")
def test_scenario_flags_must_be_booleans():
    # a string or a number is no flag; np.asarray(..., dtype=bool) read each as True
    params = ([0.5, 0.3], [0.5, 0.1], [0.6, 0.0])
    for flags, refusal in ((["no", "yes"], r"is not numeric \(dtype <U3\)"),
                           ([0.3, 0.0], "is real, expected boolean"),
                           ([1, 0], "is integer, expected boolean"),
                           (np.array([True, None], dtype=object), r"is not numeric \(dtype object\)")):
        with pytest.raises(ValueError, match=f"^correlated {refusal}$"):
            run_qpt_scenarios(U_ZZ, *params, flags, [False, False])
        with pytest.raises(ValueError, match=f"^apply_cp_filter {refusal}$"):
            run_qpt_scenarios(U_ZZ, *params, [True, False], flags)
    # booleans of any container are read as given
    reports = run_qpt_scenarios(U_ZZ, *params, np.array([True, False]), (np.bool_(False), True))
    assert [r.removed_weight is None for r in reports] == [True, False]


def test_run_refuses_parameters_that_are_not_one_per_scenario_by_name():
    # an empty run has no (alpha, beta, gamma) to solve for; numpy read its
    # empty flag list as floats and its stack failed to reshape
    for params, shape in ((([], [], []), r"\(0,\)"), ((0.5, 0.5, 0.6), r"\(\)"),
                          (([[0.5]], [[0.5]], [[0.6]]), r"\(1, 1\)")):
        with pytest.raises(ValueError, match=f"^expected one parameter per scenario, got shape {shape}$"):
            run_qpt_scenarios(U_ZZ, *params, [], [])

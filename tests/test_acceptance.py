"""Acceptance suite: every release gate in one module, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines.
"""
import functools
import json
from pathlib import Path

import numpy as np

from oracles import environment_kraus_operators, kraus_operators, kraus_sum, random_rud_ensemble
from qincoh.channels import (
    RFProfile,
    expm_unitary,
    make_synthetic_profile,
    random_unitary,
    rf_incoherent_channel,
    rud_superoperator,
)
from qincoh.cli import load_config, run_scenario
from qincoh.liouville import (
    CP_TOL,
    choi_spectrum,
    columnize,
    cp_filter,
    superop_to_choi,
)
from qincoh.nudft import RecoveryGrid, inverse_nudft
from qincoh.spectral import (
    DIAGONAL_COUPLING,
    build_samples,
    four_qubit_fixture,
    pair_eigenvalues,
    predict_eigenvalues,
    profile_metrics,
    three_qubit_fixture,
)
from qincoh.tomography import SIGMA_Z, run_qpt_scenarios

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
U_ZZ = expm_unitary(np.pi / 4 * np.kron(SIGMA_Z, SIGMA_Z))
EQ4_S = np.diag([1.0, 1.2j, -1.2j, 1.0])
UNCORR_S = np.diag([1.0, 0.5j, -0.5j, 1.0])

RECOVERY_GRID = RecoveryGrid(-0.25, 0.25, 101)
SKEWED_PROFILE = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


@functools.lru_cache(maxsize=1)
def skewed_channel():
    h0t, k = three_qubit_fixture()
    return h0t, k, rf_incoherent_channel(h0t, k, SKEWED_PROFILE)


def test_c01_eq4_reproduction():
    (report,) = run_qpt_scenarios(U_ZZ, [0.5], [0.5], [0.6], [True], [False])
    dev = np.abs(report.s_obs - EQ4_S).max()
    _report(1, "correlated tomography reproduces diag(1, 1.2i, -1.2i, 1)",
            dev < 1e-12, f"max deviation {dev:.2e}")


def test_c02_choi_spectra():
    w_corr = choi_spectrum(EQ4_S)
    w_unc = choi_spectrum(UNCORR_S)
    dev_corr = np.abs(w_corr - np.array([2.2, 0.0, 0.0, -0.2])).max()
    dev_unc = np.abs(w_unc - np.array([1.5, 0.5, 0.0, 0.0])).max()
    _report(2, "Choi spectra are {2.2, -0.2} and {1.5, 0.5} within 1e-12",
            dev_corr < 1e-12 and dev_unc < 1e-12,
            f"deviations {dev_corr:.2e}, {dev_unc:.2e}")


def test_c03_summary_table_rows():
    expected = [
        ((0.5, 0.5, 0.6), True, False, False, None),
        ((0.5, 0.5, 0.6), True, True, True, 1),
        ((0.5, 0.5, 0.6), False, False, True, 2),
        ((0.5, 0.5, 0.5), True, False, True, 1),
        ((0.5, 0.5, 0.5), False, False, True, 2),
    ]
    # one stacked run over the table rows, as the qpt_demo mode makes
    triples, corr, cpf, _, _ = zip(*expected)
    reports = run_qpt_scenarios(U_ZZ, *zip(*triples), corr, cpf)
    ok = len(reports) == len(expected)
    for rep, (_, _, _, want_cp, want_kraus) in zip(reports, expected):
        ok = ok and rep.is_cp == want_cp and rep.kraus_count == want_kraus
    _report(3, "all five summary-table rows (CPF/Corr/CP/Kraus) reproduce exactly", ok)


def test_c04_cp_filter_is_not_decorrelation():
    filtered, _ = cp_filter(EQ4_S)
    gap = np.abs(filtered - UNCORR_S).max()
    _report(4, "CP-filtered map differs from the decorrelated map by > 0.1",
            gap > 0.1, f"max difference {gap:.3f}")


def test_c05_rud_channel_property_suite():
    rng = np.random.default_rng(20260809)
    ok = True
    detail = ""
    for i in range(20):
        n_qubits = 1 + i % 3
        dim = 2**n_qubits
        s = rud_superoperator(random_rud_ensemble(2**n_qubits, 2 + i % 5, rng))
        ident = columnize(np.eye(dim) / dim)
        bra = columnize(np.eye(dim)).conj()
        w = np.linalg.eigvals(s)
        min_eig = choi_spectrum(s)[-1]
        conj_ok = all(np.abs(w - np.conj(lam)).min() < 1e-9 for lam in w)
        checks = (
            np.abs(s @ ident - ident).max() < 1e-11,
            np.abs(bra @ s - bra).max() < 1e-11,
            min_eig >= -CP_TOL,
            conj_ok,
            np.abs(w).max() <= 1 + 1e-10,
        )
        if not all(checks):
            ok = False
            detail = f"ensemble {i}: {checks}, min Choi eig {min_eig:.2e}"
            break
    _report(5, "20 seeded RUD channels: unital, TP, Choi PSD, conjugate spectrum, |eig| <= 1",
            ok, detail)


def test_c06_eigenvalue_counting_and_sample_sizes():
    h0t, k, s = skewed_channel()
    w = np.linalg.eigvals(s)
    n_unit = int(np.sum(np.abs(w - 1.0) < 1e-9))
    rest = w[np.argsort(np.abs(w - 1.0))][8:]
    used = np.zeros(rest.size, dtype=bool)
    pairs = 0
    for i in range(rest.size):
        if used[i]:
            continue
        cand = np.abs(rest - np.conj(rest[i]))
        cand[used] = np.inf
        cand[i] = np.inf
        j = int(np.argmin(cand))
        if cand[j] < 1e-9:
            used[i] = used[j] = True
            pairs += 1
    samples = build_samples(pair_eigenvalues(s, h0t, k))
    h4, k4 = four_qubit_fixture()
    s4 = rf_incoherent_channel(h4, k4, make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=21))
    samples4 = build_samples(pair_eigenvalues(s4, h4, k4))
    ok = n_unit == 8 and pairs == 28 and len(samples) == 57 and len(samples4) == 241
    _report(6, "3q channel: 8 unit eigenvalues, 28 conjugate pairs, 57 samples; 4q: 241",
            ok, f"got {n_unit}, {pairs}, {len(samples)}, {len(samples4)}")


def test_c07_perturbation_order_check():
    h0t, k, s = skewed_channel()
    pairing = pair_eigenvalues(s, h0t, k)
    pred = predict_eigenvalues(h0t, k, SKEWED_PROFILE)
    err_skew = max(
        abs(pred[e.j, e.m] - e.lambda_measured) for e in pairing.entries if not e.degenerate
    )

    # the halving test uses a narrow profile so eigenvalues stay spread and
    # the quadratic error term dominates level-repulsion effects
    narrow = make_synthetic_profile("gaussian", width=0.01, n_points=41)

    def max_err(k_model):
        s_x = rf_incoherent_channel(h0t, k_model, narrow)
        pairing_x = pair_eigenvalues(s_x, h0t, k_model)
        pred_x = predict_eigenvalues(h0t, k_model, narrow)
        return max(
            abs(pred_x[e.j, e.m] - e.lambda_measured)
            for e in pairing_x.entries
            if not e.degenerate
        )

    err_full, err_half = max_err(k), max_err(k / 2)
    ratio = err_full / err_half

    # the commuting variant: the perturbation is a multiple of h0t
    h0c, kc = h0t, DIAGONAL_COUPLING * h0t
    s_c = rf_incoherent_channel(h0c, kc, SKEWED_PROFILE)
    pairing_c = pair_eigenvalues(s_c, h0c, kc)
    pred_c = predict_eigenvalues(h0c, kc, SKEWED_PROFILE)
    err_commuting = max(
        abs(pred_c[e.j, e.m] - e.lambda_measured)
        for e in pairing_c.entries
        if not e.degenerate
    )
    ok = err_skew < 0.05 and 3.0 <= ratio <= 5.0 and err_commuting < 1e-10
    _report(7, "first-order prediction: error < 0.05, halving ratio in [3, 5], commuting exact",
            ok, f"err {err_skew:.2e}, ratio {ratio:.2f}, commuting {err_commuting:.2e}")


def _c08_recovery(num: int, desc: str, h0t: np.ndarray, k: np.ndarray, s: np.ndarray) -> None:
    """C08's bounds on the recovery of SKEWED_PROFILE from the channel ``s``."""
    samples = build_samples(pair_eigenvalues(s, h0t, k))
    result = inverse_nudft(samples, RECOVERY_GRID)
    true_m = profile_metrics(SKEWED_PROFILE)
    rec_m = profile_metrics(result.profile)
    mean_ok = abs(rec_m.mean - true_m.mean) < RECOVERY_GRID.bin_width
    std_ok = abs(rec_m.std - true_m.std) / true_m.std < 0.30
    skew_ok = np.sign(rec_m.skewness) == np.sign(true_m.skewness)
    clip_ok = result.clipped_mass < 0.1
    _report(num, desc,
            mean_ok and std_ok and skew_ok and clip_ok,
            f"mean err {abs(rec_m.mean - true_m.mean) / RECOVERY_GRID.bin_width:.2f} bins, "
            f"std rel {abs(rec_m.std - true_m.std) / true_m.std:.2f}, "
            f"skew {rec_m.skewness:+.2f} vs {true_m.skewness:+.2f}, clip {result.clipped_mass:.3f}")


def test_c08_end_to_end_recovery():
    _c08_recovery(8, "skewed-profile recovery: mean to 1 bin, std to 30%, skew sign, clip < 0.1",
                  *skewed_channel())


def test_c09_offset_detection():
    h0t, k, _ = skewed_channel()
    base = make_synthetic_profile("gaussian", width=0.04, n_points=41)
    s = rf_incoherent_channel(h0t, k, RFProfile(base.delta_omega + 0.05, base.weight))
    samples = build_samples(pair_eigenvalues(s, h0t, k))
    result = inverse_nudft(samples, RECOVERY_GRID)
    offset = profile_metrics(result.profile).mean
    err_bins = abs(offset - 0.05) / RECOVERY_GRID.bin_width
    _report(9, "injected 0.05 generator offset recovered within 1.5 grid bins",
            err_bins < 1.5, f"estimate {offset:.5f}, {err_bins:.3f} bins off")


def test_c10_round_trip_oracles():
    rng = np.random.default_rng(77)
    # uncorrelated tomography recovers the environment's Kraus map
    u_ab = random_unitary(4, rng)
    (report,) = run_qpt_scenarios(u_ab, [0.5], [0.5], [0.0], [False], [False])
    ops = environment_kraus_operators(u_ab, (np.eye(2) + 0.5 * SIGMA_Z) / 2)
    qpt_ok = np.abs(report.s_obs - kraus_sum(ops)).max() < 1e-10

    reshuffle_ok = np.array_equal(superop_to_choi(superop_to_choi(EQ4_S)), EQ4_S)
    kraus_ok = True
    for i in range(10):
        s = rud_superoperator(random_rud_ensemble(2 ** (1 + i % 2), 3, rng))
        kraus_ok = kraus_ok and np.abs(kraus_sum(kraus_operators(s)) - s).max() < 1e-10
    _report(10, "tomography, reshuffle and Kraus round-trips are exact",
            qpt_ok and reshuffle_ok and kraus_ok)


def test_c11_determinism(tmp_path):
    cfg = load_config(str(CONFIG_DIR / "recover3q.json"))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, str(dir_a))
    run_scenario(cfg, str(dir_b))
    manifest_a = (dir_a / "manifest.json").read_bytes()
    manifest_b = (dir_b / "manifest.json").read_bytes()
    files_ok = all(
        (dir_a / e["path"]).read_bytes() == (dir_b / e["path"]).read_bytes()
        for e in json.loads(manifest_a)["files"]
    )
    _report(11, "same config gives byte-identical manifests and artifacts",
            manifest_a == manifest_b and files_ok)


def test_c12_four_qubit_recovery():
    h0t, k = four_qubit_fixture()
    _c08_recovery(12, "4-qubit skewed-profile recovery within C08's bounds (241 samples)",
                  h0t, k, rf_incoherent_channel(h0t, k, SKEWED_PROFILE))

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qincoh.channels import make_synthetic_profile, profile_from_csv, rf_incoherent_channel
from qincoh.cli import load_config, main, parse_config, parse_pauli_sum, run_scenario
from qincoh.errors import ConfigError
from qincoh.nudft import SYMMETRY_TOL, RecoveryGrid
from qincoh.spectral import MATCH_TOL, pair_eigenvalues, profile_metrics, three_qubit_fixture

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_parse_pauli_sum_single_term():
    m = parse_pauli_sum("0.7853981633974483 * ZZ")
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    assert np.abs(m - np.pi / 4 * zz).max() < 1e-15


def test_parse_pauli_sum_multi_term_with_signs():
    m = parse_pauli_sum("0.5 * ZI - 0.25 * XX + 1e-1 * YY")
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    expected = (
        0.5 * np.kron(sz, np.eye(2)) - 0.25 * np.kron(sx, sx) + 0.1 * np.kron(sy, sy)
    )
    assert np.abs(m - expected).max() < 1e-15


def test_parse_pauli_sum_rejects_garbage():
    for bad in ("", "ZZ", "1.0 * ZQ", "1.0 * Z + ", "1.0 * ZZ + 2.0 * Z"):
        with pytest.raises(ConfigError):
            parse_pauli_sum(bad)


def test_bundled_configs_validate():
    for name in ("eq4_demo.json", "table1.json", "recover3q.json"):
        cfg = load_config(f"{CONFIG_DIR}/{name}")
        assert cfg.mode in ("qpt_demo", "recover_profile")


def test_unknown_fields_are_rejected():
    for extra in ("extra", "seed"):
        raw = json.load(open(f"{CONFIG_DIR}/eq4_demo.json"))
        raw[extra] = 1
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(raw)
    raw = json.load(open(f"{CONFIG_DIR}/recover3q.json"))
    raw["grid"]["padding"] = 2
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(raw)


def test_validate_command_exit_codes(tmp_path, capsys):
    assert main(["validate", "--config", f"{CONFIG_DIR}/table1.json"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "qpt_demo"}')
    assert main(["validate", "--config", str(bad)]) == 1
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 1


def test_eq4_demo_run(tmp_path):
    assert main(["run", "--config", f"{CONFIG_DIR}/eq4_demo.json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "qpt_report.json").read_text())
    sc = report["scenarios"][0]
    s_imag = np.array(sc["s_obs"]["imag"])
    s_real = np.array(sc["s_obs"]["real"])
    expected = np.diag([1.0, 1.2j, -1.2j, 1.0])
    assert np.abs((s_real + 1j * s_imag) - expected).max() < 1e-12
    nonzero = sorted(x for x in sc["choi_eigenvalues"] if abs(x) > 1e-9)
    assert np.abs(np.array(nonzero) - [-0.2, 2.2]).max() < 1e-12
    assert sc["is_cp"] is False
    assert sc["qpt_residual"]["value"] < sc["qpt_residual"]["tol"]


def test_table1_run_reproduces_all_rows(tmp_path):
    assert main(["run", "--config", f"{CONFIG_DIR}/table1.json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "qpt_report.json").read_text())
    got = {
        row["name"]: (row["cp_filtered"], row["correlated"], row["is_cp"], row["kraus_count"])
        for row in report["scenarios"]
    }
    assert got == {
        "ex1_correlated": (False, True, False, None),
        "ex1_cp_filtered": (True, True, True, 1),
        "ex1_uncorrelated": (False, False, True, 2),
        "ex2_correlated": (False, True, True, 1),
        "ex2_uncorrelated": (False, False, True, 2),
    }


def test_recover3q_artifacts(tmp_path):
    assert main(["run", "--config", f"{CONFIG_DIR}/recover3q.json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "recovery_report.json").read_text())
    assert report["n_samples"] == 57
    assert report["pairing"]["n_degenerate"] == 8
    assert report["quality"]["clipped_mass"] < report["quality"]["clipped_mass_tol"]
    samples_lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert samples_lines[0] == "k,f_real,f_imag"
    assert len(samples_lines) == 58
    recovered = (tmp_path / "recovered_profile.csv").read_text().splitlines()
    assert recovered[0] == "delta_omega,weight"
    assert len(recovered) == 102


def test_recovery_report_reads_the_applied_tolerances_and_moments(tmp_path):
    assert main(["run", "--config", f"{CONFIG_DIR}/recover3q.json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "recovery_report.json").read_text())
    assert report["pairing"]["match_tol"] == MATCH_TOL
    assert report["conjugate_symmetry_residual"]["tol"] == SYMMETRY_TOL
    recovered = profile_from_csv((tmp_path / "recovered_profile.csv").read_text())
    assert report["recovered_moments"] == profile_metrics(recovered)._asdict()
    assert report["offset_estimate"] == report["recovered_moments"]["mean"]


def test_recovery_report_states_the_certified_radius(tmp_path):
    assert main(["run", "--config", f"{CONFIG_DIR}/recover3q.json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "recovery_report.json").read_text())
    f = load_config(f"{CONFIG_DIR}/recover3q.json").fields
    pairing = pair_eigenvalues(rf_incoherent_channel(f["h0t"], f["k"], f["profile"]), f["h0t"], f["k"])
    radius = max(e.radius for e in pairing.entries if not e.degenerate)
    assert report["pairing"]["max_certified_radius"] == radius
    assert 0.0 < radius <= MATCH_TOL


def test_manifest_hashes_match_files(tmp_path):
    cfg = load_config(f"{CONFIG_DIR}/eq4_demo.json")
    manifest = run_scenario(cfg, str(tmp_path))
    assert manifest["version"]
    assert manifest["config_hash"] == cfg.config_hash()
    for entry in manifest["files"]:
        digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
        assert entry["role"]


def test_method_override(tmp_path):
    assert main([
        "run", "--config", f"{CONFIG_DIR}/recover3q.json",
        "--out", str(tmp_path), "--method", "least_squares",
    ]) == 0
    report = json.loads((tmp_path / "recovery_report.json").read_text())
    assert report["method"] == "least_squares"
    assert report["quality"]["condition_number"] is not None


def _bundled(name: str, edit) -> dict:
    raw = json.loads((CONFIG_DIR / name).read_text())
    edit(raw)
    return raw


# Each config below must fail `validate` as a config error (exit 1), not pass
# it and fail later in `run`, and not escape as a traceback.
MALFORMED = {
    # range checks of the profile and grid constructors
    "grid-too-few-bins": ("recover3q.json", lambda c: c["grid"].update(n_bins=7)),
    "grid-min-equals-max": ("recover3q.json", lambda c: c["grid"].update(min=0.25)),
    "grid-min-above-max": ("recover3q.json", lambda c: c["grid"].update(min=0.3, max=-0.3)),
    "profile-two-points": ("recover3q.json", lambda c: c["profile"].update(n_points=2)),
    "profile-zero-width": ("recover3q.json", lambda c: c["profile"].update(width=0.0)),
    "profile-negative-width": ("recover3q.json", lambda c: c["profile"].update(width=-0.05)),
    "profile-skew-on-gaussian": ("recover3q.json", lambda c: c["profile"].update(kind="gaussian")),
    "profile-skew-on-uniform": ("recover3q.json", lambda c: c["profile"].update(kind="uniform")),
    "profile-skew-one": ("recover3q.json", lambda c: c["profile"].update(skew=1.0)),
    "profile-skew-minus-one": ("recover3q.json", lambda c: c["profile"].update(skew=-1.0)),
    "rud-profile-two-points": ("rud2q.json", lambda c: c["profile"].update(n_points=2)),
    "negative-cp-tol": ("eq4_demo.json", lambda c: c.update(cp_tol=-1)),
    # a fixture fixes h0, k and t
    "t-with-fixture": ("recover3q.json", lambda c: c.update(t=2.0)),
    "h0-with-fixture": ("recover3q.json", lambda c: c.update(h0="1.0 * ZZZ")),
    "no-fixture-no-generators": ("recover3q.json", lambda c: c.pop("fixture")),
    # a bool where a number or an integer belongs
    "bool-cp-tol": ("eq4_demo.json", lambda c: c.update(cp_tol=True)),
    "bool-alpha": ("eq4_demo.json", lambda c: c["scenarios"][0].update(alpha=True)),
    "bool-offset": ("recover3q.json", lambda c: c.update(offset=False)),
    "bool-width": ("recover3q.json", lambda c: c["profile"].update(width=True)),
    "bool-n-points": ("recover3q.json", lambda c: c["profile"].update(n_points=True)),
    "bool-n-bins": ("recover3q.json", lambda c: c["grid"].update(n_bins=True)),
    "bool-t": ("rud2q.json", lambda c: c.update(t=True)),
    "float-n-bins": ("recover3q.json", lambda c: c["grid"].update(n_bins=101.0)),
    "string-correlated": ("eq4_demo.json", lambda c: c["scenarios"][0].update(correlated="yes")),
    # unknown and missing keys at each nesting level
    "unknown-top": ("eq4_demo.json", lambda c: c.update(extra=1)),
    "unknown-scenario": ("eq4_demo.json", lambda c: c["scenarios"][0].update(extra=1)),
    "unknown-profile": ("recover3q.json", lambda c: c["profile"].update(extra=1)),
    "unknown-grid": ("recover3q.json", lambda c: c["grid"].update(padding=2)),
    "unknown-for-mode": ("rud2q.json", lambda c: c.update(grid={"min": -1, "max": 1, "n_bins": 9})),
    "missing-mode": ("eq4_demo.json", lambda c: c.pop("mode")),
    "missing-top": ("eq4_demo.json", lambda c: c.pop("u_ab")),
    "missing-scenario-key": ("eq4_demo.json", lambda c: c["scenarios"][0].pop("gamma")),
    "missing-profile-key": ("recover3q.json", lambda c: c["profile"].pop("width")),
    "missing-grid-key": ("recover3q.json", lambda c: c["grid"].pop("n_bins")),
    "missing-profile": ("rud2q.json", lambda c: c.pop("profile")),
    # malformed values and containers
    "empty-scenarios": ("eq4_demo.json", lambda c: c.update(scenarios=[])),
    "scenarios-not-list": ("eq4_demo.json", lambda c: c.update(scenarios={"name": "x"})),
    "scenario-name-not-string": ("eq4_demo.json", lambda c: c["scenarios"][0].update(name=3)),
    "profile-not-object": ("recover3q.json", lambda c: c.update(profile=[0.05])),
    "unknown-mode": ("eq4_demo.json", lambda c: c.update(mode="qpt")),
    "mode-not-string": ("eq4_demo.json", lambda c: c.update(mode=["qpt_demo"])),
    "unknown-kind": ("recover3q.json", lambda c: c["profile"].update(kind="lorentzian")),
    "unknown-fixture": ("recover3q.json", lambda c: c.update(fixture="five_qubit")),
    "unknown-method": ("recover3q.json", lambda c: c.update(method="fft")),
    "bad-pauli-sum": ("rud2q.json", lambda c: c.update(k="0.1 * ZQ")),
    "pauli-coefficient-overflow": ("eq4_demo.json", lambda c: c.update(u_ab="1e999 * ZZ")),
    # h0 and k on different qubit counts
    "rud-h0-k-sizes": ("rud2q.json", lambda c: c.update(h0="0.5 * ZI", k="0.1 * Z")),
    "recover-h0-k-sizes": ("recover3q.json", lambda c: (
        c.pop("fixture"), c.update(h0="0.5 * ZI", k="0.1 * Z"))),
    # JSON NaN and Infinity
    "nan-alpha": ("eq4_demo.json", lambda c: c["scenarios"][0].update(alpha=float("nan"))),
    "infinite-offset": ("recover3q.json", lambda c: c.update(offset=float("inf"))),
    "infinite-cp-tol": ("eq4_demo.json", lambda c: c.update(cp_tol=float("inf"))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_fails_validate(case, tmp_path, capsys):
    name, edit = MALFORMED[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_bundled(name, edit)))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


def test_negative_cp_tol_is_rejected_from_file_and_flag(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_bundled("eq4_demo.json", lambda c: c.update(cp_tol=-1e-9))))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert main(["run", "--config", f"{CONFIG_DIR}/eq4_demo.json", "--out", str(out),
                 "--tol", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["config error"] * 2
    assert "--tol" in err[1]
    assert not out.exists()
    assert main(["run", "--config", f"{CONFIG_DIR}/eq4_demo.json", "--out", str(out),
                 "--tol", "0"]) == 0


def test_parsing_builds_the_profile_grid_and_generators():
    cfg = load_config(f"{CONFIG_DIR}/recover3q.json")
    h0t, k = three_qubit_fixture()
    assert np.array_equal(cfg.fields["h0t"], h0t) and np.array_equal(cfg.fields["k"], k)
    assert cfg.fields["grid"] == RecoveryGrid(-0.25, 0.25, 101)
    expected = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)
    assert np.array_equal(cfg.fields["profile"].weight, expected.weight)
    raw = {"mode": "recover_profile", "h0": "0.5 * ZI", "k": "1.0 * IZ", "t": 0.5,
           "profile": {"kind": "uniform", "width": 0.1}, "grid": {"min": -1, "max": 1, "n_bins": 8}}
    cfg = parse_config(raw)
    assert np.array_equal(cfg.fields["h0t"], parse_pauli_sum("0.25 * ZI"))
    assert cfg.fields["profile"].delta_omega.size == 41


def test_rud2q_run(tmp_path):
    assert main(["run", "--config", f"{CONFIG_DIR}/rud2q.json", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {e["path"] for e in manifest["files"]} | {"manifest.json"} == {
        p.name for p in tmp_path.iterdir()
    }
    for entry in manifest["files"]:
        digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    rows = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert rows[0] == "re,im" and len(rows) == 17
    report = json.loads((tmp_path / "channel_report.json").read_text())
    assert report["is_cp"] is True
    checked = {key: v for key, v in report.items() if isinstance(v, dict)}
    assert set(checked) == {
        "unitality_residual", "trace_preservation_residual", "max_eigenvalue_modulus",
    }
    for key, v in checked.items():
        bound = 1 + v["tol"] if key == "max_eigenvalue_modulus" else v["tol"]
        assert v["value"] <= bound, key

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qincoh.cli import load_config, main, parse_config, parse_pauli_sum, run_scenario
from qincoh.errors import ConfigError

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

import hashlib
import json
import os
import re
import stat
import warnings
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from oracles import parse_profile_csv
from qincoh.channels import make_synthetic_profile, rf_incoherent_channel
from qincoh import channels, cli, nudft, validation
from qincoh.cli import load_config, main, parse_config, parse_pauli_sum, run_scenario
from qincoh.errors import ConfigError
from qincoh.liouville import CP_TOL, choi_spectrum
from qincoh.nudft import RecoveryGrid
from qincoh.spectral import (
    MATCH_TOL,
    build_samples,
    pair_eigenvalues,
    profile_metrics,
    three_qubit_fixture,
)

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


def test_parse_pauli_sum_refuses_terms_with_no_sign_between_them_by_name():
    with pytest.raises(ConfigError, match=r"^missing \+/- between terms in '1 \* ZZ 2 \* XX'$"):
        parse_pauli_sum("1 * ZZ 2 * XX")


def test_bundled_configs_validate():
    for name in ("eq4_demo.json", "table1.json", "recover3q.json"):
        cfg = load_config(f"{CONFIG_DIR}/{name}")
        assert cfg.mode in ("qpt_demo", "recover_profile")


def test_unknown_fields_are_rejected():
    for extra in ("extra", "seed"):
        raw = json.loads((CONFIG_DIR / "eq4_demo.json").read_text())
        raw[extra] = 1
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(raw)
    raw = json.loads((CONFIG_DIR / "recover3q.json").read_text())
    raw["grid"]["padding"] = 2
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(raw)


def test_validate_command_exit_codes(tmp_path, capsys):
    assert main(["validate", "--config", f"{CONFIG_DIR}/table1.json"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "qpt_demo"}')
    assert main(["validate", "--config", str(bad)]) == 1
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    for text, refusal in (
        ("[1, 2]", "top-level config must be a JSON object"),
        ('{"mode": ', f"config {bad} is not valid JSON: Expecting value: line 1 column 10 (char 9)"),
    ):
        bad.write_text(text)
        assert main(["validate", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {refusal}"]


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


def test_table1_run_prepares_evolves_and_checks_positivity_once(tmp_path, monkeypatch):
    from qincoh import tomography

    calls, active = [], []
    for name in ("prepare_correlated_inputs", "evolve_and_reduce"):
        def counted(*args, _fn=getattr(tomography, name), _name=name, **kwargs):
            calls.append(_name)
            active.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(tomography, name, counted)
    eigvalsh = np.linalg.eigvalsh

    def counted_eigvalsh(*args, **kwargs):
        calls.append("psd_eigvalsh" if "prepare_correlated_inputs" in active else "eigvalsh")
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    assert main(["run", "--config", f"{CONFIG_DIR}/table1.json", "--out", str(tmp_path)]) == 0
    assert calls.count("prepare_correlated_inputs") == 1
    assert calls.count("evolve_and_reduce") == 1
    assert calls.count("psd_eigvalsh") == 1
    # one Choi spectrum for the stack of all rows
    assert calls.count("eigvalsh") == 1


def test_recover3q_artifacts(tmp_path):
    assert main(["run", "--config", f"{CONFIG_DIR}/recover3q.json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "recovery_report.json").read_text())
    assert report["n_samples"] == 57
    assert report["pairing"]["n_entries"] == 64
    assert report["quality"]["clipped_mass"] < report["quality"]["clipped_mass_tol"]
    samples_lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert samples_lines[0] == "k,f_real,f_imag"
    assert len(samples_lines) == 58
    recovered = (tmp_path / "recovered_profile.csv").read_text().splitlines()
    assert recovered[0] == "delta_omega,weight"
    assert len(recovered) == 102


@pytest.mark.filterwarnings("error")
def test_recover_the_four_qubit_fixture_through_the_cli(tmp_path):
    # README's config table offers this fixture; the run is held to C08's bounds
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_bundled("recover3q.json", lambda c: c.update(fixture="four_qubit"))))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "recovery_report.json").read_text())
    assert report["fixture"] == "four_qubit"
    assert report["n_samples"] == 241
    assert report["pairing"]["n_warnings"] == 0
    true_m, rec_m = report["true_profile_moments"], report["recovered_moments"]
    assert abs(rec_m["mean"] - true_m["mean"]) < report["grid"]["bin_width"]
    assert abs(rec_m["std"] - true_m["std"]) / true_m["std"] < 0.30
    assert report["quality"]["clipped_mass"] < 0.1


def test_profile_csv_round_trip(tmp_path):
    # the profile CSVs of rud_build and recover_profile parse back to the
    # configured profile, bit for bit
    for config, name in (("rud2q.json", "profile.csv"), ("recover3q.json", "true_profile.csv")):
        out = tmp_path / config
        assert main(["run", "--config", f"{CONFIG_DIR}/{config}", "--out", str(out)]) == 0
        text = (out / name).read_text()
        assert text.splitlines()[0] == "delta_omega,weight"
        written, configured = parse_profile_csv(text), load_config(f"{CONFIG_DIR}/{config}").fields["profile"]
        assert np.array_equal(written.delta_omega, configured.delta_omega)
        assert np.array_equal(written.weight, configured.weight)


def test_recovery_report_reads_the_applied_tolerances_and_moments(tmp_path):
    assert main(["run", "--config", f"{CONFIG_DIR}/recover3q.json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "recovery_report.json").read_text())
    assert report["pairing"]["match_tol"] == MATCH_TOL
    recovered = parse_profile_csv((tmp_path / "recovered_profile.csv").read_text())
    assert report["recovered_moments"] == profile_metrics(recovered)._asdict()


def test_recovery_report_states_the_moments_of_the_profile_it_wrote(tmp_path):
    # the profile's centre is the one shift of the channel's profile
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_bundled("recover3q.json", lambda c: c["profile"].update(center=0.05))))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "recovery_report.json").read_text())
    truth = profile_metrics(parse_profile_csv((out / "true_profile.csv").read_text()))
    assert report["true_profile_moments"] == truth._asdict()
    assert truth.mean > 0.05
    recovered_mean = report["recovered_moments"]["mean"]
    assert abs(recovered_mean - truth.mean) < report["grid"]["bin_width"]


def test_recovery_writes_every_fourier_point_of_the_sample_set(tmp_path):
    # samples.csv holds the mirror half, the DC anchor and the stored half
    assert main(["run", "--config", f"{CONFIG_DIR}/recover3q.json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "recovery_report.json").read_text())
    f = load_config(f"{CONFIG_DIR}/recover3q.json").fields
    samples = build_samples(pair_eigenvalues(rf_incoherent_channel(f["h0"], f["k"], f["profile"]), f["h0"], f["k"]))
    k, f_real, f_imag = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1).T
    k_all, f_all = samples.mirrored()
    assert np.array_equal(k, k_all) and np.array_equal(f_real + 1j * f_imag, f_all)
    assert report["n_samples"] == k.size == len(samples)
    assert sorted(report) == ["fixture", "grid", "mode", "n_samples", "pairing", "quality", "recovered_moments",
                              "true_profile_moments"]
    assert sorted(report["quality"]) == ["clipped_mass", "clipped_mass_tol"]


def test_recovery_report_states_the_certified_radius(tmp_path):
    assert main(["run", "--config", f"{CONFIG_DIR}/recover3q.json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "recovery_report.json").read_text())
    f = load_config(f"{CONFIG_DIR}/recover3q.json").fields
    pairing = pair_eigenvalues(rf_incoherent_channel(f["h0"], f["k"], f["profile"]), f["h0"], f["k"])
    radius = max(e.radius for e in pairing.entries if e.j != e.m)
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
    # every file, the manifest too, keeps the private mode of its temporary file
    paths = sorted(tmp_path.iterdir())
    assert [p.name for p in paths] == ["manifest.json", "qpt_report.json"]
    for path in paths:
        assert stat.S_IMODE(path.stat().st_mode) == 0o600, path


def test_every_json_artifact_equals_the_stdlib_encoding_of_its_content(tmp_path):
    for config in sorted(CONFIG_DIR.glob("*.json")):
        out = tmp_path / config.stem
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        documents = sorted(out.glob("*.json"))
        assert out / "manifest.json" in documents
        for path in documents:
            data = path.read_bytes()
            stdlib = json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n"
            assert data == stdlib.encode(), path


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    cfg = load_config(f"{CONFIG_DIR}/eq4_demo.json")

    def failing_write(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", failing_write)
    with pytest.raises(OSError, match="No space left on device"):
        run_scenario(cfg, str(tmp_path / "out"))
    monkeypatch.undo()
    assert list((tmp_path / "out").iterdir()) == []


def test_short_writes_are_completed(tmp_path, monkeypatch):
    cfg = load_config(f"{CONFIG_DIR}/table1.json")
    run_scenario(cfg, str(tmp_path / "whole"))
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(write(fd, bytes(data[:1000])))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    run_scenario(cfg, str(tmp_path / "short"))
    monkeypatch.undo()
    assert len(sizes) > 2 and max(sizes) == 1000
    for path in sorted((tmp_path / "whole").iterdir()):
        assert (tmp_path / "short" / path.name).read_bytes() == path.read_bytes()
    assert len(list((tmp_path / "short").iterdir())) == 2


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
    "grid-huge-span": ("recover3q.json", lambda c: c["grid"].update(min=-1e308, max=1e308)),
    "profile-two-points": ("recover3q.json", lambda c: c["profile"].update(n_points=2)),
    "profile-zero-width": ("recover3q.json", lambda c: c["profile"].update(width=0.0)),
    "profile-negative-width": ("recover3q.json", lambda c: c["profile"].update(width=-0.05)),
    "profile-skew-on-gaussian": ("recover3q.json", lambda c: c["profile"].update(kind="gaussian")),
    "profile-skew-on-uniform": ("recover3q.json", lambda c: c["profile"].update(kind="uniform")),
    "profile-skew-one": ("recover3q.json", lambda c: c["profile"].update(skew=1.0)),
    "profile-skew-minus-one": ("recover3q.json", lambda c: c["profile"].update(skew=-1.0)),
    "rud-profile-two-points": ("rud2q.json", lambda c: c["profile"].update(n_points=2)),
    # refused by name before numpy computes an overflowing support
    "profile-huge-width": ("recover3q.json", lambda c: c["profile"].update(width=1e308)),
    # refused before the profile or the grid is allocated
    "profile-huge-n-points": ("recover3q.json", lambda c: c["profile"].update(n_points=10**11)),
    "grid-huge-n-bins": ("recover3q.json", lambda c: c["grid"].update(n_bins=10**11)),
    # a fixture fixes h0 and k
    "h0-with-fixture": ("recover3q.json", lambda c: c.update(h0="1.0 * ZZZ")),
    "no-fixture-no-generators": ("recover3q.json", lambda c: c.pop("fixture")),
    # fields the modes no longer have, whatever their value
    "negative-cp-tol": ("eq4_demo.json", lambda c: c.update(cp_tol=-1)),
    "bool-cp-tol": ("eq4_demo.json", lambda c: c.update(cp_tol=True)),
    "infinite-cp-tol": ("eq4_demo.json", lambda c: c.update(cp_tol=float("inf"))),
    "t-with-fixture": ("recover3q.json", lambda c: c.update(t=2.0)),
    "bool-t": ("rud2q.json", lambda c: c.update(t=True)),
    "bool-offset": ("recover3q.json", lambda c: c.update(offset=False)),
    "infinite-offset": ("recover3q.json", lambda c: c.update(offset=float("inf"))),
    "unknown-method": ("recover3q.json", lambda c: c.update(method="fft")),
    # a bool where a number or an integer belongs
    "bool-alpha": ("eq4_demo.json", lambda c: c["scenarios"][0].update(alpha=True)),
    "bool-width": ("recover3q.json", lambda c: c["profile"].update(width=True)),
    "bool-n-points": ("recover3q.json", lambda c: c["profile"].update(n_points=True)),
    "bool-n-bins": ("recover3q.json", lambda c: c["grid"].update(n_bins=True)),
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
    "bad-pauli-sum": ("rud2q.json", lambda c: c.update(k="0.1 * ZQ")),
    "pauli-coefficient-overflow": ("eq4_demo.json", lambda c: c.update(u_ab="1e999 * ZZ")),
    # finite coefficients whose sum overflows
    "pauli-sum-overflow-u-ab": ("eq4_demo.json", lambda c: c.update(u_ab="1e308 * ZZ + 1e308 * ZZ")),
    "pauli-sum-overflow-h0": ("rud2q.json", lambda c: c.update(h0="1e308 * ZZ + 1e308 * ZZ")),
    # refused before its 2**40-square matrix is allocated
    "pauli-string-too-long": ("rud2q.json", lambda c: c.update(k="0.1 * " + "Z" * 40)),
    # the joint unitary acts on the system and the environment qubit
    "u-ab-not-two-qubit": ("eq4_demo.json", lambda c: c.update(u_ab="0.7 * ZZZ")),
    # h0 and k on different qubit counts
    "rud-h0-k-sizes": ("rud2q.json", lambda c: c.update(h0="0.5 * ZI", k="0.1 * Z")),
    "recover-h0-k-sizes": ("recover3q.json", lambda c: (
        c.pop("fixture"), c.update(h0="0.5 * ZI", k="0.1 * Z"))),
    # JSON NaN and Infinity, and an integer beyond the float range
    "nan-alpha": ("eq4_demo.json", lambda c: c["scenarios"][0].update(alpha=float("nan"))),
    "huge-integer-center": ("recover3q.json", lambda c: c["profile"].update(center=10**400)),
    "infinite-grid-min": ("recover3q.json", lambda c: c["grid"].update(min=float("-inf"))),
    "nan-skew": ("recover3q.json", lambda c: c["profile"].update(skew=float("nan"))),
    # a number that is not one, or not of the kind its field reads
    "string-width": ("recover3q.json", lambda c: c["profile"].update(width="0.05")),
    "null-alpha": ("eq4_demo.json", lambda c: c["scenarios"][0].update(alpha=None)),
    "float-n-points": ("recover3q.json", lambda c: c["profile"].update(n_points=41.0)),
    "kind-not-string": ("recover3q.json", lambda c: c["profile"].update(kind=["skewed"])),
    # a field in a mode that does not read it (no mode reads method)
    "method-in-qpt-demo": ("eq4_demo.json", lambda c: c.update(method="least_squares")),
    "method-in-rud-build": ("rud2q.json", lambda c: c.update(method="least_squares")),
    "cp-tol-in-recover-profile": ("recover3q.json", lambda c: c.update(cp_tol=1e-9)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_fails_validate(case, tmp_path, capsys):
    name, edit = MALFORMED[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_bundled(name, edit)))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


# The library states each refusal of a config number, under the name of the
# object that holds it; the reader adds the prefix once.
NAMED_REFUSALS = {
    "string-width": "config.profile: width must be a real number, got '0.05'",
    "null-alpha": "config.scenarios[0]: alpha must be a real number, got None",
    "infinite-grid-min": "config.grid: grid delta_omega_min must be finite, got -inf",
    "nan-skew": "config.profile: skew must be finite, got nan",
    "float-n-points": "config.profile: n_points must be an integer, got 41.0",
    "kind-not-string": "config.profile: unknown profile kind ['skewed'], expected 'uniform', 'gaussian' or 'skewed'",
    "pauli-sum-overflow-h0": "config.h0: the matrix of '1e308 * ZZ + 1e308 * ZZ' is not finite",
}


@pytest.mark.parametrize("case", sorted(NAMED_REFUSALS))
def test_config_number_refusals_name_the_object_and_the_field(case, tmp_path, capsys):
    name, edit = MALFORMED[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_bundled(name, edit)))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {NAMED_REFUSALS[case]}"]


def test_each_config_number_is_checked_once(monkeypatch):
    calls = []

    def counted(check):
        def count(x, name):
            calls.append(name)
            return check(x, name)
        return count

    for module in (cli, channels, nudft):
        for check in ("real_scalar", "integer"):
            if hasattr(module, check):
                monkeypatch.setattr(module, check, counted(getattr(validation, check)))
    # explicit generators: a fixture's build reads its own integers
    parse_config(_bundled("recover3q.json", lambda c: (c.pop("fixture"), c.update(h0="0.5 * ZI", k="0.1 * IZ"))))
    assert sorted(calls) == sorted(["center", "width", "skew", "n_points",
                                    "grid delta_omega_min", "grid delta_omega_max", "grid n_bins"])
    calls.clear()
    load_config(f"{CONFIG_DIR}/table1.json")
    assert sorted(calls) == sorted(["alpha", "beta", "gamma"] * 5)


def test_integer_valued_config_gives_the_artifacts_of_its_float_twin(tmp_path):
    # a JSON integer is read as the float it equals, and written as that float
    edits = {
        "recover3q.json": lambda c, x: (c["grid"].update(min=x(-1)), c["profile"].update(center=x(0))),
        "eq4_demo.json": lambda c, x: c["scenarios"][0].update(alpha=x(1), beta=x(0), gamma=x(0)),
    }
    for name, edit in edits.items():
        outs = []
        for number in (int, float):
            path = tmp_path / f"{number.__name__}_{name}"
            path.write_text(json.dumps(_bundled(name, lambda c: edit(c, number))))
            outs.append(tmp_path / f"{number.__name__}_{Path(name).stem}")
            assert main(["run", "--config", str(path), "--out", str(outs[-1])]) == 0
        files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in outs]
        manifests = [json.loads(f.pop("manifest.json")) for f in files]
        assert files[0] == files[1], name
        assert manifests[0]["files"] == manifests[1]["files"], name
        assert manifests[0]["config_hash"] != manifests[1]["config_hash"], name


# The profile's centre is its only shift and h0's coefficients its only
# scale, so neither mode has an offset or a t field; the profile is inverted
# one way, so recover_profile has no method field; the CP test reads the
# constant liouville.CP_TOL, so neither CP-testing mode has a cp_tol field.
REMOVED_FIELDS = {
    "recover-method": ("recover3q.json", "method"),
    "recover-offset": ("recover3q.json", "offset"),
    "recover-t": ("recover3q.json", "t"),
    "rud-t": ("rud2q.json", "t"),
    "qpt-cp-tol": ("eq4_demo.json", "cp_tol"),
    "rud-cp-tol": ("rud2q.json", "cp_tol"),
}


@pytest.mark.parametrize("case", sorted(REMOVED_FIELDS))
def test_removed_field_is_unknown(case, tmp_path, capsys):
    name, key = REMOVED_FIELDS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_bundled(name, lambda c: c.update({key: 0.5}))))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: unknown field(s) [{key!r}] in config"]
    assert not out.exists()


def test_overflowing_joint_state_is_a_named_numerical_failure(tmp_path, capsys):
    # finite parameters whose joint state overflows: the run must exit 2 with
    # the state named, not raise numpy's overflow warning as an error first
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_bundled(
        "eq4_demo.json", lambda c: c["scenarios"][0].update(alpha=1e308, beta=0.0, gamma=1e308))))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: joint input state 2 is not finite "
        "for (alpha, beta, gamma) = (1e+308, 0.0, 1e+308)"
    ]
    assert not out.exists()


def test_negative_cp_tol_is_rejected_from_file_and_flag(tmp_path, capsys):
    # no CP tolerance is set by a user, in the file (test_removed_field_is_unknown
    # has a positive value) or by a flag
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_bundled("eq4_demo.json", lambda c: c.update(cp_tol=-1e-9))))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: unknown field(s) ['cp_tol'] in config"]
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", f"{CONFIG_DIR}/eq4_demo.json", "--out", str(out), "--tol", "0"])
    assert exc.value.code == 64
    assert not out.exists()


def test_run_help_lists_only_config_and_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    options = re.findall(r"--[a-z]+", capsys.readouterr().out)
    assert sorted(set(options)) == ["--config", "--help", "--out"]


def test_usage_errors_exit_64_apart_from_numerical_failures(tmp_path, capsys):
    config = f"{CONFIG_DIR}/eq4_demo.json"
    out = str(tmp_path / "out")
    for argv in (
        ["run", "--config", config, "--out", out, "--bogus"],
        ["run", "--config", config],
        ["check", "--config", config],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64, argv
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # main builds its parser on the first call in a process and reuses it
    # after; each reused call must behave as that first call
    config = f"{CONFIG_DIR}/table1.json"
    cli._parser.cache_clear()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", config])
        assert exc.value.code == 64
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "required: --out" in errors[0]
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "qpt_report.json").is_file()
    capsys.readouterr()
    assert main(["validate", "--config", config]) == 0
    assert capsys.readouterr().out == "ok: mode=qpt_demo\n"
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith("usage: qincoh")
    assert cli._parser() is cli._parser()


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mode": "recover_profile", "h0": "0.5 * Z", "k": "0.1 * Z",
        "profile": {"kind": "gaussian", "width": 0.05},
        "grid": {"min": -0.25, "max": 0.25, "n_bins": 101},
    }))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "need at least 5 samples, got 3" in capsys.readouterr().err
    assert not out.exists()


def test_aliasing_grid_is_a_named_numerical_failure(tmp_path, capsys):
    # recover3q's samples reach max|k| = 79.2, so 11 bins over +-0.25
    # (bin width 0.05) alias them
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_bundled("recover3q.json", lambda c: c["grid"].update(n_bins=11))))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "numerical failure: grid bin width 0.05 times max|k| 79.2 is 3.96, "
        "not below pi: the samples alias on this grid"
    )
    assert not out.exists()


def test_unwritable_out_is_an_output_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a regular file")
    assert main(["run", "--config", f"{CONFIG_DIR}/eq4_demo.json", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output error:"), err
    assert out.read_text() == "a regular file"


def _config_tables(text: str) -> dict[str, dict[str, Any]]:
    """The "Config fields" table of a README as ``{object: {field: default}}``.

    A default cell reads ``required`` (``cli._REQUIRED``), ``none`` (None) or
    a JSON literal in backticks, which may be followed by a note."""
    section = text.split("### Config fields", 1)[1].split("\n#", 1)[0]
    tables: dict[str, dict[str, Any]] = {}
    obj = None
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0] in ("Object", "---"):
            continue
        obj = cells[0].strip("`") or obj
        default = cells[3]
        if default == "required":
            default = cli._REQUIRED
        elif default == "none":
            default = None
        else:
            default = json.loads(re.match(r"`([^`]+)`", default).group(1))
        for key in re.findall(r"`([^`]+)`", cells[1]):
            tables.setdefault(obj, {})[key] = default
    return tables


def test_readme_config_table_matches_cli_tables():
    tables = {
        "every mode": cli._COMMON, **cli._MODES,
        "scenario": cli._SCENARIO, "profile": cli._PROFILE, "grid": cli._GRID,
    }
    documented = _config_tables((CONFIG_DIR.parent / "README.md").read_text())
    assert documented.keys() == tables.keys()
    for obj, table in tables.items():
        assert documented[obj].keys() == table.keys(), obj
        for key, (_, default) in table.items():
            doc = documented[obj][key]
            assert doc == default and type(doc) is type(default), (obj, key, doc, default)


def test_config_table_reader_sees_objects_fields_and_defaults():
    text = (
        "### Config fields\n\n"
        "| Object | Field | Type | Default |\n"
        "|---|---|---|---|\n"
        "| `qpt_demo` | `u_ab` | 2-qubit Pauli sum | required |\n"
        "| | `cp_tol` | number ≥ 0 | `1e-9` (`liouville.CP_TOL`) |\n"
        "| `recover_profile` | `h0`, `k` | Pauli sum | none |\n"
        "| | `kind` | `uniform` or `skewed` | `\"skewed\"` |\n"
        "| scenario | `correlated` | boolean | `true` |\n"
        "\n## Next section\n| `x` | `y` | z | `1` |\n"
    )
    assert _config_tables(text) == {
        "qpt_demo": {"u_ab": cli._REQUIRED, "cp_tol": 1e-9},
        "recover_profile": {"h0": None, "k": None, "kind": "skewed"},
        "scenario": {"correlated": True},
    }


def test_parsing_builds_the_profile_grid_and_generators():
    cfg = load_config(f"{CONFIG_DIR}/recover3q.json")
    h0t, k = three_qubit_fixture()
    assert np.array_equal(cfg.fields["h0"], h0t) and np.array_equal(cfg.fields["k"], k)
    assert cfg.fields["grid"] == RecoveryGrid(-0.25, 0.25, 101)
    expected = make_synthetic_profile("skewed", width=0.05, skew=0.5, n_points=41)
    assert np.array_equal(cfg.fields["profile"].weight, expected.weight)
    raw = {"mode": "recover_profile", "h0": "0.25 * ZI", "k": "1.0 * IZ",
           "profile": {"kind": "uniform", "width": 0.1}, "grid": {"min": -1, "max": 1, "n_bins": 8}}
    cfg = parse_config(raw)
    assert np.array_equal(cfg.fields["h0"], parse_pauli_sum("0.25 * ZI"))
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
    # the one CP rule of the package, applied to the written superoperator
    matrix = json.loads((tmp_path / "superoperator.json").read_text())
    spectrum = choi_spectrum(np.array(matrix["real"]) + 1j * np.array(matrix["imag"]))
    assert report["min_choi_eigenvalue"] == spectrum[-1]
    assert report["is_cp"] == bool(spectrum[-1] >= -CP_TOL)
    assert report["cp_tol"] == CP_TOL
    checked = {key: v for key, v in report.items() if isinstance(v, dict)}
    assert set(checked) == {
        "unitality_residual", "trace_preservation_residual", "max_eigenvalue_modulus",
    }
    for key, v in checked.items():
        bound = 1 + v["tol"] if key == "max_eigenvalue_modulus" else v["tol"]
        assert v["value"] <= bound, key

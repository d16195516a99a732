"""Tests of the benchmark's own code: fixture generator, output checks, tracer.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""
import contextlib
import io
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qincoh.spectral import ProfileMoments, _SIDON_LEVELS  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fixtures import mian_chowla, sidon_fixture  # noqa: E402


def test_mian_chowla_reproduces_package_levels():
    assert mian_chowla(16) == [int(x) for x in _SIDON_LEVELS]


def test_32_levels_have_distinct_pairwise_differences():
    levels = mian_chowla(32)
    diffs = [a - b for a in levels for b in levels if a != b]
    assert len(diffs) == len(set(diffs)) == 32 * 31


def test_sidon_fixture_is_seeded_and_hermitian():
    h0t, k = sidon_fixture(5, np.random.default_rng([3, 5]))
    again, _ = sidon_fixture(5, np.random.default_rng([3, 5]))
    assert h0t.shape == k.shape == (32, 32)
    assert np.array_equal(h0t, again)
    assert np.allclose(h0t, h0t.conj().T) and np.allclose(k, k.conj().T)


def _run(wl):
    wl.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        return wl.op()


def test_default_seed_reproduces_bundled_configs(tmp_path):
    wl = workloads.RecoverCli(workloads.DEFAULT_SEED, tmp_path / "r")
    assert json.loads(wl.config_path.read_text()) == workloads.load_config("recover3q.json")
    wl = workloads.QptCli(workloads.DEFAULT_SEED, tmp_path / "q")
    assert json.loads(wl.config_path.read_text()) == workloads.load_config("table1.json")


def test_other_seeds_draw_physical_scenarios():
    raw = workloads.vary_scenarios(workloads.load_config("table1.json"), 11)
    for sc in raw["scenarios"]:
        a, b, g = sc["alpha"], sc["beta"], sc["gamma"]
        assert min(1 + s * a + t * b + s * t * g for s in (1, -1) for t in (1, -1)) >= 0.1


def test_corrupted_artifact_counts_as_failure(tmp_path):
    wl = workloads.RecoverCli(workloads.DEFAULT_SEED, tmp_path)
    assert wl.check(_run(wl)).failures == []
    assert wl.check(_run(wl)).failures == []
    samples = wl.out_dir / "samples.csv"
    data = bytearray(samples.read_bytes())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    samples.write_bytes(bytes(data))
    failures = wl.check(0).failures
    assert any("manifest hash" in f for f in failures)
    assert any("differ from the first run" in f for f in failures)


def test_nonzero_exit_counts_as_failure(tmp_path):
    wl = workloads.QptCli(workloads.DEFAULT_SEED, tmp_path)
    assert wl.check(2).failures == ["exit code 2"]


def test_moment_outside_bound_counts_as_failure(tmp_path):
    wl = workloads.RecoverCli(workloads.DEFAULT_SEED, tmp_path)
    assert wl.check(_run(wl)).failures == []
    report = json.loads((wl.out_dir / "recovery_report.json").read_text())
    bin_width = report["grid"]["bin_width"]

    shifted = json.loads(json.dumps(report))
    shifted["recovered_moments"]["mean"] += 1.5 * bin_width
    out = workloads.Outcome()
    wl.check_report(shifted, out)
    assert any("mean off" in f for f in out.failures)

    widened = json.loads(json.dumps(report))
    widened["recovered_moments"]["std"] *= 1.5
    out = workloads.Outcome()
    wl.check_report(widened, out)
    assert any("std off" in f for f in out.failures)


def test_five_qubit_moment_check():
    true_m = ProfileMoments(0.0, 0.05, 0.6)
    out = workloads.Outcome()
    workloads.check_moments(true_m, ProfileMoments(0.001, 0.051, -0.2), 0.005, 0.01, False, out)
    assert out.failures == []
    workloads.check_moments(true_m, ProfileMoments(0.0, 0.08, 0.6), 0.005, 0.2, False, out)
    assert len(out.failures) == 2


def test_qpt_check_flags_a_wrong_kraus_count(tmp_path):
    wl = workloads.QptCli(workloads.DEFAULT_SEED, tmp_path)
    assert wl.check(_run(wl)).failures == []
    report = json.loads((wl.out_dir / "qpt_report.json").read_text())
    report["scenarios"][2]["kraus_count"] = 1
    out = workloads.Outcome()
    wl.check_report(report, out)
    assert out.failures == ["ex1_uncorrelated: (is_cp, kraus) (True, 1), C03 has (True, 2)"]


def test_tracer_self_time_and_missing_functions(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner():
        return sum(range(20000))

    def outer():  # looks inner up in its module, as a layer calls another
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = tracing.Tracer()
    tracer.install([
        ("fake_layer", "outer", "layer.outer", None),
        ("fake_layer", "inner", "layer.inner", None),
        ("fake_layer", "absent", "layer.absent", None),
    ])
    try:
        mod.outer()  # outside an operation: not recorded
        with tracer.operation():
            mod.outer()
    finally:
        tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    (prof,) = tracer.op_profiles()
    assert prof["layer.outer"][0] == 1 and prof["layer.inner"][0] == 2
    assert "layer.absent" not in prof
    calls, incl, self_s = prof["layer.outer"]
    assert self_s == pytest.approx(incl - prof["layer.inner"][1])
    assert prof["op"][2] >= 0.0


def test_layer_values_are_zero_where_a_layer_does_not_run():
    values = tracing.op_layer_values({"op": [1, 0.01, 0.01]}, {}, workloads.Outcome())
    assert set(values) | {"trace.overhead_s"} == set(run.declared_units("per_layer"))
    assert all(v == 0 for k, v in values.items() if k != "trace.uncovered_s")


def test_benchmark_json_names_the_workloads():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in doc["workloads"])
    assert names == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)

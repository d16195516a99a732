"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by name and reads their arguments and results.  These tests run it over one
``qincoh run`` of each traced mode, so a package change that breaks a name or
a signature it binds fails here, not only in a traced benchmark run."""
import sys
import types
from pathlib import Path

import pytest

from qincoh import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_DIR = ROOT / "perfbench"
CONFIG_DIR = ROOT / "configs"

# The spans each run must record: the layers whose arguments or results the
# tracer reads, and the calls it counts.
EXPECTED_SPANS = {
    "recover3q.json": (
        "cli.main",
        "channels.make_synthetic_profile",
        "channels.rf_incoherent_channel",
        "spectral.three_qubit_fixture",
        "spectral.pair_eigenvalues",
        "spectral.build_samples",
        "nudft.inverse_nudft",
        "spectral.profile_metrics",
    ),
    "table1.json": (
        "cli.main",
        "channels.expm_unitary",
        "tomography.prepare_correlated_inputs",
        "tomography.evolve_and_reduce",
    ),
}


@pytest.fixture
def tracing(monkeypatch):
    """``perfbench/tracing.py``, imported from the benchmark's directory; the
    benchmark modules it imports are dropped again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    before = set(sys.modules)
    import tracing

    yield tracing
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == PERFBENCH_DIR:
            del sys.modules[name]


@pytest.mark.parametrize("config", sorted(EXPECTED_SPANS))
def test_tracer_plan_runs_over_one_cli_operation(config, tracing, tmp_path, capsys):
    main = cli.main
    tracer = tracing.Tracer()
    tracer.install(tracing.PLAN)
    try:
        with tracer.operation():
            code = cli.main(["run", "--config", str(CONFIG_DIR / config), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert cli.main is main
    (prof,), (cap,) = tracer.op_profiles(), tracer.captures
    assert [name for name in EXPECTED_SPANS[config] if name not in prof] == []
    outcome = types.SimpleNamespace(bytes_written=0, files_written=0, mean_abs_err=None, std_rel_err=None)
    values = tracing.op_layer_values(prof, cap, outcome)
    if config == "recover3q.json":
        assert values["channels.members"] == 41
        assert values["spectral.n_samples"] == 57
        assert 0.0 < values["spectral.first_order_residual"] < 1e-6
    else:
        assert values["tomography.prepare_calls"] == values["tomography.evolve_calls"] == 1

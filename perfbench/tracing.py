"""Span tracing of the package's layers, done entirely from the benchmark.

``Tracer.install`` replaces each public function named in ``PLAN`` by a
recorder, in the namespace of the module that calls it (``qincoh.cli``
calls ``pair_eigenvalues`` through its own global, so that is the binding
wrapped), and puts counting shims on ``numpy.linalg``'s eigensolvers, the
LAPACK boundary below the package.  A span records name, start, end and
parent; the spans of one operation share its index.  A function missing from
its module is skipped, so a later change that removes a call shows up as a
count of 0, not as an error.

Self time is a span's duration minus the durations of its direct children;
the root span of an operation therefore has the time no other span covers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.captures: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, capture=None):
        signature = inspect.signature(fn) if capture else None

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1], len(self.captures) - 1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if capture is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                capture(bound.arguments, result, self.captures[-1])
            return result

        return recorder

    def install(self, plan) -> None:
        for module_name, attr, name, capture in plan:
            module = sys.modules.get(module_name) or importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, capture))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def operation(self):
        """Root span of one operation; spans fire only inside it."""
        self.captures.append({})
        span = Span("op", time.perf_counter(), 0.0, None, len(self.captures) - 1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def op_profiles(self) -> list[dict[str, list[float]]]:
        """Per operation: span name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        profiles: list[dict[str, list[float]]] = [{} for _ in self.captures]
        for i, s in enumerate(self.spans):
            entry = profiles[s.op].setdefault(s.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += s.end - s.start
            entry[2] += s.end - s.start - child[i]
        return profiles


# --- captures: per-operation attributes read from arguments and results ---

def _capture_channel(a, result, cap):
    n = a["h0"].shape[0]
    cap["members"] = cap.get("members", 0) + len(a["profile"])
    cap["superop_bytes"] = cap.get("superop_bytes", 0) + 16 * n**4
    cap["channel"] = (a["h0"] * a["t"], a["k"], a["profile"])


def _capture_pairing(a, result, cap):
    cap["pairing"] = result


def _capture_samples(a, result, cap):
    cap["n_samples"] = cap.get("n_samples", 0) + len(result)


def _capture_inverse(a, result, cap):
    cap["clipped_mass"] = max(cap.get("clipped_mass", 0.0), result.clipped_mass)
    cap["imag_residual"] = max(cap.get("imag_residual", 0.0), result.imag_residual)


def _capture_qpt_solve(a, result, cap):
    cap["input_cond"] = max(cap.get("input_cond", 0.0), result[1])


_CLI_CALLS = {
    "rf_incoherent_channel": ("channels.rf_incoherent_channel", _capture_channel),
    "expm_unitary": ("channels.expm_unitary", None),
    "make_synthetic_profile": ("channels.make_synthetic_profile", None),
    "profile_to_csv": ("channels.profile_to_csv", None),
    "eig_general": ("liouville.eig_general", None),
    "is_cp": ("liouville.is_cp", None),
    "pair_eigenvalues": ("spectral.pair_eigenvalues", _capture_pairing),
    "build_samples": ("spectral.build_samples", _capture_samples),
    "profile_metrics": ("spectral.profile_metrics", None),
    "detect_offset": ("spectral.detect_offset", None),
    "three_qubit_fixture": ("spectral.three_qubit_fixture", None),
    "four_qubit_fixture": ("spectral.four_qubit_fixture", None),
    "inverse_nudft": ("nudft.inverse_nudft", _capture_inverse),
    "run_qpt_scenario": ("tomography.run_qpt_scenario", None),
    "prepare_correlated_inputs": ("tomography.prepare_correlated_inputs", None),
    "evolve_and_reduce": ("tomography.evolve_and_reduce", None),
}

PLAN = (
    [("qincoh.cli", "main", "cli.main", None)]
    + [("qincoh.cli", attr, name, cap) for attr, (name, cap) in _CLI_CALLS.items()]
    + [
        ("qincoh.spectral", "eig_general", "liouville.eig_general", None),
        ("qincoh.tomography", "prepare_correlated_inputs", "tomography.prepare_correlated_inputs", None),
        ("qincoh.tomography", "evolve_and_reduce", "tomography.evolve_and_reduce", None),
        ("qincoh.tomography", "qpt_solve", "tomography.qpt_solve", _capture_qpt_solve),
        ("qincoh.tomography", "is_cp", "liouville.is_cp", None),
        ("qincoh.tomography", "cp_filter", "liouville.cp_filter", None),
        ("qincoh.tomography", "choi_to_kraus", "liouville.choi_to_kraus", None),
        ("qincoh.tomography", "eig_hermitian", "liouville.eig_hermitian", None),
    ]
    + [("workloads", attr, name, cap) for attr, (name, cap) in _CLI_CALLS.items()
       if attr in ("rf_incoherent_channel", "pair_eigenvalues", "build_samples",
                   "inverse_nudft", "profile_metrics")]
    + [("numpy.linalg", fn, f"numpy.linalg.{fn}", None) for fn in ("eig", "eigvals", "eigh", "eigvalsh")]
)

CP_DIAG = ("liouville.is_cp", "liouville.cp_filter", "liouville.choi_to_kraus", "liouville.eig_hermitian")


def first_order_residual(cap: dict) -> float:
    """max |lambda - predict_eigenvalues| over the paired labels (0 if none).

    Call with the tracer outside an operation so the prediction is not traced.
    """
    from qincoh.spectral import predict_eigenvalues

    if "pairing" not in cap or "channel" not in cap:
        return 0.0
    h0t, k, profile = cap["channel"]
    predicted = predict_eigenvalues(h0t, k, profile)
    return max(abs(e.lambda_measured - predicted[e.j, e.m]) for e in cap["pairing"].entries)


def op_layer_values(prof: dict, cap: dict, outcome) -> dict[str, float]:
    """Per-layer values of one traced operation."""

    def calls(*names):
        return sum(prof[n][0] for n in names if n in prof)

    def incl(*names):
        return sum(prof[n][1] for n in names if n in prof)

    def self_s(name):
        return prof[name][2] if name in prof else 0.0

    pairing = cap.get("pairing")
    n_samples = cap.get("n_samples", 0)
    lost = 0
    if pairing is not None:
        n = int(round(len(pairing.entries) ** 0.5))
        lost = n * n - n + 1 - n_samples
    return {
        "channels.build_s": incl("channels.rf_incoherent_channel"),
        "channels.members": cap.get("members", 0),
        "channels.superop_bytes": cap.get("superop_bytes", 0),
        "liouville.eig_general_s": incl("liouville.eig_general"),
        "liouville.eig_general_calls": calls("liouville.eig_general"),
        "liouville.cp_diag_s": incl(*CP_DIAG),
        "liouville.cp_diag_calls": calls(*CP_DIAG),
        "spectral.pair_self_s": self_s("spectral.pair_eigenvalues"),
        "spectral.samples_s": incl("spectral.build_samples"),
        "spectral.n_samples": n_samples,
        "spectral.samples_lost": lost,
        "spectral.pair_warnings": len(pairing.warnings) if pairing else 0,
        "spectral.max_match_distance": max(e.distance for e in pairing.entries) if pairing else 0.0,
        "spectral.first_order_residual": first_order_residual(cap),
        "nudft.inverse_s": incl("nudft.inverse_nudft"),
        "nudft.clipped_mass": cap.get("clipped_mass", 0.0),
        "nudft.imag_residual": cap.get("imag_residual", 0.0),
        "tomography.scenario_self_s": self_s("tomography.run_qpt_scenario"),
        "tomography.evolve_calls": calls("tomography.evolve_and_reduce"),
        "tomography.prepare_calls": calls("tomography.prepare_correlated_inputs"),
        "tomography.input_cond": cap.get("input_cond", 0.0),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": outcome.bytes_written,
        "cli.files_written": outcome.files_written,
        "numpy.linalg.eig_calls": calls("numpy.linalg.eig", "numpy.linalg.eigvals"),
        "numpy.linalg.eig_s": incl("numpy.linalg.eig", "numpy.linalg.eigvals"),
        "numpy.linalg.eigh_calls": calls("numpy.linalg.eigh", "numpy.linalg.eigvalsh"),
        "numpy.linalg.eigh_s": incl("numpy.linalg.eigh", "numpy.linalg.eigvalsh"),
        "recovery.mean_abs_err": outcome.mean_abs_err or 0.0,
        "recovery.std_rel_err": outcome.std_rel_err or 0.0,
        "trace.uncovered_s": self_s("op"),
    }


def layer_metrics(tracer: Tracer, scales: list[float], outcomes: list, overhead_s: float) -> dict[str, float]:
    """Median over the traced operations of each per-layer value.

    ``scales`` turn each operation's wall seconds into reference seconds;
    they apply to every ``*_s`` value of that operation.
    """
    rows = []
    for prof, cap, scale, outcome in zip(tracer.op_profiles(), tracer.captures, scales, outcomes):
        row = op_layer_values(prof, cap, outcome)
        rows.append({k: v * scale if k.endswith("_s") else v for k, v in row.items()})
    metrics = {name: float(statistics.median(r[name] for r in rows)) for name in rows[0]}
    metrics["trace.overhead_s"] = overhead_s
    return metrics


SWEEP_STAGES = (
    "channels.rf_incoherent_channel", "liouville.eig_general", "spectral.pair_eigenvalues",
    "spectral.build_samples", "nudft.inverse_nudft", "spectral.profile_metrics",
    "numpy.linalg.eig", "numpy.linalg.eigh", "op",
)


def size_sweep(workloads, seed: int) -> list[dict]:
    """One traced spectral-pipeline pass at 3, 4 and 5 qubits.

    Each size runs once untraced first, so the traced pass is warm.  Reports
    per-stage self time in wall seconds (``op`` is the time no stage covers)
    and the share of the operation spent in LAPACK ``eig``.
    """
    from qincoh.spectral import four_qubit_fixture, three_qubit_fixture

    five = workloads.Recover5Q(seed, workdir=None)
    profile, grid = five.profile, five.grid
    sizes = {3: three_qubit_fixture(), 4: four_qubit_fixture(), 5: (five.h0t, five.k)}
    rows = []
    for n_qubits, (h0t, k) in sizes.items():
        workloads.spectral_pipeline(h0t, k, profile, grid)
        tracer = Tracer()
        tracer.install(PLAN)
        try:
            with tracer.operation():
                workloads.spectral_pipeline(h0t, k, profile, grid)
        finally:
            tracer.uninstall()
        prof = tracer.op_profiles()[0]
        op_s = prof["op"][1]
        eig_s = prof.get("numpy.linalg.eig", [0, 0.0])[1]
        rows.append({
            "n_qubits": n_qubits,
            "N": 2**n_qubits,
            "superop_side": 4**n_qubits,
            "op_s": op_s,
            "self_s": {name: prof[name][2] for name in SWEEP_STAGES if name in prof},
            "eig_share": eig_s / op_s,
        })
    return rows

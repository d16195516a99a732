"""Batch front-end: JSON scenario configs in, reproducible CSV/JSON artifacts out.

Three modes are supported.  ``qpt_demo`` runs tomography scenarios under a
joint unitary and reports CP diagnostics; ``rud_build`` constructs an
incoherent channel and dumps its spectrum; ``recover_profile`` runs the full
spectral recovery pipeline.  Matrices are entered as Pauli-string sums
(e.g. ``"0.785398 * ZZ + 0.1 * XI"``) so every fixture stays auditable.
Outputs are written atomically and listed in a manifest with content hashes;
identical config gives byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import __version__
from .channels import (
    RFProfile,
    expm_unitary,
    make_synthetic_profile,
    profile_to_csv,
    rf_incoherent_channel,
    shifted_profile,
)
from .errors import ConfigError
from .liouville import columnize, eig_general, is_cp
from .nudft import METHODS, RecoveryGrid, inverse_nudft
from .spectral import (
    build_samples,
    detect_offset,
    four_qubit_fixture,
    pair_eigenvalues,
    profile_metrics,
    three_qubit_fixture,
)
from .tomography import run_qpt_scenario

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"\s*\*\s*(?P<label>[IXYZ]+)\s*"
)


def parse_pauli_sum(expr: str) -> np.ndarray:
    """Hermitian matrix from a sum of weighted Pauli strings."""
    if not isinstance(expr, str) or not expr.strip():
        raise ConfigError(f"expected a Pauli-sum string, got {expr!r}")
    pos = 0
    matrix = None
    n_letters = None
    first = True
    while pos < len(expr):
        m = _TERM_RE.match(expr, pos)
        if m is None:
            raise ConfigError(f"cannot parse Pauli sum {expr!r} at position {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ConfigError(f"missing +/- between terms in {expr!r}")
        coeff = float(m.group("coeff")) * (-1.0 if sign == "-" else 1.0)
        label = m.group("label")
        if n_letters is None:
            n_letters = len(label)
            matrix = np.zeros((2**n_letters, 2**n_letters), dtype=complex)
        elif len(label) != n_letters:
            raise ConfigError(f"inconsistent qubit counts in {expr!r}")
        term = np.eye(1, dtype=complex)
        for letter in label:
            term = np.kron(term, _PAULI_1Q[letter])
        matrix += coeff * term
        pos = m.end()
        first = False
    return matrix


def _require_keys(d: dict, allowed: set[str], required: set[str], context: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {context}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing required field(s) {sorted(missing)} in {context}")


def _number(d: dict, key: str, context: str, default: float | None = None) -> float:
    if key not in d:
        if default is None:
            raise ConfigError(f"missing {key} in {context}")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key} in {context} must be a number, got {v!r}")
    return float(v)


def _flag(d: dict, key: str, context: str, default: bool) -> bool:
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{key} in {context} must be a boolean, got {v!r}")
    return v


@dataclass(frozen=True)
class QptScenarioSpec:
    name: str
    alpha: float
    beta: float
    gamma: float
    correlated: bool
    cp_filter: bool


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated config; the Pauli-sum fields hold their parsed matrices
    (``u_ab`` is the generator of the joint unitary), which equality skips
    because ``raw`` already holds their expressions."""

    mode: str
    raw: dict
    cp_tol: float
    method: str
    u_ab: np.ndarray | None = field(default=None, compare=False)
    qpt_scenarios: tuple[QptScenarioSpec, ...] = ()
    h0: np.ndarray | None = field(default=None, compare=False)
    k: np.ndarray | None = field(default=None, compare=False)
    t: float = 1.0
    fixture: str | None = None
    profile_spec: dict | None = None
    grid: RecoveryGrid | None = None
    offset: float = 0.0

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_profile_spec(d: dict, context: str) -> dict:
    _require_keys(d, {"kind", "center", "width", "skew", "n_points"}, {"kind", "width"}, context)
    kind = d["kind"]
    if kind not in ("uniform", "gaussian", "skewed"):
        raise ConfigError(f"unknown profile kind {kind!r} in {context}")
    n_points = d.get("n_points", 41)
    if isinstance(n_points, bool) or not isinstance(n_points, int):
        raise ConfigError(f"n_points in {context} must be an integer")
    return {
        "kind": kind,
        "center": _number(d, "center", context, 0.0),
        "width": _number(d, "width", context),
        "skew": _number(d, "skew", context, 0.0),
        "n_points": n_points,
    }


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw config dict; unknown fields are rejected everywhere."""
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    mode = raw.get("mode")
    if mode not in ("qpt_demo", "rud_build", "recover_profile"):
        raise ConfigError(f"mode must be qpt_demo, rud_build or recover_profile, got {mode!r}")

    cp_tol = _number(raw, "cp_tol", "config", 1e-9)
    method = raw.get("method", "weighted_riemann")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")

    common = {"mode", "cp_tol", "method"}
    if mode == "qpt_demo":
        _require_keys(raw, common | {"u_ab", "scenarios"}, {"u_ab", "scenarios"}, "qpt_demo config")
        u_ab = parse_pauli_sum(raw["u_ab"])
        if not isinstance(raw["scenarios"], list) or not raw["scenarios"]:
            raise ConfigError("scenarios must be a non-empty list")
        specs = []
        for i, sc in enumerate(raw["scenarios"]):
            ctx = f"scenarios[{i}]"
            _require_keys(
                sc,
                {"name", "alpha", "beta", "gamma", "correlated", "cp_filter"},
                {"name", "alpha", "beta", "gamma"},
                ctx,
            )
            if not isinstance(sc["name"], str):
                raise ConfigError(f"name in {ctx} must be a string")
            specs.append(
                QptScenarioSpec(
                    name=sc["name"],
                    alpha=_number(sc, "alpha", ctx),
                    beta=_number(sc, "beta", ctx),
                    gamma=_number(sc, "gamma", ctx),
                    correlated=_flag(sc, "correlated", ctx, True),
                    cp_filter=_flag(sc, "cp_filter", ctx, False),
                )
            )
        return ScenarioConfig(
            mode=mode, raw=raw, cp_tol=cp_tol, method=method,
            u_ab=u_ab, qpt_scenarios=tuple(specs),
        )

    if mode == "rud_build":
        _require_keys(raw, common | {"h0", "k", "t", "profile"}, {"h0", "k", "profile"}, "rud_build config")
        return ScenarioConfig(
            mode=mode, raw=raw, cp_tol=cp_tol, method=method,
            h0=parse_pauli_sum(raw["h0"]), k=parse_pauli_sum(raw["k"]), t=_number(raw, "t", "config", 1.0),
            profile_spec=_parse_profile_spec(raw["profile"], "profile"),
        )

    _require_keys(
        raw,
        common | {"fixture", "h0", "k", "t", "profile", "grid", "offset"},
        {"profile", "grid"},
        "recover_profile config",
    )
    fixture = raw.get("fixture")
    if fixture is not None and fixture not in ("three_qubit", "four_qubit"):
        raise ConfigError(f"fixture must be three_qubit or four_qubit, got {fixture!r}")
    if fixture is None and ("h0" not in raw or "k" not in raw):
        raise ConfigError("recover_profile needs either a fixture name or explicit h0 and k")
    if fixture is not None and ("h0" in raw or "k" in raw):
        raise ConfigError("give either a fixture name or explicit h0/k, not both")
    h0 = k = None
    if fixture is None:
        h0 = parse_pauli_sum(raw["h0"])
        k = parse_pauli_sum(raw["k"])
    grid_raw = raw["grid"]
    _require_keys(grid_raw, {"min", "max", "n_bins"}, {"min", "max", "n_bins"}, "grid")
    if isinstance(grid_raw["n_bins"], bool) or not isinstance(grid_raw["n_bins"], int):
        raise ConfigError("grid n_bins must be an integer")
    grid = RecoveryGrid(
        _number(grid_raw, "min", "grid"), _number(grid_raw, "max", "grid"), grid_raw["n_bins"]
    )
    return ScenarioConfig(
        mode=mode, raw=raw, cp_tol=cp_tol, method=method,
        h0=h0, k=k, t=_number(raw, "t", "config", 1.0),
        fixture=fixture, profile_spec=_parse_profile_spec(raw["profile"], "profile"),
        grid=grid, offset=_number(raw, "offset", "config", 0.0),
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Artifact serialization
# ---------------------------------------------------------------------------

def _matrix_json(m: np.ndarray) -> dict:
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def _json_bytes(obj: Any) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _eigenvalues_csv(evals: np.ndarray) -> bytes:
    lines = ["re,im"]
    for z in evals:
        lines.append(f"{float(z.real)!r},{float(z.imag)!r}")
    return ("\n".join(lines) + "\n").encode()


def _samples_csv(samples) -> bytes:
    lines = ["k,f_real,f_imag"]
    for kk, ff in zip(samples.k, samples.f):
        lines.append(f"{float(kk)!r},{float(ff.real)!r},{float(ff.imag)!r}")
    return ("\n".join(lines) + "\n").encode()


def _moments_json(profile: RFProfile) -> dict:
    m = profile_metrics(profile)
    return {"mean": m.mean, "std": m.std, "skewness": m.skewness}


def _write_atomic(path: str, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_profile(spec: dict) -> RFProfile:
    return make_synthetic_profile(
        spec["kind"], center=spec["center"], width=spec["width"],
        skew=spec["skew"], n_points=spec["n_points"],
    )


def _run_qpt_demo(cfg: ScenarioConfig) -> list[tuple[str, bytes, str]]:
    u_ab = expm_unitary(cfg.u_ab)
    rows = []
    for spec in cfg.qpt_scenarios:
        report = run_qpt_scenario(
            u_ab, spec.alpha, spec.beta, spec.gamma,
            correlated=spec.correlated, apply_cp_filter=spec.cp_filter,
            cp_tol=cfg.cp_tol,
        )
        rows.append({
            "name": spec.name,
            "alpha": spec.alpha,
            "beta": spec.beta,
            "gamma": spec.gamma,
            "cp_filtered": spec.cp_filter,
            "correlated": spec.correlated,
            "s_obs": _matrix_json(report.s_obs),
            "choi_eigenvalues": [float(x) for x in report.choi_eigenvalues],
            "is_cp": report.is_cp,
            "cp_tol": cfg.cp_tol,
            "kraus_count": report.kraus_count,
            "removed_weight": report.removed_weight,
            "condition_number": report.condition_number,
            # the forward residual is only meaningful for the unfiltered map
            "qpt_residual": {"value": report.forward_residual, "tol": 1e-10},
        })
    doc = {"mode": "qpt_demo", "u_ab": cfg.raw["u_ab"], "scenarios": rows}
    return [("qpt_report.json", _json_bytes(doc), "report")]


def _run_rud_build(cfg: ScenarioConfig) -> list[tuple[str, bytes, str]]:
    h0 = cfg.h0
    profile = _build_profile(cfg.profile_spec)
    s = rf_incoherent_channel(h0, cfg.k, profile, t=cfg.t)
    evals, _ = eig_general(s)
    dim = h0.shape[0]
    ident = columnize(np.eye(dim) / dim)
    unitality = float(np.abs(s @ ident - ident).max())
    tp = float(np.abs(columnize(np.eye(dim)).conj() @ s - columnize(np.eye(dim)).conj()).max())
    cp_flag, min_eig = is_cp(s, cfg.cp_tol)
    report = {
        "mode": "rud_build",
        "dim": dim,
        "generator_convention": "deviation multiplies k directly (duration absorbed); t scales h0 only",
        "n_members": len(profile),
        "unitality_residual": {"value": unitality, "tol": 1e-11},
        "trace_preservation_residual": {"value": tp, "tol": 1e-11},
        "is_cp": cp_flag,
        "min_choi_eigenvalue": min_eig,
        "cp_tol": cfg.cp_tol,
        "max_eigenvalue_modulus": {"value": float(np.abs(evals).max()), "tol": 1e-10},
    }
    return [
        ("channel_report.json", _json_bytes(report), "report"),
        ("eigenvalues.csv", _eigenvalues_csv(evals), "spectrum"),
        ("superoperator.json", _json_bytes(_matrix_json(s)), "superoperator"),
        ("profile.csv", profile_to_csv(profile).encode(), "profile_truth"),
    ]


def _run_recover_profile(cfg: ScenarioConfig) -> list[tuple[str, bytes, str]]:
    if cfg.fixture == "three_qubit":
        h0t, k = three_qubit_fixture()
    elif cfg.fixture == "four_qubit":
        h0t, k = four_qubit_fixture()
    else:
        h0t = cfg.h0 * cfg.t
        k = cfg.k
    profile = _build_profile(cfg.profile_spec)
    channel_profile = shifted_profile(profile, cfg.offset) if cfg.offset else profile
    s = rf_incoherent_channel(h0t, k, channel_profile)
    pairing = pair_eigenvalues(s, h0t, k)
    samples = build_samples(pairing)
    result = inverse_nudft(samples, cfg.grid, method=cfg.method)
    recovered = result.profile
    report = {
        "mode": "recover_profile",
        "fixture": cfg.fixture,
        "method": cfg.method,
        "offset_injected": cfg.offset,
        "n_samples": len(samples),
        "window_span": samples.window_span(),
        "resolution_estimate": samples.resolution_estimate(),
        "pairing": {
            "n_entries": len(pairing.entries),
            "n_degenerate": sum(e.degenerate for e in pairing.entries),
            "max_match_distance": max(e.distance for e in pairing.entries),
            "match_tol": 0.2,
            "n_warnings": len(pairing.warnings),
        },
        "conjugate_symmetry_residual": {
            "value": samples.conjugate_symmetry_residual(),
            "tol": 1e-6,
        },
        "quality": {
            "imag_residual": result.imag_residual,
            "clipped_mass": result.clipped_mass,
            "clipped_mass_tol": 0.1,
            "condition_number": result.condition_number,
        },
        "true_profile_moments": _moments_json(profile),
        "recovered_moments": _moments_json(recovered),
        "offset_estimate": detect_offset(recovered),
        "grid": {
            "min": cfg.grid.delta_omega_min,
            "max": cfg.grid.delta_omega_max,
            "n_bins": cfg.grid.n_bins,
            "bin_width": cfg.grid.bin_width,
        },
    }
    return [
        ("recovery_report.json", _json_bytes(report), "report"),
        ("samples.csv", _samples_csv(samples), "spectral_samples"),
        ("true_profile.csv", profile_to_csv(channel_profile).encode(), "profile_truth"),
        ("recovered_profile.csv", profile_to_csv(recovered).encode(), "profile_recovered"),
    ]


_RUNNERS = {
    "qpt_demo": _run_qpt_demo,
    "rud_build": _run_rud_build,
    "recover_profile": _run_recover_profile,
}


def run_scenario(cfg: ScenarioConfig, out_dir: str) -> dict:
    """Execute a validated config, write artifacts + manifest, return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    artifacts = _RUNNERS[cfg.mode](cfg)
    entries = []
    for name, data, role in artifacts:
        _write_atomic(os.path.join(out_dir, name), data)
        entries.append({
            "path": name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "role": role,
        })
    entries.sort(key=lambda e: e["path"])
    manifest = {
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "files": entries,
    }
    _write_atomic(os.path.join(out_dir, "manifest.json"), _json_bytes(manifest))
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qincoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--method", choices=METHODS)
    p_run.add_argument("--tol", type=float, help="override the CP-test tolerance")

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"ok: mode={cfg.mode}")
        return 0
    # argparse has already checked the override values, so they replace the
    # parsed fields without a second parse; an invalid method or cp_tol in the
    # file is still rejected above.  raw takes them too, for the config hash.
    overrides = {}
    if args.method is not None:
        overrides["method"] = args.method
    if args.tol is not None:
        overrides["cp_tol"] = args.tol
    cfg = replace(cfg, raw={**cfg.raw, **overrides}, **overrides)
    try:
        manifest = run_scenario(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(manifest['files']) + 1} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

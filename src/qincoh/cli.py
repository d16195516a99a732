"""Batch front-end: JSON scenario configs in, reproducible CSV/JSON artifacts out.

Three modes are supported.  ``qpt_demo`` runs tomography scenarios under a
joint unitary and reports CP diagnostics; ``rud_build`` constructs an
incoherent channel and dumps its spectrum; ``recover_profile`` runs the full
spectral recovery pipeline.  Matrices are entered as Pauli-string sums
(e.g. ``"0.785398 * ZZ + 0.1 * XI"``) so every fixture stays auditable.
Each config object is described once, by a table of ``{key: (check,
default)}`` entries.  The reader checks the JSON shape: objects, lists,
strings, flags and Pauli sums (a Pauli sum's matrix must be finite, ``h0``
and ``k`` must have the same size, ``u_ab`` must act on 2 qubits, a Pauli
string may have at most ``MAX_QUBITS`` letters).  Every number goes as given
to the library, which checks it: the profile's and the grid's to their
constructors, which also cap the profile's points and the grid's bins
before anything is allocated, and a scenario's ``alpha``, ``beta`` and
``gamma`` to ``validation.real_scalar``; a library refusal becomes a config
error.  Parsing builds the finished objects (matrices, the profile, the
recovery grid), so ``validate`` rejects every config that ``run`` would
reject as a config error.
A field is accepted only by the modes that read it, and the config file is
the only input, so the manifest's config hash covers exactly what ran.  No
tolerance is a field: the CP test of ``qpt_demo`` and ``rud_build`` reads
``liouville.CP_TOL``, and the reports state it as ``cp_tol``.  Each quantity
has one field: the channel modes build their channel from exactly ``h0``,
``k`` and ``profile``, so the profile's ``center`` is its only shift and the
Pauli coefficients of ``h0`` are its only scale.
Outputs are written atomically and listed in a manifest with content hashes;
identical config gives byte-identical artifacts.  Exit codes: 0 success,
1 config error, 2 numerical failure, 3 output error, 64 usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

import numpy as np

from . import __version__
from .channels import RFProfile, expm_unitary, make_synthetic_profile, rf_incoherent_channel
from .errors import ConfigError
from .liouville import CP_TOL, choi_spectrum, columnize, superop_eigenvalues
from .nudft import SYMMETRY_TOL, RecoveryGrid, inverse_nudft
from .spectral import (
    MATCH_TOL,
    build_samples,
    four_qubit_fixture,
    pair_eigenvalues,
    profile_metrics,
    three_qubit_fixture,
)
from .tomography import SIGMA_X, SIGMA_Y, SIGMA_Z, run_qpt_scenarios
from .validation import real_scalar

# The tolerances that reports state next to a tested value.
# qpt_demo: the forward residual of an unfiltered tomographic map.
QPT_RESIDUAL_TOL = 1e-10
# rud_build: the unitality and trace-preservation residuals of the channel.
CHANNEL_RESIDUAL_TOL = 1e-11
# rud_build: how far the largest eigenvalue modulus may exceed 1.
EIGENVALUE_MODULUS_TOL = 1e-10
# recover_profile: the recovered mass clipped away as negative.
CLIPPED_MASS_TOL = 0.1
# The most letters a Pauli string may have: its matrix is 2**letters square.
MAX_QUBITS = 6
# The header of every profile CSV; its rows are (delta_omega, weight).
PROFILE_CSV_HEADER = "delta_omega,weight"

_PAULI_1Q = {"I": np.eye(2, dtype=complex), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"\s*\*\s*(?P<label>[IXYZ]+)\s*"
)


def parse_pauli_sum(expr: str) -> np.ndarray:
    """Hermitian matrix from a sum of weighted Pauli strings; a sum whose
    matrix is not finite (a coefficient or a sum of them overflows) is
    refused."""
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
        if len(label) > MAX_QUBITS:
            raise ConfigError(f"a Pauli string of {len(label)} letters exceeds MAX_QUBITS = {MAX_QUBITS}")
        if n_letters is None:
            n_letters = len(label)
            matrix = np.zeros((2**n_letters, 2**n_letters), dtype=complex)
        elif len(label) != n_letters:
            raise ConfigError(f"inconsistent qubit counts in {expr!r}")
        term = np.eye(1, dtype=complex)
        for letter in label:
            term = np.kron(term, _PAULI_1Q[letter])
        with np.errstate(over="ignore", invalid="ignore"):
            matrix += coeff * term
        pos = m.end()
        first = False
    if not np.isfinite(matrix).all():
        raise ConfigError(f"the matrix of {expr!r} is not finite")
    return matrix


# ---------------------------------------------------------------------------
# Config tables: ``{key: (check, default)}``, where ``check(value, name)``
# returns the parsed value or raises ConfigError.
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key that must be given

_Check = Callable[[Any, str], Any]


def _fields(d: Any, table: dict[str, tuple[_Check, Any]], ctx: str) -> dict:
    """Every key of ``table`` mapped to its checked value in ``d`` or its default."""
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be an object")
    unknown = set(d) - set(table)
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {ctx}")
    missing = [key for key, (_, default) in table.items() if default is _REQUIRED and key not in d]
    if missing:
        raise ConfigError(f"missing required field(s) {sorted(missing)} in {ctx}")
    return {
        key: check(d[key], f"{ctx}.{key}") if key in d else default
        for key, (check, default) in table.items()
    }


def _typed(kind: type, what: str) -> _Check:
    """A check accepting instances of ``kind``."""
    def check(v: Any, name: str) -> Any:
        if not isinstance(v, kind):
            raise ConfigError(f"{name} must be {what}, got {v!r}")
        return v
    return check


_flag = _typed(bool, "a boolean")
_string = _typed(str, "a string")


def _given(v: Any, name: str) -> Any:
    """A value that the library checks where the object built from it is built."""
    return v


def _one_of(*choices: str) -> _Check:
    def check(v: Any, name: str) -> str:
        if v not in choices:
            raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {v!r}")
        return v
    return check


def _pauli(v: Any, name: str) -> np.ndarray:
    try:
        return parse_pauli_sum(v)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _two_qubit_pauli(v: Any, name: str) -> np.ndarray:
    """The joint unitary's generator acts on the system and the environment qubit."""
    u = _pauli(v, name)
    if u.shape != (4, 4):
        raise ConfigError(f"{name} must act on 2 qubits, got {u.shape[0].bit_length() - 1}")
    return u


def _built(table: dict[str, tuple[_Check, Any]], build: Callable[..., Any]) -> _Check:
    """A check for a nested object whose fields are passed to ``build`` by key;
    a ValueError from ``build`` (the library's check of a value) becomes a
    ConfigError, the one place where one does."""
    def check(v: Any, name: str) -> Any:
        fields = _fields(v, table, name)
        try:
            return build(**fields)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return check


def _nonempty_list(item: _Check) -> _Check:
    def check(v: Any, name: str) -> tuple:
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{name} must be a non-empty list")
        return tuple(item(x, f"{name}[{i}]") for i, x in enumerate(v))
    return check


def _scenario(**fields: Any) -> dict:
    """A scenario's fields, its ``alpha``, ``beta`` and ``gamma`` read as real numbers."""
    return {**fields, **{key: real_scalar(fields[key], key) for key in ("alpha", "beta", "gamma")}}


_SCENARIO = {
    "name": (_string, _REQUIRED),
    "alpha": (_given, _REQUIRED),
    "beta": (_given, _REQUIRED),
    "gamma": (_given, _REQUIRED),
    "correlated": (_flag, True),
    "cp_filter": (_flag, False),
}

_PROFILE = {
    "kind": (_given, _REQUIRED),
    "center": (_given, 0.0),
    "width": (_given, _REQUIRED),
    "skew": (_given, 0.0),
    "n_points": (_given, 41),
}

_GRID = {
    "min": (_given, _REQUIRED),
    "max": (_given, _REQUIRED),
    "n_bins": (_given, _REQUIRED),
}

# make_synthetic_profile is looked up at each call rather than bound here, so
# a wrapper installed on this module's attribute sees the call.
_CHANNEL = {
    "profile": (_built(_PROFILE, lambda **p: make_synthetic_profile(**p)), _REQUIRED),
}

_MODES = {
    "qpt_demo": {
        "u_ab": (_two_qubit_pauli, _REQUIRED),
        "scenarios": (_nonempty_list(_built(_SCENARIO, _scenario)), _REQUIRED),
    },
    "rud_build": {"h0": (_pauli, _REQUIRED), "k": (_pauli, _REQUIRED), **_CHANNEL},
    "recover_profile": {
        "fixture": (_one_of("three_qubit", "four_qubit"), None),
        "h0": (_pauli, None),
        "k": (_pauli, None),
        **_CHANNEL,
        "grid": (_built(_GRID, lambda **g: RecoveryGrid(g["min"], g["max"], g["n_bins"])), _REQUIRED),
    },
}

_COMMON = {"mode": (_one_of(*_MODES), _REQUIRED)}


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated config: ``raw`` as read, which alone defines equality and
    the config hash, and ``fields``, each key's parsed value (matrices,
    profile and grid built, defaults filled in)."""

    raw: dict
    fields: dict = field(compare=False)

    @property
    def mode(self) -> str:
        return self.fields["mode"]

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _recover_generators(raw: dict, f: dict) -> tuple[np.ndarray, np.ndarray]:
    """``(h0, k)`` of a recover_profile config: the fixture's or the given ones."""
    if f["fixture"] is None:
        if f["h0"] is None or f["k"] is None:
            raise ConfigError("recover_profile needs either a fixture name or explicit h0 and k")
        return f["h0"], f["k"]
    explicit = [key for key in ("h0", "k") if key in raw]
    if explicit:
        raise ConfigError(f"give either a fixture name or explicit h0/k, not both (got {explicit})")
    return three_qubit_fixture() if f["fixture"] == "three_qubit" else four_qubit_fixture()


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw config dict and build its objects; unknown fields are rejected everywhere."""
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    mode = _COMMON["mode"][0](raw.get("mode"), "config.mode")
    fields = _fields(raw, {**_COMMON, **_MODES[mode]}, "config")
    h0, k = fields.get("h0"), fields.get("k")
    if h0 is not None and k is not None and h0.shape != k.shape:
        raise ConfigError(f"h0 and k have mismatched shapes {h0.shape} vs {k.shape}")
    if mode == "recover_profile":
        fields["h0"], fields["k"] = _recover_generators(raw, fields)
    return ScenarioConfig(raw, fields)


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


# The reprs of the non-finite floats, as json writes them.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The types a report holds; an instance of a subclass, such as numpy.float64,
# is written as one of the type it subclasses.
_JSON_TYPES = (str, int, float, list, tuple, dict)
_JSON_EXACT = frozenset(_JSON_TYPES + (bool, type(None)))


def _encode_json(obj: Any, newline: str, out: list[str]) -> None:
    """Append to ``out`` the JSON text of ``obj`` that the stdlib's
    ``json.dumps`` gives with ``sort_keys=True`` and ``indent=2``, when
    ``newline`` (a line break and the indent of ``obj``'s line) starts each
    line; any type but those of :data:`_JSON_TYPES`, ``bool`` and ``None``,
    and a dict key that is not a ``str``, is a TypeError naming it.

    Before Python 3.13 ``json.dumps`` takes its pure-Python encoder whenever
    an indent is set, which costs about twice this walk."""
    kind = type(obj)
    if kind not in _JSON_EXACT:
        kind = next((t for t in _JSON_TYPES if isinstance(obj, t)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if kind is float:
        text = float.__repr__(obj)
        out.append(_NON_FINITE.get(text, text))
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _encode_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _encode_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    else:
        out.append("null")


def _json_bytes(obj: Any) -> bytes:
    """The stdlib's sorted, indent-2 JSON text of ``obj`` and a final line
    break, encoded, byte for byte (:func:`_encode_json`)."""
    out: list[str] = []
    _encode_json(obj, "\n", out)
    out.append("\n")
    return "".join(out).encode()


def _csv(header: str, *columns: np.ndarray) -> bytes:
    """A header line, then one line of exact float reprs per row of ``columns``."""
    lines = [header] + [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    return ("\n".join(lines) + "\n").encode()


def _moments_json(profile: RFProfile) -> dict:
    m = profile_metrics(profile)
    return {"mean": m.mean, "std": m.std, "skewness": m.skewness}


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a new private temporary file beside ``path``, by
    ``os.write`` on its descriptor until every byte is written, then rename
    it onto ``path``; on any failure the temporary file is removed."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_qpt_demo(cfg: ScenarioConfig) -> list[tuple[str, bytes, str]]:
    f = cfg.fields
    scenarios = f["scenarios"]
    alpha, beta, gamma, correlated, cp_filter = (
        [sc[key] for sc in scenarios] for key in ("alpha", "beta", "gamma", "correlated", "cp_filter")
    )
    reports = run_qpt_scenarios(expm_unitary(f["u_ab"]), alpha, beta, gamma, correlated, cp_filter)
    rows = []
    for sc, report in zip(scenarios, reports):
        rows.append({
            "name": sc["name"],
            "alpha": sc["alpha"],
            "beta": sc["beta"],
            "gamma": sc["gamma"],
            "cp_filtered": sc["cp_filter"],
            "correlated": sc["correlated"],
            "s_obs": _matrix_json(report.s_obs),
            "choi_eigenvalues": [float(x) for x in report.choi_eigenvalues],
            "is_cp": report.is_cp,
            "cp_tol": CP_TOL,
            "kraus_count": report.kraus_count,
            "removed_weight": report.removed_weight,
            "condition_number": report.condition_number,
            # the forward residual is only meaningful for the unfiltered map
            "qpt_residual": {"value": report.forward_residual, "tol": QPT_RESIDUAL_TOL},
        })
    doc = {"mode": "qpt_demo", "u_ab": cfg.raw["u_ab"], "scenarios": rows}
    return [("qpt_report.json", _json_bytes(doc), "report")]


def _run_rud_build(cfg: ScenarioConfig) -> list[tuple[str, bytes, str]]:
    f = cfg.fields
    h0, profile = f["h0"], f["profile"]
    s = rf_incoherent_channel(h0, f["k"], profile)
    evals = superop_eigenvalues(s)
    dim = h0.shape[0]
    ident = columnize(np.eye(dim) / dim)
    unitality = float(np.abs(s @ ident - ident).max())
    tp = float(np.abs(columnize(np.eye(dim)).conj() @ s - columnize(np.eye(dim)).conj()).max())
    min_eig = float(choi_spectrum(s)[-1])
    report = {
        "mode": "rud_build",
        "dim": dim,
        "generator_convention": "deviation multiplies k directly (duration absorbed)",
        "n_members": len(profile),
        "unitality_residual": {"value": unitality, "tol": CHANNEL_RESIDUAL_TOL},
        "trace_preservation_residual": {"value": tp, "tol": CHANNEL_RESIDUAL_TOL},
        "is_cp": min_eig >= -CP_TOL,
        "min_choi_eigenvalue": min_eig,
        "cp_tol": CP_TOL,
        "max_eigenvalue_modulus": {"value": float(np.abs(evals).max()), "tol": EIGENVALUE_MODULUS_TOL},
    }
    return [
        ("channel_report.json", _json_bytes(report), "report"),
        ("eigenvalues.csv", _csv("re,im", evals.real, evals.imag), "spectrum"),
        ("superoperator.json", _json_bytes(_matrix_json(s)), "superoperator"),
        ("profile.csv", _csv(PROFILE_CSV_HEADER, profile.delta_omega, profile.weight), "profile_truth"),
    ]


def _run_recover_profile(cfg: ScenarioConfig) -> list[tuple[str, bytes, str]]:
    f = cfg.fields
    h0, k, profile, grid = f["h0"], f["k"], f["profile"], f["grid"]
    s = rf_incoherent_channel(h0, k, profile)
    pairing = pair_eigenvalues(s, h0, k)
    entries = pairing.entries
    samples = build_samples(pairing)
    result = inverse_nudft(samples, grid)
    recovered = result.profile
    report = {
        "mode": "recover_profile",
        "fixture": f["fixture"],
        "n_samples": len(samples),
        "window_span": float(samples.k.max() - samples.k.min()),
        "resolution_estimate": float(np.pi / np.abs(samples.k).max()),
        "pairing": {
            "n_entries": len(entries),
            "n_degenerate": int(entries.degenerate.sum()),
            "max_match_distance": float(entries.distance.max()),
            "max_certified_radius": float(entries.radius[~entries.degenerate].max()),
            "match_tol": MATCH_TOL,
            "n_warnings": len(pairing.warnings),
        },
        "conjugate_symmetry_residual": {
            "value": result.symmetry_residual,
            "tol": SYMMETRY_TOL,
        },
        "quality": {
            "imag_residual": result.imag_residual,
            "clipped_mass": result.clipped_mass,
            "clipped_mass_tol": CLIPPED_MASS_TOL,
        },
        "true_profile_moments": _moments_json(profile),
        "recovered_moments": _moments_json(recovered),
        "grid": {
            "min": grid.delta_omega_min,
            "max": grid.delta_omega_max,
            "n_bins": grid.n_bins,
            "bin_width": grid.bin_width,
        },
    }
    return [
        ("recovery_report.json", _json_bytes(report), "report"),
        ("samples.csv", _csv("k,f_real,f_imag", samples.k, samples.f.real, samples.f.imag),
         "spectral_samples"),
        ("true_profile.csv", _csv(PROFILE_CSV_HEADER, profile.delta_omega, profile.weight), "profile_truth"),
        ("recovered_profile.csv", _csv(PROFILE_CSV_HEADER, recovered.delta_omega, recovered.weight),
         "profile_recovered"),
    ]


_RUNNERS = {
    "qpt_demo": _run_qpt_demo,
    "rud_build": _run_rud_build,
    "recover_profile": _run_recover_profile,
}


def run_scenario(cfg: ScenarioConfig, out_dir: str) -> dict:
    """Execute a validated config, write artifacts + manifest, return the manifest.
    ``out_dir`` is created only once the artifacts are built, so a failed run
    leaves none behind."""
    artifacts = _RUNNERS[cfg.mode](cfg)
    os.makedirs(out_dir, exist_ok=True)
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


class _Parser(argparse.ArgumentParser):
    """Exits 64 (``EX_USAGE`` of sysexits.h) on a usage error, where argparse
    exits 2, so that 2 means only a numerical failure.  Subparsers inherit
    the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="qincoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

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
    try:
        manifest = run_scenario(cfg, args.out)
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest['files']) + 1} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

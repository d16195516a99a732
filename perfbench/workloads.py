"""The benchmark workloads: inputs made from a seed, one operation, its check.

Each workload object is built once per process from ``(seed, workdir)``.
It names the calibration kernel matching its operation (see
``calibrate.py``) and how many set-ups a run times.  ``op()`` is the timed
operation; ``reset()`` runs untimed before it and ``check()`` untimed after
it.  ``check`` returns an ``Outcome`` holding the failed output checks (none
when the operation is correct) and the recovery errors; it is the only place
that decides whether an operation counts as failed.

The seed only shapes the inputs; the package sees generated configs or
arrays, never the seed.  ``DEFAULT_SEED`` reproduces the bundled configs
exactly.
"""
from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qincoh import cli
from qincoh.channels import make_synthetic_profile, rf_incoherent_channel
from qincoh.nudft import RecoveryGrid, inverse_nudft
from qincoh.spectral import ProfileMoments, build_samples, pair_eigenvalues, profile_metrics

from fixtures import sidon_fixture

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
DEFAULT_SEED = 0

# Acceptance criterion C08: recovered mean within one grid bin, standard
# deviation within 30%, clipped mass below 0.1 (and, at 3 qubits, the sign
# of the skewness).
STD_REL_TOL = 0.30
CLIPPED_MASS_TOL = 0.1

# Acceptance criterion C03: (is_cp, kraus_count) of each table1 row.
TABLE1_EXPECTED = {
    "ex1_correlated": (False, None),
    "ex1_cp_filtered": (True, 1),
    "ex1_uncorrelated": (True, 2),
    "ex2_correlated": (True, 1),
    "ex2_uncorrelated": (True, 2),
}


@dataclass
class Outcome:
    """Result of checking one operation."""

    failures: list[str] = field(default_factory=list)
    mean_abs_err: float | None = None
    std_rel_err: float | None = None
    files_written: int = 0
    bytes_written: int = 0


def load_config(name: str) -> dict:
    with open(CONFIG_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def vary_profile(profile: dict, seed: int) -> dict:
    """The bundled profile at the default seed, else a seeded width and skew.

    The ranges were chosen so that draws stay inside the C08 bounds at 3 and
    5 qubits: no operation is expected to fail on the unchanged package.
    """
    if seed == DEFAULT_SEED:
        return dict(profile)
    rng = np.random.default_rng(seed)
    width = float(rng.uniform(0.045, 0.06))
    skew = float(rng.uniform(0.35, 0.6) * rng.choice((-1.0, 1.0)))
    return {**profile, "width": width, "skew": skew}


def _draw_physical_triple(rng: np.random.Generator) -> tuple[float, float, float]:
    """(alpha, beta, gamma) whose four joint input states are positive with
    margin 0.1: every ``1 + a*alpha + b*beta + a*b*gamma`` (a, b = +-1) >= 0.1."""
    while True:
        alpha, beta, gamma = (float(x) for x in rng.uniform(0.2, 0.8, size=3))
        corners = [1 + a * alpha + b * beta + a * b * gamma for a in (1, -1) for b in (1, -1)]
        if min(corners) >= 0.1:
            return alpha, beta, gamma


def vary_scenarios(raw: dict, seed: int) -> dict:
    """table1 at the default seed; otherwise each distinct (alpha, beta,
    gamma) of the bundled rows is replaced by a seeded physical triple."""
    if seed == DEFAULT_SEED:
        return raw
    rng = np.random.default_rng(seed)
    drawn: dict[tuple, tuple[float, float, float]] = {}
    rows = []
    for sc in raw["scenarios"]:
        key = (sc["alpha"], sc["beta"], sc["gamma"])
        if key not in drawn:
            drawn[key] = _draw_physical_triple(rng)
        alpha, beta, gamma = drawn[key]
        rows.append({**sc, "alpha": alpha, "beta": beta, "gamma": gamma})
    return {**raw, "scenarios": rows}


def check_moments(
    true_m: ProfileMoments, rec_m: ProfileMoments, bin_width: float, clipped_mass: float,
    check_skew: bool, out: Outcome,
) -> None:
    """C08 bounds on recovered moments; records the two recovery errors."""
    out.mean_abs_err = abs(rec_m.mean - true_m.mean)
    out.std_rel_err = abs(rec_m.std - true_m.std) / true_m.std
    if not out.mean_abs_err < bin_width:
        out.failures.append(f"mean off by {out.mean_abs_err / bin_width:.2f} bins")
    if not out.std_rel_err < STD_REL_TOL:
        out.failures.append(f"std off by {out.std_rel_err:.1%}")
    if check_skew and np.sign(rec_m.skewness) != np.sign(true_m.skewness):
        out.failures.append(f"skewness {rec_m.skewness:+.3f} vs true {true_m.skewness:+.3f}")
    if not clipped_mass < CLIPPED_MASS_TOL:
        out.failures.append(f"clipped mass {clipped_mass:.3f}")


class CliWorkload:
    """One operation is ``qincoh.cli.main(["run", ...])`` on a generated config.

    Every run must exit 0, write exactly the files its manifest lists with
    matching hashes, and reproduce the first run's bytes (criterion C11).
    """

    report_name = ""
    calibration = "interpreter"
    setup_repeats = 15

    def __init__(self, raw_config: dict, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(raw_config, indent=2), encoding="utf-8")
        self.out_dir = workdir / "out"
        self.argv = ["run", "--config", str(self.config_path), "--out", str(self.out_dir)]
        self.reference: dict[str, str] | None = None

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self) -> int:
        return cli.main(self.argv)

    def check(self, rc: int) -> Outcome:
        out = Outcome()
        if rc != 0:
            out.failures.append(f"exit code {rc}")
            return out
        blobs = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        out.files_written = len(blobs)
        out.bytes_written = sum(len(b) for b in blobs.values())
        digests = {name: hashlib.sha256(b).hexdigest() for name, b in blobs.items()}
        manifest = json.loads(blobs.get("manifest.json", b"{}"))
        listed = {e["path"]: e["sha256"] for e in manifest.get("files", [])}
        if set(listed) | {"manifest.json"} != set(digests):
            out.failures.append(f"files {sorted(digests)} do not match the manifest")
        for name, sha in listed.items():
            if digests.get(name) != sha:
                out.failures.append(f"{name} does not match its manifest hash")
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(n for n in digests.keys() | self.reference.keys()
                             if digests.get(n) != self.reference.get(n))
            out.failures.append(f"artifacts differ from the first run: {changed}")
        if self.report_name not in blobs:
            out.failures.append(f"missing {self.report_name}")
            return out
        self.check_report(json.loads(blobs[self.report_name]), out)
        return out

    def check_report(self, report: dict, out: Outcome) -> None:
        raise NotImplementedError


class RecoverCli(CliWorkload):
    """recover_3q_cli: ``configs/recover3q.json`` with a seeded profile."""

    report_name = "recovery_report.json"

    def __init__(self, seed: int, workdir: Path):
        raw = load_config("recover3q.json")
        super().__init__({**raw, "profile": vary_profile(raw["profile"], seed)}, workdir)

    def check_report(self, report: dict, out: Outcome) -> None:
        if report["pairing"]["n_warnings"]:
            out.failures.append(f"{report['pairing']['n_warnings']} pairing warnings")
        check_moments(
            ProfileMoments(**report["true_profile_moments"]),
            ProfileMoments(**report["recovered_moments"]),
            report["grid"]["bin_width"],
            report["quality"]["clipped_mass"],
            check_skew=True,
            out=out,
        )


class QptCli(CliWorkload):
    """qpt_table1_cli: ``configs/table1.json`` with seeded (alpha, beta, gamma)."""

    report_name = "qpt_report.json"

    def __init__(self, seed: int, workdir: Path):
        self.expected = TABLE1_EXPECTED if seed == DEFAULT_SEED else None
        super().__init__(vary_scenarios(load_config("table1.json"), seed), workdir)

    def check_report(self, report: dict, out: Outcome) -> None:
        for row in report["scenarios"]:
            name = row["name"]
            residual = row["qpt_residual"]
            if not row["cp_filtered"] and not residual["value"] <= residual["tol"]:
                out.failures.append(f"{name}: forward residual {residual['value']:.3e}")
            if (row["kraus_count"] is not None) != row["is_cp"]:
                out.failures.append(f"{name}: kraus_count {row['kraus_count']} with is_cp {row['is_cp']}")
            if row["cp_filtered"] and not row["is_cp"]:
                out.failures.append(f"{name}: CP-filtered map is not CP")
            if self.expected is not None:
                got = (row["is_cp"], row["kraus_count"])
                if self.expected.get(name) != got:
                    out.failures.append(f"{name}: (is_cp, kraus) {got}, C03 has {self.expected.get(name)}")


def spectral_pipeline(h0t: np.ndarray, k: np.ndarray, profile, grid: RecoveryGrid):
    """Channel build -> pairing -> samples -> inverse NUDFT -> moments."""
    s = rf_incoherent_channel(h0t, k, profile)
    pairing = pair_eigenvalues(s, h0t, k)
    samples = build_samples(pairing)
    result = inverse_nudft(samples, grid)
    return pairing, samples, result, profile_metrics(result.profile)


class Recover5Q:
    """recover_5q: the library pipeline on a generated 5-qubit Sidon fixture,
    with the profile (varied by seed) and grid of ``configs/recover3q.json``.

    The skewness sign is not checked here; recover_3q_cli gates it on the
    same k-window.
    """

    setup_repeats = 5
    calibration = "dense"
    n_qubits = 5

    def __init__(self, seed: int, workdir: Path):
        self.h0t, self.k = sidon_fixture(self.n_qubits, np.random.default_rng([seed, self.n_qubits]))
        raw = load_config("recover3q.json")
        p = vary_profile(raw["profile"], seed)
        self.profile = make_synthetic_profile(
            p["kind"], center=p.get("center", 0.0), width=p["width"],
            skew=p.get("skew", 0.0), n_points=p.get("n_points", 41),
        )
        g = raw["grid"]
        self.grid = RecoveryGrid(g["min"], g["max"], g["n_bins"])
        self.true_moments = profile_metrics(self.profile)

    def reset(self) -> None:
        pass

    def op(self):
        return spectral_pipeline(self.h0t, self.k, self.profile, self.grid)

    def check(self, result) -> Outcome:
        pairing, samples, recovery, moments = result
        out = Outcome()
        n = 2**self.n_qubits
        if pairing.warnings:
            out.failures.append(f"{len(pairing.warnings)} pairing warnings")
        if len(samples) != n * n - n + 1:
            out.failures.append(f"{len(samples)} samples, expected {n * n - n + 1}")
        check_moments(self.true_moments, moments, self.grid.bin_width,
                      recovery.clipped_mass, check_skew=False, out=out)
        return out


WORKLOADS = {
    "recover_3q_cli": RecoverCli,
    "recover_5q": Recover5Q,
    "qpt_table1_cli": QptCli,
}


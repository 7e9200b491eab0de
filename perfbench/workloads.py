"""Workload configs and their closed-form oracles.

Each workload is one ``veldt`` config document.  Its oracle reads the files a
run wrote (``report.json`` and the scenario CSVs) and returns a list of
failure messages; an empty list means the output is correct.  The oracles use
the standard library only, so they judge the written bytes and nothing held
in memory by the package.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

PITCHFORK = {
    "problem": "P2",
    "scenario": "bifurcate",
    "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 32},
    "params": {"window": [0.8, 1.3], "grid": 11, "amplitude_cap": 3.0},
}

CENSUS = {
    "problem": "P2",
    "scenario": "morse",
    "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 32},
    "params": {"lam": 1.0, "window": None, "marino_prodi": {"r": 0.5, "delta_inner": 0.25}},
}

SPECTRUM_LAMBDAS = [2.5, 4.0, 9.5, 16.5]
SPECTRUM_K = 128

SPECTRUM_K128 = {
    "problem": "P3",
    "scenario": "spectrum",
    "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": SPECTRUM_K},
    "params": {"lambdas": SPECTRUM_LAMBDAS, "split_audit": True, "q_decay": True},
}

# acceptance criterion 7 tolerances, unchanged
PITCHFORK_LAM = 1.05
PITCHFORK_AMP_RTOL = 0.02
PITCHFORK_EXPONENT_TOL = 0.02
PITCHFORK_FIT_RANGE = (1.0099, 1.1001)
SPECTRUM_RTOL = 1e-10


def read_report(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _status(report: dict) -> list:
    if report.get("status") != "pass":
        return [f"status is {report.get('status')!r}, not 'pass'"]
    return []


def _slope(xs, ys) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def check_pitchfork(out_dir: Path) -> list:
    """Right-branch sup amplitude 2 sqrt((lam - 1)/3) at lam = 1.05 and a square-root law."""
    report = read_report(out_dir)
    errors = _status(report)
    if errors:
        return errors
    cands = report["result"]["bifurcation"]["candidates"]
    if len(cands) != 1 or abs(cands[0]["lam_star"] - 1.0) > 1e-8:
        return [f"expected one candidate at lambda 1, got {[c['lam_star'] for c in cands]}"]
    rows = [r for r in read_csv(Path(out_dir) / "branches.csv") if r["side"] == "right"]
    pts = [(float(r["lam"]), float(r["amplitude_sup"])) for r in rows]
    target = 2.0 * math.sqrt((PITCHFORK_LAM - 1.0) / 3.0)
    at = [a for lam, a in pts if math.isclose(lam, PITCHFORK_LAM, rel_tol=1e-9)]
    if not at:
        errors.append(f"no right-branch sample at lambda {PITCHFORK_LAM}")
    for a in at:
        err = abs(a - target) / target
        if not err < PITCHFORK_AMP_RTOL:
            errors.append(f"sup amplitude {a:.6g} at {PITCHFORK_LAM} is {err:.2e} from {target:.6g}")
    lo, hi = PITCHFORK_FIT_RANGE
    fit = [(math.log(lam - 1.0), math.log(a)) for lam, a in pts if lo <= lam <= hi]
    if len({x for x, _ in fit}) < 2:
        errors.append("fewer than two right-branch parameters in the exponent fit range")
    else:
        slope = _slope([x for x, _ in fit], [y for _, y in fit])
        if not abs(slope - 0.5) < PITCHFORK_EXPONENT_TOL:
            errors.append(f"fitted exponent {slope:.4f} is not within {PITCHFORK_EXPONENT_TOL} of 1/2")
    return errors


def check_census(out_dir: Path) -> list:
    """Tilted census: audit passes, alternating sum 1, every index inside the Morse window.

    A degenerate census point makes the audit raise, which ends the run with
    status ``error``, so a passing status also certifies nondegeneracy.
    """
    report = read_report(out_dir)
    errors = _status(report)
    if errors:
        return errors
    result = report["result"]
    mp = result.get("marino_prodi")
    if mp is None:
        return ["the kernel tilt did not run (no marino_prodi block)"]
    if mp.get("passed") is not True:
        errors.append("marino_prodi.passed is not true")
    audit = result["audit"]
    if audit["alternating_total"] != 1 or audit["identity_holds"] is not True:
        errors.append(f"alternating sum is {audit['alternating_total']}, not 1")
    if audit["partial_sums_hold"] is not True:
        errors.append("alternating partial sums fail")
    counts = {int(k): int(v) for k, v in audit["counts"].items()}
    if sum(counts.values()) != audit["n_points"] or audit["n_points"] < 1:
        errors.append(f"counts {counts} do not add up to {audit['n_points']} points")
    lo, hi = mp["morse_window"]
    outside = sorted(q for q in counts if not lo <= q <= hi)
    if outside:
        errors.append(f"Morse indices {outside} fall outside the window [{lo}, {hi}]")
    return errors


def _is_square(x: float) -> bool:
    r = round(math.sqrt(x))
    return r * r == x


def check_spectrum_k128(out_dir: Path) -> list:
    """Pencil eigenvalues k^2, Morse index #{k : k^2 < lam}, nullity 1 at squares, audits pass."""
    report = read_report(out_dir)
    errors = _status(report)
    if errors:
        return errors
    result = report["result"]
    eigs = result["pencil"]["eigenvalues"]
    csv_eigs = [float(r["eigenvalue"]) for r in read_csv(Path(out_dir) / "spectrum.csv")]
    for name, values in (("report", eigs), ("spectrum.csv", csv_eigs)):
        if len(values) != SPECTRUM_K:
            errors.append(f"{name} lists {len(values)} eigenvalues, not {SPECTRUM_K}")
            continue
        worst = max(abs(v - k * k) / (k * k) for k, v in enumerate(values, start=1))
        if not worst <= SPECTRUM_RTOL:
            errors.append(f"{name} eigenvalues deviate from k^2 by {worst:.2e} relative")
    if result["pencil"]["multiplicities"] != [1] * SPECTRUM_K:
        errors.append("pencil multiplicities are not all 1")
    table = {row["lam"]: row for row in result.get("morse_table", [])}
    for lam in SPECTRUM_LAMBDAS:
        row = table.get(lam)
        if row is None:
            errors.append(f"no Morse count at lambda {lam}")
            continue
        index = sum(1 for k in range(1, SPECTRUM_K + 1) if k * k < lam)
        nullity = 1 if _is_square(lam) else 0
        if (row["morse_index"], row["nullity"]) != (index, nullity):
            errors.append(
                f"at lambda {lam}: index {row['morse_index']}, nullity {row['nullity']}; "
                f"expected {index}, {nullity}"
            )
    for audit in ("split_audit", "q_decay"):
        if result.get(audit, {}).get("passed") is not True:
            errors.append(f"{audit} did not pass")
    return errors


WORKLOADS = {
    "pitchfork": (PITCHFORK, check_pitchfork),
    "census": (CENSUS, check_census),
    "spectrum_k128": (SPECTRUM_K128, check_spectrum_k128),
}


def output_files(out_dir: Path) -> dict:
    """The bytes a same-seed rerun must reproduce: report.json and every CSV."""
    out_dir = Path(out_dir)
    names = ["report.json"] + sorted(p.name for p in out_dir.glob("*.csv"))
    return {name: (out_dir / name).read_bytes() for name in names if (out_dir / name).exists()}

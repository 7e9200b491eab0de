"""Configuration-driven command line front end.

A run loads a problem document, executes one scenario (validate, spectrum,
reduce, bifurcate, morse), and writes ``report.json`` (machine readable),
``summary.txt`` (human readable), and CSV plot data.  Single-threaded runs
with a fixed config and seed are byte-deterministic: reports embed no
timestamps, and every random draw goes through one seeded generator.

Exit codes: 0 on a clean pass, 2 on numeric failures (module errors are
embedded in the report) and, under ``--strict``, on soft audit failures,
3 on configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bifurcation import detect_branches, morse_inequality_audit, orbit_group
from .catalog import load_problem
from .errors import ConfigurationError, DegenerateCriticalPointError, VeldtError
from .functional import VariationalProblem
from .galerkin import build_space, estimate_sobolev_constant, q_compactness_audit
from .lagrangian import Jet, check_growth, enumerate_multi_indices, ps_certificate
from .reduction import (
    lipschitz_audit,
    make_reduction_setup,
    marino_prodi_perturb,
    reduced_hessian_at_origin,
    sample_reduced,
    solve_psi,
)
from .spectral import decompose, split_continuity_audit, pencil_eigs

SCENARIOS = ("validate", "spectrum", "reduce", "bifurcate", "morse")


# ---------------------------------------------------------------------------
# config handling


def _parse_extent(value):
    if isinstance(value, str):
        text = value.strip().lower().replace(" ", "")
        if text.endswith("pi"):
            factor = text[:-2]
            return (float(factor) if factor not in ("", "+", "-") else float(factor + "1")) * np.pi
        return float(text)
    return float(value)


def load_config(path: Path) -> dict:
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigurationError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if "problem" not in cfg:
        raise ConfigurationError("config must name a problem (catalog name, path, or inline document)")
    params = cfg.get("params", {}) or {}
    for key, value in params.items():
        if key.endswith("tol") or key.endswith("tolerance"):
            if not (isinstance(value, (int, float)) and value > 0):
                raise ConfigurationError(f"tolerance {key!r} must be positive, got {value!r}")
    return cfg


def _resolve_problem(cfg, config_dir: Path):
    spec = cfg["problem"]
    if isinstance(spec, str) and not spec.upper().startswith("P"):
        candidate = (config_dir / spec) if not Path(spec).is_absolute() else Path(spec)
        if not candidate.exists():
            raise ConfigurationError(f"problem document not found: {candidate}")
        spec = candidate
    elif isinstance(spec, str):
        candidate = (config_dir / spec) if not Path(spec).is_absolute() else Path(spec)
        if candidate.exists():
            spec = candidate
    return load_problem(spec)


def _build_disc(cfg, model):
    block = cfg.get("discretization")
    if block is None:
        raise ConfigurationError("config needs a 'discretization' block for this scenario")
    raw_domain = block.get("domain", [0, "pi"])
    arr = np.asarray(raw_domain, dtype=object)
    if arr.ndim == 1:
        domain = tuple(_parse_extent(v) for v in raw_domain)
    else:
        domain = tuple(tuple(_parse_extent(v) for v in row) for row in raw_domain)
    m = int(block.get("m", model.lagrangian.m))
    if m != model.lagrangian.m:
        raise ConfigurationError(
            f"discretization order m={m} does not match the integrand order m={model.lagrangian.m}"
        )
    K = int(block.get("K", 32))
    bc = block.get("bc", "dirichlet")
    quad = block.get("quad_order")
    return build_space(domain, m, bc, K, quad_order=quad, n_components=model.lagrangian.N)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def version_and_provenance(cfg: dict, seed: int, threads: int) -> dict:
    return {
        "toolkit": "veldt",
        "version": __version__,
        "config_hash": config_hash(cfg),
        "seed": int(seed),
        "threads": int(threads),
    }


# ---------------------------------------------------------------------------
# serialization


def to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        if np.isnan(val):
            return "nan"
        if np.isinf(val):
            return "inf" if val > 0 else "-inf"
        return val
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_report(out_dir: Path, report: dict) -> None:
    text = json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"
    (out_dir / "report.json").write_text(text)


def write_summary(out_dir: Path, lines) -> None:
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % float(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
            fh.write("\n")


# ---------------------------------------------------------------------------
# scenarios


def _growth_samples(model, params, rng):
    lag = model.lagrangian
    iset = enumerate_multi_indices(lag.n, lag.m)
    radius = float(params.get("sample_radius", 3.0))
    count = int(params.get("sample_count", 5))
    A = len(iset)
    samples = []
    if lag.N * A <= 3:
        axes = [np.linspace(-radius, radius, count)] * (lag.N * A)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        pts = rng.uniform(-radius, radius, size=(count ** min(lag.N * A, 3), lag.N * A))
    x = 0.5 if lag.n == 1 else np.full(lag.n, 0.5)
    for row in pts:
        samples.append((x, Jet(index_set=iset, values=row.reshape(lag.N, A))))
    return samples


def run_validate(cfg, model, rng, out_dir):
    params = cfg.get("params", {}) or {}
    samples = _growth_samples(model, params, rng)
    growth = check_growth(model.lagrangian, samples)
    report = {
        "growth": growth.summary(),
        "violations": growth.violations[:20],
        "checks": ["growth-hessian-bound", "growth-ellipticity-bound"],
    }
    passed = growth.passed
    cert_cfg = params.get("certificate")
    if cert_cfg:
        cert_params = dict(cert_cfg.get("params", {}))
        if cert_cfg.get("mode") == "pairing_bound" and "sobolev_constant" not in cert_params:
            if cfg.get("discretization"):
                disc = _build_disc(cfg, model)
                cert_params["sobolev_constant"] = estimate_sobolev_constant(disc)
        cert = ps_certificate(model.lagrangian, cert_cfg["mode"], cert_params)
        report["certificate"] = {
            "mode": cert.mode,
            "passed": cert.passed,
            "margin": cert.margin,
            "detail": cert.detail,
        }
        report["checks"].append("compactness-certificate")
        passed = passed and cert.passed
    lines = [
        "scenario: validate",
        f"growth check: {'pass' if growth.passed else 'FAIL'}",
        f"max hessian-bound ratio: {np.max(growth.hessian_ratios):.6g}",
        f"min ellipticity ratio: {np.min(growth.ellipticity_ratios):.6g}",
    ]
    if "certificate" in report:
        lines.append(
            f"certificate {report['certificate']['mode']}: "
            f"{'pass' if report['certificate']['passed'] else 'FAIL'} "
            f"(margin {report['certificate']['margin']:.6g})"
        )
    return report, passed, lines


def run_spectrum(cfg, model, rng, out_dir):
    params = cfg.get("params", {}) or {}
    disc = _build_disc(cfg, model)
    problem = VariationalProblem(model=model, disc=disc)
    u0 = problem.u0
    F_h = problem.energy.hessian_dual(u0.coeffs)
    G_h = problem.constraints[0].hessian_dual(u0.coeffs)
    pencil = pencil_eigs(F_h, G_h, disc.gram)
    report = {
        "pencil": pencil.summary(),
        "checks": ["pencil-spectrum"],
        "fingerprint": disc.fingerprint(),
    }
    rows = [(lam, mult) for lam, mult in zip(pencil.eigenvalues, pencil.multiplicities)]
    write_csv(out_dir / "spectrum.csv", ["eigenvalue", "multiplicity"], rows)
    lams = params.get("lambdas", [])
    morse_table = []
    for lam in lams:
        dec = decompose(pencil.b_lambda(float(lam)), disc.gram)
        morse_table.append({"lam": float(lam), "morse_index": dec.morse_index, "nullity": dec.nullity})
    if morse_table:
        report["morse_table"] = morse_table
        report["checks"].append("morse-count")
    if params.get("sobolev", True) and disc.bc == "dirichlet":
        report["sobolev_constant"] = estimate_sobolev_constant(disc)
        report["checks"].append("embedding-constant")
    if params.get("split_audit", False):
        audit = split_continuity_audit(model.lagrangian, u0, disc, rng=rng)
        report["split_audit"] = {
            "passed": audit.passed,
            "c0_estimate": audit.c0_estimate,
            "p_slope": audit.p_slope,
            "q_slope": audit.q_slope,
        }
        report["checks"].append("split-continuity-audit")
    if params.get("q_decay", False):
        profile = q_compactness_audit(model.lagrangian, u0, disc)
        report["q_decay"] = {"passed": profile.passed, "ratios_head": profile.ratios[:8].tolist()}
        report["checks"].append("compact-tail-decay")
    # eigenvalues dropped as complex leave the reported spectrum incomplete
    passed = pencil.dropped_complex == 0 and all(
        entry.get("passed", True)
        for key in ("split_audit", "q_decay")
        for entry in [report.get(key, {})]
    )
    lines = ["scenario: spectrum", f"eigenvalues: {', '.join('%.6g' % l for l in pencil.eigenvalues[:8])}"]
    if "sobolev_constant" in report:
        lines.append(f"embedding constant: {report['sobolev_constant']:.8g}")
    return report, passed, lines


def run_reduce(cfg, model, rng, out_dir):
    params = cfg.get("params", {}) or {}
    if "lam_star" not in params:
        raise ConfigurationError("reduce scenario needs params.lam_star")
    disc = _build_disc(cfg, model)
    problem = VariationalProblem(model=model, disc=disc)
    setup = make_reduction_setup(
        problem,
        float(params["lam_star"]),
        kernel_dim=params.get("kernel_dim"),
        lambda_box=params.get("lambda_box"),
        trust_radius=params.get("trust_radius"),
    )
    tol = float(params.get("psi_tol", 1e-11))
    z_count = int(params.get("z_count", 21))
    z_radius = float(params.get("z_radius", 0.5 * setup.trust_radius))
    lam_offsets = params.get("lambda_offsets", [-0.05, -0.025, 0.0, 0.025, 0.05])
    zs = [np.array([z]) for z in np.linspace(-z_radius, z_radius, z_count)] if setup.nullity == 1 else [
        r * d
        for r in np.linspace(0, z_radius, max(z_count // 4, 2))
        for d in np.eye(setup.nullity)
    ]
    rows = []
    max_res = 0.0
    for off in lam_offsets:
        lam = setup.lam_star + float(off)
        result = sample_reduced(setup, lam, zs, tol=tol)
        max_res = max(max_res, result.max_residual())
        rows.extend(result.to_rows())
    header = (
        [f"lam_{j}" for j in range(setup.lam_star.size)]
        + [f"z_{a}" for a in range(setup.nullity)]
        + ["value", "grad_norm", "residual", "correction_norm"]
    )
    write_csv(out_dir / "reduced.csv", header, rows)

    lip = lipschitz_audit(setup, setup.lam_star, n_pairs=int(params.get("lipschitz_pairs", 20)), rng=rng)
    probe_lam = setup.lam_star + float(params.get("hessian_offset", min(0.05, 0.5 * setup.lambda_box)))
    H = reduced_hessian_at_origin(setup, probe_lam)

    # uniqueness probe: independent complement starts must land on one correction
    z_probe = np.zeros(setup.nullity)
    z_probe[0] = min(0.5 * z_radius, setup.trust_radius * 0.4)
    baseline = solve_psi(setup, setup.lam_star, z_probe, tol=tol)
    spread = 0.0
    for _ in range(int(params.get("uniqueness_starts", 10))):
        w0 = rng.standard_normal(setup.complement_basis.shape[1])
        w0 *= 0.5 * setup.trust_radius / max(np.linalg.norm(w0), 1e-300)
        probe = solve_psi(setup, setup.lam_star, z_probe, tol=tol, w0=w0)
        spread = max(spread, float(np.linalg.norm(probe.y - baseline.y)))

    passed = max_res <= tol * 10 and lip.passed and spread < 1e-8
    report = {
        "lam_star": setup.lam_star.tolist(),
        "nullity": setup.nullity,
        "trust_radius": setup.trust_radius,
        "lambda_box": setup.lambda_box,
        "max_residual": max_res,
        "lipschitz": {"max_ratio": lip.max_ratio, "passed": lip.passed},
        "reduced_hessian_at_offset": H.tolist(),
        "uniqueness_spread": spread,
        "checks": [
            "complement-residual-contract",
            "correction-lipschitz-bound",
            "reduced-hessian-identity",
            "correction-uniqueness-probe",
        ],
    }
    lines = [
        "scenario: reduce",
        f"max complement residual: {max_res:.3e}",
        f"lipschitz ratio: {lip.max_ratio:.4f} (bound 3)",
        f"uniqueness spread: {spread:.3e}",
    ]
    return report, passed, lines


def run_bifurcate(cfg, model, rng, out_dir):
    params = cfg.get("params", {}) or {}
    window = params.get("window")
    if not window or len(window) != 2:
        raise ConfigurationError("bifurcate scenario needs params.window = [lo, hi]")
    disc = _build_disc(cfg, model)
    problem = VariationalProblem(model=model, disc=disc)
    report_obj = detect_branches(
        problem,
        (float(window[0]), float(window[1])),
        grid=int(params.get("grid", 9)),
        amplitude_cap=float(params.get("amplitude_cap", 3.0)),
        n_starts=int(params.get("n_starts", 4)),
        rng=rng,
    )
    rows = []
    for cand in report_obj.candidates:
        for b_id, branch in enumerate(cand.branches):
            if disc.bc == "periodic" and branch.samples:
                tails = [disc.field(s.coeffs) for s in branch.samples]
                grouping = orbit_group(tails, disc, tol=float(params.get("orbit_tol", 1e-6)))
                branch.orbit_tag = grouping.n_orbits
            for s in branch.samples:
                rows.append(
                    (
                        cand.lam_star,
                        b_id,
                        branch.side,
                        s.lam,
                        s.amplitude,
                        s.amplitude_sup,
                        s.morse_index,
                        s.nullity,
                        branch.orbit_tag if branch.orbit_tag is not None else -1,
                    )
                )
    write_csv(
        out_dir / "branches.csv",
        ["lam_star", "branch", "side", "lam", "amplitude", "amplitude_sup", "morse_index", "nullity", "orbit_tag"],
        rows,
    )
    passed = report_obj.pencil_summary["dropped_complex"] == 0 and all(not cand.gaps for cand in report_obj.candidates)
    report = {
        "bifurcation": report_obj.summary(),
        "checks": ["pencil-necessary-test", "index-jump-identity", "branch-residual-contract"],
    }
    lines = ["scenario: bifurcate"]
    for cand in report_obj.candidates:
        lines.append(
            f"candidate {cand.lam_star:.6g}: class {cand.condition.klass}, "
            f"alternative ({cand.alternative}), {len(cand.branches)} branches"
        )
    return report, passed, lines


def _census_seeds(problem, lam, amplitudes, n_random, rng):
    disc = problem.disc
    u0 = problem.u0
    func = problem.at_parameter(lam)
    dec = decompose(func.hessian_dual(u0.coeffs), disc.gram)
    seeds = [u0.coeffs.copy()]
    n_dirs = min(6, disc.dim)
    for j in range(n_dirs):
        v = dec.eigenvectors[:, j]
        for amp in amplitudes:
            seeds.append(u0.coeffs + amp * v)
            seeds.append(u0.coeffs - amp * v)
    for _ in range(n_random):
        d = rng.standard_normal(disc.dim)
        d /= disc.norm(d)
        seeds.append(u0.coeffs + rng.uniform(0.2, 2.0) * d)
    return seeds


def run_morse(cfg, model, rng, out_dir):
    params = cfg.get("params", {}) or {}
    lam = float(params.get("lam", 0.0))
    disc = _build_disc(cfg, model)
    problem = VariationalProblem(model=model, disc=disc)
    func = problem.at_parameter([lam])
    seeds = _census_seeds(
        problem,
        [lam],
        params.get("amplitudes", [0.25, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0]),
        int(params.get("n_random", 8)),
        rng,
    )
    window = tuple(params.get("window")) if params.get("window") else None
    report: dict = {"lam": lam, "checks": ["morse-alternating-sum", "census-nondegeneracy"]}
    try:
        audit = morse_inequality_audit(func, seeds, window=window)
    except DegenerateCriticalPointError as exc:
        mp_cfg = params.get("marino_prodi")
        if not mp_cfg:
            raise
        result = marino_prodi_perturb(
            func,
            problem.u0,
            r=float(mp_cfg.get("r", 0.5)),
            delta_inner=float(mp_cfg.get("delta_inner", 0.25)),
            rng=rng,
        )
        report["marino_prodi"] = {
            "passed": result.passed,
            "attempts": result.attempts,
            "morse_window": list(result.morse_window),
            "n_points": len(result.critical_points),
        }
        report["checks"].append("kernel-tilt-census")
        audit = morse_inequality_audit(result.perturbed, seeds, window=window)
    report["audit"] = audit.summary()
    passed = audit.identity_holds and audit.partial_sums_hold
    lines = [
        "scenario: morse",
        f"census: {len(audit.points)} points, counts {audit.summary()['counts']}",
        f"alternating sum: {audit.alternating_total} (target 1)",
    ]
    return report, passed, lines


RUNNERS = {
    "validate": run_validate,
    "spectrum": run_spectrum,
    "reduce": run_reduce,
    "bifurcate": run_bifurcate,
    "morse": run_morse,
}


# ---------------------------------------------------------------------------
# entry point


def run(config_path, out_dir, seed: int = 0, threads: int = 1, strict: bool = False) -> int:
    config_path = Path(config_path)
    out_dir = Path(out_dir)
    try:
        cfg = load_config(config_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        model = _resolve_problem(cfg, config_path.parent)
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3

    rng = np.random.default_rng(seed)
    provenance = version_and_provenance(cfg, seed, threads)
    try:
        report, passed, lines = RUNNERS[cfg["scenario"]](cfg, model, rng, out_dir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except VeldtError as exc:
        report = {
            "provenance": provenance,
            "scenario": cfg["scenario"],
            "status": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        write_report(out_dir, report)
        write_summary(out_dir, [f"scenario: {cfg['scenario']}", f"error: {exc}"])
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2

    status = "pass" if passed else "audit_failed"
    full_report = {
        "provenance": provenance,
        "scenario": cfg["scenario"],
        "status": status,
        "result": report,
    }
    write_report(out_dir, full_report)
    write_summary(out_dir, lines + [f"status: {status}", f"seed: {seed}"])
    if not passed and strict:
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="veldt", description="variational analysis scenarios on desk-scale problems")
    parser.add_argument("--config", required=True, help="path to the run configuration JSON")
    parser.add_argument("--out", default="veldt-out", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1, help="recorded in provenance; execution is single threaded")
    parser.add_argument("--strict", action="store_true", help="audit failures exit nonzero")
    args = parser.parse_args(argv)
    return run(args.config, args.out, seed=args.seed, threads=args.threads, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())

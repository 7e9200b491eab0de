"""Configuration-driven command line front end.

A run loads a problem document, executes one scenario (validate, spectrum,
reduce, bifurcate, morse), and writes ``report.json`` (machine readable),
``summary.txt`` (human readable), and CSV plot data.  Single-threaded runs
with a fixed config and seed are byte-deterministic: reports embed no
timestamps, and every random draw goes through one seeded generator.
``CONFIG_KEYS`` declares every key a config document may carry, with its
default; any other key, a value whose JSON type differs from the
default's, or a count below its bound in ``MINIMUMS`` is a configuration
error.

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
from .catalog import MODEL_NAMES, _known, _read_json, load_problem
from .errors import ConfigurationError, IndexJumpMismatchError, VeldtError
from .functional import DEDUPE_TOL, VariationalProblem, _star_seeds
from .galerkin import build_space, estimate_sobolev_constant, hessian_split, q_compactness_audit
from .lagrangian import check_growth, ps_certificate
from .reduction import (
    COMPLEMENT_TOL,
    LIPSCHITZ_BOUND,
    lipschitz_audit,
    make_reduction_setup,
    marino_prodi_perturb,
    reduced_hessian_at_origin,
    sample_reduced,
    solve_psi,
)
from .spectral import decompose, morse_index_by_formula, split_continuity_audit

CENSUS_AMPLITUDES = (0.25, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0)  # star-seed amplitudes of the morse census
REDUCE_RESIDUAL_FACTOR = 10  # multiple of COMPLEMENT_TOL that the largest complement residual of a reduce run may reach
UNIQUENESS_TOL = 1e-8  # distance between corrections from independent starts below which the reduce probe finds one

REQUIRED = "required"

# Every key a config document may carry, with its default.  A dict-valued
# entry is a block: absent unless given, its own keys merged when it is.
# ``params`` holds one block per scenario and is always merged.  null counts
# as absent everywhere.
CONFIG_KEYS = {
    "problem": REQUIRED,
    "scenario": REQUIRED,
    "discretization": {"domain": [0, "pi"], "m": None, "bc": "dirichlet", "K": 32, "quad_order": None},
    "params": {
        "validate": {
            "sample_radius": 3.0,
            "sample_count": 5,
            "certificate": {"mode": REQUIRED, "params": None},
        },
        "spectrum": {"lambdas": [], "split_audit": False, "q_decay": False},
        "reduce": {
            "lam_star": REQUIRED,
            "z_count": 21,
            "z_radius": None,
            "lambda_offsets": [-0.05, -0.025, 0.0, 0.025, 0.05],
            "lipschitz_pairs": 20,
            "uniqueness_starts": 10,
        },
        "bifurcate": {"window": REQUIRED, "grid": 9, "amplitude_cap": 3.0},
        "morse": {"lam": 0.0, "n_random": 8, "window": None, "marino_prodi": {"r": 0.5, "delta_inner": 0.25}},
    },
}
SCENARIOS = tuple(CONFIG_KEYS["params"])
# The lower bound of every count-like or radius-like key, by key name: (bound,
# inclusive).  A value below it, or on it when the bound is exclusive, is a
# configuration error; the bound's JSON type is the value's.
MINIMUMS = {
    "quad_order": (1, True),
    "sample_count": (1, True),
    "z_count": (1, True),
    "lipschitz_pairs": (1, True),
    "uniqueness_starts": (1, True),
    "grid": (1, True),
    "amplitude_cap": (0.0, False),
    "sample_radius": (0.0, False),
    "z_radius": (0.0, False),
    "n_random": (0, True),
}


# ---------------------------------------------------------------------------
# config handling


def _parse_extent(value) -> float:
    """A domain end point: a number, or a multiple of pi written like "2pi"; ValueError when it is neither."""
    if isinstance(value, str):
        text = value.strip().lower().replace(" ", "")
        if text.endswith("pi"):
            factor = text[:-2]
            return (float(factor) if factor not in ("", "+", "-") else float(factor + "1")) * np.pi
        return float(text)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def _typed(value, example, where: str):
    """``value`` when it has the JSON type of ``example``; an integer passes for a float, a boolean only for a bool."""
    kinds = (int, float) if isinstance(example, float) else type(example)
    if not isinstance(value, kinds) or isinstance(value, bool) != isinstance(example, bool):
        raise ConfigurationError(f"{where} must be of type {type(example).__name__}, got {value!r}")
    # a list holds numbers; the domain, whose default holds "pi", holds end points or rows of them
    if isinstance(example, list):
        extents = any(isinstance(item, str) for item in example)
        rows = value if extents and all(isinstance(row, list) for row in value) else [value]
        if len({len(row) for row in rows}) > 1:
            raise ConfigurationError(f"{where} must be an interval or rows of one length, got {value!r}")
        try:
            for item in (item for row in rows for item in row):
                if isinstance(item, str) and not extents:
                    raise ValueError(f"not a number: {item!r}")
                _parse_extent(item)
        except ValueError:
            what = 'numbers or multiples of pi such as "2pi"' if extents else "numbers"
            raise ConfigurationError(f"{where} must be a list of {what}, got {value!r}") from None
    return value


def _merged(block, keys: dict, where: str) -> dict:
    """``block`` checked against its declared ``keys`` and ``MINIMUMS``, every absent key set to its default."""
    _known(block, keys, where)
    merged = {}
    for key, default in keys.items():
        value = block.get(key)
        if value is None and default is REQUIRED:
            raise ConfigurationError(f"{where} needs {key!r}")
        if isinstance(default, dict):
            merged[key] = None if value is None else _merged(value, default, f"{where}.{key}")
        elif value is None or default is None or default is REQUIRED:
            merged[key] = default if value is None else value
        else:
            merged[key] = _typed(value, default, f"{where}.{key}")
        if key in MINIMUMS and merged[key] is not None:
            bound, inclusive = MINIMUMS[key]
            value = _typed(merged[key], bound, f"{where}.{key}")
            if value < bound or (value == bound and not inclusive):
                relation = "at least" if inclusive else "above"
                raise ConfigurationError(f"{where}.{key} must be {relation} {bound}, got {value!r}")
    return merged


def load_config(path: Path) -> tuple:
    """The config document as written and the same document with every default filled in."""
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    doc = _read_json(path, "config")
    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigurationError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    keys = dict(CONFIG_KEYS, params=CONFIG_KEYS["params"][scenario])
    params = doc.get("params")
    return doc, _merged(dict(doc, params={} if params is None else params), keys, "config")


def _resolve_problem(cfg, config_dir: Path):
    """The problem a config names: a document file relative to the config's directory, else a catalog name."""
    spec = cfg["problem"]
    if isinstance(spec, str) and ((config_dir / spec).is_file() or spec.upper() not in MODEL_NAMES):
        spec = config_dir / spec
    return load_problem(spec)


def _build_disc(block, model):
    if block is None:
        raise ConfigurationError("config needs a 'discretization' block for this scenario")
    raw_domain = block["domain"]
    if np.asarray(raw_domain, dtype=object).ndim == 1:
        domain = tuple(_parse_extent(v) for v in raw_domain)
    else:
        domain = tuple(tuple(_parse_extent(v) for v in row) for row in raw_domain)
    m = model.lagrangian.m
    if block["m"] is not None and _typed(block["m"], 0, "config.discretization.m") != m:
        raise ConfigurationError(f"discretization order m={block['m']} does not match the integrand order m={m}")
    return build_space(
        domain, m, block["bc"], block["K"], quad_order=block["quad_order"], n_components=model.lagrangian.N
    )


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def version_and_provenance(cfg: dict, seed: int) -> dict:
    return {
        "toolkit": "veldt",
        "version": __version__,
        "config_hash": config_hash(cfg),
        "seed": int(seed),
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
    """(x, xi) in the callbacks' layout: a jet grid, or uniform draws when the jet has more than 3 entries."""
    lag = model.lagrangian
    radius = float(params["sample_radius"])
    count = int(params["sample_count"])
    A = len(lag.index_set)
    if lag.N * A <= 3:
        axes = [np.linspace(-radius, radius, count)] * (lag.N * A)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        pts = rng.uniform(-radius, radius, size=(count ** min(lag.N * A, 3), lag.N * A))
    S = pts.shape[0]
    return np.full((S,) if lag.n == 1 else (S, lag.n), 0.5), pts.reshape(S, lag.N, A)


def run_validate(params, disc_block, model, rng, out_dir):
    samples = _growth_samples(model, params, rng)
    growth = check_growth(model.lagrangian, *samples)
    report = {
        "growth": growth.summary(),
        "violations": growth.violations[:20],
        "checks": ["growth-hessian-bound", "growth-ellipticity-bound"],
    }
    passed = growth.passed
    cert_cfg = params["certificate"]
    if cert_cfg is not None:
        cert_params = dict(_typed(cert_cfg["params"] or {}, {}, "config.params.certificate.params"))
        if cert_cfg["mode"] == "pairing_bound" and "sobolev_constant" not in cert_params and disc_block is not None:
            cert_params["sobolev_constant"] = estimate_sobolev_constant(_build_disc(disc_block, model))
        cert = ps_certificate(model.lagrangian, *samples, cert_cfg["mode"], cert_params)
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


def run_spectrum(params, disc_block, model, rng, out_dir):
    disc = _build_disc(disc_block, model)
    problem = VariationalProblem(model=model, disc=disc)
    u0 = problem.u0
    pencil = problem.pencil
    report = {
        "pencil": pencil.summary(),
        "checks": ["pencil-spectrum"],
        "fingerprint": disc.fingerprint(),
    }
    rows = [(lam, mult) for lam, mult in zip(pencil.eigenvalues, pencil.multiplicities)]
    write_csv(out_dir / "spectrum.csv", ["eigenvalue", "multiplicity"], rows)
    morse_table = []
    for lam in map(float, params["lambdas"]):
        dec = decompose(pencil.b_lambda(lam), disc.gram)
        counts = (dec.morse_index, dec.nullity)
        # the crossing count cannot see the directions of dropped complex eigenvalues, which fail the audit anyway
        formula = counts if pencil.dropped_complex else morse_index_by_formula(pencil, lam)
        if counts != formula:
            raise IndexJumpMismatchError(
                f"at lam = {lam} decompose counts (morse index, nullity) {counts}, the crossing formula {formula}",
                direct=counts,
                formula=formula,
            )
        morse_table.append({"lam": lam, "morse_index": dec.morse_index, "nullity": dec.nullity})
    if morse_table:
        report["morse_table"] = morse_table
        report["checks"].append("morse-count")
    if disc.bc == "dirichlet":
        report["sobolev_constant"] = estimate_sobolev_constant(disc)
    if params["split_audit"] or params["q_decay"]:
        split = hessian_split(model.lagrangian, u0)
    if params["split_audit"]:
        audit = split_continuity_audit(split, rng=rng)
        report["split_audit"] = {
            "passed": audit.passed,
            "c0_estimate": audit.c0_estimate,
            "p_slope": audit.p_slope,
            "q_slope": audit.q_slope,
        }
        report["checks"].append("split-continuity-audit")
    if params["q_decay"]:
        profile = q_compactness_audit(split)
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


def run_reduce(params, disc_block, model, rng, out_dir):
    problem = VariationalProblem(model=model, disc=_build_disc(disc_block, model))
    setup = make_reduction_setup(problem, float(_typed(params["lam_star"], 0.0, "config.params.lam_star")))
    z_count = int(params["z_count"])
    z_radius = params["z_radius"]
    z_radius = 0.5 * setup.trust_radius if z_radius is None else float(z_radius)
    if setup.nullity == 1:
        zs = [np.array([z]) for z in np.linspace(-z_radius, z_radius, z_count)]
    else:
        # the origin once, then the nonzero radii along each kernel axis
        radii = np.linspace(0, z_radius, max(z_count // 4, 2))[1:]
        zs = [np.zeros(setup.nullity)] + [r * d for r in radii for d in np.eye(setup.nullity)]
    rows = []
    max_res = 0.0
    for off in params["lambda_offsets"]:
        result = sample_reduced(setup, setup.lam_star + float(off), zs)
        max_res = max(max_res, result.max_residual())
        rows.extend(result.to_rows())
    header = ["lam_0"] + [f"z_{a}" for a in range(setup.nullity)] + ["value", "grad_norm", "residual", "correction_norm"]
    write_csv(out_dir / "reduced.csv", header, rows)

    lip = lipschitz_audit(setup, setup.lam_star, n_pairs=int(params["lipschitz_pairs"]), rng=rng)
    H = reduced_hessian_at_origin(setup, setup.lam_star + min(0.05, 0.5 * setup.lambda_box))

    # uniqueness probe: independent complement starts must land on one correction
    z_probe = np.zeros(setup.nullity)
    z_probe[0] = min(0.5 * z_radius, setup.trust_radius * 0.4)
    baseline = solve_psi(setup, setup.lam_star, z_probe)
    spread = 0.0
    for _ in range(int(params["uniqueness_starts"])):
        w0 = rng.standard_normal(setup.complement_basis.shape[1])
        w0 *= 0.5 * setup.trust_radius / max(np.linalg.norm(w0), 1e-300)
        probe = solve_psi(setup, setup.lam_star, z_probe, w0=w0)
        spread = max(spread, float(np.linalg.norm(probe.y - baseline.y)))

    passed = max_res <= COMPLEMENT_TOL * REDUCE_RESIDUAL_FACTOR and lip.passed and spread < UNIQUENESS_TOL
    report = {
        "lam_star": [setup.lam_star],
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
        f"lipschitz ratio: {lip.max_ratio:.4f} (bound {LIPSCHITZ_BOUND:g})",
        f"uniqueness spread: {spread:.3e}",
    ]
    return report, passed, lines


def run_bifurcate(params, disc_block, model, rng, out_dir):
    disc = _build_disc(disc_block, model)
    problem = VariationalProblem(model=model, disc=disc)
    report_obj = detect_branches(
        problem,
        params["window"],
        grid=int(params["grid"]),
        amplitude_cap=float(params["amplitude_cap"]),
        rng=rng,
    )
    rows = []
    for cand in report_obj.candidates:
        tags = _orbit_tags(cand, disc) if disc.bc == "periodic" else {}
        for b_id, branch in enumerate(cand.branches):
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
                        tags.get(id(s), -1),
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
        "checks": ["index-jump-identity"],
    }
    lines = ["scenario: bifurcate"]
    for cand in report_obj.candidates:
        lines.append(
            f"candidate {cand.lam_star:.6g}: class {cand.condition.klass}, "
            f"alternative ({cand.alternative}), {len(cand.branches)} branches"
        )
    return report, passed, lines


def _orbit_tags(cand, disc) -> dict:
    """id of each branch sample of a candidate -> the index of its translation orbit
    among the candidate's samples at the same parameter value."""
    by_lam: dict = {}
    for branch in cand.branches:
        for s in branch.samples:
            by_lam.setdefault(s.lam, []).append(s)
    tags = {}
    for group in by_lam.values():
        for tag, members in enumerate(orbit_group([disc.field(s.coeffs) for s in group], disc).classes):
            tags.update((id(group[i]), tag) for i in members)
    return tags


def _census_seeds(problem, func, amplitudes, n_random, rng):
    disc = problem.disc
    u0 = problem.u0
    dec = decompose(func.hessian_dual(u0), disc.gram)
    seeds = _star_seeds(u0.coeffs, dec.eigenvectors[:, : min(6, disc.dim)].T, amplitudes)
    for _ in range(n_random):
        d = rng.standard_normal(disc.dim)
        d /= disc.norm(d)
        seeds.append(u0.coeffs + rng.uniform(0.2, 2.0) * d)
    return seeds


def run_morse(params, disc_block, model, rng, out_dir):
    lam = float(params["lam"])
    mp_cfg = params["marino_prodi"]
    if mp_cfg is not None and not 0 < mp_cfg["delta_inner"] < mp_cfg["r"]:
        raise ConfigurationError(
            f"config.params.marino_prodi needs 0 < delta_inner < r, got delta_inner={mp_cfg['delta_inner']}, "
            f"r={mp_cfg['r']}"
        )
    problem = VariationalProblem(model=model, disc=_build_disc(disc_block, model))
    func = problem.at_parameter(lam)
    seeds = _census_seeds(problem, func, CENSUS_AMPLITUDES, int(params["n_random"]), rng)
    window = params["window"]
    report: dict = {"lam": lam, "checks": ["morse-alternating-sum", "census-nondegeneracy"]}

    def tilt_at_base(witness):
        # the tilt is local to u0: a degenerate point elsewhere is reported, not tilted
        if mp_cfg is None or problem.disc.norm(witness.coeffs - problem.u0.coeffs) > DEDUPE_TOL:
            return None
        return marino_prodi_perturb(
            problem, lam, r=float(mp_cfg["r"]), delta_inner=float(mp_cfg["delta_inner"]), rng=rng
        )

    audit = morse_inequality_audit(func, seeds, window=window, tilt=tilt_at_base)
    tilt_passed = True
    for result, captured in audit.captures:  # at most one: once tilted, u0 lies in its capture ball
        report["marino_prodi"] = {
            "passed": result.passed,
            "attempts": result.attempts,
            "morse_window": list(result.morse_window),
            "n_points": len(result.critical_points),
            "captured": captured,
        }
        report["checks"].append("kernel-tilt-census")
        tilt_passed = result.passed
    report["audit"] = audit.summary()
    passed = audit.identity_holds and audit.partial_sums_hold and tilt_passed
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


def run(config_path, out_dir, seed: int = 0, strict: bool = False) -> int:
    config_path = Path(config_path)
    out_dir = Path(out_dir)
    try:
        doc, cfg = load_config(config_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        model = _resolve_problem(cfg, config_path.parent)
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3

    rng = np.random.default_rng(seed)
    provenance = version_and_provenance(doc, seed)
    try:
        report, passed, lines = RUNNERS[cfg["scenario"]](cfg["params"], cfg["discretization"], model, rng, out_dir)
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
    parser.add_argument("--strict", action="store_true", help="audit failures exit nonzero")
    args = parser.parse_args(argv)
    return run(args.config, args.out, seed=args.seed, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())

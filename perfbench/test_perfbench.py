"""Checks of the benchmark itself: oracles, determinism check and tracer.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

The oracle tests run each workload once (about 20 s in all) and then show
that every check rejects a tampered copy of a correct output.
"""

import json
import math
import os
import shutil
import sys
from pathlib import Path

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # as in run.py; effective when numpy is not imported yet

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import veldt  # noqa: E402
import veldt.cli as cli  # noqa: E402
from run import Sampler, per_layer_metrics  # noqa: E402
from tracer import TIMED, Tracer  # noqa: E402
from workloads import WORKLOADS, read_csv  # noqa: E402

SMALL_PITCHFORK = {
    "problem": "P2",
    "scenario": "bifurcate",
    "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 12},
    "params": {"window": [0.9, 1.1], "grid": 5},
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One correct output directory per workload."""
    base = tmp_path_factory.mktemp("outputs")
    dirs = {}
    for name, (config, _) in WORKLOADS.items():
        cfg = base / f"{name}.json"
        cfg.write_text(json.dumps(config))
        assert cli.run(cfg, base / name, seed=7) == 0
        dirs[name] = base / name
    return dirs


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


def _edit_report(out_dir: Path, edit):
    path = out_dir / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def _edit_csv(path: Path, edit):
    rows = read_csv(path)
    header = list(rows[0])
    for row in rows:
        edit(row)
    path.write_text("\n".join([",".join(header)] + [",".join(row[h] for h in header) for row in rows]) + "\n")


def _scale_amp(lam, factor):
    def edit(row):
        if row["side"] == "right" and math.isclose(float(row["lam"]), lam):
            row["amplitude_sup"] = repr(float(row["amplitude_sup"]) * factor)

    return lambda out: _edit_csv(out / "branches.csv", edit)


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return lambda out: _edit_report(out, edit)


def _edit_result(fn):
    return lambda out: _edit_report(out, lambda report: fn(report["result"]))


def _bump_eigenvalue(result):
    eigs = result["pencil"]["eigenvalues"]
    eigs[99] *= 1 + 1e-9


def _bump_csv_eigenvalue(out):
    def edit(row):
        if float(row["eigenvalue"]) > 16383:
            row["eigenvalue"] = repr(float(row["eigenvalue"]) * (1 + 1e-9))

    _edit_csv(out / "spectrum.csv", edit)


def _morse_row(i, **changes):
    return _edit_result(lambda result: result["morse_table"][i].update(changes))


def _index_outside_window(result):
    """Every point moved to index hi + 1, so the count total still matches."""
    audit = result["audit"]
    hi = result["marino_prodi"]["morse_window"][1]
    audit["counts"] = {str(hi + 1): audit["n_points"]}


# workload -> check -> (tamper, a substring of the message the check must give)
TAMPERS = {
    "pitchfork": {
        "status": (_set("status", "audit_failed"), "status is 'audit_failed'"),
        "amplitude at 1.05": (_scale_amp(1.05, 1.03), "sup amplitude"),
        "exponent": (_scale_amp(1.1, 1.03), "fitted exponent"),
        "candidate": (
            _edit_result(lambda r: r["bifurcation"]["candidates"][0].update(lam_star=1.01)),
            "expected one candidate",
        ),
    },
    "census": {
        "status": (_set("status", "audit_failed"), "status is 'audit_failed'"),
        "tilt passed": (_set("result", "marino_prodi", "passed", False), "marino_prodi.passed"),
        "tilt missing": (_edit_result(lambda r: r.pop("marino_prodi")), "kernel tilt did not run"),
        "alternating sum": (_set("result", "audit", "alternating_total", 2), "alternating sum is 2"),
        "partial sums": (_set("result", "audit", "partial_sums_hold", False), "partial sums fail"),
        "index outside window": (_edit_result(_index_outside_window), "outside the window"),
        "point count": (_set("result", "audit", "n_points", 5), "do not add up to 5 points"),
    },
    "spectrum_k128": {
        "status": (_set("status", "error"), "status is 'error'"),
        "report eigenvalue": (_edit_result(_bump_eigenvalue), "report eigenvalues deviate"),
        "csv eigenvalue": (_bump_csv_eigenvalue, "spectrum.csv eigenvalues deviate"),
        "eigenvalue count": (
            _edit_result(lambda r: r["pencil"]["eigenvalues"].pop()),
            "report lists 127 eigenvalues",
        ),
        "morse index": (_morse_row(2, morse_index=2), "at lambda 9.5: index 2"),
        "nullity at a square": (_morse_row(1, nullity=0), "at lambda 4.0: index 1, nullity 0"),
        "nullity off a square": (_morse_row(0, nullity=1), "at lambda 2.5: index 1, nullity 1"),
        "split audit": (_set("result", "split_audit", "passed", False), "split_audit did not pass"),
        "tail audit": (_set("result", "q_decay", "passed", False), "q_decay did not pass"),
    },
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_oracle_accepts_a_correct_output(outputs, workload):
    assert WORKLOADS[workload][1](outputs[workload]) == []


@pytest.mark.parametrize(
    "workload,tamper", [(w, t) for w in sorted(TAMPERS) for t in sorted(TAMPERS[w])]
)
def test_oracle_rejects_a_tampered_output(outputs, tmp_path, workload, tamper):
    out = _copy(outputs[workload], tmp_path)
    edit, expected = TAMPERS[workload][tamper]
    edit(out)
    errors = WORKLOADS[workload][1](out)
    assert any(expected in e for e in errors), errors


def test_same_seed_rerun_must_be_byte_identical(tmp_path):
    sampler = Sampler(cli, "spectrum_k128", tmp_path)
    assert sampler.run(3)["errors"] == []
    assert sampler.run(3)["errors"] == []

    real_run = cli.run

    class Drifting:
        @staticmethod
        def run(config_path, out_dir, seed):
            code = real_run(config_path, out_dir, seed=seed)
            with open(Path(out_dir) / "spectrum.csv", "a") as fh:
                fh.write("\n")
            return code

    sampler.cli = Drifting
    errors = sampler.run(3)["errors"]
    assert len(errors) == 1 and "not byte-identical" in errors[0] and "spectrum.csv" in errors[0]


def _sites(obj):
    """Every (owner, attribute) in veldt bound to ``obj``."""
    modules = [m for n, m in sys.modules.items() if n == "veldt" or n.startswith("veldt.")]
    owners = modules + [veldt.galerkin.Discretization, veldt.lagrangian.Lagrangian]
    return {(owner.__name__, key) for owner in owners for key, value in vars(owner).items() if value is obj}


def test_tracer_rebinds_every_import_site_and_restores():
    originals = {}
    for mod, path in TIMED:
        obj = sys.modules[f"veldt.{mod}"]
        for part in path.split("."):
            obj = getattr(obj, part)
        originals[(mod, path)] = (obj, _sites(obj))
    hessian_sites = originals[("galerkin", "assemble_hessian")][1]
    assert {"veldt.galerkin", "veldt.functional", "veldt.spectral"} <= {o for o, _ in hessian_sites}
    psi_sites = originals[("reduction", "solve_psi")][1]
    assert {"veldt.reduction", "veldt.bifurcation", "veldt.cli"} <= {o for o, _ in psi_sites}

    owners = {o.__name__: o for o in (veldt.galerkin.Discretization, veldt.lagrangian.Lagrangian)}
    with Tracer():
        for key, (obj, sites) in originals.items():
            assert _sites(obj) == set(), f"{key} is still bound somewhere"
            for owner, attr in sites:
                wrapper = vars(owners.get(owner) or sys.modules[owner])[attr]
                assert wrapper.__wrapped__ is obj
    for key, (obj, sites) in originals.items():
        assert _sites(obj) == sites, f"{key} was not restored"


def test_traced_call_counts_repeat_and_self_times_add_up(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL_PITCHFORK))
    tracer = Tracer()
    walls = []
    for run_id in range(2):
        with tracer:
            assert tracer.call(run_id, cli.run, cfg, tmp_path / f"out{run_id}", seed=5) == 0
        spans = [s for s in tracer.spans if s[4] == run_id]
        root = [s for s in spans if s[3] == -1]
        assert len(root) == 1 and all(s is not None for s in spans)
        walls.append(root[0][2] - root[0][1])
        stats = tracer.layer_stats(run_id)
        total_self = sum(e.get("self_s", 0.0) for e in stats.values())
        assert total_self == pytest.approx(walls[-1], rel=1e-9)
    metrics, repeat_errors, runs = per_layer_metrics(tracer, [0, 1], walls, walls)
    assert repeat_errors == []
    assert metrics["reduction.solve_psi.calls"][0] > 0
    assert metrics["functional.newton_polish.calls"][0] > 0
    assert metrics["reduction.solve_psi.hessians_per_call"][0] > 0
    assert metrics["lagrangian.Lagrangian.hessian_at.calls"][0] == metrics["galerkin.assemble_hessian.calls"][0]
    assert runs[0]["cli.write_csv"]["calls"] == 1

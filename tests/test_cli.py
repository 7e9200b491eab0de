import json

import numpy as np
import pytest

from veldt.cli import config_hash, load_config, main, run, to_jsonable
from veldt.catalog import load_problem, model_problem
from veldt.errors import ConfigurationError


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _spectrum_config(K=32, lambdas=(2.5,)):
    return {
        "problem": "P1",
        "scenario": "spectrum",
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": K},
        "params": {"lambdas": list(lambdas)},
    }


# ---------------------------------------------------------------------------
# configuration handling


def test_load_config_rejects_unknown_scenario(tmp_path):
    path = _write(tmp_path, "bad.json", {"problem": "P1", "scenario": "solve"})
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_load_config_rejects_nonpositive_tolerance(tmp_path):
    cfg = _spectrum_config()
    cfg["params"]["psi_tol"] = -1.0
    path = _write(tmp_path, "bad.json", cfg)
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_missing_config_exits_3(tmp_path):
    assert run(tmp_path / "nope.json", tmp_path / "out") == 3


def test_missing_problem_document_exits_3(tmp_path):
    cfg = _spectrum_config()
    cfg["problem"] = "problems/nonexistent.json"
    path = _write(tmp_path, "cfg.json", cfg)
    assert run(path, tmp_path / "out") == 3


def test_config_hash_changes_with_K():
    a = config_hash(_spectrum_config(K=32))
    b = config_hash(_spectrum_config(K=64))
    assert a != b


def test_problem_document_loading(tmp_path):
    doc = {
        "n": 1,
        "m": 1,
        "N": 1,
        "integrand": {
            "terms": [
                {"coef": 0.5, "factors": [{"component": 0, "alpha": [1], "power": 2}]},
                {"coef": 0.25, "factors": [{"component": 0, "alpha": [0], "power": 4}]},
            ]
        },
        "growth": {"p": 2.0, "g1": {"kind": "shifted_power", "scale": 3.0, "power": 2.0},
                   "g2": {"kind": "const", "value": 1.0}},
    }
    loaded = load_problem(doc)
    reference = model_problem("P2")
    xi = np.random.default_rng(0).uniform(-2, 2, size=(40, 1, 2))
    x = np.zeros(40)
    assert np.allclose(loaded.lagrangian.value_at(x, xi), reference.lagrangian.value_at(x, xi))
    assert np.allclose(loaded.lagrangian.gradient_at(x, xi), reference.lagrangian.gradient_at(x, xi))


def test_problem_document_rejects_top_order_constraint():
    doc = {
        "n": 1, "m": 1, "N": 1,
        "integrand": {"terms": [{"coef": 0.5, "factors": [{"component": 0, "alpha": [1], "power": 2}]}]},
        "constraint": {"terms": [{"coef": 0.5, "factors": [{"component": 0, "alpha": [1], "power": 2}]}]},
    }
    with pytest.raises(ConfigurationError):
        load_problem(doc)


# ---------------------------------------------------------------------------
# scenario runs


def test_spectrum_scenario(tmp_path):
    cfg = _spectrum_config(K=64, lambdas=(2.5, 4.0))
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out, seed=3) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["provenance"]["seed"] == 3
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    eigs = [float(r.split(",")[0]) for r in rows[:5]]
    for k, lam in enumerate(eigs, start=1):
        assert abs(lam - k**2) / k**2 < 1e-3
    assert report["result"]["pencil"]["dropped_complex"] == 0
    table = report["result"]["morse_table"]
    assert table[0] == {"lam": 2.5, "morse_index": 1, "nullity": 0}
    assert table[1] == {"lam": 4.0, "morse_index": 1, "nullity": 1}


@pytest.mark.parametrize("scenario", ["spectrum", "bifurcate"])
def test_audit_fails_on_dropped_complex_eigenvalues(tmp_path, scenario):
    # F = (u1'^2 - u2'^2) / 2 is indefinite and G = u1 u2 couples the components,
    # so F^-1 G has the imaginary pair +-i/k^2 on every sine mode k
    factor = lambda comp, alpha, power: {"component": comp, "alpha": [alpha], "power": power}
    doc = {
        "n": 1, "m": 1, "N": 2,
        "integrand": {"terms": [
            {"coef": 0.5, "factors": [factor(0, 1, 2)]},
            {"coef": -0.5, "factors": [factor(1, 1, 2)]},
        ]},
        "constraint": {"terms": [{"coef": 1.0, "factors": [factor(0, 0, 1), factor(1, 0, 1)]}]},
    }
    cfg = {
        "problem": doc,
        "scenario": scenario,
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 8},
        "params": {"window": [0.5, 1.5]},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    assert run(path, tmp_path / "soft") == 0
    report = json.loads((tmp_path / "soft" / "report.json").read_text())
    pencil = report["result"]["pencil"] if scenario == "spectrum" else report["result"]["bifurcation"]["pencil"]
    assert pencil["dropped_complex"] == 16
    assert report["status"] == "audit_failed"
    assert run(path, tmp_path / "hard", strict=True) == 2


def test_validate_scenario(tmp_path):
    path = _write(tmp_path, "cfg.json", {"problem": "P3", "scenario": "validate",
                                         "params": {"sample_radius": 3.0, "sample_count": 7}})
    out = tmp_path / "out"
    assert run(path, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["growth"]["passed"] is True


def test_validate_strict_flags_envelope_violation(tmp_path):
    doc = {
        "n": 1, "m": 1, "N": 1,
        "integrand": {"terms": [
            {"coef": 0.5, "factors": [{"component": 0, "alpha": [1], "power": 2}]},
            {"coef": 0.25, "factors": [{"component": 0, "alpha": [0], "power": 4}]},
        ]},
        "growth": {"g1": {"kind": "const", "value": 1.0}, "g2": {"kind": "const", "value": 1.0}},
    }
    cfg = {"problem": doc, "scenario": "validate", "params": {"sample_radius": 3.0, "sample_count": 5}}
    path = _write(tmp_path, "cfg.json", cfg)
    assert run(path, tmp_path / "soft") == 0
    report = json.loads((tmp_path / "soft" / "report.json").read_text())
    assert report["status"] == "audit_failed"
    assert run(path, tmp_path / "hard", strict=True) == 2


def test_reduce_scenario(tmp_path):
    cfg = {
        "problem": "P2",
        "scenario": "reduce",
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 24},
        "params": {"lam_star": 1.0, "z_count": 9, "z_radius": 0.3,
                   "lambda_offsets": [-0.05, 0.0, 0.05], "lipschitz_pairs": 8,
                   "uniqueness_starts": 4},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["result"]["lipschitz"]["passed"] is True
    rows = (out / "reduced.csv").read_text().strip().splitlines()
    assert rows[0] == "lam_0,z_0,value,grad_norm,residual,correction_norm"
    assert len(rows) == 1 + 3 * 9


def test_bifurcate_scenario(tmp_path):
    cfg = {
        "problem": "P2",
        "scenario": "bifurcate",
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 24},
        "params": {"window": [0.9, 1.12], "grid": 7},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out) == 0
    report = json.loads((out / "report.json").read_text())
    cands = report["result"]["bifurcation"]["candidates"]
    assert len(cands) == 1
    assert cands[0]["alternative"] == "iv"
    rows = (out / "branches.csv").read_text().strip().splitlines()[1:]
    lams = sorted({float(r.split(",")[3]) for r in rows})
    assert lams  # nontrivial content on the supercritical side
    amp_sup = [float(r.split(",")[5]) for r in rows if abs(float(r.split(",")[3]) - 1.0833333333333333) < 1e-6]
    for a in amp_sup:
        assert a == pytest.approx(2 * np.sqrt((1.0833333333333333 - 1) / 3), rel=0.02)


def test_bifurcate_records_gap_when_every_start_fails(tmp_path, monkeypatch):
    import veldt.bifurcation
    from veldt.errors import ReductionFailureError

    solve_psi = veldt.bifurcation.solve_psi

    def failing_off_star(setup, lam, z, **kwargs):
        if abs(float(np.atleast_1d(lam)[0]) - 1.0) > 1e-9:
            raise ReductionFailureError("complement solve refused off the eigenvalue")
        return solve_psi(setup, lam, z, **kwargs)

    monkeypatch.setattr(veldt.bifurcation, "solve_psi", failing_off_star)
    cfg = {
        "problem": "P2",
        "scenario": "bifurcate",
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 12},
        "params": {"window": [0.9, 1.1], "grid": 5},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out, strict=True) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] != "pass"
    gaps = report["result"]["bifurcation"]["candidates"][0]["gaps"]
    assert [g["lam"] for g in gaps] == pytest.approx([0.9, 0.95, 1.05, 1.1])
    assert all("complement solve refused" in g["reason"] for g in gaps)


def test_morse_scenario(tmp_path):
    cfg = {
        "problem": "P2",
        "scenario": "morse",
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 24},
        "params": {"lam": 2.5, "n_random": 4},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["audit"]["counts"] == {"0": 2, "1": 1}
    assert report["result"]["audit"]["alternating_total"] == 1


def test_morse_scenario_with_tilt_recovery(tmp_path):
    cfg = {
        "problem": "P2",
        "scenario": "morse",
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 24},
        "params": {"lam": 1.0, "n_random": 4,
                   "marino_prodi": {"r": 0.5, "delta_inner": 0.25}},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["marino_prodi"]["passed"] is True
    assert report["result"]["audit"]["alternating_total"] == 1


def test_morse_scenario_degenerate_without_tilt_exits_2(tmp_path):
    cfg = {
        "problem": "P2",
        "scenario": "morse",
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 24},
        "params": {"lam": 1.0, "n_random": 2},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "error"
    assert report["error"]["type"] == "DegenerateCriticalPointError"


def test_numeric_failure_exits_2(tmp_path):
    # a periodic space leaves the base form singular: the pencil must refuse
    cfg = {
        "problem": "P1",
        "scenario": "spectrum",
        "discretization": {"domain": [0, "2pi"], "m": 1, "bc": "periodic", "K": 8},
        "params": {"sobolev": False},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "HypothesisViolationError"


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_byte_identical(tmp_path):
    cfg = _spectrum_config(K=32)
    path = _write(tmp_path, "cfg.json", cfg)
    assert run(path, tmp_path / "a", seed=5) == 0
    assert run(path, tmp_path / "b", seed=5) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
    assert (tmp_path / "a" / "summary.txt").read_bytes() == (tmp_path / "b" / "summary.txt").read_bytes()


def test_eigenvalue_tables_are_seed_independent(tmp_path):
    cfg = _spectrum_config(K=32)
    path = _write(tmp_path, "cfg.json", cfg)
    assert run(path, tmp_path / "s1", seed=1) == 0
    assert run(path, tmp_path / "s2", seed=2) == 0
    assert (tmp_path / "s1" / "spectrum.csv").read_bytes() == (tmp_path / "s2" / "spectrum.csv").read_bytes()


def test_main_entry_point(tmp_path):
    cfg = _spectrum_config(K=16)
    path = _write(tmp_path, "cfg.json", cfg)
    code = main(["--config", str(path), "--out", str(tmp_path / "out"), "--seed", "0"])
    assert code == 0


def test_to_jsonable_handles_numpy_and_nonfinite():
    doc = to_jsonable({"a": np.float64(1.5), "b": np.array([1, 2]), "c": np.inf, "d": np.nan, "e": np.bool_(True)})
    assert doc == {"a": 1.5, "b": [1, 2], "c": "inf", "d": "nan", "e": True}

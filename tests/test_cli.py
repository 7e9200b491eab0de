import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from veldt.cli import MINIMUMS, config_hash, load_config, main, run, to_jsonable
from veldt.catalog import MODEL_NAMES, load_problem, model_problem
from veldt.spectral import decompose
from veldt.errors import ConfigurationError


TOOL_CONFIGS = Path(__file__).resolve().parents[1] / "tools" / "configs"


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


def test_load_config_rejects_retired_psi_tol(tmp_path):
    cfg = _spectrum_config()
    cfg["params"]["psi_tol"] = -1.0
    path = _write(tmp_path, "bad.json", cfg)
    with pytest.raises(ConfigurationError, match="psi_tol"):
        load_config(path)


_DISC_K12 = {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 12}


def _unknown_key_cases():
    morse = {"problem": "P2", "scenario": "morse", "discretization": _DISC_K12, "params": {"lam": 2.5, "n_random": 2}}
    bifurcate = {"problem": "P2", "scenario": "bifurcate", "discretization": _DISC_K12,
                 "params": {"window": [0.9, 1.1], "grid": 5}}
    reduce = {"problem": "P2", "scenario": "reduce", "discretization": _DISC_K12,
              "params": {"lam_star": 1.0, "z_count": 5, "lambda_offsets": [0.0], "lipschitz_pairs": 4,
                         "uniqueness_starts": 2}}
    spectrum = {"problem": "P1", "scenario": "spectrum", "discretization": _DISC_K12, "params": {"lambdas": [2.5]}}
    tilt = {"problem": "P2", "scenario": "morse", "discretization": _DISC_K12,
            "params": {"lam": 1.0, "n_random": 2, "marino_prodi": {"r": 0.5, "delta_inner": 0.25}}}

    def edited(cfg, path, key, value):
        cfg = json.loads(json.dumps(cfg))
        block = cfg
        for name in path:
            block = block[name]
        block[key] = value
        return pytest.param(cfg, key, id=f"{cfg['scenario']}-{key}")

    # settings that run, and pass, when the key is ignored
    return [
        edited({key: morse[key] for key in ("problem", "scenario", "discretization")}, (), "param", morse["params"]),
        edited(bifurcate, ("params",), "gird", 3),
        edited(spectrum, ("discretization",), "quad", 40),
        edited(tilt, ("params", "marino_prodi"), "radius", 0.1),
        edited(reduce, ("params",), "kernel_dim", 1),
        edited(reduce, ("params",), "lambda_box", 0.3),
        edited(reduce, ("params",), "trust_radius", 0.2),
        edited(reduce, ("params",), "psi_tol", 1e-11),
        edited(reduce, ("params",), "hessian_offset", 0.05),
        edited(bifurcate, ("params",), "n_starts", 4),
        edited(bifurcate, ("params",), "orbit_tol", 1e-6),
        edited(morse, ("params",), "amplitudes", [0.5, 1.0]),
        edited(spectrum, ("params",), "sobolev", False),
    ]


@pytest.mark.parametrize("cfg, key", _unknown_key_cases())
def test_unknown_config_key_exits_3_naming_it(tmp_path, capsys, cfg, key):
    path = _write(tmp_path, "cfg.json", cfg)
    assert run(path, tmp_path / "out") == 3
    assert "unknown config" in capsys.readouterr().err
    with pytest.raises(ConfigurationError, match=rf"key '{key}'; known keys: "):
        load_config(path)


_SMALL_PARAMS = {
    "bifurcate": {"window": [0.9, 1.1], "grid": 5},
    "spectrum": {"lambdas": [2.5]},
    "reduce": {"lam_star": 1.0, "z_count": 5, "lambda_offsets": [0.0], "lipschitz_pairs": 4, "uniqueness_starts": 2},
    "morse": {"lam": 2.5, "n_random": 2},
}


@pytest.mark.parametrize(
    "scenario, block, key, value",
    [
        pytest.param("bifurcate", "params", "grid", "nine", id="bifurcate-grid"),
        pytest.param("spectrum", "discretization", "K", "twelve", id="spectrum-K"),
        pytest.param("reduce", "params", "z_radius", "big", id="reduce-z_radius"),
        pytest.param("morse", "params", "window", [0.0], id="morse-window"),
        pytest.param("spectrum", "params", "lambdas", ["a"], id="spectrum-lambdas"),
        pytest.param("spectrum", "discretization", "domain", [0, "tau"], id="spectrum-domain"),
        pytest.param("spectrum", "discretization", "domain", [[0, "pi"], [0, True]], id="spectrum-domain-2d"),
        pytest.param("spectrum", "discretization", "domain", [[0, "pi"], [0]], id="spectrum-domain-ragged"),
        pytest.param("reduce", "params", "lambda_offsets", ["x"], id="reduce-lambda_offsets"),
    ],
)
def test_mistyped_config_value_exits_3_naming_the_key(tmp_path, capsys, scenario, block, key, value):
    params = dict(_SMALL_PARAMS[scenario])
    cfg = {"problem": "P2", "scenario": scenario, "discretization": dict(_DISC_K12), "params": params}
    cfg[block][key] = value
    assert run(_write(tmp_path, "cfg.json", cfg), tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert re.search(rf"\b{key} must be", err)


_BOUND_CASES = [
    pytest.param("validate", "params", "sample_count", -1, "at least 1", id="validate-sample_count"),
    pytest.param("validate", "params", "sample_radius", 0, "above 0.0", id="validate-sample_radius-zero"),
    pytest.param("validate", "params", "sample_radius", -1.0, "above 0.0", id="validate-sample_radius"),
    pytest.param("spectrum", "discretization", "quad_order", -3, "at least 1", id="spectrum-quad_order"),
    pytest.param("spectrum", "discretization", "quad_order", 0, "at least 1", id="spectrum-quad_order-zero"),
    pytest.param("reduce", "params", "z_count", 0, "at least 1", id="reduce-z_count"),
    pytest.param("reduce", "params", "z_radius", 0, "above 0.0", id="reduce-z_radius-zero"),
    pytest.param("reduce", "params", "z_radius", -0.1, "above 0.0", id="reduce-z_radius"),
    pytest.param("reduce", "params", "lipschitz_pairs", -1, "at least 1", id="reduce-lipschitz_pairs"),
    pytest.param("reduce", "params", "uniqueness_starts", 0, "at least 1", id="reduce-uniqueness_starts"),
    pytest.param("bifurcate", "params", "grid", -2, "at least 1", id="bifurcate-grid"),
    pytest.param("bifurcate", "params", "grid", 0, "at least 1", id="bifurcate-grid-zero"),
    pytest.param("bifurcate", "params", "amplitude_cap", -1, "above 0.0", id="bifurcate-amplitude_cap"),
    pytest.param("bifurcate", "params", "amplitude_cap", 0, "above 0.0", id="bifurcate-amplitude_cap-zero"),
    pytest.param("morse", "params", "n_random", -1, "at least 0", id="morse-n_random"),
]


@pytest.mark.parametrize("scenario, block, key, value, relation", _BOUND_CASES)
def test_count_out_of_range_exits_3_naming_the_key(tmp_path, capsys, scenario, block, key, value, relation):
    params = dict(_SMALL_PARAMS.get(scenario, {}))
    cfg = {"problem": "P2", "scenario": scenario, "discretization": dict(_DISC_K12), "params": params}
    cfg[block][key] = value
    assert run(_write(tmp_path, "cfg.json", cfg), tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert f"{key} must be {relation}, got {value}" in err


def test_count_on_its_bound_loads(tmp_path):
    for scenario, block, key, _, _ in (case.values for case in _BOUND_CASES):
        cfg = {"problem": "P2", "scenario": scenario, "discretization": dict(_DISC_K12),
               "params": dict(_SMALL_PARAMS.get(scenario, {}))}
        bound, inclusive = MINIMUMS[key]
        cfg[block][key] = bound if inclusive else bound + 0.5
        assert load_config(_write(tmp_path, "cfg.json", cfg))[1][block][key] == cfg[block][key]


def _border_document(growth):
    # (n, m) = (2, 1): at p = 2 the zero-order grade sits on the cut m - n/p = 0
    factor = lambda alpha, power: {"component": 0, "alpha": alpha, "power": power}
    return {"n": 2, "m": 1, "N": 1, "growth": growth, "integrand": {"terms": [
        {"coef": 0.5, "factors": [factor([1, 0], 2)]}, {"coef": 0.5, "factors": [factor([0, 1], 2)]}]}}


@pytest.mark.parametrize(
    "growth, key, message",
    [
        pytest.param({"p": "two"}, "p", "must be a number", id="p-string"),
        pytest.param({"p": True}, "p", "must be a number", id="p-bool"),
        pytest.param({"p_border": "x"}, "p_border", "must be a number", id="p_border-string"),
        pytest.param({"p_border": True}, "p_border", "must be a number", id="p_border-bool"),
        pytest.param({"p_border": 1.5}, "p_border", r"must lie in \(2, inf\)", id="p_border-range"),
    ],
)
def test_mistyped_growth_number_exits_3_naming_the_key(tmp_path, capsys, growth, key, message):
    cfg = {"problem": _border_document(growth), "scenario": "validate", "params": {"sample_count": 3}}
    assert run(_write(tmp_path, "cfg.json", cfg), tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert re.search(rf"\b{key} {message}", err)


@pytest.mark.parametrize(
    "params, message",
    [
        pytest.param({"c0": "x"}, "parameter c0 must be a number, got ", id="c0-string"),
        pytest.param({"c1": False}, "parameter c1 must be a number, got ", id="c1-bool"),
        # the certificate scans the growth check's samples, so the old jet-grid keys are unknown keys
        pytest.param({"radius": [1]}, "mode coercive does not read 'radius'", id="radius-list"),
        pytest.param({"count": 2.5}, "mode coercive does not read 'count'", id="count-float"),
        pytest.param({"count": "7"}, "mode coercive does not read 'count'", id="count-string"),
        pytest.param({"seed": 1.0}, "mode coercive does not read 'seed'", id="seed-float"),
        pytest.param({"count": 0}, "mode coercive does not read 'count'", id="count-zero"),
        pytest.param({"count": -1}, "mode coercive does not read 'count'", id="count-negative"),
        pytest.param({"x": 0.3}, "mode coercive does not read 'x'", id="x-number"),
    ],
)
def test_mistyped_certificate_parameter_exits_3_naming_it(tmp_path, capsys, params, message):
    certificate = {"mode": "coercive", "params": params}
    cfg = {"problem": "P1", "scenario": "validate", "params": {"sample_count": 3, "certificate": certificate}}
    assert run(_write(tmp_path, "cfg.json", cfg), tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert message in err


def test_certificate_scans_the_growth_samples_of_the_run_seed(tmp_path):
    # N = 3, m = 1: six jet entries, so the samples are uniform draws from the run's generator
    factor = lambda component, alpha: {"component": component, "alpha": [alpha], "power": 2}
    terms = [{"coef": 0.5, "factors": [factor(i, alpha)]} for i in range(3) for alpha in (0, 1)]
    doc = {"n": 1, "m": 1, "N": 3, "integrand": {"terms": terms}}
    certificate = {"mode": "coercive", "params": {"c0": 0.5}}
    path = _write(tmp_path, "cfg.json", {"problem": doc, "scenario": "validate",
                                         "params": {"sample_count": 4, "certificate": certificate}})
    margins = []
    for seed in (0, 7):
        assert run(path, tmp_path / f"out{seed}", seed=seed) == 0
        result = json.loads((tmp_path / f"out{seed}" / "report.json").read_text())["result"]
        assert result["certificate"]["passed"] is True
        margins.append(result["certificate"]["margin"])
    # the margin is min |u|^2 / 2 over the draws, so it moves with the seed
    assert margins[0] != margins[1]
    assert 0.0 < min(margins)


def _term_document(edit):
    """A P2 term-list document with mass constraint after ``edit(doc)``."""
    factor = lambda alpha, power: {"component": 0, "alpha": [alpha], "power": power}
    doc = {"n": 1, "m": 1, "N": 1,
           "integrand": {"terms": [{"coef": 0.5, "factors": [factor(1, 2)]},
                                   {"coef": 0.25, "factors": [factor(0, 4)]}]},
           "growth": {"g1": {"kind": "shifted_power", "scale": 3.0, "power": 2.0},
                      "g2": {"kind": "const", "value": 1.0}}}
    edit(doc)
    return doc


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        block = doc
        for step in path:
            block = block[step]
        block[key] = value

    return edit


_QUARTIC = ("integrand", "terms", 1)
_QUARTIC_FACTOR = _QUARTIC + ("factors", 0)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_set("n", 1.7), "n must be an integer", id="n-float"),
        pytest.param(_set("m", True), "m must be an integer", id="m-bool"),
        pytest.param(_set("N", "1"), "N must be an integer", id="N-string"),
        pytest.param(_set(*_QUARTIC_FACTOR, "component", 0.0), "component must be an integer", id="component-float"),
        pytest.param(_set(*_QUARTIC_FACTOR, "alpha", [0.0]), "alpha entry must be an integer", id="alpha-float"),
        pytest.param(_set(*_QUARTIC_FACTOR, "alpha", [2]), r"alpha \[2\] is not a multi-index", id="alpha-order"),
        pytest.param(_set(*_QUARTIC_FACTOR, "power", 2.6), "power must be an integer", id="power-float"),
        pytest.param(_set(*_QUARTIC_FACTOR, "power", -1), "power must be an integer of at least 1", id="power-negative"),
        pytest.param(_set(*_QUARTIC_FACTOR, "power", 0), "power must be an integer of at least 1", id="power-zero"),
        pytest.param(_set(*_QUARTIC, "coef", "0.25"), "coef must be a number", id="coef-string"),
        pytest.param(_set(*_QUARTIC, "coef", None), "coef is required", id="coef-missing"),
        pytest.param(_set("integrand", "terms", [1]), "terms must be a list of objects", id="term-number"),
        pytest.param(_set(*_QUARTIC, "factors", {"power": 4}), "factors must be a list of objects", id="factors-object"),
        pytest.param(_set("growth", "g2", "value", "x"), r"g2\.value must be a number", id="const-value-string"),
        pytest.param(_set("growth", "g1", "scale", "3"), r"g1\.scale must be a number", id="scale-string"),
        pytest.param(_set("growth", "g1", "power", True), r"g1\.power must be a number", id="envelope-power-bool"),
    ],
)
def test_mistyped_problem_document_value_exits_3_naming_the_key(tmp_path, capsys, edit, message):
    cfg = {"problem": _term_document(edit), "scenario": "validate", "params": {"sample_count": 3}}
    assert run(_write(tmp_path, "cfg.json", cfg), tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert re.search(rf"\b{message}", err), err


def _readme_configs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)]
    return [doc for doc in docs if "scenario" in doc]


def _workload_configs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [config for config, _ in module.WORKLOADS.values()]


def test_readme_and_benchmark_configs_load(tmp_path):
    configs = _readme_configs() + _workload_configs()
    assert sorted(cfg["scenario"] for cfg in configs) == sorted(
        ["validate", "spectrum", "reduce", "bifurcate", "morse", "bifurcate", "morse", "spectrum"]
    )
    for i, cfg in enumerate(configs):
        doc, merged = load_config(_write(tmp_path, f"cfg{i}.json", cfg))
        assert doc == cfg
        assert set(merged) == {"problem", "scenario", "discretization", "params"}


def test_tool_configs_load():
    # the extra configs of tools/same_outputs.py: an indefinite complement block, translation orbits on a
    # periodic space, a degenerate census point off the base point of a tilt, a multiplicity-2 kernel of a
    # reduction and its bifurcation sweep, a non-square 2-D box, the split audits of a two-component system,
    # Morse counts of that system at and between its double eigenvalues, a fitted ellipticity envelope
    # with tied samples and a kernel tilt at the second eigenvalue, where u0 has Morse index 1
    paths = sorted(TOOL_CONFIGS.glob("*.json"))
    stems = [
        "bifurcate_two_p2",
        "morse_tilt_second_eigenvalue",
        "p2_bifurcate_indefinite",
        "periodic_bifurcate_orbits",
        "periodic_morse_tilt",
        "reduce_two_p2",
        "sine2d_spectrum_nonsquare",
        "spectrum_two_p2_audits",
        "spectrum_two_p2_morse",
        "validate_fitted_envelope",
    ]
    assert [path.stem for path in paths] == stems
    merged = {path.stem: load_config(path)[1] for path in paths}
    for config in merged.values():
        assert set(config) == {"problem", "scenario", "discretization", "params"}
    assert merged["sine2d_spectrum_nonsquare"]["discretization"]["domain"] == [[0, "pi"], [0, 2]]
    assert merged["periodic_bifurcate_orbits"]["discretization"]["bc"] == "periodic"


def test_missing_config_exits_3(tmp_path):
    assert run(tmp_path / "nope.json", tmp_path / "out") == 3


def test_missing_problem_document_exits_3(tmp_path, capsys):
    cfg = _spectrum_config()
    cfg["problem"] = "problems/nonexistent.json"
    path = _write(tmp_path, "cfg.json", cfg)
    assert run(path, tmp_path / "out") == 3
    assert str(tmp_path / "problems" / "nonexistent.json") in capsys.readouterr().err


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


def test_missing_problem_path_names_the_path_tried(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tried = re.escape(str(tmp_path / "problems" / "missing.json"))
    with pytest.raises(ConfigurationError, match=rf"neither a document at {tried} nor a catalog name"):
        load_problem("problems/missing.json")
    with pytest.raises(ConfigurationError, match=re.escape(str(MODEL_NAMES))):
        load_problem(Path("problems") / "missing.json")
    assert load_problem("p2").name == "P2"


def test_overlong_problem_string_is_a_configuration_error():
    # 310 characters is longer than a file name may be, so no file can have it
    with pytest.raises(ConfigurationError, match=r"neither a document at .*x{310} nor a catalog name"):
        load_problem("x" * 310)


def _misspell(*path):
    """An edit that adds the key ``"x"`` to the object at ``path`` of a document."""
    return _set(*path, "x", 1.0)


@pytest.mark.parametrize(
    "edit, where",
    [
        pytest.param(_misspell(), "problem document", id="top-level"),
        pytest.param(_misspell("integrand"), "integrand", id="integrand"),
        pytest.param(_misspell("constraint"), "constraint", id="constraint"),
        pytest.param(_misspell("growth"), "growth", id="growth"),
        pytest.param(_misspell("growth", "g1"), r"growth\.g1", id="envelope"),
        pytest.param(_misspell(*_QUARTIC), "integrand term", id="term"),
        pytest.param(_misspell(*_QUARTIC_FACTOR), "integrand factor", id="factor"),
    ],
)
def test_problem_document_refuses_a_key_it_does_not_read(edit, where):
    def constrained(doc):
        doc["constraint"] = {"name": "mass", "terms": [{"coef": 0.5, "factors": [{"alpha": [0], "power": 2}]}]}

    def misspelt(doc):
        constrained(doc)
        edit(doc)

    assert load_problem(_term_document(constrained)).constraint.name == "mass"
    with pytest.raises(ConfigurationError, match=rf"unknown {where} key 'x'; known keys: "):
        load_problem(_term_document(misspelt))


def test_misspelt_growth_block_exits_3_instead_of_fitting_the_envelopes(tmp_path, capsys):
    # read as written, the declared g1 = 1 fails the Hessian bound; ignored, a fitted g1 would pass
    doc = _term_document(lambda doc: doc.update(growht=doc.pop("growth")))
    doc["growht"]["g1"] = {"kind": "const", "value": 1.0}
    cfg = {"problem": "p2.json", "scenario": "validate", "params": {"sample_count": 3}}
    _write(tmp_path, "p2.json", doc)
    assert run(_write(tmp_path, "cfg.json", cfg), tmp_path / "out") == 3
    assert "unknown problem document key 'growht'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("text", ["{'n': 1}", "[1, 2]"], ids=["not-json", "list"])
def test_problem_file_that_holds_no_json_object_exits_3_naming_it(tmp_path, capsys, text):
    (tmp_path / "problem.json").write_text(text)
    cfg = {"problem": "problem.json", "scenario": "validate", "params": {"sample_count": 3}}
    assert run(_write(tmp_path, "cfg.json", cfg), tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: problem document ")
    assert str(tmp_path / "problem.json") in err


def test_json_text_and_a_named_integrand_are_not_problems(tmp_path, monkeypatch):
    # JSON text is read as a path, and the integrand of a document is an object of terms
    monkeypatch.chdir(tmp_path)
    for text in ('"P2"', '{"integrand": "P2"}', json.dumps({"n": 1, "m": 1, "N": 1, "integrand": {"terms": []}})):
        with pytest.raises(ConfigurationError, match="neither a document at .* nor a catalog name"):
            load_problem(text)
    with pytest.raises(ConfigurationError, match="integrand must be a JSON object, got 'P2'"):
        load_problem({"n": 1, "m": 1, "N": 1, "integrand": "P2"})
    with pytest.raises(ConfigurationError, match="missing required field 'n'"):
        load_problem({"integrand": "P2"})


def test_a_document_named_like_a_catalog_entry_wins_beside_the_config_only(tmp_path, monkeypatch):
    # the document doubles the gradient energy of P2, so its first pencil eigenvalue is 2, not 1
    doc = _term_document(_set(*_QUARTIC[:-1], 0, "coef", 1.0))
    doc["name"] = "beside"
    cfg = _spectrum_config(lambdas=())
    cfg["problem"] = "P2"
    (tmp_path / "P2").write_text(json.dumps(doc))
    assert run(_write(tmp_path, "cfg.json", cfg), tmp_path / "out") == 0
    eigenvalues = json.loads((tmp_path / "out" / "report.json").read_text())["result"]["pencil"]["eigenvalues"]
    assert eigenvalues[0] == pytest.approx(2.0)
    # a file that is no document still wins, and is refused by name
    (tmp_path / "P2").write_text("not json")
    assert run(tmp_path / "cfg.json", tmp_path / "out") == 3
    # outside a config, a catalog name is never a path: a file in the working directory does not shadow it
    monkeypatch.chdir(tmp_path)
    assert load_problem("P2").name == "P2"
    (tmp_path / "P2").write_text(json.dumps(doc))
    assert load_problem("p2").name == "P2"
    assert load_problem(Path("P2")).name == "beside"


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


def test_spectrum_counts_at_double_eigenvalues(tmp_path):
    # the coupled two-component P2 has the double eigenvalues k^2
    out = tmp_path / "out"
    assert run(TOOL_CONFIGS / "spectrum_two_p2_morse.json", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert [(row["morse_index"], row["nullity"]) for row in report["result"]["morse_table"]] == [(0, 2), (2, 0), (2, 2)]


def test_spectrum_counts_beside_an_eigenvalue_follow_decompose(tmp_path):
    # 4.00003 is within 10 GROUP_RTOL of the eigenvalue 4, yet the form on that
    # eigenspace, about -7.5e-6 F'', is far above decompose's kernel threshold:
    # the count is (2, 0) and the run passes; 4 + 4e-12 sits below it and is null
    out = tmp_path / "out"
    assert run(_write(tmp_path, "cfg.json", _spectrum_config(K=16, lambdas=(4.00003, 4.000000000004))), out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert [(row["morse_index"], row["nullity"]) for row in report["result"]["morse_table"]] == [(2, 0), (1, 1)]


def test_spectrum_mutant_decompose_that_drops_a_negative_eigenvalue_exits_2(tmp_path, monkeypatch):
    # a decompose that loses one negative eigenvalue undercounts the Morse index;
    # the crossing formula catches it
    import veldt.cli

    def dropping(B, gram, *args):
        dec = decompose(B, gram, *args)
        if dec.morse_index == 0:
            return dec
        keep = np.arange(dec.eigenvalues.size) != 0  # the most negative eigenvalue
        return dataclasses.replace(
            dec,
            eigenvalues=dec.eigenvalues[keep],
            eigenvectors=dec.eigenvectors[:, keep],
            morse_index=dec.morse_index - 1,
        )

    monkeypatch.setattr(veldt.cli, "decompose", dropping)
    out = tmp_path / "out"
    assert run(_write(tmp_path, "cfg.json", _spectrum_config(K=64, lambdas=(0.5, 2.5, 4.0))), out) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "error"
    assert report["error"] == {
        "type": "IndexJumpMismatchError",
        "message": "at lam = 2.5 decompose counts (morse index, nullity) (0, 0), the crossing formula (1, 0)",
    }


def _dropped_complex_config(scenario):
    """A K = 8 config whose pencil has 16 complex eigenvalues.

    F = (u1'^2 - u2'^2) / 2 is indefinite and G = u1 u2 couples the components,
    so F^-1 G has the imaginary pair +-i/k^2 on every sine mode k.
    """
    factor = lambda comp, alpha, power: {"component": comp, "alpha": [alpha], "power": power}
    doc = {
        "n": 1, "m": 1, "N": 2,
        "integrand": {"terms": [
            {"coef": 0.5, "factors": [factor(0, 1, 2)]},
            {"coef": -0.5, "factors": [factor(1, 1, 2)]},
        ]},
        "constraint": {"terms": [{"coef": 1.0, "factors": [factor(0, 0, 1), factor(1, 0, 1)]}]},
    }
    return {
        "problem": doc,
        "scenario": scenario,
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 8},
        "params": {"window": [0.5, 1.5]} if scenario == "bifurcate" else {},
    }


def _dropped_complex_pencil(report):
    return report["result"]["pencil"] if report["scenario"] == "spectrum" else report["result"]["bifurcation"]["pencil"]


@pytest.mark.parametrize("scenario", ["spectrum", "bifurcate"])
def test_audit_fails_on_dropped_complex_eigenvalues(tmp_path, scenario):
    path = _write(tmp_path, "cfg.json", _dropped_complex_config(scenario))
    assert run(path, tmp_path / "soft") == 0
    report = json.loads((tmp_path / "soft" / "report.json").read_text())
    assert _dropped_complex_pencil(report)["dropped_complex"] == 16
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


def test_validate_fitted_envelope_passes_tied_samples(tmp_path):
    # f = (4 + u) u'^2 / 2 declares no envelopes; f_11 = 4 + u >= 1 on every radius-3 sample, and the
    # grid's u and -u share one knot of the fitted ellipticity envelope
    factor = lambda alpha, power: {"component": 0, "alpha": [alpha], "power": power}
    terms = [{"coef": 2.0, "factors": [factor(1, 2)]}, {"coef": 0.5, "factors": [factor(0, 1), factor(1, 2)]}]
    doc = {"n": 1, "m": 1, "N": 1, "integrand": {"terms": terms}}
    cfg = {"problem": doc, "scenario": "validate", "params": {"sample_radius": 3.0}}
    assert run(_write(tmp_path, "cfg.json", cfg), tmp_path / "out", strict=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "pass"
    growth = report["result"]["growth"]
    assert (growth["passed"], growth["min_ellipticity_ratio"], growth["n_violations"]) == (True, 1.0, 0)
    assert report["result"]["violations"] == []


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
    assert report["result"]["lam_star"] == [1.0]
    rows = (out / "reduced.csv").read_text().strip().splitlines()
    assert rows[0] == "lam_0,z_0,value,grad_norm,residual,correction_norm"
    assert len(rows) == 1 + 3 * 9


def test_reduce_lists_the_origin_once_on_a_two_dimensional_kernel(tmp_path):
    # z_count 8 gives 2 radii, 0 and 0.45, along each of the 2 kernel axes: 3 distinct points per offset
    out = tmp_path / "out"
    assert run(TOOL_CONFIGS / "reduce_two_p2.json", out) == 0
    rows = [tuple(r.split(",")[:3]) for r in (out / "reduced.csv").read_text().strip().splitlines()[1:]]
    assert len(rows) == len(set(rows)) == 5 * 3
    assert sum(row[1:] == ("0", "0") for row in rows) == 5


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
    assert {r.split(",")[8] for r in rows} == {"-1"}  # no orbits off periodic spaces


def test_periodic_orbit_tags_group_translates_at_each_parameter(tmp_path):
    # f = u'^2/2 + u^2/2 + u^4/4 with the mass constraint on the circle: the
    # eigenvalue 2 has the kernel {cos x, sin x}, and every solution at one
    # parameter value is a translate of every other, whatever branch holds it
    term = lambda coef, alpha, power: {"coef": coef, "factors": [{"component": 0, "alpha": [alpha], "power": power}]}
    cfg = {
        "problem": {"n": 1, "m": 1, "N": 1, "integrand": {"terms": [term(0.5, 1, 2), term(0.5, 0, 2), term(0.25, 0, 4)]}},
        "scenario": "bifurcate",
        "discretization": {"domain": [0, "2pi"], "m": 1, "bc": "periodic", "K": 9},
        "params": {"window": [1.99, 2.01], "grid": 9},
    }
    out = tmp_path / "out"
    assert run(_write(tmp_path, "cfg.json", cfg), out) == 0
    rows = [r.split(",") for r in (out / "branches.csv").read_text().strip().splitlines()[1:]]
    per_lam = {}
    for r in rows:
        per_lam.setdefault(r[3], []).append(r[8])
    assert len(per_lam) >= 2 and all(len(tags) > 1 for tags in per_lam.values())
    assert {r[8] for r in rows} == {"0"}
    # the solutions at one parameter value lie on one circle, so chaining them into branches is a guess
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "audit_failed"
    gaps = report["result"]["bifurcation"]["candidates"][0]["gaps"]
    assert gaps and all(g["reason"].startswith("ambiguous chaining") for g in gaps)


_GAP_CFG = {
    "problem": "P2",
    "scenario": "bifurcate",
    "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 12},
    "params": {"window": [0.9, 1.1], "grid": 5},
}


def _strict_gaps(tmp_path):
    """The gaps of a strict ``_GAP_CFG`` run, which must fail its audit."""
    out = tmp_path / "out"
    assert run(_write(tmp_path, "cfg.json", _GAP_CFG), out, strict=True) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] != "pass"
    return report["result"]["bifurcation"]["candidates"][0]["gaps"]


def _refuse_solve_psi(monkeypatch, refused):
    """Make every complement solve at ``(lam, z)`` with ``refused(lam, z)`` raise."""
    import veldt.bifurcation
    from veldt.errors import ReductionFailureError

    solve_psi = veldt.bifurcation.solve_psi

    def failing(setup, lam, z, **kwargs):
        if refused(float(np.atleast_1d(lam)[0]), np.atleast_1d(z)):
            raise ReductionFailureError("complement solve refused")
        return solve_psi(setup, lam, z, **kwargs)

    monkeypatch.setattr(veldt.bifurcation, "solve_psi", failing)


def test_bifurcate_records_gap_when_every_start_fails(tmp_path, monkeypatch):
    # off the eigenvalue every solve raises; at lambda* = 1 the starts converge
    _refuse_solve_psi(monkeypatch, lambda lam, z: abs(lam - 1.0) > 1e-9)
    gaps = _strict_gaps(tmp_path)
    assert [g["lam"] for g in gaps] == pytest.approx([0.9, 0.95, 1.05, 1.1])
    assert all("complement solve refused" in g["reason"] for g in gaps)


def test_bifurcate_records_gap_when_every_start_off_the_origin_fails(tmp_path, monkeypatch):
    # every solve at z != 0 raises, and the origin is no start, so no start converges
    _refuse_solve_psi(monkeypatch, lambda lam, z: bool(np.any(z)))
    gaps = _strict_gaps(tmp_path)
    assert [g["lam"] for g in gaps] == pytest.approx([0.9, 0.95, 1.05, 1.1, 1.0])
    assert all("complement solve refused" in g["reason"] for g in gaps)


def test_bifurcate_records_gap_when_no_start_converges(tmp_path, monkeypatch):
    # every reduced Newton solve stalls without raising: no parameter value has a solution, not even u0
    import veldt.bifurcation

    reduced_newton = veldt.bifurcation._reduced_newton

    def stalled(setup, lam, z0):
        z, y, _ = reduced_newton(setup, lam, z0)
        return z, y, False

    monkeypatch.setattr(veldt.bifurcation, "_reduced_newton", stalled)
    gaps = _strict_gaps(tmp_path)
    assert [g["lam"] for g in gaps] == pytest.approx([0.9, 0.95, 1.05, 1.1, 1.0])
    assert all(g["reason"].startswith("none of the 8 reduced starts converged") for g in gaps)
    assert not any("raised" in g["reason"] for g in gaps)


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


@pytest.mark.parametrize("seed", [0, 7])
def test_kernel_tilt_at_a_crossed_eigenvalue(tmp_path, seed):
    # at the second eigenvalue lam = 4 the base point has Morse index 1 and nullity 1, so the tilted
    # census checks its point against the window [1, 2]; the other tilt runs are at lam = 1, index 0
    cfg = json.loads((TOOL_CONFIGS / "morse_tilt_second_eigenvalue.json").read_text())
    cfg["discretization"]["K"] = 16
    out = tmp_path / "out"
    assert run(_write(tmp_path, "cfg.json", cfg), out, seed=seed) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["result"]["audit"]["counts"] == {"0": 2, "1": 1}
    tilt = report["result"]["marino_prodi"]
    assert tilt["passed"] is True
    assert tilt["morse_window"] == [1, 2]
    assert tilt["n_points"] == 1
    # polishes that enter the capture ball stop there; the two minima outside it are still found
    assert tilt["captured"] > 0


def test_morse_scenario_fails_when_the_kernel_tilt_census_fails(tmp_path, monkeypatch):
    # a tilt whose local census fails leaves "kernel-tilt-census" unmet, so the run fails its audit
    import veldt.cli

    tilt = veldt.cli.marino_prodi_perturb

    def failing(*args, **kwargs):
        return dataclasses.replace(tilt(*args, **kwargs), passed=False)

    monkeypatch.setattr(veldt.cli, "marino_prodi_perturb", failing)
    census = next(cfg for cfg in _workload_configs() if cfg["scenario"] == "morse")
    path = _write(tmp_path, "cfg.json", census)
    assert run(path, tmp_path / "soft") == 0
    report = json.loads((tmp_path / "soft" / "report.json").read_text())
    assert "kernel-tilt-census" in report["result"]["checks"]
    assert report["result"]["marino_prodi"]["passed"] is False
    assert report["result"]["audit"]["identity_holds"] is True
    assert report["status"] == "audit_failed"
    assert run(path, tmp_path / "hard", strict=True) == 2


def test_morse_scenario_fails_when_the_tilted_census_loses_its_point(tmp_path, monkeypatch):
    # the resumed census drops every point within r of u0 and counts the tilt's local points instead,
    # so a local census that loses its one point leaves no point to count and the alternating sum at 0
    import veldt.cli

    tilt = veldt.cli.marino_prodi_perturb

    def lossy(*args, **kwargs):
        return dataclasses.replace(tilt(*args, **kwargs), critical_points=[])

    monkeypatch.setattr(veldt.cli, "marino_prodi_perturb", lossy)
    census = next(cfg for cfg in _workload_configs() if cfg["scenario"] == "morse")
    out = tmp_path / "out"
    assert run(_write(tmp_path, "cfg.json", census), out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["marino_prodi"]["passed"] is True
    assert report["result"]["audit"]["counts"] == {}
    assert report["result"]["audit"]["identity_holds"] is False
    assert report["status"] == "audit_failed"


def test_census_resumes_past_the_tilt_without_a_re_census(tmp_path, monkeypatch):
    # the census workload (P2, K = 32, lam = 1) at seed 0: after the degenerate witness u0 is tilted, the
    # census resumes, and its 92 remaining polishes stop on entering the capture ball instead of
    # converging there.  A re-census of every seed on the tilted functional would make about 1,480
    # gradients and 842 polish iterations.  The work is counted, so the pins hold on any machine
    import veldt.functional

    gradients, iterations = [], []
    assemble_gradient = veldt.functional.assemble_gradient
    polish = veldt.functional.newton_polish

    def counted_polish(*args):
        result = polish(*args)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(veldt.functional, "assemble_gradient", lambda lag, u: gradients.append(1) or assemble_gradient(lag, u))
    monkeypatch.setattr(veldt.functional, "newton_polish", counted_polish)
    census = next(cfg for cfg in _workload_configs() if cfg["scenario"] == "morse")
    assert census["discretization"]["K"] == 32
    out = tmp_path / "out"
    assert run(_write(tmp_path, "cfg.json", census), out, seed=0) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(gradients) <= 600
    assert sum(iterations) <= 300
    assert report["status"] == "pass"
    assert report["result"]["marino_prodi"]["captured"] == 92


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


@pytest.mark.parametrize("lam", [2.5, 1.0])
def test_bad_tilt_block_exits_3_before_the_census(tmp_path, capsys, monkeypatch, lam):
    # at 2.5 the census needs no tilt, at 1.0 it does; the block is refused either way
    import veldt.cli

    def no_census(*args, **kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr(veldt.cli, "morse_inequality_audit", no_census)
    cfg = {
        "problem": "P2",
        "scenario": "morse",
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 16},
        "params": {"lam": lam, "marino_prodi": {"r": 0.1, "delta_inner": 0.4}},
    }
    out = tmp_path / "out"
    assert run(_write(tmp_path, "cfg.json", cfg), out) == 3
    assert "0 < delta_inner < r" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_tilt_leaves_a_degenerate_point_off_the_base_point_to_the_report(tmp_path):
    # on the circle at lam 2.5 the degenerate census point is a translation orbit, not u0 = 0,
    # so the tilt around u0 cannot remove it: the run reports the witness instead of tilting
    out = tmp_path / "out"
    assert run(TOOL_CONFIGS / "periodic_morse_tilt.json", out) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "error"
    assert report["error"] == {
        "type": "DegenerateCriticalPointError",
        "message": "census found a degenerate critical point (nullity 1) at value -0.265318",
    }


def test_numeric_failure_exits_2(tmp_path):
    # a periodic space leaves the base form singular: the pencil must refuse
    cfg = {
        "problem": "P1",
        "scenario": "spectrum",
        "discretization": {"domain": [0, "2pi"], "m": 1, "bc": "periodic", "K": 8},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "HypothesisViolationError"


def test_singular_gram_exits_2(tmp_path):
    # three quadrature nodes cannot separate sixteen sine modes: the Gram matrix is singular
    cfg = _spectrum_config(K=16)
    cfg["discretization"]["quad_order"] = 3
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(path, out) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "DiscretizationError"
    assert "Gram matrix is not positive definite" in report["error"]["message"]


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

import dataclasses
import sys

import numpy as np
import pytest

from veldt import (
    build_space,
    classify_conditions,
    detect_branches,
    index_jump,
    make_reduction_setup,
    morse_inequality_audit,
    orbit_group,
    pencil_eigs,
)
import veldt.bifurcation
import veldt.functional
from veldt.errors import (
    CapabilityError,
    DegenerateCriticalPointError,
    ReductionFailureError,
)
from veldt.catalog import ModelProblem, load_problem
from veldt.functional import NEWTON_TOL, RESIDUAL_CONTRACT, VariationalProblem, _star_seeds
from veldt.cli import _census_seeds
from veldt.reduction import PerturbedFunctional, _reduction_extent, marino_prodi_perturb


def _pencil(problem):
    u0 = problem.u0.coeffs
    F = problem.energy.hessian_dual(u0)
    G = problem.constraint.hessian_dual(u0)
    return pencil_eigs(F, G, problem.disc.gram), F, G


@pytest.fixture(scope="module")
def prob_p2(p2, disc32):
    return VariationalProblem(model=p2, disc=disc32)


@pytest.fixture(scope="module")
def p2_report(prob_p2):
    return detect_branches(prob_p2, (0.8, 1.3), grid=11, amplitude_cap=3.0, rng=np.random.default_rng(0))


def test_branch_sweep_keeps_one_combined_functional(p2, disc32):
    # a functional keeps its compiled polynomial's last power table, so a sweep that kept one per
    # grid parameter would hold them all once it returns
    problem = VariationalProblem(model=p2, disc=disc32)
    report = detect_branches(problem, (0.8, 4.3), grid=41, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert [round(c.lam_star, 9) for c in report.candidates] == [1.0, 4.0]
    assert len(problem._functionals) == 1


# ---------------------------------------------------------------------------
# pencil matching and condition classes


def test_necessary_test_values(prob_p1_64):
    # the eigenvalues are k^2: 1.0 lies on the spectrum, 1.5 and 0.0 lie off it, nearest the first eigenvalue
    pencil, _, _ = _pencil(prob_p1_64)
    assert pencil.matches(1.0)
    assert not pencil.matches(1.5)
    assert not pencil.matches(0.0)
    assert pencil.nearest(1.0) == (0, pytest.approx(0.0, abs=1e-8))
    assert pencil.nearest(1.5) == (0, pytest.approx(0.5, abs=1e-8))
    assert pencil.nearest(0.0) == (0, pytest.approx(1.0, abs=1e-8))


def test_classify_positive_definite(prob_p1_64):
    pencil, F, G = _pencil(prob_p1_64)
    assert classify_conditions(pencil, 1.0).klass == "a"


def test_classify_negative_definite(prob_p1_64):
    pencil, F, G = _pencil(prob_p1_64)
    neg_pencil = pencil_eigs(-F, -G, prob_p1_64.disc.gram)
    assert classify_conditions(neg_pencil, 1.0).klass == "b"


def test_classify_invariant_subspaces_block():
    gram = np.eye(2)
    F = np.diag([1.0, -1.0])
    G = np.diag([0.5, -1.0 / 3.0])
    pencil = pencil_eigs(F, G, gram)
    result = classify_conditions(pencil, 2.0)
    assert result.klass == "c"
    assert result.definite_on_crossing


def test_classify_none_when_crossing_indefinite():
    gram = np.eye(3)
    F = np.diag([1.0, -1.0, 1.0])
    # one eigenvalue group of multiplicity two carrying both signs of F
    G = np.diag([0.5, -0.5, 0.25])
    pencil = pencil_eigs(F, G, gram)
    assert pencil.multiplicities[0] == 2
    result = classify_conditions(pencil, 2.0)
    assert result.klass == "none"


# ---------------------------------------------------------------------------
# branch detection


def test_p2_window_detects_single_candidate(p2_report):
    assert len(p2_report.candidates) == 1
    cand = p2_report.candidates[0]
    assert cand.lam_star == pytest.approx(1.0, abs=1e-9)
    assert cand.condition.klass == "a"
    assert not cand.gaps


def test_p2_pitchfork_pair(p2_report):
    cand = p2_report.candidates[0]
    sided = [b for b in cand.branches if b.side == "right"]
    assert len(sided) == 2
    assert all(b.side == "right" for b in sided)
    assert cand.alternative == "iv"
    assert cand.solutions_at_star == 0


def test_p2_amplitude_matches_one_mode_model(p2_report):
    cand = p2_report.candidates[0]
    for branch in cand.branches:
        for s in branch.samples:
            oracle = 2 * np.sqrt((s.lam - 1.0) / 3.0)
            assert s.amplitude_sup == pytest.approx(oracle, rel=0.02)


def test_p2_branch_symmetry(p2_report, prob_p2):
    cand = p2_report.candidates[0]
    b1, b2 = [b for b in cand.branches if b.side == "right"]
    for s1, s2 in zip(b1.samples, b2.samples):
        assert s1.lam == s2.lam
        # mirrored solutions of an even functional carry equal values
        func = prob_p2.at_parameter(s1.lam)
        assert abs(func.value(s1.coeffs) - func.value(s2.coeffs)) < 1e-10
        assert np.allclose(s1.coeffs, -s2.coeffs, atol=1e-8)


def test_p2_branch_morse_data(p2_report):
    cand = p2_report.candidates[0]
    for branch in cand.branches:
        if branch.side != "right":
            continue
        for s in branch.samples:
            assert (s.morse_index, s.nullity) == (0, 0)


def test_branch_residual_contract(p2_report):
    for cand in p2_report.candidates:
        for branch in cand.branches:
            for s in branch.samples:
                # every sample comes from a converged polish
                assert s.residual <= NEWTON_TOL


def test_branch_refinement_stability(prob_p2):
    fine = detect_branches(prob_p2, (0.99, 1.11), grid=13, amplitude_cap=3.0, rng=np.random.default_rng(1))
    coarse = detect_branches(prob_p2, (0.99, 1.11), grid=7, amplitude_cap=3.0, rng=np.random.default_rng(1))

    def amplitude_at(report, lam):
        out = []
        for branch in report.candidates[0].branches:
            for s in branch.samples:
                if abs(s.lam - lam) < 1e-9:
                    out.append(s.amplitude)
        return np.asarray(sorted(out))

    for lam in (1.05, 1.09):
        a_fine = amplitude_at(fine, lam)
        a_coarse = amplitude_at(coarse, lam)
        if a_fine.size and a_coarse.size:
            assert np.allclose(a_fine, a_coarse, rtol=5e-3)


def test_refinement_failure_is_recorded_as_gap(prob_p2, monkeypatch):
    import veldt.bifurcation
    from veldt.errors import ReductionFailureError

    solve_psi = veldt.bifurcation.solve_psi
    seen_star = []

    def failing_after_star(setup, lam, z, **kwargs):
        # the pass at lambda* ends the grid sweep; every later solve off it is a refinement start
        at_star = abs(float(np.atleast_1d(lam)[0]) - 1.0) < 1e-9
        if at_star:
            seen_star.append(True)
        elif seen_star:
            raise ReductionFailureError("refinement start refused")
        return solve_psi(setup, lam, z, **kwargs)

    monkeypatch.setattr(veldt.bifurcation, "solve_psi", failing_after_star)
    monkeypatch.setattr(veldt.bifurcation, "SOLUTION_CAP", 1)
    report = detect_branches(prob_p2, (0.9, 1.1), grid=5, amplitude_cap=3.0, rng=np.random.default_rng(0))
    (cand,) = report.candidates
    assert [g["lam"] for g in cand.gaps] == pytest.approx([1.05, 1.1])
    assert all("refinement start refused" in g["reason"] for g in cand.gaps)
    assert cand.alternative == "iv"


def _term(coef, alpha, power):
    return {"coef": coef, "factors": [{"component": 0, "alpha": [alpha], "power": power}]}


def _mass_document(disc, *terms):
    """The integrand sum(terms) with the mass constraint u^2/2, on ``disc``."""
    model = load_problem(
        {"n": 1, "m": 1, "N": 1, "integrand": {"terms": list(terms)}, "constraint": {"terms": [_term(0.5, 0, 2)]}}
    )
    return VariationalProblem(model=model, disc=disc)


def _shifted_p2(disc):
    """f = u'^2/2 - (5/2) u^2 + u^4/4: P2 with lambda shifted by -5, so its
    pencil k^2 - 5 has both signs and the base form F'' is indefinite."""
    return _mass_document(disc, _term(0.5, 1, 2), _term(-2.5, 0, 2), _term(0.25, 0, 4))


def test_shifted_p2_sweep_factors_the_gram_once(monkeypatch):
    # route (c) of classify_conditions reads the space's kept factors, so the
    # only factorization of the Gram is the one the space makes when it is built
    factored = []
    original = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        factored.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    disc = build_space((0.0, np.pi), 1, "dirichlet", 32)
    report = detect_branches(_shifted_p2(disc), (3.8, 4.2), grid=5, amplitude_cap=3.0, rng=np.random.default_rng(0))
    (cand,) = report.candidates
    assert cand.condition.klass == "c"
    assert sum(a.shape == disc.gram.shape and np.array_equal(a, disc.gram) for a in factored) == 1


@pytest.fixture(scope="module")
def transcritical(disc16):
    # f = u'^2/2 + u^3/3 + u^4/4: the branch amplitude grows linearly in lam - 1
    return _mass_document(disc16, _term(0.5, 1, 2), _term(1.0 / 3.0, 0, 3), _term(0.25, 0, 4))


def test_solution_cap_does_not_invent_alternative_ii(transcritical, monkeypatch):
    # the refinement must count solutions as the sweep does, without the
    # trivial one and those beyond the amplitude cap, so a cap of one changes
    # no label
    def label():
        report = detect_branches(transcritical, (0.9999, 1.3), grid=4, amplitude_cap=3.0, rng=np.random.default_rng(0))
        (cand,) = report.candidates
        return cand.alternative

    default = label()
    monkeypatch.setattr(veldt.bifurcation, "SOLUTION_CAP", 1)
    assert label() == default


def test_linearly_growing_branch_chains_into_one_branch_per_side(transcritical):
    # the sample two grid steps out lies 0.09 from the first (amplitude 0.10),
    # so a bound of 0.8 times the last amplitude alone split each side in two
    report = detect_branches(transcritical, (0.8, 1.3), grid=11, amplitude_cap=3.0, rng=np.random.default_rng(0))
    (cand,) = report.candidates
    assert cand.summary()["n_branches"] == 2
    grid = [float(l) for l in np.linspace(0.8, 1.3, 11) if abs(l - 1.0) > 1e-12]
    for branch in cand.branches:
        on_side = [l for l in grid if (l < 1.0) == (branch.side == "left")]
        assert sorted(s.lam for s in branch.samples) == pytest.approx(on_side)


def _sample(lam, coords):
    coords = np.asarray(coords, dtype=float)
    amplitude = float(np.linalg.norm(coords))
    return veldt.bifurcation.BranchSample(
        lam=lam, coeffs=coords, amplitude=amplitude, amplitude_sup=amplitude,
        kernel_coords=coords, morse_index=0, nullity=0, residual=0.0,
    )


def test_ambiguous_chaining_is_recorded_as_a_gap():
    # two branches 0.72 apart at amplitude 1, closer than 0.8 times it: the sample at 1.1
    # is within reach of both, so which one it continues is a guess
    samples = {1.05: [_sample(1.05, [1.0, 0.0]), _sample(1.05, [0.6, 0.6])], 1.1: [_sample(1.1, [0.85, 0.3])]}
    gaps = []
    branches = veldt.bifurcation._assemble_branches(1.0, samples, "right", gaps)
    assert [len(b.samples) for b in branches] == [2, 1]  # the nearest branch still takes the sample
    assert [g["lam"] for g in gaps] == [1.1]
    assert gaps[0]["reason"].startswith("ambiguous chaining: 2 unclaimed branches")
    # a symmetric pair stays apart, and each of its samples has one branch within reach
    pair = {1.05: [_sample(1.05, [1.0, 0.0]), _sample(1.05, [-1.0, 0.0])],
            1.1: [_sample(1.1, [1.2, 0.0]), _sample(1.1, [-1.2, 0.0])]}
    gaps = []
    assert [len(b.samples) for b in veldt.bifurcation._assemble_branches(1.0, pair, "right", gaps)] == [2, 2]
    assert gaps == []


def test_shifted_p2_reproduces_p2_branches(p2_report, disc32):
    # the crossing at -4 has negative inertia of F'' and a negative eigenvalue
    report = detect_branches(
        _shifted_p2(disc32), (-4.2, -3.7), grid=11, amplitude_cap=3.0, rng=np.random.default_rng(0)
    )
    (cand,) = report.candidates
    (ref,) = p2_report.candidates
    assert cand.lam_star + 5.0 == pytest.approx(ref.lam_star, abs=1e-12)
    assert cand.condition.klass == "c"
    assert (cand.jump["mu_minus"], cand.jump["mu_plus"]) == (ref.jump["mu_minus"], ref.jump["mu_plus"])
    assert (cand.alternative, cand.solutions_at_star) == (ref.alternative, ref.solutions_at_star)
    assert [b.side for b in cand.branches] == [b.side for b in ref.branches]
    for branch, ref_branch in zip(cand.branches, ref.branches):
        assert len(branch.samples) == len(ref_branch.samples)
        for s, r in zip(branch.samples, ref_branch.samples):
            assert s.lam + 5.0 == pytest.approx(r.lam, abs=1e-12)
            assert s.amplitude == pytest.approx(r.amplitude, abs=1e-12)
            assert (s.morse_index, s.nullity) == (r.morse_index, r.nullity)


def test_p3_quasilinear_pitchfork(p3):
    # state-dependent stiffness: one-mode reduced energy
    # (pi/4)(1-lam) a^2 + (pi/16) a^4, so the branch amplitude is sqrt(2(lam-1))
    disc = build_space((0.0, np.pi), 1, "dirichlet", 24)
    problem = VariationalProblem(model=p3, disc=disc)
    report = detect_branches(problem, (0.9, 1.12), grid=12, amplitude_cap=3.0, rng=np.random.default_rng(0))
    cand = report.candidates[0]
    assert cand.alternative == "iv"
    checked = 0
    for branch in cand.branches:
        for s in branch.samples:
            if s.lam > 1.0:
                assert s.amplitude_sup == pytest.approx(np.sqrt(2 * (s.lam - 1.0)), rel=0.03)
                checked += 1
    assert checked >= 4


def test_p1_linear_problem_gives_kernel_ray(prob_p1_64, p1):
    disc32 = build_space((0.0, np.pi), 1, "dirichlet", 32)
    problem = VariationalProblem(model=p1, disc=disc32)
    report = detect_branches(problem, (0.5, 1.5), grid=11, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert len(report.candidates) == 1
    cand = report.candidates[0]
    assert cand.alternative == "i"
    assert cand.solutions_at_star > 0
    assert all(b.side == "at" for b in cand.branches)


def test_candidate_set_matches_pencil_in_window(prob_p2, prob_p1_64, p4, beam8):
    report = detect_branches(prob_p2, (0.5, 5.0), grid=5, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert [round(c.lam_star, 6) for c in report.candidates] == [1.0, 4.0]
    report1 = detect_branches(prob_p1_64, (0.5, 5.0), grid=3, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert [round(c.lam_star, 6) for c in report1.candidates] == [1.0, 4.0]
    problem4 = VariationalProblem(model=p4, disc=beam8)
    report4 = detect_branches(problem4, (400.0, 600.0), grid=5, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert len(report4.candidates) == 1
    assert report4.candidates[0].lam_star == pytest.approx(500.5639017404, rel=1e-6)


def test_reduction_extent_follows_the_pencil_separation(prob_p2):
    # the candidate's reduction takes its box and trust radius from the separation in its pencil
    pencil, _, _ = _pencil(prob_p2)
    idx, _ = pencil.nearest(1.0)
    setup = make_reduction_setup(prob_p2, float(pencil.eigenvalues[idx]))
    assert (setup.lambda_box, setup.trust_radius) == _reduction_extent(pencil.separation(idx))
    assert _reduction_extent(np.inf) == (0.45, 0.3)
    # the cap keeps the trust radius at most 1, so no relative threshold needs a max(1, trust radius) scale
    assert _reduction_extent(10.0) == (1.0, 1.0)


def test_detect_branches_builds_one_reduction_setup_per_candidate(prob_p2, monkeypatch):
    # the sweep reduces through the public constructor, whose kernel dimension is the candidate's multiplicity
    calls = []
    build = veldt.bifurcation.make_reduction_setup

    def counted(problem, lam_star):
        setup = build(problem, lam_star)
        calls.append((lam_star, setup.nullity))
        return setup

    monkeypatch.setattr(veldt.bifurcation, "make_reduction_setup", counted)
    report = detect_branches(prob_p2, (0.9, 4.1), grid=3, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert [(c.lam_star, c.multiplicity) for c in report.candidates] == calls
    assert [round(lam, 6) for lam, _ in calls] == [1.0, 4.0]


def test_index_jump_report_embedding(prob_p1_64):
    pencil, _, _ = _pencil(prob_p1_64)
    record = index_jump(pencil, 1.0, 0.1).summary()
    assert (record["mu_minus"], record["mu_plus"], record["nullity"]) == (0, 1, 1)


# ---------------------------------------------------------------------------
# sign symmetry: a minus start is the mirror of its plus start


def _two_p2():
    """Two P2 copies coupled by u0^2 u1^2 / 2, with the mass constraint, at K = 16:
    an even problem whose pencil eigenvalue 1 has multiplicity two."""
    factor = lambda comp, alpha, power: {"component": comp, "alpha": [alpha], "power": power}
    terms = [{"coef": c, "factors": [factor(i, a, k)]} for i in (0, 1) for c, a, k in ((0.5, 1, 2), (0.25, 0, 4))]
    terms.append({"coef": 0.5, "factors": [factor(0, 0, 2), factor(1, 0, 2)]})
    model = load_problem({"n": 1, "m": 1, "N": 2, "integrand": {"terms": terms}})
    return VariationalProblem(model=model, disc=build_space((0.0, np.pi), 1, "dirichlet", 16, n_components=2))


def _solve_from(setup, lam, z0):
    try:
        return veldt.bifurcation._reduced_newton(setup, lam, z0)
    except ReductionFailureError as exc:
        return exc


def _assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # signed zeros count


@pytest.mark.parametrize("case", ["p2", "two_p2"])
def test_mirrored_start_is_the_minus_solve_bit_for_bit(case, prob_p2, monkeypatch):
    problem = prob_p2 if case == "p2" else _two_p2()
    setup = make_reduction_setup(problem, 1.0)
    assert problem.sign_symmetric
    nu, rho = setup.nullity, setup.trust_radius
    assert nu == (1 if case == "p2" else 2)
    n = veldt.bifurcation.BRANCH_STARTS
    starts = _star_seeds(np.zeros(nu), np.eye(nu), np.linspace(1.0 / n, 0.9, n) * rho)
    multistart = veldt.bifurcation._reduced_multistart
    for lam in (0.9, 1.05, 1.3):
        for plus, minus in zip(starts[1::2], starts[2::2]):
            mirrored, solved = veldt.bifurcation._mirror(_solve_from(setup, lam, plus)), _solve_from(setup, lam, minus)
            if isinstance(solved, Exception):
                assert (type(mirrored), str(mirrored)) == (type(solved), str(solved))
                continue
            z, y, ok = mirrored
            _assert_bitwise_equal(z, solved[0])
            _assert_bitwise_equal(y, solved[1])
            assert ok == solved[2]
        # and the multistart keeps the same points, in the same order, as solving every start
        found = multistart(setup, lam, n, np.random.default_rng(0))
        with monkeypatch.context() as m:
            m.setattr(veldt.functional.VariationalProblem, "sign_symmetric", property(lambda self: False))
            reference = multistart(setup, lam, n, np.random.default_rng(0))
        assert len(found) == len(reference)
        for (z, y), (z_ref, y_ref) in zip(found, reference):
            _assert_bitwise_equal(z, z_ref)
            _assert_bitwise_equal(y, y_ref)


def test_catalog_models_are_sign_symmetric(p1, p2, p3, p4, disc32, beam8):
    for model, disc in ((p1, disc32), (p2, disc32), (p3, disc32), (p4, beam8)):
        assert VariationalProblem(model=model, disc=disc).sign_symmetric, model.name


def test_sign_symmetry_needs_even_compiled_terms_and_a_zero_base_point(p2, prob_p2, transcritical):
    assert not transcritical.sign_symmetric  # the cubic term u^3/3
    lag = p2.lagrangian
    by_hand = dataclasses.replace(lag, f=lambda x, xi: lag.f(x, xi))  # the same values, but a callback
    problem = VariationalProblem(model=ModelProblem("by_hand", by_hand, p2.constraint), disc=prob_p2.disc)
    assert not problem.sign_symmetric
    assert prob_p2.sign_symmetric
    kernel = make_reduction_setup(prob_p2, 1.0).kernel_basis[:, 0]
    assert not dataclasses.replace(prob_p2, u0=prob_p2.disc.field(1e-3 * kernel)).sign_symmetric


def _counting_reduced_solves(monkeypatch):
    calls = []
    solve = veldt.bifurcation._reduced_newton
    monkeypatch.setattr(veldt.bifurcation, "_reduced_newton", lambda *args, **kw: calls.append(1) or solve(*args, **kw))
    return calls


def test_even_sweep_solves_each_start_pair_once(prob_p2, monkeypatch):
    # the README bifurcate config: 11 parameter values, each with four plus starts
    # solved and four minus starts mirrored; 88 without the mirror (the origin is no start)
    calls = _counting_reduced_solves(monkeypatch)
    detect_branches(prob_p2, (0.8, 1.3), grid=11, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert len(calls) == 44


def test_reduced_sweep_makes_one_complement_solve_per_start(p2, monkeypatch):
    # the small pitchfork of the benchmark self-check: P2 at K = 12, window [0.9, 1.1], grid 5.
    # A solved start makes one cold complement solve, converged or not, and no warm one;
    # the work is counted, so the pins hold on any machine
    problem = VariationalProblem(model=p2, disc=build_space((0.0, np.pi), 1, "dirichlet", 12))
    psi_calls, hessians, per_start = [], [], []
    solve_psi = veldt.bifurcation.solve_psi
    assemble_hessian = veldt.functional.assemble_hessian
    reduced_newton = veldt.bifurcation._reduced_newton

    def counted_solve(*args, **kwargs):
        before = len(psi_calls)
        z, y, ok = reduced_newton(*args, **kwargs)
        per_start.append((ok, len(psi_calls) - before))
        return z, y, ok

    monkeypatch.setattr(veldt.bifurcation, "solve_psi", lambda *a, **kw: psi_calls.append(kw) or solve_psi(*a, **kw))
    monkeypatch.setattr(veldt.functional, "assemble_hessian", lambda lag, u: hessians.append(1) or assemble_hessian(lag, u))
    monkeypatch.setattr(veldt.bifurcation, "_reduced_newton", counted_solve)
    detect_branches(problem, (0.9, 1.1), grid=5, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert len(per_start) == 20  # five parameter values, four plus starts each
    assert all(n == 1 for _, n in per_start)
    assert len(psi_calls) == 20 and not any("w0" in kw for kw in psi_calls)
    # 188: a near-trivial reduced solution is dropped before any full-space polish
    assert len(hessians) == 188


def test_branch_sampler_polishes_no_trivial_solution(p2, monkeypatch):
    # the same small pitchfork: a reduced solution within the trivial radius of u0 is dropped in the
    # reduced coordinates, so no full-space polish starts there; the four that do are the branch samples
    problem = VariationalProblem(model=p2, disc=build_space((0.0, np.pi), 1, "dirichlet", 12))
    u0 = problem.u0.coeffs
    starts = []
    polish = veldt.functional.newton_polish
    monkeypatch.setattr(veldt.functional, "newton_polish", lambda func, c, *stop: starts.append(c) or polish(func, c, *stop))
    report = detect_branches(problem, (0.9, 1.1), grid=5, amplitude_cap=3.0, rng=np.random.default_rng(0))
    trivial_radius = (10 * RESIDUAL_CONTRACT) ** (1.0 / 3.0)
    assert len(starts) == 4
    assert all(problem.disc.norm(c - u0) >= trivial_radius for c in starts)
    assert sum(len(b.samples) for b in report.candidates[0].branches) == 4


def test_even_sweep_makes_no_eigensolve_in_the_reduction(p2, disc32, monkeypatch):
    # the complement Newton step decides its condition check by Gershgorin discs;
    # an eigvalsh per step would count 343 calls made below veldt.reduction here.
    # A fresh problem builds its pencil and the pencil's inertia table in the
    # sweep, so the counter sees their eigvalsh calls, all outside the reduction
    prob_p2 = VariationalProblem(model=p2, disc=disc32)
    inside = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals.get("__name__") != "veldt.reduction":
            frame = frame.f_back
        inside.append(frame is not None)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    detect_branches(prob_p2, (0.8, 1.3), grid=11, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert inside and sum(inside) == 0


def test_cubic_sweep_solves_every_start_and_stays_asymmetric(disc32, monkeypatch):
    cubic = _mass_document(disc32, _term(0.5, 1, 2), _term(1.0 / 3.0, 0, 3), _term(0.25, 0, 4))
    calls = _counting_reduced_solves(monkeypatch)
    report = detect_branches(cubic, (0.8, 1.3), grid=11, amplitude_cap=3.0, rng=np.random.default_rng(0))
    assert len(calls) == 88  # 11 parameter values, eight starts each
    (cand,) = report.candidates
    assert sorted(b.side for b in cand.branches) == ["left", "right"]
    for branch in cand.branches:
        # one transcritical solution per parameter value, with no mirror partner
        assert len({s.lam for s in branch.samples}) == len(branch.samples)
        signs = {float(np.sign(s.kernel_coords[0])) for s in branch.samples}
        assert signs == ({-1.0} if branch.side == "left" else {1.0})


# ---------------------------------------------------------------------------
# Morse counting


@pytest.fixture(scope="module")
def prob_p2_48(p2):
    disc = build_space((0.0, np.pi), 1, "dirichlet", 48)
    return VariationalProblem(model=p2, disc=disc)


def _audit(problem, lam, rng):
    func = problem.at_parameter(lam)
    seeds = _census_seeds(problem, func, [0.25, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0], 8, rng)
    return morse_inequality_audit(func, seeds, window=None)


def test_census_convex_regime(prob_p2_48):
    audit = _audit(prob_p2_48, 0.5, np.random.default_rng(0))
    assert audit.counts == {0: 1}
    assert audit.alternating_total == 1
    assert audit.identity_holds and audit.partial_sums_hold


def test_census_between_first_crossings(prob_p2_48):
    audit = _audit(prob_p2_48, 2.5, np.random.default_rng(0))
    assert audit.counts == {0: 2, 1: 1}
    assert audit.alternating_total == 1
    assert [cp.morse_index for cp in audit.points if cp.distance_from_center < 1e-6] == [1]


def test_census_after_two_crossings(prob_p2_48):
    audit = _audit(prob_p2_48, 5.0, np.random.default_rng(0))
    assert audit.counts == {0: 2, 1: 2, 2: 1}
    assert audit.identity_holds and audit.partial_sums_hold


def test_census_aborts_on_degenerate_point(prob_p2_48):
    with pytest.raises(DegenerateCriticalPointError) as err:
        _audit(prob_p2_48, 1.0, np.random.default_rng(0))
    assert err.value.witness is not None


def _counting_polish(monkeypatch):
    """Record the coefficients of every full-space polish the census runs."""
    polished = []
    polish = veldt.functional.newton_polish

    def counting(func, seed, *stop):
        result = polish(func, seed, *stop)
        polished.append(result.coeffs)
        return result

    monkeypatch.setattr(veldt.functional, "newton_polish", counting)
    return polished


def test_census_stops_at_its_first_degenerate_find(prob_p2_48, monkeypatch):
    # at lambda = 1 the origin is degenerate, and the first seed is the origin
    polished = _counting_polish(monkeypatch)
    func = prob_p2_48.at_parameter(1.0)
    seeds = _census_seeds(prob_p2_48, func, [0.25, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0], 8, np.random.default_rng(0))
    with pytest.raises(DegenerateCriticalPointError) as err:
        morse_inequality_audit(func, seeds, window=None)
    assert len(polished) == 1 < len(seeds)
    assert err.value.witness.nullity == 1
    np.testing.assert_array_equal(err.value.witness.coeffs, polished[-1])


def test_degenerate_point_outside_window_does_not_abort(prob_p2_48, monkeypatch):
    polished = _counting_polish(monkeypatch)
    func = prob_p2_48.at_parameter(1.0)
    seeds = _census_seeds(prob_p2_48, func, [0.25, 0.5, 1.0], 2, np.random.default_rng(0))
    audit = morse_inequality_audit(func, seeds, window=(0.5, 1.0))  # the origin has value 0
    assert len(polished) == len(seeds)
    assert audit.points == [] and audit.counts == {}


def test_tilt_ball_owns_the_census_points_within_r(p2):
    # at lam = 4 the census holds the degenerate u0 (index 1) and two minima 3.78 from it; the seeds
    # polish one minimum before the witness u0 and one after.  A tilt ball of radius 0.5 leaves both
    # minima to the census; one of radius 5 owns them, wherever they come in seed order, so only the
    # tilt's local point counts
    problem = VariationalProblem(model=p2, disc=build_space((0.0, np.pi), 1, "dirichlet", 16))
    func = problem.at_parameter(4.0)
    stars = _census_seeds(problem, func, [3.0], 0, np.random.default_rng(0))
    seeds = [stars[1], stars[0], stars[2]]

    def tilt_of_radius(r):
        def tilt(witness):
            result = marino_prodi_perturb(problem, 4.0, r=0.5, delta_inner=0.25, rng=np.random.default_rng(0))
            ball = result.perturbed
            return dataclasses.replace(
                result, perturbed=PerturbedFunctional(func, ball.u0, ball.Z, r=r, delta=ball.delta, b_coords=ball.b)
            )

        return tilt

    narrow = morse_inequality_audit(func, seeds, window=None, tilt=tilt_of_radius(0.5))
    assert narrow.counts == {0: 2, 1: 1} and len(narrow.captures) == 1
    wide = morse_inequality_audit(func, seeds, window=None, tilt=tilt_of_radius(5.0))
    assert wide.counts == {1: 1}
    assert wide.points == wide.captures[0][0].critical_points


def test_census_window_filter(prob_p2_48):
    func = prob_p2_48.at_parameter(2.5)
    seeds = _census_seeds(prob_p2_48, func, [0.25, 0.5, 1.0, 2.0, 3.0], 4, np.random.default_rng(0))
    audit = morse_inequality_audit(func, seeds, window=(-2.0, -0.5))
    assert audit.counts == {0: 2}
    assert not audit.identity_holds  # a window that cuts the minimum cell need not sum to one


# ---------------------------------------------------------------------------
# translation orbits


def test_orbit_group_quarter_shift(periodic5):
    sinx = periodic5.field([0, 0, 1, 0, 0])
    cosx = periodic5.field([0, 1, 0, 0, 0])
    grouping = orbit_group([sinx, cosx], periodic5)
    assert grouping.n_orbits == 1


def test_orbit_group_distinct_frequencies(periodic5):
    sinx = periodic5.field([0, 0, 1, 0, 0])
    sin2x = periodic5.field([0, 0, 0, 0, 1])
    grouping = orbit_group([sinx, sin2x], periodic5)
    assert grouping.n_orbits == 2


def test_orbit_group_constants_are_fixed_points(periodic5):
    c1 = periodic5.field([0.7, 0, 0, 0, 0])
    c2 = periodic5.field([-0.3, 0, 0, 0, 0])
    sinx = periodic5.field([0, 0, 1, 0, 0])
    grouping = orbit_group([c1, c2, sinx], periodic5)
    assert grouping.fixed_points == [0, 1]
    assert grouping.n_orbits == 3


def test_orbit_group_is_an_equivalence(periodic5):
    theta = 1.234
    members = [
        periodic5.field([0, 0, 1, 0, 0]),
        periodic5.field([0, np.sin(theta), np.cos(theta), 0, 0]),
        periodic5.field([0, 1, 0, 0, 0]),
        periodic5.field([0, 0, 0, 0, 1]),
    ]
    grouping = orbit_group(members, periodic5)
    classes = {tuple(c) for c in grouping.classes}
    assert (0, 1, 2) in classes
    assert (3,) in classes
    # symmetric and transitive through pairwise distances
    d = grouping.min_distances
    assert np.allclose(d, d.T)
    assert d[0, 1] < 1e-8 and d[1, 2] < 1e-8 and d[0, 2] < 1e-8


def _orbit_distance_by_scan(disc, u, v):
    # reference search: direct distances at 720 grid shifts, then Newton on the
    # squared distance from the best of them
    L = disc.domain[1] - disc.domain[0]
    shifted = veldt.bifurcation._shifted_coeffs
    grid = np.linspace(0.0, L, 720, endpoint=False)
    t0 = float(grid[int(np.argmin([disc.norm(u - shifted(disc, v, t)) for t in grid]))])
    pairs, _ = veldt.bifurcation._fourier_mode_data(disc)
    g = np.diag(disc.gram).reshape(disc.n_components, disc.K)
    cu, cv = u.reshape(g.shape), v.reshape(g.shape)
    P = np.array([np.sum(g[:, c] * (cu[:, c] * cv[:, c] + cu[:, s] * cv[:, s])) for _, c, s in pairs])
    Q = np.array([np.sum(g[:, c] * (cu[:, c] * cv[:, s] - cu[:, s] * cv[:, c])) for _, c, s in pairs])
    w = 2.0 * np.pi / L * np.array([j for j, _, _ in pairs], dtype=float)
    t = t0
    for _ in range(40):
        d1 = 2.0 * float(w @ (P * np.sin(w * t) - Q * np.cos(w * t)))
        d2 = 2.0 * float((w**2) @ (P * np.cos(w * t) + Q * np.sin(w * t)))
        if d2 <= 0:
            break
        t -= d1 / d2
        if abs(d1 / d2) < 1e-15 * max(1.0, abs(t)):
            break
    return min(disc.norm(u - shifted(disc, v, t)), disc.norm(u - shifted(disc, v, t0)))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n_components, length", [(1, 2.0 * np.pi), (2, 3.0)])
def test_orbit_group_matches_grid_scan(seed, n_components, length):
    disc = build_space((0.0, length), 1, "periodic", 9, n_components=n_components)
    rng = np.random.default_rng(seed)
    shifted = veldt.bifurcation._shifted_coeffs
    u, v = rng.standard_normal((2, disc.dim))
    # only frequencies 2 and 4: invariant under a half-period shift
    half = np.zeros((n_components, 9))
    half[:, [3, 4, 7, 8]] = rng.standard_normal((n_components, 4))
    half = half.reshape(disc.dim)
    constant = np.zeros((n_components, 9))
    constant[:, 0] = rng.standard_normal(n_components)
    coeffs = [
        u,
        shifted(disc, u, rng.uniform(0.0, length)),
        v,
        half,
        shifted(disc, half, rng.uniform(0.0, length)),
        shifted(disc, u, rng.uniform(0.0, length)),
        constant.reshape(disc.dim),
    ]
    grouping = orbit_group([disc.field(c) for c in coeffs], disc)

    n = len(coeffs)
    reference = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            reference[i, j] = reference[j, i] = _orbit_distance_by_scan(disc, coeffs[i], coeffs[j])
    assert np.max(np.abs(grouping.min_distances - reference)) < 1e-12
    linked = {(i, j) for i in range(n) for j in range(i + 1, n) if reference[i, j] < 1e-8}
    assert linked == {(0, 1), (0, 5), (1, 5), (3, 4)}
    assert grouping.classes == [[0, 1, 5], [2], [3, 4], [6]]
    assert grouping.fixed_points == [6]


def test_orbit_group_rejects_unpaired_mode_of_even_k():
    # K = 6: constant, (cos x, sin x), (cos 2x, sin 2x), then cos 3x without its sine
    disc = build_space((0.0, 2.0 * np.pi), 1, "periodic", 6)
    sinx = disc.field([0, 0, 1, 0, 0, 0])
    cosx = disc.field([0, 1, 0, 0, 0, 0])
    assert orbit_group([sinx, cosx], disc).n_orbits == 1
    cos3x = disc.field([0, 1, 0, 0, 0, 1e-3])
    with pytest.raises(CapabilityError, match="unpaired cosine"):
        orbit_group([sinx, cos3x], disc)
    below_tol = disc.field([0, 1, 0, 0, 0, 1e-12])
    assert orbit_group([sinx, below_tol], disc).n_orbits == 1


def test_orbit_group_requires_periodic(disc16):
    with pytest.raises(CapabilityError):
        orbit_group([disc16.zero_field()], disc16)

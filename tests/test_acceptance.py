"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Expected values are frozen from independent oracles: closed-form eigenvalues
of the second-derivative operators on intervals, the characteristic equation
of clamped modes solved by bisection, one-mode energy integrals, and finite
differences of assembled quantities.
"""

import json
import math
import time

import numpy as np
from veldt import (
    assemble_functional,
    assemble_gradient,
    assemble_hessian,
    build_space,
    detect_branches,
    hessian_split,
    index_jump,
    lipschitz_audit,
    make_reduction_setup,
    marino_prodi_perturb,
    model_problem,
    morse_inequality_audit,
    orbit_group,
    pencil_eigs,
    q_compactness_audit,
    reduced_value,
    solve_psi,
)
from veldt.cli import _census_seeds, run
from veldt.functional import VariationalProblem


def _report(cid, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {cid}: {detail}")
    assert passed, f"criterion {cid} failed: {detail}"


def _problem(name, disc):
    return VariationalProblem(model=model_problem(name), disc=disc)


def _pencil_of(problem):
    F = problem.energy.hessian_dual(problem.u0.coeffs)
    G = problem.constraints[0].hessian_dual(problem.u0.coeffs)
    return pencil_eigs(F, G, problem.disc.gram), F, G


def _clamped_root_bisect():
    # independent oracle: bisection on cos(mu)*cosh(mu) - 1 over [3*pi/2 - 1, 3*pi/2 + 1]
    f = lambda mu: math.cos(mu) * math.cosh(mu) - 1.0
    lo, hi = 1.5 * math.pi - 1.0, 1.5 * math.pi + 1.0
    assert f(lo) * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_1_pencil_spectra():
    t0 = time.time()
    disc = build_space((0.0, np.pi), 1, "dirichlet", 64)
    pencil, _, _ = _pencil_of(_problem("P1", disc))
    worst = max(abs(pencil.eigenvalues[k - 1] - k**2) / k**2 for k in range(1, 6))
    t1 = time.time() - t0
    t0 = time.time()
    beam = build_space((0.0, 1.0), 2, "dirichlet", 8)
    pencil4, _, _ = _pencil_of(_problem("P4", beam))
    mu1 = _clamped_root_bisect()
    beam_err = abs(pencil4.eigenvalues[0] - mu1**4) / mu1**4
    t2 = time.time() - t0
    _report(
        1,
        worst < 1e-3 and beam_err < 5e-3 and t1 < 5.0 and t2 < 5.0,
        f"interval spectrum err {worst:.2e} ({t1:.2f}s), clamped fundamental err {beam_err:.2e} ({t2:.2f}s)",
    )


def test_criterion_2_derivative_oracles():
    rng = np.random.default_rng(11)
    h = 1e-5
    worst_grad = worst_hess = 0.0
    spaces = {
        "P1": build_space((0.0, np.pi), 1, "dirichlet", 16),
        "P2": build_space((0.0, np.pi), 1, "dirichlet", 16),
        "P3": build_space((0.0, np.pi), 1, "dirichlet", 16),
        "P4": build_space((0.0, 1.0), 2, "dirichlet", 8),
    }
    for name, disc in spaces.items():
        lag = model_problem(name).lagrangian
        for _ in range(50):
            u = rng.standard_normal(disc.dim)
            u *= rng.uniform(0.1, 2.0) / disc.norm(u)
            v = rng.standard_normal(disc.dim)
            v /= disc.norm(v)
            ell = assemble_gradient(lag, disc.field(u))
            fd = (
                assemble_functional(lag, disc.field(u + h * v))
                - assemble_functional(lag, disc.field(u - h * v))
            ) / (2 * h)
            pairing = float(ell @ v)
            worst_grad = max(worst_grad, abs(fd - pairing) / max(abs(pairing), 1.0))
            B = assemble_hessian(lag, disc.field(u))
            gp = disc.solve_gram(assemble_gradient(lag, disc.field(u + h * v)))
            gm = disc.solve_gram(assemble_gradient(lag, disc.field(u - h * v)))
            fd_vec = (gp - gm) / (2 * h)
            action = disc.solve_gram(B @ v)
            scale = max(float(np.max(np.abs(action))), 1.0)
            worst_hess = max(worst_hess, float(np.max(np.abs(fd_vec - action))) / scale)
    _report(
        2,
        worst_grad < 1e-6 and worst_hess < 1e-6,
        f"gradient fd err {worst_grad:.2e}, second-variation fd err {worst_hess:.2e} (200 fields)",
    )


def test_criterion_3_split_contract():
    rng = np.random.default_rng(23)
    disc = build_space((0.0, np.pi), 1, "dirichlet", 64)
    worst_defect = 0.0
    min_c0 = np.inf
    for name in ("P1", "P2", "P3"):
        lag = model_problem(name).lagrangian
        for _ in range(17):
            u = rng.standard_normal(disc.dim)
            u *= rng.uniform(0.0, 3.0) / disc.norm(u)
            split = hessian_split(lag, disc.field(u))
            worst_defect = max(worst_defect, split.split_defect)
            min_c0 = min(min_c0, split.C0_estimate)
    p2 = model_problem("P2").lagrangian
    sine = np.zeros(disc.dim)
    sine[0] = 1.0
    tail = q_compactness_audit(p2, disc.field(sine), disc)
    split = hessian_split(p2, disc.field(sine))
    C1 = 0.5 * split.C0_estimate
    batch = rng.standard_normal((100, disc.dim))
    deficits = [
        (C1 * disc.norm(v) ** 2 - float(v @ split.B @ v)) / max(disc.norm_lower(v) ** 2, 1e-300)
        for v in batch
    ]
    C2 = max(0.0, max(deficits)) * 1.1 + 1e-12
    fresh = rng.standard_normal((100, disc.dim))
    garding = all(
        float(v @ split.B @ v) >= C1 * disc.norm(v) ** 2 - C2 * disc.norm_lower(v) ** 2 - 1e-10
        for v in fresh
    )
    _report(
        3,
        worst_defect < 1e-12 and min_c0 > 0 and tail.passed and garding,
        f"split defect {worst_defect:.2e}, min positivity {min_c0:.3f}, tail decay "
        f"{tail.ratios[-1]:.2e}, lower-order bound holds with C1={C1:.3f}, C2={C2:.3f}",
    )


def test_criterion_4_index_jumps():
    disc = build_space((0.0, np.pi), 1, "dirichlet", 64)
    pencil, _, _ = _pencil_of(_problem("P1", disc))
    records = []
    for lam_star in (1.0, 4.0, 9.0):
        jump = index_jump(pencil, lam_star, 0.1)
        records.append((jump.mu_plus - jump.mu_minus, jump.nullity))
    _report(
        4,
        all(delta == nu for delta, nu in records),
        f"jumps at the first three crossings: {records} (direct eigencount equals multiplicity)",
    )


def test_criterion_5_reduction_contract():
    disc = build_space((0.0, np.pi), 1, "dirichlet", 32)
    problem = _problem("P2", disc)
    setup = make_reduction_setup(problem, 1.0, kernel_dim=1)
    rng = np.random.default_rng(31)
    worst = 0.0
    for lam in (0.95, 0.98, 1.0, 1.02, 1.05):
        for z in np.linspace(-0.3, 0.3, 21):
            sample = solve_psi(setup, [lam], np.array([z]), tol=5e-12)
            worst = max(worst, sample.residual)
    zero_ok = all(
        solve_psi(setup, [lam], np.zeros(1)).correction_norm == 0.0 for lam in (0.9, 1.0, 1.1)
    )
    lip = lipschitz_audit(setup, [1.0], n_pairs=25, rng=rng)
    base = solve_psi(setup, [1.0], np.array([0.25]), tol=5e-12)
    spread = 0.0
    for _ in range(10):
        w0 = rng.standard_normal(setup.complement_basis.shape[1])
        w0 *= 0.4 * setup.trust_radius / np.linalg.norm(w0)
        probe = solve_psi(setup, [1.0], np.array([0.25]), tol=5e-12, w0=w0)
        spread = max(spread, float(np.linalg.norm(probe.y - base.y)))
    _report(
        5,
        worst < 1e-11 and zero_ok and lip.passed and spread < 1e-8,
        f"max correction residual {worst:.2e} (105 grid points), zero-coordinate correction exact, "
        f"lipschitz {lip.max_ratio:.3f} <= 3, uniqueness spread {spread:.2e}",
    )


def test_criterion_6_reduced_normal_form():
    disc = build_space((0.0, np.pi), 1, "dirichlet", 64)
    problem = _problem("P2", disc)
    setup = make_reduction_setup(problem, 1.0, kernel_dim=1)
    worst_quad = worst_quart = 0.0
    for lam in (0.95, 1.05):
        amps = np.linspace(0.0, 0.3, 13)
        vals = [
            reduced_value(setup, [lam], np.array([a * np.sqrt(np.pi)])) for a in amps
        ]
        design = np.stack([amps**2, amps**4], axis=1)
        coef, *_ = np.linalg.lstsq(design, np.asarray(vals), rcond=None)
        worst_quad = max(worst_quad, abs(coef[0] - (np.pi / 4) * (1 - lam)) / abs((np.pi / 4) * (1 - lam)))
        worst_quart = max(worst_quart, abs(coef[1] - 3 * np.pi / 32) / (3 * np.pi / 32))
    _report(
        6,
        worst_quad < 0.01 and worst_quart < 0.01,
        f"quadratic coefficient err {worst_quad:.2e}, quartic coefficient err {worst_quart:.2e}",
    )


def test_criterion_7_pitchfork_quantitative():
    t0 = time.time()
    disc = build_space((0.0, np.pi), 1, "dirichlet", 48)
    problem = _problem("P2", disc)
    report = detect_branches(problem, (0.99, 1.1), grid=12, rng=np.random.default_rng(0))
    cand = report.candidates[0]
    lams, amps = [], []
    for branch in cand.branches:
        if branch.side != "right":
            continue
        for s in branch.samples:
            if s.kernel_coords[0] > 0:
                lams.append(s.lam)
                amps.append(s.amplitude_sup)
    lams = np.asarray(lams)
    amps = np.asarray(amps)
    at_105 = amps[np.isclose(lams, 1.05)]
    target = 2 * np.sqrt(0.05 / 3.0)
    amp_err = abs(at_105[0] - target) / target
    mask = (lams >= 1.0099) & (lams <= 1.1001)
    slope = np.polyfit(np.log(lams[mask] - 1.0), np.log(amps[mask]), 1)[0]
    elapsed = time.time() - t0
    _report(
        7,
        amp_err < 0.02 and abs(slope - 0.5) < 0.02 and elapsed < 60.0,
        f"amplitude at 1.05 err {amp_err:.2e} (target {target:.4f}), "
        f"square-root exponent {slope:.4f}, elapsed {elapsed:.1f}s",
    )


def test_criterion_8_morse_identity():
    disc = build_space((0.0, np.pi), 1, "dirichlet", 48)
    problem = _problem("P2", disc)
    rng = np.random.default_rng(8)
    func = problem.at_parameter([2.5])
    seeds = _census_seeds(problem, [2.5], [0.25, 0.5, 1.0, 2.0, 3.0], 6, rng)
    audit = morse_inequality_audit(func, seeds)
    mid_ok = audit.alternating_total == 1 and audit.counts == {0: 2, 1: 1}
    func_low = problem.at_parameter([0.5])
    seeds_low = _census_seeds(problem, [0.5], [0.25, 0.5, 1.0, 2.0], 6, rng)
    audit_low = morse_inequality_audit(func_low, seeds_low)
    low_ok = audit_low.counts == {0: 1} and audit_low.points[0].distance_from_center < 1e-9
    _report(
        8,
        mid_ok and low_ok,
        f"census between crossings {audit.summary()['counts']} sums to {audit.alternating_total}; "
        f"convex regime census is the single minimum with index 0",
    )


def test_criterion_9_kernel_tilt():
    disc = build_space((0.0, np.pi), 1, "dirichlet", 32)
    problem = _problem("P2", disc)
    func = problem.at_parameter([1.0])
    all_ok = True
    details = []
    for seed in range(5):
        result = marino_prodi_perturb(
            func, problem.u0, r=0.5, delta_inner=0.25, rng=np.random.default_rng(seed)
        )
        lo, hi = result.morse_window
        ok = (
            result.passed
            and len(result.critical_points) >= 1
            and all(cp.nullity == 0 for cp in result.critical_points)
            and all(lo <= cp.morse_index <= hi for cp in result.critical_points)
        )
        all_ok = all_ok and ok
        details.append(len(result.critical_points))
    rng = np.random.default_rng(99)
    exterior = 0.0
    result = marino_prodi_perturb(func, problem.u0, r=0.5, delta_inner=0.25, rng=np.random.default_rng(0))
    for _ in range(10):
        d = rng.standard_normal(disc.dim)
        d *= rng.uniform(0.55, 3.0) / disc.norm(d)
        c = problem.u0.coeffs + d
        exterior = max(exterior, abs(result.perturbed.value(c) - func.value(c)))
    _report(
        9,
        all_ok and exterior == 0.0,
        f"five tilts give nondegenerate censuses {details} with indices in [0, 1]; "
        f"max exterior deviation {exterior}",
    )


def test_criterion_10_orbit_grouping():
    disc = build_space((0.0, 2.0 * np.pi), 1, "periodic", 5)
    theta = 0.7334
    first_eigenspace = [
        disc.field([0, 0, 1, 0, 0]),
        disc.field([0, 1, 0, 0, 0]),
        disc.field([0, np.sin(theta), np.cos(theta), 0, 0]),
    ]
    grouping = orbit_group(first_eigenspace, disc)
    constants = [disc.field([0.4, 0, 0, 0, 0]), disc.field([-1.2, 0, 0, 0, 0])]
    grouping_c = orbit_group(constants + [first_eigenspace[0]], disc)
    _report(
        10,
        grouping.n_orbits == 1 and grouping_c.fixed_points == [0, 1] and grouping_c.n_orbits == 3,
        f"first eigenspace collapses to {grouping.n_orbits} orbit; constants are fixed points "
        f"{grouping_c.fixed_points} in {grouping_c.n_orbits} orbits",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "problem": "P1",
        "scenario": "spectrum",
        "discretization": {"domain": [0, "pi"], "m": 1, "bc": "dirichlet", "K": 32},
        "params": {"lambdas": [2.5]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(path, tmp_path / "a", seed=0) == 0
    assert run(path, tmp_path / "b", seed=0) == 0
    same_report = (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
    same_csv = (tmp_path / "a" / "spectrum.csv").read_bytes() == (tmp_path / "b" / "spectrum.csv").read_bytes()
    _report(11, same_report and same_csv, "repeated single-threaded runs are byte-identical")

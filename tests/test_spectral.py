import dataclasses

import numpy as np
import pytest
import scipy.linalg

from veldt import (
    assemble_hessian,
    build_space,
    decompose,
    hessian_split,
    split_continuity_audit,
    index_jump,
    load_problem,
    model_problem,
    morse_index_by_formula,
    pencil_eigs,
)
import veldt.spectral
from veldt.errors import (
    DegenerateKernelError,
    EigenvalueCollisionError,
    HypothesisViolationError,
    IndexJumpMismatchError,
)
from veldt.functional import VariationalProblem
from veldt.galerkin import _split_gap, clamped_mode_parameters
from veldt.spectral import SPLIT_DEFECT_TOL, _condition_number

from test_bifurcation import _shifted_p2, _two_p2


def _hessians(problem):
    u0 = problem.u0.coeffs
    F = problem.energy.hessian_dual(u0)
    G = problem.constraint.hessian_dual(u0)
    return F, G


@pytest.fixture(scope="module")
def p1_pencil(p1, disc64):
    problem = VariationalProblem(model=p1, disc=disc64)
    F, G = _hessians(problem)
    return pencil_eigs(F, G, disc64.gram), F, G, disc64


# ---------------------------------------------------------------------------
# decompose


def test_decompose_counts_between_eigenvalues(p1_pencil):
    pencil, F, G, disc = p1_pencil
    dec = decompose(F - 2.5 * G, disc.gram)
    assert (dec.morse_index, dec.nullity) == (1, 0)


def test_decompose_counts_at_eigenvalue(p1_pencil):
    pencil, F, G, disc = p1_pencil
    dec = decompose(F - 4.0 * G, disc.gram)
    assert (dec.morse_index, dec.nullity) == (1, 1)


def test_decompose_all_positive_at_zero(p1_pencil):
    pencil, F, G, disc = p1_pencil
    dec = decompose(F, disc.gram)
    assert (dec.morse_index, dec.nullity) == (0, 0)
    assert np.all(dec.eigenvalues > 0)


def test_decompose_partition_and_orthonormality(p1_pencil, rng):
    pencil, F, G, disc = p1_pencil
    dec = decompose(F - 7.3 * G, disc.gram)
    K = disc.dim
    positives = K - dec.morse_index - dec.nullity
    assert dec.morse_index + dec.nullity + positives == K
    gramized = dec.eigenvectors.T @ disc.gram @ dec.eigenvectors
    assert np.max(np.abs(gramized - np.eye(K))) < 1e-10


def _oracle_form(name, rng):
    """A dense second variation at a random field, with its space."""
    if name == "periodic":
        # the top-order form: k^2 / (1 + k^2) twice at each frequency k, and 0 on the constant
        disc = build_space((0.0, 2.0 * np.pi), 1, "periodic", 9)
        return disc.gram_top, disc
    if name == "sine-K128":
        disc, lag = build_space((0.0, np.pi), 1, "dirichlet", 128), model_problem("P3").lagrangian
    elif name == "clamped-K24":
        disc, lag = build_space((0.0, 1.0), 2, "dirichlet", 24), model_problem("P4").lagrangian
    else:
        problem = _two_p2()
        disc, lag = problem.disc, problem.energy.lagrangian
    u = disc.field(0.3 * rng.standard_normal(disc.dim) / np.sqrt(np.diag(disc.gram)))
    return assemble_hessian(lag, u), disc


@pytest.mark.parametrize("name", ["sine-K128", "clamped-K24", "periodic", "N2"])
def test_decompose_matches_scipy_generalized_eigh(name, rng):
    B, disc = _oracle_form(name, rng)
    dec = decompose(B, disc.gram)
    reference = scipy.linalg.eigh(B, disc.gram, eigvals_only=True)
    radius = np.max(np.abs(reference))
    assert np.max(np.abs(dec.eigenvalues - reference)) <= 1e-12 * radius
    V = dec.eigenvectors
    assert np.max(np.abs(V.T @ disc.gram @ V - np.eye(disc.dim))) <= 1e-12


def test_projector_completeness(p1_pencil, rng):
    """The Gram-orthonormal eigenbasis resolves the identity, and the kernel and index counts partition it."""
    pencil, F, G, disc = p1_pencil
    dec = decompose(F - 4.0 * G, disc.gram)
    V = dec.eigenvectors
    total = V @ V.T @ disc.gram
    for _ in range(100):
        v = rng.standard_normal(disc.dim)
        assert np.max(np.abs(total @ v - v)) < 1e-12
    assert np.max(np.abs(V.T @ disc.gram @ V - np.eye(disc.dim))) < 1e-12
    kernel = np.abs(dec.eigenvalues) <= 2 * dec.gap
    assert np.array_equal(dec.kernel_vectors, V[:, kernel])
    assert dec.nullity == np.count_nonzero(kernel) == 1
    positives = np.count_nonzero(dec.eigenvalues > 2 * dec.gap)
    assert dec.morse_index + dec.nullity + positives == disc.dim


def test_decompose_hint_accepts_separated_kernel(p1_pencil):
    pencil, F, G, disc = p1_pencil
    dec = decompose(F - 4.0 * G, disc.gram, kernel_dim_hint=1)
    assert dec.nullity == 1
    assert dec.kernel_vectors.shape[1] == 1


def test_decompose_hint_rejects_ambiguous_kernel(p1_pencil):
    pencil, F, G, disc = p1_pencil
    with pytest.raises(DegenerateKernelError):
        decompose(F - 4.0 * G, disc.gram, kernel_dim_hint=2)


def test_decompose_gap_reporting(p1_pencil):
    pencil, F, G, disc = p1_pencil
    dec = decompose(F - 4.0 * G, disc.gram)
    # nearest nonzero eigenvalues: k=1 at -3/2... and k=3 at 5/10; realized gap is their min
    assert dec.realized_gap == pytest.approx(0.5, rel=1e-10)
    assert np.all((np.abs(dec.eigenvalues) > 2 * dec.gap) | (np.abs(dec.eigenvalues) <= 2 * dec.gap))


# ---------------------------------------------------------------------------
# split continuity audit


def test_split_audit_p3_uniform_positivity(p3, disc32):
    report = split_continuity_audit(hessian_split(p3.lagrangian, disc32.zero_field()), rng=np.random.default_rng(0))
    assert report.passed
    assert report.c0_estimate >= 1.0 - 1e-9
    assert report.p_deviations[-1] <= 0.25 * report.p_deviations[0]


def test_split_audit_p1_constant_coefficients(p1, disc32):
    report = split_continuity_audit(hessian_split(p1.lagrangian, disc32.zero_field()), rng=np.random.default_rng(0))
    assert report.passed
    assert np.max(report.p_deviations) == 0.0
    assert np.max(report.q_deviations) == 0.0


def test_split_audit_p2_linear_slope(p2, disc32, monkeypatch):
    monkeypatch.setattr(veldt.spectral, "SPLIT_RADIUS", 0.25)
    u0 = disc32.field([1.0] + [0.0] * (disc32.dim - 1))
    report = split_continuity_audit(hessian_split(p2.lagrangian, u0), rng=np.random.default_rng(0))
    assert report.passed
    assert report.q_slope == pytest.approx(1.0, abs=0.2)


def test_split_audit_fails_when_split_misses_assembled_hessian(p2, disc32, monkeypatch):
    report = split_continuity_audit(hessian_split(p2.lagrangian, disc32.zero_field()), rng=np.random.default_rng(0))
    assert report.passed and report.split_defect < 1e-14

    def unshifted(lag, u):
        # Q without the lower-order identity that P borrows
        split = hessian_split(lag, u)
        return dataclasses.replace(split, Q=split.Q + u.disc.gram_lower)

    monkeypatch.setattr(veldt.spectral, "hessian_split", unshifted)
    report = split_continuity_audit(unshifted(p2.lagrangian, disc32.zero_field()), rng=np.random.default_rng(0))
    assert not report.passed
    assert report.split_defect > 1e-6


def test_split_defect_is_relative_to_the_split_of_a_tiny_hessian():
    # B is at most about 1e-237 while P and Q carry the lower-order identity, about 1.57;
    # P + Q matches B to rounding at that scale, so the split is exact
    model = load_problem(
        {"n": 1, "m": 1, "N": 1, "integrand": {"terms": [{"coef": 1e-239, "factors": [{"alpha": [1], "power": 2}]}]}}
    )
    disc = build_space((0.0, np.pi), 1, "dirichlet", 8)
    split = hessian_split(model.lagrangian, disc.zero_field())
    B = assemble_hessian(model.lagrangian, split.u)
    assert 0.0 < np.max(np.abs(B)) < 1e-236
    assert _split_gap(B, split.P, split.Q) <= SPLIT_DEFECT_TOL
    report = split_continuity_audit(split, rng=np.random.default_rng(0))
    assert report.passed and report.split_defect <= SPLIT_DEFECT_TOL


# ---------------------------------------------------------------------------
# the pencil


def test_pencil_p1_is_squared_integers(p1_pencil):
    pencil, _, _, _ = p1_pencil
    for k in range(1, 6):
        assert abs(pencil.eigenvalues[k - 1] - k**2) / k**2 < 1e-3
        assert pencil.multiplicities[k - 1] == 1


def test_pencil_p4_clamped_fundamental(p4, beam8):
    problem = VariationalProblem(model=p4, disc=beam8)
    F, G = _hessians(problem)
    pencil = pencil_eigs(F, G, beam8.gram)
    mu1 = clamped_mode_parameters(1)[0]
    assert pencil.eigenvalues[0] == pytest.approx(mu1**4, rel=5e-3)


def test_pencil_p4_clamped_spectrum_is_mu_to_the_fourth(p4):
    # the clamped modes are the eigenfunctions, so every pencil eigenvalue is exact up to rounding
    disc = build_space((0.0, 1.0), 2, "dirichlet", 24)
    F, G = _hessians(VariationalProblem(model=p4, disc=disc))
    pencil = pencil_eigs(F, G, disc.gram)
    mu = clamped_mode_parameters(24)
    assert pencil.multiplicities.tolist() == [1] * 24
    assert np.max(np.abs(pencil.eigenvalues - mu**4) / mu**4) <= 1e-12


def _per_group_orthonormalize(vectors, L, W, bounds):
    # one QR per group, in the order of ``bounds``
    q = np.hstack([np.linalg.qr((L.T @ vectors)[:, lo:hi])[0] for lo, hi in bounds])
    return veldt.spectral._sign_normalize(W.T @ q)


@pytest.mark.parametrize("case", ["p3_k32", "two_p2"])
def test_stacked_qr_equals_a_qr_per_group_bit_for_bit(case, p3, disc32, monkeypatch):
    problem = VariationalProblem(model=p3, disc=disc32) if case == "p3_k32" else _two_p2()
    F, G = _hessians(problem)
    pencil = pencil_eigs(F, G, problem.disc.gram)
    # every eigenspace of P3 has dimension 1, every one of the coupled pair dimension 2
    assert set(pencil.multiplicities.tolist()) == ({1} if case == "p3_k32" else {2})
    monkeypatch.setattr(veldt.spectral, "_gram_orthonormalize", _per_group_orthonormalize)
    reference = pencil_eigs(F, G, problem.disc.gram)
    assert len(pencil.eigenspaces) == len(reference.eigenspaces)
    assert all(np.array_equal(got, want) for got, want in zip(pencil.eigenspaces, reference.eigenspaces))
    assert np.array_equal(pencil.kernel, reference.kernel)


def test_gram_is_factored_once_per_space(p3, monkeypatch):
    factored = []
    cholesky = np.linalg.cholesky

    def counting(a):
        factored.append(a)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    disc = build_space((0.0, np.pi), 1, "dirichlet", 32)
    problem = VariationalProblem(model=p3, disc=disc)
    F, G = _hessians(problem)
    decompose(F - 2.5 * G, disc.gram)
    pencil = pencil_eigs(F, G, disc.gram)
    decompose(pencil.b_lambda(4.5), pencil.gram)
    assert split_continuity_audit(hessian_split(p3.lagrangian, problem.u0), rng=np.random.default_rng(0)).passed
    assert sum(1 for a in factored if a.shape == disc.gram.shape and np.array_equal(a, disc.gram)) == 1


def test_pencil_identity_collapses_to_single_group(disc16, p1):
    problem = VariationalProblem(model=p1, disc=disc16)
    F, _ = _hessians(problem)
    pencil = pencil_eigs(F, F, disc16.gram)
    assert pencil.eigenvalues.tolist() == pytest.approx([1.0])
    assert pencil.multiplicities.tolist() == [disc16.dim]
    assert pencil.kernel.shape[1] == 0


def test_pencil_rejects_singular_base_form(p1_pencil):
    pencil, F, G, disc = p1_pencil
    with pytest.raises(HypothesisViolationError):
        pencil_eigs(F - 1.0 * G, G, disc.gram)


@pytest.fixture(scope="module")
def p1_forms8(p1):
    disc = build_space((0.0, np.pi), 1, "dirichlet", 8)
    return (*_hessians(VariationalProblem(model=p1, disc=disc)), disc)


def test_pencil_rejects_subnormal_definite_base_form(p1_forms8):
    # the Cholesky congruence of an F'' of size 1e-308 and below overflows
    F, G, disc = p1_forms8
    with pytest.raises(HypothesisViolationError, match="subnormal"):
        pencil_eigs(F * 1e-310, G, disc.gram)


def test_pencil_rejects_subnormal_indefinite_base_form(p1_forms8):
    # F'' - 5 G'' is indefinite, so the general eigensolve of F''^{-1} G'' runs, and that overflows
    F, G, disc = p1_forms8
    assert min(pencil_eigs(F - 5.0 * G, G, disc.gram).base_inertia) > 0
    with pytest.raises(HypothesisViolationError, match="subnormal"):
        pencil_eigs((F - 5.0 * G) * 1e-309, G, disc.gram)


@pytest.mark.parametrize("scale", [1e-7, 1e-10, 1e-16])
def test_pencil_names_the_grouping_floor_of_a_tiny_base_form(p1_forms8, scale):
    # every eigenvalue of F'' x scale is below 1e-5, so the absolute floor GROUP_RTOL
    # merges eigenvalues that are far apart relative to their size
    F, G, disc = p1_forms8
    with pytest.raises(HypothesisViolationError, match=r"absolute grouping floor .* = 1\.0e-06") as info:
        pencil_eigs(F * scale, G, disc.gram)
    assert f"in [{scale:.3e}, " in str(info.value)


def _random_symmetric(rng):
    """A symmetric matrix of 1 to 40 rows with a condition number log-uniform in [1, 1e14]."""
    n = int(rng.integers(1, 41))
    cond = 10.0 ** rng.uniform(0.0, 14.0)
    mags = np.exp(rng.uniform(0.0, np.log(cond), n))
    mags[rng.integers(n)] = 1.0
    mags[rng.integers(n)] = cond
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0) if rng.random() < 0.5 else np.ones(n)
    kind = rng.integers(3)
    if kind == 0:
        # diagonally dominant: each row's off-diagonal sum below a share of its diagonal
        E = rng.standard_normal((n, n))
        E = 0.5 * (E + E.T)
        np.fill_diagonal(E, 0.0)
        E *= rng.uniform(0.0, 0.9) * np.min(mags) / max(np.max(np.sum(np.abs(E), axis=1)), 1.0)
        return np.diag(signs * mags) + E
    if kind == 1:
        # dense Q D Q^T
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        S = (Q * (signs * mags)) @ Q.T
        return 0.5 * (S + S.T)
    # diagonal with one large off-diagonal pair, often indefinite
    S = np.diag(signs * mags)
    i, j = rng.integers(n, size=2)
    S[i, j] = S[j, i] = S[i, j] + rng.standard_normal() * mags[i]
    return S


def test_condition_number_decides_as_the_eigenvalue_ratio():
    rng = np.random.default_rng(20)
    decided = 0
    for _ in range(3000):
        S = _random_symmetric(rng)
        mags = np.abs(np.linalg.eigvalsh(S))
        ratio = mags.max() / mags.min() if mags.min() > 0 else np.inf
        limit = ratio * 10.0 ** rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(0.0, 14.0)
        if abs(ratio / limit - 1.0) < 1e-6:
            continue
        cond = _condition_number(S, limit)
        assert (cond > limit) == (ratio > limit), (S.shape, ratio, limit, cond)
        assert cond >= ratio * (1.0 - 1e-9)
        decided += cond != ratio
    # the discs, not the eigensolve, decided a good share of the checks
    assert decided > 300


def test_condition_number_of_a_diagonal_matrix_needs_no_eigensolve(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert _condition_number(np.diag([-4.0, 1.0, 2.0]), 1e12) == 4.0


def test_pencil_convergence_under_refinement(p1):
    lams = {}
    for K in (64, 128):
        disc = build_space((0.0, np.pi), 1, "dirichlet", K)
        problem = VariationalProblem(model=p1, disc=disc)
        F, G = _hessians(problem)
        lams[K] = pencil_eigs(F, G, disc.gram).eigenvalues[:5]
    assert np.max(np.abs(lams[64] - lams[128]) / lams[128]) < 1e-4


def test_pencil_eigenspace_residuals(p1_pencil):
    pencil, _, _, _ = p1_pencil
    assert np.max(pencil.residuals) < 1e-6


def _orthonormality_case(name):
    if name == "periodic":
        # cos and sin at each frequency k give lambda = 1 + 1/k^2 twice; the constant spans the kernel
        disc = build_space((0.0, 2.0 * np.pi), 1, "periodic", 9)
        return disc.gram, disc.gram_top, disc
    if name == "P1-K128":
        disc = build_space((0.0, np.pi), 1, "dirichlet", 128)
        return (*_hessians(VariationalProblem(model=model_problem("P1"), disc=disc)), disc)
    disc = build_space((0.0, np.pi), 1, "dirichlet", 32)
    return (*_hessians(_shifted_p2(disc)), disc)


@pytest.mark.parametrize("name", ["periodic", "P1-K128", "shifted-P2"])
def test_pencil_eigenspaces_and_kernel_are_gram_orthonormal(name):
    F, G, disc = _orthonormality_case(name)
    pencil = pencil_eigs(F, G, disc.gram)
    if name == "periodic":
        assert pencil.multiplicities.tolist() == [2, 2, 2, 2]
        assert pencil.eigenvalues.tolist() == pytest.approx(1.0 + 1.0 / np.arange(4, 0, -1) ** 2, rel=1e-12)
        assert pencil.kernel.shape[1] == 1
    V = np.hstack([pencil.kernel, *pencil.eigenspaces])
    assert V.shape == (disc.dim, pencil.kernel.shape[1] + int(np.sum(pencil.multiplicities)))
    assert np.max(np.abs(V.T @ disc.gram @ V - np.eye(V.shape[1]))) <= 1e-12


def _residuals_per_vector(pencil):
    # one eigenvector at a time, dual norms through LU solves with the Gram matrix
    F, G, gram = pencil.F_hess, pencil.G_hess, pencil.gram
    out = []
    for rep, basis in zip(pencil.eigenvalues, pencil.eigenspaces):
        for v in basis.T:
            r = F @ v - rep * (G @ v)
            r_norm = np.sqrt(max(r @ np.linalg.solve(gram, r), 0.0))
            scale = np.sqrt(max((F @ v) @ np.linalg.solve(gram, F @ v), 0.0)) + abs(rep) * np.sqrt(
                max((G @ v) @ np.linalg.solve(gram, G @ v), 0.0)
            )
            out.append(r_norm / max(scale, 1e-300))
    return np.asarray(out)


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
@pytest.mark.parametrize("K", [16, 64, 128])
def test_pencil_block_residuals_match_per_vector_loop(name, K):
    m = 2 if name == "P4" else 1
    disc = build_space((0.0, 1.0) if m == 2 else (0.0, np.pi), m, "dirichlet", K)
    F, G = _hessians(VariationalProblem(model=model_problem(name), disc=disc))
    pencil = pencil_eigs(F, G, disc.gram)
    reference = _residuals_per_vector(pencil)
    assert pencil.residuals.shape == reference.shape == (disc.dim,)
    assert np.allclose(pencil.residuals, reference, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("name,lam", [("P1", 2.5), ("P1", 4.0), ("P2", 2.5)])
def test_morse_data_stable_under_refinement(name, lam):
    counts = []
    for K in (32, 64):
        disc = build_space((0.0, np.pi), 1, "dirichlet", K)
        problem = VariationalProblem(model=model_problem(name), disc=disc)
        F, G = _hessians(problem)
        dec = decompose(F - lam * G, disc.gram)
        counts.append((dec.morse_index, dec.nullity))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# index formulas


def test_morse_formula_values(p1_pencil):
    pencil, _, _, _ = p1_pencil
    assert morse_index_by_formula(pencil, 2.5) == (1, 0)
    assert morse_index_by_formula(pencil, 0.5) == (0, 0)
    assert morse_index_by_formula(pencil, 10.0) == (3, 0)


def test_morse_formula_collision(p1_pencil):
    # at an eigenvalue its group's multiplicity is the nullity and adds nothing to the index
    pencil, F, G, disc = p1_pencil
    for lam in pencil.eigenvalues[:3]:
        dec = decompose(F - lam * G, disc.gram)
        assert morse_index_by_formula(pencil, float(lam)) == (dec.morse_index, dec.nullity) == (
            int(np.count_nonzero(pencil.eigenvalues < lam)),
            1,
        )
    # the coupled two-component P2 has double eigenvalues k^2
    problem = _two_p2()
    F2, G2 = _hessians(problem)
    double = pencil_eigs(F2, G2, problem.disc.gram)
    assert double.multiplicities[:3].tolist() == [2, 2, 2]
    for lam in (*double.eigenvalues[:3], 2.5):
        dec = decompose(F2 - lam * G2, problem.disc.gram)
        assert morse_index_by_formula(double, float(lam)) == (dec.morse_index, dec.nullity)
    assert morse_index_by_formula(double, float(double.eigenvalues[1])) == (2, 2)


def test_morse_formula_follows_decompose_through_the_kernel_threshold(p1_pencil):
    # from 1e-15 to 1e-1 relative beside an eigenvalue the nullity turns on
    # and off with decompose's KERNEL_RTOL rule, not with PencilSpectrum.matches
    pencil, F, G, disc = p1_pencil
    for ev in pencil.eigenvalues[:3]:
        for d in np.concatenate([-np.logspace(-15, -1, 57), np.logspace(-15, -1, 57)]):
            lam = float(ev * (1.0 + d))
            dec = decompose(F - lam * G, disc.gram)
            assert morse_index_by_formula(pencil, lam) == (dec.morse_index, dec.nullity)
    assert pencil.matches(4.00003) and morse_index_by_formula(pencil, 4.00003) == (2, 0)


def test_formula_matches_direct_on_grid(p1_pencil):
    pencil, F, G, disc = p1_pencil
    for lam in np.linspace(0.3, 26.0, 20):
        if np.min(np.abs(pencil.eigenvalues - lam)) < 0.1:
            continue
        direct = decompose(F - lam * G, disc.gram)
        assert (direct.morse_index, direct.nullity) == morse_index_by_formula(pencil, float(lam))


def test_formula_matches_direct_beam(p4, beam8):
    problem = VariationalProblem(model=p4, disc=beam8)
    F, G = _hessians(problem)
    pencil = pencil_eigs(F, G, beam8.gram)
    for lam in np.linspace(100.0, 4000.0, 20):
        if np.min(np.abs(pencil.eigenvalues - lam)) < 10.0:
            continue
        direct = decompose(F - lam * G, beam8.gram)
        assert (direct.morse_index, direct.nullity) == morse_index_by_formula(pencil, float(lam))


def _restricted_inertia(F, basis):
    """(positive, negative) eigenvalue counts of F restricted to one basis, one eigensolve per space."""
    vals = np.linalg.eigvalsh(basis.T @ F @ basis) if basis.shape[1] else np.zeros(0)
    tol = 1e-12 * max(np.max(np.abs(vals), initial=0.0), 1e-300)
    return [int(np.count_nonzero(vals > tol)), int(np.count_nonzero(vals < -tol))]


@pytest.mark.parametrize("case", ["P3", "two_p2", "indefinite"])
def test_inertia_table_matches_each_restricted_form(case, p3, disc32):
    if case == "P3":
        disc = build_space((0.0, np.pi), 1, "dirichlet", 128)
        problem = VariationalProblem(model=p3, disc=disc)
    else:
        problem = _two_p2() if case == "two_p2" else _shifted_p2(disc32)
    pencil = pencil_eigs(*_hessians(problem), problem.disc.gram)
    spaces = [*pencil.eigenspaces, pencil.kernel]
    assert pencil.inertia.tolist() == [_restricted_inertia(pencil.F_hess, basis) for basis in spaces]
    assert pencil.inertia.sum(axis=0).tolist() == list(pencil.base_inertia)


def test_index_jump_first_and_second_crossing(p1_pencil):
    pencil, _, _, _ = p1_pencil
    jump1 = index_jump(pencil, 1.0, 0.1)
    assert (jump1.mu_minus, jump1.mu_plus, jump1.nullity) == (0, 1, 1)
    jump4 = index_jump(pencil, 4.0, 0.1)
    assert (jump4.mu_minus, jump4.mu_plus, jump4.nullity) == (1, 2, 1)


def test_index_jump_identity_pencil(disc16, p1):
    problem = VariationalProblem(model=p1, disc=disc16)
    F, _ = _hessians(problem)
    pencil = pencil_eigs(F, F, disc16.gram)
    jump = index_jump(pencil, 1.0, 0.1)
    assert (jump.mu_minus, jump.mu_plus, jump.nullity) == (0, disc16.dim, disc16.dim)


def test_index_jump_rejects_non_eigenvalue(p1_pencil):
    pencil, _, _, _ = p1_pencil
    with pytest.raises(EigenvalueCollisionError):
        index_jump(pencil, 2.5, 0.1)
    with pytest.raises(EigenvalueCollisionError):
        index_jump(pencil, 4.0, 2.0)


# ---------------------------------------------------------------------------
# signed crossings on a synthetic two-by-two pencil


def _synthetic_pencil():
    gram = np.eye(2)
    F = np.diag([1.0, -1.0])
    G = np.diag([0.5, -1.0 / 3.0])
    return pencil_eigs(F, G, gram), F, G, gram


def test_synthetic_pencil_eigenvalues():
    pencil, _, _, _ = _synthetic_pencil()
    assert pencil.eigenvalues.tolist() == pytest.approx([2.0, 3.0])
    assert pencil.summary()["dropped_complex"] == 0


def _dropped_pair_pencil():
    # on the first two coordinates F^-1 G = [[0, 1], [-1, 0]], with eigenvalues +-i
    F = np.diag([1.0, -1.0, 2.0])
    G = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return pencil_eigs(F, G, np.eye(3)), F, G


def test_indefinite_pencil_reports_dropped_complex_pair():
    pencil, _, _ = _dropped_pair_pencil()
    assert pencil.summary()["dropped_complex"] == 2
    assert pencil.eigenvalues.tolist() == pytest.approx([2.0])


def test_morse_formula_refuses_pencil_with_dropped_complex_eigenvalues():
    pencil, F, G = _dropped_pair_pencil()
    # the dropped directions carry one negative direction the crossing count cannot see
    assert [decompose(F - lam * G, np.eye(3)).morse_index for lam in (0.0, 1.0, 3.0)] == [1, 1, 2]
    for lam in (0.0, 1.0, 3.0):
        with pytest.raises(HypothesisViolationError, match="dropped 2 complex eigenvalues"):
            morse_index_by_formula(pencil, lam)


def test_index_jump_is_exact_beside_a_dropped_complex_pair():
    # the complex pair's inertia does not change along real lambda, so the
    # jump at the real eigenvalue is the crossing count alone
    pencil, _, _ = _dropped_pair_pencil()
    jump = index_jump(pencil, 2.0, 0.1)
    n_pos, n_neg = pencil.inertia[pencil.nearest(2.0)[0]]
    assert jump.mu_plus - jump.mu_minus == n_pos - n_neg == 1


def test_invariant_subspace_morse_formula():
    pencil, F, G, gram = _synthetic_pencil()
    # between the crossings: crossed space contributes its positive part,
    # the uncrossed one its negative part
    assert morse_index_by_formula(pencil, 2.5) == (2, 0)
    direct = decompose(F - 2.5 * G, gram).morse_index
    assert direct == 2
    assert morse_index_by_formula(pencil, 1.5) == (1, 0)
    assert decompose(F - 1.5 * G, gram).morse_index == 1


def test_signed_index_jump():
    pencil, _, _, _ = _synthetic_pencil()
    jump = index_jump(pencil, 2.0, 0.1)
    n_pos, n_neg = pencil.inertia[0]
    assert jump.mu_plus - jump.mu_minus == n_pos - n_neg == 1
    jump3 = index_jump(pencil, 3.0, 0.1)
    assert jump3.mu_plus - jump3.mu_minus == -1
    assert pencil.inertia.tolist() == [[1, 0], [0, 1], [0, 0]]  # the two eigenspaces, then the empty kernel


def test_index_jump_mismatch_raises_when_pencil_and_forms_disagree():
    # with G'' negated behind the pencil's back no direct crossing happens at
    # 3.0, while the crossing count still reads the eigenspace found there
    pencil, _, _, _ = _synthetic_pencil()
    tampered = dataclasses.replace(pencil, G_hess=-pencil.G_hess)
    with pytest.raises(IndexJumpMismatchError) as err:
        index_jump(tampered, 3.0, 0.1)
    assert err.value.direct != err.value.formula


@pytest.mark.parametrize("K", [32, 128])
def test_indefinite_pencil_matches_shifted_sine_spectrum(K):
    # F'' = S - 5M is indefinite and G'' = M, so the pencil is k^2 - 5 on the sine modes
    disc = build_space((0.0, np.pi), 1, "dirichlet", K)
    pencil = pencil_eigs(*_hessians(_shifted_p2(disc)), disc.gram)
    exact = np.arange(1, K + 1) ** 2 - 5.0
    assert pencil.base_inertia == (K - 2, 2)
    assert pencil.dropped_complex == 0 and pencil.multiplicities.tolist() == [1] * K
    assert np.max(np.abs(pencil.eigenvalues - exact) / np.abs(exact)) <= 1e-12


def test_morse_formula_matches_decompose_for_indefinite_base_form(disc32):
    F, G = _hessians(_shifted_p2(disc32))
    pencil = pencil_eigs(F, G, disc32.gram)
    assert pencil.eigenvalues[:4].tolist() == pytest.approx([-4.0, -1.0, 4.0, 11.0], abs=1e-9)
    for lam in [*np.linspace(-6.0, 30.0, 32), -0.5, 0.0, 0.5, -4.0, 4.0]:
        dec = decompose(F - lam * G, disc32.gram)
        assert morse_index_by_formula(pencil, lam) == (dec.morse_index, dec.nullity)
    assert morse_index_by_formula(pencil, 0.0) == (2, 0)  # k = 1, 2 have k^2 < 5


# ---------------------------------------------------------------------------
# nondegenerate transfer to the reduced problem


def test_nondegenerate_origin_gives_nonsingular_reduced_hessian(p2, disc32):
    from veldt import make_reduction_setup, reduced_hessian_at_origin

    problem = VariationalProblem(model=p2, disc=disc32)
    setup = make_reduction_setup(problem, 1.0)
    F, G = _hessians(problem)
    for lam in (0.95, 1.05):
        dec = decompose(F - lam * G, disc32.gram)
        assert dec.nullity == 0
        H = reduced_hessian_at_origin(setup, lam)
        assert np.min(np.abs(np.linalg.eigvalsh(H))) > 1e-8

import numpy as np
import pytest

from veldt import (
    build_space,
    decompose,
    split_continuity_audit,
    index_jump,
    model_problem,
    morse_index_by_formula,
    pencil_eigs,
)
from veldt.errors import (
    DegenerateKernelError,
    EigenvalueCollisionError,
    HypothesisViolationError,
    IndexJumpMismatchError,
)
from veldt.functional import VariationalProblem
from veldt.galerkin import clamped_mode_parameters


def _hessians(problem):
    u0 = problem.u0.coeffs
    F = problem.energy.hessian_dual(u0)
    G = problem.constraints[0].hessian_dual(u0)
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


def test_projector_completeness(p1_pencil, rng):
    pencil, F, G, disc = p1_pencil
    dec = decompose(F - 4.0 * G, disc.gram)
    total = dec.projector_positive + dec.projector_zero + dec.projector_negative
    for _ in range(100):
        v = rng.standard_normal(disc.dim)
        assert np.max(np.abs(total @ v - v)) < 1e-12


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
    report = split_continuity_audit(p3.lagrangian, disc32.zero_field(), disc32, radius=0.5)
    assert report.passed
    assert report.c0_estimate >= 1.0 - 1e-9
    assert report.p_deviations[-1] <= 0.25 * report.p_deviations[0]


def test_split_audit_p1_constant_coefficients(p1, disc32):
    report = split_continuity_audit(p1.lagrangian, disc32.zero_field(), disc32)
    assert report.passed
    assert np.max(report.p_deviations) == 0.0
    assert np.max(report.q_deviations) == 0.0


def test_split_audit_p2_linear_slope(p2, disc32):
    u0 = disc32.field([1.0] + [0.0] * (disc32.dim - 1))
    report = split_continuity_audit(p2.lagrangian, u0, disc32, radius=0.25)
    assert report.passed
    assert report.q_slope == pytest.approx(1.0, abs=0.2)


def test_split_audit_fails_when_split_misses_assembled_hessian(p2, disc32, monkeypatch):
    import dataclasses

    import veldt.spectral

    hessian_split = veldt.spectral.hessian_split
    report = split_continuity_audit(p2.lagrangian, disc32.zero_field(), disc32)
    assert report.passed and report.split_defect < 1e-14

    def unshifted(lag, u):
        # Q without the lower-order identity that P borrows
        split = hessian_split(lag, u)
        return dataclasses.replace(split, Q=split.Q + u.disc.gram_lower)

    monkeypatch.setattr(veldt.spectral, "hessian_split", unshifted)
    report = split_continuity_audit(p2.lagrangian, disc32.zero_field(), disc32)
    assert not report.passed
    assert report.split_defect > 1e-6


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
    assert morse_index_by_formula(pencil, 2.5) == 1
    assert morse_index_by_formula(pencil, 0.5) == 0
    assert morse_index_by_formula(pencil, 10.0) == 3


def test_morse_formula_collision(p1_pencil):
    pencil, _, _, _ = p1_pencil
    with pytest.raises(EigenvalueCollisionError):
        morse_index_by_formula(pencil, float(pencil.eigenvalues[1]))


def test_formula_matches_direct_on_grid(p1_pencil):
    pencil, F, G, disc = p1_pencil
    for lam in np.linspace(0.3, 26.0, 20):
        if np.min(np.abs(pencil.eigenvalues - lam)) < 0.1:
            continue
        direct = decompose(F - lam * G, disc.gram).morse_index
        assert direct == morse_index_by_formula(pencil, float(lam))


def test_formula_matches_direct_beam(p4, beam8):
    problem = VariationalProblem(model=p4, disc=beam8)
    F, G = _hessians(problem)
    pencil = pencil_eigs(F, G, beam8.gram)
    for lam in np.linspace(100.0, 4000.0, 20):
        if np.min(np.abs(pencil.eigenvalues - lam)) < 10.0:
            continue
        direct = decompose(F - lam * G, beam8.gram).morse_index
        assert direct == morse_index_by_formula(pencil, float(lam))


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


def test_indefinite_pencil_reports_dropped_complex_pair():
    # on the first two coordinates F^-1 G = [[0, 1], [-1, 0]], with eigenvalues +-i
    F = np.diag([1.0, -1.0, 2.0])
    G = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    pencil = pencil_eigs(F, G, np.eye(3))
    assert pencil.summary()["dropped_complex"] == 2
    assert pencil.eigenvalues.tolist() == pytest.approx([2.0])


def test_invariant_subspace_morse_formula():
    pencil, F, G, gram = _synthetic_pencil()
    # between the crossings: crossed space contributes its positive part,
    # the uncrossed one its negative part
    assert morse_index_by_formula(pencil, 2.5, mode="invariant_subspaces") == 2
    direct = decompose(F - 2.5 * G, gram).morse_index
    assert direct == 2
    assert morse_index_by_formula(pencil, 1.5, mode="invariant_subspaces") == 1
    assert decompose(F - 1.5 * G, gram).morse_index == 1


def test_signed_index_jump():
    pencil, _, _, _ = _synthetic_pencil()
    jump = index_jump(pencil, 2.0, 0.1, mode="invariant_subspaces")
    assert jump.mu_plus - jump.mu_minus == jump.nullity_positive - jump.nullity_negative == 1
    jump3 = index_jump(pencil, 3.0, 0.1, mode="invariant_subspaces")
    assert jump3.mu_plus - jump3.mu_minus == -1
    assert (jump3.nullity_positive, jump3.nullity_negative) == (0, 1)


def test_positive_mode_mismatch_raises_on_signed_problem():
    pencil, _, _, _ = _synthetic_pencil()
    with pytest.raises(IndexJumpMismatchError) as err:
        index_jump(pencil, 3.0, 0.1, mode="positive_definite")
    assert err.value.direct != err.value.formula


# ---------------------------------------------------------------------------
# nondegenerate transfer to the reduced problem


def test_nondegenerate_origin_gives_nonsingular_reduced_hessian(p2, disc32):
    from veldt import make_reduction_setup, reduced_hessian_at_origin

    problem = VariationalProblem(model=p2, disc=disc32)
    setup = make_reduction_setup(problem, 1.0, kernel_dim=1)
    F, G = _hessians(problem)
    for lam in (0.95, 1.05):
        dec = decompose(F - lam * G, disc32.gram)
        assert dec.nullity == 0
        H = reduced_hessian_at_origin(setup, [lam])
        assert np.min(np.abs(np.linalg.eigvalsh(H))) > 1e-8

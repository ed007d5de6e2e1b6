"""Certification tests: constants, feasibility conditions, rate, Lyapunov contraction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from jprox.certify import (
    TAU_SAFETY,
    PhiWeights,
    ProblemConstants,
    _certified_intervals,
    certify,
    check_xi_condition,
    closed_form_mu_s,
    compute_sigma,
    estimate_constants,
    fallback_tau,
    fit_linear_rate,
    max_feasible_s,
    smallest_certified_tau,
    uniform_xi,
)
from jprox.errors import (
    CertificationError,
    DimensionMismatch,
    GammaOutOfRange,
    InsufficientData,
    InvalidParameter,
    JproxError,
    NotPositiveDefinite,
    NotPSD,
    NotStronglyConvex,
)
from jprox.experiments import (
    GAMMA_GRID,
    generate_lcqp,
    generate_resource_alloc,
)
from jprox.problem import (
    BlockProblem,
    LogisticQuadBlock,
    PrimalDualPoint,
    QuadraticBlock,
    sigmoid,
)
from jprox.solvers import (
    ProxLinear,
    SolverParams,
    StandardProximal,
    materialize_policy,
    policy_eigenvalues,
    run,
    step,
)


def single_block_problem(H_scale=2.0, n=3):
    """One block with H = H_scale * I and identity coupling."""
    return BlockProblem(
        (QuadraticBlock(H_scale * np.eye(n), np.zeros(n)),),
        (np.eye(n),),
        np.zeros(n),
    )


# -- estimate_constants -----------------------------------------------------------

def test_constants_worked_single_block():
    consts = estimate_constants(single_block_problem())
    assert consts.alpha == pytest.approx(1.0, abs=1e-10)
    assert consts.L_list[0] == pytest.approx(2.0, abs=1e-10)
    assert consts.L == pytest.approx(4.0, abs=1e-10)
    assert consts.D == pytest.approx(1.0, abs=1e-10)
    assert consts.c_A == pytest.approx(1.0, abs=1e-10)


def test_constants_logistic_block_against_scalar_calculus():
    p = BlockProblem(
        (LogisticQuadBlock(1.0, 2.0, 0.0, 0.0),), (np.ones((1, 1)),), np.zeros(1)
    )
    consts = estimate_constants(p)
    # The curvature a + b^2 s(1-s) is maximized over a fine grid of points.
    a, b = 1.0, 2.0
    grid = np.linspace(-20.0, 20.0, 400001)
    s = np.array([sigmoid(b * t) for t in grid])
    curvature_max = float(np.max(a + b * b * s * (1.0 - s)))
    assert consts.L_list[0] == pytest.approx(curvature_max, rel=1e-8)
    assert consts.L_list[0] == pytest.approx(2.0, abs=1e-12)
    assert consts.alpha == pytest.approx(0.5, abs=1e-12)


def test_constants_stacked_identities():
    p = BlockProblem(
        (QuadraticBlock(np.eye(2), np.zeros(2)), QuadraticBlock(np.eye(2), np.zeros(2))),
        (np.eye(2), np.eye(2)),
        np.zeros(2),
    )
    assert estimate_constants(p).c_A == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_constants_reject_modulus_at_floor():
    p = BlockProblem(
        (LogisticQuadBlock(0.0, 1.0, 0.0, 0.0),), (np.ones((1, 1)),), np.zeros(1)
    )
    with pytest.raises(NotStronglyConvex) as info:
        estimate_constants(p)
    assert info.value.alpha == 0.0


def test_constants_consistency_with_random_directions():
    inst = generate_lcqp(3, 4, 3, seed=6)  # stack has 9 rows >= 4 columns
    consts = estimate_constants(inst.problem)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        lam = rng.standard_normal(4)
        lam /= np.linalg.norm(lam)
        total = sum(np.linalg.norm(Ai.T @ lam) ** 2 for Ai in inst.problem.A)
        assert total >= consts.c_A ** 2 * (1.0 - 1e-9)


def _coupling_matrix(kind: str) -> np.ndarray:
    rng = np.random.default_rng(len(kind))
    if kind == "tall":
        return rng.standard_normal((40, 9))
    if kind == "wide":
        return rng.standard_normal((9, 40))
    if kind == "rank-1":
        return np.outer(rng.standard_normal(12), rng.standard_normal(7))
    return np.zeros((5, 8))


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("kind", ["tall", "wide", "rank-1", "zero"])
def test_cached_gram_spectrum_matches_svd(kind, scale):
    # A wide block (m < n_i) has a singular A'A; an unscaled A'A would
    # overflow at entries near 1e150.
    A = scale * _coupling_matrix(kind)
    m, n = A.shape
    p = BlockProblem((QuadraticBlock(np.eye(n), np.zeros(n)),), (A,), np.zeros(m))
    svals = np.linalg.svd(A, compute_uv=False)
    assert estimate_constants(p).A_norms[0] == pytest.approx(float(svals[0]), rel=1e-13, abs=0.0)
    (spectrum,) = p.gram_spectra()
    assert spectrum is p.gram_spectra()[0]
    assert not spectrum.eigenvalues.flags.writeable
    d = spectrum.eigenvalues
    assert d.shape == (n,) and np.all(np.isfinite(d)) and np.all(np.diff(d) >= 0.0)
    expected = np.sort(np.concatenate((np.zeros(n - svals.size), svals * svals)))
    assert np.max(np.abs(d - expected)) <= 1e-13 * float(svals[0]) ** 2


# -- max_feasible_s -----------------------------------------------------------------

def unit_consts(alpha=1.0, L=1.0, D=1.0, norms=(1.0,)):
    return ProblemConstants(alpha=alpha, L_list=(math.sqrt(L),), L=L, D=D,
                            c_A=1.0, A_norms=norms)


def test_max_feasible_s_worked_example():
    s_bar = max_feasible_s(unit_consts(), rho=1.0, N=1)
    assert s_bar == pytest.approx(0.25, abs=1e-12)


def test_max_feasible_s_small_rho_limit():
    s_bar = max_feasible_s(unit_consts(), rho=1e-9, N=1)
    assert s_bar == pytest.approx(0.5, rel=1e-6)  # alpha / (2 L)


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), 0.0])
def test_max_feasible_s_rejects_a_rho_that_is_not_finite_and_positive(rho):
    with pytest.raises(InvalidParameter, match="rho"):
        max_feasible_s(unit_consts(), rho=rho, N=1)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), 0.0])
def test_check_xi_condition_rejects_an_s_that_is_not_finite_and_positive(s):
    p = generate_lcqp(2, 4, 3, seed=0).problem
    with pytest.raises(InvalidParameter, match="s must"):
        check_xi_condition(p, 1.0, 1.0, s, StandardProximal(1.0))


@pytest.mark.parametrize("name", ["gamma", "rho", "s"])
def test_compute_sigma_rejects_a_nan_parameter(name):
    args = {"gamma": 1.0, "rho": 1.0, "s": 0.1, name: float("nan")}
    with pytest.raises(InvalidParameter, match=name):
        compute_sigma(args["gamma"], args["rho"], args["s"], c_A=1.0, mu_s=0.5)


@pytest.mark.parametrize("seed", range(5))
def test_half_s_keeps_weight_gap_positive(seed):
    inst = generate_lcqp(3, 5, 4, seed=seed)
    consts = estimate_constants(inst.problem)
    for rho in (0.03, 1.0, 10.0):
        s = 0.5 * max_feasible_s(consts, rho, inst.problem.N)
        assert consts.alpha - 2.0 * consts.L * s > 0.0


# -- check_xi_condition ----------------------------------------------------------------

def scalar_pair_problem():
    """Two scalar blocks with unit couplings (||A_i|| = 1)."""
    return BlockProblem(
        (QuadraticBlock(np.eye(1), np.zeros(1)), QuadraticBlock(np.eye(1), np.zeros(1))),
        (np.ones((1, 1)), np.ones((1, 1))),
        np.zeros(1),
    )


#: The coupling term of each weight policy, ``P_i = tau_i*I - coupling*rho*A_i'A_i``.
COUPLINGS = {"standard": 0, "proxlinear": 1}


def dense_policy(policy, rho, problem):
    """The matrices ``P_i`` of ``policy`` (``None``, standard or prox-linear), built by the
    oracle from ``problem``'s raw ``A_i``."""
    if policy is None:
        return oracle.proximal_matrices(problem.A, None, 0, rho)
    return oracle.proximal_matrices(problem.A, policy.tau, COUPLINGS[policy.kind], rho)


def dense_margins(problem, rho, gamma, s, policy):
    """The oracle's dense coupling margin of each block: the closed form's reference."""
    return oracle.coupling_margins(problem.A, dense_policy(policy, rho, problem), rho, gamma, s)


def test_xi_condition_scalar_worked_example():
    p = scalar_pair_problem()
    policy = StandardProximal(2.0)
    res = check_xi_condition(p, rho=1.0, gamma=1.0, s=0.001, policy=policy)
    dense = dense_margins(p, 1.0, 1.0, 0.001, policy)
    # 1 + 2 - 8*0.001*(1+2)^2 - 2 = 0.928 up to the strictness slack in xi.
    assert res.passed and all(eig > 0.0 for eig in dense)
    for eig in (*res.min_eigs, *dense):
        assert eig == pytest.approx(0.928, abs=1e-4)


def test_xi_condition_rejects_gamma():
    p = scalar_pair_problem()
    with pytest.raises(GammaOutOfRange):
        check_xi_condition(p, rho=1.0, gamma=2.0, s=0.001, policy=None)


def test_xi_condition_prox_linear_structured_matrix():
    # Rank-one coupling: A = nrm * u v', so A'A = nrm^2 * v v'.
    rng = np.random.default_rng(14)
    u = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    nrm = 1.7
    A = nrm * np.outer(u, v)
    p = BlockProblem(
        (QuadraticBlock(np.eye(3), np.zeros(3)),), (A,), np.zeros(5)
    )
    rho, gamma, s, tau = 1.0, 1.0, 0.01, 4.0
    cxi = rho / uniform_xi(gamma, 1)[0]
    scalar_min = min(tau - 8 * s * tau ** 2 - cxi * nrm ** 2, tau - 8 * s * tau ** 2)
    for eig in (check_xi_condition(p, rho, gamma, s, ProxLinear(tau)).min_eigs[0],
                dense_margins(p, rho, gamma, s, ProxLinear(tau))[0]):
        assert eig == pytest.approx(scalar_min, rel=1e-8)


@pytest.mark.parametrize("count", [1, 5], ids=["too-few", "too-many"])
def test_explicit_matrix_count_other_than_N_raises(count):
    # zip used to cut the checks short: one matrix for three blocks passed.
    # The dense oracle takes explicit matrices; jprox takes one weight per block.
    p = generate_lcqp(3, 6, 4, seed=0).problem
    consts = estimate_constants(p)
    s = 0.5 * max_feasible_s(consts, 1.0, p.N)
    P = [50.0 * np.eye(4)] * count
    with pytest.raises(ValueError, match="3 blocks"):
        oracle.coupling_margins(p.A, P, 1.0, 1.0, s)
    with pytest.raises(ValueError, match="3 blocks"):
        oracle.mu_s(p.A, P, 1.0, s, consts.alpha, consts.L, consts.D)
    policy = StandardProximal([50.0] * count)
    with pytest.raises(DimensionMismatch, match="expected 3 tau values"):
        check_xi_condition(p, 1.0, 1.0, s, policy)
    with pytest.raises(DimensionMismatch, match="expected 3 tau values"):
        certify(p, 1.0, 1.0, policy)


# -- mu_s -----------------------------------------------------------------------------

def dense_mu_s(problem, consts, rho, s, policy):
    """The oracle's dense ``mu_s`` pencil of ``policy`` on ``problem``'s raw arrays."""
    return oracle.mu_s(problem.A, dense_policy(policy, rho, problem), rho, s,
                       consts.alpha, consts.L, consts.D)


def test_mu_s_worked_scalar_example():
    p = BlockProblem(
        (QuadraticBlock(np.eye(2), np.zeros(2)),), (np.eye(2),), np.zeros(2)
    )
    consts = unit_consts()
    for mu in (dense_mu_s(p, consts, 1.0, 0.1, None), closed_form_mu_s(p, consts, 1.0, 0.1, None)):
        assert mu == pytest.approx(1.4 / 2.6, rel=1e-10)


def test_mu_s_small_s_strictly_below_one():
    p = single_block_problem()
    consts = estimate_constants(p)
    assert dense_mu_s(p, consts, 1.0, 1e-12, None) < 1.0
    assert closed_form_mu_s(p, consts, 1.0, 1e-12, None) < 1.0


@pytest.mark.parametrize("seed", range(4))
def test_mu_s_below_one_at_admissible_s(seed):
    inst = generate_lcqp(3, 5, 4, seed=seed)
    consts = estimate_constants(inst.problem)
    policy = StandardProximal(1.0)
    for rho in (0.1, 1.0, 5.0):
        s = 0.5 * max_feasible_s(consts, rho, inst.problem.N)
        assert dense_mu_s(inst.problem, consts, rho, s, policy) < 1.0
        assert closed_form_mu_s(inst.problem, consts, rho, s, policy) < 1.0


@st.composite
def mu_s_cases(draw):
    """A random problem, a non-explicit policy and an admissible ``(rho, s)``."""
    N = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    dims = [draw(st.integers(1, 6)) for _ in range(N)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = [draw(st.sampled_from(["gaussian", "gaussian", "rank-1", "zero"])) for _ in dims]
    A = []
    for n, shape in zip(dims, shapes):
        if shape == "gaussian":
            A.append(rng.standard_normal((m, n)))
        elif shape == "rank-1":
            A.append(np.outer(rng.standard_normal(m), rng.standard_normal(n)))
        else:
            A.append(np.zeros((m, n)))
    blocks = tuple(QuadraticBlock(np.diag(rng.uniform(0.5, 3.0, n)), np.zeros(n)) for n in dims)
    problem = BlockProblem(blocks, tuple(A), np.zeros(m))
    rho = draw(st.floats(0.01, 10.0))
    kind = draw(st.sampled_from(["standard", "proxlinear", "none"]))
    factors = rng.uniform(0.0, 3.0, N)
    if kind == "standard":
        policy = StandardProximal(list(1e-3 + 10.0 * factors))
    elif kind == "proxlinear":
        policy = ProxLinear([rho * float(np.linalg.norm(Ai, 2)) ** 2 * (1.0 + f) + 1e-3
                             for Ai, f in zip(A, factors)])
    else:
        policy = None
    consts = estimate_constants(problem)
    s = 0.5 * max_feasible_s(consts, rho, N)
    return problem, consts, rho, s, policy


@settings(max_examples=200, deadline=None)
@given(mu_s_cases(), st.booleans(), st.floats(0.0, 3.0))
def test_materialized_policy_has_the_policy_eigenvalues(case, scalar_tau, lift):
    # The two forms of a policy: the matrices the engine runs, and the
    # eigenvalues the closed forms read off the Gram spectra.  A prox-linear
    # weight is drawn at its PSD floor (lift = 0) or above it; a zero block's
    # floor 0 is no weight, so it gets 1e-3.
    problem, _, rho, _, policy = case
    if isinstance(policy, ProxLinear):
        floors = [rho * g.norm ** 2 for g in problem.gram_spectra()]
        taus = [(1.0 + lift) * f or 1e-3 for f in floors]
        policy = ProxLinear(max(taus) if scalar_tau else taus)
    elif isinstance(policy, StandardProximal) and scalar_tau:
        policy = StandardProximal(policy.tau[0])
    P_list = materialize_policy(policy, rho, problem)
    spectra = problem.gram_spectra()
    closed_forms = policy_eigenvalues(policy, rho, [g.eigenvalues for g in spectra])
    for P, g, closed in zip(P_list, spectra, closed_forms):
        dense = np.linalg.eigvalsh(P)
        closed = np.sort(closed)
        # At the floor tau_i - rho*d_j cancels: the scale is the largest term.
        largest = max(np.max(np.abs(closed)), rho * g.eigenvalues[-1])
        assert np.max(np.abs(dense - closed)) <= 1e-12 * largest


@settings(max_examples=200, deadline=None)
@given(mu_s_cases())
def test_closed_form_mu_s_matches_dense_pencil(case):
    problem, consts, rho, s, policy = case
    expected = dense_mu_s(problem, consts, rho, s, policy)
    assert closed_form_mu_s(problem, consts, rho, s, policy) == pytest.approx(
        expected, rel=1e-10, abs=0.0)


def test_closed_form_mu_s_raises_like_the_dense_pencil(monkeypatch):
    # No valid policy reaches a non-positive denominator, so the policy
    # eigenvalues are replaced by those of P = -10*I, which the dense solve rejects.
    import importlib

    module = importlib.import_module("jprox.certify")
    p = single_block_problem()
    consts = unit_consts(norms=(1.0,))
    with pytest.raises(np.linalg.LinAlgError):
        oracle.mu_s(p.A, [-10.0 * np.eye(3)], 1.0, 0.1, consts.alpha, consts.L, consts.D)
    monkeypatch.setattr(module, "policy_eigenvalues",
                        lambda policy, rho, ds: [d * 0.0 - 10.0 for d in ds])
    with pytest.raises(NotPositiveDefinite):
        closed_form_mu_s(p, consts, 1.0, 0.1, StandardProximal(1.0))


# -- compute_sigma -----------------------------------------------------------------------

def test_sigma_takes_max_branch():
    res = compute_sigma(gamma=1.0, rho=1.0, s=0.25, c_A=1.0, mu_s=0.9)
    assert res.sigma == pytest.approx(0.9, abs=1e-15)
    assert res.dual_branch == pytest.approx(0.5, abs=1e-15)


def test_sigma_clamps_large_c_A():
    gamma, rho, s = 1.0, 1.0, 0.01
    cap = 1.0 / math.sqrt(2.0 * gamma * rho * s)
    res = compute_sigma(gamma, rho, s, c_A=10.0 * cap, mu_s=0.4)
    assert 0.0 < res.dual_branch < 1e-8
    assert res.c_A_used < cap
    assert res.sigma == pytest.approx(0.4, abs=1e-15)
    assert res.in_range


def test_sigma_full_pipeline_hand_arithmetic():
    # alpha = L = D = ||A|| = 1, rho = gamma = 1: s_bar = 1/4, s = 1/8,
    # dual branch = 3/4, mu = (1 + 4/8) / (1 + 2*(1 - 2/8)) = 1.5/2.5 = 0.6.
    p = BlockProblem(
        (QuadraticBlock(np.eye(2), np.zeros(2)),), (np.eye(2),), np.zeros(2)
    )
    consts = unit_consts()
    s = 0.5 * max_feasible_s(consts, 1.0, 1)
    assert s == pytest.approx(0.125, abs=1e-15)
    mu = dense_mu_s(p, consts, 1.0, s, None)
    assert mu == pytest.approx(0.6, rel=1e-10)
    assert closed_form_mu_s(p, consts, 1.0, s, None) == pytest.approx(0.6, rel=1e-10)
    res = compute_sigma(1.0, 1.0, s, consts.c_A, mu)
    assert res.sigma == pytest.approx(0.75, rel=1e-10)


def test_sigma_monotone_in_s_on_dual_branch():
    values = [
        compute_sigma(1.0, 1.0, s, 0.9, 0.0).dual_branch for s in (0.01, 0.05, 0.1)
    ]
    assert values == sorted(values, reverse=True)


# -- certify pipeline ----------------------------------------------------------------------

def test_certify_passes_on_desk_instance():
    inst = generate_lcqp(3, 20, 5, seed=0)
    taus = smallest_certified_tau(inst.problem, rho=1.0, gamma=1.0)
    cert = certify(inst.problem, 1.0, 1.0, StandardProximal(taus), seed=0)
    assert cert.passed
    assert 0.0 < cert.sigma < 1.0
    assert 0.0 < cert.mu_s < 1.0
    assert cert.margins["alpha_2Ls"] > 0.0
    assert cert.margins["xi_sum_slack"] > 0.0
    assert all(e > 0.0 for e in cert.margins["xi_pd_min_eigs"])


def dense_certificate(problem, rho, gamma, policy, consts):
    """(passed, failure, sigma) assembled from the dense oracles, mirroring :func:`certify`."""
    s = 0.5 * max_feasible_s(consts, rho, problem.N)
    xi_passed = all(e > 0.0 for e in dense_margins(problem, rho, gamma, s, policy))
    mu = dense_mu_s(problem, consts, rho, s, policy)
    sig = compute_sigma(gamma, rho, s, consts.c_A, mu)
    if not xi_passed:
        failure = "XiConditionFailed"
    elif not 0.0 < mu < 1.0:
        failure = "MuOutOfRange"
    elif not sig.in_range:
        failure = "SigmaOutOfRange"
    elif consts.alpha - 2.0 * consts.L * s <= 0.0:
        failure = "NonPositiveWeight"
    else:
        failure = None
    return failure is None, failure, sig.sigma, xi_passed


@pytest.mark.parametrize("kind", ["standard", "proxlinear"])
@pytest.mark.parametrize("shape", [(3, 20, 8), (3, 12, 5)])
def test_certify_matches_dense_certificate_on_default_grid(kind, shape):
    inst = generate_lcqp(*shape, seed=0)
    problem = inst.problem
    consts = estimate_constants(problem)
    searched = 0
    request = REQUESTS[kind]("auto")
    for rho in inst.rho_grid:
        for gamma in GAMMA_GRID:
            cert = certify(problem, rho, gamma, request)
            policy = cert.proximal
            passed, failure, sigma, xi_passed = dense_certificate(problem, rho, gamma, policy,
                                                                  consts)
            assert (cert.passed, cert.failure) == (passed, failure), (rho, gamma)
            assert cert.sigma == pytest.approx(sigma, rel=1e-12, abs=0.0), (rho, gamma)
            try:
                smallest_certified_tau(problem, rho, gamma, kind=kind)
            except CertificationError:
                continue  # "auto" fell back to the classical threshold
            assert xi_passed, (rho, gamma)
            searched += 1
    assert searched >= 15


def test_certify_gamma_out_of_range():
    inst = generate_lcqp(2, 4, 3, seed=1)
    cert = certify(inst.problem, 1.0, 2.5, None)
    assert not cert.passed
    assert cert.failure == "GammaOutOfRange"


@pytest.mark.parametrize("rho", [float("nan"), float("inf")])
def test_certify_rejects_a_rho_that_is_not_finite(rho):
    # A NaN rho used to pass the guard and fail later as NotSymmetric.
    p = generate_lcqp(2, 4, 3, seed=1).problem
    with pytest.raises(InvalidParameter, match="rho"):
        certify(p, rho, 1.0, StandardProximal(1.0))


def test_certify_not_strongly_convex_margins():
    p = BlockProblem(
        (LogisticQuadBlock(1e-4, 1.0, 0.0, 0.0), LogisticQuadBlock(1.0, 1.0, 0.0, 0.0)),
        (np.ones((1, 1)), np.ones((1, 1))),
        np.zeros(1),
    )
    cert = certify(p, 1.0, 1.0, StandardProximal(1.0))
    assert not cert.passed
    assert cert.failure == "NotStronglyConvex"
    assert cert.margins["alpha"] == pytest.approx(5e-5, rel=1e-12)


def test_certify_roundtrip(tmp_path):
    import json

    inst = generate_lcqp(2, 4, 3, seed=5)
    taus = smallest_certified_tau(inst.problem, rho=1.0, gamma=0.5)
    cert = certify(inst.problem, 1.0, 0.5, StandardProximal(taus), seed=5)
    assert cert.passed
    path = tmp_path / "cert.json"
    cert.save(path)
    saved = json.loads(path.read_text())
    assert saved["passed"] == cert.passed
    assert saved["sigma"] == cert.sigma
    assert tuple(saved["xi"]) == cert.xi
    assert "weights" not in saved and "proximal" not in saved


def lower_end_weights(p, rho, gamma, kind, factor):
    """Each block's certified lower end times ``factor``, at most its interval's midpoint.

    Where the lower end is at or below 0 the search's round-off-sized weight stands in.
    """
    searched = smallest_certified_tau(p, rho, gamma, kind=kind)
    return [min(factor * lo, 0.5 * (lo + hi)) if lo > 0.0 else tau
            for (lo, hi), tau in zip(_certified_intervals(p, rho, gamma, kind), searched)]


def test_smallest_certified_tau_is_minimal_and_feasible():
    inst = generate_lcqp(3, 8, 4, seed=3)
    consts = estimate_constants(inst.problem)
    s = 0.5 * max_feasible_s(consts, 1.0, 3)
    taus = lower_end_weights(inst.problem, 1.0, 1.0, "standard", 1.0 + 1e-6)
    res = dense_margins(inst.problem, 1.0, 1.0, s, StandardProximal(taus))
    assert all(e > 0.0 for e in res)
    # Slightly below the boundary the condition must fail for some block.
    shrunk = [0.98 * lo for lo, _ in _certified_intervals(inst.problem, 1.0, 1.0, "standard")]
    res2 = dense_margins(inst.problem, 1.0, 1.0, s, StandardProximal(shrunk))
    assert not all(e > 0.0 for e in res2)


def test_smallest_certified_tau_rejects_bad_gamma():
    inst = generate_lcqp(2, 4, 3, seed=0)
    with pytest.raises(GammaOutOfRange):
        smallest_certified_tau(inst.problem, 1.0, 2.0)


def test_smallest_certified_tau_prox_linear_scalar_formula():
    inst = generate_lcqp(1, 5, 3, seed=2)
    consts = estimate_constants(inst.problem)
    s = 0.5 * max_feasible_s(consts, 1.0, 1)
    (lo, _), = _certified_intervals(inst.problem, 1.0, 1.0, "proxlinear")
    cxi = 1.0 / uniform_xi(1.0, 1)[0]
    # Boundary of tau - 8 s tau^2 - cxi ||A||^2 > 0 (smaller root).
    nrm2 = consts.A_norms[0] ** 2
    disc = math.sqrt(1.0 - 32.0 * s * cxi * nrm2)
    tau_lo = (1.0 - disc) / (16.0 * s)
    assert lo == pytest.approx(tau_lo, rel=1e-6)


# -- spectral tau search ---------------------------------------------------------------------

def dense_bisection_tau(problem, rho, gamma, kind="standard", safety=1.5):
    """Independent copy of the weight rule on dense matrices: one eigensolve per step.

    Each block's certified interval ``(lo, hi)`` is found by bisecting the
    dense coupling margin, which is concave in the weight, at both ends.  The
    weight is ``safety*lo``, or the midpoint where ``safety*lo >= hi``, or the
    round-off-sized ``1e-12*max(c*||A_i||^2, 1)`` (at most ``hi/2``) where the
    margin at 0 is already positive.
    """
    consts = estimate_constants(problem)
    s = 0.5 * max_feasible_s(consts, rho, problem.N)
    coupling = rho / ((1.0 - 1e-6) * (2.0 - gamma) / problem.N)
    taus = []
    for i, Ai in enumerate(problem.A):
        AtA = Ai.T @ Ai
        eye = np.eye(AtA.shape[0])

        def margin(tau):
            B = rho * AtA + tau * eye if kind == "standard" else tau * eye
            M = B - 8.0 * s * (B @ B) - coupling * AtA
            return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])

        def boundary(outside, inside):
            """The end of the interval between a failing and a passing weight."""
            for _ in range(100):
                mid = 0.5 * (outside + inside)
                outside, inside = (outside, mid) if margin(mid) > 0.0 else (mid, inside)
            return inside

        scale = max(coupling * consts.A_norms[i] ** 2, 1.0)
        if margin(0.0) > 0.0:
            lo, inside = None, 0.0
        else:
            lo, probe = 0.0, scale * 2.0 ** -10
            for _ in range(60):
                if margin(probe) > 0.0:
                    break
                lo, probe = probe, 2.0 * probe
            else:
                return None
            lo = inside = boundary(lo, probe)
        above = 2.0 * max(inside, scale)
        while margin(above) > 0.0:
            above *= 2.0
        hi = boundary(above, inside)
        if lo is None:
            taus.append(min(1e-12 * scale, 0.5 * hi))
        elif safety * lo < hi:
            taus.append(safety * lo)
        else:
            taus.append(0.5 * (lo + hi))
    return taus


# (N, m, n): m < n makes every A_i'A_i singular.
TAU_SHAPES = [(3, 8, 4), (2, 5, 5), (3, 4, 8), (2, 3, 7), (1, 6, 3)]


@pytest.mark.parametrize("kind", ["standard", "proxlinear"])
@pytest.mark.parametrize("shape", TAU_SHAPES + [(3, 12, 5)])
def test_spectral_tau_matches_dense_bisection(kind, shape):
    # (0.1, 1.9) on (3, 12, 5) seed 0 puts 1.5 times block 1's lower end
    # outside its interval, so the weight there is the midpoint.
    checked = midpoints = 0
    for seed in (0, 1, 2):
        p = generate_lcqp(*shape, seed=seed).problem
        for rho, gamma in [(0.03, 0.1), (1.0, 0.5), (1.0, 1.5), (5.0, 1.9), (10.0, 1.0),
                           (0.1, 1.9)]:
            expected = dense_bisection_tau(p, rho, gamma, kind)
            if expected is None:
                with pytest.raises(CertificationError):
                    smallest_certified_tau(p, rho, gamma, kind=kind)
                continue
            got = smallest_certified_tau(p, rho, gamma, kind=kind)
            assert got == pytest.approx(expected, rel=1e-9, abs=0.0)
            checked += 1
            midpoints += sum(TAU_SAFETY * lo >= hi
                             for lo, hi in _certified_intervals(p, rho, gamma, kind))
    assert checked >= 10
    assert midpoints > 0 or shape != (3, 12, 5)


@pytest.mark.parametrize("kind", ["standard", "proxlinear"])
def test_certified_tau_at_unit_safety_passes_dense_check(kind):
    # Just above each block's certified lower end the dense check passes.
    # Includes a single block with a singular A'A at gamma < 1, where the
    # lower end is 0 and the search's weight is round-off-sized.
    make = StandardProximal if kind == "standard" else ProxLinear
    for shape in TAU_SHAPES + [(1, 3, 6), (3, 40, 15)]:
        for seed in (0, 3):
            p = generate_lcqp(*shape, seed=seed).problem
            consts = estimate_constants(p)
            for rho, gamma in [(0.03, 0.5), (1.0, 1.0), (5.0, 1.9)]:
                if kind == "proxlinear" and p.N < 2.0 - gamma:
                    continue  # one block at gamma < 1: the boundary is below rho*||A||^2
                try:
                    taus = lower_end_weights(p, rho, gamma, kind, 1.0 + 1e-6)
                except CertificationError:
                    continue
                s = 0.5 * max_feasible_s(consts, rho, p.N)
                res = dense_margins(p, rho, gamma, s, make(taus))
                assert all(e > 0.0 for e in res), (shape, seed, rho, gamma)


def dense_eigensolves_of_tau_search(count_calls, kind):
    """``(problem, calls)``: dense eigensolves of one search on an LCQP (3, 30, 12) at (1, 1)."""
    p = generate_lcqp(3, 30, 12, seed=0).problem
    calls = count_calls("jprox.linalg", "min_eigenvalue_sym")
    smallest_certified_tau(p, 1.0, 1.0, kind=kind)
    return p, calls


@pytest.mark.parametrize("kind", ["standard", "proxlinear"])
def test_tau_search_makes_few_dense_eigensolves(count_calls, kind):
    # The search is arithmetic on the closed-form interval: no dense eigensolve.
    _, calls = dense_eigensolves_of_tau_search(count_calls, kind)
    assert calls == []


@pytest.mark.parametrize("kind", ["standard", "proxlinear"])
def test_tau_search_makes_one_dense_eigensolve_per_block(count_calls, kind):
    # Neither the search nor certify's closed-form coupling check of its
    # weights builds a matrix; only the dense oracle's check of those weights
    # takes one dense eigensolve per block.
    p, calls = dense_eigensolves_of_tau_search(count_calls, kind)
    assert calls == []
    cert = certify(p, 1.0, 1.0, REQUESTS[kind]("auto"))
    assert cert.passed and calls == []
    dense = count_calls("scipy.linalg", "eigh")
    assert all(e > 0.0 for e in dense_margins(p, 1.0, 1.0, cert.s, cert.proximal))
    assert len(dense) == p.N and calls == []


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(1, 4),
    m=st.integers(1, 8),
    n=st.integers(1, 6),
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(["standard", "proxlinear"]),
    rho_gamma=st.sampled_from([(0.03, 0.1), (1.0, 0.5), (1.0, 1.5), (5.0, 1.9), (10.0, 1.0)]),
)
def test_certified_tau_is_the_dense_boundary(N, m, n, seed, kind, rho_gamma):
    rho, gamma = rho_gamma
    p = generate_lcqp(N, m, n, seed=seed).problem
    consts = estimate_constants(p)
    try:
        taus = lower_end_weights(p, rho, gamma, kind, 1.0 + 1e-6)
    except CertificationError:
        return
    s = 0.5 * max_feasible_s(consts, rho, N)

    def xi_check(weights):
        # P is built without the prox-linear PSD floor, which one block at
        # gamma < 1 sits below.
        P_list = oracle.proximal_matrices(p.A, weights, COUPLINGS[kind], rho)
        return oracle.coupling_margins(p.A, P_list, rho, gamma, s)

    assert all(e > 0.0 for e in xi_check(taus))
    los = [lo for lo, _ in _certified_intervals(p, rho, gamma, kind)]
    below = xi_check([(1.0 - 1e-6) * lo for lo in los])
    cxi = rho / uniform_xi(gamma, N)[0]
    for i, (lo, nrm) in enumerate(zip(los, consts.A_norms)):
        if lo > 1e-6 * max(cxi * nrm ** 2, 1.0):  # the boundary is above round-off
            assert below[i] <= 0.0, i


# -- Lyapunov function -----------------------------------------------------------------------

def phi_ingredients(seed=0, rho=1.0, gamma=1.0, tau=2.0):
    inst = generate_lcqp(3, 6, 4, seed=seed)
    consts = estimate_constants(inst.problem)
    s = 0.5 * max_feasible_s(consts, rho, inst.problem.N)
    P_list = materialize_policy(StandardProximal(tau), rho, inst.problem)
    return inst, consts, s, P_list


def phi_value(problem, u, ref, gamma, rho, s, P_list):
    return PhiWeights.build(problem, gamma, rho, s, P_list).evaluate(u, ref)


def test_phi_zero_at_reference():
    inst, consts, s, P_list = phi_ingredients()
    ref = inst.optimum()
    assert phi_value(inst.problem, ref, ref, 1.0, 1.0, s, P_list) == 0.0


def test_phi_multiplier_only_term():
    inst, consts, s, P_list = phi_ingredients()
    ref = inst.optimum()
    u = ref.copy()
    v = np.arange(1.0, 7.0)
    u.lam = u.lam + v
    gamma, rho = 1.3, 0.7
    phi = phi_value(inst.problem, u, ref, gamma, rho, s, P_list)
    assert phi == pytest.approx(float(v @ v) / (2 * gamma * rho), rel=1e-12)


def test_phi_matches_term_by_term_oracle():
    inst, consts, s, P_list = phi_ingredients(seed=4)
    rng = np.random.default_rng(7)
    ref = inst.optimum()
    u = PrimalDualPoint([rng.standard_normal(4) for _ in range(3)], rng.standard_normal(6))
    gamma, rho = 0.9, 1.4
    gap = consts.alpha - 2.0 * consts.L * s
    expected = float((u.lam - ref.lam) @ (u.lam - ref.lam)) / (2 * gamma * rho)
    for Ai, Pi, xi, ri in zip(inst.problem.A, P_list, u.x, ref.x):
        W = rho * Ai.T @ Ai + Pi + 2.0 * gap * np.eye(4)
        d = xi - ri
        expected += 0.5 * float(d @ W @ d)
    got = phi_value(inst.problem, u, ref, gamma, rho, s, P_list)
    assert got == pytest.approx(expected, rel=1e-12)


def test_phi_weights_of_uneven_blocks_match_term_by_term_oracle():
    rng = np.random.default_rng(13)
    W = []
    for n in (3, 1, 3, 2, 1):
        B = rng.standard_normal((n, n))
        W.append(B @ B.T + np.eye(n))
    weights = PhiWeights(0.7, 1.9, W)
    u = PrimalDualPoint([rng.standard_normal(Wi.shape[0]) for Wi in W], rng.standard_normal(4))
    ref = PrimalDualPoint([rng.standard_normal(Wi.shape[0]) for Wi in W], rng.standard_normal(4))
    expected = float((u.lam - ref.lam) @ (u.lam - ref.lam)) / (2 * 0.7 * 1.9)
    for Wi, xi, ri in zip(W, u.x, ref.x):
        expected += 0.5 * float((xi - ri) @ Wi @ (xi - ri))
    assert weights.evaluate(u, ref) == pytest.approx(expected, rel=1e-13)


def test_phi_weights_keep_each_matrix_once_as_a_view_of_its_group():
    rng = np.random.default_rng(14)
    W = []
    for n in (3, 1, 3, 2, 1):
        B = rng.standard_normal((n, n))
        W.append(B @ B.T + np.eye(n))
    weights = PhiWeights(0.7, 1.9, W)
    assert [Wi.tobytes() for Wi in weights.W] == [Wi.tobytes() for Wi in W]
    for Wi in weights.W:
        assert Wi.base is not None
        assert any(Wi.base is stacked for _, stacked in weights._groups)
    assert sum(stacked.nbytes for _, stacked in weights._groups) == sum(Wi.nbytes for Wi in W)


def test_phi_dominates_identity_parts():
    inst, consts, s, P_list = phi_ingredients(seed=9)
    rng = np.random.default_rng(11)
    ref = inst.optimum()
    gamma, rho = 1.0, 1.0
    gap = consts.alpha - 2.0 * consts.L * s
    for _ in range(20):
        u = PrimalDualPoint([rng.standard_normal(4) for _ in range(3)], rng.standard_normal(6))
        phi = phi_value(inst.problem, u, ref, gamma, rho, s, P_list)
        dlam = float(np.linalg.norm(u.lam - ref.lam) ** 2)
        dx = sum(float(np.linalg.norm(xi - ri) ** 2) for xi, ri in zip(u.x, ref.x))
        assert phi >= dlam / (2 * gamma * rho) - 1e-12
        assert phi >= gap * dx - 1e-12


# -- the contraction on recorded runs ----------------------------------------------------------

def contraction_violations(phi, sigma) -> list:
    """Steps ``k`` with ``phi[k+1] > sigma*phi[k] + 1e-12*(1 + phi[k])``."""
    return [k for k in range(len(phi) - 1) if phi[k + 1] > sigma * phi[k] + 1e-12 * (1.0 + phi[k])]


def certified_setup(seed=0, rho=1.0, gamma=1.0):
    inst = generate_lcqp(3, 6, 4, seed=seed)
    taus = smallest_certified_tau(inst.problem, rho, gamma)
    policy = StandardProximal(taus)
    cert = certify(inst.problem, rho, gamma, policy)
    assert cert.passed
    consts = estimate_constants(inst.problem)
    P_list = materialize_policy(policy, rho, inst.problem)
    return inst, policy, cert, consts, P_list


def test_verify_contraction_constant_sequence_passes():
    # The optimum is a fixed point of the step, so phi stays at 0 up to
    # round-off: every ratio is a degenerate 0/0, and the bound holds.
    inst, policy, cert, consts, P_list = certified_setup()
    ref = inst.optimum()
    params = SolverParams(rho=1.0, gamma=1.0, policy=policy)
    points = [ref]
    for _ in range(4):
        points.append(step(inst.problem, points[-1], params))
    weights = PhiWeights.certified(inst.problem, cert)
    phi = [weights.evaluate(u, ref) for u in points]
    assert contraction_violations(phi, cert.sigma) == []
    assert all(p <= 1e-14 for p in phi[:-1])


def test_verify_contraction_on_certified_run():
    inst, policy, cert, consts, P_list = certified_setup(seed=2)
    params = SolverParams(rho=1.0, gamma=1.0, policy=policy, max_iters=500)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem),
                reference=inst.optimum(), phi_context=PhiWeights.certified(inst.problem, cert))
    assert contraction_violations(trace.phi, cert.sigma) == []


def test_verify_contraction_from_random_starting_points():
    inst, policy, cert, consts, P_list = certified_setup(seed=5)
    rng = np.random.default_rng(123)
    params = SolverParams(rho=1.0, gamma=1.0, policy=policy, max_iters=500)
    for scale in (0.1, 10.0):
        u0 = PrimalDualPoint(
            [scale * rng.standard_normal(4) for _ in range(3)],
            scale * rng.standard_normal(6),
        )
        trace = run(inst.problem, params, u0, reference=inst.optimum(),
                    phi_context=PhiWeights.certified(inst.problem, cert))
        assert contraction_violations(trace.phi, cert.sigma) == []


def test_verify_contraction_negative_control():
    inst, policy, cert, consts, P_list = certified_setup(seed=3)
    params = SolverParams(rho=1.0, gamma=1.0, policy=policy, max_iters=100)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem),
                reference=inst.optimum(), phi_context=PhiWeights.certified(inst.problem, cert))
    phi = trace.phi
    empirical = max(curr / prev for prev, curr in zip(phi, phi[1:]) if prev > 1e-14)
    assert contraction_violations(phi, 0.5 * empirical)


def test_phi_weights_evaluate_matches_the_recorded_phi():
    # PhiWeights.evaluate (one point) and the run's batched phi rows are one formula.
    inst, policy, cert, consts, P_list = certified_setup(seed=2)
    params = SolverParams(rho=1.0, gamma=1.0, policy=policy, max_iters=200)
    ref = inst.optimum()
    weights = PhiWeights.certified(inst.problem, cert)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem), reference=ref,
                phi_context=weights, record_points=True)
    assert len(trace.points) == len(trace.phi) == 201
    for u, phi in zip(trace.points, trace.phi):
        assert weights.evaluate(u, ref) == pytest.approx(phi, rel=1e-12, abs=0.0)


# -- the certificate's weights --------------------------------------------------------------------

def test_passed_certificates_carry_the_weights_of_their_phi():
    # The weights of a passed certificate's phi are built from its P_i and s.
    inst = generate_lcqp(3, 6, 4, seed=0)
    problem = inst.problem
    passed = 0
    for rho in inst.rho_grid:
        for gamma in GAMMA_GRID:
            cert = certify(problem, rho, gamma, StandardProximal("auto"))
            weights = PhiWeights.certified(problem, cert)
            policy = cert.proximal
            if not cert.passed:
                assert weights is None, (rho, gamma)
                continue
            P_list = materialize_policy(policy, rho, problem)
            want = PhiWeights.build(problem, gamma, rho, cert.s, P_list)
            assert (weights.gamma, weights.rho) == (gamma, rho)
            assert [W.tobytes() for W in weights.W] == [W.tobytes() for W in want.W]
            passed += 1
    assert passed > 0


@pytest.mark.parametrize("policy, gamma", [(None, 1.0), (StandardProximal(1.0), 2.5)],
                         ids=["no-proximal-term", "gamma-out-of-range"])
def test_failed_certificate_carries_no_weights(policy, gamma):
    problem = generate_lcqp(3, 6, 4, seed=0).problem
    cert = certify(problem, 1.0, gamma, policy)
    assert not cert.passed
    assert PhiWeights.certified(problem, cert) is None


def test_weight_policies_read_the_cached_gram_matrices():
    # A standard policy forms no A_i'A_i; a prox-linear one subtracts the
    # problem's cached Gram matrices, the ones PhiWeights.build reads.
    p = generate_lcqp(3, 6, 4, seed=0).problem
    materialize_policy(StandardProximal(1.0), 2.0, p)
    assert p._gram_matrices is None
    tau = 2.0 * max(g.norm for g in p.gram_spectra()) ** 2
    for P, AtA in zip(materialize_policy(ProxLinear(tau), 2.0, p), p.gram_matrices()):
        assert np.array_equal(P, tau * np.eye(4) - 2.0 * AtA)


@pytest.mark.parametrize("tau", ["auto", 0.5], ids=["auto", "below-the-floor"])
def test_prox_linear_certify_forms_no_gram_matrix(count_calls, tau):
    # The floor rho*||A_i||^2 is checked from the Gram spectra; only an
    # explicit policy's P_i is materialized in certify.
    p = generate_lcqp(3, 6, 4, seed=0).problem
    grams = count_calls("jprox.problem", "BlockProblem.gram_matrices")
    if tau == "auto":
        assert certify(p, 1.0, 0.5, ProxLinear(tau)).passed
    else:
        with pytest.raises(NotPSD, match=r"prox-linear block 0: tau=0\.5 below rho\*\|\|A\|\|\^2="):
            certify(p, 1.0, 0.5, ProxLinear(tau))
    assert grams == []
    assert p._gram_matrices is None


def test_run_sweep_materializes_each_policy_for_the_run_and_its_phi_weights(count_calls, cpus):
    from jprox.experiments import SweepConfig, run_sweep

    cpus(1)  # cells run in this process, where their calls are counted
    inst = generate_lcqp(3, 6, 4, seed=0)
    calls = count_calls("jprox.solvers", "materialize_policy")
    cells = run_sweep(inst, SweepConfig(rho_grid=(1.0, 5.0), gamma_grid=(0.5, 1.5),
                                        max_iters=20), StandardProximal(20.0))
    assert len(cells) == 4
    assert all(cell.error is None for cell in cells.values())
    passed = sum(cell.certificate.passed for cell in cells.values())
    assert passed == 1
    # Once in the run's preparation and once for the phi weights of a passed
    # certificate; certify materializes only an explicit policy.
    assert len(calls) == len(cells) + passed


# -- resolving an "auto" request -------------------------------------------------------------------

REQUESTS = {"standard": StandardProximal, "proxlinear": ProxLinear}


def two_pass_policy(problem, rho, gamma, kind):
    """The concrete policy of an "auto" request, resolved in a pass of its own before certify."""
    try:
        taus = smallest_certified_tau(problem, rho, gamma, kind=kind)
    except JproxError:
        taus = fallback_tau(problem, rho, gamma, kind=kind)
    if kind != "proxlinear":
        return StandardProximal(taus)
    return ProxLinear([max(t, rho * g.norm ** 2) for t, g in zip(taus, problem.gram_spectra())])


def assert_one_pass_equals_two(problem, rho, gamma, kind):
    """The certificate of an "auto" request equals that of its two-pass policy."""
    policy = two_pass_policy(problem, rho, gamma, kind)
    one = certify(problem, rho, gamma, REQUESTS[kind]("auto"))
    two = certify(problem, rho, gamma, policy)
    assert one.to_dict() == two.to_dict(), (rho, gamma, kind)
    assert one.proximal == two.proximal == policy, (rho, gamma, kind)
    one_w, two_w = PhiWeights.certified(problem, one), PhiWeights.certified(problem, two)
    assert (one_w is None) == (two_w is None), (rho, gamma, kind)
    if one_w is not None:
        assert [W.tobytes() for W in one_w.W] == [W.tobytes() for W in two_w.W]
    return policy


def test_one_pass_certificate_equals_two_passes():
    floored = fallback = 0
    for shape in [(3, 20, 8), (3, 100, 40), (1, 6, 3)]:
        for seed in range(3):
            inst = generate_lcqp(*shape, seed=seed)
            p = inst.problem
            for rho in inst.rho_grid:
                for gamma in GAMMA_GRID:
                    for kind in REQUESTS:
                        policy = assert_one_pass_equals_two(p, rho, gamma, kind)
                        try:
                            searched = smallest_certified_tau(p, rho, gamma, kind=kind)
                        except CertificationError:
                            fallback += 1
                            continue
                        floored += policy.tau != searched
    assert floored > 0 and fallback > 0


def test_one_pass_certificate_equals_two_passes_without_strong_convexity():
    p = generate_resource_alloc(4, seed=101).problem
    p = BlockProblem((dataclasses.replace(p.objectives[0], a=1e-9),) + p.objectives[1:], p.A, p.c)
    for kind in REQUESTS:
        with pytest.raises(NotStronglyConvex):
            smallest_certified_tau(p, 1.0, 1.0, kind=kind)
        assert_one_pass_equals_two(p, 1.0, 1.0, kind)
        assert certify(p, 1.0, 1.0, REQUESTS[kind]("auto")).failure == "NotStronglyConvex"


@pytest.mark.parametrize("kind", list(REQUESTS))
def test_auto_request_with_gamma_out_of_range_raises(kind):
    p = generate_lcqp(3, 20, 8, seed=0).problem
    with pytest.raises(GammaOutOfRange):
        two_pass_policy(p, 1.0, 2.5, kind)
    with pytest.raises(GammaOutOfRange):
        certify(p, 1.0, 2.5, REQUESTS[kind]("auto"))


@pytest.mark.parametrize("shape, gamma, kind, floored", [
    ((3, 20, 8), 1.0, "standard", 0),
    ((3, 20, 8), 1.0, "proxlinear", 0),
    ((1, 6, 3), 0.1, "proxlinear", 1),
], ids=["standard", "proxlinear", "proxlinear-floored"])
def test_auto_certificate_builds_each_coupling_matrix_once(count_calls, shape, gamma, kind,
                                                           floored):
    # The search only proposes its scaled weights; certify checks each block's
    # coupling condition once, in closed form, also for a block raised to the
    # prox-linear floor: no coupling matrix is built.
    p = generate_lcqp(*shape, seed=0).problem
    eigs = count_calls("jprox.linalg", "min_eigenvalue_sym")
    searched = smallest_certified_tau(p, 1.0, gamma, kind=kind)
    assert eigs == []
    cert = certify(p, 1.0, gamma, REQUESTS[kind]("auto"))
    assert cert.passed
    assert sum(t != u for t, u in zip(cert.proximal.tau, searched)) == floored
    assert eigs == []


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(1, 4),
    m=st.integers(1, 8),
    n=st.integers(1, 6),
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(list(REQUESTS)),
    rho_gamma=st.sampled_from([(0.03, 0.1), (1.0, 0.5), (1.0, 1.5), (5.0, 1.9), (10.0, 1.0),
                               (0.1, 1.9), (1.0, 1.99), (10.0, 1.5)]),
)
def test_searched_weight_passes_the_one_dense_check(N, m, n, seed, kind, rho_gamma):
    # certify's margins are the closed form's bit for bit; the dense oracle
    # passes on every searched weight and agrees with them up to round-off.
    rho, gamma = rho_gamma
    p = generate_lcqp(N, m, n, seed=seed).problem
    try:
        smallest_certified_tau(p, rho, gamma, kind=kind)
    except CertificationError:
        return
    policy = two_pass_policy(p, rho, gamma, kind)
    s = 0.5 * max_feasible_s(estimate_constants(p), rho, N)
    closed = check_xi_condition(p, rho, gamma, s, policy)
    dense = dense_margins(p, rho, gamma, s, policy)
    assert closed.passed and all(e > 0.0 for e in dense)
    cert = certify(p, rho, gamma, REQUESTS[kind]("auto"))
    assert cert.proximal == policy
    margins = np.array(cert.margins["xi_pd_min_eigs"])
    assert margins.tobytes() == np.array(closed.min_eigs).tobytes()
    assert np.all(np.abs(margins - dense) <= margin_tolerance(p, rho, gamma, s, policy))


def margin_tolerance(p, rho, gamma, s, policy):
    """Per block, ``1e-12 * max_j(|b_j| + 8*s*b_j^2 + c*d_j)``: the round-off band of a margin."""
    c = rho / uniform_xi(gamma, p.N)[0]
    bands = []
    ds = [g.eigenvalues for g in p.gram_spectra()]
    for d, eigenvalues in zip(ds, policy_eigenvalues(policy, rho, ds)):
        b = rho * d + eigenvalues
        bands.append(1e-12 * float(np.max(np.abs(b) + 8.0 * s * b * b + c * d)))
    return np.array(bands)


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(1, 4),
    m=st.integers(1, 8),
    n=st.integers(1, 6),
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(["none", "standard", "proxlinear", "standard-auto", "proxlinear-auto"]),
    weight=st.floats(1e-12, 1e2),
    rho_gamma=st.sampled_from([(0.03, 0.1), (1.0, 0.5), (1.0, 1.5), (5.0, 1.9), (10.0, 1.0),
                               (0.1, 1.9), (1.0, 1.99), (10.0, 1.5)]),
)
# One block, singular A'A, gamma < 1: a round-off-sized weight, and a
# prox-linear weight raised to its floor.
@example(N=1, m=3, n=6, seed=0, kind="standard-auto", weight=1.0, rho_gamma=(1.0, 0.1))
@example(N=1, m=6, n=3, seed=0, kind="proxlinear-auto", weight=1.0, rho_gamma=(1.0, 0.1))
def test_closed_form_coupling_margins_match_the_dense_check(N, m, n, seed, kind, weight,
                                                            rho_gamma):
    # Concrete weights are weight*rho*||A_i||^2, at least the floor for prox-linear.
    rho, gamma = rho_gamma
    p = generate_lcqp(N, m, n, seed=seed).problem
    nrm2 = [np.linalg.norm(Ai, 2) ** 2 for Ai in p.A]
    if kind == "none":
        policy = None
    elif kind.endswith("-auto"):
        policy = certify(p, rho, gamma, REQUESTS[kind[:-5]]("auto")).proximal
    elif kind == "standard":
        policy = StandardProximal([weight * rho * v for v in nrm2])
    else:
        policy = ProxLinear([max(weight, 1.0) * rho * v for v in nrm2])
    s = 0.5 * max_feasible_s(estimate_constants(p), rho, N)
    closed = check_xi_condition(p, rho, gamma, s, policy)
    dense_eigs = np.array(dense_margins(p, rho, gamma, s, policy))
    band = margin_tolerance(p, rho, gamma, s, policy)
    closed_eigs = np.array(closed.min_eigs)
    assert np.all(np.abs(closed_eigs - dense_eigs) <= band)
    clear = np.abs(closed_eigs) > band
    assert np.array_equal((closed_eigs > 0.0)[clear], (dense_eigs > 0.0)[clear])
    if np.all(clear):
        assert closed.passed == bool(np.all(dense_eigs > 0.0))


# Cells where TAU_SAFETY times a block's lower end leaves its interval.
MIDPOINT_CELLS = {
    "lcqp-3-12-5": (lambda: generate_lcqp(3, 12, 5, seed=0), 0.1, 1.9),
    "lcqp-3-4-8": (lambda: generate_lcqp(3, 4, 8, seed=0), 1.0, 1.99),
    "ra-20": (lambda: generate_resource_alloc(20, seed=2), 0.1, 1.9),
    "ra-1": (lambda: generate_resource_alloc(1, seed=0), 10.0, 1.5),
}


@pytest.mark.parametrize("kind", list(REQUESTS))
@pytest.mark.parametrize("cell", list(MIDPOINT_CELLS))
def test_weight_is_the_midpoint_where_the_scaled_lower_end_leaves_the_interval(
        count_calls, cell, kind):
    make, rho, gamma = MIDPOINT_CELLS[cell]
    p = make().problem
    intervals = _certified_intervals(p, rho, gamma, kind)
    eigs = count_calls("jprox.linalg", "min_eigenvalue_sym")
    taus = smallest_certified_tau(p, rho, gamma, kind=kind)
    assert eigs == []
    assert any(TAU_SAFETY * lo >= hi for lo, hi in intervals)
    for tau, (lo, hi) in zip(taus, intervals):
        want = TAU_SAFETY * lo if TAU_SAFETY * lo < hi else 0.5 * (lo + hi)
        assert tau.hex() == want.hex()
    cert = certify(p, rho, gamma, REQUESTS[kind]("auto"))
    assert cert.passed
    assert cert.proximal == REQUESTS[kind](taus)
    assert eigs == []


@pytest.mark.parametrize("seed, gamma, weight", [
    (0, 0.1, 4.428720032961639e-12),
    (1, 0.5, 2.8671714835923473e-12),
    (2, 0.1, 6.080428889591435e-12),
])
def test_weight_is_round_off_sized_where_the_lower_end_is_zero(count_calls, seed, gamma,
                                                                weight):
    # One block with a singular A'A at gamma < 1: every weight in (0, hi)
    # passes, and the search keeps its round-off-sized 1e-12*c*||A||^2.
    p = generate_lcqp(1, 3, 6, seed=seed).problem
    (lo, hi), = _certified_intervals(p, 1.0, gamma, "standard")
    assert lo <= 0.0 < weight < 0.5 * hi
    eigs = count_calls("jprox.linalg", "min_eigenvalue_sym")
    assert smallest_certified_tau(p, 1.0, gamma) == [weight]
    assert eigs == []
    cert = certify(p, 1.0, gamma, StandardProximal("auto"))
    assert cert.passed
    assert cert.proximal == StandardProximal([weight])
    assert eigs == []


def test_unresolved_request_fails_loudly():
    from jprox.solvers import step

    inst = generate_lcqp(2, 5, 3, seed=0)
    p = inst.problem
    for request in (StandardProximal("auto"), ProxLinear("auto")):
        params = SolverParams(rho=1.0, gamma=1.0, policy=request, max_iters=5)
        with pytest.raises(InvalidParameter, match="certify resolves"):
            materialize_policy(request, 1.0, p)
        with pytest.raises(InvalidParameter, match="certify resolves"):
            step(p, PrimalDualPoint.zeros(p), params)
        with pytest.raises(InvalidParameter, match="certify resolves"):
            run(p, params, PrimalDualPoint.zeros(p))


def test_certified_sigma_bounds_exact_one_step_factor():
    # For all-quadratic problems one iteration is an affine map u+ = T(u - u*)
    # + u*; assembling T column by column gives the exact worst-case one-step
    # factor of the Lyapunov form as a generalized eigenvalue, which the
    # certified factor must dominate.
    import scipy.linalg

    from jprox.linalg import generalized_max_eigenvalue
    from jprox.solvers import step

    def pack(u):
        return np.concatenate([np.concatenate(u.x), u.lam])

    def unpack(vec, problem):
        xs, off = [], 0
        for n in problem.dims:
            xs.append(vec[off:off + n])
            off += n
        return PrimalDualPoint(xs, vec[off:])

    for seed, (N, m, n), rho, gamma in [
        (0, (3, 6, 4), 1.0, 1.0),
        (1, (2, 5, 3), 1.0, 0.5),
        (2, (3, 10, 5), 5.0, 1.5),
    ]:
        inst = generate_lcqp(N, m, n, seed=seed)
        p = inst.problem
        policy = StandardProximal(smallest_certified_tau(p, rho, gamma))
        cert = certify(p, rho, gamma, policy)
        assert cert.passed
        consts = estimate_constants(p)
        P_list = materialize_policy(policy, rho, p)
        params = SolverParams(rho=rho, gamma=gamma, policy=policy)
        ustar = inst.optimum()
        base = pack(step(p, ustar, params))
        assert np.linalg.norm(base - pack(ustar)) < 1e-9
        dim = base.size
        T = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            out = step(p, unpack(pack(ustar) + e, p), params)
            T[:, j] = pack(out) - base
        weights = PhiWeights.build(p, gamma, rho, cert.s, P_list)
        W = scipy.linalg.block_diag(
            *[0.5 * Wi for Wi in weights.W], np.eye(p.m) / (2.0 * gamma * rho)
        )
        M = T.T @ W @ T
        exact = generalized_max_eigenvalue(0.5 * (M + M.T), W)
        assert exact <= cert.sigma + 1e-9
        assert exact < 1.0


# -- fit_linear_rate ------------------------------------------------------------------------------

def test_fit_exact_geometric():
    values = [0.9 ** k for k in range(60)]
    fit = fit_linear_rate(values, 0.5)
    assert fit.rate == pytest.approx(0.9, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.flat


@settings(max_examples=100, deadline=None)
@given(
    rate=st.floats(0.2, 0.99),
    scale=st.floats(1e-3, 1e3),
    n=st.integers(25, 120),
)
def test_fit_recovers_any_geometric_series(rate, scale, n):
    values = [scale * rate ** k for k in range(n)]
    if min(values) <= 1e-14:
        values = [v for v in values if v > 1e-14]
        if len(values) < 20:
            return
    fit = fit_linear_rate(values, 0.5)
    assert fit.rate == pytest.approx(rate, rel=1e-8)
    assert fit.r_squared > 1.0 - 1e-9


def test_fit_constant_series_flagged_flat():
    fit = fit_linear_rate([2.5] * 40, 0.5)
    assert fit.rate == 1.0
    assert fit.r_squared == 0.0
    assert fit.flat


def test_fit_noisy_geometric_matches_two_point_estimate():
    rng = np.random.default_rng(15)
    truth = 0.93
    values = [truth ** k * (1.0 + 0.01 * rng.standard_normal()) for k in range(200)]
    fit = fit_linear_rate(values, 0.5)
    assert abs(fit.rate - truth) < 0.005
    tail = values[100:]
    two_point = math.exp((math.log(tail[-1]) - math.log(tail[0])) / (len(tail) - 1))
    assert abs(fit.rate - two_point) < 0.01


def test_fit_rejects_short_series():
    with pytest.raises(InsufficientData):
        fit_linear_rate([1.0, 0.9, 0.8], 1.0)


def test_fit_drops_floored_tail():
    values = [max(0.5 ** k, 1e-16) for k in range(200)]
    fit = fit_linear_rate(values, 1.0)
    assert fit.rate == pytest.approx(0.5, rel=1e-6)

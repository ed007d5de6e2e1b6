"""Engine tests: hand-expanded steps, order invariance, baselines, root solves."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import cell_trace, dis

import jprox.solvers as solvers
from jprox.certify import PhiWeights, _certified_intervals
from jprox.errors import (
    DimensionMismatch,
    InvalidParameter,
    MaxItersExceeded,
    NotPSD,
    NotStronglyConvex,
)
from jprox.experiments import generate_lcqp, generate_resource_alloc, reference_solution
from jprox.problem import (
    BlockProblem,
    LogisticQuadBlock,
    PrimalDualPoint,
    QuadraticBlock,
    block_gradient,
    constraint_residual,
)
from jprox.solvers import (
    ProxLinear,
    SolverParams,
    StandardProximal,
    materialize_policy,
    run,
    solve_block_quadratic,
    step,
)


def two_scalar_blocks():
    """f_i(x) = x^2/2, unit couplings, zero right-hand side."""
    return BlockProblem(
        (QuadraticBlock(np.eye(1), np.zeros(1)), QuadraticBlock(np.eye(1), np.zeros(1))),
        (np.ones((1, 1)), np.ones((1, 1))),
        np.zeros(1),
    )


def stationarity_defect(problem, u_prev, u_next, rho, P_list):
    """Worst violation of the per-block optimality relation after one parallel step."""
    g_prev = sum(Ai @ xi for Ai, xi in zip(problem.A, u_prev.x))
    worst = 0.0
    for i, (f, Ai, Pi) in enumerate(zip(problem.objectives, problem.A, P_list)):
        inner = Ai @ u_next.x[i] + (g_prev - Ai @ u_prev.x[i]) - problem.c
        rhs = Ai.T @ u_prev.lam - rho * (Ai.T @ inner) + Pi @ (u_prev.x[i] - u_next.x[i])
        worst = max(worst, float(np.linalg.norm(block_gradient(f, u_next.x[i]) - rhs)))
    return worst


# -- materialize_policy ------------------------------------------------------------

def one_block(A):
    """A one-block problem with coupling matrix ``A`` and objective ``||x||^2/2``."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    return BlockProblem((QuadraticBlock(np.eye(n), np.zeros(n)),), (A,), np.zeros(A.shape[0]))


def test_standard_proximal_materialization():
    P, = materialize_policy(StandardProximal(3.0), 1.0, one_block(np.ones((4, 2))))
    assert np.array_equal(P, np.diag([3.0, 3.0]))


def test_prox_linear_boundary_is_zero_matrix():
    A = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 3)))[0]
    rho = 2.0
    P, = materialize_policy(ProxLinear(rho * 1.0), rho, one_block(A))
    assert np.allclose(P, 0.0, atol=1e-12)


def test_prox_linear_margin_eigenvalue():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 3))
    rho = 1.5
    coupling = rho * np.linalg.svd(A, compute_uv=False)[0] ** 2
    P, = materialize_policy(ProxLinear(1.1 * coupling), rho, one_block(A))
    assert np.linalg.eigvalsh(P)[0] >= 0.1 * coupling * (1.0 - 1e-8)


@pytest.mark.parametrize("policy", [StandardProximal, ProxLinear])
@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0])
def test_materialize_P_rejects_a_tau_that_is_not_finite_and_positive(policy, tau):
    # StandardProximal(nan) used to materialize an all-NaN P_i.
    with pytest.raises(InvalidParameter, match="tau"):
        materialize_policy(policy(tau), 1.0, one_block(np.ones((2, 2))))


@pytest.mark.parametrize("tau, error, message", [
    ("auto", InvalidParameter, "is a request, not a weight"),
    ([1.0, 1.0], DimensionMismatch, "expected 3 tau values, got 2"),
    ([1.0, float("nan"), 1.0], InvalidParameter, "tau must be finite and positive"),
], ids=["request", "short-list", "nan-entry"])
def test_a_weight_list_is_refused_alike_by_the_matrices_and_the_eigenvalues(tau, error, message):
    p = generate_lcqp(3, 6, 4, seed=0).problem
    with pytest.raises(error, match=message):
        materialize_policy(StandardProximal(tau), 1.0, p)
    with pytest.raises(error, match=message):
        solvers.policy_eigenvalues(ProxLinear(tau), 1.0, [g.eigenvalues for g in p.gram_spectra()])


def test_certify_validates_a_weight_list_once_per_call_site(count_calls):
    # materialize_policy, check_xi_condition and closed_form_mu_s each validate
    # the N weights once; validating them once per block took O(N^2) steps.
    from jprox.certify import certify

    problem = generate_resource_alloc(200, 1).problem
    validations = count_calls("jprox.solvers", "_block_weights")
    certify(problem, 1.0, 1.0, StandardProximal([1.0] * 200))
    assert [len(args[0]) for args in validations] == [200] * 3


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), 0.0])
def test_materialize_P_rejects_a_rho_that_is_not_finite_and_positive(rho):
    with pytest.raises(InvalidParameter, match="rho"):
        materialize_policy(StandardProximal(1.0), rho, one_block(np.ones((2, 2))))


def test_prox_linear_rejects_small_tau():
    with pytest.raises(NotPSD):
        materialize_policy(ProxLinear(0.5), 1.0, one_block(np.eye(3)))


def test_none_policy_is_zero():
    P, = materialize_policy(None, 1.0, one_block(np.ones((3, 2))))
    assert np.array_equal(P, np.zeros((2, 2)))


# -- solve_block_quadratic ----------------------------------------------------------

def test_quadratic_block_decoupled():
    block = QuadraticBlock(np.eye(2), np.zeros(2))
    x = solve_block_quadratic(
        block, np.zeros((3, 2)), np.zeros((2, 2)), rho=1.0,
        lam_k=np.ones(3), g_minus_i=np.ones(3), c=np.zeros(3), x_i_k=np.ones(2),
    )
    assert np.allclose(x, 0.0, atol=1e-14)


def test_quadratic_block_scalar_hand_solve():
    block = QuadraticBlock(np.eye(1), np.zeros(1))
    x = solve_block_quadratic(
        block, np.ones((1, 1)), np.zeros((1, 1)), rho=1.0,
        lam_k=np.zeros(1), g_minus_i=np.ones(1), c=np.zeros(1), x_i_k=np.array([5.0]),
    )
    assert x[0] == pytest.approx(-0.5, abs=1e-14)


def test_quadratic_block_stationarity_residual():
    rng = np.random.default_rng(12)
    H = rng.standard_normal((4, 4))
    H = H @ H.T + 0.5 * np.eye(4)
    block = QuadraticBlock(H, rng.standard_normal(4))
    A = rng.standard_normal((6, 4))
    P = np.diag(rng.uniform(0.5, 2.0, 4))
    rho, lam = 1.3, rng.standard_normal(6)
    g_minus, c, x_k = rng.standard_normal(6), rng.standard_normal(6), rng.standard_normal(4)
    x = solve_block_quadratic(block, A, P, rho, lam, g_minus, c, x_k)
    # The returned x must be stationary for its subproblem.
    grad = block_gradient(block, x) + rho * A.T @ (A @ x + g_minus - c) - A.T @ lam + P @ (x - x_k)
    assert np.linalg.norm(grad) <= 1e-10


# -- scalar block solves ----------------------------------------------------------------

def scalar_solve(block, rho, lam_k, g_minus_i, c, x_k, P_scalar):
    """A scalar block's subproblem solved by one :func:`step` of a one-block problem.

    The subproblem's residual is ``f'(x) + rho*(x + g_minus_i - c) - lam_k +
    P_scalar*(x - x_k)``; the other blocks' aggregate ``g_minus_i`` moves into
    the right-hand side.
    """
    p = BlockProblem((block,), (np.ones((1, 1)),), np.array([c - g_minus_i]))
    u = PrimalDualPoint([np.array([x_k])], np.array([lam_k]))
    params = SolverParams(rho=rho, gamma=1.0,
                          policy=StandardProximal(P_scalar) if P_scalar > 0.0 else None)
    return float(step(p, u, params).x[0][0])


def test_scalar_newton_linear_case():
    block = LogisticQuadBlock(1.0, 0.0, 0.0, 0.0)
    x = scalar_solve(block, rho=1.0, lam_k=0.0, g_minus_i=0.0, c=0.0, x_k=0.7, P_scalar=0.0)
    assert x == pytest.approx(0.0, abs=1e-12)


def test_scalar_newton_closed_form_when_b_zero():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, rho, P = rng.uniform(0.1, 3.0, 3)
        cs = rng.uniform(-5, 5)
        lam, g, c, x_k = rng.standard_normal(4)
        block = LogisticQuadBlock(a, 0.0, cs, 0.0)
        got = scalar_solve(block, rho, lam, g, c, x_k, P)
        expected = (a * cs + rho * (c - g) + lam + P * x_k) / (a + rho + P)
        assert got == pytest.approx(expected, abs=1e-10)


def test_scalar_newton_matches_bisection_oracle():
    rng = np.random.default_rng(99)
    for _ in range(25):
        block = LogisticQuadBlock(
            rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0),
            rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
        )
        rho = rng.uniform(0.1, 5.0)
        P = rng.uniform(0.0, 3.0)
        lam, g, c, x_k = rng.standard_normal(4) * 3.0

        def residual(x):
            from jprox.problem import sigmoid
            return (
                block.a * (x - block.cshift)
                + block.b * sigmoid(block.b * (x - block.dshift))
                + rho * (x + g - c) - lam + P * (x - x_k)
            )

        got = scalar_solve(block, rho, lam, g, c, x_k, P)
        assert abs(residual(got)) <= 1e-12
        # Bisection oracle on a wide bracket to 1e-14.
        lo, hi = -1e6, 1e6
        assert residual(lo) < 0 < residual(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if residual(mid) < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14:
                break
        assert got == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_scalar_newton_iteration_cap(monkeypatch):
    monkeypatch.setattr(solvers, "NEWTON_TOL", 1e-15)
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITERS", 2)
    block = LogisticQuadBlock(1.0, 2.0, 0.0, 0.0)
    with pytest.raises(MaxItersExceeded):
        scalar_solve(block, rho=1.0, lam_k=50.0, g_minus_i=0.0, c=0.0, x_k=0.0, P_scalar=0.0)


def test_scalar_newton_no_bracket_beyond_expansion_range():
    from jprox.errors import NoBracket

    # Root sits near 5e19, past the reach of 60 doublings from the start.
    block = LogisticQuadBlock(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(NoBracket):
        scalar_solve(block, rho=1.0, lam_k=1e20, g_minus_i=0.0, c=0.0, x_k=0.0, P_scalar=0.0)


@pytest.mark.parametrize("shift, side", [(1e20, "below"), (-1e20, "above")])
def test_scalar_newton_bracket_search_names_the_side_it_searched(shift, side):
    from jprox.errors import NoBracket

    # The root x = -shift lies past the reach of 60 doublings from 0.
    with pytest.raises(NoBracket, match=f"^no sign change within 60 doublings {side} the start$"):
        solvers._newton_bisection(lambda x: x + shift, lambda x: 1.0, 0.0, 1e-12, 100)


# -- the jprox step ------------------------------------------------------------------------

def test_step_fixed_point_single_block():
    p = BlockProblem(
        (QuadraticBlock(np.eye(2), np.zeros(2)),), (np.eye(2),), np.zeros(2)
    )
    u = PrimalDualPoint([np.zeros(2)], np.zeros(2))
    for rho, gamma in [(1.0, 1.0), (0.3, 1.7), (5.0, 0.2)]:
        out = step(p, u, SolverParams(rho=rho, gamma=gamma))
        assert np.allclose(out.x[0], 0.0, atol=1e-14)
        assert np.allclose(out.lam, 0.0, atol=1e-14)


def test_step_hand_expanded_two_scalar_blocks():
    p = two_scalar_blocks()
    u0 = PrimalDualPoint([np.array([1.0]), np.array([1.0])], np.zeros(1))
    u1 = step(p, u0, SolverParams(rho=1.0, gamma=1.0))
    assert u1.x[0][0] == pytest.approx(-0.5, abs=1e-14)
    assert u1.x[1][0] == pytest.approx(-0.5, abs=1e-14)
    assert u1.lam[0] == pytest.approx(1.0, abs=1e-14)


def test_step_order_invariance():
    rng = np.random.default_rng(0)
    inst = generate_lcqp(4, 8, 3, seed=13)
    params = SolverParams(rho=1.0, gamma=1.3, policy=StandardProximal(2.0))
    u = PrimalDualPoint([rng.standard_normal(3) for _ in range(4)], rng.standard_normal(8))
    base = step(inst.problem, u, params)
    for _ in range(20):
        order = rng.permutation(4)
        out = step(inst.problem, u, params, order=list(order))
        assert dis(out, base) <= 1e-12


def test_step_fixed_point_at_generated_optimum():
    inst = generate_lcqp(3, 6, 4, seed=21)
    u = inst.optimum()
    params = SolverParams(rho=2.0, gamma=1.5, policy=StandardProximal(1.0))
    out = step(inst.problem, u, params)
    assert dis(out, u) <= 1e-9


def _dual_update_identity():
    """A step's ``lam+`` and ``lam - gamma*rho*(A x+ - c)`` from the same ``x+``."""
    inst = generate_lcqp(3, 5, 3, seed=2)
    rng = np.random.default_rng(1)
    u = PrimalDualPoint([rng.standard_normal(3) for _ in range(3)], rng.standard_normal(5))
    params = SolverParams(rho=1.7, gamma=0.9, policy=StandardProximal(0.5))
    out = step(inst.problem, u, params)
    return out.lam, u.lam - params.gamma * params.rho * constraint_residual(inst.problem, out.x)


def test_dual_update_identity_exact(monkeypatch):
    # The block sweep computes the dual step from A x+ - c itself.
    monkeypatch.setattr(solvers, "AFFINE_MAX_ENTRIES", 0)
    got, expected = _dual_update_identity()
    assert np.array_equal(got, expected)


def test_dual_update_identity_holds_to_round_off_on_the_affine_engine():
    # The affine engine folds the dual step into its map M, so lam+ = lam -
    # gamma*rho*(A x+ - c) holds to round-off only (about 1e-15 here).
    got, expected = _dual_update_identity()
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())


def test_stationarity_after_step_all_block_types():
    # Quadratic blocks.
    inst = generate_lcqp(3, 6, 4, seed=30)
    params = SolverParams(rho=1.2, gamma=1.0, policy=StandardProximal(1.5))
    P_list = materialize_policy(params.policy, params.rho, inst.problem)
    rng = np.random.default_rng(5)
    u = PrimalDualPoint([rng.standard_normal(4) for _ in range(3)], rng.standard_normal(6))
    out = step(inst.problem, u, params)
    assert stationarity_defect(inst.problem, u, out, params.rho, P_list) <= 1e-9
    # Scalar logistic blocks.
    ra = generate_resource_alloc(6, seed=1)
    params = SolverParams(rho=1.0, gamma=1.5, policy=StandardProximal(2.0))
    P_list = materialize_policy(params.policy, params.rho, ra.problem)
    u = PrimalDualPoint([rng.standard_normal(1) for _ in range(6)], rng.standard_normal(1))
    out = step(ra.problem, u, params)
    assert stationarity_defect(ra.problem, u, out, params.rho, P_list) <= 1e-9


# -- the Gauss-Seidel step ----------------------------------------------------------------

def test_gauss_seidel_single_block_coincides_with_parallel():
    inst = generate_lcqp(1, 4, 3, seed=7)
    rng = np.random.default_rng(3)
    u = PrimalDualPoint([rng.standard_normal(3)], rng.standard_normal(4))
    params = SolverParams(rho=1.4, gamma=1.0)
    gs = step(inst.problem, u, params, method="gauss-seidel")
    par = step(inst.problem, u, SolverParams(rho=1.4, gamma=1.0, policy=None))
    assert dis(gs, par) <= 1e-14


def test_gauss_seidel_hand_expansion():
    p = two_scalar_blocks()
    u0 = PrimalDualPoint([np.array([1.0]), np.array([1.0])], np.zeros(1))
    out = step(p, u0, SolverParams(rho=1.0, gamma=1.0), method="gauss-seidel")
    assert out.x[0][0] == pytest.approx(-0.5, abs=1e-14)
    assert out.x[1][0] == pytest.approx(0.25, abs=1e-14)
    # Differs from the parallel iterate on the second block.
    par = step(p, u0, SolverParams(rho=1.0, gamma=1.0))
    assert abs(out.x[1][0] - par.x[1][0]) > 0.1


def test_gauss_seidel_is_order_sensitive():
    inst = generate_lcqp(3, 6, 4, seed=17)
    rng = np.random.default_rng(2)
    u = PrimalDualPoint([rng.standard_normal(4) for _ in range(3)], rng.standard_normal(6))
    params = SolverParams(rho=1.0, gamma=1.0)
    fwd = step(inst.problem, u, params, method="gauss-seidel", order=[0, 1, 2])
    rev = step(inst.problem, u, params, method="gauss-seidel", order=[2, 1, 0])
    assert dis(fwd, rev) > 1e-8


# -- the plain Jacobi step ---------------------------------------------------------------

def test_plain_step_is_definitional():
    inst = generate_lcqp(3, 6, 4, seed=23)
    rng = np.random.default_rng(4)
    u = PrimalDualPoint([rng.standard_normal(4) for _ in range(3)], rng.standard_normal(6))
    params = SolverParams(rho=0.8, gamma=1.9, policy=StandardProximal(3.0))
    plain = step(inst.problem, u, params, method="jacobi-plain")
    direct = step(
        inst.problem, u, SolverParams(rho=0.8, gamma=1.0, policy=None)
    )
    for a, b in zip(plain.x, direct.x):
        assert np.array_equal(a, b)
    assert np.array_equal(plain.lam, direct.lam)


def test_plain_step_trace_matches_engine_with_none_policy():
    inst = generate_lcqp(3, 6, 4, seed=29)
    u = PrimalDualPoint.zeros(inst.problem)
    params = SolverParams(rho=1.0, gamma=1.0, policy=None, max_iters=50)
    t1 = run(inst.problem, params, u, reference=inst.optimum(), method="jprox")
    t2 = run(inst.problem, params, u, reference=inst.optimum(), method="jacobi-plain")
    assert np.array_equal(t1.dis, t2.dis)


# -- dual decomposition ------------------------------------------------------------------

def test_dual_decomposition_fixed_point_at_dual_optimum():
    inst = generate_lcqp(3, 6, 4, seed=31)
    u = PrimalDualPoint([np.zeros(4) for _ in range(3)], inst.lambdastar.copy())
    out = step(inst.problem, u, SolverParams(rho=1.0, gamma=1.0), method="dual-decomp")
    for xi, xs in zip(out.x, inst.xstar):
        assert np.linalg.norm(xi - xs) <= 1e-9
    assert np.linalg.norm(out.lam - inst.lambdastar) <= 1e-9


# -- run loop ----------------------------------------------------------------------------

def recorded_points(problem, trace) -> list:
    """The rows ``[x; lam]`` of ``trace.points`` as points."""
    n = sum(problem.dims)
    return [PrimalDualPoint(problem.split(row[:n]), row[n:]) for row in trace.points]


def test_run_converges_immediately_from_reference():
    inst = generate_lcqp(2, 4, 3, seed=37)
    ref = inst.optimum()
    params = SolverParams(rho=1.0, gamma=1.0, max_iters=100, dis_tol=1e-12)
    trace = run(inst.problem, params, ref.copy(), reference=ref)
    assert trace.status == "converged"
    assert len(trace) == 1
    assert trace.dis[0] <= 1e-12


def test_run_reaches_solution_with_certified_weights():
    # The smallest certified weights at gamma=1.5 give a per-iteration rate
    # around 0.9946 on this instance, so the 1e-6 error level needs ~2600
    # iterations; the budget below leaves headroom.
    inst = generate_lcqp(3, 20, 5, seed=0)
    intervals = _certified_intervals(inst.problem, rho=1.0, gamma=1.5, kind="standard")
    taus = [(1.0 + 1e-6) * lo for lo, _ in intervals]
    params = SolverParams(rho=1.0, gamma=1.5, policy=StandardProximal(taus),
                          max_iters=4000, dis_tol=0.0)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem),
                reference=inst.optimum())
    assert trace.dis.min() < 1e-6
    # The limit agrees with the independent stationarity-system solve.
    ref = reference_solution(inst.problem)
    assert dis(trace.final, ref.point) < 1e-6


def test_run_declares_divergence():
    # Plain parallel updates with a large penalty on a coupled 3-block problem
    # oscillate with growing amplitude; the guard must trip, not raise.
    inst = generate_lcqp(3, 6, 4, seed=41)
    params = SolverParams(rho=10.0, gamma=1.0, policy=None, max_iters=3000)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem),
                reference=inst.optimum())
    assert trace.status in ("diverged", "max_iters")
    if trace.status == "diverged":
        assert trace.dis[-1] > 1e12 or not np.isfinite(trace.dis[-1])


def test_run_records_newton_residual():
    ra = generate_resource_alloc(6, seed=0)
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(5.0), max_iters=50)
    trace = run(ra.problem, params, PrimalDualPoint.zeros(ra.problem))
    assert 0.0 < trace.newton_max_residual <= 1e-12


# -- one block sweep for every method -----------------------------------------------------

@pytest.mark.parametrize("family", ["lcqp", "ra"])
@pytest.mark.parametrize("method", ["jprox", "jacobi-plain", "gauss-seidel", "dual-decomp"])
def test_run_iterates_equal_public_steps(method, family):
    problem = (generate_lcqp(3, 6, 4, seed=5) if family == "lcqp"
               else generate_resource_alloc(6, seed=2)).problem
    params = SolverParams(rho=1.0, gamma=1.5, policy=StandardProximal(2.0), max_iters=5)
    u = PrimalDualPoint.zeros(problem)
    trace = run(problem, params, u, method=method, record_points=True)
    assert trace.ks == range(6)
    for k, got in enumerate(recorded_points(problem, trace)):
        for a, b in zip(got.x, u.x):
            assert np.array_equal(a, b), (k, a, b)
        assert np.array_equal(got.lam, u.lam), k
        u = step(problem, u, params, method=method)


def test_dual_decomposition_run_factorizes_each_block_once(monkeypatch):
    from jprox.linalg import SpdFactor

    calls = []
    original = SpdFactor.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    inst = generate_lcqp(3, 6, 4, seed=31)
    monkeypatch.setattr(SpdFactor, "__init__", counting)
    trace = run(inst.problem, SolverParams(rho=1.0, gamma=1.0, max_iters=20),
                PrimalDualPoint.zeros(inst.problem), method="dual-decomp")
    assert trace.ks[-1] == 20
    assert len(calls) == inst.problem.N


def test_run_computes_one_constraint_residual_per_iterate(monkeypatch):
    # The affine engine computes the initial point's residual with
    # constraint_residual and every other one per chunk, from one product.
    residuals, chunks = [], []
    original, norms = solvers.constraint_residual, solvers._residual_norms

    def counting(problem, x):
        residuals.append(len(x))
        return original(problem, x)

    def counting_norms(problem, X, out):
        chunks.append(len(X))
        return norms(problem, X, out)

    inst = generate_lcqp(3, 6, 4, seed=29)
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(10.0), max_iters=150)
    monkeypatch.setattr(solvers, "constraint_residual", counting)
    monkeypatch.setattr(solvers, "_residual_norms", counting_norms)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem),
                reference=inst.optimum(), record_points=True)
    assert trace.engine == "affine" and len(trace) == 151
    assert residuals == [12]
    assert chunks == [64, 64, 22]
    X = trace.points[:, :sum(inst.problem.dims)]
    scale = np.linalg.norm(inst.problem.stacked_A(), 2) * np.linalg.norm(X, axis=1).max()
    for x, recorded in zip(X, trace.primal_residual):
        want = float(np.linalg.norm(original(inst.problem, inst.problem.split(x))))
        assert abs(recorded - want) <= 1e-14 * scale


# -- uneven and mixed blocks ------------------------------------------------------------

def mixed_problem():
    """Quadratic blocks of dimension 3 and 1 plus two scalar logistic blocks."""
    rng = np.random.default_rng(17)
    m = 4
    H3 = rng.standard_normal((3, 3))
    H3 = H3 @ H3.T + np.eye(3)
    objectives = (
        QuadraticBlock(H3, rng.standard_normal(3)),
        QuadraticBlock(np.array([[2.0]]), np.array([0.5])),
        LogisticQuadBlock(0.8, 1.5, 0.3, -0.2),
        LogisticQuadBlock(1.2, -0.7, -1.0, 0.5),
    )
    A = tuple(rng.standard_normal((m, f.dim)) for f in objectives)
    return BlockProblem(objectives, A, rng.standard_normal(m))


def random_point(problem, seed):
    rng = np.random.default_rng(seed)
    return PrimalDualPoint([rng.standard_normal(n) for n in problem.dims],
                           rng.standard_normal(problem.m))


def test_mixed_blocks_step_is_order_invariant():
    from itertools import permutations

    p = mixed_problem()
    assert p.offsets == (0, 3, 4, 5, 6)
    u = random_point(p, 1)
    params = SolverParams(rho=1.3, gamma=1.2, policy=StandardProximal([2.0, 1.0, 0.5, 3.0]))
    base = step(p, u, params)
    for order in permutations(range(p.N)):
        out = step(p, u, params, order=list(order))
        for a, b in zip(base.x, out.x):
            assert np.array_equal(a, b), order
        assert np.array_equal(base.lam, out.lam), order


def test_mixed_blocks_step_is_stationary():
    p = mixed_problem()
    u = random_point(p, 2)
    policy = StandardProximal([2.0, 1.0, 0.5, 3.0])
    params = SolverParams(rho=1.3, gamma=1.2, policy=policy)
    out = step(p, u, params)
    P_list = materialize_policy(policy, params.rho, p)
    assert stationarity_defect(p, u, out, params.rho, P_list) <= 1e-9


@pytest.mark.parametrize("method", ["jprox", "jacobi-plain", "gauss-seidel", "dual-decomp"])
def test_mixed_blocks_run_equals_public_steps(method):
    p = mixed_problem()
    params = SolverParams(rho=1.0, gamma=1.5, policy=StandardProximal(2.0), max_iters=5)
    u = random_point(p, 3)
    trace = run(p, params, u, method=method, record_points=True)
    assert trace.ks == range(6)
    for k, got in enumerate(recorded_points(p, trace)):
        for a, b in zip(got.x, u.x):
            assert np.array_equal(a, b), (k, a, b)
        assert np.array_equal(got.lam, u.lam), k
        u = step(p, u, params, method=method)


# -- an independent per-block oracle of the four methods ---------------------------------

def _oracle_scalar_root(F, x0):
    """Root of an increasing scalar function by bracketing and bisection to float precision."""
    lo, hi, step = x0, x0, 1.0
    while F(lo) > 0.0:
        lo, step = x0 - step, 2.0 * step
    step = 1.0
    while F(hi) < 0.0:
        hi, step = x0 + step, 2.0 * step
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(F(lo)) <= abs(F(hi)) else hi
        if F(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _oracle_step(problem, x, lam, penalty, P_list, sequential, step_size):
    """One step from per-block aggregates ``g_minus_i`` and dense solves."""
    new = [xi.copy() for xi in x]
    for i, (f, Ai, Pi) in enumerate(zip(problem.objectives, problem.A, P_list)):
        seen = new if sequential else x
        g_minus_i = np.zeros(problem.m)
        for j in range(problem.N):
            if j != i:
                g_minus_i = g_minus_i + problem.A[j] @ seen[j]
        if isinstance(f, QuadraticBlock):
            M = f.H + penalty * (Ai.T @ Ai) + Pi
            rhs = Ai.T @ lam - f.q - penalty * (Ai.T @ (g_minus_i - problem.c)) + Pi @ x[i]
            new[i] = np.linalg.solve(M, rhs)
        else:
            a = Ai[:, 0]

            def F(z, f=f, a=a, g=g_minus_i, xi=x[i][0], p=Pi[0, 0]):
                coupling = penalty * float(a @ (a * z + g - problem.c)) - float(a @ lam)
                return float(block_gradient(f, np.array([z]))[0]) + coupling + p * (z - xi)

            new[i] = np.array([_oracle_scalar_root(F, x[i][0])])
    r = -problem.c.copy()
    for Ai, xi in zip(problem.A, new):
        r = r + Ai @ xi
    return new, lam - step_size * r, r


def _oracle_dual_step(problem):
    """``mu / ||[A_1 ... A_N]||_2^2`` with ``mu`` the smallest block curvature bound."""
    mu = min(float(np.linalg.eigvalsh(f.H)[0]) if isinstance(f, QuadraticBlock) else f.a
             for f in problem.objectives)
    return mu / np.linalg.norm(np.hstack(problem.A), 2) ** 2


def _oracle_trace(problem, method, params, u0, ref, weights, steps):
    rho, gamma = params.rho, params.gamma
    penalty = 0.0 if method == "dual-decomp" else rho
    policy = params.policy if method == "jprox" else None
    P_list = materialize_policy(policy, rho, problem)
    sequential = method == "gauss-seidel"
    out = {"dis": [], "phi": [], "primal_residual": []}

    def record(x, lam, r):
        dis = max([float(np.linalg.norm(lam - ref.lam))]
                  + [float(np.linalg.norm(xi - ri)) for xi, ri in zip(x, ref.x)])
        phi = None
        if weights is not None:
            phi = float((lam - ref.lam) @ (lam - ref.lam)) / (2.0 * gamma * rho)
            for Wi, xi, ri in zip(weights.W, x, ref.x):
                phi += 0.5 * float((xi - ri) @ (Wi @ (xi - ri)))
        out["dis"].append(dis)
        out["phi"].append(phi)
        out["primal_residual"].append(float(np.linalg.norm(r)))

    x, lam = [xi.copy() for xi in u0.x], u0.lam.copy()
    r = sum(Ai @ xi for Ai, xi in zip(problem.A, x)) - problem.c
    record(x, lam, r)
    for k in range(steps):
        if method == "jprox":
            step_size = gamma * rho
        elif method == "dual-decomp":
            step_size = _oracle_dual_step(problem)
        else:
            step_size = rho
        x, lam, r = _oracle_step(problem, x, lam, penalty, P_list, sequential, step_size)
        record(x, lam, r)
    return out


@pytest.mark.parametrize("family", ["lcqp-3-10-4", "lcqp-1-6-3", "ra-6"])
@pytest.mark.parametrize("method", ["jprox", "jacobi-plain", "gauss-seidel", "dual-decomp"])
def test_run_matches_per_block_oracle(family, method):
    from jprox.certify import certify

    if family.startswith("lcqp"):
        inst = generate_lcqp(*(int(v) for v in family.split("-")[1:]), seed=3)
        ref = inst.optimum()
        u0 = PrimalDualPoint.zeros(inst.problem)
    else:
        inst = generate_resource_alloc(6, seed=1)
        ref = inst.optimum()
        # A zero start has a zero constraint residual here (c = 0), which
        # would leave the residual column without a scale to compare against.
        u0 = PrimalDualPoint([np.ones(1)] * 6, np.ones(1))
    problem = inst.problem
    rho, gamma = 1.0, 1.5
    cert = certify(problem, rho, gamma, StandardProximal("auto"))
    policy, weights = cert.proximal, PhiWeights.certified(problem, cert)
    weights = weights if method == "jprox" else None
    params = SolverParams(rho=rho, gamma=gamma, policy=policy, max_iters=200)
    trace = run(problem, params, u0, reference=ref, phi_context=weights, method=method)
    oracle = _oracle_trace(problem, method, params, u0, ref, weights, len(trace) - 1)
    for column in ("dis", "phi", "primal_residual"):
        got, want = getattr(trace, column), oracle[column]
        if want[0] is None:
            assert got is None
            continue
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 1e-10 * max(abs(want[0]), abs(w)), (column, k, g, w)


# -- failure semantics ---------------------------------------------------------------------

def test_run_turns_a_block_solve_failure_into_divergence(monkeypatch):
    def fails(*args):
        raise MaxItersExceeded("scalar solve missed its tolerance")

    monkeypatch.setattr(solvers, "_solve_scalar", fails)
    ra = generate_resource_alloc(6, seed=0)
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(5.0), max_iters=50)
    trace = run(ra.problem, params, PrimalDualPoint.zeros(ra.problem))
    assert trace.status == "diverged"
    assert trace.ks == range(1)
    assert "MaxItersExceeded" in trace.failure
    assert trace.final.x[0][0] == 0.0


@pytest.mark.parametrize("method", ["jprox", "gauss-seidel"])
def test_step_raises_a_block_solve_failure(monkeypatch, method):
    def fails(*args):
        raise MaxItersExceeded("injected failure")

    monkeypatch.setattr(solvers, "_solve_scalar", fails)
    ra = generate_resource_alloc(6, seed=0)
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(5.0))
    with pytest.raises(MaxItersExceeded, match="injected failure"):
        step(ra.problem, PrimalDualPoint.zeros(ra.problem), params, method=method)


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4], [5, 4, 3, 2, 1, 0, 0]])
def test_step_rejects_an_order_that_does_not_visit_every_block_once(order):
    ra = generate_resource_alloc(6, seed=0)
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(5.0))
    with pytest.raises(ValueError, match="order must visit every block exactly once"):
        step(ra.problem, PrimalDualPoint.zeros(ra.problem), params, method="gauss-seidel",
             order=order)


def test_run_still_raises_on_prepare_failures():
    p = two_scalar_blocks()
    # A prox-linear weight below its floor rho*||A_i||^2 = 1 leaves P_i indefinite.
    below_floor = ProxLinear([0.5, 1.0])
    with pytest.raises(NotPSD):
        run(p, SolverParams(rho=1.0, gamma=1.0, policy=below_floor), PrimalDualPoint.zeros(p))
    with pytest.raises(InvalidParameter):
        run(p, SolverParams(rho=1.0, gamma=1.0), PrimalDualPoint.zeros(p), method="newton")
    # A zero curvature bound leaves dual decomposition without a step.
    flat = BlockProblem((LogisticQuadBlock(0.0, 1.0, 0.0, 0.0),), (np.ones((1, 1)),), np.zeros(1))
    with pytest.raises(NotStronglyConvex):
        run(flat, SolverParams(rho=1.0, gamma=1.0), PrimalDualPoint.zeros(flat),
            method="dual-decomp")


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), 0.0, -1.0])
def test_solver_params_reject_a_rho_that_is_not_finite_and_positive(rho):
    with pytest.raises(InvalidParameter, match="rho"):
        SolverParams(rho=rho, gamma=1.0)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
def test_solver_params_reject_a_gamma_that_is_not_finite_and_positive(gamma):
    with pytest.raises(InvalidParameter, match="gamma"):
        SolverParams(rho=1.0, gamma=gamma)


@pytest.mark.parametrize("dis_tol", [float("nan"), float("inf"), -1e-12])
def test_solver_params_reject_a_dis_tol_that_is_not_finite_and_nonnegative(dis_tol):
    with pytest.raises(InvalidParameter, match="dis_tol"):
        SolverParams(rho=1.0, gamma=1.0, dis_tol=dis_tol)


def test_scalar_newton_stops_when_the_bracket_is_two_adjacent_floats():
    # The root sits near 5564, where the residual's float spacing is about
    # 1e-12: no float meets |F| <= 1e-12 here, so the search must return the
    # root to float precision instead of running out of iterations.
    block = LogisticQuadBlock(0.95, -0.31, 1.0, -1.0)
    x = scalar_solve(block, rho=1.0, lam_k=10849.6, g_minus_i=0.0, c=0.0, x_k=0.0, P_scalar=0.0)
    # The logistic term is exactly 0 there, so the root solves a linear equation.
    assert abs(x - (10849.6 + 0.95) / 1.95) <= 2.0 * np.spacing(x)


def test_run_records_phase_timings():
    import time

    inst = generate_lcqp(3, 6, 4, seed=5)
    params = SolverParams(rho=1.0, gamma=1.5, policy=StandardProximal(2.0), max_iters=30)
    start = time.perf_counter()
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem),
                reference=inst.optimum())
    wall = time.perf_counter() - start
    assert set(trace.timings) == {"prepare", "step", "record"}
    assert all(v >= 0.0 for v in trace.timings.values())
    assert sum(trace.timings.values()) <= wall


# -- the affine engine of all-quadratic Jacobi runs -------------------------------------

def _random_phi_weights(problem, gamma, rho, seed):
    rng = np.random.default_rng(seed)
    W = []
    for n in problem.dims:
        G = rng.standard_normal((n, n))
        W.append(G @ G.T + np.eye(n))
    return PhiWeights(gamma, rho, W)


#: The draws of the oracle properties of the affine engine.
_ORACLE_DRAWS = dict(
    N=st.integers(1, 4), n=st.integers(1, 5), m=st.integers(1, 8),
    seed=st.integers(0, 2 ** 16), policy=st.sampled_from(["standard", "proxlinear", "none"]),
    method=st.sampled_from(["jprox", "jacobi-plain", "dual-decomp"]),
    rho=st.floats(0.1, 3.0), gamma=st.floats(0.1, 1.9), tau=st.floats(0.1, 10.0))


@settings(max_examples=60, deadline=None)
@given(**_ORACLE_DRAWS)
def test_affine_run_matches_per_block_oracle(N, n, m, seed, policy, method, rho, gamma, tau):
    _assert_affine_run_matches_oracle(N, n, m, seed, policy, method, rho, gamma, tau,
                                      max_iters=50)


@settings(max_examples=30, deadline=None)
@given(**_ORACLE_DRAWS)
def test_power_chunks_match_per_block_oracle(N, n, m, seed, policy, method, rho, gamma, tau):
    # With the break-even at 0 every run past its first chunk takes power chunks.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "POWER_MIN_STEPS", 0)
        _assert_affine_run_matches_oracle(N, n, m, seed, policy, method, rho, gamma, tau,
                                          max_iters=3 * solvers.RECORD_CHUNK + 10)


def _assert_affine_run_matches_oracle(N, n, m, seed, policy, method, rho, gamma, tau, max_iters):
    from jprox.errors import DegenerateAfterRetries

    try:
        inst = generate_lcqp(N, m, n, seed)
    except DegenerateAfterRetries:
        assume(False)
    problem = inst.problem
    concrete = {
        "standard": StandardProximal(tau),
        "proxlinear": ProxLinear([rho * np.linalg.norm(Ai, 2) ** 2 + tau for Ai in problem.A]),
        "none": None,
    }[policy]
    params = SolverParams(rho=rho, gamma=gamma, policy=concrete, max_iters=max_iters)
    ref = inst.optimum()
    u0 = random_point(problem, seed)
    weights = _random_phi_weights(problem, gamma, rho, seed)
    trace = run(problem, params, u0, reference=ref, phi_context=weights, method=method)
    assert trace.engine == "affine"
    oracle = _oracle_trace(problem, method, params, u0, ref, weights, len(trace) - 1)
    for column in ("dis", "phi", "primal_residual"):
        got, want = getattr(trace, column), oracle[column]
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 1e-10 * max(abs(want[0]), abs(w)), (column, k, g, w)


def test_affine_sweep_keeps_every_status_of_the_block_sweep(monkeypatch, tmp_path):
    from jprox.experiments import GAMMA_GRID, SweepConfig, run_sweep

    inst = generate_lcqp(3, 100, 40, seed=0)
    sweep = SweepConfig(rho_grid=inst.rho_grid, gamma_grid=GAMMA_GRID)
    for name in ("affine", "blocks"):
        (tmp_path / name).mkdir()
    affine = run_sweep(inst, sweep, trace_dir=tmp_path / "affine")
    monkeypatch.setattr(solvers, "AFFINE_MAX_ENTRIES", 0)
    blocks = run_sweep(inst, sweep, trace_dir=tmp_path / "blocks")
    assert len(affine) == 16
    for key, cell in affine.items():
        other = blocks[key]
        got = cell_trace(cell, tmp_path / "affine", ("k", "dis"))
        want = cell_trace(other, tmp_path / "blocks", ("k", "dis"))
        assert (cell.engine, other.engine) == ("affine", "sweep"), key
        assert cell.status == other.status, key
        for k, (g, w) in enumerate(zip(got["dis"], want["dis"])):
            assert abs(g - w) <= 1e-10 * max(want["dis"][0], w), (key, k)
        if cell.status != "converged":
            assert got["k"][-1] == want["k"][-1], key
            continue
        # Both runs stop at dis <= 1e-12, where the two engines' round-off
        # differs by a few percent (the per-block oracle differs from the
        # block sweep as much): the step counts may differ by the steps the
        # run needs to cover that gap, plus one.
        k = int(min(got["k"][-1], want["k"][-1]))
        gap = abs(math.log(got["dis"][k] / want["dis"][k]))
        per_step = math.log(want["dis"][k - 100] / want["dis"][k]) / 100
        assert abs(got["k"][-1] - want["k"][-1]) <= 1 + math.ceil(gap / per_step), key


def _map_from_steps(problem, params, method):
    """``(M, b)`` assembled column by column from public block-sweep steps.

    The step is affine, so ``b`` is the step from zero and column ``j`` of
    ``M`` is the step from the unit vector ``e_j`` minus ``b``.
    """
    n = sum(problem.dims)

    def stepped(z):
        u = PrimalDualPoint(problem.split(z[:n].copy()), z[n:].copy())
        out = step(problem, u, params, method=method)
        return np.concatenate(out.x + [out.lam])

    b = stepped(np.zeros(n + problem.m))
    return np.column_stack([stepped(e) - b for e in np.eye(n + problem.m)]), b


@pytest.mark.parametrize("method", ["jprox", "jacobi-plain", "dual-decomp"])
def test_affine_map_matches_the_map_of_block_sweep_steps(monkeypatch, method):
    inst = generate_lcqp(3, 6, 4, seed=5)
    params = SolverParams(rho=1.3, gamma=0.7, policy=StandardProximal(2.0))
    M, b = solvers.affine_map(inst.problem, params, method)
    monkeypatch.setattr(solvers, "AFFINE_MAX_ENTRIES", 0)
    M_steps, b_steps = _map_from_steps(inst.problem, params, method)
    assert M.shape == (18, 18) and b.shape == (18,)
    np.testing.assert_allclose(M, M_steps, rtol=1e-12, atol=1e-12 * np.abs(M_steps).max())
    np.testing.assert_allclose(b, b_steps, rtol=1e-12, atol=1e-12 * np.abs(b_steps).max())
    # Above the cap the same map is built on request.
    assert all(np.array_equal(a, w) for a, w in zip(solvers.affine_map(inst.problem, params,
                                                                        method), (M, b)))


def test_affine_map_refuses_a_step_that_is_not_affine():
    params = SolverParams(rho=1.0, gamma=1.0)
    with pytest.raises(InvalidParameter, match="only a Jacobi step"):
        solvers.affine_map(generate_lcqp(3, 6, 4, seed=5).problem, params, "gauss-seidel")
    with pytest.raises(InvalidParameter, match="only a Jacobi step"):
        solvers.affine_map(mixed_problem(), params)


#: Entries of ``M`` below which the property below runs the affine engine:
#: ``sum n_i + m <= 10``, so the drawn sizes fall on both sides.
_PROPERTY_CAP = 100


#: The draws of the properties that compare the affine engine with the block sweep.
_CAP_DRAWS = dict(
    N=st.integers(1, 4), n=st.integers(1, 5), m=st.integers(1, 8),
    seed=st.integers(0, 2 ** 16), method=st.sampled_from(["jprox", "jacobi-plain", "dual-decomp"]),
    rho=st.floats(0.1, 3.0), gamma=st.floats(0.1, 1.9), tau=st.floats(0.1, 10.0))


@settings(max_examples=40, deadline=None)
@given(**_CAP_DRAWS)
def test_affine_rows_match_the_block_sweep_rows_on_both_sides_of_the_cap(N, n, m, seed, method,
                                                                         rho, gamma, tau):
    _assert_affine_rows_match_block_sweep_rows(N, n, m, seed, method, rho, gamma, tau)


@settings(max_examples=40, deadline=None)
@given(**_CAP_DRAWS)
def test_power_rows_match_the_block_sweep_rows_on_both_sides_of_the_cap(N, n, m, seed, method,
                                                                        rho, gamma, tau):
    # With the break-even at 0 every affine run takes power chunks after step 64.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "POWER_MIN_STEPS", 0)
        _assert_affine_rows_match_block_sweep_rows(N, n, m, seed, method, rho, gamma, tau)


def _assert_affine_rows_match_block_sweep_rows(N, n, m, seed, method, rho, gamma, tau):
    # Over 300 steps the two engines' iterates differ by round-off: at most
    # 2.3e-13 of the larger distance to the optimum (row 0's or row k's) in
    # 300 drawn runs, against a bound of 1e-10.  The runs have no reference,
    # so no row can meet the stop rule by round-off (a 1x1 problem can land
    # on its optimum exactly); runs that diverge stop at the same step up to one.
    from jprox.errors import DegenerateAfterRetries

    try:
        inst = generate_lcqp(N, m, n, seed)
    except DegenerateAfterRetries:
        assume(False)
    problem, ref = inst.problem, inst.optimum()
    params = SolverParams(rho=rho, gamma=gamma, policy=StandardProximal(tau), max_iters=300)
    u0 = random_point(problem, seed)
    traces = {}
    with pytest.MonkeyPatch.context() as patch:
        for cap in (_PROPERTY_CAP, 0):
            patch.setattr(solvers, "AFFINE_MAX_ENTRIES", cap)
            traces[cap] = run(problem, params, u0, method=method, record_points=True)
    got, want = traces[_PROPERTY_CAP], traces[0]
    fused = (sum(problem.dims) + problem.m) ** 2 <= _PROPERTY_CAP
    assert (got.engine, want.engine) == ("affine" if fused else "sweep", "sweep")
    assert abs(len(got) - len(want)) <= (1 if "diverged" in (got.status, want.status) else 0)
    z_ref = np.concatenate(ref.x + [ref.lam])
    scale0 = np.linalg.norm(np.concatenate(u0.x + [u0.lam]) - z_ref)
    for k, (zg, zw) in enumerate(zip(got.points, want.points)):
        if not fused:
            assert zg.tobytes() == zw.tobytes(), k
        assert np.linalg.norm(zg - zw) <= 1e-10 * max(scale0, np.linalg.norm(zw - z_ref)), k


def _stepwise(problem, params, u0, ref, method):
    """Points, ``dis`` and status of a loop of public steps under the run's stop rule."""
    from jprox.problem import block_distance

    u, points, dis = u0.copy(), [], []
    status = "max_iters"
    for k in range(params.max_iters + 1):
        if k:
            u = step(problem, u, params, method=method)
        points.append(u)
        d = block_distance(np.concatenate(u.x) - np.concatenate(ref.x), u.lam - ref.lam,
                           np.asarray(problem.offsets))
        dis.append(d)
        if not np.isfinite(d) or d > solvers.DIVERGENCE_LIMIT:
            status = "diverged"
            break
        if d <= params.dis_tol:
            status = "converged"
            break
    return points, dis, status


def _assert_rows_of_stepwise_loop(problem, params, u0, ref, method="jprox", engine="affine",
                                  rel=0.0):
    """The run's rows are the loop's: bit for bit, or with ``rel`` within
    ``rel * max(dis_0, dis_k)`` of them (distance and ``dis`` alike)."""
    trace = run(problem, params, u0, reference=ref, method=method, record_points=True)
    points, dis_loop, status = _stepwise(problem, params, u0, ref, method)
    assert trace.engine == engine
    assert trace.status == status
    assert trace.ks == range(len(points))
    for k, (got, want) in enumerate(zip(recorded_points(problem, trace), points)):
        if rel:
            assert dis(got, want) <= rel * max(dis_loop[0], dis_loop[k]), k
            continue
        for a, b in zip(got.x, want.x):
            assert np.array_equal(a, b)
        assert np.array_equal(got.lam, want.lam)
    for g, w in zip(trace.dis, dis_loop):
        assert abs(g - w) <= max(1e-14 * w, rel * max(dis_loop[0], w))
    final = np.concatenate(trace.final.x + [trace.final.lam])
    assert np.array_equal(final, trace.points[-1])
    return trace


def test_affine_run_converges_mid_chunk():
    # The run takes power chunks after step 64, whose rows agree with the loop's
    # to round-off: the stop rule sits far above it and keeps the step count.
    inst = generate_lcqp(3, 6, 4, seed=13)
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(10.0), max_iters=3000,
                          dis_tol=1e-8)
    assert params.max_iters - solvers.RECORD_CHUNK >= solvers.POWER_MIN_STEPS
    trace = _assert_rows_of_stepwise_loop(inst.problem, params,
                                          PrimalDualPoint.zeros(inst.problem), inst.optimum(),
                                          rel=1e-10)
    assert trace.status == "converged"
    assert trace.ks[-1] > solvers.RECORD_CHUNK and trace.ks[-1] % solvers.RECORD_CHUNK != 0


def test_affine_run_diverges_mid_chunk():
    inst = generate_lcqp(3, 6, 4, seed=41)
    params = SolverParams(rho=10.0, gamma=1.0, policy=None, max_iters=3000)
    trace = _assert_rows_of_stepwise_loop(inst.problem, params,
                                          PrimalDualPoint.zeros(inst.problem), inst.optimum(),
                                          method="jacobi-plain")
    assert trace.status == "diverged"
    assert 0 < trace.ks[-1] < solvers.RECORD_CHUNK


@pytest.mark.parametrize("max_iters", [1, 10, 64, 150])
def test_affine_run_stops_at_max_iters_inside_or_at_a_chunk(max_iters):
    inst = generate_lcqp(3, 6, 4, seed=13)
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(10.0),
                          max_iters=max_iters)
    trace = _assert_rows_of_stepwise_loop(inst.problem, params,
                                          PrimalDualPoint.zeros(inst.problem), inst.optimum())
    assert trace.status == "max_iters"
    assert trace.ks[-1] == max_iters


def test_affine_run_converged_at_the_reference_takes_no_step():
    inst = generate_lcqp(2, 4, 3, seed=37)
    ref = inst.optimum()
    params = SolverParams(rho=1.0, gamma=1.0, max_iters=100, dis_tol=1e-12)
    trace = _assert_rows_of_stepwise_loop(inst.problem, params, ref.copy(), ref)
    assert trace.status == "converged" and trace.ks == range(1)
    assert np.array_equal(trace.dis, [0.0])


@pytest.mark.parametrize("max_iters", [1, 64, 150])
def test_buffered_affine_rows_equal_the_unbuffered_formula(max_iters):
    # Reference: each row as the expression M @ z + b on fresh arrays, and the
    # residual norms of each chunk's rows from one product X A' - c.
    inst = generate_lcqp(3, 6, 4, seed=13)
    problem = inst.problem
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(10.0),
                          max_iters=max_iters)
    M, b = solvers._Prepared(problem, params, "jprox").affine
    u0 = random_point(problem, 3)
    trace = run(problem, params, u0, record_points=True)
    assert trace.engine == "affine" and trace.ks[-1] == max_iters
    n, A, c = sum(problem.dims), problem.stacked_A(), problem.c
    z = np.concatenate(u0.x + [u0.lam])
    rows = []
    for k, row in enumerate(trace.points[1:], 1):
        z = M @ z + b
        rows.append(z)
        assert row[:n].tobytes() == z[:n].tobytes(), k
        assert row[n:].tobytes() == z[n:].tobytes(), k
    assert np.concatenate(trace.final.x).tobytes() == z[:n].tobytes()
    assert trace.final.lam.tobytes() == z[n:].tobytes()
    for start in range(0, max_iters, solvers.RECORD_CHUNK):
        R = np.stack(rows[start:start + solvers.RECORD_CHUNK])[:, :n] @ A.T - c
        recorded = trace.primal_residual[1 + start:1 + start + len(R)]
        assert np.sqrt(np.einsum("ij,ij->i", R, R)).tobytes() == recorded.tobytes(), start
    one = step(problem, u0, params)
    assert np.concatenate(one.x).tobytes() == trace.points[1, :n].tobytes()
    assert one.lam.tobytes() == trace.points[1, n:].tobytes()


@pytest.mark.parametrize("family", ["lcqp", "ra"])
def test_the_final_point_keeps_no_chunk_buffer_alive(family):
    problem = (generate_lcqp(2, 4, 3, seed=5) if family == "lcqp"
               else generate_resource_alloc(6, seed=2)).problem
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(4.0),
                          max_iters=2 * solvers.RECORD_CHUNK + 5)
    trace = run(problem, params, random_point(problem, 8))
    assert trace.ks[-1] == params.max_iters
    for a in (*trace.final.x, trace.final.lam):
        owner = a if a.base is None else a.base
        assert owner.nbytes <= 8 * (sum(problem.dims) + problem.m)


# -- power chunks of long affine runs -------------------------------------------------------

def _power_of(problem, params):
    """``(M, b)`` of one step and ``(P, b_p)`` of ``RECORD_CHUNK`` steps, as a run builds them."""
    M, b = solvers._Prepared(problem, params, "jprox").affine
    return M, b, *solvers._chunk_map(M, b)


@pytest.mark.parametrize("shape", [(3, 6, 4), (2, 30, 20)], ids=["d18", "d70"])
def test_chunk_map_is_the_power_and_the_sum_of_the_step_map(shape):
    # n + m is 18 (below the chunk length) and 70.  P matches numpy's matrix
    # power and b_p the explicit sum within 1e-13 of their largest entries
    # (the largest differences seen are 0 and 5e-15 of it).  The build is
    # pure: M and b keep their bytes, and neither result shares their memory.
    p = solvers.RECORD_CHUNK
    inst = generate_lcqp(*shape, seed=13)
    d = sum(inst.problem.dims) + inst.problem.m
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(50.0))
    M, b = solvers._Prepared(inst.problem, params, "jprox").affine
    M_bytes, b_bytes = M.tobytes(), b.tobytes()
    P, b_p = solvers._chunk_map(M, b)
    assert M.tobytes() == M_bytes and b.tobytes() == b_bytes
    assert P.shape == (d, d) and b_p.shape == (d,)
    assert not any(np.shares_memory(out, a) for out in (P, b_p) for a in (M, b))
    want = np.linalg.matrix_power(M, p)
    assert np.abs(P - want).max() <= 1e-13 * np.abs(want).max()
    want = sum(np.linalg.matrix_power(M, j) @ b for j in range(p))
    assert np.abs(b_p - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shape", [(3, 6, 4), (2, 30, 20)], ids=["d18", "d70"])
def test_power_rows_equal_the_chunk_formula(shape):
    # Reference: the first chunk's rows as M @ z + b on fresh arrays, then
    # each later chunk as the previous chunk's rows times P' plus b_p, from
    # the map a fresh build gives.  The run is the shortest that switches.
    p = solvers.RECORD_CHUNK
    inst = generate_lcqp(*shape, seed=13)
    problem = inst.problem
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(50.0),
                          max_iters=p + solvers.POWER_MIN_STEPS + 10)
    M, b, P, b_p = _power_of(problem, params)
    u0 = random_point(problem, 3)
    trace = run(problem, params, u0, record_points=True)
    assert trace.ks[-1] == params.max_iters
    rows = trace.points
    z = rows[0]
    for k in range(1, p + 1):
        z = M @ z + b
        assert rows[k].tobytes() == z.tobytes(), k
    for start in range(p + 1, len(rows), p):
        chunk = rows[start:start + p]
        want = rows[start - p:start - p + len(chunk)] @ P.T + b_p
        assert chunk.tobytes() == want.tobytes(), start
        assert len(set(trace.elapsed[start:start + p])) == 1, start
    n, A, c = sum(problem.dims), problem.stacked_A(), problem.c
    for start in range(1, len(rows), p):
        R = rows[start:start + p, :n] @ A.T - c
        recorded = trace.primal_residual[start:start + len(R)]
        assert np.sqrt(np.einsum("ij,ij->i", R, R)).tobytes() == recorded.tobytes(), start
    final = np.concatenate(trace.final.x + [trace.final.lam])
    assert final.tobytes() == rows[-1].tobytes()


def test_a_run_below_the_break_even_builds_no_power(monkeypatch):
    builds = []
    chunk_map = solvers._chunk_map
    monkeypatch.setattr(solvers, "_chunk_map",
                        lambda M, b: builds.append(M) or chunk_map(M, b))
    inst = generate_lcqp(3, 6, 4, seed=13)
    below = solvers.RECORD_CHUNK + solvers.POWER_MIN_STEPS - 1
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(10.0), max_iters=below)
    trace = _assert_rows_of_stepwise_loop(inst.problem, params,
                                          PrimalDualPoint.zeros(inst.problem), inst.optimum())
    assert trace.ks[-1] == below and builds == []
    # One step more reaches the break-even, and the run builds the power once.
    run(inst.problem, dataclasses.replace(params, max_iters=below + 1),
        PrimalDualPoint.zeros(inst.problem))
    assert len(builds) == 1


def test_power_run_diverges_within_one_step_of_the_loop():
    # rho(M) is about 1.07 here: the run leaves 1e12 in a power chunk, 429
    # steps in.  Its dis agrees with the loop's within 1e-10 of the larger of
    # dis_0 and dis_k as it grows.
    inst = generate_lcqp(3, 6, 4, seed=1)
    problem, ref, u0 = inst.problem, inst.optimum(), PrimalDualPoint.zeros(inst.problem)
    params = SolverParams(rho=0.3, gamma=1.0, policy=StandardProximal(0.5), max_iters=3000)
    assert params.max_iters - solvers.RECORD_CHUNK >= solvers.POWER_MIN_STEPS
    trace = run(problem, params, u0, reference=ref)
    _, dis_loop, status = _stepwise(problem, params, u0, ref, "jprox")
    assert trace.status == status == "diverged"
    assert trace.ks[-1] > solvers.RECORD_CHUNK and trace.ks[-1] % solvers.RECORD_CHUNK != 0
    assert abs(trace.ks[-1] - (len(dis_loop) - 1)) <= 1
    for k, (g, w) in enumerate(zip(trace.dis[:-1], dis_loop)):
        assert abs(g - w) <= 1e-10 * max(dis_loop[0], w), k


def test_the_power_build_counts_as_preparation(monkeypatch):
    import time

    chunk_map = solvers._chunk_map

    def slow_chunk_map(M, b):
        time.sleep(0.05)
        return chunk_map(M, b)

    monkeypatch.setattr(solvers, "_chunk_map", slow_chunk_map)
    monkeypatch.setattr(solvers, "POWER_MIN_STEPS", 0)
    inst = generate_lcqp(3, 6, 4, seed=13)
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(10.0), max_iters=200)
    start = time.perf_counter()
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem))
    wall = time.perf_counter() - start
    assert trace.ks[-1] == params.max_iters and trace.timings["prepare"] >= 0.05
    assert trace.timings["step"] < 0.05 and trace.timings["record"] < 0.05
    assert sum(trace.timings.values()) <= wall


# -- the chunked recording of the block sweep ---------------------------------------------

def _sweep_run(family, rho, max_iters, dis_tol=0.0):
    """Problem, parameters, start, reference and method of a block-sweep run.

    ``"gs-lcqp"`` is Gauss-Seidel on an LCQP; ``"ra-6"`` is the proximal
    Jacobi method on a resource-allocation problem with six scalar blocks.
    """
    if family == "gs-lcqp":
        inst = generate_lcqp(3, 6, 4, seed=13)
        problem, ref, method = inst.problem, inst.optimum(), "gauss-seidel"
    else:
        problem = generate_resource_alloc(6, seed=0).problem
        ref, method = reference_solution(problem).point, "jprox"
    params = SolverParams(rho=rho, gamma=1.0, policy=StandardProximal(5.0),
                          max_iters=max_iters, dis_tol=dis_tol)
    return problem, params, PrimalDualPoint.zeros(problem), ref, method


@pytest.mark.parametrize("family", ["gs-lcqp", "ra-6"])
def test_block_sweep_run_computes_one_constraint_residual_per_iterate(monkeypatch, family):
    calls = []
    original = solvers.constraint_residual

    def counting(problem, x):
        calls.append(len(x))
        return original(problem, x)

    problem, params, u0, ref, method = _sweep_run(family, 1.0, 20)
    monkeypatch.setattr(solvers, "constraint_residual", counting)
    trace = run(problem, params, u0, reference=ref, method=method, record_points=True)
    assert trace.engine == "sweep" and len(trace) == 21
    assert len(calls) == len(trace)
    for point, recorded in zip(recorded_points(problem, trace), trace.primal_residual):
        assert recorded == float(np.linalg.norm(original(problem, point.x)))


@pytest.mark.parametrize("case", ["affine-rows", "affine-power", "gs-lcqp", "ra-6"])
def test_each_kept_chunk_shares_one_elapsed_stamp(monkeypatch, case):
    # Row 0 and then each chunk of RECORD_CHUNK rows (the last one cut short)
    # are recorded at once, under one perf_counter() reading; the readings
    # never decrease.  "affine-rows" stays below the power switch and
    # "affine-power" runs past it.
    p = solvers.RECORD_CHUNK
    builds = []
    chunk_map = solvers._chunk_map
    monkeypatch.setattr(solvers, "_chunk_map", lambda M, b: builds.append(M) or chunk_map(M, b))
    if case.startswith("affine"):
        inst = generate_lcqp(3, 6, 4, seed=13)
        max_iters = 3 * p + 5 if case == "affine-rows" else p + solvers.POWER_MIN_STEPS + 5
        params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(10.0),
                              max_iters=max_iters)
        problem, u0, ref, method = (inst.problem, PrimalDualPoint.zeros(inst.problem),
                                    inst.optimum(), "jprox")
    else:
        problem, params, u0, ref, method = _sweep_run(case, 1.0, 3 * p + 5)
    trace = run(problem, params, u0, reference=ref, method=method)
    assert trace.engine == ("affine" if case.startswith("affine") else "sweep")
    assert len(builds) == (case == "affine-power")
    assert trace.status == "max_iters" and len(trace.elapsed) == len(trace)
    assert len(trace) == params.max_iters + 1
    chunks = [trace.elapsed[:1]] + [trace.elapsed[k:k + p] for k in range(1, len(trace), p)]
    assert len(chunks[-1]) == 5
    for j, chunk in enumerate(chunks):
        assert len(set(chunk.tolist())) == 1, j
    assert np.all(np.diff(trace.elapsed) >= 0.0)


def _formula_sweep_step(prepared, x, lam):
    """One block-sweep step as formulas on fresh arrays, blocks in the order ``0..N-1``."""
    problem, rho = prepared.problem, prepared.rho
    A = problem.stacked_A()
    w = lam - rho * (A @ x - problem.c)
    x_new = x.copy()
    for b in prepared.blocks:
        x_i = x[b.sl]
        if b.factor is not None:
            x_new[b.sl] = b.factor.solve(b.At @ w + b.B @ x_i - b.f.q)
        else:
            x0 = float(x_i[0])
            x_new[b.sl] = solvers._solve_scalar(b.f, b.B, -float(b.At @ w) - b.B * x0, b.P, x0)[0]
        if prepared.sequential:
            w = w - rho * (b.A @ (x_new[b.sl] - x_i))
    r = A @ x_new - problem.c
    return x_new, lam - prepared.dual_step * r, r


@pytest.mark.parametrize("family", ["gs-lcqp", "ra-6"])
@pytest.mark.parametrize("max_iters", [1, 64, 150])
def test_buffered_block_sweep_rows_equal_the_unbuffered_formula(family, max_iters):
    problem, params, _, _, method = _sweep_run(family, 1.0, max_iters)
    prepared = solvers._Prepared(problem, params, method)
    u0 = random_point(problem, 3)
    trace = run(problem, params, u0, method=method, record_points=True)
    assert trace.engine == "sweep" and trace.ks[-1] == max_iters
    x, lam, n = np.concatenate(u0.x), u0.lam, sum(problem.dims)
    for k, row in enumerate(trace.points[1:], 1):
        x, lam, r = _formula_sweep_step(prepared, x, lam)
        assert row[:n].tobytes() == x.tobytes(), k
        assert row[n:].tobytes() == lam.tobytes(), k
        assert trace.primal_residual[k] == math.sqrt(r @ r), k
    assert np.concatenate(trace.final.x).tobytes() == x.tobytes()
    assert trace.final.lam.tobytes() == lam.tobytes()
    one = step(problem, u0, params, method=method)
    assert np.concatenate(one.x).tobytes() == trace.points[1, :n].tobytes()
    assert one.lam.tobytes() == trace.points[1, n:].tobytes()


def _gauss_seidel_counterexample():
    """Three scalar quadratic blocks on which Gauss-Seidel ADMM diverges.

    The coupling matrix is the counterexample of Chen, He, Ye and Yuan
    (Math. Program. 2016) to the convergence of multi-block ADMM; the
    curvature 0.01 keeps the blocks strongly convex without stopping the
    growth.  The optimum is the origin.
    """
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    return BlockProblem(tuple(QuadraticBlock(np.array([[0.01]]), np.zeros(1)) for _ in range(3)),
                        tuple(A[:, [i]] for i in range(3)), np.zeros(3))


@pytest.mark.parametrize("family, rho", [("gs-lcqp", 1.0), ("ra-6", 0.1)])
def test_block_sweep_run_converges_mid_chunk(family, rho):
    problem, params, u0, ref, method = _sweep_run(family, rho, 3000, dis_tol=1e-8)
    trace = _assert_rows_of_stepwise_loop(problem, params, u0, ref, method, engine="sweep")
    assert trace.status == "converged"
    assert trace.ks[-1] > solvers.RECORD_CHUNK and trace.ks[-1] % solvers.RECORD_CHUNK != 0


def test_gauss_seidel_lcqp_run_diverges_mid_chunk():
    problem = _gauss_seidel_counterexample()
    params = SolverParams(rho=1.0, gamma=1.0, max_iters=3000)
    u0 = PrimalDualPoint([np.ones(1)] * 3, np.ones(3))
    trace = _assert_rows_of_stepwise_loop(problem, params, u0, PrimalDualPoint.zeros(problem),
                                          "gauss-seidel", engine="sweep")
    assert trace.status == "diverged" and trace.failure is None
    assert trace.ks[-1] > solvers.RECORD_CHUNK and trace.ks[-1] % solvers.RECORD_CHUNK != 0


def test_resource_allocation_run_diverges_mid_chunk():
    problem, params, u0, ref, method = _sweep_run("ra-6", 10.0, 3000)
    trace = _assert_rows_of_stepwise_loop(problem, params, u0, ref, method, engine="sweep")
    assert trace.status == "diverged" and trace.failure is None
    assert 0 < trace.ks[-1] < solvers.RECORD_CHUNK


@pytest.mark.parametrize("family", ["gs-lcqp", "ra-6"])
@pytest.mark.parametrize("max_iters", [1, 10, 64, 150])
def test_block_sweep_run_stops_at_max_iters_inside_or_at_a_chunk(family, max_iters):
    problem, params, u0, ref, method = _sweep_run(family, 1.0, max_iters)
    trace = _assert_rows_of_stepwise_loop(problem, params, u0, ref, method, engine="sweep")
    assert trace.status == "max_iters"
    assert trace.ks[-1] == max_iters


def _fail_scalar_solves_from_call(monkeypatch, first_failing_call):
    """Make every ``_solve_scalar`` call from the ``first_failing_call``-th on raise."""
    calls = []
    original = solvers._solve_scalar

    def counting(*args):
        calls.append(args)
        if len(calls) >= first_failing_call:
            raise MaxItersExceeded("injected failure")
        return original(*args)

    monkeypatch.setattr(solvers, "_solve_scalar", counting)


def _assert_same_rows(got, want):
    assert got.ks == want.ks and got.phi is want.phi is None
    for column in ("dis", "primal_residual", "points"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column
    assert all(np.array_equal(x, y) for x, y in zip(got.final.x, want.final.x))
    assert np.array_equal(got.final.lam, want.final.lam)
    assert got.newton_max_residual == want.newton_max_residual


def test_run_keeps_the_rows_before_a_block_solve_failure_mid_chunk(monkeypatch):
    # Six scalar blocks make six scalar solves per step: call 421 is the
    # first of step 71, the seventh step of the second chunk.
    problem, params, u0, ref, method = _sweep_run("ra-6", 1.0, 200)
    want = run(problem, dataclasses.replace(params, max_iters=70), u0, reference=ref,
               record_points=True)
    _fail_scalar_solves_from_call(monkeypatch, 421)
    trace = run(problem, params, u0, reference=ref, record_points=True)
    assert trace.status == "diverged"
    assert trace.ks == range(71)
    assert trace.failure == "step 71: MaxItersExceeded: injected failure"
    _assert_same_rows(trace, want)


@pytest.mark.parametrize("failing_step", [62, 63, 64])
def test_a_failure_in_a_discarded_step_is_not_kept(monkeypatch, failing_step):
    # Gauss-Seidel converges at step 61 here; every step from failing_step on fails.
    ra = generate_resource_alloc(6, seed=0)
    ref = reference_solution(ra.problem).point
    params = SolverParams(rho=1.0, gamma=1.0, max_iters=3000, dis_tol=1e-8)
    u0 = PrimalDualPoint.zeros(ra.problem)
    want = run(ra.problem, params, u0, reference=ref, method="gauss-seidel", record_points=True)
    assert want.status == "converged" and want.ks[-1] == 61
    _fail_scalar_solves_from_call(monkeypatch, 6 * (failing_step - 1) + 1)
    trace = run(ra.problem, params, u0, reference=ref, method="gauss-seidel",
                record_points=True)
    assert trace.status == "converged"
    assert trace.failure is None
    _assert_same_rows(trace, want)


def test_newton_residual_is_the_worst_over_the_kept_steps(monkeypatch):
    # Each scalar solve reports its call count as its residual, so the
    # worst residual grows with every step, discarded steps included.
    calls = []
    original = solvers._solve_scalar

    def counting(*args):
        calls.append(args)
        return original(*args)[0], float(len(calls))

    monkeypatch.setattr(solvers, "_solve_scalar", counting)
    problem, params, u0, ref, method = _sweep_run("ra-6", 0.1, 3000, dis_tol=1e-8)
    trace = run(problem, params, u0, reference=ref, method=method)
    k = trace.ks[-1]
    assert trace.status == "converged" and k % solvers.RECORD_CHUNK != 0
    calls.clear()
    capped = run(problem, dataclasses.replace(params, max_iters=k, dis_tol=0.0), u0,
                 reference=ref, method=method)
    assert capped.ks[-1] == k
    assert trace.newton_max_residual == capped.newton_max_residual == 6.0 * k


@pytest.mark.parametrize("method", ["jprox", "jacobi-plain", "dual-decomp"])
def test_all_quadratic_jacobi_runs_take_the_affine_engine(method):
    inst = generate_lcqp(3, 6, 4, seed=5)
    params = SolverParams(rho=1.0, gamma=1.5, policy=StandardProximal(2.0), max_iters=5)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem), method=method)
    assert trace.engine == "affine"


def _engine(problem, method="jprox"):
    params = SolverParams(rho=1.0, gamma=1.5, policy=StandardProximal(2.0), max_iters=5)
    return run(problem, params, PrimalDualPoint.zeros(problem), method=method).engine


def test_other_runs_take_the_block_sweep(monkeypatch):
    lcqp = generate_lcqp(3, 6, 4, seed=5).problem
    assert _engine(lcqp, "gauss-seidel") == "sweep"
    assert _engine(mixed_problem()) == "sweep"
    assert _engine(generate_resource_alloc(6, seed=0).problem) == "sweep"
    # M of this problem has (12 + 6)**2 = 324 entries.
    monkeypatch.setattr(solvers, "AFFINE_MAX_ENTRIES", 323)
    assert _engine(lcqp) == "sweep"
    monkeypatch.setattr(solvers, "AFFINE_MAX_ENTRIES", 324)
    assert _engine(lcqp) == "affine"


def test_building_the_affine_map_adds_no_spd_factor(monkeypatch):
    from jprox.linalg import SpdFactor

    calls = []
    original = SpdFactor.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    inst = generate_lcqp(3, 6, 4, seed=31)
    monkeypatch.setattr(SpdFactor, "__init__", counting)
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(2.0), max_iters=20)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem))
    assert trace.engine == "affine"
    assert len(calls) == inst.problem.N


def test_affine_run_with_a_poorly_conditioned_block_matches_the_oracle():
    _assert_poorly_conditioned_run_matches_oracle(max_iters=50)


def test_power_run_with_a_poorly_conditioned_block_matches_the_oracle(monkeypatch):
    monkeypatch.setattr(solvers, "POWER_MIN_STEPS", 0)
    _assert_poorly_conditioned_run_matches_oracle(max_iters=3 * solvers.RECORD_CHUNK + 10)


def _assert_poorly_conditioned_run_matches_oracle(max_iters):
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    H = Q @ np.diag([1e-3, 1.0, 1e3]) @ Q.T
    problem = BlockProblem(
        (QuadraticBlock(0.5 * (H + H.T), rng.standard_normal(3)),
         QuadraticBlock(np.eye(2), rng.standard_normal(2))),
        (0.01 * rng.standard_normal((2, 3)), rng.standard_normal((2, 2))),
        rng.standard_normal(2),
    )
    params = SolverParams(rho=0.5, gamma=1.0, policy=None, max_iters=max_iters)
    prepared = solvers._Prepared(problem, params, "jacobi-plain")
    block = prepared.blocks[0]
    assert np.linalg.cond(block.f.H + block.B) > 1e5
    assert prepared.affine is not None
    ref = reference_solution(problem).point
    u0 = random_point(problem, 1)
    trace = run(problem, params, u0, reference=ref, method="jacobi-plain")
    oracle = _oracle_trace(problem, "jacobi-plain", params, u0, ref, None, len(trace) - 1)
    for column in ("dis", "primal_residual"):
        got, want = getattr(trace, column), oracle[column]
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 1e-10 * max(abs(want[0]), abs(w)), (column, k, g, w)

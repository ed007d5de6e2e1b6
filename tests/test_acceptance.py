"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria are property-based at pinned configurations and tolerances;
timing limits are asserted where stated.
"""

import json
import time

import numpy as np
import pytest
from conftest import dis

from jprox.certify import (
    PhiWeights,
    certify,
    estimate_constants,
    fit_linear_rate,
    smallest_certified_tau,
)
from jprox.cli import main as cli_main
from jprox.cli import read_trace_csv
from jprox.experiments import (
    generate_lcqp,
    generate_resource_alloc,
    reference_solution,
    save_instance,
)
from jprox.problem import (
    BlockProblem,
    LogisticQuadBlock,
    PrimalDualPoint,
    QuadraticBlock,
    block_gradient,
    kkt_residual,
)
from jprox.solvers import (
    SolverParams,
    StandardProximal,
    materialize_policy,
    run,
    step,
)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def desk_instance(seed=0):
    return generate_lcqp(3, 20, 5, seed=seed)


def auto_policy(problem, rho, gamma):
    """The --tau auto policy: smallest certified weights scaled by 1.5."""
    return StandardProximal(smallest_certified_tau(problem, rho, gamma))


def certified_run(inst, rho, gamma, max_iters, dis_tol=0.0, record_points=False):
    policy = auto_policy(inst.problem, rho, gamma)
    cert = certify(inst.problem, rho, gamma, policy, seed=inst.seed)
    consts = estimate_constants(inst.problem)
    P_list = materialize_policy(policy, rho, inst.problem)
    ctx = PhiWeights.build(inst.problem, gamma, rho, cert.s, P_list) \
        if cert.passed else None
    params = SolverParams(rho=rho, gamma=gamma, policy=policy,
                          max_iters=max_iters, dis_tol=dis_tol)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem),
                reference=inst.optimum(), phi_context=ctx,
                record_points=record_points)
    return cert, consts, P_list, trace


def test_criterion_1_certified_contraction():
    start = time.perf_counter()
    inst = desk_instance()
    cert, consts, P_list, trace = certified_run(inst, rho=1.0, gamma=1.0,
                                                max_iters=500, record_points=True)
    assert cert.passed
    assert 0.0 < cert.sigma < 1.0
    assert len(trace.points) == 501
    phi = trace.phi
    violations = [k for k in range(len(phi) - 1)
                  if phi[k + 1] > cert.sigma * phi[k] + 1e-12 * (1.0 + phi[k])]
    assert violations == []
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"sigma={cert.sigma:.8f}, 500 contraction steps, "
              f"0 violations, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    inst = desk_instance()
    policy = auto_policy(inst.problem, 1.0, 1.0)
    params = SolverParams(rho=1.0, gamma=1.0, policy=policy,
                          max_iters=4000, dis_tol=1e-7)
    trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem),
                reference=inst.optimum())
    assert trace.status == "converged"
    ref = reference_solution(inst.problem)
    limit_gap = dis(trace.final, ref.point)
    construction_gap = dis(inst.optimum(), ref.point)
    assert limit_gap <= 1e-6
    assert construction_gap <= 1e-8
    report(2, f"engine limit vs direct solve dis={limit_gap:.2e}, "
              f"construction vs direct solve dis={construction_gap:.2e}")


def test_criterion_3_order_invariance():
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    for seed in (0, 1):
        inst = desk_instance(seed=seed)
        params = SolverParams(rho=1.0, gamma=1.0,
                              policy=auto_policy(inst.problem, 1.0, 1.0))
        u = PrimalDualPoint(
            [rng.standard_normal(n) for n in inst.problem.dims],
            rng.standard_normal(inst.problem.m),
        )
        base = step(inst.problem, u, params)
        for _ in range(50):
            order = list(rng.permutation(inst.problem.N))
            out = step(inst.problem, u, params, order=order)
            gap = max(
                max(float(np.max(np.abs(a - b))) for a, b in zip(out.x, base.x)),
                float(np.max(np.abs(out.lam - base.lam))),
            )
            worst = max(worst, gap)
            checked += 1
    assert checked == 100
    assert worst <= 1e-12
    report(3, f"100 block-order permutations, worst componentwise gap {worst:.1e}")


def test_criterion_4_kkt_construction_exactness():
    start = time.perf_counter()
    configs = [(3, 100, 40)] * 20 + [(10, 100, 60)] * 15 + [(3, 20, 5)] * 15
    assert len(configs) == 50
    worst = 0.0
    for seed, (N, m, n) in enumerate(configs):
        inst = generate_lcqp(N, m, n, seed=seed)
        worst = max(worst, kkt_residual(inst.problem, inst.optimum()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    report(4, f"50 seeded instances, worst construction KKT residual "
              f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_linear_rate_fit():
    # The full-column-rank desk configuration: the linear decay of the error
    # metric presumes the stacked coupling matrix has full column rank, which
    # needs sum(n_i) >= m (here 15 >= 10).
    inst = generate_lcqp(3, 10, 5, seed=0)
    lines = []
    for gamma in (0.5, 1.5):
        cert, consts, P_list, trace = certified_run(
            inst, rho=1.0, gamma=gamma, max_iters=6000, dis_tol=1e-10)
        assert cert.passed
        dis_fit = fit_linear_rate([d for d in trace.dis if d is not None], 0.5)
        phi_fit = fit_linear_rate([p for p in trace.phi if p is not None], 0.5)
        assert dis_fit.r_squared > 0.99
        assert dis_fit.rate < 1.0
        assert phi_fit.rate <= cert.sigma + 0.02
        lines.append(f"gamma={gamma}: dis rate {dis_fit.rate:.4f} "
                     f"(R2={dis_fit.r_squared:.4f}), phi rate {phi_fit.rate:.4f} "
                     f"<= sigma+0.02={cert.sigma + 0.02:.4f}")
    report(5, "; ".join(lines))


def test_criterion_6_penalty_ranking():
    wins = 0
    details = []
    for seed in (0, 1, 2):
        inst = desk_instance(seed=seed)
        rates = {}
        for rho in (0.03, 1.0, 5.0, 10.0):
            policy = auto_policy(inst.problem, rho, 0.5)
            params = SolverParams(rho=rho, gamma=0.5, policy=policy,
                                  max_iters=1500, dis_tol=1e-10)
            trace = run(inst.problem, params, PrimalDualPoint.zeros(inst.problem),
                        reference=inst.optimum())
            rates[rho] = fit_linear_rate(
                [d for d in trace.dis if d is not None], 0.5).rate
        best = min(rates, key=rates.get)
        details.append(f"seed {seed} best rho={best:g}")
        if best == 1.0:
            wins += 1
    assert wins >= 2
    report(6, f"rho=1 fastest in {wins}/3 seeds ({'; '.join(details)})")


def test_criterion_7_resource_allocation():
    start = time.perf_counter()
    inst = generate_resource_alloc(6, seed=0)
    policy = auto_policy(inst.problem, 1.0, 1.5)
    params = SolverParams(rho=1.0, gamma=1.5, policy=policy, max_iters=4000)
    ref = reference_solution(inst.problem)
    assert ref.kkt_residual <= 1e-8
    solve = run(inst.problem,
                SolverParams(rho=1.0, gamma=1.5, policy=policy, max_iters=4000,
                             dis_tol=1e-10),
                PrimalDualPoint.zeros(inst.problem), reference=ref.point)
    assert 0.0 < solve.newton_max_residual <= 1e-10
    fit = fit_linear_rate([d for d in solve.dis if d is not None], 0.5)
    assert fit.r_squared > 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(7, f"reference KKT {ref.kkt_residual:.1e}, worst Newton residual "
              f"{solve.newton_max_residual:.1e}, dis fit R2={fit.r_squared:.5f}, "
              f"{elapsed:.1f}s")


def test_criterion_8_gradient_checks():
    rng = np.random.default_rng(2025)
    H = rng.standard_normal((4, 4))
    blocks = [
        QuadraticBlock(H @ H.T + 0.5 * np.eye(4), rng.standard_normal(4)),
        LogisticQuadBlock(rng.uniform(0, 2), rng.uniform(-2, 2),
                          rng.uniform(-10, 10), rng.uniform(-10, 10)),
    ]
    step = 1e-6
    worst = 0.0
    for block in blocks:
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, block.dim)
            fd = np.zeros(block.dim)
            for j in range(block.dim):
                e = np.zeros(block.dim)
                e[j] = step
                fd[j] = (block.value(x + e) - block.value(x - e)) / (2 * step)
            worst = max(worst, float(np.linalg.norm(block_gradient(block, x) - fd)))
    assert worst < 1e-5
    report(8, f"2 block variants x 20 points, worst finite-difference gap {worst:.1e}")


def test_criterion_9_certification_constants_worked_example():
    problem = BlockProblem(
        (QuadraticBlock(2.0 * np.eye(3), np.zeros(3)),),
        (np.eye(3),),
        np.zeros(3),
    )
    consts = estimate_constants(problem)
    assert consts.alpha == pytest.approx(1.0, abs=1e-10)
    assert consts.L == pytest.approx(4.0, abs=1e-10)
    assert consts.D == pytest.approx(1.0, abs=1e-10)
    assert consts.c_A == pytest.approx(1.0, abs=1e-10)
    cert = certify(problem, rho=1.0, gamma=1.0, policy=None)
    # s_bar = (alpha/2) / (rho^2 D ||A||^2 + L) = 0.5/5, s = s_bar/2 = 0.05.
    assert cert.s == pytest.approx(0.05, abs=1e-10)
    # mu = (1 + 4*s) / (1 + 2*(1 - 8*s)) = 1.2/2.2; dual branch = 1 - 2*s = 0.9.
    assert cert.mu_s == pytest.approx(1.2 / 2.2, abs=1e-10)
    assert cert.sigma == pytest.approx(0.9, abs=1e-10)
    report(9, f"alpha=1 L=4 D=1 c_A=1, s={cert.s}, sigma={cert.sigma} "
              f"(hand arithmetic 0.9)")


def test_criterion_10_negative_controls(tmp_path, capsys):
    # Gamma outside (0, 2) is diagnosed and exits with the certification code.
    inst = generate_lcqp(2, 4, 3, seed=0)
    inst_path = tmp_path / "lcqp.json"
    save_instance(inst, inst_path)
    code = cli_main(["certify", "--input", str(inst_path), "--rho", "1",
                     "--gamma", "2.5", "--output", str(tmp_path / "c1.json")])
    err = capsys.readouterr().err
    assert code == 4
    assert "gamma out of (0,2)" in err

    # Reseed the allocation family until a block modulus sits under 1e-3.
    seed = 0
    while True:
        ra = generate_resource_alloc(6, seed=seed)
        if min(f.a for f in ra.problem.objectives) < 1e-3:
            break
        seed += 1
    ra_path = tmp_path / "ra.json"
    save_instance(ra, ra_path)
    cert_path = tmp_path / "c2.json"
    code = cli_main(["certify", "--input", str(ra_path), "--rho", "1",
                     "--gamma", "1.0", "--output", str(cert_path)])
    assert code == 4
    cert = json.loads(cert_path.read_text())
    assert cert["failure"] == "NotStronglyConvex"
    assert cert["margins"]["alpha"] < 1e-3

    # The solver still runs to its iteration cap without crashing.
    trace_path = tmp_path / "t.csv"
    code = cli_main(["solve", "--input", str(ra_path), "--rho", "1",
                     "--gamma", "1.0", "--max-iters", "80", "--tol", "0",
                     "--output", str(trace_path)])
    capsys.readouterr()
    assert code == 0
    cols = read_trace_csv(trace_path)
    assert cols["k"][-1] == 80
    report(10, f"gamma=2.5 diagnosed, seed {seed} uncertifiable "
               f"(alpha={cert['margins']['alpha']:.1e}), solver ran 80/80 iterations")

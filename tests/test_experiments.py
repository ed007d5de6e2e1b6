"""Generator, reference, metric, sweep and instance-file tests."""

import ast
import ctypes
import dataclasses
import os
import pickle
import zipfile

import numpy as np
import pytest
from conftest import TEST_PID, child_pids, dis, exit_in_worker

import jprox.experiments as exp
from jprox.errors import DimensionMismatch, SingularKkt, WorkerLost
from jprox.experiments import (
    GAMMA_GRID,
    LcqpInstance,
    RHO_GRID_LARGE,
    RHO_GRID_SMALL,
    SPECTRA_DIGEST,
    SweepCell,
    SweepConfig,
    default_rho_grid,
    generate_lcqp,
    generate_resource_alloc,
    load_instance,
    reference_solution,
    run_sweep,
    save_instance,
)
from jprox.linalg import smallest_singular_value_stacked
from jprox.problem import (
    BlockProblem,
    PrimalDualPoint,
    QuadraticBlock,
    kkt_residual,
)
from jprox.solvers import ProxLinear, SolverParams, StandardProximal, run


def coefficients(inst, name: str) -> np.ndarray:
    """The ``name`` coefficient of each block of a resource-allocation instance."""
    return np.array([getattr(f, name) for f in inst.problem.objectives])


# -- generator: quadratic family -----------------------------------------------------

@pytest.mark.parametrize("config", [(3, 100, 40), (10, 100, 60)])
def test_generate_lcqp_accepts_reference_configs(config):
    N, m, n = config
    inst = generate_lcqp(N, m, n, seed=0)
    assert inst.problem.N == N
    assert inst.problem.m == m
    assert inst.problem.dims == tuple([n] * N)
    assert kkt_residual(inst.problem, inst.optimum()) <= 1e-9


def test_generate_lcqp_stack_invariant():
    inst = generate_lcqp(3, 10, 4, seed=5)
    assert smallest_singular_value_stacked(inst.problem.A) > 1e-8


def test_generate_lcqp_objectives_strictly_pd():
    inst = generate_lcqp(2, 6, 5, seed=9)
    for f in inst.problem.objectives:
        assert np.linalg.eigvalsh(f.H)[0] >= 0.1 - 1e-12


def test_generate_lcqp_proximal_source_is_psd():
    inst = generate_lcqp(3, 6, 4, seed=10)
    assert len(inst.proximal_source) == 3
    for P in inst.proximal_source:
        assert np.linalg.eigvalsh(P)[0] >= -1e-12


def svd_stacked_singular_value(blocks) -> float:
    """The stacked singular value as an SVD alone gives it."""
    return float(np.linalg.svd(np.vstack([A.T for A in blocks]), compute_uv=False)[-1])


@pytest.mark.parametrize("shape", [(3, 100, 40), (3, 400, 150), (3, 12, 5)])
def test_generate_lcqp_draws_as_with_the_svd(monkeypatch, shape):
    # The Gram-matrix value takes every accept/reject decision the SVD took,
    # so every generated array is the same bit for bit.
    for seed in range(3):
        inst = generate_lcqp(*shape, seed=seed)
        with monkeypatch.context() as patched:
            patched.setattr("jprox.experiments.smallest_singular_value_stacked",
                            svd_stacked_singular_value)
            ref = generate_lcqp(*shape, seed=seed)
        pairs = [(inst.problem.c, ref.problem.c), (inst.lambdastar, ref.lambdastar)]
        pairs += list(zip(inst.problem.A, ref.problem.A)) + list(zip(inst.xstar, ref.xstar))
        pairs += list(zip(inst.proximal_source, ref.proximal_source))
        pairs += [(f.H, g.H) for f, g in zip(inst.problem.objectives, ref.problem.objectives)]
        pairs += [(f.q, g.q) for f, g in zip(inst.problem.objectives, ref.problem.objectives)]
        assert all(a.tobytes() == b.tobytes() for a, b in pairs), seed


def test_generate_lcqp_deterministic():
    a = generate_lcqp(3, 8, 4, seed=123)
    b = generate_lcqp(3, 8, 4, seed=123)
    for Ai, Bi in zip(a.problem.A, b.problem.A):
        assert np.array_equal(Ai, Bi)
    for fa, fb in zip(a.problem.objectives, b.problem.objectives):
        assert np.array_equal(fa.H, fb.H)
        assert np.array_equal(fa.q, fb.q)
    assert np.array_equal(a.lambdastar, b.lambdastar)
    c = generate_lcqp(3, 8, 4, seed=124)
    assert not np.array_equal(a.lambdastar, c.lambdastar)


def test_generate_lcqp_wide_constraint_projects_multiplier():
    # More constraint rows than total columns: the multiplier must lie in the
    # range of the coupling map, and the planted optimum still satisfies the
    # optimality conditions exactly.
    inst = generate_lcqp(3, 20, 5, seed=0)
    A = inst.problem.stacked_A()
    resid = inst.lambdastar - A @ np.linalg.lstsq(A, inst.lambdastar, rcond=None)[0]
    assert np.linalg.norm(resid) <= 1e-10 * (1 + np.linalg.norm(inst.lambdastar))
    assert kkt_residual(inst.problem, inst.optimum()) <= 1e-9


def test_generate_lcqp_exhausts_retries_on_degenerate_stacks(monkeypatch):
    import jprox.experiments as exp_mod
    from jprox.errors import DegenerateAfterRetries

    calls = {"n": 0}

    def always_degenerate(blocks):
        calls["n"] += 1
        return 0.0

    monkeypatch.setattr(exp_mod, "smallest_singular_value_stacked", always_degenerate)
    with pytest.raises(DegenerateAfterRetries):
        exp_mod.generate_lcqp(2, 4, 3, seed=0)
    assert calls["n"] == 20


# -- generator: allocation family -------------------------------------------------------

@pytest.mark.parametrize("N", [6, 20])
def test_generate_resource_alloc_reference_sizes(N):
    inst = generate_resource_alloc(N, seed=0)
    assert inst.problem.N == N
    assert inst.problem.m == 1
    for Ai in inst.problem.A:
        assert np.array_equal(Ai, np.ones((1, 1)))
    assert np.array_equal(inst.problem.c, np.zeros(1))


def test_generate_resource_alloc_coefficient_ranges():
    for seed in range(1000):
        inst = generate_resource_alloc(2, seed=seed)
        a, b, cshift, dshift = (coefficients(inst, name) for name in ("a", "b", "cshift", "dshift"))
        assert np.all((a >= 0.0) & (a <= 2.0))
        assert np.all((b >= -2.0) & (b <= 2.0))
        assert np.all((cshift >= -10.0) & (cshift <= 10.0))
        assert np.all((dshift >= -10.0) & (dshift <= 10.0))


def test_generate_resource_alloc_deterministic():
    a = generate_resource_alloc(6, seed=77)
    b = generate_resource_alloc(6, seed=77)
    assert np.array_equal(coefficients(a, "a"), coefficients(b, "a"))
    assert np.array_equal(coefficients(a, "dshift"), coefficients(b, "dshift"))


# -- dis metric --------------------------------------------------------------------------

def test_dis_zero_at_reference():
    inst = generate_lcqp(2, 4, 3, seed=2)
    u = inst.optimum()
    assert dis(u, inst.optimum()) == 0.0


def test_dis_single_perturbed_block():
    inst = generate_lcqp(3, 4, 3, seed=2)
    u = inst.optimum()
    v = np.zeros(3)
    v[1] = 0.7
    u.x[1] = u.x[1] + v
    assert dis(u, inst.optimum()) == pytest.approx(0.7, rel=1e-15)


def test_dis_matches_max_over_norms_oracle():
    rng = np.random.default_rng(3)
    inst = generate_lcqp(3, 5, 4, seed=4)
    u = PrimalDualPoint([rng.standard_normal(4) for _ in range(3)], rng.standard_normal(5))
    ref = inst.optimum()
    expected = max(
        [float(np.linalg.norm(xi - ri)) for xi, ri in zip(u.x, ref.x)]
        + [float(np.linalg.norm(u.lam - ref.lam))]
    )
    assert dis(u, ref) == expected


def test_dis_zero_iff_identical():
    inst = generate_lcqp(2, 4, 3, seed=6)
    u = inst.optimum()
    v = inst.optimum()
    v.x[0] = v.x[0] + 1e-13
    assert dis(u, v) > 0.0
    assert dis(u, v) < 1e-12


def test_dis_dimension_mismatch():
    # A run measures dis against its reference, which must have the problem's blocks.
    inst = generate_lcqp(2, 4, 3, seed=6)
    other = generate_lcqp(3, 4, 3, seed=6)
    with pytest.raises(DimensionMismatch):
        run(inst.problem, SolverParams(rho=1.0, gamma=1.0), PrimalDualPoint.zeros(inst.problem),
            reference=other.optimum(), method="jacobi-plain")


# -- reference solutions ------------------------------------------------------------------

def test_reference_matches_constructed_optimum():
    inst = generate_lcqp(3, 8, 4, seed=11)
    ref = reference_solution(inst.problem)
    assert dis(ref.point, inst.optimum()) <= 1e-8
    assert ref.kkt_residual <= 1e-9


def test_reference_trivial_identity_problem():
    p = BlockProblem(
        (QuadraticBlock(np.eye(2), np.zeros(2)),), (np.eye(2),), np.zeros(2)
    )
    ref = reference_solution(p)
    assert np.allclose(ref.point.x[0], 0.0, atol=1e-14)
    assert np.allclose(ref.point.lam, 0.0, atol=1e-14)


def test_reference_rejects_inconsistent_system():
    # Zero coupling with a nonzero right-hand side has no feasible point.
    p = BlockProblem(
        (QuadraticBlock(np.eye(2), np.zeros(2)),),
        (np.zeros((2, 2)),),
        np.array([1.0, 0.0]),
    )
    with pytest.raises(SingularKkt):
        reference_solution(p)


def test_reference_iterative_path_for_allocation():
    inst = generate_resource_alloc(6, seed=0)
    ref = reference_solution(inst.problem)
    assert ref.kkt_residual <= 1e-8


@pytest.mark.parametrize("shape, seed", [((3, 8, 4), 11), ((3, 100, 40), 0),
                                         ((10, 100, 40), 1), ((3, 20, 5), 0)])
def test_reference_solves_quadratic_kkt_system_in_one_step(shape, seed):
    # Dense oracle: the KKT system of the quadratic program, assembled here.
    p = generate_lcqp(*shape, seed=seed).problem
    n = sum(p.dims)
    A = np.hstack(p.A)
    K = np.zeros((n + p.m, n + p.m))
    K[:n, n:], K[n:, :n] = -A.T, A
    start = 0
    for f in p.objectives:
        K[start:start + f.dim, start:start + f.dim] = f.H
        start += f.dim
    z, *_ = np.linalg.lstsq(K, np.concatenate([-f.q for f in p.objectives] + [p.c]), rcond=None)
    oracle = PrimalDualPoint(np.split(z[:n], np.cumsum(p.dims)[:-1]), z[n:])
    assert dis(reference_solution(p).point, oracle) <= 1e-14


def _allocation_oracle(inst):
    """Optimum of ``sum_i f_i(x_i)`` s.t. ``sum_i x_i = 0`` by nested bisection.

    The multiplier is bisected on ``sum_i x_i(lam)``; each ``x_i(lam)`` solves
    ``f_i'(x) = lam`` by its own bisection.  Each bisection runs until its
    bracket is two adjacent floats.
    """
    a, b, cs, ds = (coefficients(inst, name) for name in ("a", "b", "cshift", "dshift"))

    def slope(x):
        return a * (x - cs) + b * 0.5 * (1.0 + np.tanh(0.5 * b * (x - ds)))

    def x_of(lam):
        # f_i' lies within [min(b, 0), max(b, 0)] of a*(x - cs).
        lo = cs + (lam - np.maximum(b, 0.0)) / a
        hi = cs + (lam - np.minimum(b, 0.0)) / a
        while True:
            mid = 0.5 * (lo + hi)
            open_ = (mid > lo) & (mid < hi)
            if not open_.any():
                return 0.5 * (lo + hi)
            below = slope(mid) < lam
            lo = np.where(open_ & below, mid, lo)
            hi = np.where(open_ & ~below, mid, hi)

    lo, hi = -1.0, 1.0
    while x_of(lo).sum() > 0.0:
        lo *= 2.0
    while x_of(hi).sum() < 0.0:
        hi *= 2.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if x_of(mid).sum() < 0.0 else (lo, mid)
    lam = 0.5 * (lo + hi)
    return x_of(lam), lam


@pytest.mark.parametrize("N", [6, 100])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_allocation_reference_matches_bisection_oracle(N, seed):
    inst = generate_resource_alloc(N, seed)
    x, lam = _allocation_oracle(inst)
    ref = reference_solution(inst.problem)
    assert ref.kkt_residual <= 1e-10
    assert np.max(np.abs(np.concatenate(ref.point.x) - x)) <= 1e-9
    assert abs(ref.point.lam[0] - lam) <= 1e-9


def test_reference_does_not_run_the_engine(monkeypatch):
    import jprox.experiments as experiments

    def no_engine(*args, **kwargs):
        raise AssertionError("the engine must not build a reference")

    monkeypatch.setattr(experiments, "run", no_engine)
    inst = generate_resource_alloc(6, seed=0)
    ref = experiments.reference_solution(inst.problem)
    assert ref.kkt_residual <= 1e-10
    assert dis(experiments.instance_reference(inst), ref.point) == 0.0


# -- sweeps ------------------------------------------------------------------------------------

def test_default_grids():
    small = generate_lcqp(3, 4, 3, seed=0)
    large = generate_lcqp(10, 4, 3, seed=0)
    assert default_rho_grid(small) == RHO_GRID_SMALL
    assert default_rho_grid(large) == RHO_GRID_LARGE
    assert GAMMA_GRID == (0.1, 0.5, 1.5, 1.9)


def test_run_sweep_full_grid_cells():
    inst = generate_lcqp(3, 6, 4, seed=0)
    sweep = SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=200, dis_tol=1e-9)
    cells = run_sweep(inst, sweep)
    assert len(cells) == 4
    for (rho, gamma, seed), cell in cells.items():
        assert seed == 0
        assert cell.error is None
        assert cell.certificate is not None
        assert cell.trace is not None
        if cell.certificate.passed:
            assert any(p is not None for p in cell.trace.phi)


def test_run_sweep_deterministic():
    inst = generate_lcqp(2, 5, 3, seed=1)
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(0.5,), max_iters=100)
    t1 = run_sweep(inst, sweep)[(1.0, 0.5, 1)].trace
    t2 = run_sweep(inst, sweep)[(1.0, 0.5, 1)].trace
    assert t1.dis == t2.dis
    assert t1.primal_residual == t2.primal_residual


def test_run_sweep_certified_cells_respect_rate_bound():
    # On every certified cell the fitted decay of the Lyapunov series must
    # stay within fit noise of the certified factor.
    inst = generate_lcqp(3, 8, 4, seed=0)
    sweep = SweepConfig(rho_grid=(1.0, 5.0), gamma_grid=(0.5, 1.0),
                        max_iters=1500, dis_tol=1e-10)
    cells = run_sweep(inst, sweep)
    checked = 0
    for cell in cells.values():
        if cell.certificate is not None and cell.certificate.passed and cell.phi_rate:
            assert cell.phi_rate.rate <= cell.certificate.sigma + 0.02
            checked += 1
    assert checked >= 2


def with_first_modulus(inst, a):
    """A resource-allocation instance with block 0's quadratic coefficient set to ``a``."""
    p = inst.problem
    objectives = (dataclasses.replace(p.objectives[0], a=a),) + p.objectives[1:]
    return dataclasses.replace(inst, problem=BlockProblem(objectives, p.A, p.c))


def test_run_sweep_records_cell_failures_without_raising():
    # A modulus at the floor cannot be certified; cells still complete with
    # fallback weights and a failed certificate.
    inst = generate_resource_alloc(4, seed=101)
    assert min(coefficients(inst, "a")) / 2.0 > 0  # sanity: generator gave positive moduli
    tiny = with_first_modulus(inst, 1e-9)
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(1.0,), max_iters=50)
    cells = run_sweep(tiny, sweep)
    cell = cells[(1.0, 1.0, 101)]
    assert cell.error is None
    assert cell.certificate is not None and not cell.certificate.passed
    assert cell.certificate.failure == "NotStronglyConvex"
    assert cell.trace is not None


def test_run_sweep_gives_a_trace_where_block_solves_break_down():
    # Weight 1 on allocation seed 0 drives the iterates past 1e4, where scalar
    # solves cannot meet their absolute tolerance; the cell must still end with
    # a trace and status diverged, not as an error.
    inst = generate_resource_alloc(6, seed=0)
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(1.0,))
    cell = run_sweep(inst, sweep, policy=StandardProximal(1.0))[(1.0, 1.0, 0)]
    assert cell.error is None
    assert cell.status == "diverged"
    assert cell.trace is not None and len(cell.trace) > 1
    assert cell.wall_s >= sum(cell.trace.timings.values())


def test_run_sweep_propagates_errors_that_no_cell_can_cause(monkeypatch):
    import jprox.experiments as experiments

    def broken(*args, **kwargs):
        raise ValueError("a defect of the program, not a failed cell")

    monkeypatch.setattr(experiments, "run", broken)
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(1.0,), max_iters=10)
    with pytest.raises(ValueError, match="a defect of the program"):
        run_sweep(generate_lcqp(2, 5, 3, seed=0), sweep)


def test_run_sweep_rejects_instances_that_share_a_seed(monkeypatch):
    # Cells and references are keyed by seed: two instances with one seed
    # would share a reference and overwrite each other's cells.
    import jprox.experiments as experiments
    from jprox.errors import InvalidParameter

    ran = []
    monkeypatch.setattr(experiments, "instance_reference", lambda inst: ran.append(inst))
    monkeypatch.setattr(experiments, "_run_cell", lambda *args: ran.append(args))
    instances = [generate_lcqp(3, 6, 4, 0), generate_lcqp(2, 5, 3, 0)]
    with pytest.raises(InvalidParameter, match="seed 0"):
        run_sweep(instances, SweepConfig((1.0,), (1.0,), max_iters=50))
    assert ran == []


def test_run_sweep_records_an_invalid_penalty_as_an_error_cell():
    sweep = SweepConfig(rho_grid=(-1.0,), gamma_grid=(1.0,), max_iters=10)
    cell = run_sweep(generate_lcqp(2, 5, 3, seed=0), sweep)[(-1.0, 1.0, 0)]
    assert cell.status == "error"
    assert cell.error.startswith("InvalidParameter")


def test_resolve_policy_auto_builds_requested_kind():
    # certify resolves an "auto" request into the concrete policy of its certificate.
    from jprox.certify import certify, fallback_tau, smallest_certified_tau

    p = generate_lcqp(3, 6, 4, seed=0).problem
    standard = certify(p, 1.0, 1.0, StandardProximal("auto")).proximal
    linear = certify(p, 1.0, 1.0, ProxLinear("auto")).proximal
    assert standard == StandardProximal(smallest_certified_tau(p, 1.0, 1.0))
    assert linear == ProxLinear(smallest_certified_tau(p, 1.0, 1.0, kind="proxlinear"))
    concrete = StandardProximal(2.0)
    assert certify(p, 1.0, 1.0, concrete).proximal is concrete
    flat = with_first_modulus(generate_resource_alloc(4, seed=101), 1e-9).problem
    assert certify(flat, 1.0, 1.0, ProxLinear("auto")).proximal == \
        ProxLinear(fallback_tau(flat, 1.0, 1.0, kind="proxlinear"))


def test_run_sweep_cells_hold_no_weights():
    # A cell's run records phi with its certificate's weights; nothing reads
    # them afterwards (the manifest writes to_dict()), so the cell drops them.
    inst = generate_lcqp(3, 6, 4, seed=0)
    sweep = SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=50)
    cells = run_sweep(inst, sweep).values()
    assert any(cell.certificate.passed and cell.trace.phi[-1] is not None for cell in cells)
    assert all(cell.certificate.weights is None for cell in cells)


def test_run_sweep_estimates_constants_once_per_instance(count_calls):
    # Counted from generation on: the generator's SVD is the problem's.
    svd = count_calls("jprox.linalg", "smallest_singular_value_stacked")
    inst = generate_lcqp(3, 6, 4, seed=0)
    sweep = SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=20)
    cells = run_sweep(inst, sweep)
    assert all(cell.error is None for cell in cells.values())
    assert len(svd) == 1


@pytest.mark.parametrize("policy", [StandardProximal("auto"), ProxLinear(1e4)],
                         ids=["auto", "proxlinear"])
def test_run_sweep_builds_each_gram_spectrum_once(count_calls, cpus, policy):
    cpus(1)  # cells run in this process, where their calls are counted
    instances = [generate_lcqp(3, 6, 4, seed=0), generate_lcqp(2, 5, 3, seed=1)]
    gram = count_calls("jprox.linalg", "gram_spectrum")
    sweep = SweepConfig(rho_grid=(0.03, 1.0, 5.0, 10.0), gamma_grid=GAMMA_GRID, max_iters=20)
    cells = run_sweep(instances, sweep, policy)
    assert len(cells) == 32 and all(cell.error is None for cell in cells.values())
    assert [args[0].shape for args in gram] == [A.shape for inst in instances
                                                for A in inst.problem.A]


# -- instance files -----------------------------------------------------------------------------

def instance_arrays(inst) -> dict:
    """Every array and scalar an instance file stores, by archive member name."""
    p = inst.problem
    out = {"seed": inst.seed, "c": p.c}
    out.update((f"A_{i}", Ai) for i, Ai in enumerate(p.A))
    if isinstance(inst, LcqpInstance):
        for i, (f, x) in enumerate(zip(p.objectives, inst.xstar)):
            out.update({f"H_{i}": f.H, f"q_{i}": f.q, f"xstar_{i}": x})
        out["lambdastar"] = inst.lambdastar
        out.update((f"P_{i}", P) for i, P in enumerate(inst.proximal_source))
    else:
        out.update((name, coefficients(inst, name)) for name in ("a", "b", "cshift", "dshift"))
    return out


def mixed_size_instance():
    """An LCQP instance whose blocks have 2 and 3 columns, without proximal matrices."""
    inst = generate_lcqp(2, 4, 3, seed=0)
    f0, p = inst.problem.objectives[0], inst.problem
    problem = BlockProblem((QuadraticBlock(f0.H[:2, :2], f0.q[:2]), p.objectives[1]),
                           (p.A[0][:, :2], p.A[1]), p.c)
    return dataclasses.replace(inst, problem=problem, proximal_source=(),
                               xstar=(inst.xstar[0][:2], inst.xstar[1]))


ROUND_TRIP_INSTANCES = {
    "lcqp": lambda: generate_lcqp(3, 6, 4, seed=8),
    "ra": lambda: generate_resource_alloc(6, seed=3),
    "mixed-size": mixed_size_instance,
}


@pytest.mark.parametrize("name", list(ROUND_TRIP_INSTANCES))
def test_instance_round_trip_is_bit_exact(tmp_path, name):
    inst = ROUND_TRIP_INSTANCES[name]()
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert type(loaded) is type(inst)
    want, got = instance_arrays(inst), instance_arrays(loaded)
    assert list(got) == list(want)
    for key, value in want.items():
        assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key


def test_lcqp_instance_roundtrip(tmp_path):
    inst = generate_lcqp(3, 6, 4, seed=8)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert isinstance(loaded, LcqpInstance)
    assert loaded.seed == 8
    for a, b in zip(inst.xstar, loaded.xstar):
        assert np.array_equal(a, b)
    assert np.array_equal(inst.lambdastar, loaded.lambdastar)
    assert len(loaded.proximal_source) == 3
    for a, b in zip(inst.proximal_source, loaded.proximal_source):
        assert np.array_equal(a, b)
    for Ai, Bi in zip(inst.problem.A, loaded.problem.A):
        assert np.array_equal(Ai, Bi)


@pytest.mark.parametrize("kind", ["lcqp", "ra"])
def test_instance_archive_stores_every_float_array_as_float64(tmp_path, kind):
    inst = generate_lcqp(3, 6, 4, seed=8) if kind == "lcqp" else generate_resource_alloc(4, 3)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    spectra = {"spectra_gram", "spectra_norms", "spectra_c_A", SPECTRA_DIGEST}
    spectra |= {"spectra_curvatures"} if kind == "lcqp" else set()
    assert set(members) == set(instance_arrays(inst)) | {"kind"} | spectra
    assert members["kind"].shape == () and members["kind"].item() == (
        "lcqp" if kind == "lcqp" else "resource_alloc")
    assert members.pop("seed").dtype.kind == "i"
    assert members.pop(SPECTRA_DIGEST).dtype.kind == "U"
    members.pop("kind")
    assert all(a.dtype == np.float64 for a in members.values())


def test_spectra_that_are_not_finite_are_not_recorded(tmp_path):
    # ||A|| overflows for entries of 1e308; a read computes the spectra again.
    A = np.full((2, 2), 1e308)
    problem = BlockProblem((QuadraticBlock(np.eye(2), np.zeros(2)),), (A,), np.zeros(2))
    path = tmp_path / "huge.npz"
    save_instance(LcqpInstance(problem, (np.zeros(2),), np.zeros(2), seed=0), path)
    with np.load(path, allow_pickle=False) as archive:
        assert not [name for name in archive.files if name.startswith("spectra_")]
    assert load_instance(path).problem._stacked_singular_value is None


def test_resource_alloc_instance_roundtrip(tmp_path):
    inst = generate_resource_alloc(6, seed=3)
    path = tmp_path / "ra.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    for name in ("a", "b", "cshift", "dshift"):
        assert np.array_equal(coefficients(inst, name), coefficients(loaded, name)), name
    assert loaded.seed == 3


def test_resolve_policy_prox_linear_weights_reach_the_psd_floor():
    # One block at gamma = 0.1: 1.5 times the coupling boundary lies below
    # rho*||A||^2, where tau*I - rho*A'A stops being PSD.
    from jprox.certify import certify, fallback_tau, smallest_certified_tau
    from jprox.linalg import spectral_norm
    from jprox.problem import LogisticQuadBlock
    from jprox.solvers import materialize_policy

    p = generate_lcqp(1, 6, 3, seed=0).problem
    floor = spectral_norm(p.A[0]) ** 2
    assert smallest_certified_tau(p, 1.0, 0.1, kind="proxlinear")[0] < floor
    policy = certify(p, 1.0, 0.1, ProxLinear("auto")).proximal
    assert policy == ProxLinear([floor])
    materialize_policy(policy, 1.0, p)
    assert certify(p, 1.0, 0.1, policy).passed

    # Without certification the fallback weight is floored the same way.
    flat = BlockProblem((LogisticQuadBlock(1e-4, 1.0, 0.0, 0.0),), (np.ones((1, 1)),),
                        np.zeros(1))
    assert fallback_tau(flat, 1.0, 0.1, kind="proxlinear")[0] < 1.0
    policy = certify(flat, 1.0, 0.1, ProxLinear("auto")).proximal
    assert policy == ProxLinear([1.0])
    materialize_policy(policy, 1.0, flat)


def test_run_sweep_returns_cells_in_key_order(cpus):
    cpus(2)  # cells that finish early on one worker still arrive in key order
    inst = generate_lcqp(2, 5, 3, seed=4)
    sweep = SweepConfig(rho_grid=(5.0, 1.0), gamma_grid=(1.5, 0.5), max_iters=10)
    arrived = []
    cells = run_sweep(inst, sweep, on_cell=arrived.append)
    assert list(cells) == [(5.0, 1.5, 4), (5.0, 0.5, 4), (1.0, 1.5, 4), (1.0, 0.5, 4)]
    assert list(cells.values()) == arrived  # on_cell sees each cell as it arrives, in key order


# -- sweeps on forked workers -------------------------------------------------------------------

def cell_outcome(cell) -> str:
    """Everything a cell yields but its times: certificate, trace columns but ``elapsed``,
    status, rates and error, as exact text."""
    trace = cell.trace
    columns = None if trace is None else (trace.ks, trace.dis, trace.phi, trace.primal_residual,
                                          trace.engine, trace.newton_max_residual, trace.failure)
    cert = cell.certificate.to_dict() if cell.certificate else None
    return repr((cert, cell.status, cell.dis_rate, cell.phi_rate, cell.error, columns))


def blas_threads_cell(instance, reference, rho, gamma, sweep, policy):
    """A cell that records its process id and OpenBLAS thread counts in ``error``."""
    threads = [get() for get in exp._openblas_calls("get_num_threads", ctypes.c_int)]
    return SweepCell(rho, gamma, instance.seed, error=repr((os.getpid(), threads)))


@pytest.mark.parametrize("generate", [lambda seed: generate_lcqp(3, 20, 8, seed),
                                      lambda seed: generate_resource_alloc(6, seed)],
                         ids=["lcqp", "ra"])
def test_pooled_cells_equal_one_worker_cells(cpus, count_calls, generate):
    sweep = SweepConfig(RHO_GRID_SMALL, GAMMA_GRID, max_iters=300)
    pooled = count_calls("jprox.experiments", "_run_pooled")
    outcomes = []
    for n in (1, 2):
        cpus(n)
        cells = run_sweep([generate(0), generate(1)], sweep)
        outcomes.append({key: cell_outcome(cell) for key, cell in cells.items()})
    assert len(pooled) == 1  # the two-worker sweep, and only it, ran on the pool
    assert len(outcomes[0]) == 32
    assert list(outcomes[1]) == list(outcomes[0])
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("generate, policy", [
    (lambda: generate_lcqp(3, 20, 8, 0), StandardProximal("auto")),
    (lambda: generate_lcqp(3, 20, 8, 0), ProxLinear("auto")),
    (lambda: generate_resource_alloc(6, 0), StandardProximal("auto")),
], ids=["lcqp-auto", "lcqp-proxlinear", "ra-auto"])
def test_a_task_as_a_worker_gets_it_runs_without_an_eigensolve(count_calls, generate, policy):
    # A worker unpickles its task; the instance's constants and reference come with it.
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(0.5,), max_iters=50)
    task = pickle.loads(pickle.dumps(exp._sweep_tasks([generate()], sweep, policy)[0]))
    counted = {name: count_calls("numpy.linalg", name)
               for name in ("eigvalsh", "eigh", "svd", "lstsq")}
    cell = exp._run_cell(*task)
    assert cell.error is None and cell.trace is not None
    assert {name: len(calls) for name, calls in counted.items()} == dict.fromkeys(counted, 0)


def test_no_child_process_remains_after_a_pooled_run_sweep(cpus):
    cpus(2)
    before = child_pids()
    cells = run_sweep(generate_lcqp(2, 5, 3, seed=0),
                      SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=20))
    assert all(cell.error is None for cell in cells.values())
    assert child_pids() <= before


def test_a_sweep_worker_runs_one_openblas_thread(cpus, monkeypatch):
    if not exp._openblas_calls("get_num_threads", ctypes.c_int):
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be read")
    cpus(2)
    monkeypatch.setattr(exp, "_run_cell", blas_threads_cell)
    cells = run_sweep(generate_lcqp(2, 5, 3, seed=0),
                      SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0)))
    reports = [ast.literal_eval(cell.error) for cell in cells.values()]
    assert all(pid != TEST_PID for pid, _ in reports)
    assert all(threads and set(threads) == {1} for _, threads in reports)


def test_a_dead_sweep_worker_raises_worker_lost(cpus, monkeypatch):
    cpus(2)
    monkeypatch.setattr(exp, "_run_cell", exit_in_worker)
    before = child_pids()
    with pytest.raises(WorkerLost, match="sweep worker"):
        run_sweep(generate_lcqp(2, 5, 3, seed=0),
                  SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=20))
    assert child_pids() <= before

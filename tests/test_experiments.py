"""Generator, reference, metric, sweep and instance-file tests."""

import ast
import ctypes
import dataclasses
import hashlib
import os
import pickle
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import TEST_PID, cell_trace, child_pids, dis, exit_in_worker

import jprox.experiments as exp
from jprox.certify import certify
from jprox.errors import DimensionMismatch, InvalidParameter, SingularKkt, WorkerLost
from jprox.experiments import (
    GAMMA_GRID,
    LcqpInstance,
    RHO_GRID_LARGE,
    RHO_GRID_SMALL,
    SPECTRA_DIGEST,
    SweepCell,
    SweepConfig,
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
        pairs += [(f.H, g.H) for f, g in zip(inst.problem.objectives, ref.problem.objectives)]
        pairs += [(f.q, g.q) for f, g in zip(inst.problem.objectives, ref.problem.objectives)]
        assert all(a.tobytes() == b.tobytes() for a, b in pairs), seed


#: SHA-256 of each member of the archive of ``generate_lcqp(N, m, n, seed)``, as written with
#: numpy 2.4 and its bundled OpenBLAS when the archive also held the proximal matrices ``P``
#: drawn before ``H``.  Those draws are still taken and discarded, so no member moved.
GENERATED_MEMBER_DIGESTS = {
    ((3, 100, 40), 0): {
        "kind": "e38046d90cacede2e83f00bdc23174648c2d934780548b060a01bff3f029633c",
        "seed": "867f503d3215fde7cde441e502ae50aa8666855541d12f7fe9611319a618b982",
        "dims": "4a23c3406836d1fb0a074e536cb2858d284f1abd9aad233bba6e68b6081e55ba",
        "c": "580e6f5f2be36835f5c16584d269ccbeeb17820e70325ad43d2ac839b259f0ca",
        "A": "dd1c274d35e31cd7e3eaf59a3d1c65fb34d7ca765583dd5297c96cadf764c317",
        "H": "c639d642edb0e1cbf79e1c2a52ba018cbd0a0507970ea34acc2a56d74e947cd5",
        "q": "142b933c5dfaa6017b26e2658464548bff26ce068a8a6b380c55f1a8d0304a3c",
        "xstar": "9b34ebed03fa32f3b5f073935f4a9556946588b111f543a71f7ba9cfd5059b1c",
        "lambdastar": "4fbc482782af83b3b5d6cd4256879de003cf0641098a731986df74c07ee626ab",
        "spectra_gram": "3fb26532c3243b04fc09e6e1820c80a398b60f002cec872d40199cf5c47650d8",
        "spectra_norms": "68b608d51ba7bac4e3b1be8f7fdabb0c46eb14020e88df6046a21fc7829920cb",
        "spectra_c_A": "77195db3e718fb622bad75fb5841400e53431b39dccb43142dd8a1d2425e5763",
        "spectra_curvatures": "1f51aa968c1b404dc085868d300abaf4892b55507bd3e5987c8a9c69f2d5f91d",
        "spectra_sha256": "c140f599f376146501c4eeb2b822c1cfcf082652a6e4e8891ef5a408cb93ef4e",
    },
    ((3, 20, 8), 1): {
        "kind": "e38046d90cacede2e83f00bdc23174648c2d934780548b060a01bff3f029633c",
        "seed": "3000b48558aa1351dddd3bec5bc18ec2261975d520508ba39dedfe07b80e4ca7",
        "dims": "e37567d53f0f08f3ffbad705e7d1def4c90beb73be2dfe203218372e23001208",
        "c": "c7815519243d8c2e7e3626129617640c179c9af08fc0597fe3770d0d1cfa9b83",
        "A": "7a014694e8469945b52e041344028129e0cf47dfd869e3ae8fcd50c199d3e839",
        "H": "24248f1419f7f37d26357a735b3720ad7bec03173b135430503b700f74f8c090",
        "q": "69aea776866a69765a9d58fc7f7adb9257899a525c3e775d518db16598024cb1",
        "xstar": "e9a993145d93b2bef9cde003c4dc63721f0d37cf4af3379c04a0e52dba03a25c",
        "lambdastar": "5ac79187023cc03051290b50f0c4ece6312f1067a7c66b80299f9113ee565f3f",
        "spectra_gram": "3c7892d3527458e4736e4290f1e35e56c26148be9101bac5fe16ccde6d649195",
        "spectra_norms": "f0bb972bb9d9927260ef99979336d35bbf690b61e41c3772197095ab99c99282",
        "spectra_c_A": "f0db1525a597a0ce94e206f07c14874b8c349ec80c27d4be4cef05f428556658",
        "spectra_curvatures": "7a08aca51e69e4dd07b6298642a1f9b7c346475df530215ff1b8fb68191ccb20",
        "spectra_sha256": "316f4c6a48216ebbce68ca1d71825197819197bece388e43dba1c56903c97678",
    },
    ((10, 30, 5), 0): {
        "kind": "e38046d90cacede2e83f00bdc23174648c2d934780548b060a01bff3f029633c",
        "seed": "867f503d3215fde7cde441e502ae50aa8666855541d12f7fe9611319a618b982",
        "dims": "99a2a33cfc431eecaa91a7cc9ce3789645e2e9316d521d3c3a0e075d48aed704",
        "c": "56013402c6ed3b24892e85f09cffa9748db0bbe5bc5ea0848cd1f1d4c88f8fc5",
        "A": "4b42f4bf5e99d5696eda7ec9fda11dcc6c3b1ca66cf4c4059cf0b9b6a0c5b844",
        "H": "5ed4e3eb0aab8bfebe775e60b9051a8df2a802dc64b8a330d4eaeaf5577570e8",
        "q": "4fce736d0acd9730a2a58491eb99f96424f95ef9b2f9ae1f49353615a8a2ece8",
        "xstar": "837e6753cdb7f496b13c8201b8e23106fbc51a2147ba6a526f24bdba5238c5a4",
        "lambdastar": "6eb7bb98448998531e0a56cae0b862f868537530b4327407d59861398daf2736",
        "spectra_gram": "0d9fb8c30a58cdee5aad7e96325b47e2352bd617bfc6962334cb750634597890",
        "spectra_norms": "94e67911755b837962b476ef9a4f85a73d6bc8a9c782d03da2b776e29952ef7e",
        "spectra_c_A": "568bc8dbd7d0da74041d78d2d11ef1d8ac0b0c77621c71f07889761534377374",
        "spectra_curvatures": "24ce15393ae6324956f61a7f1da440a7be36a17c59e1a29ade881bc03398b3a8",
        "spectra_sha256": "babcd647f403631366eb0f171975526885711b6f8941cfc74f763bd75ac7463b",
    },
}


@pytest.mark.parametrize("key", list(GENERATED_MEMBER_DIGESTS), ids=lambda k: f"{k[0]}-seed{k[1]}")
def test_generated_archive_members_keep_their_bytes(tmp_path, key):
    shape, seed = key
    path = tmp_path / "instance.npz"
    save_instance(generate_lcqp(*shape, seed), path)
    with zipfile.ZipFile(path) as archive:
        digests = {name[:-4]: hashlib.sha256(archive.read(name)).hexdigest()
                   for name in archive.namelist()}
    assert digests == GENERATED_MEMBER_DIGESTS[key]


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
    assert dis(inst.optimum(), ref.point) == 0.0


# -- sweeps ------------------------------------------------------------------------------------

def test_default_grids():
    small = generate_lcqp(3, 4, 3, seed=0)
    large = generate_lcqp(10, 4, 3, seed=0)
    assert small.rho_grid == RHO_GRID_SMALL
    assert large.rho_grid == RHO_GRID_LARGE
    assert generate_resource_alloc(10, seed=0).rho_grid == RHO_GRID_SMALL
    assert GAMMA_GRID == (0.1, 0.5, 1.5, 1.9)


def test_run_sweep_full_grid_cells(tmp_path):
    inst = generate_lcqp(3, 6, 4, seed=0)
    sweep = SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=200, dis_tol=1e-9)
    cells = run_sweep(inst, sweep, trace_dir=tmp_path)
    assert len(cells) == 4
    for (rho, gamma, seed), cell in cells.items():
        assert seed == 0
        assert cell.error is None
        assert cell.certificate is not None
        assert cell.trace is not None
        phi = cell_trace(cell, tmp_path, ("phi",))["phi"]
        if cell.certificate.passed:
            assert not np.isnan(phi).any()  # recorded in every row


def test_run_sweep_deterministic(tmp_path):
    inst = generate_lcqp(2, 5, 3, seed=1)
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(0.5,), max_iters=100)
    traces = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        cell = run_sweep(inst, sweep, trace_dir=tmp_path / name)[(1.0, 0.5, 1)]
        traces.append(cell_trace(cell, tmp_path / name, ("dis", "primal_residual")))
    t1, t2 = traces
    assert np.array_equal(t1["dis"], t2["dis"])
    assert np.array_equal(t1["primal_residual"], t2["primal_residual"])


def test_run_sweep_certified_cells_respect_rate_bound(tmp_path):
    # On every certified cell the fitted decay of the Lyapunov series must
    # stay within fit noise of the certified factor.
    inst = generate_lcqp(3, 8, 4, seed=0)
    sweep = SweepConfig(rho_grid=(1.0, 5.0), gamma_grid=(0.5, 1.0),
                        max_iters=1500, dis_tol=1e-10)
    cells = run_sweep(inst, sweep, trace_dir=tmp_path)
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


def test_run_sweep_records_cell_failures_without_raising(tmp_path):
    # A modulus at the floor cannot be certified; cells still complete with
    # fallback weights and a failed certificate.
    inst = generate_resource_alloc(4, seed=101)
    assert min(coefficients(inst, "a")) / 2.0 > 0  # sanity: generator gave positive moduli
    tiny = with_first_modulus(inst, 1e-9)
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(1.0,), max_iters=50)
    cells = run_sweep(tiny, sweep, trace_dir=tmp_path)
    cell = cells[(1.0, 1.0, 101)]
    assert cell.error is None
    assert cell.certificate is not None and not cell.certificate.passed
    assert cell.certificate.failure == "NotStronglyConvex"
    assert cell.trace is not None
    cell_trace(cell, tmp_path, ())  # the named file holds the digested bytes


def test_run_sweep_gives_a_trace_where_block_solves_break_down(tmp_path):
    # Weight 1 on allocation seed 0 drives the iterates past 1e4, where scalar
    # solves cannot meet their absolute tolerance; the cell must still end with
    # a trace and status diverged, not as an error.
    inst = generate_resource_alloc(6, seed=0)
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(1.0,))
    cell = run_sweep(inst, sweep, policy=StandardProximal(1.0),
                     trace_dir=tmp_path)[(1.0, 1.0, 0)]
    assert cell.error is None
    assert cell.status == "diverged"
    assert cell.trace is not None and len(cell_trace(cell, tmp_path, ("k",))["k"]) > 1
    assert cell.wall_s >= sum(cell.timings.values())


def test_run_sweep_propagates_errors_that_no_cell_can_cause(monkeypatch, tmp_path):
    import jprox.experiments as experiments

    def broken(*args, **kwargs):
        raise ValueError("a defect of the program, not a failed cell")

    monkeypatch.setattr(experiments, "run", broken)
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(1.0,), max_iters=10)
    with pytest.raises(ValueError, match="a defect of the program"):
        run_sweep(generate_lcqp(2, 5, 3, seed=0), sweep, trace_dir=tmp_path)


def test_run_sweep_rejects_instances_that_share_a_seed(monkeypatch, tmp_path):
    # Cells and references are keyed by seed: two instances with one seed
    # would share a reference and overwrite each other's cells.
    import jprox.experiments as experiments
    from jprox.errors import InvalidParameter

    ran = []
    instances = [generate_lcqp(3, 6, 4, 0), generate_lcqp(2, 5, 3, 0)]
    monkeypatch.setattr(experiments.LcqpInstance, "optimum", lambda inst: ran.append(inst))
    monkeypatch.setattr(experiments, "_run_cell", lambda *args: ran.append(args))
    with pytest.raises(InvalidParameter, match="seed 0"):
        run_sweep(instances, SweepConfig((1.0,), (1.0,), max_iters=50), trace_dir=tmp_path)
    assert ran == []


def test_run_sweep_records_an_invalid_penalty_as_an_error_cell(tmp_path):
    sweep = SweepConfig(rho_grid=(-1.0,), gamma_grid=(1.0,), max_iters=10)
    cell = run_sweep(generate_lcqp(2, 5, 3, seed=0), sweep, trace_dir=tmp_path)[(-1.0, 1.0, 0)]
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


def test_run_sweep_cells_hold_no_weights(tmp_path):
    # A cell's run records phi with its certificate's weights; nothing reads
    # them afterwards (the manifest writes to_dict()), so the cell holds none.
    inst = generate_lcqp(3, 6, 4, seed=0)
    sweep = SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=50)
    cells = run_sweep(inst, sweep, trace_dir=tmp_path).values()
    assert any(cell.certificate.passed
               and not np.isnan(cell_trace(cell, tmp_path, ("phi",))["phi"]).any()
               for cell in cells)
    assert all(b"PhiWeights" not in pickle.dumps(cell) for cell in cells)


def test_run_sweep_estimates_constants_once_per_instance(count_calls, tmp_path):
    # Counted from generation on: the generator's SVD is the problem's.
    svd = count_calls("jprox.linalg", "smallest_singular_value_stacked")
    inst = generate_lcqp(3, 6, 4, seed=0)
    sweep = SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=20)
    cells = run_sweep(inst, sweep, trace_dir=tmp_path)
    assert all(cell.error is None for cell in cells.values())
    assert len(svd) == 1


@pytest.mark.parametrize("policy", [StandardProximal("auto"), ProxLinear(1e4)],
                         ids=["auto", "proxlinear"])
def test_run_sweep_builds_each_gram_spectrum_once(count_calls, cpus, policy, tmp_path):
    cpus(1)  # cells run in this process, where their calls are counted
    instances = [generate_lcqp(3, 6, 4, seed=0), generate_lcqp(2, 5, 3, seed=1)]
    gram = count_calls("jprox.linalg", "gram_spectrum")
    sweep = SweepConfig(rho_grid=(0.03, 1.0, 5.0, 10.0), gamma_grid=GAMMA_GRID, max_iters=20)
    cells = run_sweep(instances, sweep, policy, trace_dir=tmp_path)
    assert len(cells) == 32 and all(cell.error is None for cell in cells.values())
    assert [args[0].shape for args in gram] == [A.shape for inst in instances
                                                for A in inst.problem.A]


# -- instance files -----------------------------------------------------------------------------

def instance_arrays(inst) -> dict:
    """Every array and scalar an instance file stores, by archive member name; a member that
    holds one entry or matrix per block maps to the list of its blocks."""
    p = inst.problem
    out = {"seed": inst.seed, "dims": p.dims, "c": p.c, "A": list(p.A)}
    if isinstance(inst, LcqpInstance):
        out.update(H=[f.H for f in p.objectives], q=[f.q for f in p.objectives],
                   xstar=list(inst.xstar), lambdastar=inst.lambdastar)
    else:
        out.update((name, coefficients(inst, name)) for name in ("a", "b", "cshift", "dshift"))
    return out


def assert_same_arrays(got: dict, want: dict) -> None:
    """The two :func:`instance_arrays` hold the same members, and every block of each has the
    same shape, dtype and bytes."""
    def blocks(value) -> list:
        return [(b.shape, b.dtype.str, b.tobytes())
                for b in map(np.asarray, value if isinstance(value, list) else [value])]

    assert list(got) == list(want)
    for key, value in want.items():
        assert blocks(got[key]) == blocks(value), key


def mixed_size_instance():
    """An LCQP instance whose blocks have 2 and 3 columns."""
    inst = generate_lcqp(2, 4, 3, seed=0)
    f0, p = inst.problem.objectives[0], inst.problem
    problem = BlockProblem((QuadraticBlock(f0.H[:2, :2], f0.q[:2]), p.objectives[1]),
                           (p.A[0][:, :2], p.A[1]), p.c)
    return dataclasses.replace(inst, problem=problem, xstar=(inst.xstar[0][:2], inst.xstar[1]))


@st.composite
def hand_built_lcqp(draw):
    """An LCQP instance of N 1-4 blocks of 1-5 columns each, sizes drawn block by block, and
    m 1-6 rows; its optimum is not planted."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spd(n):
        B = rng.standard_normal((n, n))
        S = B @ B.T
        return 0.5 * (S + S.T) + n * np.eye(n)

    blocks = tuple(QuadraticBlock(spd(n), rng.standard_normal(n)) for n in dims)
    problem = BlockProblem(blocks, tuple(rng.standard_normal((m, n)) for n in dims),
                           rng.standard_normal(m))
    return LcqpInstance(problem, tuple(rng.standard_normal(n) for n in dims),
                        rng.standard_normal(m), draw(st.integers(0, 2**31)))


SEEDS = st.integers(0, 1000)

ROUND_TRIP_FAMILIES = {
    "lcqp": st.builds(generate_lcqp, st.integers(1, 4), st.integers(1, 6), st.integers(1, 5),
                      SEEDS),
    "ra": st.builds(generate_resource_alloc, st.integers(1, 8), SEEDS),
    "mixed-size": hand_built_lcqp(),
}


@pytest.mark.parametrize("family", list(ROUND_TRIP_FAMILIES))
def test_instance_round_trip_is_bit_exact(tmp_path, count_calls, family):
    # The recorded spectra are used: neither the read nor certify --tau auto makes an eigensolve.
    eigh = count_calls("numpy.linalg", "eigvalsh")
    path = tmp_path / "instance.npz"

    @settings(max_examples=15, deadline=None)
    @given(inst=ROUND_TRIP_FAMILIES[family])
    def round_trip(inst):
        save_instance(inst, path)
        eigh.clear()
        loaded = load_instance(path)
        certify(loaded.problem, 1.0, 1.0, StandardProximal("auto"), loaded.seed)
        assert eigh == []
        assert type(loaded) is type(inst)
        assert_same_arrays(instance_arrays(loaded), instance_arrays(inst))

    round_trip()


@pytest.mark.parametrize("generate", [lambda seed: generate_lcqp(3, 6, 4, seed),
                                      lambda seed: generate_resource_alloc(6, seed)],
                         ids=["lcqp", "ra"])
def test_redraw_is_a_fresh_draw_from_that_seed(tmp_path, generate):
    path = tmp_path / "instance.npz"
    save_instance(generate(0), path)
    redrawn, fresh = load_instance(path).redraw(5), generate(5)
    assert type(redrawn) is type(fresh) and redrawn.seed == 5
    assert_same_arrays(instance_arrays(redrawn), instance_arrays(fresh))


def test_redraw_refuses_blocks_of_differing_sizes():
    with pytest.raises(InvalidParameter, match=r"differing sizes \(2, 3\)"):
        mixed_size_instance().redraw(1)


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
    assert members.pop("dims").dtype.kind == "i"
    assert members.pop(SPECTRA_DIGEST).dtype.kind == "U"
    members.pop("kind")
    assert all(a.dtype == np.float64 for a in members.values())


LCQP_MEMBERS = ["kind", "seed", "dims", "c", "A", "H", "q", "xstar", "lambdastar",
                "spectra_gram", "spectra_norms", "spectra_c_A", "spectra_curvatures",
                SPECTRA_DIGEST]

# "lcqp-without-P" is the instance of blocks of differing sizes; no LCQP archive holds P.
ARCHIVE_MEMBERS = {
    "lcqp": LCQP_MEMBERS,
    "lcqp-without-P": LCQP_MEMBERS,
    "ra": ["kind", "seed", "dims", "c", "A", "a", "b", "cshift", "dshift",
           "spectra_gram", "spectra_norms", "spectra_c_A", SPECTRA_DIGEST],
}

ARCHIVE_INSTANCES = {
    "lcqp": lambda: generate_lcqp(2, 4, 3, seed=0),
    "lcqp-without-P": mixed_size_instance,
    "ra": lambda: generate_resource_alloc(3, 0),
}


@pytest.mark.parametrize("kind", list(ARCHIVE_MEMBERS))
def test_instance_archive_members_come_in_a_fixed_order(tmp_path, kind):
    path = tmp_path / "instance.npz"
    save_instance(ARCHIVE_INSTANCES[kind](), path)
    with zipfile.ZipFile(path) as archive:
        assert archive.namelist() == [f"{name}.npy" for name in ARCHIVE_MEMBERS[kind]]


@pytest.mark.parametrize("small, large, members", [
    (lambda: generate_lcqp(2, 4, 3, seed=0), lambda: generate_lcqp(40, 4, 1, seed=0), 14),
    (lambda: generate_resource_alloc(3, 0), lambda: generate_resource_alloc(300, 0), 13),
], ids=["lcqp", "ra"])
def test_load_instance_reads_as_many_members_for_any_block_count(tmp_path, monkeypatch,
                                                                 small, large, members):
    # A read takes every member once, and the members do not depend on the number of blocks.
    read, real = [], np.lib.npyio.NpzFile.__getitem__
    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                        lambda archive, key: read.append(key) or real(archive, key))
    reads = []
    for inst in (small(), large()):
        path = tmp_path / "instance.npz"
        save_instance(inst, path)
        read.clear()
        load_instance(path)
        with zipfile.ZipFile(path) as archive:
            assert sorted(read) == sorted(name[:-4] for name in archive.namelist())
        reads.append(list(read))
    assert reads[0] == reads[1] and len(reads[0]) == members


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


def test_run_sweep_returns_cells_in_key_order(cpus, tmp_path):
    cpus(2)  # cells that finish early on one worker still arrive in key order
    inst = generate_lcqp(2, 5, 3, seed=4)
    sweep = SweepConfig(rho_grid=(5.0, 1.0), gamma_grid=(1.5, 0.5), max_iters=10)
    arrived = []
    cells = run_sweep(inst, sweep, on_cell=arrived.append, trace_dir=tmp_path)
    assert list(cells) == [(5.0, 1.5, 4), (5.0, 0.5, 4), (1.0, 1.5, 4), (1.0, 0.5, 4)]
    assert list(cells.values()) == arrived  # on_cell sees each cell as it arrives, in key order


# -- sweeps on forked workers -------------------------------------------------------------------

def exact_column(column):
    """A trace column as exact text: ``None``, or its dtype, shape and bytes (numpy's
    ``repr`` rounds to 8 digits and elides long arrays)."""
    return None if column is None else (column.dtype.str, column.shape, column.tobytes())


def cell_outcome(cell, directory) -> str:
    """Everything a cell yields but its times, as exact text: its manifest entry without
    ``timings``, ``wall_s`` and ``trace_sha256``, and its trace's columns but
    ``elapsed_seconds``, read from ``directory``."""
    entry = cell.to_dict()
    for key in ("timings", "wall_s", "trace_sha256"):
        del entry[key]
    columns = None if cell.trace is None else [
        (name, exact_column(column)) for name, column in
        cell_trace(cell, directory, ("k", "dis", "phi", "primal_residual")).items()]
    return repr((entry, columns))


def blas_threads_cell(instance, reference, rho, gamma, sweep, policy, trace_dir):
    """A cell that records its process id and OpenBLAS thread counts in ``error``."""
    threads = [get() for get in exp._openblas_calls("get_num_threads", ctypes.c_int)]
    return SweepCell(rho, gamma, instance.seed, error=repr((os.getpid(), threads)))


@pytest.mark.parametrize("generate", [lambda seed: generate_lcqp(3, 20, 8, seed),
                                      lambda seed: generate_resource_alloc(6, seed)],
                         ids=["lcqp", "ra"])
def test_pooled_cells_equal_one_worker_cells(cpus, count_calls, generate, tmp_path):
    sweep = SweepConfig(RHO_GRID_SMALL, GAMMA_GRID, max_iters=300)
    pooled = count_calls("jprox.experiments", "_run_pooled")
    outcomes = []
    for n in (1, 2):
        cpus(n)
        directory = tmp_path / f"cpus{n}"
        directory.mkdir()
        cells = run_sweep([generate(0), generate(1)], sweep, trace_dir=directory)
        outcomes.append({key: cell_outcome(cell, directory) for key, cell in cells.items()})
    assert len(pooled) == 1  # the two-worker sweep, and only it, ran on the pool
    assert len(outcomes[0]) == 32
    assert list(outcomes[1]) == list(outcomes[0])
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("generate, policy", [
    (lambda: generate_lcqp(3, 20, 8, 0), StandardProximal("auto")),
    (lambda: generate_lcqp(3, 20, 8, 0), ProxLinear("auto")),
    (lambda: generate_resource_alloc(6, 0), StandardProximal("auto")),
], ids=["lcqp-auto", "lcqp-proxlinear", "ra-auto"])
def test_a_task_as_a_worker_gets_it_runs_without_an_eigensolve(count_calls, generate, policy,
                                                                tmp_path):
    # A worker unpickles its task; the instance's constants and reference come with it.
    sweep = SweepConfig(rho_grid=(1.0,), gamma_grid=(0.5,), max_iters=50)
    task = pickle.loads(pickle.dumps(exp._sweep_tasks([generate()], sweep, policy, tmp_path)[0]))
    counted = {name: count_calls("numpy.linalg", name)
               for name in ("eigvalsh", "eigh", "svd", "lstsq")}
    cell = exp._run_cell(*task)
    assert cell.error is None and cell.trace is not None
    assert {name: len(calls) for name, calls in counted.items()} == dict.fromkeys(counted, 0)


@pytest.mark.parametrize("n", [1, 2], ids=["one-worker", "pooled"])
def test_a_cell_whose_trace_is_written_carries_no_rows(tmp_path, cpus, n):
    # The process that ran a cell writes its trace; the cell that comes back
    # holds the file's name and digest, not its 4001 rows (158,917 pickled
    # bytes when it held them).
    cpus(n)
    sweep = SweepConfig(rho_grid=(5.0, 10.0), gamma_grid=(0.1,), max_iters=4000)
    cells = run_sweep(generate_lcqp(3, 100, 40, seed=0), sweep, trace_dir=tmp_path)
    for (rho, gamma, seed), cell in cells.items():
        assert cell.status == "max_iters"
        assert cell.trace == f"trace_rho{rho:g}_gamma{gamma:g}_seed{seed}.csv"
        rows = cell_trace(cell, tmp_path, ("k",))["k"]
        assert rows.tolist() == list(range(4001))
        assert len(pickle.dumps(cell)) < 4096


def test_no_child_process_remains_after_a_pooled_run_sweep(cpus, tmp_path):
    cpus(2)
    before = child_pids()
    cells = run_sweep(generate_lcqp(2, 5, 3, seed=0),
                      SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=20),
                      trace_dir=tmp_path)
    assert all(cell.error is None for cell in cells.values())
    assert child_pids() <= before


def test_a_sweep_worker_runs_one_openblas_thread(cpus, monkeypatch, tmp_path):
    if not exp._openblas_calls("get_num_threads", ctypes.c_int):
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be read")
    cpus(2)
    monkeypatch.setattr(exp, "_run_cell", blas_threads_cell)
    cells = run_sweep(generate_lcqp(2, 5, 3, seed=0),
                      SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0)), trace_dir=tmp_path)
    reports = [ast.literal_eval(cell.error) for cell in cells.values()]
    assert all(pid != TEST_PID for pid, _ in reports)
    assert all(threads and set(threads) == {1} for _, threads in reports)


def test_a_dead_sweep_worker_raises_worker_lost(cpus, monkeypatch, tmp_path):
    cpus(2)
    monkeypatch.setattr(exp, "_run_cell", exit_in_worker)
    before = child_pids()
    with pytest.raises(WorkerLost, match="sweep worker"):
        run_sweep(generate_lcqp(2, 5, 3, seed=0),
                  SweepConfig(rho_grid=(0.5, 1.0), gamma_grid=(0.5, 1.0), max_iters=20),
                  trace_dir=tmp_path)
    assert child_pids() <= before

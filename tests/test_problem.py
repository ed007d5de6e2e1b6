"""Problem model tests: values, gradients, diagnostics, serialization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from jprox.errors import DimensionMismatch
from jprox.experiments import (
    LcqpInstance,
    ResourceAllocInstance,
    generate_lcqp,
    load_instance,
    save_instance,
)
from jprox.linalg import smallest_singular_value_stacked
from jprox.problem import (
    BlockProblem,
    LogisticQuadBlock,
    PrimalDualPoint,
    QuadraticBlock,
    block_gradient,
    constraint_residual,
    kkt_residual,
)


def scalar_problem(n_blocks=2, c=0.0):
    """Blocks f_i(x) = x^2/2 with unit coupling, scalar constraint."""
    return BlockProblem(
        tuple(QuadraticBlock(np.eye(1), np.zeros(1)) for _ in range(n_blocks)),
        tuple(np.ones((1, 1)) for _ in range(n_blocks)),
        np.array([c]),
    )


def central_difference(f, x, step=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (f.value(x + e) - f.value(x - e)) / (2.0 * step)
    return g


# -- block values -----------------------------------------------------------------

def test_quadratic_value():
    f = QuadraticBlock(2.0 * np.eye(1), np.zeros(1))
    assert f.value(np.array([1.0])) == pytest.approx(1.0, abs=1e-15)


def test_logistic_value_at_zero_coefficients():
    f = LogisticQuadBlock(0.0, 0.0, 0.0, 0.0)
    for x in (-3.0, 0.0, 7.5):
        assert f.value(np.array([x])) == pytest.approx(math.log(2.0), rel=1e-15)


def test_logistic_value_high_precision_oracle():
    import mpmath

    f = LogisticQuadBlock(1.0, 1.0, 0.0, 0.0)
    mpmath.mp.dps = 50
    expected = float(mpmath.mpf("0.5") + mpmath.log(1 + mpmath.e))
    assert f.value(np.array([1.0])) == pytest.approx(expected, rel=1e-15)


# -- block_gradient ----------------------------------------------------------------

def test_quadratic_gradient():
    f = QuadraticBlock(np.diag([2.0, 2.0]), np.array([1.0, 1.0]))
    assert np.allclose(block_gradient(f, np.zeros(2)), [1.0, 1.0], atol=1e-15)


def test_logistic_gradient_stationary_point():
    f = LogisticQuadBlock(1.0, 0.0, 3.0, 0.0)
    assert block_gradient(f, np.array([3.0]))[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "make_block",
    [
        lambda rng: QuadraticBlock(
            (lambda B: B @ B.T + 0.5 * np.eye(3))(rng.standard_normal((3, 3))),
            rng.standard_normal(3),
        ),
        lambda rng: LogisticQuadBlock(
            rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0),
            rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
        ),
    ],
    ids=["quadratic", "logistic_quad"],
)
def test_gradient_matches_central_differences(make_block):
    rng = np.random.default_rng(2024)
    block = make_block(rng)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, block.dim)
        fd = central_difference(block, x)
        assert np.linalg.norm(block_gradient(block, x) - fd) < 1e-5


def test_logistic_overflow_safety():
    f = LogisticQuadBlock(1.0, 2.0, 0.0, 0.0)
    for x in (-1e6, -800.0, 800.0, 1e6):
        v = f.value(np.array([x]))
        g = block_gradient(f, np.array([x]))[0]
        assert math.isfinite(v) and math.isfinite(g)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.0, 2.0),
    b=st.floats(-2.0, 2.0),
    cshift=st.floats(-10.0, 10.0),
    dshift=st.floats(-10.0, 10.0),
    x=st.floats(-1e8, 1e8),
)
def test_logistic_gradient_is_bounded_perturbation(a, b, cshift, dshift, x):
    f = LogisticQuadBlock(a, b, cshift, dshift)
    g = block_gradient(f, np.array([x]))[0]
    linear = a * (x - cshift)
    # fp slack: the bound is exact in reals, but forming g rounds at |linear| scale.
    slack = 1e-12 + 8.0 * np.finfo(float).eps * abs(linear)
    assert abs(g - linear) <= abs(b) + slack


# -- constraint_residual --------------------------------------------------------------

def test_constraint_residual_at_generated_optimum():
    inst = generate_lcqp(3, 6, 4, seed=0)
    r = constraint_residual(inst.problem, list(inst.xstar))
    assert np.linalg.norm(r) <= 1e-10


def test_constraint_residual_zeros():
    p = scalar_problem(3, c=0.0)
    assert np.allclose(constraint_residual(p, [np.zeros(1)] * 3), 0.0)


def test_constraint_residual_arithmetic():
    p = scalar_problem(2, c=4.0)
    r = constraint_residual(p, [np.array([1.0]), np.array([2.0])])
    assert r == pytest.approx([-1.0])


def test_constraint_residual_list_and_stacked_agree_bitwise():
    rng = np.random.default_rng(21)
    A = (rng.standard_normal((5, 3)), rng.standard_normal((5, 1)), rng.standard_normal((5, 2)))
    p = BlockProblem(
        tuple(QuadraticBlock(np.eye(Ai.shape[1]), np.zeros(Ai.shape[1])) for Ai in A),
        A,
        rng.standard_normal(5),
    )
    x = [rng.standard_normal(Ai.shape[1]) for Ai in A]
    listed = constraint_residual(p, x)
    assert np.array_equal(listed, constraint_residual(p, np.concatenate(x)))
    oracle = sum(Ai @ xi for Ai, xi in zip(A, x)) - p.c
    assert np.allclose(listed, oracle, rtol=0.0, atol=1e-12)


def test_constraint_residual_rejects_wrong_lengths():
    p = scalar_problem(3)
    with pytest.raises(DimensionMismatch):
        constraint_residual(p, [np.zeros(1)] * 2)
    with pytest.raises(DimensionMismatch):
        constraint_residual(p, np.zeros(4))
    with pytest.raises(DimensionMismatch):
        constraint_residual(p, [np.zeros(1), np.zeros(2), np.zeros(1)])


def test_constraint_residual_takes_any_stacked_vector_as_its_float64_copy():
    rng = np.random.default_rng(22)
    A = (rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    p = BlockProblem(
        tuple(QuadraticBlock(np.eye(Ai.shape[1]), np.zeros(Ai.shape[1])) for Ai in A),
        A,
        rng.standard_normal(4),
    )
    want = p.stacked_A() @ np.array([1.0, -2.0, 3.0, 0.0, 5.0]) - p.c
    strided = np.array([1.0, 9.0, -2.0, 9.0, 3.0, 9.0, 0.0, 9.0, 5.0, 9.0])[::2]
    for x in (np.array([1, -2, 3, 0, 5]), np.array([1, -2, 3, 0, 5], dtype=np.float32),
              strided):
        assert constraint_residual(p, x).tobytes() == want.tobytes(), x
    with pytest.raises(DimensionMismatch):
        constraint_residual(p, np.zeros(6))


def test_stacked_layout_offsets_and_split():
    inst = generate_lcqp(3, 6, 4, seed=0)
    p = inst.problem
    assert p.offsets == (0, 4, 8, 12)
    x = p.stack(list(inst.xstar))
    assert all(np.array_equal(a, b) for a, b in zip(p.split(x), inst.xstar))
    A = p.stacked_A()
    assert A is p.stacked_A()
    assert np.array_equal(A, np.hstack(p.A))
    assert not A.flags.writeable


def uneven_coupling_problem():
    """A tall (5x3) and a wide (5x8) coupling block."""
    rng = np.random.default_rng(21)
    A = (rng.standard_normal((5, 3)), rng.standard_normal((5, 8)))
    blocks = tuple(QuadraticBlock(np.eye(Ai.shape[1]), np.zeros(Ai.shape[1])) for Ai in A)
    return BlockProblem(blocks, A, np.zeros(5))


def test_gram_matrices_are_exact_cached_and_read_only():
    p = uneven_coupling_problem()
    grams = p.gram_matrices()
    assert grams is p.gram_matrices()
    assert len(grams) == p.N
    for G, Ai in zip(grams, p.A):
        expected = Ai.T @ Ai
        assert G.shape == expected.shape and G.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            G[0, 0] = 1.0


def test_stacked_singular_value_is_exact_and_cached(count_calls):
    p = uneven_coupling_problem()
    svd = count_calls("jprox.linalg", "smallest_singular_value_stacked")
    first = p.stacked_singular_value()
    assert first is p.stacked_singular_value()
    assert len(svd) == 1
    assert first == smallest_singular_value_stacked(p.A)


# -- kkt_residual ----------------------------------------------------------------------

def test_kkt_residual_zero_at_origin_for_identity_problem():
    p = BlockProblem(
        (QuadraticBlock(np.eye(2), np.zeros(2)),),
        (np.eye(2),),
        np.zeros(2),
    )
    u = PrimalDualPoint([np.zeros(2)], np.zeros(2))
    assert kkt_residual(p, u) == 0.0


def test_kkt_residual_at_generated_optimum():
    inst = generate_lcqp(2, 5, 4, seed=3)
    assert kkt_residual(inst.problem, inst.optimum()) <= 1e-9


def test_kkt_residual_detects_perturbation():
    inst = generate_lcqp(2, 5, 4, seed=1)
    u = inst.optimum()
    delta = 1e-3
    u.x[0] = u.x[0].copy()
    u.x[0][0] += delta
    H0 = inst.problem.objectives[0].H
    lam_min = float(np.linalg.eigvalsh(H0)[0])
    res = kkt_residual(inst.problem, u)
    assert res >= lam_min * delta * (1.0 - 1e-6)
    # Direct evaluation: the stationarity gap of block 0 equals ||H0 e0|| * delta
    # up to the feasibility change it also induces.
    direct = np.linalg.norm(
        block_gradient(inst.problem.objectives[0], u.x[0])
        - inst.problem.A[0].T @ u.lam
    )
    assert res >= direct - 1e-12


# -- serialization -----------------------------------------------------------------------

def test_problem_roundtrip_quadratic(tmp_path):
    inst = generate_lcqp(3, 6, 4, seed=2)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    loaded = load_instance(path).problem
    assert loaded.N == inst.problem.N
    assert loaded.m == inst.problem.m
    for f1, f2, A1, A2 in zip(
        inst.problem.objectives, loaded.objectives, inst.problem.A, loaded.A
    ):
        assert np.array_equal(f1.H, f2.H)
        assert np.array_equal(f1.q, f2.q)
        assert np.array_equal(A1, A2)
    assert np.array_equal(inst.problem.c, loaded.c)


def test_problem_roundtrip_logistic(tmp_path):
    p = BlockProblem(
        (LogisticQuadBlock(0.5, -1.25, 3.75, -2.5), LogisticQuadBlock(1.0, 2.0, 0.1, 0.2)),
        (np.ones((1, 1)), np.ones((1, 1))),
        np.zeros(1),
    )
    path = tmp_path / "ra.json"
    save_instance(ResourceAllocInstance(p, seed=4), path)
    loaded = load_instance(path).problem
    for f1, f2 in zip(p.objectives, loaded.objectives):
        assert (f1.a, f1.b, f1.cshift, f1.dshift) == (f2.a, f2.b, f2.cshift, f2.dshift)


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    arrays(np.float64, (m,), elements=FINITE),
    arrays(np.float64, st.tuples(st.just(m), st.integers(1, 4)), elements=FINITE))))
@example((np.array([-0.0, 5e-324, 2.5e-310, 1e308, -1e308]), np.full((5, 1), -1e-320)))
def test_instance_archive_is_bit_exact(tmp_path_factory, arrays_mc):
    # Any finite float64 survives a write and a read bit for bit: -0.0,
    # subnormals and values near the overflow threshold included.
    c, A = arrays_mc
    n = A.shape[1]
    problem = BlockProblem((QuadraticBlock(np.eye(n), A[0]),), (A,), c)
    inst = LcqpInstance(problem, (A[-1],), c[::-1], seed=0)
    path = tmp_path_factory.mktemp("archive") / "instance.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    got = loaded.problem
    for a, b in [(A, got.A[0]), (c, got.c), (A[0], got.objectives[0].q),
                 (A[-1], loaded.xstar[0]), (c[::-1], loaded.lambdastar)]:
        assert b.dtype == np.float64 and b.shape == a.shape
        assert b.tobytes() == np.ascontiguousarray(a).tobytes()


def test_instance_archive_member_layout(tmp_path):
    # A member is a little-endian float64 .npy array of the stored shape.
    path = tmp_path / "instance.json"
    p = scalar_problem(n_blocks=1, c=-0.5)
    save_instance(LcqpInstance(p, (np.zeros(1),), np.zeros(1), seed=0), path)
    with np.load(path, allow_pickle=False) as archive:
        c = archive["c"]
    assert (c.dtype.str, c.shape, c.tobytes().hex()) == ("<f8", (1,), "000000000000e0bf")


def test_quadratic_block_rejects_non_finite_q():
    with pytest.raises(ValueError, match="q entries must be finite"):
        QuadraticBlock(np.eye(2), [np.nan, 1.0])
    with pytest.raises(ValueError, match="q entries must be finite"):
        QuadraticBlock(np.eye(2), [1.0, -np.inf])


def test_block_problem_rejects_non_finite_c():
    with pytest.raises(ValueError, match="c entries must be finite"):
        scalar_problem(c=np.nan)
    with pytest.raises(ValueError, match="c entries must be finite"):
        scalar_problem(c=np.inf)


@pytest.mark.parametrize("seed", range(3))
def test_quadratic_block_max_curvature_is_the_svd_norm_of_H(seed):
    for f in generate_lcqp(3, 5, 6, seed=seed).problem.objectives:
        assert f.max_curvature == pytest.approx(np.linalg.svd(f.H, compute_uv=False)[0],
                                                rel=1e-13)
        assert 0.0 < f.min_curvature <= f.max_curvature


def test_block_problem_rejects_objectives_outside_the_block_set():
    class Smooth:
        dim = 1

        def value(self, x):
            return float(x[0] ** 2)

        def gradient(self, x):
            return 2.0 * x

    with pytest.raises(TypeError):
        BlockProblem((Smooth(),), (np.ones((1, 1)),), np.zeros(1))


def test_problem_validation_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        BlockProblem(
            (QuadraticBlock(np.eye(2), np.zeros(2)),),
            (np.ones((3, 1)),),
            np.zeros(3),
        )

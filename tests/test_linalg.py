"""Matrix primitive tests against independent dense oracles."""

import warnings

import numpy as np
import pytest

from jprox.errors import NotPositiveDefinite, NotSymmetric
from jprox.experiments import generate_lcqp
from jprox.linalg import (
    GRAM_COND_LIMIT,
    SpdFactor,
    generalized_max_eigenvalue,
    gram_spectrum,
    min_eigenvalue_sym,
    smallest_singular_value_stacked,
    spectral_norm,
)


# -- oracles (independent of the implementations under test) --------------------

def jacobi_rotation_eigenvalues(S, sweeps=100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= 1e-15 * (1.0 + np.max(np.abs(A))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-18:
                    continue
                theta = 0.5 * (A[q, q] - A[p, p]) / A[p, q]
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                A = 0.5 * (A + A.T)
    return np.sort(np.diag(A))


def power_iteration_top_singular(A, iters=20000):
    """sqrt of the dominant eigenvalue of A'A by plain power iteration."""
    B = A.T @ A
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(B.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = B @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        w /= nrm
        if np.linalg.norm(w - v) < 1e-15:
            v = w
            break
        v = w
    return float(np.sqrt(v @ B @ v))


def random_spd(rng, n, shift=0.5):
    B = rng.standard_normal((n, n))
    return B @ B.T + shift * np.eye(n)


# -- SPD solves ------------------------------------------------------------------

def test_solve_spd_identity():
    x = SpdFactor(np.eye(3)).solve(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)


def test_solve_spd_diagonal():
    x = SpdFactor(np.diag([2.0, 4.0])).solve(np.array([4.0, 8.0]))
    assert np.allclose(x, [2.0, 2.0], rtol=0, atol=1e-14)


def test_solve_spd_random_residual():
    rng = np.random.default_rng(7)
    M = random_spd(rng, 5)
    b = rng.standard_normal(5)
    x = SpdFactor(M).solve(b)
    assert np.linalg.norm(M @ x - b) < 1e-10


@pytest.mark.parametrize("seed", range(12))
def test_solve_spd_residual_contract(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    M = random_spd(rng, n, shift=0.05)
    b = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n)
    x = SpdFactor(M).solve(b)
    assert np.linalg.norm(M @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_solve_spd_rejects_indefinite():
    M = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefinite):
        SpdFactor(M).solve(np.ones(2))


def test_solve_spd_rejects_asymmetric():
    M = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        SpdFactor(M).solve(np.ones(2))


def test_spd_factor_reuse():
    rng = np.random.default_rng(11)
    M = random_spd(rng, 6)
    factor = SpdFactor(M)
    for _ in range(4):
        b = rng.standard_normal(6)
        x = factor.solve(b)
        assert np.linalg.norm(M @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_spd_factor_checks_residual_only_when_poorly_conditioned():
    import scipy.linalg

    rng = np.random.default_rng(5)
    well = random_spd(rng, 6)
    factor = SpdFactor(well)
    assert not factor.checks_residual
    b = rng.standard_normal(6)
    expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(well, lower=True), b)
    np.testing.assert_allclose(factor.solve(b), expected, rtol=1e-13)

    hilbert = scipy.linalg.hilbert(4)  # condition number about 1.6e4
    factor = SpdFactor(hilbert)
    assert factor.checks_residual
    for _ in range(4):
        b = rng.standard_normal(4)
        x = factor.solve(b)
        assert np.linalg.norm(hilbert @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


@pytest.mark.parametrize("kind", ["well", "hilbert"])
def test_spd_factor_solves_a_matrix_of_right_hand_sides_column_by_column(kind):
    rng = np.random.default_rng(17)
    n = 6
    if kind == "well":
        M = random_spd(rng, n)
    else:
        i = np.arange(n)
        M = 1.0 / (i[:, None] + i[None, :] + 1.0)
        assert np.linalg.cond(M) > 1e5
    B = rng.standard_normal((n, 5)) * np.array([1e-6, 1e-3, 1.0, 1e3, 1e6])
    factor = SpdFactor(M)
    assert factor.checks_residual == (kind == "hilbert")
    X = factor.solve(B)
    assert X.shape == B.shape
    for j in range(B.shape[1]):
        b = B[:, j]
        assert np.linalg.norm(M @ X[:, j] - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


# -- min_eigenvalue_sym ------------------------------------------------------------

def test_min_eigenvalue_identity():
    assert min_eigenvalue_sym(np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_min_eigenvalue_diagonal():
    assert min_eigenvalue_sym(np.diag([-1.0, 3.0])) == pytest.approx(-1.0, abs=1e-12)


def test_min_eigenvalue_matches_jacobi_rotation_oracle():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((4, 4))
    S = 0.5 * (B + B.T)
    expected = jacobi_rotation_eigenvalues(S)[0]
    got = min_eigenvalue_sym(S)
    assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_min_eigenvalue_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        min_eigenvalue_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- spectral_norm ------------------------------------------------------------------

def test_spectral_norm_identity():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_spectral_norm_matches_power_iteration():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 3))
    assert spectral_norm(A) == pytest.approx(power_iteration_top_singular(A), rel=1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_spectral_norm_transpose_invariant(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    assert spectral_norm(A) == pytest.approx(spectral_norm(A.T), rel=1e-12)


def _matrix(kind: str) -> np.ndarray:
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
def test_spectral_norm_matches_svd(kind, scale):
    A = scale * _matrix(kind)
    expected = float(np.linalg.svd(A, compute_uv=False)[0])
    assert spectral_norm(A) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_spectral_norm_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        spectral_norm(np.array([[1.0, np.nan]]))


def test_spectral_norm_rejects_empty():
    with pytest.raises(ValueError):
        spectral_norm(np.zeros((0, 3)))


@pytest.mark.parametrize("A, zeros", [(np.full((2, 2), 1e308), 1), (np.full((2, 5), 1e300), 4),
                                      (np.diag([1e200, 0.0]), 1)], ids=["rank-1", "wide", "diag"])
def test_gram_spectrum_keeps_exact_zeros_when_the_squared_scale_overflows(A, zeros):
    # scale*scale = inf used to turn every exact-zero eigenvalue into 0*inf = nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = gram_spectrum(A).eigenvalues
    assert np.array_equal(w, [0.0] * zeros + [np.inf] * (w.size - zeros))


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e100, 1e150])
@pytest.mark.parametrize("kind", ["tall", "wide", "rank-1", "zero"])
def test_gram_spectrum_scales_by_the_squared_scale_while_it_is_finite(kind, scale):
    A = scale * _matrix(kind)
    big = float(np.max(np.abs(A)))
    S = A / big if big > 0.0 else A
    e = np.maximum(np.linalg.eigvalsh(S.T @ S if A.shape[0] >= A.shape[1] else S @ S.T), 0.0)
    expected = big * big * np.concatenate((np.zeros(A.shape[1] - e.size), e))
    assert np.array_equal(gram_spectrum(A).eigenvalues, expected)


# -- smallest_singular_value_stacked -------------------------------------------------

def test_stacked_single_identity():
    assert smallest_singular_value_stacked([np.eye(4)]) == pytest.approx(1.0, abs=1e-12)


def test_stacked_two_identities():
    res = smallest_singular_value_stacked([np.eye(3), np.eye(3)])
    assert res == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_stacked_rayleigh_sampling_oracle():
    rng = np.random.default_rng(5)
    m = 6
    blocks = [rng.standard_normal((m, n)) for n in (3, 2, 4)]
    c_A = smallest_singular_value_stacked(blocks)
    for _ in range(100):
        lam = rng.standard_normal(m)
        lam /= np.linalg.norm(lam)
        val = np.sqrt(sum(np.linalg.norm(A.T @ lam) ** 2 for A in blocks))
        assert val >= c_A - 1e-9
    # Equality at the minimizing direction, computed via the Gram eigenbasis.
    gram = sum(A @ A.T for A in blocks)
    w, V = np.linalg.eigh(gram)
    vmin = V[:, 0]
    attained = np.sqrt(sum(np.linalg.norm(A.T @ vmin) ** 2 for A in blocks))
    assert attained == pytest.approx(c_A, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_stacked_squared_equals_gram_min_eig(seed):
    # Valid whenever the stack has at least as many rows as columns.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    sizes = [int(rng.integers(1, 5)) for _ in range(3)]
    while sum(sizes) < m:
        sizes.append(int(rng.integers(1, 5)))
    blocks = [rng.standard_normal((m, n)) for n in sizes]
    res = smallest_singular_value_stacked(blocks)
    gram_min = min_eigenvalue_sym(sum(A @ A.T for A in blocks))
    assert res ** 2 == pytest.approx(gram_min, rel=1e-8, abs=1e-10)


def test_stacked_flags_rank_deficiency():
    A = np.zeros((3, 2))
    A[0, 0] = 1.0
    A[1, 1] = 1.0
    assert smallest_singular_value_stacked([A, A]) == pytest.approx(0.0, abs=1e-12)


def stack_svd(blocks) -> np.ndarray:
    """Singular values of the stacked transposes, by the SVD."""
    return np.linalg.svd(np.vstack([A.T for A in blocks]), compute_uv=False)


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that grows by one per ``np.linalg.svd`` call."""
    calls, svd = [], np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("sizes, m", [((3, 2, 4), 6), ((2, 2), 7), ((1,), 3)],
                         ids=["tall", "wide", "wide-one-block"])
def test_stacked_gram_value_matches_the_svd_within_its_bound(svd_calls, sizes, m, scale):
    # Tall stacks (sum n_i >= m) take the m x m Gram matrix, wide ones the
    # other; entries near 1e+-150 neither overflow nor underflow.
    rng = np.random.default_rng(41)
    for _ in range(20):
        unit = [rng.standard_normal((m, n)) for n in sizes]
        want = stack_svd(unit)[-1]
        svd_calls.clear()
        res = smallest_singular_value_stacked([scale * A for A in unit])
        assert svd_calls == []
        assert abs(res / scale - want) <= GRAM_COND_LIMIT * want


@pytest.mark.parametrize("shape", [(3, 100, 40), (3, 400, 150), (3, 12, 5)])
def test_stacked_gram_value_is_the_svd_to_1e12_on_benchmark_shapes(svd_calls, shape):
    for seed in range(3):
        A = generate_lcqp(*shape, seed=seed).problem.A
        svd_calls.clear()
        got = smallest_singular_value_stacked(A)
        assert svd_calls == []
        assert got == pytest.approx(stack_svd(A)[-1], rel=1e-12, abs=0.0)


def test_stacked_past_the_conditioning_limit_takes_the_svd(svd_calls):
    # Singular values 1 and 1e-5: 2*eps*1e10 is far above GRAM_COND_LIMIT.
    rng = np.random.default_rng(43)
    U, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    stack = U @ np.diag([1.0, 1e-5]) @ V.T
    blocks = [stack[:2].T, stack[2:].T]
    res = smallest_singular_value_stacked(blocks)
    assert len(svd_calls) == 1
    assert res == stack_svd(blocks)[-1]
    assert res == pytest.approx(1e-5, rel=1e-9)


# -- generalized_max_eigenvalue -------------------------------------------------------

def test_generalized_equal_matrices():
    rng = np.random.default_rng(9)
    M = random_spd(rng, 3)
    assert generalized_max_eigenvalue(M, M) == pytest.approx(1.0, rel=1e-10)


def test_generalized_scaling():
    rng = np.random.default_rng(10)
    Npd = random_spd(rng, 4)
    assert generalized_max_eigenvalue(2.0 * Npd, Npd) == pytest.approx(2.0, rel=1e-10)


def test_generalized_matches_congruence_oracle():
    import scipy.linalg

    rng = np.random.default_rng(21)
    B = rng.standard_normal((5, 5))
    M = 0.5 * (B + B.T)
    Npd = random_spd(rng, 5)
    C = np.linalg.cholesky(Npd)
    T = scipy.linalg.solve_triangular(C, M, lower=True)
    G = scipy.linalg.solve_triangular(C, T.T, lower=True).T
    expected = float(np.linalg.eigvalsh(0.5 * (G + G.T))[-1])
    assert generalized_max_eigenvalue(M, Npd) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_generalized_congruence_invariance(seed):
    rng = np.random.default_rng(100 + seed)
    n = 4
    B = rng.standard_normal((n, n))
    M = 0.5 * (B + B.T)
    Npd = random_spd(rng, n)
    base = generalized_max_eigenvalue(M, Npd)
    C = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    Mc = C.T @ M @ C
    Nc = C.T @ Npd @ C
    transformed = generalized_max_eigenvalue(0.5 * (Mc + Mc.T), 0.5 * (Nc + Nc.T))
    assert transformed == pytest.approx(base, rel=1e-7)


def test_generalized_rejects_indefinite_right():
    M = np.eye(2)
    with pytest.raises(NotPositiveDefinite):
        generalized_max_eigenvalue(M, np.diag([1.0, -1.0]))

"""Iteration engines.

The main engine updates all blocks in parallel against the previous
iterate (Jacobi semantics), each block minimizing its share of the
augmented Lagrangian plus a proximal term ``0.5 ||x_i - x_i^k||^2_{P_i}``,
followed by the damped dual step ``lam <- lam - gamma*rho*(sum A_i x_i - c)``.

Three baselines are provided for comparison: the same scheme with
``P_i = 0`` and ``gamma = 1`` (plain parallel ADMM), sequential
Gauss-Seidel ADMM, and dual decomposition.  All four run the same block
sweep and per-block solve; they differ only in the penalty and proximal
term of the subproblems, in whether the aggregate is refreshed after each
block, and in the dual step size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    MaxItersExceeded,
    NoBracket,
    NotPSD,
    SubproblemFailed,
)
from .linalg import SpdFactor, min_eigenvalue_sym, spectral_norm, require_symmetric
from .problem import (
    BlockProblem,
    LogisticQuadBlock,
    PrimalDualPoint,
    QuadraticBlock,
    check_point,
    constraint_residual,
    dis_metric,
    sigmoid,
)

#: Iterates whose error metric (or magnitude) exceeds this are declared divergent.
DIVERGENCE_LIMIT = 1e12


# -- proximal policies ---------------------------------------------------------

def _tau_for(tau, i: int, n_blocks: int) -> float:
    if np.isscalar(tau):
        t = float(tau)
    else:
        taus = list(tau)
        if len(taus) != n_blocks:
            raise DimensionMismatch(f"expected {n_blocks} tau values, got {len(taus)}")
        t = float(taus[i])
    if t <= 0.0:
        raise ValueError("tau must be positive")
    return t


@dataclass(frozen=True)
class StandardProximal:
    """``P_i = tau_i * I`` with ``tau_i > 0`` (scalar broadcasts to all blocks)."""

    tau: Union[float, Sequence[float]]


@dataclass(frozen=True)
class ProxLinear:
    """``P_i = tau_i * I - rho * A_i' A_i``; cancels the coupling quadratic.

    Positive semi-definiteness requires ``tau_i >= rho * ||A_i||^2``,
    validated at materialization.
    """

    tau: Union[float, Sequence[float]]


@dataclass(frozen=True)
class ExplicitProximal:
    """Caller-supplied symmetric PSD ``P_i`` per block."""

    P: Sequence[np.ndarray]


ProximalPolicy = Optional[Union[StandardProximal, ProxLinear, ExplicitProximal]]


def materialize_P(policy: ProximalPolicy, rho: float, A_i, index: int = 0,
                  n_blocks: int = 1) -> np.ndarray:
    """Materialize the proximal matrix for one block.

    Raises :class:`NotPSD` when a prox-linear ``tau_i`` falls below
    ``rho * ||A_i||^2`` or an explicit matrix has an eigenvalue below -1e-10.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    A_i = np.asarray(A_i, dtype=float)
    n = A_i.shape[1]
    if policy is None:
        return np.zeros((n, n))
    if isinstance(policy, StandardProximal):
        return _tau_for(policy.tau, index, n_blocks) * np.eye(n)
    if isinstance(policy, ProxLinear):
        tau = _tau_for(policy.tau, index, n_blocks)
        coupling = rho * spectral_norm(A_i) ** 2
        if tau < coupling - 1e-10 * (1.0 + coupling):
            raise NotPSD(
                f"prox-linear block {index}: tau={tau:.6g} below rho*||A||^2={coupling:.6g}"
            )
        return tau * np.eye(n) - rho * (A_i.T @ A_i)
    if isinstance(policy, ExplicitProximal):
        mats = list(policy.P)
        if len(mats) <= index:
            raise DimensionMismatch(f"explicit policy has no matrix for block {index}")
        P = require_symmetric(mats[index], f"explicit P[{index}]")
        if P.shape[0] != n:
            raise DimensionMismatch(
                f"explicit P[{index}] has size {P.shape[0]}, block has dimension {n}"
            )
        if min_eigenvalue_sym(P) < -1e-10:
            raise NotPSD(f"explicit P[{index}] has an eigenvalue below -1e-10")
        return np.array(P)
    raise TypeError(f"unknown proximal policy {policy!r}")


def materialize_policy(policy: ProximalPolicy, rho: float, problem: BlockProblem) -> list:
    """Proximal matrices for every block of ``problem``."""
    return [
        materialize_P(policy, rho, Ai, i, problem.N) for i, Ai in enumerate(problem.A)
    ]


# -- parameters and trace ------------------------------------------------------

@dataclass(frozen=True)
class SolverParams:
    """Engine parameters: penalty ``rho``, dual damping ``gamma``, proximal policy."""

    rho: float
    gamma: float
    policy: ProximalPolicy = None
    max_iters: int = 1000
    dis_tol: float = 0.0
    newton_tol: float = 1e-12
    newton_max_iters: int = 100

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.dis_tol < 0.0:
            raise ValueError("dis_tol must be nonnegative")
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")


@dataclass(frozen=True)
class DualDecompositionParams:
    """Step-size schedule for dual decomposition: constant or ``alpha0/sqrt(k+1)``."""

    alpha0: float
    schedule: str = "diminishing_inv_sqrt"

    def __post_init__(self):
        if self.alpha0 <= 0.0:
            raise ValueError("alpha0 must be positive")
        if self.schedule not in ("constant", "diminishing_inv_sqrt"):
            raise ValueError(f"unknown schedule {self.schedule!r}")

    def step_size(self, k: int) -> float:
        if self.schedule == "constant":
            return self.alpha0
        return self.alpha0 / math.sqrt(k + 1.0)


CONVERGED = "converged"
MAX_ITERS = "max_iters"
DIVERGED = "diverged"


@dataclass
class Trace:
    """Per-iteration records of a run.

    Columnar lists indexed by recorded iterate (k = 0 is the initial point):
    ``dis`` and ``phi`` hold ``None`` where the metric was unavailable.
    ``points`` is populated only when the run was asked to keep iterates.
    """

    ks: list = field(default_factory=list)
    dis: list = field(default_factory=list)
    phi: list = field(default_factory=list)
    primal_residual: list = field(default_factory=list)
    elapsed: list = field(default_factory=list)
    status: str = MAX_ITERS
    final: Optional[PrimalDualPoint] = None
    points: Optional[list] = None
    newton_max_residual: float = 0.0

    def __len__(self) -> int:
        return len(self.ks)


# -- scalar root finding -------------------------------------------------------

def _newton_bisection(fun, dfun, x0: float, tol: float, max_iters: int):
    """Root of a strictly increasing scalar function.

    Newton iterations start from ``x0``; any step that leaves the current
    bracket is replaced by its midpoint.  The initial bracket comes from a
    doubling expansion away from ``x0`` (up to 60 doublings).  Returns
    ``(root, |f(root)|, iterations)``.
    """
    f0 = fun(x0)
    if not math.isfinite(f0):
        raise NoBracket("residual is not finite at the starting point")
    if abs(f0) <= tol:
        return x0, abs(f0), 0
    step = 1.0
    if f0 > 0.0:
        hi = x0
        lo = x0
        for _ in range(60):
            lo = x0 - step
            if fun(lo) <= 0.0:
                break
            step *= 2.0
        else:
            raise NoBracket("no sign change within 60 doublings below the start")
    else:
        lo = x0
        hi = x0
        for _ in range(60):
            hi = x0 + step
            if fun(hi) >= 0.0:
                break
            step *= 2.0
        else:
            raise NoBracket("no sign change within 60 doublings above the start")
    x, f = x0, f0
    for it in range(1, max_iters + 1):
        d = dfun(x)
        cand = x - f / d if d > 0.0 else math.inf
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        x = cand
        f = fun(x)
        if abs(f) <= tol:
            return x, abs(f), it
        if f < 0.0:
            lo = x
        else:
            hi = x
    raise MaxItersExceeded(f"scalar solve missed tolerance {tol:g} in {max_iters} iterations")


def _solve_scalar(block: LogisticQuadBlock, rho: float, w2: float, t: float,
                  P_scalar: float, x_k: float, tol: float, max_iters: int):
    """Root of a scalar block's stationarity residual; returns ``(x, |F(x)|)``.

    ``F(x) = f'(x) + rho*w2*x + t + P*(x - x_k)`` has slope at least
    ``a + rho*w2 + P``, hence is strictly increasing whenever that sum is
    positive; Newton starts from ``x_k``.
    """
    a, b, cs, ds = block.a, block.b, block.cshift, block.dshift
    if a + rho * w2 + P_scalar <= 0.0:
        raise SubproblemFailed("scalar residual is not strictly increasing")

    def fun(x: float) -> float:
        return (
            a * (x - cs)
            + b * sigmoid(b * (x - ds))
            + rho * w2 * x
            + t
            + P_scalar * (x - x_k)
        )

    def dfun(x: float) -> float:
        return block.curvature(x) + rho * w2 + P_scalar

    x, resid, _ = _newton_bisection(fun, dfun, x_k, tol, max_iters)
    return x, resid


def solve_block_scalar_newton(block: LogisticQuadBlock, rho: float, lam_k: float,
                              g_minus_i: float, c: float, x_k: float, P_scalar: float,
                              tol: float = 1e-12, max_iters: int = 100) -> float:
    """Solve a scalar block subproblem with unit coupling coefficient.

    Finds ``x`` with ``|a*(x - cshift) + b*sigmoid(b*(x - dshift))
    + rho*(x + g_minus_i - c) - lam_k + P_scalar*(x - x_k)| <= tol``
    by safeguarded Newton on a bracketing interval.
    """
    t = rho * (float(g_minus_i) - float(c)) - float(lam_k)
    x, _ = _solve_scalar(block, rho, 1.0, t, P_scalar, float(x_k), tol, max_iters)
    return x


def solve_block_quadratic(block: QuadraticBlock, A_i, P_i, rho: float, lam_k,
                          g_minus_i, c, x_i_k, factor: Optional[SpdFactor] = None) -> np.ndarray:
    """Exact solve of a quadratic block subproblem.

    Solves ``(H + rho*A'A + P) x = A' lam - q - rho*A'(g_minus_i - c) + P x_k``
    where ``g_minus_i`` aggregates the other blocks' contributions.
    """
    A_i = np.asarray(A_i, dtype=float)
    P_i = np.asarray(P_i, dtype=float)
    if factor is None:
        factor = SpdFactor(block.H + rho * (A_i.T @ A_i) + P_i, "block subproblem matrix")
    rhs = A_i.T @ lam_k - block.q - rho * (A_i.T @ (np.asarray(g_minus_i) - np.asarray(c)))
    rhs = rhs + P_i @ np.asarray(x_i_k, dtype=float)
    return factor.solve(rhs)


# -- the block sweep shared by every method ------------------------------------

class _Prepared:
    """Iteration-independent data of the block solves for one ``(rho, P_i)``.

    Quadratic blocks get a factorization of ``H_i + rho*A_i'A_i + P_i``;
    scalar logistic blocks get ``w2 = ||A_i||^2``.  ``rho = 0`` with zero
    ``P_i`` gives the unpenalized subproblems of dual decomposition.
    """

    def __init__(self, problem: BlockProblem, rho: float, P_list: Sequence[np.ndarray]):
        self.rho = rho
        self.P = P_list
        self.factors = []
        self.w2 = []
        for f, Ai, Pi in zip(problem.objectives, problem.A, self.P):
            if isinstance(f, QuadraticBlock):
                self.factors.append(
                    SpdFactor(f.H + rho * (Ai.T @ Ai) + Pi, "block subproblem matrix")
                )
                self.w2.append(None)
            elif isinstance(f, LogisticQuadBlock):
                self.factors.append(None)
                self.w2.append(float(Ai[:, 0] @ Ai[:, 0]))
            else:
                raise SubproblemFailed(
                    f"no subproblem solver for {type(f).__name__} blocks"
                )


def _zero_P(problem: BlockProblem) -> list:
    return [np.zeros((n, n)) for n in problem.dims]


def _solve_block(problem: BlockProblem, prepared: _Prepared, i: int, lam: np.ndarray,
                 g_minus_i: np.ndarray, x_k: np.ndarray, newton_tol: float,
                 newton_max_iters: int):
    """Block ``i``'s subproblem; returns ``(x_i, Newton residual)``.

    The residual is 0.0 for quadratic blocks, which are solved exactly.
    """
    f, Ai, Pi, rho = problem.objectives[i], problem.A[i], prepared.P[i], prepared.rho
    factor = prepared.factors[i]
    if factor is not None:
        return solve_block_quadratic(f, Ai, Pi, rho, lam, g_minus_i, problem.c, x_k,
                                     factor=factor), 0.0
    t = rho * float(Ai[:, 0] @ (g_minus_i - problem.c)) - float(Ai[:, 0] @ lam)
    root, resid = _solve_scalar(f, rho, prepared.w2[i], t, float(Pi[0, 0]), float(x_k[0]),
                                newton_tol, newton_max_iters)
    return np.array([root]), resid


def _aggregate(problem: BlockProblem, x: Sequence[np.ndarray]) -> np.ndarray:
    g = np.zeros(problem.m)
    for Ai, xi in zip(problem.A, x):
        g += Ai @ xi
    return g


def _step(problem: BlockProblem, u: PrimalDualPoint, prepared: _Prepared, step_size: float,
          sequential: bool, order: Optional[Sequence[int]], newton_tol: float,
          newton_max_iters: int):
    """One sweep of block solves followed by ``lam <- lam - step_size * r``.

    Every block reads the aggregate ``g = sum_j A_j x_j`` minus its own
    contribution.  By default ``g`` is the k-state aggregate (Jacobi), so the
    processing order cannot affect the result; with ``sequential`` it is
    updated after every block (Gauss-Seidel).  Returns the new point, the
    worst Newton residual and the constraint residual ``r`` of the new point.
    """
    check_point(problem, u)
    indices = range(problem.N) if order is None else list(order)
    if sorted(indices) != list(range(problem.N)):
        raise ValueError("order must visit every block exactly once")
    g = _aggregate(problem, u.x)
    new_x = list(u.x)
    newton_worst = 0.0
    for i in indices:
        Ai = problem.A[i]
        g_minus_i = g - Ai @ u.x[i]
        new_x[i], resid = _solve_block(problem, prepared, i, u.lam, g_minus_i, u.x[i],
                                       newton_tol, newton_max_iters)
        newton_worst = max(newton_worst, resid)
        if sequential:
            g = g_minus_i + Ai @ new_x[i]
    r = constraint_residual(problem, new_x)
    return PrimalDualPoint(new_x, u.lam - step_size * r), newton_worst, r


def jacobi_proximal_step(problem: BlockProblem, u: PrimalDualPoint, params: SolverParams,
                         prepared: Optional[_Prepared] = None,
                         order: Optional[Sequence[int]] = None) -> PrimalDualPoint:
    """One parallel proximal step; identical result under any block order."""
    if prepared is None:
        prepared = _Prepared(problem, params.rho,
                             materialize_policy(params.policy, params.rho, problem))
    point, _, _ = _step(problem, u, prepared, params.gamma * params.rho, False, order,
                        params.newton_tol, params.newton_max_iters)
    return point


def jacobi_plain_step(problem: BlockProblem, u: PrimalDualPoint,
                      params: SolverParams) -> PrimalDualPoint:
    """Baseline: the parallel step with no proximal term and undamped dual update."""
    return jacobi_proximal_step(problem, u, replace(params, policy=None, gamma=1.0))


def gauss_seidel_step(problem: BlockProblem, u: PrimalDualPoint, params: SolverParams,
                      prepared: Optional[_Prepared] = None,
                      order: Optional[Sequence[int]] = None) -> PrimalDualPoint:
    """Baseline sequential step: each block sees the freshest other-block values.

    The proximal policy is ignored (``P_i = 0``) and the dual update is
    undamped.  Unlike the parallel step, the result depends on the block
    processing order.
    """
    if prepared is None:
        prepared = _Prepared(problem, params.rho, _zero_P(problem))
    point, _, _ = _step(problem, u, prepared, params.rho, True, order,
                        params.newton_tol, params.newton_max_iters)
    return point


def dual_decomposition_step(problem: BlockProblem, u: PrimalDualPoint, k: int,
                            dd: DualDecompositionParams, newton_tol: float = 1e-12,
                            newton_max_iters: int = 100) -> PrimalDualPoint:
    """Baseline dual ascent step with unpenalized, fully separable subproblems.

    Each block solves ``min f_i(x_i) - <lam, A_i x_i>``; subproblems are
    well-posed only for strongly convex blocks.  The multiplier then moves
    against the constraint residual with the scheduled step size.
    """
    prepared = _Prepared(problem, 0.0, _zero_P(problem))
    point, _, _ = _step(problem, u, prepared, dd.step_size(k), False, None, newton_tol,
                        newton_max_iters)
    return point


# -- the run loop --------------------------------------------------------------

def run(problem: BlockProblem, params: SolverParams, u0: PrimalDualPoint,
        reference: Optional[PrimalDualPoint] = None, phi_context=None,
        method: str = "jprox", dd_params: Optional[DualDecompositionParams] = None,
        record_points: bool = False) -> Trace:
    """Iterate one of the engines from ``u0`` and record a trace.

    The trace records the initial point as iterate 0 and one row per step.
    ``dis`` (largest block-wise or multiplier distance to ``reference``)
    is recorded when a reference is given, and the run stops once it falls
    to ``params.dis_tol``.  ``phi_context`` is an object with an
    ``evaluate(u, reference)`` method (see the certification module); its
    value is recorded per iterate when both it and a reference are present.

    A run is declared divergent when the error metric (or, absent a
    reference, the iterate magnitude) exceeds 1e12 or turns non-finite;
    the trace is returned with status ``"diverged"`` rather than raising.
    """
    check_point(problem, u0)
    if reference is not None:
        check_point(problem, reference)
    rho = params.rho
    dd = dd_params if dd_params is not None else DualDecompositionParams(1.0)
    # method: (penalty of the block solves, proximal policy, Gauss-Seidel sweep,
    #          dual step size at step k)
    methods = {
        "jprox": (rho, params.policy, False, lambda k: params.gamma * rho),
        "jacobi-plain": (rho, None, False, lambda k: rho),
        "gauss-seidel": (rho, None, True, lambda k: rho),
        "dual-decomp": (0.0, None, False, dd.step_size),
    }
    if method not in methods:
        raise ValueError(f"unknown method {method!r}")
    penalty, policy, sequential, step_size = methods[method]
    prepared = _Prepared(problem, penalty, materialize_policy(policy, rho, problem))

    trace = Trace(points=[] if record_points else None)
    start = time.perf_counter()
    u = u0.copy()

    def record(k: int, u: PrimalDualPoint, r: np.ndarray):
        d = dis_metric(u, reference) if reference is not None else None
        p = None
        if phi_context is not None and reference is not None:
            p = float(phi_context.evaluate(u, reference))
        trace.ks.append(k)
        trace.dis.append(d)
        trace.phi.append(p)
        trace.primal_residual.append(float(np.linalg.norm(r)))
        trace.elapsed.append(time.perf_counter() - start)
        if trace.points is not None:
            trace.points.append(u.copy())
        return d

    def diverged(d) -> bool:
        gauge = d if d is not None else u.magnitude()
        return not math.isfinite(gauge) or gauge > DIVERGENCE_LIMIT

    d = record(0, u, constraint_residual(problem, u.x))
    if reference is not None and d is not None and d <= params.dis_tol:
        trace.status = CONVERGED
    elif diverged(d):
        trace.status = DIVERGED
    else:
        for k in range(1, params.max_iters + 1):
            u, newton_resid, r = _step(problem, u, prepared, step_size(k - 1), sequential,
                                       None, params.newton_tol, params.newton_max_iters)
            trace.newton_max_residual = max(trace.newton_max_residual, newton_resid)
            d = record(k, u, r)
            if diverged(d):
                trace.status = DIVERGED
                break
            if reference is not None and d is not None and d <= params.dis_tol:
                trace.status = CONVERGED
                break
        else:
            trace.status = MAX_ITERS
    trace.final = u
    return trace

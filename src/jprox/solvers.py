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
from typing import NamedTuple, Optional, Sequence, Union

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
    block_distance,
    check_point,
    constraint_residual,
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
    ``failure`` names the block-solve failure that ended a diverged run, if
    any.  ``timings`` holds the seconds spent preparing the block solves
    (``prepare``), in steps (``step``) and recording iterates (``record``).
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
    failure: Optional[str] = None
    timings: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ks)


# -- scalar root finding -------------------------------------------------------

def _newton_bisection(fun, dfun, x0: float, tol: float, max_iters: int):
    """Root of a strictly increasing scalar function.

    Newton iterations start from ``x0``; any step that leaves the current
    bracket is replaced by its midpoint.  The initial bracket comes from a
    doubling expansion away from ``x0`` (up to 60 doublings).  The search
    stops once ``|f| <= tol``, or once the bracket is two adjacent floats:
    then no float comes closer to the root, and the returned residual may
    exceed ``tol`` (at ``|x|`` near 1e4 the spacing of ``f`` is about
    1e-12).  Returns ``(root, |f(root)|, iterations)``.
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
        if abs(f) <= tol or not lo < x < hi:
            return x, abs(f), it
        if f < 0.0:
            lo = x
        else:
            hi = x
    raise MaxItersExceeded(f"scalar solve missed tolerance {tol:g} in {max_iters} iterations")


def _solve_scalar(block: LogisticQuadBlock, B: float, t: float, P_scalar: float, x_k: float,
                  tol: float, max_iters: int):
    """Root of a scalar block's stationarity residual; returns ``(x, |F(x)|)``.

    ``F(x) = f'(x) + B*x + t + P*(x - x_k)``, with ``B = rho*||a_i||^2``,
    has slope at least ``a + B + P``; the caller checks that this is
    positive (:func:`_check_scalar_slope`), so ``F`` is strictly increasing.
    Newton starts from ``x_k``.
    """
    a, b, cs, ds = block.a, block.b, block.cshift, block.dshift

    def fun(x: float) -> float:
        return (
            a * (x - cs)
            + b * sigmoid(b * (x - ds))
            + B * x
            + t
            + P_scalar * (x - x_k)
        )

    def dfun(x: float) -> float:
        return block.curvature(x) + B + P_scalar

    x, resid, _ = _newton_bisection(fun, dfun, x_k, tol, max_iters)
    return x, resid


def _check_scalar_slope(block: LogisticQuadBlock, B: float, P_scalar: float) -> None:
    if block.a + B + P_scalar <= 0.0:
        raise SubproblemFailed("scalar residual is not strictly increasing")


def solve_block_scalar_newton(block: LogisticQuadBlock, rho: float, lam_k: float,
                              g_minus_i: float, c: float, x_k: float, P_scalar: float,
                              tol: float = 1e-12, max_iters: int = 100) -> float:
    """Solve a scalar block subproblem with unit coupling coefficient.

    Finds ``x`` with ``|a*(x - cshift) + b*sigmoid(b*(x - dshift))
    + rho*(x + g_minus_i - c) - lam_k + P_scalar*(x - x_k)| <= tol``
    by safeguarded Newton on a bracketing interval.
    """
    _check_scalar_slope(block, rho, P_scalar)
    t = rho * (float(g_minus_i) - float(c)) - float(lam_k)
    x, _ = _solve_scalar(block, rho, t, P_scalar, float(x_k), tol, max_iters)
    return x


def _solve_quadratic(factor: SpdFactor, At_i: np.ndarray, B_i: np.ndarray, q: np.ndarray,
                     w: np.ndarray, x_k: np.ndarray) -> np.ndarray:
    """``(H + B) x = A' w + B x_k - q``: a quadratic block's subproblem."""
    return factor.solve(At_i @ w + B_i @ x_k - q)


def solve_block_quadratic(block: QuadraticBlock, A_i, P_i, rho: float, lam_k,
                          g_minus_i, c, x_i_k, factor: Optional[SpdFactor] = None) -> np.ndarray:
    """Exact solve of a quadratic block subproblem.

    Solves ``(H + rho*A'A + P) x = A' lam - q - rho*A'(g_minus_i - c) + P x_k``
    where ``g_minus_i`` aggregates the other blocks' contributions.  This is
    the engine's block update with ``w = lam - rho*(g_minus_i + A x_k - c)``
    and ``B = rho*A'A + P``.
    """
    A_i = np.asarray(A_i, dtype=float)
    P_i = np.asarray(P_i, dtype=float)
    x_i_k = np.asarray(x_i_k, dtype=float)
    if factor is None:
        factor = SpdFactor(block.H + rho * (A_i.T @ A_i) + P_i, "block subproblem matrix")
    w = np.asarray(lam_k) - rho * (np.asarray(g_minus_i) + A_i @ x_i_k - np.asarray(c))
    return _solve_quadratic(factor, A_i.T, rho * (A_i.T @ A_i) + P_i, block.q, w, x_i_k)


# -- the block sweep shared by every method ------------------------------------

class _Block(NamedTuple):
    """One block of the sweep: its slice of the stacked primal vector, ``A_i``,
    ``A_i'`` (the row ``a_i`` for a scalar block), ``B``, the objective, and
    the factorization of ``H_i + B`` (``None`` for a scalar block).

    ``B`` is ``rho*A_i'A_i + P_i`` for a quadratic block and ``rho*||a_i||^2``
    for a scalar block, whose proximal weight is kept in ``P``.
    """

    sl: slice
    A: np.ndarray
    At: np.ndarray
    B: Union[np.ndarray, float]
    f: Union[QuadraticBlock, LogisticQuadBlock]
    factor: Optional[SpdFactor]
    P: float


class _Prepared:
    """Iteration-independent data of the block sweep for one ``(rho, P_i)``.

    The sweep works on the stacked primal vector ``x`` (block ``i`` is
    ``x[offsets[i]:offsets[i+1]]``) and the multiplier; ``blocks`` holds one
    :class:`_Block` per block.  ``rho = 0`` with zero ``P_i`` gives the
    unpenalized subproblems of dual decomposition.
    """

    def __init__(self, problem: BlockProblem, rho: float, P_list: Sequence[np.ndarray]):
        self.problem = problem
        self.rho = rho
        self.offsets = np.asarray(problem.offsets)
        self.blocks = []
        o = problem.offsets
        for i, (f, Ai, Pi) in enumerate(zip(problem.objectives, problem.A, P_list)):
            sl, AtA = slice(o[i], o[i + 1]), Ai.T @ Ai
            if isinstance(f, QuadraticBlock):
                factor = SpdFactor(f.H + rho * AtA + Pi, "block subproblem matrix")
                block = _Block(sl, Ai, np.ascontiguousarray(Ai.T), rho * AtA + Pi, f, factor, 0.0)
            elif isinstance(f, LogisticQuadBlock):
                block = _Block(sl, Ai, Ai[:, 0].copy(), rho * float(AtA[0, 0]), f, None,
                               float(Pi[0, 0]))
                _check_scalar_slope(f, block.B, block.P)
            else:
                raise SubproblemFailed(f"no subproblem solver for {type(f).__name__} blocks")
            self.blocks.append(block)


def _zero_P(problem: BlockProblem) -> list:
    return [np.zeros((n, n)) for n in problem.dims]


def _step(prepared: _Prepared, x: np.ndarray, lam: np.ndarray, r: np.ndarray,
          step_size: float, sequential: bool, order: Sequence[int], newton_tol: float,
          newton_max_iters: int):
    """One sweep of block solves followed by ``lam <- lam - step_size * r``.

    ``x`` is the stacked primal vector and ``r = A x - c`` its constraint
    residual.  Block ``i`` solves its subproblem with
    ``w = lam - rho*(A x - c)`` and ``v_i = A_i' w + B_i x_i``.  By default
    ``w`` is formed once from the k-state (Jacobi), so the processing order
    cannot affect the result; with ``sequential`` it is updated after every
    block (Gauss-Seidel).  Returns the new ``x``, ``lam``, their constraint
    residual and the worst Newton residual.
    """
    rho = prepared.rho
    w = lam - rho * r
    x_new = x.copy()
    newton_worst = 0.0
    for i in order:
        sl, Ai, At_i, B_i, f, factor, P_i = prepared.blocks[i]
        x_i = x[sl]
        if factor is not None:
            x_new[sl] = _solve_quadratic(factor, At_i, B_i, f.q, w, x_i)
        else:
            x0 = float(x_i[0])
            root, resid = _solve_scalar(f, B_i, -float(At_i @ w) - B_i * x0, P_i, x0,
                                        newton_tol, newton_max_iters)
            x_new[sl] = root
            newton_worst = max(newton_worst, resid)
        if sequential:
            w = w - rho * (Ai @ (x_new[sl] - x_i))
    r = constraint_residual(prepared.problem, x_new)
    return x_new, lam - step_size * r, r, newton_worst


def _public_step(problem: BlockProblem, u: PrimalDualPoint, prepared: _Prepared,
                 step_size: float, sequential: bool, order: Optional[Sequence[int]],
                 newton_tol: float, newton_max_iters: int) -> PrimalDualPoint:
    """:func:`_step` on a :class:`PrimalDualPoint`, with its inputs checked."""
    check_point(problem, u)
    if order is None:
        order = range(problem.N)
    elif sorted(order) != list(range(problem.N)):
        raise ValueError("order must visit every block exactly once")
    x = problem.stack(u.x)
    x, lam, _, _ = _step(prepared, x, u.lam, constraint_residual(problem, x), step_size,
                         sequential, order, newton_tol, newton_max_iters)
    return PrimalDualPoint(problem.split(x), lam)


def jacobi_proximal_step(problem: BlockProblem, u: PrimalDualPoint, params: SolverParams,
                         prepared: Optional[_Prepared] = None,
                         order: Optional[Sequence[int]] = None) -> PrimalDualPoint:
    """One parallel proximal step; identical result under any block order."""
    if prepared is None:
        prepared = _Prepared(problem, params.rho,
                             materialize_policy(params.policy, params.rho, problem))
    return _public_step(problem, u, prepared, params.gamma * params.rho, False, order,
                        params.newton_tol, params.newton_max_iters)


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
    return _public_step(problem, u, prepared, params.rho, True, order,
                        params.newton_tol, params.newton_max_iters)


def dual_decomposition_step(problem: BlockProblem, u: PrimalDualPoint, k: int,
                            dd: DualDecompositionParams, newton_tol: float = 1e-12,
                            newton_max_iters: int = 100) -> PrimalDualPoint:
    """Baseline dual ascent step with unpenalized, fully separable subproblems.

    Each block solves ``min f_i(x_i) - <lam, A_i x_i>``; subproblems are
    well-posed only for strongly convex blocks.  The multiplier then moves
    against the constraint residual with the scheduled step size.
    """
    prepared = _Prepared(problem, 0.0, _zero_P(problem))
    return _public_step(problem, u, prepared, dd.step_size(k), False, None, newton_tol,
                        newton_max_iters)


# -- the run loop --------------------------------------------------------------

def run(problem: BlockProblem, params: SolverParams, u0: PrimalDualPoint,
        reference: Optional[PrimalDualPoint] = None, phi_context=None,
        method: str = "jprox", dd_params: Optional[DualDecompositionParams] = None,
        record_points: bool = False) -> Trace:
    """Iterate one of the engines from ``u0`` and record a trace.

    The trace records the initial point as iterate 0 and one row per step.
    ``dis`` (largest block-wise or multiplier distance to ``reference``)
    is recorded when a reference is given, and the run stops once it falls
    to ``params.dis_tol``.  ``phi_context`` is the certification module's
    ``PhiWeights``; its value is recorded per iterate when both it and a
    reference are present.

    A run is declared divergent when the error metric (or, absent a
    reference, the iterate magnitude) exceeds 1e12 or turns non-finite, or
    when a block subproblem cannot be solved during a step (the message is
    kept in ``Trace.failure``); the trace is returned with status
    ``"diverged"`` rather than raising.  Failures while preparing the block
    solves (an unsupported block type, a non-PSD proximal matrix) raise.
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

    trace = Trace(points=[] if record_points else None)
    clock = time.perf_counter()
    prepared = _Prepared(problem, penalty, materialize_policy(policy, rho, problem))
    offsets = prepared.offsets
    if reference is not None:
        x_ref, lam_ref = problem.stack(reference.x), reference.lam
    phi = phi_context if reference is not None else None
    order = range(problem.N)
    x, lam = problem.stack(u0.x), u0.lam.copy()
    r = constraint_residual(problem, x)
    start = time.perf_counter()
    trace.timings["prepare"] = start - clock

    def record(k: int) -> None:
        if reference is not None:
            dx, dlam = x - x_ref, lam - lam_ref
            d = block_distance(dx, dlam, offsets)
            gauge = d
        else:
            d = None
            gauge = block_distance(x, lam, offsets)
        trace.ks.append(k)
        trace.dis.append(d)
        trace.phi.append(None if phi is None else phi.evaluate_stacked(dx, dlam))
        trace.primal_residual.append(math.sqrt(r @ r))
        trace.elapsed.append(time.perf_counter() - start)
        if trace.points is not None:
            trace.points.append(PrimalDualPoint(problem.split(x.copy()), lam.copy()))
        if not math.isfinite(gauge) or gauge > DIVERGENCE_LIMIT:
            trace.status = DIVERGED
        elif d is not None and d <= params.dis_tol:
            trace.status = CONVERGED

    step_s = 0.0
    record(0)
    k = 0
    while trace.status == MAX_ITERS and k < params.max_iters:
        k += 1
        clock = time.perf_counter()
        try:
            x, lam, r, newton_resid = _step(prepared, x, lam, r, step_size(k - 1), sequential,
                                            order, params.newton_tol, params.newton_max_iters)
        except (SubproblemFailed, NoBracket, MaxItersExceeded) as exc:
            trace.status = DIVERGED
            trace.failure = f"step {k}: {type(exc).__name__}: {exc}"
            break
        finally:
            step_s += time.perf_counter() - clock
        trace.newton_max_residual = max(trace.newton_max_residual, newton_resid)
        record(k)
    trace.timings["step"] = step_s
    trace.timings["record"] = time.perf_counter() - start - step_s
    trace.final = PrimalDualPoint(problem.split(x), lam)
    return trace

"""Iteration engines.

The main engine updates all blocks in parallel against the previous
iterate (Jacobi semantics), each block minimizing its share of the
augmented Lagrangian plus a proximal term ``0.5 ||x_i - x_i^k||^2_{P_i}``,
followed by the damped dual step ``lam <- lam - gamma*rho*(sum A_i x_i - c)``.

``P_i`` is none or a weight policy ``tau_i*I - coupling*rho*A_i'A_i``
(:data:`WEIGHT_POLICIES`) whose class carries its ``kind`` and
``coupling``: everything else is derived from them.

Three baselines run beside it: the same scheme with ``P_i = 0`` and
``gamma = 1`` (plain parallel ADMM), sequential Gauss-Seidel ADMM, and dual
decomposition.  :data:`METHODS` is the one table of what sets the four
apart: the penalty and the proximal term of the block subproblems, whether
the sweep is sequential, and the dual step size.  :func:`run` and
:func:`step` both read it and run the same step loop.

Dual decomposition solves unpenalized subproblems and takes the constant
dual step ``1/L_d = mu / ||[A_1 ... A_N]||_2^2``, where ``mu`` is the
smallest block curvature bound: the dual function's gradient is
``L_d``-Lipschitz, and gradient ascent with step ``1/L_d`` converges.

When every block is quadratic and the sweep is not sequential, one step is
an affine map of the iterate: ``[x; lam]+ = M [x; lam] + b``
(:func:`affine_map`).  Such a run (up to a size cap,
:data:`AFFINE_MAX_ENTRIES`) iterates that map, one dense matvec per step,
in place of the block solves and the dual step.  One step loop
(:func:`_steps`) writes each new iterate straight into the row of a buffer
that holds it.  :func:`run` takes and records its iterates
:data:`RECORD_CHUNK` at a time, and stamps each chunk's rows with one
``elapsed`` reading; :func:`step` is one row of the loop.  :func:`run`
also owns the chunk map: a long affine run (:data:`POWER_MIN_STEPS`)
switches after its first chunk to the map of a whole chunk,
``z_{k+64} = M^64 z_k + b_64`` (:func:`_chunk_map`), and computes each
later chunk as one matrix product with the previous one, whose rows agree
with the step-by-step rows to round-off.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    MaxItersExceeded,
    NoBracket,
    NotPSD,
    NotStronglyConvex,
    SubproblemFailed,
)
from .linalg import SpdFactor, spectral_norm
from .problem import (
    BlockProblem,
    LogisticQuadBlock,
    PrimalDualPoint,
    QuadraticBlock,
    block_distances,
    check_point,
    constraint_residual,
    sigmoid,
)

#: Iterates whose error metric (or magnitude) exceeds this are declared divergent.
DIVERGENCE_LIMIT = 1e12

#: All-quadratic Jacobi steps iterate the dense map ``M`` of the whole step when
#: it has at most this many entries, ``(sum n_i + m)**2`` (8 MiB of float64).
AFFINE_MAX_ENTRIES = 2 ** 20

#: A run takes this many steps between two batched recordings, which share one
#: ``elapsed`` stamp (a power of two, so that :func:`_chunk_map` reaches
#: ``M**RECORD_CHUNK`` by squarings).
RECORD_CHUNK = 64

#: An affine run that has kept its first chunk and has at least this many steps
#: left builds the chunk map ``(M**RECORD_CHUNK, b_64)`` (:func:`_chunk_map`),
#: and :func:`run` computes each later chunk as one matrix product with the
#: previous one.
#: On a 2-core VM (one OpenBLAS thread, numpy 2.4.6) the build took about
#: 2 ms at ``n + m = 220``, 23 ms at 500 and 125 ms at 900, and a power row
#: saved about 6, 36 and 220 us over its matvec step: the build pays for
#: itself after 350 to 650 rows.  A chunk of 64 rows beat 16 and 32 per row.
POWER_MIN_STEPS = 512

#: Absolute residual tolerance and iteration cap of a scalar block solve.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 100


# -- proximal policies ---------------------------------------------------------

def _block_weights(tau, n_blocks: int) -> list:
    """The weight ``tau_i`` of each of ``n_blocks`` blocks (a scalar broadcasts), validated."""
    if isinstance(tau, str):
        raise InvalidParameter(f"tau {tau!r} is a request, not a weight: certify resolves "
                               "'auto' into weights (Certificate.proximal)")
    taus = [tau] * n_blocks if np.isscalar(tau) else list(tau)
    if len(taus) != n_blocks:
        raise DimensionMismatch(f"expected {n_blocks} tau values, got {len(taus)}")
    taus = [float(t) for t in taus]
    if not all(math.isfinite(t) and t > 0.0 for t in taus):
        raise InvalidParameter("tau must be finite and positive")
    return taus


@dataclass(frozen=True)
class StandardProximal:
    """``P_i = tau_i * I`` with ``tau_i > 0`` (scalar broadcasts to all blocks).

    ``tau="auto"`` here and in :class:`ProxLinear` is a request; ``certify`` resolves it.
    """

    tau: Union[float, Sequence[float]]
    kind = "standard"  # the name in --policy and in certificates
    coupling = 0  # P_i = tau_i*I - coupling*rho*A_i'A_i


@dataclass(frozen=True)
class ProxLinear:
    """``P_i = tau_i * I - rho * A_i' A_i``; cancels the coupling quadratic.

    It is PSD for ``tau_i >= rho * ||A_i||^2``, validated at materialization.
    """

    tau: Union[float, Sequence[float]]
    kind = "proxlinear"
    coupling = 1


ProximalPolicy = Optional[Union[StandardProximal, ProxLinear]]

#: The weight policies ``P_i = tau_i*I - coupling*rho*A_i'A_i`` by ``kind``.
WEIGHT_POLICIES = {cls.kind: cls for cls in (StandardProximal, ProxLinear)}


def materialize_policy(policy: ProximalPolicy, rho: float, problem: BlockProblem) -> list:
    """Proximal matrices for every block of ``problem``.

    A weight policy with ``coupling`` set reads ``A_i'A_i`` and ``||A_i||``
    from the problem's caches.  Raises :class:`NotPSD` for ``tau_i`` below the
    floor ``coupling*rho*||A_i||^2`` (:func:`policy_weights`).
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise InvalidParameter("rho must be finite and positive")
    if policy is None:
        return [np.zeros((n, n)) for n in problem.dims]
    P_list = []
    for i, (n, tau) in enumerate(zip(problem.dims, policy_weights(policy, rho, problem))):
        P = tau * np.eye(n)
        if policy.coupling:
            P -= policy.coupling * rho * problem.gram_matrices()[i]
        P_list.append(P)
    return P_list


def policy_weights(policy: Union[StandardProximal, ProxLinear], rho: float,
                   problem: BlockProblem) -> list:
    """The weights ``tau_i`` of a weight policy, validated against its floor.

    Raises :class:`NotPSD` for ``tau_i`` below ``coupling*rho*||A_i||^2``,
    read from the cached Gram spectra, so no ``A_i'A_i`` is formed.
    """
    taus = _block_weights(policy.tau, problem.N)
    if policy.coupling:
        for i, (tau, gram) in enumerate(zip(taus, problem.gram_spectra())):
            floor = policy.coupling * rho * gram.norm ** 2
            if tau < floor - 1e-10 * (1.0 + floor):
                raise NotPSD(f"prox-linear block {i}: tau={tau:.6g} below "
                             f"rho*||A||^2={floor:.6g}")
    return taus


def policy_eigenvalues(policy: ProximalPolicy, rho: float, ds: Sequence[np.ndarray]) -> list:
    """Eigenvalues of each materialized ``P_i``, paired with the eigenvalues ``ds[i]`` of
    ``A_i'A_i``.

    Every policy makes ``P_i`` a polynomial in ``A_i'A_i``, so entry ``j``
    of block ``i`` is ``0`` or ``tau_i - coupling*rho*d_j``.  Validation is
    :func:`materialize_policy`'s.
    """
    if policy is None:
        return [np.zeros_like(d) for d in ds]
    return [tau - policy.coupling * rho * d
            for tau, d in zip(_block_weights(policy.tau, len(ds)), ds)]


# -- parameters and trace ------------------------------------------------------

@dataclass(frozen=True)
class SolverParams:
    """Engine parameters: penalty ``rho``, dual damping ``gamma``, proximal policy."""

    rho: float
    gamma: float
    policy: ProximalPolicy = None
    max_iters: int = 1000
    dis_tol: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise InvalidParameter("rho must be finite and positive")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidParameter("gamma must be finite and positive")
        if self.max_iters < 1:
            raise InvalidParameter("max_iters must be at least 1")
        if not (math.isfinite(self.dis_tol) and self.dis_tol >= 0.0):
            raise InvalidParameter("dis_tol must be finite and nonnegative")


CONVERGED = "converged"
MAX_ITERS = "max_iters"
DIVERGED = "diverged"


@dataclass
class Trace:
    """Per-iteration records of a run: float64 arrays whose row ``k`` is iterate ``k``.

    ``k = 0`` is the initial point and ``ks`` is ``range(len(trace))``.
    ``dis`` and ``phi`` are ``None`` when the run did not record them;
    ``points``, kept on request, holds each iterate ``[x; lam]`` as a row.
    Steps run and are recorded :data:`RECORD_CHUNK` at a time.  Every
    column holds exactly the rows a step-by-step loop would record, except
    past the first chunk of a long affine run (:data:`POWER_MIN_STEPS`):
    there each chunk comes from the previous one through ``M^64``, and its
    rows agree with the loop's to round-off (a ``dis`` near the stop rule's
    tolerance can then stop a few steps apart).  ``elapsed`` holds the
    seconds since the steps began, read once per recorded chunk, so a
    chunk's rows share one stamp and the stamps never decrease.
    ``newton_max_residual`` is the worst scalar block-solve residual over
    the recorded steps.  ``failure`` names the block-solve failure that
    ended a diverged run, if any; a failure in a step past the stop row is
    not kept.  ``timings`` holds the seconds spent preparing the block
    solves and any chunk map (``prepare``), in steps (``step``) and
    recording iterates (``record``).  ``engine`` names the primal update
    that ran in the step loop: ``"affine"`` (the dense map of an
    all-quadratic Jacobi run) or ``"sweep"`` (the block solves).
    """

    dis: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None
    primal_residual: np.ndarray = field(default_factory=lambda: np.empty(0))
    elapsed: np.ndarray = field(default_factory=lambda: np.empty(0))
    status: str = MAX_ITERS
    final: Optional[PrimalDualPoint] = None
    points: Optional[np.ndarray] = None
    newton_max_residual: float = 0.0
    failure: Optional[str] = None
    timings: dict = field(default_factory=dict)
    engine: str = "sweep"

    @property
    def ks(self) -> range:
        """The recorded iterates' indices, ``range(len(self))``."""
        return range(len(self))

    def __len__(self) -> int:
        return len(self.primal_residual)


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
    step, sign = 1.0, -1.0 if f0 > 0.0 else 1.0
    for _ in range(60):
        far = x0 + sign * step
        if sign * fun(far) >= 0.0:
            break
        step *= 2.0
    else:
        side = "below" if sign < 0.0 else "above"
        raise NoBracket(f"no sign change within 60 doublings {side} the start")
    lo, hi = (far, x0) if sign < 0.0 else (x0, far)
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


def _solve_scalar(block: LogisticQuadBlock, B: float, t: float, P_scalar: float, x_k: float):
    """Root of a scalar block's stationarity residual; returns ``(x, |F(x)|)``.

    ``F(x) = f'(x) + B*x + t + P*(x - x_k)``, with ``B = rho*||a_i||^2``,
    has slope at least ``a + B + P``; the caller checks that this is
    positive (:func:`_check_scalar_slope`), so ``F`` is strictly increasing.
    Newton starts from ``x_k`` and stops at ``|F| <= NEWTON_TOL``.
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

    x, resid, _ = _newton_bisection(fun, dfun, x_k, NEWTON_TOL, NEWTON_MAX_ITERS)
    return x, resid


def _check_scalar_slope(block: LogisticQuadBlock, B: float, P_scalar: float) -> None:
    if block.a + B + P_scalar <= 0.0:
        raise SubproblemFailed("scalar residual is not strictly increasing")


def _solve_quadratic(factor: SpdFactor, At_i: np.ndarray, B_i: np.ndarray, q: np.ndarray,
                     w: np.ndarray, x_k: np.ndarray) -> np.ndarray:
    """``(H + B) x = A' w + B x_k - q``: a quadratic block's subproblem."""
    return factor.solve(At_i @ w + B_i @ x_k - q)


def solve_block_quadratic(block: QuadraticBlock, A_i, P_i, rho: float, lam_k,
                          g_minus_i, c, x_i_k) -> np.ndarray:
    """Exact solve of a quadratic block subproblem.

    Solves ``(H + rho*A'A + P) x = A' lam - q - rho*A'(g_minus_i - c) + P x_k``
    where ``g_minus_i`` aggregates the other blocks' contributions.  This is
    the engine's block update with ``w = lam - rho*(g_minus_i + A x_k - c)``
    and ``B = rho*A'A + P``.
    """
    A_i = np.asarray(A_i, dtype=float)
    P_i = np.asarray(P_i, dtype=float)
    x_i_k = np.asarray(x_i_k, dtype=float)
    factor = SpdFactor(block.H + rho * (A_i.T @ A_i) + P_i, "block subproblem matrix")
    w = np.asarray(lam_k) - rho * (np.asarray(g_minus_i) + A_i @ x_i_k - np.asarray(c))
    return _solve_quadratic(factor, A_i.T, rho * (A_i.T @ A_i) + P_i, block.q, w, x_i_k)


# -- the method table ----------------------------------------------------------

def _dual_ascent_step(problem: BlockProblem) -> float:
    """``1/L_d = mu / ||[A_1 ... A_N]||_2^2``, the dual-decomposition step.

    ``mu`` is the smallest block curvature bound.  The dual gradient
    ``-(A x(lam) - c)`` is then ``L_d``-Lipschitz.  Raises
    :class:`NotStronglyConvex` when ``mu <= 0``.
    """
    mu = min(f.min_curvature for f in problem.objectives)
    if mu <= 0.0:
        raise NotStronglyConvex(
            f"smallest block curvature {mu:.3e} is not positive: no dual step", alpha=0.5 * mu
        )
    return mu / spectral_norm(problem.stacked_A()) ** 2


class _Method(NamedTuple):
    """What sets one method's step apart from the others (see :data:`METHODS`)."""

    #: The block subproblems carry the penalty ``rho`` (else they are unpenalized).
    penalized: bool
    #: The block subproblems carry the proximal policy (else ``P_i = 0``).
    proximal: bool
    #: Gauss-Seidel sweep: each block sees the blocks solved before it.
    sequential: bool
    #: Step size of ``lam <- lam - step * (A x - c)``.
    dual_step: Callable[[SolverParams, BlockProblem], float]


#: The four methods: (penalized, proximal, sequential, dual step).
METHODS = {
    "jprox": _Method(True, True, False, lambda params, problem: params.gamma * params.rho),
    "jacobi-plain": _Method(True, False, False, lambda params, problem: params.rho),
    "gauss-seidel": _Method(True, False, True, lambda params, problem: params.rho),
    "dual-decomp": _Method(False, False, False,
                           lambda params, problem: _dual_ascent_step(problem)),
}


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
    """Iteration-independent data of one method's step for ``params``.

    The step works on the stacked primal vector ``x`` (block ``i`` is
    ``x[offsets[i]:offsets[i+1]]``) and the multiplier; ``blocks`` holds one
    :class:`_Block` per block and ``order`` the order in which the block
    solves visit them (default ``0..N-1``), ``rho`` is the subproblems'
    penalty (0 for dual decomposition) and ``dual_step`` the step size of the
    dual update.  When the step is affine (every block is quadratic and the
    sweep is not sequential) and its map has at most
    :data:`AFFINE_MAX_ENTRIES` entries, ``affine`` is that map's pair
    ``(M, b)`` (:meth:`_affine_map`), which :func:`_steps` iterates one
    matvec per row and from which :func:`run` may build the chunk map
    (:func:`_chunk_map`); else ``affine`` is ``None`` and the step is the
    block solves (:func:`_block_solves`) and the dual step.  ``engine``
    names the choice.  Nothing here changes once built.
    """

    def __init__(self, problem: BlockProblem, params: SolverParams, method: str,
                 order: Optional[Sequence[int]] = None):
        if method not in METHODS:
            raise InvalidParameter(f"unknown method {method!r}")
        spec = METHODS[method]
        P_list = materialize_policy(params.policy if spec.proximal else None, params.rho,
                                    problem)
        self.problem = problem
        self.rho = rho = params.rho if spec.penalized else 0.0
        self.sequential = spec.sequential
        self.dual_step = spec.dual_step(params, problem)
        self.offsets = np.asarray(problem.offsets)
        self.order = range(problem.N) if order is None else order
        if sorted(self.order) != list(range(problem.N)):
            raise ValueError("order must visit every block exactly once")
        self.blocks = []
        o = problem.offsets
        for i, (f, Ai, Pi) in enumerate(zip(problem.objectives, problem.A, P_list)):
            sl, AtA = slice(o[i], o[i + 1]), problem.gram_matrices()[i]
            if isinstance(f, QuadraticBlock):
                factor = SpdFactor(f.H + rho * AtA + Pi, "block subproblem matrix")
                block = _Block(sl, Ai, np.ascontiguousarray(Ai.T), rho * AtA + Pi, f, factor, 0.0)
            else:
                block = _Block(sl, Ai, Ai[:, 0].copy(), rho * float(AtA[0, 0]), f, None,
                               float(Pi[0, 0]))
                _check_scalar_slope(f, block.B, block.P)
            self.blocks.append(block)
        fits = (o[-1] + problem.m) ** 2 <= AFFINE_MAX_ENTRIES
        self.affine = self._affine_map() if fits else None
        self.engine = "sweep" if self.affine is None else "affine"

    def _affine_map(self):
        """``(M, b)``: the whole step ``[x; lam]+ = M [x; lam] + b``, the one builder.

        Block ``i`` solves ``K_i x_i = A_i'(lam - rho*(A x - c)) + B_i x_i - q_i``
        with ``K_i = H_i + B_i``, so the ``x`` rows ``[T_x | b_x]`` of block
        ``i`` are ``K_i^-1 [B_i E_i - rho*A_i'A | A_i' | rho*A_i'c - q_i]``
        (``E_i`` selects block ``i`` of ``x``): one multi-column solve per
        block.  The dual step ``lam+ = lam - dual_step*(A x+ - c)`` makes the
        ``lam`` rows ``[0 | I] - dual_step*A T_x`` and their offset
        ``-dual_step*(A b_x - c)``.  ``M`` and ``b`` are views of one array
        that holds the right-hand sides and then the map.  ``None`` for a
        sequential sweep or a scalar block, whose step is not affine.
        """
        if self.sequential or any(b.factor is None for b in self.blocks):
            return None
        problem, rho, dual_step = self.problem, self.rho, self.dual_step
        A, n, m = problem.stacked_A(), problem.offsets[-1], problem.m
        Mb = np.empty((n + m, n + m + 1))
        X, LAM = Mb[:n], Mb[n:]
        np.matmul(A.T, A, out=X[:, :n])
        X[:, :n] *= -rho
        X[:, n:-1] = A.T
        X[:, -1] = rho * (A.T @ problem.c) - np.concatenate([b.f.q for b in self.blocks])
        for b in self.blocks:
            X[b.sl, b.sl] += b.B
        for b in self.blocks:
            X[b.sl] = b.factor.solve(X[b.sl])
        np.matmul(A, X, out=LAM)
        LAM *= -dual_step
        rows = np.arange(m)
        LAM[rows, n + rows] += 1.0
        LAM[:, -1] += dual_step * problem.c
        return Mb[:, :-1], Mb[:, -1]


def _chunk_map(M: np.ndarray, b: np.ndarray) -> tuple:
    """``(M^p, b_p)``, the map of :data:`RECORD_CHUNK` steps of ``z+ = M z + b``.

    With ``p = RECORD_CHUNK``, ``z_{k+p} = M^p z_k + b_p`` where
    ``b_p = (I + M + ... + M^(p-1)) b``.  Squarings build both:
    ``b_2q = M^q b_q + b_q``, then ``M^2q = M^q M^q``.  ``M`` and ``b`` are
    left as they are.
    """
    power = M
    for _ in range(RECORD_CHUNK.bit_length() - 1):
        b = power @ b + b
        power = power @ power
    return power, b


# -- the one step loop ---------------------------------------------------------

def _block_solves(prepared: _Prepared, z: np.ndarray, r: np.ndarray, x_row: np.ndarray) -> float:
    """The new stacked ``x`` into ``x_row`` by one block solve per block.

    ``z`` is the iterate ``[x; lam]`` and ``r = A x - c``.  Block ``i``
    solves its subproblem with ``w = lam - rho*(A x - c)`` and
    ``v_i = A_i' w + B_i x_i``.  A Jacobi sweep forms ``w`` once from the
    k-state, so ``prepared.order`` cannot affect the result; a
    sequential sweep updates it after every block (Gauss-Seidel).  Returns
    the worst Newton residual.
    """
    rho, n = prepared.rho, x_row.size
    x, w = z[:n], z[n:] - rho * r
    newton_worst = 0.0
    for i in prepared.order:
        sl, Ai, At_i, B_i, f, factor, P_i = prepared.blocks[i]
        x_i = x[sl]
        if factor is not None:
            x_row[sl] = _solve_quadratic(factor, At_i, B_i, f.q, w, x_i)
        else:
            x0 = float(x_i[0])
            root, resid = _solve_scalar(f, B_i, -float(At_i @ w) - B_i * x0, P_i, x0)
            x_row[sl] = root
            newton_worst = max(newton_worst, resid)
        if prepared.sequential:
            w = w - rho * (Ai @ (x_row[sl] - x_i))
    return newton_worst


def _residual_norms(problem: BlockProblem, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[j] <- ||A X[j] - c||`` for every row of ``X`` from one product ``X A' - c``,
    which is returned."""
    R = X @ problem.stacked_A().T
    R -= problem.c
    np.sqrt(np.einsum("ij,ij->i", R, R), out=out)
    return R


def _steps(prepared: _Prepared, z: np.ndarray, r: np.ndarray, Z: np.ndarray, RN: np.ndarray,
           newton: np.ndarray):
    """Steps written straight into the rows of ``Z``: the loop of both engines.

    Row ``j`` of ``Z`` is the iterate ``[x; lam]`` one step after row
    ``j-1`` (after ``z``, whose constraint residual is ``r``, for row 0).
    The affine engine writes row ``j`` as ``M @ (row j-1) + b``, with
    ``(M, b)`` from ``prepared.affine`` (the map covers the dual step, so a
    row costs one matvec and one add), and then the norms of the rows'
    constraint residuals into ``RN`` from one product
    (:func:`_residual_norms`).  The block sweep takes ``x`` from
    :func:`_block_solves`, then ``lam <- lam - dual_step * (A x - c)``, and
    writes the step's worst Newton residual to ``newton[j]`` and the norm of
    row ``j``'s constraint residual to ``RN[j]``.  Returns the number of
    rows written, the constraint residual of the last one and the
    block-solve failure that stopped the loop (``None`` when every row was
    written).
    """
    problem = prepared.problem
    n = problem.offsets[-1]
    prev = z
    if prepared.affine is not None:
        M, b = prepared.affine
        for row in Z:
            np.matmul(M, prev, out=row)
            row += b
            prev = row
        return len(Z), _residual_norms(problem, Z[:, :n], RN[:len(Z)])[-1], None
    dual_step = prepared.dual_step
    tmp = np.empty(problem.m)
    for j, row in enumerate(Z):
        x_row, lam_row = row[:n], row[n:]
        try:
            newton[j] = _block_solves(prepared, prev, r, x_row)
        except (SubproblemFailed, NoBracket, MaxItersExceeded) as exc:
            return j, r, exc
        r = constraint_residual(problem, x_row)
        np.multiply(r, dual_step, out=tmp)
        np.subtract(prev[n:], tmp, out=lam_row)
        RN[j] = math.sqrt(r @ r)
        prev = row
    return len(Z), r, None


def affine_map(problem: BlockProblem, params: SolverParams, method: str = "jprox"):
    """``(M, b)`` of one step of ``method``: ``[x; lam]+ = M [x; lam] + b``.

    The step is affine for a Jacobi method (``jprox``, ``jacobi-plain``,
    ``dual-decomp``) on a problem whose blocks are all quadratic; else this
    raises :class:`InvalidParameter`.  Within :data:`AFFINE_MAX_ENTRIES` it
    is the map that :func:`run` iterates.  ``M`` is ``(n + m, n + m)`` and
    acts on the stacked iterate ``[x; lam]``.
    """
    prepared = _Prepared(problem, params, method)
    affine = prepared.affine if prepared.affine is not None else prepared._affine_map()
    if affine is None:
        raise InvalidParameter("only a Jacobi step on quadratic blocks is affine")
    return affine


def step(problem: BlockProblem, u: PrimalDualPoint, params: SolverParams,
         method: str = "jprox", order: Optional[Sequence[int]] = None) -> PrimalDualPoint:
    """One step of ``method`` from ``u``: the step :func:`run` takes.

    ``order`` is the order in which the sweep visits the blocks (default
    ``0..N-1``).  Only the sequential Gauss-Seidel step depends on it; every
    other method gives the same result bit for bit under any order.  A
    block-solve failure raises.
    """
    check_point(problem, u)
    prepared = _Prepared(problem, params, method, order)
    x = problem.stack(u.x)
    Z = np.empty((1, x.size + problem.m))
    _, _, failure = _steps(prepared, np.concatenate((x, u.lam)), constraint_residual(problem, x),
                           Z, np.empty(1), np.empty(1))
    if failure is not None:
        raise failure
    return PrimalDualPoint(problem.split(Z[0, :x.size]), Z[0, x.size:])


# -- the run loop --------------------------------------------------------------

def run(problem: BlockProblem, params: SolverParams, u0: PrimalDualPoint,
        reference: Optional[PrimalDualPoint] = None, phi_context=None,
        method: str = "jprox", record_points: bool = False) -> Trace:
    """Iterate ``method`` (a key of :data:`METHODS`) from ``u0`` and record a trace.

    The trace records the initial point as iterate 0 and one row per step.
    ``dis`` (largest block-wise or multiplier distance to ``reference``)
    is recorded when a reference is given, and the run stops once it falls
    to ``params.dis_tol``.  ``phi_context`` is a passed certificate's
    ``weights`` (:class:`jprox.certify.PhiWeights`); ``phi`` is recorded per
    iterate when both it and a reference are present; with ``record_points``
    the iterates are the rows of ``points``.

    A run is declared divergent when the error metric (or, absent a
    reference, the iterate magnitude) exceeds 1e12 or turns non-finite, or
    when a block subproblem cannot be solved during a step (the message is
    kept in ``Trace.failure``); the trace is returned with status
    ``"diverged"`` rather than raising.  Failures while preparing the block
    solves (an unknown method, a non-PSD proximal matrix, a problem without
    a positive curvature bound for dual decomposition) raise.

    Every run takes its steps :data:`RECORD_CHUNK` at a time with
    :func:`_steps`, which writes each iterate straight into its row of one
    preallocated ``(chunk, n + m)`` buffer of ``[x; lam]`` rows, and records
    each chunk with batched products; the two engines (see
    :class:`_Prepared`) differ only in how a row is written.  An affine
    run that has kept its first chunk and has at least
    :data:`POWER_MIN_STEPS` steps left builds the chunk map
    ``(M^64, b_64)`` once (:func:`_chunk_map`, timed as ``prepare``) and
    from then on computes each chunk itself, as the previous chunk times
    ``M^64'`` plus ``b_64``.  A chunk keeps the rows up to the first one
    that meets the stop rule, and the run ends in that row's state, so it
    records the rows of a step-by-step loop (to round-off past a switch),
    and each column's kept slices are joined once, when the run ends.  The
    kept rows of a chunk share one ``elapsed`` stamp, read when the chunk
    is recorded.  A block-solve failure ends its chunk at the failed step;
    the steps past the stop row are discarded, a failure among them
    included.
    """
    check_point(problem, u0)
    if reference is not None:
        check_point(problem, reference)
    trace = Trace()
    clock = time.perf_counter()
    prepared = _Prepared(problem, params, method)
    trace.engine = prepared.engine
    offsets = prepared.offsets
    if reference is not None:
        x_ref, lam_ref = problem.stack(reference.x), reference.lam
    phi = phi_context if reference is not None else None
    x, lam = problem.stack(u0.x), u0.lam.copy()
    r = constraint_residual(problem, x)
    start = time.perf_counter()
    trace.timings["prepare"] = start - clock
    n = x.size
    parts = {"dis": [], "phi": [], "primal_residual": [], "elapsed": [], "points": []}

    def record_rows(Z: np.ndarray, RN: np.ndarray) -> int:
        """Record the rows ``[x; lam]`` of ``Z`` as the next iterates up to the first
        that meets the stop rule, under one ``elapsed`` stamp; return how many were kept."""
        stamp = time.perf_counter() - start
        X, LAM = Z[:, :n], Z[:, n:]
        DX, DLAM = (X - x_ref, LAM - lam_ref) if reference is not None else (X, LAM)
        gauge = block_distances(DX, DLAM, offsets)
        diverged = ~(gauge <= DIVERGENCE_LIMIT)
        stops = diverged | (gauge <= params.dis_tol) if reference is not None else diverged
        hits = np.flatnonzero(stops)
        kept = int(hits[0]) + 1 if hits.size else len(Z)
        if reference is not None:
            parts["dis"].append(gauge[:kept])
        if phi is not None:
            parts["phi"].append(phi.evaluate_rows(DX[:kept], DLAM[:kept]))
        parts["primal_residual"].append(RN[:kept].copy())
        parts["elapsed"].append(np.full(kept, stamp))
        if record_points:
            parts["points"].append(Z[:kept].copy())
        if hits.size:
            trace.status = DIVERGED if diverged[hits[0]] else CONVERGED
        return kept

    size = min(RECORD_CHUNK, params.max_iters)
    # Row j of a chunk is the iterate [x; lam] of its j-th step.
    Z = np.empty((size, n + problem.m))
    RN, newton = np.empty(size), np.zeros(size)
    Z[0, :n], Z[0, n:], RN[0] = x, lam, math.sqrt(r @ r)
    record_rows(Z[:1], RN[:1])
    z = Z[0].copy()  # the state the next chunk starts from, outside the buffer
    chunk_map = None  # (M^64, b_64), once a long affine run has switched
    step_s = power_s = 0.0
    k = 0
    # Steps past a divergent row may overflow; they are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        while trace.status == MAX_ITERS and k < params.max_iters:
            if (k == RECORD_CHUNK and prepared.affine is not None
                    and params.max_iters - k >= POWER_MIN_STEPS):
                clock = time.perf_counter()
                chunk_map = _chunk_map(*prepared.affine)
                power_s = time.perf_counter() - clock
            size = min(RECORD_CHUNK, params.max_iters - k)
            clock = time.perf_counter()
            if chunk_map is None:
                size, r, failure = _steps(prepared, z, r, Z[:size], RN, newton)
            else:  # row j is M^64 times row j of the chunk just kept, plus b_64
                power, b_power = chunk_map
                Z = Z[:size] @ power.T
                Z += b_power
                _residual_norms(problem, Z[:, :n], RN[:size])
                failure = None
            step_s += time.perf_counter() - clock
            kept = record_rows(Z[:size], RN[:size])
            trace.newton_max_residual = float(newton[:kept].max(initial=trace.newton_max_residual))
            if failure is not None and trace.status == MAX_ITERS:
                trace.status = DIVERGED
                trace.failure = f"step {k + size + 1}: {type(failure).__name__}: {failure}"
            k += kept
            if kept:
                z = Z[kept - 1].copy()
    for name, chunks in parts.items():
        if chunks:
            setattr(trace, name, np.concatenate(chunks))
    trace.timings["prepare"] += power_s
    trace.timings["step"] = step_s
    trace.timings["record"] = time.perf_counter() - start - step_s - power_s
    trace.final = PrimalDualPoint(problem.split(z[:n]), z[n:])
    return trace

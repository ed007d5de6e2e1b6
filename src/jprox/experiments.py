"""Benchmark generators, reference solutions, sweeps and instance files.

Two seeded problem families are provided: a linearly constrained quadratic
program with dense Gaussian data and a scalar resource-allocation problem
(quadratic plus softplus blocks sharing a single budget constraint).
Randomness is confined to ``numpy.random.default_rng(seed)``, so identical
(seed, config) pairs reproduce instances and traces bit for bit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .certify import Certificate, RateFit, certify, fit_linear_rate
from .errors import (
    DegenerateAfterRetries,
    InsufficientData,
    InvalidParameter,
    JproxError,
    SingularKkt,
)
from .linalg import smallest_singular_value_stacked
from .problem import (
    BlockProblem,
    LogisticQuadBlock,
    PrimalDualPoint,
    QuadraticBlock,
    kkt_map,
    kkt_residual,
    pack_array,
    problem_from_dict,
    problem_to_dict,
    require_list,
    unpack_array,
)
from .solvers import SolverParams, StandardProximal, run

#: Generated stacks must clear this smallest singular value (kept as a hard
#: floor so downstream rank assumptions hold).
STACK_MIN_SV = 1e-8

#: Attempts to draw a non-degenerate coupling-matrix set before giving up.
GENERATION_RETRIES = 20

#: Spectral shift applied when repairing objective matrices to strict PD.
PD_SHIFT = 0.1


def _symmetrized_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    B = rng.standard_normal((n, n))
    return 0.5 * (B + B.T)


def _repair_psd(S: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero (PSD repair, keeps the eigenbasis)."""
    w, V = np.linalg.eigh(S)
    M = (V * np.clip(w, 0.0, None)) @ V.T
    return 0.5 * (M + M.T)


def _repair_pd(S: np.ndarray, shift: float = PD_SHIFT) -> np.ndarray:
    """Reflect eigenvalues to ``|w| + shift`` (strict PD repair)."""
    w, V = np.linalg.eigh(S)
    M = (V * (np.abs(w) + shift)) @ V.T
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class LcqpInstance:
    """A generated quadratic instance with its constructed optimum."""

    problem: BlockProblem
    xstar: tuple
    lambdastar: np.ndarray
    seed: int
    proximal_source: tuple = ()

    def optimum(self) -> PrimalDualPoint:
        return PrimalDualPoint([xi.copy() for xi in self.xstar], self.lambdastar.copy())


def _block_coefficients(name: str) -> property:
    return property(lambda self: np.array([getattr(f, name) for f in self.problem.objectives]),
                    doc=f"The blocks' ``{name}`` coefficients, one per block.")


@dataclass(frozen=True)
class ResourceAllocInstance:
    """A generated scalar resource-allocation instance; its coefficients live in its blocks."""

    problem: BlockProblem
    seed: int

    a = _block_coefficients("a")
    b = _block_coefficients("b")
    cshift = _block_coefficients("cshift")
    dshift = _block_coefficients("dshift")


Instance = Union[LcqpInstance, ResourceAllocInstance]


def generate_lcqp(N: int, m: int, n: int, seed: int) -> LcqpInstance:
    """Generate a seeded quadratic instance whose optimum is known by construction.

    Coupling matrices are i.i.d. standard normal, redrawn (up to 20 times)
    until the stacked transpose clears a smallest singular value of 1e-8.
    Objective matrices come from symmetrized Gaussian draws repaired to
    strict positive definiteness; a PSD companion matrix per block (same
    recipe, clipped at zero) is kept for explicit-proximal experiments.
    The optimum is planted: ``q_i = -H_i x_i* + A_i' lam*`` and
    ``c = sum_i A_i x_i*``.

    When the blocks provide fewer than ``m`` total columns, the multiplier
    is projected onto the range of the coupling map; outside that range no
    multiplier is reachable by any dual update, and the projected vector is
    the unique minimum-norm KKT multiplier.
    """
    if min(N, m, n) < 1:
        raise ValueError("N, m and n must be at least 1")
    rng = np.random.default_rng(seed)
    A = None
    for _ in range(GENERATION_RETRIES):
        cand = [rng.standard_normal((m, n)) for _ in range(N)]
        sv = smallest_singular_value_stacked(cand)
        if sv.value > STACK_MIN_SV:
            A = cand
            break
    if A is None:
        raise DegenerateAfterRetries(
            f"no full-rank stack after {GENERATION_RETRIES} draws (N={N}, m={m}, n={n})"
        )
    P_src = tuple(_repair_psd(_symmetrized_gaussian(rng, n)) for _ in range(N))
    H = [_repair_pd(_symmetrized_gaussian(rng, n)) for _ in range(N)]
    xstar = [rng.standard_normal(n) for _ in range(N)]
    lamstar = rng.standard_normal(m)
    if N * n < m:
        # Rank-deficient coupling: keep the multiplier inside the reachable range.
        U, sv_all, _ = np.linalg.svd(np.hstack(A), full_matrices=False)
        r = int(np.sum(sv_all > sv_all[0] * 1e-12))
        lamstar = U[:, :r] @ (U[:, :r].T @ lamstar)
    q = [-Hi @ xi + Ai.T @ lamstar for Hi, Ai, xi in zip(H, A, xstar)]
    c = np.zeros(m)
    for Ai, xi in zip(A, xstar):
        c += Ai @ xi
    problem = BlockProblem(
        tuple(QuadraticBlock(Hi, qi) for Hi, qi in zip(H, q)),
        tuple(A),
        c,
    )
    # The accepted draw's SVD is the problem's: its A holds the same values.
    object.__setattr__(problem, "_stacked_singular_value", sv)
    instance = LcqpInstance(problem, tuple(xstar), lamstar, seed, P_src)
    resid = kkt_residual(problem, instance.optimum())
    if resid > 1e-9:
        raise DegenerateAfterRetries(f"constructed optimum has KKT residual {resid:.3e}")
    return instance


def generate_resource_alloc(N: int, seed: int) -> ResourceAllocInstance:
    """Generate a seeded scalar allocation instance with a zero-sum budget.

    Coefficients are uniform on [0,2], [-2,2], [-10,10] and [-10,10]; every
    block couples through the scalar constraint ``sum_i x_i = 0``.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 2.0, N)
    b = rng.uniform(-2.0, 2.0, N)
    cshift = rng.uniform(-10.0, 10.0, N)
    dshift = rng.uniform(-10.0, 10.0, N)
    problem = BlockProblem(
        tuple(LogisticQuadBlock(a[i], b[i], cshift[i], dshift[i]) for i in range(N)),
        tuple(np.ones((1, 1)) for _ in range(N)),
        np.zeros(1),
    )
    return ResourceAllocInstance(problem, seed)


class ReferenceSolution(NamedTuple):
    """A reference optimum with its achieved optimality defect."""

    point: PrimalDualPoint
    kkt_residual: float


#: Newton steps, and halvings of one step, before the reference solve stops.
REFERENCE_MAX_STEPS, REFERENCE_MAX_HALVINGS = 100, 40
#: ``||F|| <= REFERENCE_ROUNDOFF * ||F(0)||`` is round-off level for a dense solve.
REFERENCE_ROUNDOFF = 1e-14


def reference_solution(problem: BlockProblem) -> ReferenceSolution:
    """High-accuracy reference optimum; it depends on no solver parameter.

    Damped Newton from zero on the KKT map ``F`` of :func:`jprox.problem.kkt_map`:
    each step solves ``[blockdiag(hess f_i), -A'; A, 0] dz = -F`` by
    minimum-norm least squares and is halved until ``||F||`` decreases.  The
    iteration stops once ``||F||`` is at round-off or stops decreasing, so an
    all-quadratic problem takes one full step.  Raises :class:`SingularKkt`
    when ``||F||`` ends far from zero (an inconsistent or unsolved system).
    """
    o, n, m = problem.offsets, problem.offsets[-1], problem.m
    A = problem.stacked_A()
    K = np.zeros((n + m, n + m))
    K[:n, n:], K[n:, :n] = -A.T, A
    z = np.zeros(n + m)
    F = kkt_map(problem, z[:n], z[n:])
    norm0 = norm = float(np.linalg.norm(F))
    for _ in range(REFERENCE_MAX_STEPS):
        if norm <= REFERENCE_ROUNDOFF * norm0:
            break
        for i, (f, xi) in enumerate(zip(problem.objectives, problem.split(z[:n]))):
            K[o[i]:o[i + 1], o[i]:o[i + 1]] = f.hessian(xi)
        dz, *_ = np.linalg.lstsq(K, -F, rcond=None)
        for t in 0.5 ** np.arange(REFERENCE_MAX_HALVINGS):
            trial = z + t * dz
            F_trial = kkt_map(problem, trial[:n], trial[n:])
            norm_trial = float(np.linalg.norm(F_trial))
            if norm_trial < norm:
                break
        else:
            break
        z, F, norm = trial, F_trial, norm_trial
    if norm > 1e-8 * (1.0 + norm0):
        raise SingularKkt(f"KKT system is inconsistent or unsolved: ||F|| = {norm:.3e}")
    point = PrimalDualPoint(problem.split(z[:n]), z[n:])
    return ReferenceSolution(point, kkt_residual(problem, point))


# -- sweeps ----------------------------------------------------------------------

#: Reference experiment grids: damping values shared by both families,
#: penalty values per family size.
GAMMA_GRID = (0.1, 0.5, 1.5, 1.9)
RHO_GRID_SMALL = (0.03, 1.0, 5.0, 10.0)
RHO_GRID_LARGE = (1e-5, 0.1, 5.0, 10.0)


def default_rho_grid(instance: Instance) -> tuple:
    """Penalty grid used in the reference experiments for this family."""
    if isinstance(instance, LcqpInstance) and instance.problem.N >= 10:
        return RHO_GRID_LARGE
    return RHO_GRID_SMALL


@dataclass(frozen=True)
class SweepConfig:
    """Grid of (rho, gamma) cells and the iteration budget and tolerance of each run.

    The seeds of a sweep are those of the instances it is given.
    """

    rho_grid: Sequence[float]
    gamma_grid: Sequence[float]
    max_iters: int = 4000
    dis_tol: float = 1e-12

    def __post_init__(self):
        if not self.rho_grid or not self.gamma_grid:
            raise ValueError("grids must be nonempty")


@dataclass
class SweepCell:
    """One (rho, gamma, seed) cell of a sweep; ``wall_s`` is its wall time in seconds.

    The certificate's ``weights`` are dropped once the cell's run ends:
    nothing reads them afterwards, and a sweep would otherwise keep every
    passed cell's weights alive.
    """

    rho: float
    gamma: float
    seed: int
    certificate: Optional[Certificate] = None
    trace: Optional[object] = None
    dis_rate: Optional[RateFit] = None
    phi_rate: Optional[RateFit] = None
    error: Optional[str] = None
    wall_s: float = 0.0

    @property
    def status(self) -> str:
        return "error" if self.error is not None else self.trace.status


def instance_reference(instance: Instance) -> PrimalDualPoint:
    """The optimum to measure ``dis`` against: the planted one, else :func:`reference_solution`."""
    if isinstance(instance, LcqpInstance):
        return instance.optimum()
    return reference_solution(instance.problem).point


def _run_cell(instance: Instance, reference: PrimalDualPoint, rho: float, gamma: float,
              sweep: SweepConfig, policy) -> SweepCell:
    start = time.perf_counter()
    cell = SweepCell(rho=rho, gamma=gamma, seed=instance.seed)
    problem = instance.problem
    try:
        cert = cell.certificate = certify(problem, rho, gamma, policy, instance.seed)
        params = SolverParams(rho=rho, gamma=gamma, policy=cert.proximal,
                              max_iters=sweep.max_iters, dis_tol=sweep.dis_tol)
        cell.trace = run(problem, params, PrimalDualPoint.zeros(problem),
                         reference=reference, phi_context=cert.weights)
        cell.dis_rate = _fit_series([d for d in cell.trace.dis if d is not None])
        if cert.passed:
            cell.phi_rate = _fit_series([p for p in cell.trace.phi if p is not None])
    except (JproxError, np.linalg.LinAlgError) as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    if cell.certificate is not None:
        cell.certificate.weights = None
    cell.wall_s = time.perf_counter() - start
    return cell


def _fit_series(values) -> Optional[RateFit]:
    # Fast cells sink below the fit floor before the tail window opens; widen
    # the window to the whole series before giving up.
    for tail_fraction in (0.5, 1.0):
        try:
            return fit_linear_rate(values, tail_fraction)
        except InsufficientData:
            continue
    return None


def run_sweep(instances: Union[Instance, Sequence[Instance]], sweep: SweepConfig,
              policy=StandardProximal("auto")) -> dict:
    """Run every (rho, gamma) cell for every instance, from a zero start.

    Each cell certifies ``policy`` (:func:`jprox.certify.certify`, which
    resolves an ``"auto"`` request into that cell's weights) and runs the
    concrete policy of its certificate.  Returns a dict keyed by
    ``(rho, gamma, seed)``.  Cells run one after another in key order
    (instance, then rho, then gamma); per-cell failures are recorded in the
    cell, never raised.  Two instances with one seed raise
    :class:`InvalidParameter` before any cell runs.
    """
    if isinstance(instances, (LcqpInstance, ResourceAllocInstance)):
        instances = [instances]
    seeds = [inst.seed for inst in instances]
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise InvalidParameter(f"two instances share seed {repeated[0]}: cells are keyed by seed")
    refs = {inst.seed: instance_reference(inst) for inst in instances}
    return {
        (rho, gamma, inst.seed): _run_cell(inst, refs[inst.seed], rho, gamma, sweep, policy)
        for inst in instances
        for rho in sweep.rho_grid
        for gamma in sweep.gamma_grid
    }


# -- instance files ----------------------------------------------------------------

def instance_to_dict(instance: Instance) -> dict:
    d = problem_to_dict(instance.problem)
    d["seed"] = instance.seed
    if isinstance(instance, LcqpInstance):
        d["kind"] = "lcqp"
        d["xstar"] = [pack_array(xi) for xi in instance.xstar]
        d["lambdastar"] = pack_array(instance.lambdastar)
        if instance.proximal_source:
            d["proximal_source"] = [pack_array(P) for P in instance.proximal_source]
    else:
        d["kind"] = "resource_alloc"
    return d


def _unpack_list(items, key: str) -> tuple:
    return tuple(unpack_array(a, f"{key}[{i}]") for i, a in enumerate(require_list(items, key)))


def instance_from_dict(d: dict) -> Instance:
    problem = problem_from_dict(d)
    seed = d.get("seed", 0)
    if type(seed) is not int:
        raise ValueError(f"seed: expected an integer, got {seed!r}")
    if d.get("kind") == "lcqp" or "xstar" in d:
        return LcqpInstance(problem, _unpack_list(d["xstar"], "xstar"),
                            unpack_array(d["lambdastar"], "lambdastar"), seed,
                            _unpack_list(d.get("proximal_source", []), "proximal_source"))
    if not all(isinstance(f, LogisticQuadBlock) for f in problem.objectives):
        raise ValueError("resource allocation instances need scalar logistic blocks")
    return ResourceAllocInstance(problem, seed)


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance)), encoding="utf-8")


def load_instance(path) -> Instance:
    return instance_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

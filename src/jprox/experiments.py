"""Benchmark generators, reference solutions, sweeps, instance files and trace files.

Two seeded problem families are provided: a linearly constrained quadratic
program with dense Gaussian data and a scalar resource-allocation problem
(quadratic plus softplus blocks sharing a single budget constraint).
Randomness is confined to ``numpy.random.default_rng(seed)``, so identical
(seed, config) pairs reproduce instances and traces bit for bit.  A family's
class (:data:`INSTANCE_KINDS`) is the one place that knows what sets it apart:
its archive ``kind``, ``optimum()``, ``redraw(seed)``, ``rho_grid`` and
its own members of an instance file
(``archive_members``, ``from_archive``; ``jprox generate`` writes
``instance.npz`` unless given ``--output``).  An instance file holds one
member per array kind, whatever the number of blocks: the blocks of each
are stacked or concatenated, and ``dims`` gives their sizes.  A trace CSV
is written once, from the trace's numpy columns by the process that ran
its run, and hashed as it is written (:func:`write_trace_csv`);
:func:`read_trace_csv` checks a digest and parses only the columns asked
for.  A sweep cell fits its rates to the ``dis`` and ``phi`` columns as
they are.
"""

from __future__ import annotations

import array
import ctypes
import hashlib
import io
import math
import os
import time
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .certify import Certificate, PhiWeights, RateFit, certify, fit_linear_rate
from .errors import (
    DegenerateAfterRetries,
    InsufficientData,
    InvalidParameter,
    JproxError,
    SingularKkt,
    WorkerLost,
)
from .linalg import GramSpectrum, smallest_singular_value_stacked
from .problem import (
    BlockProblem,
    LogisticQuadBlock,
    PrimalDualPoint,
    QuadraticBlock,
    kkt_map,
    kkt_residual,
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


def _repair_pd(S: np.ndarray, shift: float = PD_SHIFT) -> np.ndarray:
    """Reflect eigenvalues to ``|w| + shift`` (strict PD repair)."""
    w, V = np.linalg.eigh(S)
    M = (V * (np.abs(w) + shift)) @ V.T
    return 0.5 * (M + M.T)


#: Reference experiment grids: damping values shared by both families,
#: penalty values per family size.
GAMMA_GRID = (0.1, 0.5, 1.5, 1.9)
RHO_GRID_SMALL = (0.03, 1.0, 5.0, 10.0)
RHO_GRID_LARGE = (1e-5, 0.1, 5.0, 10.0)


@dataclass(frozen=True)
class LcqpInstance:
    """A generated quadratic instance with its constructed optimum."""

    problem: BlockProblem
    xstar: tuple
    lambdastar: np.ndarray
    seed: int
    kind = "lcqp"

    def optimum(self) -> PrimalDualPoint:
        return PrimalDualPoint([xi.copy() for xi in self.xstar], self.lambdastar.copy())

    def redraw(self, seed: int) -> "LcqpInstance":
        """This shape from ``seed``; blocks of differing sizes raise, as the generator draws none."""
        dims = self.problem.dims
        if len(set(dims)) > 1:
            raise InvalidParameter(f"the generator cannot redraw blocks of differing sizes {dims}")
        return generate_lcqp(self.problem.N, self.problem.m, dims[0], seed)

    @property
    def rho_grid(self) -> tuple:
        return RHO_GRID_LARGE if self.problem.N >= 10 else RHO_GRID_SMALL

    def archive_members(self) -> tuple:
        """``(members, sources, spectra)``: this family's archive members, those of them the
        spectra are computed from besides ``dims`` and ``A``, and its own spectra members."""
        objectives = self.problem.objectives
        H = np.concatenate([f.H.ravel() for f in objectives])
        members = {"H": H, "q": np.concatenate([f.q for f in objectives]),
                   "xstar": np.concatenate(self.xstar), "lambdastar": self.lambdastar}
        curvatures = np.array([(f.min_curvature, f.max_curvature) for f in objectives])
        return members, {"H": H}, {"spectra_curvatures": curvatures}

    @classmethod
    def from_archive(cls, z, seed: int, dims: list, c: np.ndarray, A: np.ndarray) -> "LcqpInstance":
        """The instance in archive ``z``, whose shared members are read already; a ``P``
        member, which earlier versions wrote, is not read."""
        H, q = _member(z, "H", (sum(n * n for n in dims),)), _member(z, "q", (sum(dims),))
        spectra = _stored_spectra(z, dims, A, {"H": H}, {"spectra_curvatures": (len(dims), 2)})
        curvatures = spectra["spectra_curvatures"] if spectra else [None] * len(dims)
        blocks = tuple(_block(f"H: block {i}", QuadraticBlock, *args) for i, args in
                       enumerate(zip(_blocks(H, dims, square=True), _blocks(q, dims), curvatures)))
        problem = _archived_problem(blocks, dims, A, c, spectra)
        xstar = tuple(_blocks(_member(z, "xstar", (sum(dims),)), dims))
        return cls(problem, xstar, _member(z, "lambdastar", c.shape), seed)


@dataclass(frozen=True)
class ResourceAllocInstance:
    """A generated scalar resource-allocation instance; its coefficients live in its blocks."""

    problem: BlockProblem
    seed: int
    kind = "resource_alloc"
    coefficients = ("a", "b", "cshift", "dshift")  # the archive members, one entry per block
    rho_grid = RHO_GRID_SMALL

    def optimum(self) -> PrimalDualPoint:
        """:func:`reference_solution`'s optimum: this family plants none."""
        return reference_solution(self.problem).point

    def redraw(self, seed: int) -> "ResourceAllocInstance":
        return generate_resource_alloc(self.problem.N, seed)

    def archive_members(self) -> tuple:
        objectives = self.problem.objectives
        return {name: np.array([getattr(f, name) for f in objectives])
                for name in self.coefficients}, {}, {}

    @classmethod
    def from_archive(cls, z, seed: int, dims: list, c: np.ndarray,
                     A: np.ndarray) -> "ResourceAllocInstance":
        columns = [_member(z, name, (len(dims),)) for name in cls.coefficients]
        spectra = _stored_spectra(z, dims, A, {}, {})
        blocks = tuple(_block(f"a: block {i}", LogisticQuadBlock, *map(float, row))
                       for i, row in enumerate(zip(*columns)))
        return cls(_archived_problem(blocks, dims, A, c, spectra), seed)


Instance = Union[LcqpInstance, ResourceAllocInstance]

#: The instance families by archive ``kind`` (see the module docstring).
INSTANCE_KINDS = {cls.kind: cls for cls in (LcqpInstance, ResourceAllocInstance)}


def generate_lcqp(N: int, m: int, n: int, seed: int) -> LcqpInstance:
    """Generate a seeded quadratic instance whose optimum is known by construction.

    Coupling matrices are i.i.d. standard normal, redrawn (up to 20 times)
    until the stacked transpose clears a smallest singular value of 1e-8.
    Objective matrices come from symmetrized Gaussian draws repaired to
    strict positive definiteness.  The ``N`` Gaussian ``n x n`` draws before
    them are taken and discarded: earlier versions made a stored proximal
    matrix of each, and skipping them would change every later array.  The
    optimum is planted: ``q_i = -H_i x_i* + A_i' lam*`` and
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
        if sv > STACK_MIN_SV:
            A = cand
            break
    if A is None:
        raise DegenerateAfterRetries(
            f"no full-rank stack after {GENERATION_RETRIES} draws (N={N}, m={m}, n={n})"
        )
    rng.standard_normal((N, n, n))  # the discarded draws (see above)
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
    problem = BlockProblem(tuple(QuadraticBlock(Hi, qi) for Hi, qi in zip(H, q)), tuple(A), c)
    # The accepted draw's stacked singular value is the problem's: its A holds the same values.
    object.__setattr__(problem, "_stacked_singular_value", sv)
    instance = LcqpInstance(problem, tuple(xstar), lamstar, seed)
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
    problem = BlockProblem(tuple(map(LogisticQuadBlock, a, b, cshift, dshift)),
                           tuple(np.ones((1, 1)) for _ in range(N)), np.zeros(1))
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
    """One (rho, gamma, seed) cell of a sweep, and its manifest entry (:meth:`to_dict`).

    ``status`` is its run's status, or ``"error"`` when ``error`` names what
    stopped the cell; ``engine`` and ``timings`` are its run's, and
    ``wall_s`` is its wall time in seconds.  The process that ran the cell
    wrote its trace to the file ``trace`` of the sweep's directory, whose
    bytes have the SHA-256 hex digest ``trace_sha256``.
    """

    rho: float
    gamma: float
    seed: int
    status: str = "error"
    certificate: Optional[Certificate] = None
    dis_rate: Optional[RateFit] = None
    phi_rate: Optional[RateFit] = None
    error: Optional[str] = None
    trace: Optional[str] = None
    trace_sha256: Optional[str] = None
    timings: Optional[dict] = None
    engine: Optional[str] = None
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        """Every field in declaration order; the certificate and the rates as JSON objects."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["certificate"] = self.certificate.to_dict() if self.certificate else None
        for key in ("dis_rate", "phi_rate"):
            d[key] = d[key]._asdict() if d[key] is not None else None
        return d


def _run_cell(instance: Instance, reference: PrimalDualPoint, rho: float, gamma: float,
              sweep: SweepConfig, policy, trace_dir: Path) -> SweepCell:
    """One cell; its trace is written to ``trace_dir``, and the cell names the file."""
    start = time.perf_counter()
    cell = SweepCell(rho=rho, gamma=gamma, seed=instance.seed)
    problem = instance.problem
    trace = None
    try:
        cert = cell.certificate = certify(problem, rho, gamma, policy, instance.seed)
        params = SolverParams(rho=rho, gamma=gamma, policy=cert.proximal,
                              max_iters=sweep.max_iters, dis_tol=sweep.dis_tol)
        trace = run(problem, params, PrimalDualPoint.zeros(problem),
                    reference=reference, phi_context=PhiWeights.certified(problem, cert))
        cell.dis_rate = _fit_series(trace.dis)
        if cert.passed:
            cell.phi_rate = _fit_series(trace.phi)
    except (JproxError, np.linalg.LinAlgError) as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    cell.wall_s = time.perf_counter() - start
    if trace is not None:
        cell.engine, cell.timings = trace.engine, trace.timings
        cell.status = "error" if cell.error is not None else trace.status
        cell.trace = f"trace_rho{rho:g}_gamma{gamma:g}_seed{instance.seed}.csv"
        cell.trace_sha256 = write_trace_csv(trace, Path(trace_dir) / cell.trace)
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


def sweep_workers(cells: int) -> int:
    """Processes that run a sweep of ``cells`` cells: one per CPU this process may use,
    at most one per cell."""
    return min(len(os.sched_getaffinity(0)), cells)


def _openblas_calls(name: str, restype, *argtypes) -> list:
    """OpenBLAS's ``name`` function (``"set_num_threads"``, ``"get_num_threads"``) in each
    OpenBLAS bundled with numpy, found by symbol and declared with ``restype`` and
    ``argtypes``; empty where numpy uses another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = []
    for path in sorted(libs.glob("lib*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                    f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, argtypes
                found.append(fn)
                break
    return found


def _one_blas_thread() -> None:
    """Worker initializer: the bundled OpenBLAS runs on one thread, as the cells are small."""
    for set_threads in _openblas_calls("set_num_threads", None, ctypes.c_int):
        set_threads(1)


def _sweep_tasks(instances: Sequence[Instance], sweep: SweepConfig, policy,
                 trace_dir: Path) -> list:
    """The arguments of :func:`_run_cell` for every cell, in key order.

    Each instance's cached Gram spectra and matrices, stacked ``A``,
    ``c_A`` and its reference are computed here, once; they survive
    pickling, so a cell run from a pickled task computes none of them.
    """
    tasks = []
    for inst in instances:
        p = inst.problem
        p.gram_spectra(), p.gram_matrices(), p.stacked_A(), p.stacked_singular_value()
        ref = inst.optimum()
        tasks += [(inst, ref, rho, gamma, sweep, policy, trace_dir)
                  for rho in sweep.rho_grid for gamma in sweep.gamma_grid]
    return tasks


def _run_pooled(tasks: list, workers: int, collect: Callable) -> None:
    """``collect`` the cells of ``tasks``, in order, run on ``workers`` forked processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Fork, not spawn or forkserver: those leave a resource tracker process behind.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_one_blas_thread)
    try:
        collect(pool.map(_run_cell, *zip(*tasks)))
    except BrokenProcessPool as exc:
        raise WorkerLost(f"a sweep worker process ended before its cell did ({exc})") from None
    finally:
        pool.shutdown(cancel_futures=True)


def run_sweep(instances: Union[Instance, Sequence[Instance]], sweep: SweepConfig,
              policy=StandardProximal("auto"),
              on_cell: Optional[Callable[[SweepCell], None]] = None, *,
              trace_dir: Path) -> dict:
    """Run every (rho, gamma) cell for every instance, from a zero start.

    Each cell certifies ``policy`` (:func:`jprox.certify.certify`, which
    resolves an ``"auto"`` request into that cell's weights) and runs the
    concrete policy of its certificate.  Returns a dict keyed by
    ``(rho, gamma, seed)`` in key order (instance, then rho, then gamma),
    and calls ``on_cell(cell)`` on each cell in that order as it arrives;
    the dict holds the cells as ``on_cell`` left them.  Per-cell failures
    are recorded in the cell, never raised.  Two instances with one seed
    raise :class:`InvalidParameter` before any cell runs.

    The process that ran a cell writes its trace CSV to ``trace_dir``
    (:func:`write_trace_csv`, named ``trace_rho<rho>_gamma<gamma>_seed<seed>.csv``)
    and the cell holds the file's name and digest, so no trace row is sent
    back or kept here; a trace that cannot be written raises its
    ``OSError`` and no further cell is collected.

    The cells run on :func:`sweep_workers` processes, one per CPU this
    process may use and at most one per cell, forked from this one, each
    with the bundled OpenBLAS on one thread; nothing sets their number or
    start method.  With one CPU or one cell they run here, one after
    another.  Each instance's constants and reference are computed here
    before any cell runs.  A worker that dies raises :class:`WorkerLost`.
    """
    if not isinstance(instances, Sequence):
        instances = [instances]
    seeds = [inst.seed for inst in instances]
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise InvalidParameter(f"two instances share seed {repeated[0]}: cells are keyed by seed")
    tasks = _sweep_tasks(instances, sweep, policy, trace_dir)
    cells = {}

    def collect(arrived) -> None:
        for cell in arrived:
            cells[(cell.rho, cell.gamma, cell.seed)] = cell
            if on_cell is not None:
                on_cell(cell)

    workers = sweep_workers(len(tasks))
    if workers <= 1:
        collect(_run_cell(*task) for task in tasks)
    else:
        _run_pooled(tasks, workers, collect)
    return cells


# -- instance files ----------------------------------------------------------------
#
# An instance file is one uncompressed ``.npz`` archive, written by ``np.savez``
# and read by ``np.load(allow_pickle=False)``, so write -> read is bit-exact and
# a read decodes no text.  It holds one member per array kind, whatever the
# number of blocks N.  With ``m = len(c)`` and ``n_i`` the size of block i, its
# members are, in this order:
#
#   kind              0-d string, "lcqp" or "resource_alloc"
#   seed              0-d integer
#   dims              integer (N,), every n_i
#   c                 float64 (m,), at least one entry
#   A                 float64 (m, sum n_i), [A_0 ... A_{N-1}]; n_i = 1 for resource allocation
#   lcqp only         H float64 (sum n_i^2,), every H_i in C order, block after block;
#                     q, xstar float64 (sum n_i,); lambdastar float64 (m,)
#   resource_alloc    a, b, cshift, dshift: float64 (N,), one entry per block
#
# ``save_instance`` also records the problem's spectra, which depend on the
# instance alone, so that a read of the archive needs no eigensolve:
#
#   spectra_gram          float64 (sum n_i,), the ascending eigenvalues of every
#                         A_i'A_i, block after block (BlockProblem.gram_spectra)
#   spectra_norms         float64 (N,), every ||A_i||
#   spectra_c_A           float64 0-d, BlockProblem.stacked_singular_value()
#   spectra_curvatures    lcqp only: float64 (N, 2), each block's
#                         (min_curvature, max_curvature)
#   spectra_sha256        0-d string, the SHA-256 digest (_spectra_digest) of the
#                         members the spectra are computed from: dims, A, and H for lcqp
#
# A read uses the recorded spectra only when the digest matches the members
# it read; an archive without the digest, or one whose dims, A or H were edited
# since it was written, has its spectra computed again, as any other problem
# does.  With a matching digest the spectra members are checked like any
# other member.  Spectra that are not all finite are not recorded.
#
# Every float64 member must be finite.  Each family writes and reads its own
# members (INSTANCE_KINDS); save_instance and load_instance do the shared ones.
# A read checks each member whole and cuts its blocks out as views.  A member
# no family reads (the proximal matrices P that earlier LCQP archives hold) is
# left unread.

#: The dtype test of each kind of archive member, by the name errors give it.
MEMBER_DTYPES = {"float64": lambda t: t == np.float64, "integer": lambda t: t.kind in "iu",
                 "string": lambda t: t.kind == "U"}

#: What reading a damaged archive or member can raise.
ARCHIVE_ERRORS = (ValueError, OSError, EOFError, zipfile.BadZipFile)


#: The archive member holding the digest of the members the spectra come from.
SPECTRA_DIGEST = "spectra_sha256"


def _blocks(a: np.ndarray, dims: list, square: bool = False) -> list:
    """Views of ``a`` block by block along its last axis: ``n_i`` entries each, or with
    ``square`` an ``n_i x n_i`` matrix each from ``n_i**2`` entries in C order."""
    parts = np.split(a, np.cumsum([n * n if square else n for n in dims])[:-1], axis=-1)
    return [b.reshape(n, n) for b, n in zip(parts, dims)] if square else parts


def _spectra_digest(dims: Sequence[int], A: np.ndarray, sources: dict) -> str:
    """SHA-256 hex digest of the name, dtype, shape and C-order bytes of ``dims``, ``A`` and
    each of a family's ``sources``."""
    h = hashlib.sha256()
    for name, a in {"dims": np.array(dims), "A": A, **sources}.items():
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def _spectra_members(p: BlockProblem) -> dict:
    """The spectra members every family records (layout above), computed where not cached yet."""
    spectra = p.gram_spectra()
    return {"spectra_gram": np.concatenate([g.eigenvalues for g in spectra]),
            "spectra_norms": np.array([g.norm for g in spectra]),
            "spectra_c_A": np.array(p.stacked_singular_value())}


def save_instance(instance: Instance, path) -> None:
    """Write ``instance`` to exactly ``path`` as an instance archive (members above).

    The spectra members record the problem's cached spectra; those not yet
    cached are computed first.
    """
    p = instance.problem
    members, sources, spectra = instance.archive_members()
    A = p.stacked_A()
    arrays = {"kind": np.array(instance.kind), "seed": np.array(instance.seed),
              "dims": np.array(p.dims), "c": p.c, "A": A, **members}
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite spectra are not recorded
        spectra = {**_spectra_members(p), **spectra}
    if all(np.all(np.isfinite(a)) for a in spectra.values()):
        arrays.update(spectra)
        arrays[SPECTRA_DIGEST] = np.array(_spectra_digest(p.dims, A, sources))
    # An open handle: given a path without the suffix, np.savez would append ".npz".
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _member(archive, name: str, shape: tuple = (), dtype: str = "float64") -> np.ndarray:
    """Member ``name`` of ``archive``: a ``dtype`` array of ``shape``, where -1 is any length.

    Raises ``ValueError`` naming the member when it is missing, unreadable,
    not a plain array, of another dtype or shape, or, for float64, not finite.
    """
    if name not in archive.files:
        raise ValueError(f"{name}: missing member")
    try:
        a = archive[name]
    except ARCHIVE_ERRORS as exc:  # an object array is refused without pickle
        raise ValueError(f"{name}: unreadable member ({exc})") from None
    if not isinstance(a, np.ndarray):
        raise ValueError(f"{name}: not a .npy array")
    if not MEMBER_DTYPES[dtype](a.dtype):
        raise ValueError(f"{name}: expected {dtype} entries, got dtype {a.dtype}")
    if a.ndim != len(shape) or any(k not in (-1, got) for k, got in zip(shape, a.shape)):
        want = " x ".join("any" if k < 0 else str(k) for k in shape) or "0-d"
        raise ValueError(f"{name}: expected shape {want}, got {a.shape}")
    if dtype == "float64" and not np.all(np.isfinite(a)):
        raise ValueError(f"{name}: entries must be finite")
    return a


def _block(member: str, make, *args):
    """``make(*args)``, with a rejection re-raised as a ``ValueError`` naming ``member``."""
    try:
        return make(*args)
    except (ValueError, JproxError) as exc:
        raise ValueError(f"{member}: {exc}") from None


def _stored_spectra(z, dims: list, A: np.ndarray, sources: dict, shapes: dict) -> Optional[dict]:
    """The spectra members of ``z`` when its digest matches ``dims``, ``A`` and a family's
    ``sources``, else ``None``; with a matching digest every spectra member, the family's own
    of ``shapes`` among them, must be present and well formed."""
    if SPECTRA_DIGEST not in z.files:
        return None
    if _member(z, SPECTRA_DIGEST, dtype="string").item() != _spectra_digest(dims, A, sources):
        return None
    shapes = {"spectra_gram": (sum(dims),), "spectra_norms": (len(dims),), "spectra_c_A": (),
              **shapes}
    return {name: _member(z, name, shape) for name, shape in shapes.items()}


def _archived_problem(blocks: tuple, dims: list, A: np.ndarray, c,
                      spectra: Optional[dict]) -> BlockProblem:
    """The problem of an archive, its Gram-spectrum and ``c_A`` caches filled from ``spectra``;
    a block whose size is not its objective's is reported against ``dims``."""
    problem = _block("dims", BlockProblem, blocks, _blocks(A, dims), c)
    if spectra:
        gram = spectra["spectra_gram"]
        gram.setflags(write=False)
        object.__setattr__(problem, "_gram_spectra", tuple(
            GramSpectrum(g, float(nrm))
            for g, nrm in zip(_blocks(gram, dims), spectra["spectra_norms"])))
        object.__setattr__(problem, "_stacked_singular_value", float(spectra["spectra_c_A"]))
    return problem


def _instance_from_archive(z) -> Instance:
    kind = _member(z, "kind", dtype="string").item()
    if kind not in INSTANCE_KINDS:
        raise ValueError(f"kind: unknown instance kind {kind!r}")
    seed = int(_member(z, "seed", dtype="integer"))
    dims = _member(z, "dims", (-1,), "integer").tolist()
    if not dims or min(dims) < 1:
        raise ValueError("dims: expected at least one block, each of size at least 1")
    c = _member(z, "c", (-1,))
    if not c.size:
        raise ValueError("c: expected at least one entry")
    A = _member(z, "A", (c.size, sum(dims)))
    return INSTANCE_KINDS[kind].from_archive(z, seed, dims, c, A)


def load_instance(path) -> Instance:
    """The instance in the archive at ``path`` (members above).

    Raises ``FileNotFoundError`` for a missing file, and ``ValueError`` for
    any other fault, naming the member where one is at fault.  Any file that
    is not an archive holding ``dims`` (JSON, the per-block layout of earlier
    versions, a truncated or a foreign file) gets one message.
    """
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except ARCHIVE_ERRORS:
            archive = None
        if not isinstance(archive, np.lib.npyio.NpzFile) or "dims" not in archive.files:
            raise ValueError("not an instance archive of this version of jprox: "
                             "regenerate it from its seed with `jprox generate`")
        with archive:
            return _instance_from_archive(archive)


# -- trace files -------------------------------------------------------------------
#
# A trace CSV has the header CSV_HEADER and one row per recorded iterate: the
# integer k, then dis, phi, primal_residual and elapsed_seconds as %.17g, each
# an empty cell in every row where the trace did not record that column.

CSV_HEADER = "k,dis,phi,primal_residual,elapsed_seconds"
#: The columns of a trace CSV, in file order.
TRACE_COLUMNS = tuple(CSV_HEADER.split(","))

#: ``write_trace_csv`` formats this many rows with one ``%`` operation.
CSV_BLOCK_ROWS = 4096


def write_trace_csv(trace, path) -> str:
    """Write a trace's columns as CSV and return the SHA-256 hex digest of the bytes written.

    One row format serves the whole trace, with an empty cell for a column
    the trace did not record (``None``).  Rows are formatted in blocks of
    :data:`CSV_BLOCK_ROWS`, each with one ``%`` operation over the repeated
    row format and the block's recorded columns side by side, and each
    block is hashed and written as it is made.
    """
    columns = (trace.dis, trace.phi, trace.primal_residual, trace.elapsed)
    recorded = [col for col in columns if col is not None]
    row = ",".join(["%d"] + ["" if col is None else "%.17g" for col in columns]) + "\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(text: str) -> None:
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        put(CSV_HEADER + "\n")
        for lo in range(0, len(trace), CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, len(trace))
            cells = np.column_stack([trace.ks[lo:hi], *(col[lo:hi] for col in recorded)])
            put(row * (hi - lo) % tuple(cells.ravel().tolist()))
    return digest.hexdigest()


def read_trace_csv(path, names: Sequence[str] = TRACE_COLUMNS,
                   sha256: Optional[str] = None) -> dict:
    """The ``names`` columns of a trace CSV as float64 arrays, an empty cell as NaN.

    With ``sha256``, the file's bytes must have that SHA-256 hex digest, and
    with no ``names`` nothing else is read.  Every row must have a cell per
    column, but only the ``names`` columns are parsed, line by line, each
    value into its array as it is read.  Raises ``ValueError`` on a digest
    that does not match and on a wrong header, row or cell.
    """
    data = Path(path).read_bytes()
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise ValueError("its SHA-256 digest is not the trace_sha256 the manifest records")
    if not names:
        return {}
    lines = io.BytesIO(data)
    if lines.readline().rstrip(b"\r\n") != CSV_HEADER.encode():
        raise ValueError(f"{path}: unexpected header")
    picks = [TRACE_COLUMNS.index(name) for name in names]
    cols = [array.array("d") for _ in names]
    for line_num, line in enumerate(lines, 2):
        line = line.rstrip(b"\r\n")
        row = line.split(b",") if line else []
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"line {line_num} has {len(row)} cells, "
                             f"expected {len(TRACE_COLUMNS)}")
        for col, j in zip(cols, picks):
            col.append(int(row[j]) if j == 0 else float(row[j]) if row[j] else math.nan)
    return {name: np.array(col, dtype=float) for name, col in zip(names, cols)}

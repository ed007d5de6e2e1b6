"""Benchmark generators, reference solutions, sweeps and instance files.

Two seeded problem families are provided: a linearly constrained quadratic
program with dense Gaussian data and a scalar resource-allocation problem
(quadratic plus softplus blocks sharing a single budget constraint).
Randomness is confined to ``numpy.random.default_rng(seed)``, so identical
(seed, config) pairs reproduce instances and traces bit for bit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .certify import Certificate, RateFit, certify, fit_linear_rate
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


@dataclass(frozen=True)
class ResourceAllocInstance:
    """A generated scalar resource-allocation instance; its coefficients live in its blocks."""

    problem: BlockProblem
    seed: int


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
        if sv > STACK_MIN_SV:
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
    # The accepted draw's stacked singular value is the problem's: its A holds the same values.
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


def _sweep_tasks(instances: Sequence[Instance], sweep: SweepConfig, policy) -> list:
    """The arguments of :func:`_run_cell` for every cell, in key order.

    Each instance's cached Gram spectra and matrices, stacked ``A``,
    ``c_A`` and its reference are computed here, once; they survive
    pickling, so a cell run from a pickled task computes none of them.
    """
    tasks = []
    for inst in instances:
        p = inst.problem
        p.gram_spectra(), p.gram_matrices(), p.stacked_A(), p.stacked_singular_value()
        ref = instance_reference(inst)
        tasks += [(inst, ref, rho, gamma, sweep, policy)
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
              on_cell: Optional[Callable[[SweepCell], None]] = None) -> dict:
    """Run every (rho, gamma) cell for every instance, from a zero start.

    Each cell certifies ``policy`` (:func:`jprox.certify.certify`, which
    resolves an ``"auto"`` request into that cell's weights) and runs the
    concrete policy of its certificate.  Returns a dict keyed by
    ``(rho, gamma, seed)`` in key order (instance, then rho, then gamma),
    and calls ``on_cell(cell)`` on each cell in that order as it arrives;
    the dict holds the cells as ``on_cell`` left them.  Per-cell failures
    are recorded in the cell, never raised.  Two instances with one seed
    raise :class:`InvalidParameter` before any cell runs.

    The cells run on :func:`sweep_workers` processes, one per CPU this
    process may use and at most one per cell, forked from this one, each
    with the bundled OpenBLAS on one thread; nothing sets their number or
    start method.  With one CPU or one cell they run here, one after
    another.  Each instance's constants and reference are computed here
    before any cell runs.  A worker that dies raises :class:`WorkerLost`.
    """
    if isinstance(instances, (LcqpInstance, ResourceAllocInstance)):
        instances = [instances]
    seeds = [inst.seed for inst in instances]
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise InvalidParameter(f"two instances share seed {repeated[0]}: cells are keyed by seed")
    tasks = _sweep_tasks(instances, sweep, policy)
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
# a read decodes no text.  With ``m = len(c)`` and ``n_i`` the columns of
# ``A_i``, its members are:
#
#   kind              0-d string, "lcqp" or "resource_alloc"
#   seed              0-d integer
#   c                 float64 (m,)
#   A_0 ... A_{N-1}   float64 (m, n_i); (m, 1) for resource allocation
#   lcqp only         H_i (n_i, n_i), q_i (n_i,), xstar_i (n_i,), lambdastar (m,),
#                     and P_i (n_i, n_i) when the instance stores proximal matrices
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
#                         members the spectra are computed from: A_i, and H_i for lcqp
#
# A read uses the recorded spectra only when the digest matches the members
# it read; an archive without the digest, or one whose A_i or H_i were edited
# since it was written, has its spectra computed again, as any other problem
# does.  With a matching digest the spectra members are checked like any
# other member.  Spectra that are not all finite are not recorded.
#
# Every float64 member must be finite.

#: The members holding a resource-allocation instance's block coefficients.
RA_COEFFICIENTS = ("a", "b", "cshift", "dshift")

#: The dtype test of each kind of archive member, by the name errors give it.
MEMBER_DTYPES = {"float64": lambda t: t == np.float64, "integer": lambda t: t.kind in "iu",
                 "string": lambda t: t.kind == "U"}

#: What reading a damaged archive or member can raise.
ARCHIVE_ERRORS = (ValueError, OSError, EOFError, zipfile.BadZipFile)


#: The archive member holding the digest of the members the spectra come from.
SPECTRA_DIGEST = "spectra_sha256"


def _spectra_sources(arrays: dict, N: int, lcqp: bool) -> list:
    """The ``(name, array)`` pairs a problem's spectra are computed from: ``A_i``, then ``H_i``."""
    names = [f"A_{i}" for i in range(N)] + ([f"H_{i}" for i in range(N)] if lcqp else [])
    return [(name, arrays[name]) for name in names]


def _spectra_digest(sources) -> str:
    """SHA-256 hex digest of each member's name, dtype, shape and C-order bytes."""
    h = hashlib.sha256()
    for name, a in sources:
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def _spectra_members(p: BlockProblem, lcqp: bool) -> dict:
    """The spectra members of ``p`` (layout above), computed where not cached yet."""
    spectra = p.gram_spectra()
    members = {"spectra_gram": np.concatenate([g.eigenvalues for g in spectra]),
               "spectra_norms": np.array([g.norm for g in spectra]),
               "spectra_c_A": np.array(p.stacked_singular_value())}
    if lcqp:
        members["spectra_curvatures"] = np.array(
            [(f.min_curvature, f.max_curvature) for f in p.objectives])
    return members


def save_instance(instance: Instance, path) -> None:
    """Write ``instance`` to exactly ``path`` as an instance archive (members above).

    The spectra members record the problem's cached spectra; those not yet
    cached are computed first.
    """
    p = instance.problem
    lcqp = isinstance(instance, LcqpInstance)
    arrays = {"seed": np.array(instance.seed), "c": p.c}
    arrays.update((f"A_{i}", Ai) for i, Ai in enumerate(p.A))
    if lcqp:
        arrays["kind"] = np.array("lcqp")
        for i, (f, x) in enumerate(zip(p.objectives, instance.xstar)):
            arrays.update({f"H_{i}": f.H, f"q_{i}": f.q, f"xstar_{i}": x})
        arrays["lambdastar"] = instance.lambdastar
        arrays.update((f"P_{i}", P) for i, P in enumerate(instance.proximal_source))
    else:
        arrays["kind"] = np.array("resource_alloc")
        arrays.update((name, np.array([getattr(f, name) for f in p.objectives]))
                      for name in RA_COEFFICIENTS)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite spectra are not recorded
        spectra = _spectra_members(p, lcqp)
    if all(np.all(np.isfinite(a)) for a in spectra.values()):
        arrays.update(spectra)
        arrays[SPECTRA_DIGEST] = np.array(_spectra_digest(_spectra_sources(arrays, p.N, lcqp)))
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


def _stored_spectra(z, arrays: dict, dims: list, lcqp: bool) -> Optional[dict]:
    """The spectra members of ``z`` when its digest matches the members read into ``arrays``.

    ``None`` without a digest or with one that does not match; with a
    matching digest every spectra member must be present and well formed.
    """
    N = len(dims)
    if SPECTRA_DIGEST not in z.files:
        return None
    digest = _spectra_digest(_spectra_sources(arrays, N, lcqp))
    if _member(z, SPECTRA_DIGEST, dtype="string").item() != digest:
        return None
    spectra = {"spectra_gram": _member(z, "spectra_gram", (sum(dims),)),
               "spectra_norms": _member(z, "spectra_norms", (N,)),
               "spectra_c_A": _member(z, "spectra_c_A")}
    if lcqp:
        spectra["spectra_curvatures"] = _member(z, "spectra_curvatures", (N, 2))
    return spectra


def _seed_spectra(problem: BlockProblem, spectra: dict) -> None:
    """Fill the Gram-spectrum and stacked-singular-value caches of ``problem`` from ``spectra``."""
    gram = spectra["spectra_gram"]
    gram.setflags(write=False)
    o = problem.offsets
    object.__setattr__(problem, "_gram_spectra", tuple(
        GramSpectrum(gram[o[i]:o[i + 1]], float(nrm))
        for i, nrm in enumerate(spectra["spectra_norms"])))
    object.__setattr__(problem, "_stacked_singular_value", float(spectra["spectra_c_A"]))


def _instance_from_archive(z) -> Instance:
    kind = _member(z, "kind", dtype="string").item()
    if kind not in ("lcqp", "resource_alloc"):
        raise ValueError(f"kind: unknown instance kind {kind!r}")
    lcqp = kind == "lcqp"
    seed = int(_member(z, "seed", dtype="integer"))
    c = _member(z, "c", (-1,))
    m, N = c.shape[0], sum(name.startswith("A_") for name in z.files)
    # With no A_i member at all, A_0 is reported missing.
    A = tuple(_member(z, f"A_{i}", (m, -1 if lcqp else 1)) for i in range(max(N, 1)))
    dims = [Ai.shape[1] for Ai in A]
    arrays = {f"A_{i}": Ai for i, Ai in enumerate(A)}
    if lcqp:
        for i, n in enumerate(dims):
            arrays[f"H_{i}"] = _member(z, f"H_{i}", (n, n))
            arrays[f"q_{i}"] = _member(z, f"q_{i}", (n,))
    else:
        arrays.update((name, _member(z, name, (N,))) for name in RA_COEFFICIENTS)
    spectra = _stored_spectra(z, arrays, dims, lcqp)
    if lcqp:
        curvatures = spectra["spectra_curvatures"] if spectra else [None] * N
        blocks = tuple(_block(f"H_{i}", QuadraticBlock, arrays[f"H_{i}"], arrays[f"q_{i}"], ci)
                       for i, ci in enumerate(curvatures))
    else:
        rows = zip(*(arrays[name] for name in RA_COEFFICIENTS))
        blocks = tuple(_block("a", LogisticQuadBlock, *map(float, row)) for row in rows)
    problem = BlockProblem(blocks, A, c)
    if spectra:
        _seed_spectra(problem, spectra)
    if not lcqp:
        return ResourceAllocInstance(problem, seed)
    xstar = tuple(_member(z, f"xstar_{i}", (n,)) for i, n in enumerate(dims))
    P = tuple(_member(z, f"P_{i}", (n, n)) for i, n in enumerate(dims)) if "P_0" in z.files else ()
    return LcqpInstance(problem, xstar, _member(z, "lambdastar", (m,)), seed, P)


def load_instance(path) -> Instance:
    """The instance in the archive at ``path`` (members above).

    Raises ``FileNotFoundError`` for a missing file, and ``ValueError`` for
    any other fault, naming the member where one is at fault.
    """
    with open(path, "rb") as fh:
        if fh.read(1) == b"{":
            raise ValueError("a JSON instance file, a format jprox no longer reads: "
                             "regenerate it from its seed with `jprox generate`")
        fh.seek(0)
        try:
            archive = np.load(fh, allow_pickle=False)
        except ARCHIVE_ERRORS as exc:
            raise ValueError(f"not an .npz instance archive ({exc})") from None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz instance archive (a single .npy array)")
        with archive:
            return _instance_from_archive(archive)

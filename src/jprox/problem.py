"""The N-block problem model.

A problem is ``min sum_i f_i(x_i)`` subject to the coupling constraint
``sum_i A_i x_i = c``.  This module holds the block objective variants,
the problem container, and evaluation and optimality diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .linalg import gram_spectrum, require_symmetric, smallest_singular_value_stacked


def log1pexp(t: float) -> float:
    """``log(1 + exp(t))`` evaluated without overflow for any finite ``t``."""
    t = float(t)
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def sigmoid(t: float) -> float:
    """``1 / (1 + exp(-t))`` evaluated without overflow for any finite ``t``."""
    t = float(t)
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if n is not None and x.shape[0] != n:
        raise DimensionMismatch(f"{name}: expected length {n}, got {x.shape[0]}")
    return x


def _finite_vector(x, n: int, name: str) -> np.ndarray:
    x = _as_vector(x, n, name)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} entries must be finite")
    return x


@dataclass(frozen=True)
class QuadraticBlock:
    """Strongly convex quadratic ``0.5 * x' H x + q' x`` with symmetric PD ``H``.

    ``min_curvature`` and ``max_curvature`` are ``lambda_min(H)`` and
    ``lambda_max(H)``, both from one eigensolve of the stored ``H``, unless
    ``curvature_range`` gives them as ``(lambda_min, lambda_max)`` already
    computed for this ``H`` (an instance archive records them).
    """

    H: np.ndarray
    q: np.ndarray
    curvature_range: InitVar[Optional[tuple]] = None
    min_curvature: float = field(init=False, repr=False, compare=False)
    max_curvature: float = field(init=False, repr=False, compare=False)

    def __post_init__(self, curvature_range):
        H = require_symmetric(self.H, "QuadraticBlock.H")
        if H.shape[0] == 0:
            raise ValueError("QuadraticBlock.H: empty matrix has no eigenvalues")
        q = _finite_vector(self.q, H.shape[0], "QuadraticBlock.q")
        object.__setattr__(self, "H", _frozen(H))
        object.__setattr__(self, "q", _frozen(q))
        if curvature_range is None:
            # Symmetrize so round-off in the input cannot leak into the spectrum.
            w = np.linalg.eigvalsh(0.5 * (self.H + self.H.T))
            curvature_range = (w[0], w[-1])
        object.__setattr__(self, "min_curvature", float(curvature_range[0]))
        object.__setattr__(self, "max_curvature", float(curvature_range[1]))
        if self.min_curvature <= 0.0:
            raise NotPositiveDefinite("QuadraticBlock.H must be positive definite")

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ (self.H @ x) + self.q @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.H @ x + self.q

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.H


@dataclass(frozen=True)
class LogisticQuadBlock:
    """Scalar objective ``0.5*a*(x - cshift)^2 + log(1 + exp(b*(x - dshift)))``.

    The logistic term is evaluated in overflow-safe form, so value, gradient
    and curvature stay finite for any finite ``x`` even when ``|b*(x-dshift)|``
    transiently exceeds several hundred during a solve.
    """

    a: float
    b: float
    cshift: float
    dshift: float

    def __post_init__(self):
        vals = (self.a, self.b, self.cshift, self.dshift)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("LogisticQuadBlock coefficients must be finite")
        if self.a < 0.0:
            raise ValueError("LogisticQuadBlock.a must be nonnegative")

    @property
    def dim(self) -> int:
        return 1

    def value(self, x: np.ndarray) -> float:
        x0 = float(x[0])
        return 0.5 * self.a * (x0 - self.cshift) ** 2 + log1pexp(self.b * (x0 - self.dshift))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x0 = float(x[0])
        g = self.a * (x0 - self.cshift) + self.b * sigmoid(self.b * (x0 - self.dshift))
        return np.array([g])

    @property
    def min_curvature(self) -> float:
        """Lower bound ``a`` of :meth:`curvature`."""
        return self.a

    @property
    def max_curvature(self) -> float:
        """Upper bound ``a + b^2/4`` of :meth:`curvature`."""
        return self.a + 0.25 * self.b * self.b

    def curvature(self, x0: float) -> float:
        """Second derivative ``a + b^2 * s * (1 - s)``; bounded by ``a + b^2/4``."""
        s = sigmoid(self.b * (x0 - self.dshift))
        return self.a + self.b * self.b * s * (1.0 - s)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return np.array([[self.curvature(float(x[0]))]])


BlockObjective = Union[QuadraticBlock, LogisticQuadBlock]


@dataclass(frozen=True)
class BlockProblem:
    """Immutable N-block problem: objectives, coupling matrices and right-hand side.

    Every objective is a :class:`QuadraticBlock` or a :class:`LogisticQuadBlock`.
    """

    objectives: tuple
    A: tuple
    c: np.ndarray

    def __post_init__(self):
        objectives = tuple(self.objectives)
        if not objectives:
            raise ValueError("BlockProblem needs at least one block")
        A = tuple(_frozen(np.asarray(Ai, dtype=float)) for Ai in self.A)
        if len(A) != len(objectives):
            raise DimensionMismatch(
                f"{len(objectives)} objectives but {len(A)} coupling matrices"
            )
        m = A[0].shape[0]
        for i, (f, Ai) in enumerate(zip(objectives, A)):
            if not isinstance(f, (QuadraticBlock, LogisticQuadBlock)):
                raise TypeError(
                    f"block {i}: a {type(f).__name__} is neither a QuadraticBlock "
                    "nor a LogisticQuadBlock"
                )
            if Ai.ndim != 2:
                raise DimensionMismatch(f"A[{i}] must be 2-d, got shape {Ai.shape}")
            if Ai.shape[0] != m:
                raise DimensionMismatch(f"A[{i}] has {Ai.shape[0]} rows, expected {m}")
            if Ai.shape[1] != f.dim:
                raise DimensionMismatch(
                    f"A[{i}] has {Ai.shape[1]} columns but block {i} has dimension {f.dim}"
                )
            if not np.all(np.isfinite(Ai)):
                raise ValueError(f"A[{i}] entries must be finite")
        c = _frozen(_finite_vector(self.c, m, "BlockProblem.c"))
        object.__setattr__(self, "objectives", objectives)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)
        offsets = np.concatenate(([0], np.cumsum([f.dim for f in objectives])))
        object.__setattr__(self, "_offsets", tuple(int(o) for o in offsets))
        object.__setattr__(self, "_stacked_A", None)
        object.__setattr__(self, "_gram_spectra", None)
        object.__setattr__(self, "_gram_matrices", None)
        object.__setattr__(self, "_stacked_singular_value", None)

    @property
    def N(self) -> int:
        return len(self.objectives)

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def dims(self) -> tuple:
        return tuple(f.dim for f in self.objectives)

    @property
    def offsets(self) -> tuple:
        """Block starts in the stacked primal vector, then its length ``sum n_i``.

        Block ``i`` of a stacked vector ``x`` is ``x[offsets[i]:offsets[i+1]]``.
        """
        return self._offsets

    def stacked_A(self) -> np.ndarray:
        """The horizontal concatenation ``[A_1, ..., A_N]`` of shape (m, sum n_i).

        Built on first use and cached; the array is read-only.
        """
        if self._stacked_A is None:
            object.__setattr__(self, "_stacked_A", _frozen(np.hstack(self.A)))
        return self._stacked_A

    def gram_spectra(self) -> tuple:
        """The :class:`~jprox.linalg.GramSpectrum` of every ``A_i``.

        Each holds the ascending eigenvalues of ``A_i'A_i`` and ``||A_i||``.
        Built on first use with one eigensolve per block and cached; the
        eigenvalue arrays are read-only.
        """
        if self._gram_spectra is None:
            object.__setattr__(self, "_gram_spectra", tuple(gram_spectrum(Ai) for Ai in self.A))
        return self._gram_spectra

    def gram_matrices(self) -> tuple:
        """Every block's ``A_i'A_i``; built on first use and cached, read-only."""
        if self._gram_matrices is None:
            object.__setattr__(self, "_gram_matrices", tuple(_frozen(Ai.T @ Ai) for Ai in self.A))
        return self._gram_matrices

    def stacked_singular_value(self) -> float:
        """:func:`~jprox.linalg.smallest_singular_value_stacked` of ``A``.

        Built on first use from one eigensolve of the stack's smaller Gram
        matrix (an SVD only for an ill-conditioned stack) and cached.
        """
        if self._stacked_singular_value is None:
            object.__setattr__(self, "_stacked_singular_value",
                               smallest_singular_value_stacked(self.A))
        return self._stacked_singular_value

    def stack(self, x) -> np.ndarray:
        """The stacked primal vector of ``x``: a list of blocks or an already stacked vector."""
        if isinstance(x, np.ndarray) and x.ndim == 1:
            return _as_vector(x, self._offsets[-1], "stacked primal vector")
        if len(x) != self.N:
            raise DimensionMismatch(f"{len(x)} blocks given, problem has {self.N}")
        return np.concatenate([
            _as_vector(xi, n, f"block {i}") for i, (xi, n) in enumerate(zip(x, self.dims))
        ])

    def split(self, x: np.ndarray) -> list:
        """The blocks of a stacked primal vector, as views into it."""
        o = self._offsets
        return [x[o[i]:o[i + 1]] for i in range(self.N)]


@dataclass
class PrimalDualPoint:
    """Primal blocks ``x_1..x_N`` together with the multiplier ``lam``."""

    x: list
    lam: np.ndarray

    def __post_init__(self):
        self.x = [np.asarray(xi, dtype=float).reshape(-1) for xi in self.x]
        self.lam = np.asarray(self.lam, dtype=float).reshape(-1)

    def copy(self) -> "PrimalDualPoint":
        return PrimalDualPoint([xi.copy() for xi in self.x], self.lam.copy())

    @classmethod
    def zeros(cls, problem: BlockProblem) -> "PrimalDualPoint":
        return cls([np.zeros(n) for n in problem.dims], np.zeros(problem.m))


def block_distances(DX: np.ndarray, DLAM: np.ndarray, offsets) -> np.ndarray:
    """Largest of ``||DLAM[j]||`` and the block norms ``||DX[j, o_i:o_{i+1}]||``, per row ``j``.

    Each row of ``DX`` is a stacked primal vector (or difference) with block
    starts ``offsets[:-1]``; every block is nonempty.  A non-finite entry
    makes its row's result non-finite.
    """
    worst = np.add.reduceat(DX * DX, offsets[:-1], axis=1).max(axis=1)
    return np.sqrt(np.maximum(worst, (DLAM * DLAM).sum(axis=1)))


def block_distance(dx: np.ndarray, dlam: np.ndarray, offsets) -> float:
    """:func:`block_distances` of the one row ``dx`` (stacked primal) and ``dlam``."""
    return float(block_distances(dx[None], dlam[None], offsets)[0])


def check_point(problem: BlockProblem, u: PrimalDualPoint) -> None:
    if len(u.x) != problem.N:
        raise DimensionMismatch(f"point has {len(u.x)} blocks, problem has {problem.N}")
    for i, (xi, n) in enumerate(zip(u.x, problem.dims)):
        if xi.shape[0] != n:
            raise DimensionMismatch(f"block {i}: length {xi.shape[0]}, expected {n}")
    if u.lam.shape[0] != problem.m:
        raise DimensionMismatch(
            f"multiplier length {u.lam.shape[0]}, expected {problem.m}"
        )


def block_gradient(f: BlockObjective, x) -> np.ndarray:
    """Gradient of a single block objective."""
    x = _as_vector(x, f.dim, "block_gradient input")
    return np.asarray(f.gradient(x), dtype=float).reshape(-1)


def constraint_residual(problem: BlockProblem, x) -> np.ndarray:
    """``sum_i A_i x_i - c`` as one stacked matvec.

    ``x`` is a list of blocks or the stacked primal vector; both give the
    same result bit for bit.  A stacked float64 vector of the right length
    is used as it is; anything else goes through :meth:`BlockProblem.stack`.
    """
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 1
            and x.shape[0] == problem.offsets[-1]):
        x = problem.stack(x)
    return problem.stacked_A() @ x - problem.c


def kkt_map(problem: BlockProblem, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``(grad f(x) - A' lam, A x - c)`` for a stacked ``x``; zero exactly at a solution."""
    grad = [block_gradient(f, xi) for f, xi in zip(problem.objectives, problem.split(x))]
    return np.concatenate((np.concatenate(grad) - problem.stacked_A().T @ lam,
                           constraint_residual(problem, x)))


def kkt_residual(problem: BlockProblem, u: PrimalDualPoint) -> float:
    """Optimality defect: worst block stationarity gap or feasibility gap of :func:`kkt_map`."""
    check_point(problem, u)
    F = kkt_map(problem, problem.stack(u.x), u.lam)
    n = problem.offsets[-1]
    return block_distance(F[:n], F[n:], problem.offsets)

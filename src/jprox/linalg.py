"""Dense matrix primitives: SPD solves, extremal eigenvalues, singular values.

Everything here is a pure function of float64 arrays and uses deterministic
dense factorizations (LAPACK via numpy alone), so identical inputs always
produce identical outputs.  Problem sizes in this package are at most a few
hundred, where dense methods are both the simplest and the fastest option;
sparse formats and Krylov iterations are deliberately out of scope.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric

#: Relative tolerance for symmetry checks: max |S_ij - S_ji| <= tol * (1 + max |S_ij|).
SYMMETRY_RTOL = 1e-10

#: Target relative residual of SPD solves: ||Mx - b|| <= tol * (1 + ||b||).
SPD_RESIDUAL_RTOL = 1e-10

#: Safety factor on the ``n * eps * cond(M)`` bound of an SPD solve's relative residual.
REFINE_GROWTH = 4.0

#: The stacked singular value is read from the Gram matrix, of order ``k``
#: and eigenvalues ``w``, while ``k * eps * w_max / w_min`` is at most this.
GRAM_COND_LIMIT = 1e-8


def symmetry_defect(S: np.ndarray) -> float:
    """Largest absolute entry of ``S - S.T``."""
    S = np.asarray(S, dtype=float)
    if S.size == 0:
        return 0.0
    return float(np.max(np.abs(S - S.T)))


def require_symmetric(S, name: str = "matrix") -> np.ndarray:
    """Validate that ``S`` is square, finite and symmetric within tolerance.

    Returns ``S`` as a float64 array.  Raises :class:`NotSymmetric` when the
    asymmetry exceeds ``SYMMETRY_RTOL * (1 + max |S|)``; matrices fed to this
    package are explicitly symmetrized upstream, so a violation signals a bug
    rather than round-off.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NotSymmetric(f"{name}: expected a square matrix, got shape {S.shape}")
    if S.size and not np.all(np.isfinite(S)):
        raise NotSymmetric(f"{name}: entries must be finite")
    bound = SYMMETRY_RTOL * (1.0 + (float(np.max(np.abs(S))) if S.size else 0.0))
    defect = symmetry_defect(S)
    if defect > bound:
        raise NotSymmetric(f"{name}: asymmetry {defect:.3e} exceeds tolerance {bound:.3e}")
    return S


def _inverse_cholesky(M: np.ndarray, name: str) -> np.ndarray:
    """Inverse of the lower Cholesky factor of ``M``; raises :class:`NotPositiveDefinite`."""
    try:
        return np.linalg.inv(np.linalg.cholesky(M))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name}: {exc}") from exc


class SpdFactor:
    """Explicit inverse of a symmetric positive-definite matrix, built from its Cholesky factor.

    The inverse and the exact 1-norm condition number ``||M||_1 ||M^-1||_1``
    are computed once; :meth:`solve` then costs one product with the
    inverse, for one right-hand side or a matrix of them.  Such a solve
    misses ``Mx = b`` by at most about ``n * eps * cond(M) * ||b||``.  Only
    when that bound exceeds half of ``SPD_RESIDUAL_RTOL`` does :meth:`solve`
    check the residual and apply one step of iterative refinement, which
    keeps ``||Mx - b|| <= SPD_RESIDUAL_RTOL * (1 + ||b||)`` for every
    right-hand side on any reasonably conditioned input.
    """

    def __init__(self, M, name: str = "matrix"):
        M = require_symmetric(M, name)
        self._M = M
        Linv = _inverse_cholesky(M, name)
        self._inv = Linv.T @ Linv
        cond = np.linalg.norm(M, 1) * np.linalg.norm(self._inv, 1)
        self.checks_residual = bool(REFINE_GROWTH * M.shape[0] * np.finfo(float).eps * cond
                                    > 0.5 * SPD_RESIDUAL_RTOL)

    def solve(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x = self._inv @ b
        if self.checks_residual:
            resid = b - self._M @ x
            target = 0.5 * SPD_RESIDUAL_RTOL * (1.0 + np.linalg.norm(b, axis=0))
            refine = np.linalg.norm(resid, axis=0) > target
            if np.any(refine):
                x = x + self._inv @ (resid * refine)  # columns within target: no change
        return x


def min_eigenvalue_sym(S, name: str = "matrix") -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    S = require_symmetric(S, name)
    if S.shape[0] == 0:
        raise ValueError(f"{name}: empty matrix has no eigenvalues")
    # Symmetrize so round-off in the input cannot leak into the result.
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(w[0])


class GramSpectrum(NamedTuple):
    """Eigenvalues of ``A'A`` together with the spectral norm of ``A``."""

    eigenvalues: np.ndarray
    norm: float


def gram_spectrum(A) -> GramSpectrum:
    """Ascending eigenvalues of ``A'A``, one per column of ``A``, and ``||A||_2``.

    One symmetric eigensolve of the smaller Gram matrix (``A'A`` or
    ``AA'``); the ``n - m`` further eigenvalues of ``A'A`` for a wide ``A``
    are exact zeros.  Forming the Gram matrix squares the conditioning of
    the small singular values only; its largest eigenvalue stays accurate
    to a few ``eps`` relative.  ``A`` is first divided by ``max |a_ij|`` so
    that the products neither overflow nor underflow for entries near
    1e+-150, and the norm is rescaled without squaring that factor.
    Round-off below zero is clipped; the eigenvalue array is read-only.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"expected a nonempty 2-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    m, n = A.shape
    scale = float(np.max(np.abs(A)))
    S = A / scale if scale > 0.0 else A
    e = np.maximum(np.linalg.eigvalsh(S.T @ S if m >= n else S @ S.T), 0.0)
    w = np.concatenate((np.zeros(n - e.shape[0]), e))
    with np.errstate(over="ignore"):  # past scale*scale = inf, exact zeros still stay 0
        w = scale * scale * w if math.isfinite(scale * scale) else scale * (scale * w)
    w.setflags(write=False)
    return GramSpectrum(w, scale * math.sqrt(float(e[-1])))


def spectral_norm(A) -> float:
    """Largest singular value of a (possibly rectangular) matrix: ``gram_spectrum(A).norm``."""
    return gram_spectrum(A).norm


def smallest_singular_value_stacked(blocks: Sequence[np.ndarray]) -> float:
    """Smallest singular value of ``[A_1.T; A_2.T; ...; A_N.T]``.

    Each block must have the same number of rows ``m``; the stack then has
    ``sum(n_i)`` rows and ``m`` columns.  The returned value is the smallest
    of the stack's ``min(sum(n_i), m)`` singular values.  When the stack has
    at least ``m`` rows this equals ``sqrt(min_eig(sum_i A_i @ A_i.T))``; it
    is the best constant ``c`` with ``sqrt(sum_i ||A_i.T y||^2) >= c ||y||``
    over the row space of the stack.

    The value comes from one eigensolve of the smaller Gram matrix of the
    stack, of order ``k = min(sum(n_i), m)``, after dividing the stack by
    ``max |a_ij|``.  Only a stack whose Gram eigenvalues ``w`` fail
    ``k * eps * w_max <= GRAM_COND_LIMIT * w_min`` takes an SVD.
    """
    if not blocks:
        raise ValueError("smallest_singular_value_stacked: need at least one block")
    mats = [np.asarray(A, dtype=float) for A in blocks]
    m = mats[0].shape[0]
    for idx, A in enumerate(mats):
        if A.ndim != 2 or A.shape[0] != m:
            raise ValueError(
                f"smallest_singular_value_stacked: block {idx} has shape {A.shape}, "
                f"expected {m} rows"
            )
    S = np.hstack(mats)
    scale = float(np.max(np.abs(S))) if S.size else 0.0
    if scale > 0.0 and math.isfinite(scale):
        S = S / scale
        w = np.linalg.eigvalsh(S @ S.T if S.shape[1] >= S.shape[0] else S.T @ S)
        # Forming the Gram matrix and its eigensolve move each eigenvalue by
        # about k*eps*w_max (Weyl), so sqrt(w_min) is off by at most about
        # k*eps*w_max / (2*w_min) <= GRAM_COND_LIMIT / 2 relative.  Such a
        # stack is far from rank deficient: sqrt(w_min/w_max) > 1e-4.
        if w[0] > 0.0 and w.shape[0] * np.finfo(float).eps * w[-1] <= GRAM_COND_LIMIT * w[0]:
            return scale * math.sqrt(float(w[0]))
    return float(np.linalg.svd(np.vstack([A.T for A in mats]), compute_uv=False)[-1])


def generalized_max_eigenvalue(M, Npd, name: str = "pencil") -> float:
    """Largest generalized eigenvalue of ``M v = t Npd v`` with ``Npd`` positive definite.

    Equals the largest eigenvalue of ``Npd^{-1/2} M Npd^{-1/2}``, i.e. the
    least ``t`` with ``M <= t * Npd`` in the semidefinite order.
    """
    M = require_symmetric(M, f"{name}: left matrix")
    Npd = require_symmetric(Npd, f"{name}: right matrix")
    if M.shape != Npd.shape:
        raise ValueError(f"{name}: shapes {M.shape} and {Npd.shape} differ")
    Linv = _inverse_cholesky(0.5 * (Npd + Npd.T), f"{name}: right matrix")
    G = Linv @ M @ Linv.T
    return float(np.linalg.eigvalsh(0.5 * (G + G.T))[-1])

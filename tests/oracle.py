"""Dense oracles of the certificate's closed forms, built from raw arrays.

Each function takes the coupling matrices ``A_i``, the proximal matrices
``P_i`` and scalars, builds the paper's matrices densely and solves them
with ``scipy.linalg.eigh``.  Nothing here imports jprox, so an oracle shares
no code with the closed form it checks: jprox reads the same quantities off
the cached eigenvalues of ``A_i'A_i`` without building a matrix.
"""

import numpy as np
import scipy.linalg

#: Relative slack that keeps the split weights' sum strictly below ``2 - gamma``.
XI_SLACK = 1e-6


def uniform_xi(gamma: float, N: int) -> float:
    """The equal split weight ``xi_i = (1 - 1e-6) * (2 - gamma) / N`` of every block."""
    return (1.0 - XI_SLACK) * (2.0 - gamma) / N


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def proximal_matrices(A, taus, coupling: int, rho: float) -> list:
    """``P_i = tau_i*I - coupling*rho*A_i'A_i`` per block; ``taus=None`` gives ``P_i = 0``.

    A scalar ``taus`` is every block's weight.  No PSD floor is checked.
    """
    if taus is None:
        return [np.zeros((Ai.shape[1], Ai.shape[1])) for Ai in A]
    taus = [taus] * len(A) if np.isscalar(taus) else list(taus)
    return [float(t) * np.eye(Ai.shape[1]) - coupling * rho * (Ai.T @ Ai)
            for t, Ai in zip(taus, A)]


def coupling_margins(A, P, rho: float, gamma: float, s: float) -> list:
    """Per block, ``lambda_min(B - 8*s*B^2 - (rho/xi)*A_i'A_i)`` with ``B = rho*A_i'A_i + P_i``.

    ``xi`` is :func:`uniform_xi`; the condition holds where every margin is positive.
    """
    if len(P) != len(A):
        raise ValueError(f"{len(P)} proximal matrices for {len(A)} blocks")
    c = rho / uniform_xi(gamma, len(A))
    margins = []
    for Ai, Pi in zip(A, P):
        AtA = Ai.T @ Ai
        B = rho * AtA + Pi
        M = B - 8.0 * s * (B @ B) - c * AtA
        margins.append(float(scipy.linalg.eigh(_sym(M), eigvals_only=True)[0]))
    return margins


def mu_s(A, P, rho: float, s: float, alpha: float, L: float, D: float) -> float:
    """The largest generalized eigenvalue over blocks of the ``mu_s`` pencil.

    Left ``(rho + 4*N*s*rho^2*D)*A_i'A_i + P_i``, right
    ``rho*A_i'A_i + P_i + 2*(alpha - 2*L*s)*I``.  A right matrix that is not
    positive definite raises ``numpy.linalg.LinAlgError`` (scipy's), and a
    gap ``alpha - 2*L*s`` that is not positive raises ``ValueError``.
    """
    if len(P) != len(A):
        raise ValueError(f"{len(P)} proximal matrices for {len(A)} blocks")
    gap = alpha - 2.0 * L * s
    if gap <= 0.0:
        raise ValueError(f"alpha - 2*L*s = {gap:.3e} must be positive")
    coef = rho + 4.0 * len(A) * s * rho * rho * D
    worst = -np.inf
    for Ai, Pi in zip(A, P):
        AtA = Ai.T @ Ai
        left = coef * AtA + Pi
        right = rho * AtA + Pi + 2.0 * gap * np.eye(AtA.shape[0])
        worst = max(worst, float(scipy.linalg.eigh(_sym(left), _sym(right),
                                                   eigvals_only=True)[-1]))
    return worst

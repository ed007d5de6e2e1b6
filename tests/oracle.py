"""Dense oracles of the certificate's closed forms, built from raw arrays.

Each function takes raw arrays (the coupling matrices ``A_i``, the proximal
matrices ``P_i``, the objectives' ``H_i`` or coefficients) and scalars,
builds the paper's matrices densely and solves them with ``scipy.linalg``.
Nothing here imports jprox, so an oracle shares no code with the closed form
it checks: jprox reads the same quantities off the cached eigenvalues of
``A_i'A_i`` without building a matrix.
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


class Constants:
    """The problem constants: strong-convexity modulus ``alpha``, ``L``, ``D`` and ``c_A``."""

    def __init__(self, alpha: float, L: float, D: float, c_A: float):
        self.alpha, self.L, self.D, self.c_A = alpha, L, D, c_A


def constants(A, H=None, a=None, b=None) -> Constants:
    """The constants of an LCQP (every ``H_i``) or a resource allocation (``a_i``, ``b_i``).

    A quadratic block's curvature lies in ``[lambda_min(H_i), lambda_max(H_i)]``;
    ``a_i x^2/2 + log(1 + exp(b_i x))`` (shifted) has curvature in
    ``[a_i, a_i + b_i^2/4]``.  ``alpha`` is half the smallest curvature bound,
    ``L`` the square of the largest, ``D = sum ||A_i||^2``, and ``c_A`` the
    smallest singular value of the stacked ``[A_1'; ...; A_N']``.
    """
    if H is not None:
        spectra = [scipy.linalg.eigh(_sym(np.asarray(Hi)), eigvals_only=True) for Hi in H]
        lows, highs = [w[0] for w in spectra], [w[-1] for w in spectra]
    else:
        lows = list(a)
        highs = [ai + bi * bi / 4.0 for ai, bi in zip(a, b)]
    return Constants(alpha=0.5 * min(lows), L=max(highs) ** 2,
                     D=sum(scipy.linalg.svdvals(Ai)[0] ** 2 for Ai in A),
                     c_A=scipy.linalg.svdvals(np.vstack([Ai.T for Ai in A]))[-1])


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

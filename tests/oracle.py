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


def max_feasible_s(A, consts: Constants, rho: float) -> float:
    """The supremum of ``s`` with ``s*(rho^2*D*||A_i||^2 + L/N) < alpha/(2N)`` for every block."""
    N = len(A)
    return min(consts.alpha / (2.0 * N)
               / (rho * rho * consts.D * scipy.linalg.svdvals(Ai)[0] ** 2 + consts.L / N)
               for Ai in A)


def _coupling_margin(AtA: np.ndarray, B: np.ndarray, s: float, c: float) -> float:
    """``lambda_min(B - 8*s*B^2 - c*A_i'A_i)``."""
    M = B - 8.0 * s * (B @ B) - c * AtA
    return float(scipy.linalg.eigh(_sym(M), eigvals_only=True)[0])


def coupling_margins(A, P, rho: float, gamma: float, s: float) -> list:
    """Per block, ``lambda_min(B - 8*s*B^2 - (rho/xi)*A_i'A_i)`` with ``B = rho*A_i'A_i + P_i``.

    ``xi`` is :func:`uniform_xi`; the condition holds where every margin is positive.
    """
    if len(P) != len(A):
        raise ValueError(f"{len(P)} proximal matrices for {len(A)} blocks")
    c = rho / uniform_xi(gamma, len(A))
    return [_coupling_margin(Ai.T @ Ai, rho * (Ai.T @ Ai) + Pi, s, c) for Ai, Pi in zip(A, P)]


def bisection_tau(A, consts: Constants, rho: float, gamma: float, coupling: int,
                  safety: float = 1.5):
    """The weight rule on dense matrices, with ``P_i = tau*I - coupling*rho*A_i'A_i``.

    ``s`` is half of :func:`max_feasible_s`.  Each block's certified interval
    ``(lo, hi)`` is found by bisecting its coupling margin, which is concave
    in the weight, at both ends.  The weight is ``safety*lo``, or the
    midpoint where ``safety*lo >= hi``, or the round-off-sized
    ``1e-12*max(c*||A_i||^2, 1)`` (at most ``hi/2``) where the margin at 0
    is already positive.  ``None`` where some block has no interval.
    """
    s = 0.5 * max_feasible_s(A, consts, rho)
    c = rho / uniform_xi(gamma, len(A))
    taus = []
    for Ai in A:
        AtA = Ai.T @ Ai
        eye = np.eye(AtA.shape[0])

        def margin(tau):
            return _coupling_margin(AtA, (1 - coupling) * rho * AtA + tau * eye, s, c)

        def boundary(outside, inside):
            """The end of the interval between a failing and a passing weight."""
            for _ in range(100):
                mid = 0.5 * (outside + inside)
                outside, inside = (outside, mid) if margin(mid) > 0.0 else (mid, inside)
            return inside

        scale = max(c * scipy.linalg.svdvals(Ai)[0] ** 2, 1.0)
        if margin(0.0) > 0.0:
            lo, inside = None, 0.0
        else:
            lo, probe = 0.0, scale * 2.0 ** -10
            for _ in range(60):
                if margin(probe) > 0.0:
                    break
                lo, probe = probe, 2.0 * probe
            else:
                return None
            lo = inside = boundary(lo, probe)
        above = 2.0 * max(inside, scale)
        while margin(above) > 0.0:
            above *= 2.0
        hi = boundary(above, inside)
        if lo is None:
            taus.append(min(1e-12 * scale, 0.5 * hi))
        elif safety * lo < hi:
            taus.append(safety * lo)
        else:
            taus.append(0.5 * (lo + hi))
    return taus


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

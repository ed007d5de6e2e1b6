"""Linear-convergence certification.

Given a problem and the engine parameters (rho, gamma, proximal policy),
this module computes the smoothness/strong-convexity constants, checks
the sufficient conditions for geometric decay of the weighted distance

    phi(u) = ||lam - lam*||^2 / (2*gamma*rho)
             + 0.5 * sum_i ||x_i - x_i*||^2  in the  rho*A_i'A_i + P_i
               + 2*(alpha - 2*L*s)*I  norm,

and produces the certified per-iteration contraction factor

    sigma = max(1 - 2*gamma*rho*s*c_A^2, mu_s)  in (0, 1).

A certificate is the pair (sigma, phi): the weights of the ``phi`` a passed
:class:`Certificate` certifies (:class:`PhiWeights`) are built from the
``P_i`` and ``s`` it checked, by :meth:`PhiWeights.certified`, only where a
run records ``phi`` per row (``Trace.phi``); there ``phi[k+1] <= sigma *
phi[k]`` can be checked.

The constants, the Gram spectra and the Gram matrices ``A_i'A_i`` are
computed once per loaded problem and cached on it (``BlockProblem``).
Every spectral quantity of a coupling matrix comes from one
eigendecomposition of ``A_i'A_i`` per block (``BlockProblem.gram_spectra``):
the norms ``||A_i||``, the certified proximal weights, and ``mu_s``.  A
policy is none or a weight policy ``P_i = tau_i*I - coupling*rho*A_i'A_i``
(every fact of which is derived from its ``kind`` and ``coupling``), so the
coupling matrix and both matrices of the ``mu_s`` pencil are polynomials in
``A_i'A_i``: the coupling margin is a minimum and ``mu_s`` a maximum over
its eigenvalues, with no matrix built.  The coupling condition on each
eigenvalue is a concave quadratic in ``tau``, so
:func:`smallest_certified_tau` reads each block's certified interval in
closed form and picks a weight strictly inside it.  :func:`certify`, the
one place an ``"auto"`` request becomes weights, checks the coupling
condition of every policy once (:func:`check_xi_condition`).

All checks are reported with margins; a failed certificate is data, not an
exception, so callers can still run the solver on uncertified parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CertificationError,
    GammaOutOfRange,
    InsufficientData,
    InvalidParameter,
    JproxError,
    NonPositiveWeight,
    NotPositiveDefinite,
    NotStronglyConvex,
)
from .problem import BlockProblem, PrimalDualPoint
from .solvers import (
    WEIGHT_POLICIES,
    ProximalPolicy,
    StandardProximal,
    materialize_policy,
    policy_eigenvalues,
    policy_weights,
)

#: Strong-convexity floor: moduli at or below this certify rates uselessly close
#: to 1 and are treated as numerically not strongly convex.
ALPHA_TOL = 1e-3

#: Relative slack keeping the sum of split weights strictly below 2 - gamma.
XI_SLACK = 1e-6

#: Relative pullback applied when the stacked singular value exceeds the
#: admissible range of the dual contraction branch.
CA_CLAMP_MARGIN = 1e-9

#: Values at or below this floor are dropped before fitting a decay rate.
RATE_FIT_FLOOR = 1e-14

#: The weight search proposes this multiple of a block's certified lower end.
TAU_SAFETY = 1.5


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness and geometry constants of a problem.

    ``alpha`` is the worst-block strong-convexity modulus in the convention
    ``f(y) >= f(x) + <grad f(x), y-x> + alpha ||y-x||^2`` (no 1/2 factor);
    ``L`` is the square of the largest per-block gradient Lipschitz constant;
    ``D`` the sum of squared coupling-matrix norms; ``c_A`` the smallest
    stacked singular value of the transposed coupling matrices.
    """

    alpha: float
    L_list: tuple
    L: float
    D: float
    c_A: float
    A_norms: tuple


def _require_positive(**values) -> None:
    """Raise :class:`InvalidParameter` unless every value is finite and positive."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidParameter(f"{name} must be finite and positive, got {value!r}")


def estimate_constants(problem: BlockProblem) -> ProblemConstants:
    """Compute :class:`ProblemConstants` for a problem.

    Raises :class:`NotStronglyConvex` when the worst modulus is at or below
    ``ALPHA_TOL``; the exception carries the offending value.  Costs O(N)
    after the first call, which fills the problem's spectral caches.
    """
    # A block's gradient Lipschitz constant is the top of its curvature range;
    # the modulus convention halves the bottom.
    L_list = tuple(f.max_curvature for f in problem.objectives)
    alpha = min(0.5 * f.min_curvature for f in problem.objectives)
    if alpha <= ALPHA_TOL:
        raise NotStronglyConvex(
            f"strong-convexity modulus {alpha:.3e} is at or below the floor {ALPHA_TOL:g}",
            alpha=alpha,
        )
    A_norms = tuple(g.norm for g in problem.gram_spectra())
    return ProblemConstants(
        alpha=alpha,
        L_list=L_list,
        L=max(L_list) ** 2,
        D=sum(nrm * nrm for nrm in A_norms),
        c_A=problem.stacked_singular_value(),
        A_norms=A_norms,
    )


def max_feasible_s(consts: ProblemConstants, rho: float, N: int) -> float:
    """Largest admissible dual-coupling weight.

    Returns the supremum of ``s`` with
    ``s * (rho^2 * D * ||A_i||^2 + L/N) < alpha / (2N)`` for every block;
    certificates use half this value so the inequality holds with margin.
    """
    _require_positive(rho=rho)
    bound = consts.alpha / (2.0 * N)
    return min(bound / (rho * rho * consts.D * nrm * nrm + consts.L / N) for nrm in consts.A_norms)


def uniform_xi(gamma: float, N: int) -> tuple:
    """Equal split weights summing to just under ``2 - gamma``."""
    return tuple((1.0 - XI_SLACK) * (2.0 - gamma) / N for _ in range(N))


@dataclass(frozen=True)
class XiCheck:
    """Outcome of the per-block positive-definiteness condition."""

    passed: bool
    min_eigs: tuple
    xi: tuple


def check_xi_condition(problem: BlockProblem, rho: float, gamma: float, s: float,
                       policy: ProximalPolicy) -> XiCheck:
    """Check the per-block coupling condition for the uniform split weights.

    The one coupling check :func:`certify` runs.  With
    ``B_i = rho*A_i'A_i + P_i``, each block must satisfy
    ``B_i - 8*s*B_i^2 - (rho/xi_i)*A_i'A_i`` positive definite while the
    ``xi_i`` sum stays below ``2 - gamma``; the split is
    ``xi_i = (1 - 1e-6) * (2 - gamma) / N`` (:func:`uniform_xi`).  The
    margins ``min_eigs`` are the smallest eigenvalues of these matrices.

    ``B_i`` is a polynomial in ``A_i'A_i``, so no matrix is built: with
    ``d_j`` the cached eigenvalues of ``A_i'A_i`` and
    ``b_j = rho*d_j + p_j`` (``p_j`` from :func:`policy_eigenvalues`), the
    margin is ``min_j(b_j - 8*s*b_j^2 - (rho/xi_i)*d_j)``.
    """
    if not 0.0 < gamma < 2.0:
        raise GammaOutOfRange(f"gamma {gamma} outside (0, 2)")
    _require_positive(s=s)
    xi = uniform_xi(gamma, problem.N)
    eigs = []
    ds = [g.eigenvalues for g in problem.gram_spectra()]
    for d, p, xi_i in zip(ds, policy_eigenvalues(policy, rho, ds), xi):
        b = rho * d + p
        eigs.append(float(np.min(b - 8.0 * s * b * b - (rho / xi_i) * d)))
    return XiCheck(all(e > 0.0 for e in eigs), tuple(eigs), xi)


def _mu_s_pencil(consts: ProblemConstants, rho: float, s: float, N: int) -> tuple:
    """``(coef, gap)`` of the ``mu_s`` pencil; :class:`NonPositiveWeight` unless ``gap > 0``."""
    gap = consts.alpha - 2.0 * consts.L * s
    if gap <= 0.0:
        raise NonPositiveWeight(f"alpha - 2*L*s = {gap:.3e} must be positive")
    return rho + 4.0 * N * s * rho * rho * consts.D, gap


def closed_form_mu_s(problem: BlockProblem, consts: ProblemConstants, rho: float, s: float,
                     policy: ProximalPolicy) -> float:
    """Tightest factor bounding the k-state weights by the Lyapunov weights.

    It is the largest generalized eigenvalue over blocks of
    ``coef*A_i'A_i + P_i`` (``coef = rho + 4*N*s*rho^2*D``) against
    ``rho*A_i'A_i + P_i + 2*gap*I`` (``gap = alpha - 2*L*s``); below 1
    whenever ``s`` is admissible.  With ``d_j`` the cached eigenvalues of
    ``A_i'A_i`` and ``p_j`` the matching eigenvalues of ``P_i`` (``0``,
    ``tau_i`` or ``tau_i - rho*d_j``), both pencil matrices share the
    eigenvectors of ``A_i'A_i``, so ``mu_s`` is
    ``max_j (coef*d_j + p_j) / (rho*d_j + p_j + 2*gap)`` over all blocks.
    Raises :class:`NotPositiveDefinite` when a denominator is not positive.
    """
    coef, gap = _mu_s_pencil(consts, rho, s, problem.N)
    worst = -math.inf
    ds = [g.eigenvalues for g in problem.gram_spectra()]
    for i, (d, p) in enumerate(zip(ds, policy_eigenvalues(policy, rho, ds))):
        right = rho * d + p + 2.0 * gap
        if not np.all(right > 0.0):
            raise NotPositiveDefinite(f"block {i}: right matrix of the mu_s pencil is not "
                                      "positive definite")
        worst = max(worst, float(np.max((coef * d + p) / right)))
    return worst


class SigmaResult(NamedTuple):
    """Contraction factor with its admissibility flag and branch details."""

    sigma: float
    in_range: bool
    dual_branch: float
    c_A_used: float


def compute_sigma(gamma: float, rho: float, s: float, c_A: float, mu_s: float) -> SigmaResult:
    """``sigma = max(1 - 2*gamma*rho*s*c_A^2, mu_s)`` with the admissible clamp.

    The dual branch needs ``c_A < 1/sqrt(2*gamma*rho*s)``; a larger stacked
    singular value is pulled back to just inside that range (the distance
    bound it certifies holds a fortiori for any smaller constant).
    """
    _require_positive(gamma=gamma, rho=rho, s=s)
    if c_A < 0.0 or mu_s < 0.0:
        raise ValueError("c_A and mu_s must be nonnegative")
    cap = 1.0 / math.sqrt(2.0 * gamma * rho * s)
    used = c_A if c_A < cap else (1.0 - CA_CLAMP_MARGIN) * cap
    dual_branch = 1.0 - 2.0 * gamma * rho * s * used * used
    sigma = max(dual_branch, mu_s)
    return SigmaResult(sigma, 0.0 < sigma < 1.0, dual_branch, used)


# -- certificates ---------------------------------------------------------------

def describe_policy(policy: ProximalPolicy) -> dict:
    if policy is None:
        return {"kind": "none"}
    tau = policy.tau if np.isscalar(policy.tau) else list(map(float, policy.tau))
    return {"kind": policy.kind, "tau": tau}


@dataclass
class Certificate:
    """Outcome of a certification attempt, with pass/fail margins.

    ``passed`` requires every strict condition to hold with positive margin:
    admissible ``s`` (so ``alpha - 2*L*s > 0``), all per-block minimum
    eigenvalues positive, split-weight slack positive, and both
    ``mu_s`` and ``sigma`` inside (0, 1).  A failed certificate records which
    condition broke in ``failure`` and keeps whatever was computed.

    Every certificate :func:`certify` returns keeps the concrete policy it
    checked (``proximal``, not serialized); :meth:`PhiWeights.certified`
    builds the Lyapunov weights of a passed one's ``phi`` from it.
    """

    rho: float
    gamma: float
    policy: dict
    passed: bool
    failure: Optional[str] = None
    s: Optional[float] = None
    xi: Optional[tuple] = None
    mu_s: Optional[float] = None
    sigma: Optional[float] = None
    margins: dict = field(default_factory=dict)
    seed: Optional[int] = None
    proximal: ProximalPolicy = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """Every field in declaration order, but the unserialized ``proximal``."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        d["xi"] = list(self.xi) if self.xi is not None else None
        return d

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")


def certify(problem: BlockProblem, rho: float, gamma: float, policy: ProximalPolicy,
            seed: Optional[int] = None) -> Certificate:
    """Resolve a policy request, then certify the concrete policy.

    A weight policy's ``"auto"`` request (``StandardProximal("auto")``)
    resolves to the weights of :func:`smallest_certified_tau`, else to
    :func:`fallback_tau`, raised to the PSD floor ``coupling*rho*||A_i||^2``; it
    raises :class:`GammaOutOfRange` for ``gamma`` outside (0, 2).  The concrete
    policy is the certificate's ``proximal``.  Whatever the policy, the
    coupling condition is checked here, once per block and in closed form,
    by :func:`check_xi_condition`.

    Never raises on a certifiability failure: the returned certificate has
    ``passed=False`` and names the broken condition, so the solver can still
    be run on the same parameters.  No Lyapunov weights are built here
    (:meth:`PhiWeights.certified`).
    """
    policy = _resolve(problem, rho, gamma, policy)
    cert = Certificate(rho=rho, gamma=gamma, policy=describe_policy(policy),
                       passed=False, seed=seed, proximal=policy)
    _require_positive(rho=rho)
    if not 0.0 < gamma < 2.0:
        cert.failure = "GammaOutOfRange"
        cert.margins = {"gamma": gamma}
        return cert
    try:
        consts = estimate_constants(problem)
    except NotStronglyConvex as exc:
        cert.failure = "NotStronglyConvex"
        cert.margins = {"alpha": exc.alpha, "alpha_floor": ALPHA_TOL}
        return cert

    s = 0.5 * max_feasible_s(consts, rho, problem.N)
    _require_positive(s=s)
    gap = consts.alpha - 2.0 * consts.L * s
    # A weight policy's floor is checked from the Gram spectra; no P_i is formed.
    if policy is not None:
        policy_weights(policy, rho, problem)
    xi_check = check_xi_condition(problem, rho, gamma, s, policy)
    mu = closed_form_mu_s(problem, consts, rho, s, policy)
    sig = compute_sigma(gamma, rho, s, consts.c_A, mu)

    cert.s, cert.xi, cert.mu_s, cert.sigma = s, xi_check.xi, mu, sig.sigma
    cert.margins = {
        "s_margin": consts.alpha / (2.0 * problem.N)
        - s * max(rho * rho * consts.D * nrm * nrm + consts.L / problem.N
                  for nrm in consts.A_norms),
        "alpha_2Ls": gap,
        "xi_pd_min_eigs": list(xi_check.min_eigs),
        "xi_sum_slack": (2.0 - gamma) - sum(xi_check.xi),
        "mu_margin": 1.0 - mu,
        "sigma_margin": 1.0 - sig.sigma,
        "dual_branch": sig.dual_branch,
        "c_A_used": sig.c_A_used,
    }
    # No NonPositiveWeight branch: s <= alpha/(4L), so gap >= alpha/2 > 0.
    if not xi_check.passed:
        cert.failure = "XiConditionFailed"
    elif not (0.0 < mu < 1.0):
        cert.failure = "MuOutOfRange"
    elif not sig.in_range:
        cert.failure = "SigmaOutOfRange"
    else:
        cert.passed = True
    return cert


# -- Lyapunov function -----------------------------------------------------------

class PhiWeights:
    """Precomputed weights of the Lyapunov distance for one parameter choice."""

    def __init__(self, gamma: float, rho: float, W: Sequence[np.ndarray]):
        self.gamma = gamma
        self.rho = rho
        W = [np.asarray(Wi, dtype=float) for Wi in W]
        # Blocks of equal size share one batched product: (index into the
        # stacked primal vector, stacked weights), one pair per block size.
        # Each W[i] is kept once, as a view into its group's stack.
        sizes = [Wi.shape[0] for Wi in W]
        starts = np.concatenate(([0], np.cumsum(sizes)))
        self.W = [None] * len(W)
        self._groups = []
        for n in sorted(set(sizes)):
            members = [i for i, size in enumerate(sizes) if size == n]
            stacked = np.stack([W[i] for i in members])
            self._groups.append((starts[members][:, None] + np.arange(n), stacked))
            for i, Wi in zip(members, stacked):
                self.W[i] = Wi

    @classmethod
    def build(cls, problem: BlockProblem, gamma: float, rho: float, s: float,
              P_list: Sequence[np.ndarray]) -> "PhiWeights":
        _, gap = _mu_s_pencil(estimate_constants(problem), rho, s, problem.N)
        W = [
            rho * AtA + np.asarray(Pi, dtype=float) + 2.0 * gap * np.eye(AtA.shape[0])
            for AtA, Pi in zip(problem.gram_matrices(), P_list)
        ]
        return cls(gamma, rho, W)

    @classmethod
    def certified(cls, problem: BlockProblem, cert: Certificate) -> Optional["PhiWeights"]:
        """The weights of the ``phi`` that ``cert``, from :func:`certify` on ``problem``,
        certifies; ``None`` when it failed."""
        if not cert.passed:
            return None
        P_list = materialize_policy(cert.proximal, cert.rho, problem)
        return cls.build(problem, cert.gamma, cert.rho, cert.s, P_list)

    def evaluate(self, u: PrimalDualPoint, ref: PrimalDualPoint) -> float:
        """phi of ``u`` about ``ref``: one row of :meth:`evaluate_rows`."""
        dx = np.concatenate(u.x) - np.concatenate(ref.x)
        return float(self.evaluate_rows(dx[None], (u.lam - ref.lam)[None])[0])

    def evaluate_rows(self, DX: np.ndarray, DLAM: np.ndarray) -> np.ndarray:
        """phi of each row of stacked primal differences ``DX`` and multiplier differences ``DLAM``.

        Each block size costs one batched product per block over all rows.
        """
        total = (DLAM * DLAM).sum(axis=1) / (2.0 * self.gamma * self.rho)
        for index, W in self._groups:
            D = DX[:, index].transpose(1, 0, 2)
            total += 0.5 * (D * (D @ W)).sum(axis=(0, 2))
        return total


# -- decay-rate fitting ----------------------------------------------------------

class RateFit(NamedTuple):
    """Fitted per-iteration decay factor of a positive series."""

    rate: float
    r_squared: float
    flat: bool = False


def fit_linear_rate(values: Sequence[float], tail_fraction: float = 0.5) -> RateFit:
    """Least-squares fit of ``log(values)`` against the index over a tail window.

    The window is the last ``tail_fraction`` of the series; entries at or
    below 1e-14 are dropped (floor).  Raises :class:`InsufficientData` with
    fewer than 10 usable points.  A constant series reports rate 1 with the
    ``flat`` flag set and an R-squared of 0.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    vals = np.asarray(list(values), dtype=float)
    start = len(vals) - math.ceil(len(vals) * tail_fraction)
    idx = np.arange(start, len(vals))
    window = vals[idx]
    keep = window > RATE_FIT_FLOOR
    xs = idx[keep].astype(float)
    ys = np.log(window[keep])
    if xs.size < 10:
        raise InsufficientData(f"only {xs.size} tail points above the floor, need 10")
    if float(np.max(ys) - np.min(ys)) < 1e-12:
        return RateFit(1.0, 0.0, flat=True)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    return RateFit(float(np.exp(slope)), 1.0 - ss_res / ss_tot, flat=False)


# -- certified proximal weights ---------------------------------------------------

def _coupling(kind: str) -> int:
    """The coupling term of the weight policy named ``kind`` (a key of ``WEIGHT_POLICIES``)."""
    if kind not in WEIGHT_POLICIES:
        raise InvalidParameter(f"unknown policy kind {kind!r}")
    return WEIGHT_POLICIES[kind].coupling


def _certified_intervals(problem: BlockProblem, rho: float, gamma: float,
                         kind: str) -> list:
    """Per-block interval ``(lo, hi)`` of the proximal weights passing the coupling condition.

    ``kind`` names the weight policy ``P = tau*I - coupling*rho*A'A``.  It
    makes the condition matrix ``B - 8*s*B^2 - c*A'A`` (``B = rho*A'A + P``,
    ``c = rho/xi`` from :func:`uniform_xi`) a polynomial in ``A'A``: for each
    cached eigenvalue ``d_j`` of ``A'A`` it has the eigenvalue
    ``b - 8*s*b^2 - c*d_j``, concave in ``b = b0_j + tau``
    (``b0 = (1 - coupling)*rho*d``) and positive
    strictly between its roots.  With ``r_j = sqrt(1 - 32*s*c*d_j)`` a block's
    certified weights are thus ``lo < tau < hi``, where
    ``lo = max_j(2*c*d_j/(1 + r_j) - b0_j)`` and ``hi = min_j((1 + r_j)/(16*s) - b0_j)``;
    an empty interval (``hi <= max(lo, 0)``) raises :class:`CertificationError`.
    """
    if not 0.0 < gamma < 2.0:
        raise GammaOutOfRange(f"gamma {gamma} outside (0, 2)")
    uncoupled = 1 - _coupling(kind)
    s = 0.5 * max_feasible_s(estimate_constants(problem), rho, problem.N)
    c = rho / uniform_xi(gamma, problem.N)[0]
    intervals = []
    for i, g in enumerate(problem.gram_spectra()):
        d = g.eigenvalues
        b0 = uncoupled * rho * d
        disc = 1.0 - 32.0 * s * c * d
        r = np.sqrt(np.maximum(disc, 0.0))
        # 2*c*d/(1 + r) is the lower root (1 - r)/(16*s) without the cancellation.
        lo = float(np.max(2.0 * c * d / (1.0 + r) - b0))
        hi = float(np.min((1.0 + r) / (16.0 * s) - b0))
        if np.any(disc <= 0.0) or hi <= max(lo, 0.0):
            raise CertificationError(
                f"block {i}: no proximal weight satisfies the coupling condition "
                f"(rho={rho:g}, gamma={gamma:g})"
            )
        intervals.append((lo, hi))
    return intervals


def smallest_certified_tau(problem: BlockProblem, rho: float, gamma: float,
                           kind: str = StandardProximal.kind) -> list:
    """Per-block proximal weight strictly inside its certified interval ``(lo, hi)``.

    The intervals come from :func:`_certified_intervals`.  The weight is
    ``TAU_SAFETY*lo`` when that is below ``hi``, else ``(lo + hi)/2``; when
    ``lo <= 0`` it is the round-off-sized ``1e-12*max(c*||A_i||^2, 1)``, at
    most ``hi/2``.  No dense matrix is built: :func:`certify` checks the weights.
    """
    intervals = _certified_intervals(problem, rho, gamma, kind)
    c = rho / uniform_xi(gamma, problem.N)[0]
    taus = []
    for (lo, hi), g in zip(intervals, problem.gram_spectra()):
        if lo <= 0.0:
            taus.append(min(1e-12 * max(c * g.norm ** 2, 1.0), 0.5 * hi))
        elif TAU_SAFETY * lo < hi:
            taus.append(TAU_SAFETY * lo)
        else:
            taus.append(0.5 * (lo + hi))
    return taus


def _resolve(problem: BlockProblem, rho: float, gamma: float,
             policy: ProximalPolicy) -> ProximalPolicy:
    """The concrete policy :func:`certify` resolves an ``"auto"`` request to; any other as given."""
    if not (isinstance(getattr(policy, "tau", None), str) and policy.tau == "auto"):
        return policy
    try:
        taus = smallest_certified_tau(problem, rho, gamma, policy.kind)
    except JproxError:
        taus = fallback_tau(problem, rho, gamma, policy.kind)
    # Raised to the PSD floor coupling*rho*||A_i||^2.  The prox-linear coupling
    # margin tau - 8*s*tau^2 - c*||A_i||^2 is concave in tau and peaks at
    # 1/(16*s), which the choice of s keeps at or above the floor, so raising
    # a passing weight to the floor keeps it passing.
    floors = [policy.coupling * rho * g.norm ** 2 for g in problem.gram_spectra()]
    return type(policy)([max(t, f) for t, f in zip(taus, floors)])


def fallback_tau(problem: BlockProblem, rho: float, gamma: float,
                 kind: str = StandardProximal.kind) -> list:
    """Proximal weights from the classical sufficiency thresholds.

    Used when certification is unavailable (for example, a block modulus at
    the floor): 1.5 times ``rho * max(N/(2-gamma) - (1 - coupling), 0) * ||A_i||^2``
    for the weight policy named ``kind``, with a small positive floor to keep
    the engine well-posed.
    """
    if not 0.0 < gamma < 2.0:
        raise GammaOutOfRange(f"gamma {gamma} outside (0, 2)")
    factor = max(problem.N / (2.0 - gamma) - (1 - _coupling(kind)), 0.0)
    nrm2s = [g.norm ** 2 for g in problem.gram_spectra()]
    return [max(1.5 * rho * factor * nrm2, 1e-8 * max(1.0, rho * nrm2)) for nrm2 in nrm2s]

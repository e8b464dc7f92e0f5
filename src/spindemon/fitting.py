"""Weighted nonlinear fit of the monitored-initialization fidelity curve.

The model is the silent-record posterior with a constant detection-loss
offset:

    f(t) = (1 + ((1 - p) / p) * exp(-t * gap))^-1 - p_miss

fitted over (prior p, out-rate gap, p_miss).  Parameters are optimized in
transformed coordinates (logit for the probabilities, log for the rate gap)
so the physical ranges are enforced without constraints, using a damped
Gauss-Newton iteration started from a fixed family of initial guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import demon

PARAM_NAMES = ("prior", "rate_gap", "missed_probability")

_MAX_ITERATIONS = 200
_COST_TOLERANCE = 1e-14
_STEP_TOLERANCE = 1e-12


class FitConvergenceError(RuntimeError):
    """Raised when no start point reaches a converged optimum."""


@dataclass(frozen=True)
class FitResult:
    """Converged fit of the fidelity curve.

    std_errors maps parameter names to curvature-based standard errors in
    natural units; residual_norm is the unweighted root-sum-square misfit of
    the success fractions.
    """

    prior: float
    rate_gap: float
    missed_probability: float
    std_errors: dict[str, float]
    residual_norm: float

    def __post_init__(self):
        if not (0.0 <= self.prior <= 1.0):
            raise ValueError("prior must be in [0, 1]")
        if self.missed_probability < 0.0:
            raise ValueError("missed_probability must be >= 0")


# The array form of physics._sigmoid.  It stays separate because np.exp and
# math.exp differ in the last bit for some arguments, and sharing one form
# would change either the fitted values or the analytic curve.
def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _logit(p: float) -> float:
    return demon._logit(min(max(p, 1e-12), 1.0 - 1e-12))


def fidelity_model(t_obs, prior: float, rate_gap: float, p_miss: float):
    """Model curve evaluated at the given observation times."""
    t_obs = np.asarray(t_obs, dtype=float)
    return _sigmoid(_logit(prior) + t_obs * rate_gap) - p_miss


def _model_theta(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    s = _sigmoid(theta[0] + t * math.exp(theta[1]))
    return s - _sigmoid(np.array([theta[2]]))[0]


def _jacobian_theta(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    gap = math.exp(theta[1])
    s = _sigmoid(theta[0] + t * gap)
    pm = _sigmoid(np.array([theta[2]]))[0]
    jac = np.empty((len(t), 3))
    jac[:, 0] = s * (1.0 - s)
    jac[:, 1] = s * (1.0 - s) * t * gap
    jac[:, 2] = -pm * (1.0 - pm)
    return jac


def _initial_guesses(t: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Five deterministic start points spanning plausible scales."""
    order = np.argsort(t)
    y_first = float(np.clip(y[order[0]], 0.05, 0.95))
    y_top = float(np.clip(np.max(y), 0.5, 1.0 - 1e-6))
    p_miss0 = float(np.clip(1.0 - y_top, 1e-4, 0.2))
    t_span = float(np.median(t[t > 0])) if np.any(t > 0) else 1.0
    gap0 = 2.0 / t_span
    combos = [
        (y_first, gap0, p_miss0),
        (y_first, 3.0 * gap0, p_miss0),
        (y_first, gap0 / 3.0, p_miss0),
        (0.5, gap0, 1e-3),
        (y_first, gap0, 1e-4),
    ]
    return [
        np.array([_logit(p), math.log(g), _logit(pm)]) for p, g, pm in combos
    ]


def _gauss_newton(theta0, t, y, weights):
    theta = theta0.copy()
    residual = (_model_theta(theta, t) - y) * weights
    cost = float(residual @ residual)
    damping = 1e-3
    for iteration in range(1, _MAX_ITERATIONS + 1):
        jac = _jacobian_theta(theta, t) * weights[:, None]
        grad = jac.T @ residual
        hess = jac.T @ jac
        stepped = False
        for _ in range(25):
            try:
                step = np.linalg.solve(hess + damping * np.diag(np.diag(hess) + 1e-12), -grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            candidate = theta + step
            cand_res = (_model_theta(candidate, t) - y) * weights
            cand_cost = float(cand_res @ cand_res)
            if math.isfinite(cand_cost) and cand_cost <= cost:
                improvement = cost - cand_cost
                theta, residual, cost = candidate, cand_res, cand_cost
                damping = max(damping * 0.3, 1e-12)
                stepped = True
                if improvement < _COST_TOLERANCE * (cost + 1e-30) or (
                    float(np.max(np.abs(step))) < _STEP_TOLERANCE
                ):
                    return theta, cost, iteration, True
                break
            damping *= 10.0
        if not stepped:
            # Damping saturated: local optimum to working precision.
            return theta, cost, iteration, True
    return theta, cost, _MAX_ITERATIONS, False


def fit_fidelity_curve(data) -> FitResult:
    """Fit (prior, rate gap, missed probability) to success-count data.

    Args:
        data: iterable of (t_obs_seconds, successes, shots) rows; at least 4
            rows spanning the rise and the plateau.  successes may be
            fractional for synthetic inputs.

    Returns:
        FitResult with curvature standard errors.

    Raises:
        FitConvergenceError: if no start point converges.
        ValueError: on malformed input.
    """
    rows = [(float(t), float(s), float(n)) for t, s, n in data]
    if len(rows) < 4:
        raise ValueError("need at least 4 data points spanning rise and plateau")
    t, successes, shots = (np.array(column) for column in zip(*rows))
    valid = (t >= 0) & (shots > 0) & (successes >= 0) & (successes <= shots)
    if not (np.isfinite(rows).all() and valid.all()):
        raise ValueError("data must be finite, with t_obs >= 0, shots > 0 and "
                         "0 <= successes <= shots")
    y = successes / shots

    # Binomial weights 1/sigma from the observed fractions, clamped so
    # saturated points keep a finite variance.
    y_clamped = np.clip(y, 0.5 / shots, 1.0 - 0.5 / shots)
    weights = np.sqrt(shots / (y_clamped * (1.0 - y_clamped)))

    best = None
    for theta0 in _initial_guesses(t, y):
        theta, cost, _, converged = _gauss_newton(theta0, t, y, weights)
        if not converged:
            continue
        if best is None or cost < best[1] - 1e-15:
            best = (theta, cost)
    if best is None:
        raise FitConvergenceError(
            f"no start point converged within {_MAX_ITERATIONS} iterations "
            f"({len(rows)} points, t in [{t.min()}, {t.max()}])"
        )
    theta = best[0]

    jac = _jacobian_theta(theta, t) * weights[:, None]
    try:
        cov_theta = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError as exc:
        raise FitConvergenceError(f"singular curvature at optimum: {exc}") from exc

    prior = float(_sigmoid(np.array([theta[0]]))[0])
    rate_gap = float(math.exp(theta[1]))
    p_miss = float(_sigmoid(np.array([theta[2]]))[0])
    # Delta method back to natural units.
    scale = np.array([prior * (1.0 - prior), rate_gap, p_miss * (1.0 - p_miss)])
    std_theta = np.sqrt(np.maximum(np.diag(cov_theta), 0.0))
    std_errors = dict(zip(PARAM_NAMES, (scale * std_theta).tolist()))

    residual_norm = float(np.linalg.norm(_model_theta(theta, t) - y))
    return FitResult(
        prior=prior,
        rate_gap=rate_gap,
        missed_probability=p_miss,
        std_errors=std_errors,
        residual_norm=residual_norm,
    )

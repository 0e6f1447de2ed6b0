"""MAP fitting of per-depth discount/concentration parameters.

The posterior over the seating arrangement factorizes by depth, so the
objective is evaluated from pooled per-depth statistics and maximized
with box-constrained L-BFGS-B. Bounds are kept a hair inside the feasible
region so the log terms stay finite at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hpyp import BaseDistribution, ContextTrie, DepthParams, SeatingStats, log_posterior_from_stats

DISCOUNT_LO = 1e-6
DISCOUNT_HI = 1.0 - 1e-6
CONCENTRATION_LO = 1e-6
# Stop once the relative objective change drops below this (well inside
# the 1e-7 budget; the looser value leaves multistart runs ~3e-3 apart).
REL_TOL = 1e-9
MAX_ITERS = 200


@dataclass
class OptimizeResult:
    params: DepthParams
    objective: float
    objective_trace: list[float]
    iterations: int
    converged: bool


def _pack(params: DepthParams, depths: int) -> np.ndarray:
    x = np.empty(2 * depths)
    x[0::2] = params.discount[:depths]
    x[1::2] = params.concentration[:depths]
    return x


def _unpack(x: np.ndarray, template: DepthParams, depths: int) -> DepthParams:
    return DepthParams(
        discount=x[0::2].copy(),
        concentration=x[1::2].copy(),
        beta_a=template.beta_a[:depths].copy(),
        beta_b=template.beta_b[:depths].copy(),
        gamma_shape=template.gamma_shape[:depths].copy(),
        gamma_rate=template.gamma_rate[:depths].copy(),
    )


def optimize_params(
    trie: ContextTrie,
    base: BaseDistribution,
    init: DepthParams | None = None,
    max_iters: int = MAX_ITERS,
) -> OptimizeResult:
    """Maximize the seating posterior over (discount, concentration) per depth.

    Returns parameters satisfying the box constraints, along with the
    objective value at every accepted iterate (monotone non-decreasing).
    Raises if the objective ever evaluates non-finite inside the box.
    """
    from scipy import optimize as sciopt  # imported here so that decoding never loads scipy

    stats = SeatingStats.collect(trie, base)
    depths = stats.depths
    if init is None:
        init = DepthParams.uniform(depths)
    elif init.depths < depths:
        raise ValueError(f"init covers {init.depths} depths, trie needs {depths}")
    init.check_box()

    # the point last evaluated and its objective, which ``record`` reuses:
    # the value is the same float with and without the gradient
    last: list = [None, None]

    def neg_objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        params = _unpack(x, init, depths)
        value, grad = log_posterior_from_stats(stats, params, with_grad=True)
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite objective at {x!r}")
        last[:] = x.copy(), value
        return -value, -grad

    trace: list[float] = []

    def record(x: np.ndarray) -> None:
        if last[0] is None or not np.array_equal(x, last[0]):
            last[:] = x.copy(), log_posterior_from_stats(stats, _unpack(x, init, depths))
        trace.append(float(last[1]))

    x0 = np.clip(
        _pack(init, depths),
        [DISCOUNT_LO, CONCENTRATION_LO] * depths,
        [DISCOUNT_HI, np.inf] * depths,
    )
    record(x0)
    bounds = [(DISCOUNT_LO, DISCOUNT_HI), (CONCENTRATION_LO, None)] * depths
    result = sciopt.minimize(
        neg_objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        callback=record,
        options={"maxiter": max_iters, "ftol": REL_TOL},
    )
    fitted = _unpack(result.x, init, depths)
    fitted.check_box()
    return OptimizeResult(
        params=fitted,
        objective=float(-result.fun),
        objective_trace=trace,
        iterations=int(result.nit),
        converged=bool(result.success),
    )

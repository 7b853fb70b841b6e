"""Monte Carlo oracle: full-truncation Euler under the domestic measure.

Simulates (log s, v, r_d, r_f) with correlated Gaussian increments from the
Cholesky factor of the correlation matrix; the foreign-rate drift carries the
quanto correction -eta_f*rho_sf*sqrt(v).  Payoffs are discounted pathwise by
the trapezoidal integral of r_d.  Mean-reversion levels are specified in
backward time by the model, so the forward simulation evaluates them at
T - t.  Deterministic for a fixed seed/config: the counter-based Philox
generator and fixed-size batch reduction make results independent of how the
work is chunked.  Each call draws its normals on a one-worker
``ThreadPoolExecutor``, in stream order (batch by batch, step by step), a few
steps ahead of the path updates; the estimates do not depend on the thread
timing or on the CPU count.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from math import sqrt
from numbers import Integral

import numpy as np

from .errors import InvalidArgumentError, ModelConfigError
from .model import ModelParams, OptionSpec

CHOLESKY_SHIFT_TOL = 1e-10

# Paths simulated per batch.
BATCH_SIZE = 50_000

# Preallocated (4, n) normal buffers the drawing worker fills ahead of the
# path updates; 3 ran fastest on 2 cores, 2 gave back part of the gain.
DRAW_SLOTS = 3


@dataclass(frozen=True)
class McConfig:
    paths: int = 200_000
    steps_per_year: int = 200
    seed: int = 0

    def __post_init__(self):
        violations = []
        for name, low in (("paths", 1), ("steps_per_year", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                violations.append(f"{name} must be an integer, got {value!r}")
            elif not value >= low:
                violations.append(f"{name} must be >= {low}, got {value}")
        if violations:
            raise InvalidArgumentError(violations)


@dataclass(frozen=True)
class McEstimate:
    price: float
    stderr: float
    paths: int


def _chol(R):
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(R)[0])
        if lam_min < -CHOLESKY_SHIFT_TOL:
            raise ModelConfigError(
                f"correlation matrix not Cholesky-decomposable (min eig {lam_min:.3e})"
            )
        shift = abs(lam_min) + 1e-14
        return np.linalg.cholesky(R + shift * np.eye(4))


def _simulate_batch(model, option, n, steps, dt, increments, estimator):
    """Simulate one batch with each step's ``increments()``; returns per-path contributions."""
    x = np.full(n, np.log(model.s0))
    v = np.full(n, model.v0)
    rd = np.full(n, model.rd0)
    rf = np.full(n, model.rf0)
    T = option.maturity
    disc = np.zeros(n)  # trapezoidal integral of r_d
    rho_sf = model.rho_sf
    for k in range(steps):
        t = k * dt
        dw = increments()
        vp = np.maximum(v, 0.0)
        sq = np.sqrt(vp)
        disc += 0.5 * dt * rd
        # backward-time levels evaluated at tau = T - t
        th_d, th_f = map(float, model.levels(T - t))
        x = x + (rd - rf - 0.5 * vp) * dt + sq * dw[0]
        v = v + model.kappa * (model.vbar - vp) * dt + model.gamma * sq * dw[1]
        rd = rd + model.lambda_d * (th_d - rd) * dt + model.eta_d * dw[2]
        rf = (
            rf
            + (model.lambda_f * (th_f - rf) - model.eta_f * rho_sf * sq) * dt
            + model.eta_f * dw[3]
        )
        disc += 0.5 * dt * rd
    s_T = np.exp(x)
    df = np.exp(-disc)
    if estimator == "price":
        return df * option.payoff(s_T)
    # pathwise delta
    if option.kind == "call":
        return df * (s_T > option.strike) * s_T / model.s0
    return -df * (s_T < option.strike) * s_T / model.s0


def _run(model, option, cfg, estimator):
    L = _chol(model.correlation)
    steps = max(1, int(round(cfg.steps_per_year * option.maturity)))
    dt = option.maturity / steps
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    sqdt = sqrt(dt)
    sizes = [min(BATCH_SIZE, cfg.paths - done) for done in range(0, cfg.paths, BATCH_SIZE)]
    # Draw k fills slot k % DRAW_SLOTS, the slot that draw k - DRAW_SLOTS freed.
    slots = [np.empty(4 * sizes[0]) for _ in range(DRAW_SLOTS)]
    outs = (slots[k % DRAW_SLOTS][:4 * n].reshape(4, n)
            for k, n in enumerate(n for n in sizes for _ in range(steps)))
    total = 0.0
    total_sq = 0.0
    # One worker runs the draws in submission order, i.e. in stream order;
    # leaving the block joins it, also on an error.
    with ThreadPoolExecutor(max_workers=1) as worker:
        draws = (worker.submit(rng.standard_normal, out=out) for out in outs)
        pending = deque(islice(draws, DRAW_SLOTS))

        def increments():
            dw = (L @ pending.popleft().result()) * sqdt
            pending.extend(islice(draws, 1))  # the next draw, into the slot just read
            return dw

        for n in sizes:
            samples = _simulate_batch(model, option, n, steps, dt, increments, estimator)
            total += float(np.sum(samples))
            total_sq += float(np.sum(samples * samples))
    paths = cfg.paths
    mean = total / paths
    if paths > 1:
        var = max(total_sq - paths * mean * mean, 0.0) / (paths - 1)
        stderr = sqrt(var / paths)
    else:
        stderr = 0.0
    return McEstimate(price=mean, stderr=stderr, paths=paths)


def simulate_price(model: ModelParams, option: OptionSpec, cfg: McConfig) -> McEstimate:
    """Discounted-payoff estimate with standard error."""
    return _run(model, option, cfg, "price")


def pathwise_delta(model: ModelParams, option: OptionSpec, cfg: McConfig) -> McEstimate:
    """Pathwise delta E[1_{ITM} * s_T/s_0 * discount] (sign-flipped for puts)."""
    return _run(model, option, cfg, "delta")

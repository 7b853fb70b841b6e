"""Monte Carlo oracle: full-truncation Euler under the domestic measure.

Simulates (log s, v, r_d, r_f) with correlated Gaussian increments from the
Cholesky factor of the correlation matrix; the foreign-rate drift carries the
quanto correction -eta_f*rho_sf*sqrt(v).  Payoffs are discounted pathwise by
the trapezoidal integral of r_d.  Mean-reversion levels are specified in
backward time by the model, so the forward simulation evaluates them at
T - t.  Deterministic for a fixed seed/config: the counter-based Philox
generator and fixed-size batch reduction make results independent of how the
work is chunked.  Each call runs in its caller's thread: it draws its normals
and forms their correlated increments in stream order (batch by batch, step
by step), and advances each batch in place on buffers it allocates once.
``runner.simulate_points`` overlaps the calls of a run's query points, at
most one per usable CPU.  The estimates do not depend on the CPU count or on
which thread makes the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import InvalidArgumentError, ModelConfigError, integer_violations
from .model import ModelParams, OptionSpec

CHOLESKY_SHIFT_TOL = 1e-10

# Paths simulated per batch.
BATCH_SIZE = 50_000


@dataclass(frozen=True)
class McConfig:
    paths: int = 200_000
    steps_per_year: int = 200
    seed: int = 0

    def __post_init__(self):
        violations = [v for name, low in (("paths", 1), ("steps_per_year", 1), ("seed", 0))
                      for v in integer_violations(name, getattr(self, name), low)]
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


def _simulate_batch(model, option, steps, dt, increments, estimator, work):
    """Simulate one batch with each step's ``increments()``; returns per-path contributions.

    ``work`` is an (8, n) buffer reused across batches: rows 0-4 hold the
    state (x, v, r_d, r_f, the discount integral), rows 5-7 scratch.  Every
    update is done in place in the operation order of its expression, e.g.
    ``x + (rd - rf - 0.5 * vp) * dt + sq * dw[0]``.
    """
    x, v, rd, rf, disc, vp, sq, a = work
    x.fill(np.log(model.s0))
    v.fill(model.v0)
    rd.fill(model.rd0)
    rf.fill(model.rf0)
    disc.fill(0.0)  # trapezoidal integral of r_d
    T = option.maturity
    half_dt = 0.5 * dt
    eta_rho_f = model.eta_f * model.rho_sf
    for k in range(steps):
        t = k * dt
        dw = increments()
        np.maximum(v, 0.0, out=vp)
        np.sqrt(vp, out=sq)
        disc += np.multiply(half_dt, rd, out=a)
        # backward-time levels evaluated at tau = T - t
        th_d, th_f = map(float, model.levels(T - t))
        # v + kappa * (vbar - vp) * dt + gamma * sq * dw[1]
        np.subtract(model.vbar, vp, out=a)
        np.multiply(model.kappa, a, out=a)
        a *= dt
        v += a
        np.multiply(model.gamma, sq, out=a)
        a *= dw[1]
        v += a
        # x + (rd - rf - 0.5 * vp) * dt + sq * dw[0]; vp is not read after this
        vp *= 0.5
        np.subtract(rd, rf, out=a)
        a -= vp
        a *= dt
        x += a
        x += np.multiply(sq, dw[0], out=a)
        # rd + lambda_d * (th_d - rd) * dt + eta_d * dw[2]
        np.subtract(th_d, rd, out=a)
        np.multiply(model.lambda_d, a, out=a)
        a *= dt
        rd += a
        rd += np.multiply(model.eta_d, dw[2], out=a)
        # rf + (lambda_f * (th_f - rf) - eta_f * rho_sf * sq) * dt + eta_f * dw[3];
        # sq is not read after this
        np.subtract(th_f, rf, out=a)
        np.multiply(model.lambda_f, a, out=a)
        sq *= eta_rho_f
        a -= sq
        a *= dt
        rf += a
        rf += np.multiply(model.eta_f, dw[3], out=a)
        disc += np.multiply(half_dt, rd, out=a)
    s_T = np.exp(x, out=x)
    df = np.exp(np.negative(disc, out=disc), out=disc)
    if estimator == "price":
        samples = option.payoff(s_T)
        samples *= df
        return samples
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
    width = min(BATCH_SIZE, cfg.paths)
    # One (4, n) buffer for the normals and one for the increments, 1.6 MB each.
    z_buf = np.empty(4 * width)
    dw_buf = np.empty(4 * width)
    work = np.empty((8, width))
    total = 0.0
    total_sq = 0.0
    for done in range(0, cfg.paths, BATCH_SIZE):
        n = min(BATCH_SIZE, cfg.paths - done)
        z = z_buf[:4 * n].reshape(4, n)
        dw = dw_buf[:4 * n].reshape(4, n)

        def increments(z=z, dw=dw):
            rng.standard_normal(out=z)
            np.matmul(L, z, out=dw)
            dw *= sqdt
            return dw

        samples = _simulate_batch(model, option, steps, dt, increments, estimator,
                                  work[:, :n])
        total += float(np.sum(samples))
        samples *= samples
        total_sq += float(np.sum(samples))
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

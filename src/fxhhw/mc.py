"""Monte Carlo oracle: full-truncation Euler under the domestic measure.

Simulates (log s, v, r_d, r_f) with correlated Gaussian increments from the
Cholesky factor of the correlation matrix; the foreign-rate drift carries the
quanto correction -eta_f*rho_sf*sqrt(v).  Payoffs are discounted pathwise by
the trapezoidal integral of r_d.  Mean-reversion levels are specified in
backward time by the model, so the forward simulation evaluates them at
T - t.  Deterministic for a fixed seed/config: the counter-based Philox
generator and fixed-size batch reduction make results independent of how the
work is chunked.  Each call draws its normals on one worker thread, in stream
order (batch by batch, step by step), a few steps ahead of the path updates;
the estimates do not depend on the thread timing or on the CPU count.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import InvalidArgumentError, ModelConfigError
from .model import ModelParams, OptionSpec

CHOLESKY_SHIFT_TOL = 1e-10

# Paths simulated per batch.
BATCH_SIZE = 50_000

# Preallocated (4, n) normal buffers the drawing thread fills ahead of the
# path updates; 3 ran fastest on 2 cores, 2 gave back part of the gain.
DRAW_SLOTS = 3


@dataclass(frozen=True)
class McConfig:
    paths: int = 200_000
    steps_per_year: int = 200
    seed: int = 0

    def __post_init__(self):
        violations = [f"{name} must be >= 1, got {getattr(self, name)}"
                      for name in ("paths", "steps_per_year") if not getattr(self, name) >= 1]
        if not self.seed >= 0:
            violations.append(f"seed must be >= 0, got {self.seed}")
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


class _DrawAhead:
    """Each step's (4, n) standard normals, drawn ahead on one worker thread.

    The worker draws from ``rng`` batch by batch and step by step, the order
    in which they are taken, into ``DRAW_SLOTS`` preallocated buffers, so the
    numbers are those of drawing inline whatever the thread timing.  Entering
    starts the worker; leaving stops and joins it, also on an error.  An error
    raised while drawing is raised again by ``take``.
    """

    def __init__(self, rng, sizes, steps):
        self._slots = [np.empty(4 * max(sizes)) for _ in range(DRAW_SLOTS)]
        self._free = queue.SimpleQueue()
        self._full = queue.SimpleQueue()
        for i in range(DRAW_SLOTS):
            self._free.put(i)
        self._worker = threading.Thread(target=self._draw, args=(rng, sizes, steps))

    def _draw(self, rng, sizes, steps):
        try:
            for n in sizes:
                for _ in range(steps):
                    i = self._free.get()
                    if i is None:  # the consumer has left
                        return
                    z = self._slots[i][:4 * n].reshape(4, n)
                    rng.standard_normal(out=z)
                    self._full.put((i, z))
        except BaseException as exc:  # raised again in the consumer by take()
            self._full.put(exc)

    def take(self):
        """``(slot, normals)`` of the next step; hand the slot back to ``release``."""
        item = self._full.get()
        if isinstance(item, BaseException):
            raise item
        return item

    def release(self, slot):
        self._free.put(slot)

    def __enter__(self):
        self._worker.start()
        return self

    def __exit__(self, *exc_info):
        self._free.put(None)
        self._worker.join()


def _simulate_batch(model, option, n, steps, dt, L, draws, estimator):
    """Simulate one batch; returns per-path contributions."""
    x = np.full(n, np.log(model.s0))
    v = np.full(n, model.v0)
    rd = np.full(n, model.rd0)
    rf = np.full(n, model.rf0)
    T = option.maturity
    disc = np.zeros(n)  # trapezoidal integral of r_d
    rho_sf = model.rho_sf
    sqdt = sqrt(dt)
    for k in range(steps):
        t = k * dt
        slot, z = draws.take()
        dw = (L @ z) * sqdt
        draws.release(slot)
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
    sizes = [min(BATCH_SIZE, cfg.paths - done) for done in range(0, cfg.paths, BATCH_SIZE)]
    total = 0.0
    total_sq = 0.0
    with _DrawAhead(rng, sizes, steps) as draws:
        for n in sizes:
            samples = _simulate_batch(model, option, n, steps, dt, L, draws, estimator)
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

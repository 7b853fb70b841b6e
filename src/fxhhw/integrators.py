"""Time integration for the semi-discrete system V'(tau) = A(tau) V(tau).

Constant-coefficient systems use the action of the matrix exponential, by a
Chebyshev series (matvecs only) or by Arnoldi projection; time-dependent ones
use an explicit modified midpoint stepper (two internal substeps plus the
smoothing combination per global step, which keeps the leapfrog parasitic
mode damped while preserving second order).
Spectral diagnostics report the largest real part of A and the largest
eigenvalue of its symmetric part, the quantity the stability criterion uses.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (ChebyshevError, InstabilityError, InvalidArgumentError,
                     KrylovConvergenceError)

_log = logging.getLogger(__name__)

DENSE_EIG_CUTOFF = 1000
# ARPACK iteration cap for the sparse spectral diagnostics.
EIG_MAXITER = 8000
# The midpoint stepper aborts when the iterate norm grows past this factor.
DIVERGENCE_FACTOR = 1e6
# Memory one Krylov basis may take: (dim + 1) * N * 8 bytes.
BASIS_BUDGET_BYTES = 2**30
# Largest tau * ||A||_1 one Arnoldi solve covers; a longer horizon is split
# into equal short solves.  The steps a solve needs grow with tau * ||A|| and
# each Gram-Schmidt pass reads the whole basis, so short solves cost less.
# Solve times on experiment 1 and the criterion-4 rungs are flat from 1000 to
# 2000 and rise above; the best value follows the stencil density, not N or T.
SUBSTEP_NORM = 1000.0
# Arnoldi steps of the Ritz run that estimates the right end of the spectrum
# for the Chebyshev action.
RITZ_STEPS = 30
# The Chebyshev sum stops once three terms in a row are below this fraction
# of the sum, and refuses a sum whose rounding indicator exceeds it.
CHEB_TOL = 1e-12
# Most Chebyshev terms one action may take.  About 7.5 * sqrt(tau * d) are
# needed, d the half-width of the interval: 807 on experiment 1.
CHEB_MAX_DEGREE = 10_000


def krylov_dim_violations(dim, n=None):
    """Every violation of the subspace rules; [] when ``dim`` is valid: an
    explicit ``dim`` is at least 1 and, for N=``n`` rows (None skips this),
    its (dim + 1) * N * 8-byte basis fits ``BASIS_BUDGET_BYTES``.  ``dim=None``
    takes the budget cap, which must leave room for one step."""
    if dim is not None and dim < 1:
        return [f"Krylov subspace dimension must be >= 1, got {dim}"]
    rows = (1 if dim is None else dim) + 1
    if n is not None and rows * n * 8 > BASIS_BUDGET_BYTES:
        return [f"a Krylov basis of dimension {rows - 1} for N={n} needs "
                f"{rows * n * 8 / 2**20:.0f} MiB, above the "
                f"{BASIS_BUDGET_BYTES / 2**20:.0f} MiB budget; lower dim"]
    return []


def midpoint_step_violations(delta_tau, horizon=None):
    """Every violation of the midpoint step rule; [] when ``delta_tau`` is
    positive and divides ``horizon`` (None skips the divides check)."""
    if delta_tau is None or not delta_tau > 0:
        return [f"delta_tau must be positive, got {delta_tau}"]
    if horizon is not None:
        steps = int(round(horizon / delta_tau))
        if steps < 1 or abs(steps * delta_tau - horizon) > 1e-9 * max(1.0, horizon):
            return [f"delta_tau {delta_tau} does not divide the horizon {horizon}"]
    return []


@dataclass
class KrylovConfig:
    """Arnoldi settings: subspace cap, residual tolerance and check interval.

    The Arnoldi process stops early (exactly) once h_{j+1,j} falls to
    1e-14 * ||A||_1, and otherwise once the residual estimate, computed every
    ``check_every`` steps, meets ``tol``.  ``dim=None`` caps the subspace at
    the largest basis that fits ``BASIS_BUDGET_BYTES``; an explicit ``dim``
    whose basis does not fit is refused.  ``tol`` must be positive (``inf``
    accepts whatever the cap yields) and ``check_every`` at least 1.
    """

    dim: int | None = None
    tol: float = 1e-9
    check_every: int = 10

    def __post_init__(self):
        violations = krylov_dim_violations(self.dim)
        if not self.tol > 0:
            violations.append(f"Krylov tol must be positive, got {self.tol}")
        if not self.check_every >= 1:
            violations.append(f"Krylov check_every must be >= 1, got {self.check_every}")
        if violations:
            raise InvalidArgumentError(violations)


def _as_csr(A):
    if sp.issparse(A):
        return A.tocsr()
    return sp.csr_matrix(np.asarray(A, dtype=float))


def krylov_expm_action(A, v0, cfg: KrylovConfig | None = None, *, tau=1.0):
    """Approximate exp(tau*A) @ v0 with an Arnoldi-projected exponential.

    Builds an orthonormal basis of span{v0, A v0, ..., A^(Y-1) v0} by modified
    Gram-Schmidt, then returns beta * V_Y exp(tau H_Y) e1.  The horizon
    ``tau > 0`` scales only the small Hessenberg matrix and the residual,
    never A.  It is covered by k = max(1, ceil(tau * ||A||_1 / SUBSTEP_NORM))
    Arnoldi solves of horizon tau / k applied in turn, the exact composition
    (exp(tau A / k))^k; each has the residual gate, the subspace cap and the
    breakdown rule of a single solve.  Early breakdown (h_{j+1,j} below
    threshold) truncates the basis and yields the exact action.  If the
    subspace cap is reached while the residual estimate still exceeds the
    tolerance, raises instead of returning silently.
    """
    cfg = cfg or KrylovConfig()
    A = _as_csr(A)
    n = A.shape[0]
    v0 = np.asarray(v0, dtype=float).reshape(-1)
    if v0.shape[0] != n:
        raise InvalidArgumentError("dimension mismatch between A and v0")
    if float(np.linalg.norm(v0)) == 0.0:
        raise InvalidArgumentError("initial vector must be nonzero")
    if not 0 < tau < math.inf:
        raise InvalidArgumentError(f"horizon must be positive and finite, got {tau}")
    violations = krylov_dim_violations(cfg.dim, n)
    if violations:
        raise InvalidArgumentError(violations[0])
    dim = cfg.dim
    if dim is None:
        dim = max(1, min(n, BASIS_BUDGET_BYTES // (8 * n) - 1))
    elif dim > n:
        warnings.warn(f"Krylov dimension {dim} exceeds N={n}; clamped", stacklevel=2)
        dim = n
    norm = float(spla.norm(A, 1)) if A.nnz else 0.0
    substeps = max(1, math.ceil(tau * norm / SUBSTEP_NORM))
    w = v0
    for _ in range(substeps):
        w = _arnoldi_expm(A, w, dim, tau / substeps, 1e-14 * norm, cfg)
    return w


def _arnoldi_step(A, V, HT, j):
    """Arnoldi step j on the basis rows V[:j+1]: writes column j of H into
    row j of HT and returns the new direction (not yet normalized) and its
    norm h_{j+1,j}.  Gram-Schmidt with one re-orthogonalization pass
    (numerically equivalent to the modified Gram-Schmidt loop, but BLAS-2
    throughout)."""
    w = A @ V[j]
    Q = V[: j + 1]
    h = Q @ w
    w -= Q.T @ h
    corr = Q @ w
    w -= Q.T @ corr
    hnext = float(np.linalg.norm(w))
    HT[j, : j + 1] = h + corr
    HT[j, j + 1] = hnext
    return w, hnext


def _arnoldi_expm(A, v0, dim, scale, btol, cfg):
    """exp(scale*A) @ v0 from at most ``dim`` Arnoldi steps on A."""
    beta = float(np.linalg.norm(v0))
    if beta == 0.0:
        # An earlier short solve underflowed to zero, and exp(scale*A) 0 = 0.
        return v0
    # Basis vectors stored as contiguous rows.  V and the transposed
    # Hessenberg matrix HT (row j = column j of H) are reserved at the cap
    # and written one row per step, so only the rows written become resident.
    V = np.empty((dim + 1, A.shape[0]))
    HT = np.zeros((dim, dim + 1))
    V[0] = v0 / beta
    used = dim
    residual = np.inf
    expH = None
    for j in range(dim):
        w, hnext = _arnoldi_step(A, V, HT, j)
        if hnext <= btol:
            used, residual, expH = j + 1, 0.0, None
            break
        V[j + 1] = w / hnext
        if (j + 1) % cfg.check_every == 0 or j == dim - 1:
            expH = scipy.linalg.expm(scale * HT[: j + 1, : j + 1].T.copy())
            residual = beta * (scale * hnext) * abs(expH[j, 0])
            if residual <= cfg.tol * max(1.0, beta):
                used = j + 1
                break

    # The last residual check exponentiated H on the basis in use, unless the
    # basis broke down (the exact action) after it.
    if expH is None:
        expH = scipy.linalg.expm(scale * HT[:used, :used].T.copy())
    elif residual > cfg.tol * max(1.0, beta):
        raise KrylovConvergenceError(
            f"Krylov subspace of dimension {used} left residual estimate "
            f"{residual:.3e} above tolerance {cfg.tol:.1e}; increase dim",
            residual=residual,
            dim=used,
        )
    return beta * (V[:used].T @ expH[:, 0])


def chebyshev_expm_action(A, v, tau=1.0):
    """Approximate exp(tau*A) @ v by a Chebyshev series on a real interval.

    The interval [lo, hi] covers the real parts of the spectrum: lo is the
    Gershgorin left end min(a_ii - sum_{j != i} |a_ij|), hi the largest real
    part of the Ritz values of a ``RITZ_STEPS``-step Arnoldi run from v.  The
    series needs only matvecs and four N-vectors (see
    :func:`_chebyshev_series`).  A hi below the rightmost eigenvalue is
    harmless while the coefficients outrun the growth of the terms; the
    rounding indicator refuses the sum when they do not.  A zero ``v``
    returns zeros; a non-finite ``A`` or ``v`` is refused.
    """
    A = _as_csr(A)
    n = A.shape[0]
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != n:
        raise InvalidArgumentError("dimension mismatch between A and v")
    if not 0 < tau < math.inf:
        raise InvalidArgumentError(f"horizon must be positive and finite, got {tau}")
    if not (np.isfinite(v).all() and np.isfinite(A.data).all()):
        raise InvalidArgumentError("A and v must be finite")
    if not v.any():
        return np.zeros(n)
    lo, norm = _gershgorin_lo_and_norm(A)
    hi = max(lo, _ritz_hi(A, v, min(RITZ_STEPS, n), 1e-14 * norm))
    return _chebyshev_series(A, v, tau, lo, hi)


def _gershgorin_lo_and_norm(A):
    """(min_i a_ii - sum_{j != i} |a_ij|, ||A||_1) of a CSR matrix."""
    # |A| shares A's index arrays: one copy of the values, freed on return.
    absA = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    diag = A.diagonal()
    lo = float((diag + np.abs(diag) - np.asarray(absA.sum(axis=1)).ravel()).min())
    return lo, float(absA.sum(axis=0).max())


def _ritz_hi(A, v, steps, btol):
    """Largest real part of the Ritz values of ``steps`` Arnoldi steps from v."""
    V = np.empty((steps + 1, A.shape[0]))
    HT = np.zeros((steps, steps + 1))
    V[0] = v / np.linalg.norm(v)
    used = steps
    for j in range(steps):
        w, hnext = _arnoldi_step(A, V, HT, j)
        if hnext <= btol:
            used = j + 1
            break
        V[j + 1] = w / hnext
    return float(np.linalg.eigvals(HT[:used, :used].T).real.max())


def _scaled_bessel_i(z):
    """ive(k, z) = I_k(z) e^{-z} for k = 0..n, past where they fall below
    1e-300 of ive(0, z); float64 zeros beyond.

    Miller's backward recurrence I_{k-1} = (2k/z) I_k + I_{k+1} from
    I_{n+1} = 0, I_n = 1, rescaled on the way so that nothing overflows,
    then normalized by I_0 + 2 sum_{k>=1} I_k = e^z.  n = sqrt(1382 z) + 150
    (k^2 / 2z = ln 1e300 where k << z; the decay is faster beyond).  Agrees
    with ``scipy.special.ive`` to 1e-12 relative for z up to 1e5, without
    loading ``scipy.special`` (3 MB of resident memory).
    """
    n = int(math.sqrt(1382.0 * z)) + 150
    b = [0.0] * (n + 2)
    b[n] = 1.0
    for k in range(n, 0, -1):
        b[k - 1] = (2.0 * k / z) * b[k] + b[k + 1]
        if b[k - 1] > 1e250:
            b[k - 1:] = [x * 1e-250 for x in b[k - 1:]]
    b = np.array(b[: n + 1])
    return b / (b[0] + 2.0 * b[1:].sum())


def _chebyshev_series(A, v, tau, lo, hi):
    """exp(tau*A) @ v from the Chebyshev series of exp(tau*x) on [lo, hi].

    With c = (hi + lo)/2, d = (hi - lo)/2 and z = tau*d,
        exp(tau*A) v = e^{tau*hi} sum_k' 2 ive(k, z) T_k((A - cI)/d) v,
    the k = 0 term halved; ive is the exponentially scaled Bessel function
    (:func:`_scaled_bessel_i`), so no coefficient overflows, and e^{tau*hi}
    multiplies the sum once at the end.  The terms follow the three-term
    recurrence.  The sum stops when |a_k| max(||T_k v||, ||v||) <
    ``CHEB_TOL`` ||y|| for three k in a row past sqrt(z).  Raises
    ChebyshevError on a non-finite term, at ``CHEB_MAX_DEGREE`` terms (up
    front when sqrt(z) reaches it), or when the rounding indicator eps * sum_k |a_k| ||T_k v|| / ||y|| exceeds
    ``CHEB_TOL``: the terms then cancel far below their size, the sign of an
    interval that misses the spectrum.
    """
    c = 0.5 * (hi + lo)
    # A one-point interval, as for A = cI (where A - cI is zero and the
    # width changes nothing), gets a small width.
    d = max(0.5 * (hi - lo), 1e-12 * max(1.0, abs(c)))
    hi = c + d
    z = tau * d
    if z >= CHEB_MAX_DEGREE**2:
        # The sum cannot stop before k > sqrt(z): refused before any work.
        raise ChebyshevError(f"Chebyshev sum on [{lo:.4g}, {hi:.4g}] at tau={tau} needs "
                             f"more than sqrt(tau*d) = {math.sqrt(z):.0f} terms, past the "
                             f"cap of {CHEB_MAX_DEGREE}", degree=CHEB_MAX_DEGREE)
    coef = 2.0 * _scaled_bessel_i(z)
    # 2 (A - cI) / d, so that T_{k+1} v = M2 T_k v - T_{k-1} v; scaled in
    # place, so that A has one copy.
    M2 = (A - c * sp.identity(A.shape[0], format="csr")).tocsr()
    M2.data *= 2.0 / d
    vnorm = float(np.linalg.norm(v))
    a = 0.5 * coef[0]
    y = a * v
    terms = a * vnorm  # sum of |a_k| ||T_k v||
    t_prev, t = v, 0.5 * (M2 @ v)
    small = 0
    for k in range(1, CHEB_MAX_DEGREE + 1):
        tnorm = float(np.linalg.norm(t))
        if not math.isfinite(tnorm):
            raise ChebyshevError(f"Chebyshev term {k} is not finite; the interval "
                                 f"[{lo:.4g}, {hi:.4g}] misses the spectrum", degree=k)
        a = float(coef[k]) if k < coef.size else 0.0
        y += a * t
        terms += a * tnorm
        if k * k > z:
            small = small + 1 if a * max(tnorm, vnorm) < CHEB_TOL * np.linalg.norm(y) else 0
            if small == 3:
                break
        w = M2 @ t
        w -= t_prev
        t_prev, t = t, w
    else:
        raise ChebyshevError(f"Chebyshev sum on [{lo:.4g}, {hi:.4g}] at tau={tau} did not "
                             f"converge in {CHEB_MAX_DEGREE} terms", degree=CHEB_MAX_DEGREE)
    ynorm = float(np.linalg.norm(y))
    indicator = np.finfo(float).eps * terms / ynorm if ynorm > 0 else math.inf
    if not indicator <= CHEB_TOL:
        raise ChebyshevError(f"Chebyshev sum on [{lo:.4g}, {hi:.4g}] lost its accuracy to "
                             f"cancellation (rounding indicator {indicator:.2e} above "
                             f"{CHEB_TOL:.0e}); the interval misses the spectrum",
                             degree=k, indicator=indicator)
    _log.debug("chebyshev: interval [%.6g, %.6g], tau %g, %d terms, rounding "
               "indicator %.2e", lo, hi, tau, k, indicator)
    with np.errstate(over="ignore"):
        y *= np.exp(tau * hi)
    if not np.isfinite(y).all():
        raise ChebyshevError(f"exp(tau*A) v overflows: e^(tau*hi) = e^{tau * hi:.4g}",
                             degree=k, indicator=indicator)
    return y


@dataclass
class MidpointConfig:
    """Fixed-step midpoint settings; steps * delta_tau must equal the horizon."""

    delta_tau: float
    steps: int

    def __post_init__(self):
        violations = midpoint_step_violations(self.delta_tau)
        if violations:
            raise InvalidArgumentError(violations)
        if self.steps < 1:
            raise InvalidArgumentError(f"steps must be >= 1, got {self.steps}")

    @classmethod
    def from_horizon(cls, horizon, delta_tau):
        violations = midpoint_step_violations(delta_tau, horizon)
        if violations:
            raise InvalidArgumentError(violations)
        steps = int(round(horizon / delta_tau))
        return cls(delta_tau=horizon / steps, steps=steps)

    @property
    def horizon(self):
        return self.delta_tau * self.steps


def _matvec_fn(A):
    if hasattr(A, "matvec") and hasattr(A, "is_time_dependent"):
        return lambda tau, x: A.matvec(x, tau=tau)
    if callable(A) and not (sp.issparse(A) or isinstance(A, np.ndarray)):
        return lambda tau, x: A(tau) @ x
    M = _as_csr(A)
    return lambda tau, x: M @ x

def modified_midpoint_solve(A, v0, cfg: MidpointConfig):
    """March V' = A(tau) V to the horizon with the explicit modified midpoint.

    Each global step of size delta_tau runs the scheme
        Z0 = V,  Z1 = Z0 + dt A(t) Z0,  Z2 = Z0 + 2 dt A(t+dt) Z1,
        V  = (Z2 + Z1 + dt A(t+2dt) Z2) / 2,     dt = delta_tau / 2,
    i.e. the midpoint sequence with the smoothing combination applied per
    step.  Second order in delta_tau; aborts with the growth diagnostic if
    the iterate norm exceeds ``DIVERGENCE_FACTOR`` times its initial value.

    ``A`` may be an :class:`~fxhhw.operators.AssembledOperator`, a constant
    matrix, or a callable ``tau -> matrix``.
    """
    mv = _matvec_fn(A)
    v = np.asarray(v0, dtype=float).reshape(-1).copy()
    norm0 = float(np.linalg.norm(v))
    limit = DIVERGENCE_FACTOR * max(norm0, 1e-300)
    dt = 0.5 * cfg.delta_tau
    for step in range(cfg.steps):
        t0 = step * cfg.delta_tau
        z1 = v + dt * mv(t0, v)
        z2 = v + 2.0 * dt * mv(t0 + dt, z1)
        v = 0.5 * (z2 + z1 + dt * mv(t0 + 2.0 * dt, z2))
        nv = float(np.linalg.norm(v))
        if not np.isfinite(nv) or nv > limit:
            raise InstabilityError(
                f"modified midpoint diverged at step {step + 1}/{cfg.steps} "
                f"(growth {nv / max(norm0, 1e-300):.3e}); reduce delta_tau or "
                "check the operator's spectral bound",
                step=step + 1,
                growth=nv / max(norm0, 1e-300),
            )
    return v


@dataclass
class SpectralReport:
    """Spectral diagnostics of the assembled operator.

    ``re_lambda_max`` is the real part of the dominant (largest-magnitude)
    eigenvalue, the quantity a power/Arnoldi iteration on A produces and the
    one whose magnitude tracks grid refinement.  ``rightmost_re`` is the
    largest real part (the actual decay/growth bound; dense problems only by
    default).  ``sym_lambda_max`` is the top eigenvalue of (A + A*)/2, the
    logarithmic-norm quantity of the uniform-stability criterion; for these
    operators it is typically slightly positive because the degenerate
    variance boundary leaves pure-advection rows whose symmetric part is
    indefinite, even when every eigenvalue of A itself has negative real
    part.
    """

    re_lambda_max: float | None
    sym_lambda_max: float
    rightmost_re: float | None
    converged: bool


def estimate_lambda_max(A):
    """Spectral diagnostics for an operator or matrix; see SpectralReport.

    For operators with pinned boundary rows the diagnostics apply to the
    free dynamics block at tau = 0, which excludes the structural zero
    eigenvalues of the pinned rows.  The sparse path starts every ARPACK run
    from the same seeded vector, so repeated calls give identical reports.
    """
    M = A.free_matrix() if hasattr(A, "free_matrix") else _as_csr(A)
    n = M.shape[0]

    if n <= DENSE_EIG_CUTOFF:
        dense = M.toarray()
        ev = np.linalg.eigvals(dense)
        sym_max = float(np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1])
        dom = float(ev[np.argmax(np.abs(ev))].real)
        return SpectralReport(dom, sym_max, float(ev.real.max()), True)

    start = np.random.default_rng(0).standard_normal(n)
    converged = True
    dom = None
    try:
        vals = spla.eigs(M, k=1, which="LM", maxiter=EIG_MAXITER, v0=start,
                         ncv=min(n - 1, 40), tol=1e-7, return_eigenvectors=False)
        dom = float(vals[np.argmax(np.abs(vals))].real)
    except (spla.ArpackNoConvergence, spla.ArpackError):
        converged = False

    # Two-phase shifted Lanczos for the symmetric part: the dominant (most
    # negative) end converges quickly; shifting by it makes the wanted end
    # the dominant one.
    S = (0.5 * (M + M.T)).tocsr()
    ncv = min(n - 1, 48)
    try:
        lam_lo = float(
            spla.eigsh(S, k=1, which="SA", maxiter=EIG_MAXITER, v0=start, ncv=ncv,
                       tol=1e-7, return_eigenvectors=False)[0]
        )
        shifted = (S - lam_lo * sp.identity(n, format="csr")).tocsr()
        lam_span = float(
            spla.eigsh(shifted, k=1, which="LM", maxiter=EIG_MAXITER, v0=start,
                       ncv=ncv, tol=1e-7, return_eigenvectors=False)[0]
        )
        sym_max = lam_lo + lam_span
    except spla.ArpackNoConvergence as err:
        converged = False
        vals = getattr(err, "eigenvalues", None)
        sym_max = float(vals[0]) if vals is not None and len(vals) else np.nan
    return SpectralReport(dom, sym_max, None, converged)

"""Time integration for the semi-discrete system V'(tau) = A(tau) V(tau).

Constant-coefficient systems use the action of the matrix exponential, by a
Chebyshev series (matvecs only) or by Arnoldi projection; time-dependent ones
use an explicit modified midpoint stepper (two internal substeps plus the
smoothing combination per global step, which keeps the leapfrog parasitic
mode damped while preserving second order).
A row of A with no stored entry (a Dirichlet-pinned row) holds its value
(:func:`_empty_rows`): both exp-actions return it exactly as given, and the
Arnoldi action runs on the other rows (its basis budget is stated at
``BASIS_BUDGET_BYTES``).
The Arnoldi loop's products and every vector norm here run on numpy's own
single-threaded loops, not BLAS (see :func:`_arnoldi`), so the BLAS thread
count reaches an Arnoldi solve only through expm(H), the Chebyshev action
only through the eigenvalues of its small Ritz matrix, and the midpoint
stepper not at all.
Spectral diagnostics report the dominant eigenvalue of A (ARPACK) and the
largest eigenvalue of its symmetric part (a plain Lanczos run, see
:func:`_lanczos_top`), the quantity the stability criterion uses.

Only two paths load scipy's dense and sparse linear algebra, which together
cost about 10 MB of resident memory and 0.1 s to import: the Arnoldi action
imports ``scipy.linalg`` for expm(H) (it sums ||A||_1 itself), and the
sparse spectral diagnostics import ``scipy.sparse.linalg`` (which loads
``scipy.linalg``) for ARPACK's dominant eigenvalue.  The Chebyshev action
and the midpoint stepper load neither.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (ChebyshevError, InstabilityError, InvalidArgumentError,
                     KrylovConvergenceError, integer_violations)

_log = logging.getLogger(__name__)

DENSE_EIG_CUTOFF = 1000
# Most Lanczos steps of the symmetric-part run, and ARPACK's restart cap for
# the dominant eigenvalue, in the sparse spectral diagnostics.  The Lanczos
# run on experiment 3-const's free block (14,976 rows) stops at about 380.
EIG_MAXITER = 8000
# The midpoint stepper aborts when the iterate norm grows past this factor.
DIVERGENCE_FACTOR = 1e6
# Most midpoint steps one solve may take, checked before the first step:
# 2,500 times the 400 of bundled experiment 3.
MIDPOINT_MAX_STEPS = 10**6
# Memory one Krylov basis may take, checked as (dim + 1) * N * 8 bytes before
# a solve.  A short solve writes (steps + 1) * (N_free + 1) * 8 bytes, N_free
# the rows not held, and steps <= min(dim, STEP_CAP): within the check unless
# A has no empty row (one entry over).  The check stays on dim, so it refuses
# the configs it refused before the cap.
BASIS_BUDGET_BYTES = 2**30
# Largest tau * ||A||_1 one Arnoldi solve covers; a longer horizon is split
# into equal short solves.  The steps a solve needs grow with tau * ||A|| and
# each Gram-Schmidt pass reads the whole basis, so short solves cost less.
# Experiment 1 (2 cores) took 6.2-8.3 / 6.4-7.9 / 6.3-8.7 / 7.4-8.9 /
# 10.8-13.4 s at 250 / 500 / 1000 / 2000 / 4000, flat up to 2000 within the
# run-to-run spread; the best value follows the stencil density, not N or T.
SUBSTEP_NORM = 1000.0
# Most Arnoldi steps of one short solve when dim allows more.  A short solve
# still above tol at the cap advances by the largest fraction 2**-i, i <=
# HALVINGS, of its horizon whose residual estimate (expm of the same H, no
# extra matvec) meets tol, and the next one starts there.
# Experiment 1's first short solve needs 100 steps, the others 50-70; at 50
# its largest basis is 51 vectors (29 MB) instead of 101 (57.5 MB).
STEP_CAP = 50
HALVINGS = 8
# Entries of A per slice of the column sums behind ||A||_1: 512 KB of |values|
# at a time.  In an experiment-1 solve, slices of 2**20 entries left 5 MiB
# more resident under the Krylov basis, and a whole copy of |A| 38 MiB more.
NORM_SLICE = 2**16
# Arnoldi steps between residual checks, and Lanczos steps between checks of
# the top Ritz pair.  Each Arnoldi check exponentiates the Hessenberg matrix:
# on experiment 1 (2 cores) a cadence of 2 took 5.9-8.9 s against 6.3-8.7 s
# at 10, no measurable difference; 10 makes fewer calls.
CHECK_EVERY = 10
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
    explicit ``dim`` is an integer of at least 1 and, for N=``n`` rows (None
    skips this), its basis fits ``BASIS_BUDGET_BYTES``.
    ``dim=None`` takes the budget cap, which must leave room for one step."""
    bad = [] if dim is None else integer_violations("Krylov subspace dimension", dim, 1)
    if bad:
        return bad
    rows = (1 if dim is None else dim) + 1
    if n is not None and rows * n * 8 > BASIS_BUDGET_BYTES:
        return [f"a Krylov basis of dimension {rows - 1} for N={n} needs "
                f"{rows * n * 8 / 2**20:.0f} MiB, above the "
                f"{BASIS_BUDGET_BYTES / 2**20:.0f} MiB budget; lower dim"]
    return []


def midpoint_step_violations(delta_tau, horizon=None):
    """Every violation of the midpoint step rule; [] when ``delta_tau`` is
    positive and divides ``horizon`` (None skips the divides check) in at
    most ``MIDPOINT_MAX_STEPS`` steps."""
    if delta_tau is None or not delta_tau > 0:
        return [f"delta_tau must be positive, got {delta_tau}"]
    if horizon is not None:
        if not math.isfinite(horizon / delta_tau):
            return [f"delta_tau {delta_tau} gives no finite step count over the "
                    f"horizon {horizon}"]
        steps = int(round(horizon / delta_tau))
        if steps > MIDPOINT_MAX_STEPS:
            return [f"delta_tau {delta_tau} takes {steps:.3g} steps over the horizon "
                    f"{horizon}, above the limit of {MIDPOINT_MAX_STEPS:,}"]
        if steps < 1 or abs(steps * delta_tau - horizon) > 1e-9 * max(1.0, horizon):
            return [f"delta_tau {delta_tau} does not divide the horizon {horizon}"]
    return []


@dataclass
class KrylovConfig:
    """Arnoldi settings: subspace cap and residual tolerance.

    The Arnoldi process stops early (exactly) once h_{j+1,j} falls to
    1e-14 * ||A||_1, and otherwise once the residual estimate, computed every
    ``CHECK_EVERY`` steps and at the cap, meets ``tol``.  ``dim=None`` caps
    the subspace at the largest basis that fits ``BASIS_BUDGET_BYTES``; an
    explicit ``dim`` whose basis does not fit is refused.  Each short solve
    stops at ``STEP_CAP`` steps when ``dim`` is larger (see
    :func:`krylov_expm_action`).  ``tol`` must be positive and finite.
    """

    dim: int | None = None
    tol: float = 1e-9

    def __post_init__(self):
        violations = krylov_dim_violations(self.dim)
        if not 0 < self.tol < math.inf:
            violations.append(f"Krylov tol must be positive and finite, got {self.tol}")
        if violations:
            raise InvalidArgumentError(violations)


def _as_csr(A):
    """A square matrix ``A`` as CSR (a CSR ``A`` itself, not a copy), or
    InvalidArgumentError."""
    try:
        M = A.tocsr() if sp.issparse(A) else sp.csr_matrix(np.asarray(A, dtype=float))
    except (TypeError, ValueError) as err:
        raise InvalidArgumentError(f"A must be a matrix, got {type(A).__name__}") from err
    if M.shape[0] != M.shape[1]:
        raise InvalidArgumentError(f"A must be square, got shape {M.shape}")
    return M


def _vector_operand(v, n):
    """``v`` as a flat float vector of ``n`` entries, or InvalidArgumentError."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != n:
        raise InvalidArgumentError("dimension mismatch between A and v")
    return v


def _empty_rows(A):
    """Mask of the rows of CSR ``A`` with no stored entry: the rows that hold
    their values under exp(tau*A), since A maps every vector to 0 there."""
    return np.diff(A.indptr) == 0


def _expm_operands(A, v, tau):
    """(A as CSR, v as a flat float vector) for exp(tau*A) @ v, after the
    operand rules both exp-actions share: v has A's row count, 0 < tau < inf,
    and A and v are finite."""
    A = _as_csr(A)
    v = _vector_operand(v, A.shape[0])
    if not 0 < tau < math.inf:
        raise InvalidArgumentError(f"horizon must be positive and finite, got {tau}")
    if not (np.isfinite(v).all() and np.isfinite(A.data).all()):
        raise InvalidArgumentError("A and v must be finite")
    return A, v


def krylov_expm_action(A, v0, cfg: KrylovConfig | None = None, *, tau=1.0):
    """Approximate exp(tau*A) @ v0 with an Arnoldi-projected exponential.

    Builds an orthonormal basis of span{v0, A v0, ..., A^(Y-1) v0} (see
    :func:`_arnoldi`), then returns beta * V_Y exp(tau H_Y) e1.  The horizon
    ``tau > 0`` scales only the small Hessenberg matrix and the residual,
    never A.  It is covered by short Arnoldi solves applied in turn, the
    exact composition of their exponentials; each has the residual gate and
    the breakdown rule of a single solve, and the horizon tau / k, k =
    max(1, ceil(tau * ||A||_1 / SUBSTEP_NORM)), the last one cut to end at
    tau.  Each basis stops at ``STEP_CAP`` steps when the subspace cap
    (``dim``) allows more; a short solve still above the tolerance there
    advances by the largest fraction 2**-i (i <= ``HALVINGS``) of its
    horizon whose residual estimate meets it, and the next one starts
    there.  The fractions are dyadic, so the shares of tau / k advanced add
    up to exactly k, and a solve that never reaches ``STEP_CAP`` runs
    exactly k short solves of horizon tau / k.  Rows of A with no stored
    entry hold their values (:func:`_empty_rows`): each short solve returns
    them from its input bit for bit and runs on the other rows plus one
    coordinate for the held block (see :class:`_HeldRows`).
    Early breakdown (h_{j+1,j} below threshold) truncates the basis and
    yields the exact action.  Raises KrylovConvergenceError instead of
    returning silently when a short solve still exceeds the tolerance at a
    subspace cap of at most ``STEP_CAP``, or at ``STEP_CAP`` for every
    fraction down to 2**-HALVINGS.  A zero ``v0`` returns zeros; a
    non-finite ``A`` or ``v0`` is refused.
    """
    cfg = cfg or KrylovConfig()
    A, v0 = _expm_operands(A, v0, tau)
    n = A.shape[0]
    violations = krylov_dim_violations(cfg.dim, n)
    if violations:
        raise InvalidArgumentError(violations[0])
    if not v0.any():
        return np.zeros(n)
    dim = cfg.dim
    if dim is None:
        dim = max(1, min(n, BASIS_BUDGET_BYTES // (8 * n) - 1))
    elif dim > n:
        warnings.warn(f"Krylov dimension {dim} exceeds N={n}; clamped", stacklevel=2)
        dim = n
    # Past STEP_CAP a short solve advances by part of its horizon; an
    # explicit dim within it raises there, as any cap did before.
    halvings = HALVINGS if dim > STEP_CAP else 0
    norm = _norm_1(A)
    substeps = max(1, math.ceil(tau * norm / SUBSTEP_NORM))
    op = _HeldRows(A, _empty_rows(A), v0)
    z = op.reduce(v0)
    left = float(substeps)  # the multiples of tau / k still to cover, dyadic
    while left:
        share = min(1.0, left)
        z, part, steps, residual = _arnoldi_expm(
            op, z, min(dim, STEP_CAP), tau / substeps * share, 1e-14 * norm,
            cfg.tol, halvings)
        _log.debug("arnoldi: %d steps, advanced %g of tau/k, residual estimate "
                   "%.2e", steps, share * part, residual)
        left -= share * part
        z[-1] = op.held_norm  # the reduced input of the next short solve
    return op.expand(z)


class _HeldRows:
    """A with its structurally empty rows held at their values in v, as the
    augmented matrix B = [[A_ff, A_fh e], [0, 0]] of order N_free + 1 acting
    on (x_free, c), where e = v_held / ||v_held||.

    exp(tau A) v keeps v's held rows, and its free rows are those of
    exp(tau B) (v_free, ||v_held||).  (x, c) -> (x, c e) is an isometry that
    A maps into itself, so in exact arithmetic the Arnoldi run on B from the
    reduced vector has the Hessenberg matrix, residuals and step count of
    the run on A from v, on a basis (N_free + 1) / N the size.  With no
    empty row, c is 0 throughout.  Each product ``B @ z`` scatters z into a
    preallocated N-vector x and makes one matvec with A's free rows plus an
    empty last row, a CSR view ``rows`` that shares A's values and column
    indices: its row pointers are A's at the free rows, then nnz twice,
    which holds because the held rows store no entry.  Each free row sums
    its products in A's own order.
    """

    def __init__(self, A, empty, v):
        self.free = np.flatnonzero(~empty)
        self.held = np.flatnonzero(empty)
        self.v_held = v[self.held]
        self.held_norm = _norm(self.v_held)
        self.shape = (self.free.size + 1,) * 2
        indptr = np.append(A.indptr[self.free], [A.nnz, A.nnz]).astype(A.indptr.dtype)
        self.rows = sp.csr_matrix((A.data, A.indices, indptr),
                                  shape=(self.shape[0], A.shape[1]), copy=False)
        self._x = np.zeros(A.shape[0])

    def reduce(self, v):
        """(v_free, ||v_held||) for an N-vector v with the held rows of this one."""
        z = np.empty(self.shape[0])
        z[:-1] = v[self.free]
        z[-1] = self.held_norm
        return z

    def expand(self, z):
        """The N-vector with z's free rows and the held rows of v, bit for bit."""
        w = np.empty(self._x.size)
        w[self.free] = z[:-1]
        w[self.held] = self.v_held
        return w

    def __matmul__(self, z):
        x = self._x
        x[self.free] = z[:-1]
        if self.held_norm:
            # A zero v_held leaves the held rows of x zero, as c stays 0.
            x[self.held] = (z[-1] / self.held_norm) * self.v_held
        return self.rows @ x


def _norm_1(A):
    """||A||_1 of a CSR matrix: the largest column sum of |A|, each sum
    accumulated entry by entry in storage order, as A.T @ ones does, over
    ``NORM_SLICE`` entries at a time, so that no copy of A's values exists."""
    sums = np.zeros(A.shape[1])
    for i in range(0, A.nnz, NORM_SLICE):
        np.add.at(sums, A.indices[i:i + NORM_SLICE], np.abs(A.data[i:i + NORM_SLICE]))
    return float(sums.max()) if A.nnz else 0.0


def _norm(v):
    """||v||_2 of a flat vector, by numpy's own single-threaded loop."""
    return math.sqrt(np.einsum("i,i->", v, v))


def _arnoldi(A, v, steps, btol):
    """Up to ``steps`` Arnoldi steps on A from v, by classical Gram-Schmidt
    with one re-orthogonalization pass (as accurate as modified Gram-Schmidt,
    but two matrix-vector products per pass).  The products and norms run on
    numpy's own loops (``einsum`` without ``optimize``, and :func:`_norm`),
    not on BLAS: on experiment 1 two BLAS threads slowed the whole loop, the
    CSR matvec included, to about half its one-thread speed, and numpy's
    loops give the same bits at any BLAS thread count.  Yields (V, HT, j,
    h_{j+1,j}) after step j: the basis as rows of V and H transposed in HT
    (row j = column j of H), both reserved at the cap and written a row per
    step, so only the rows written become resident.  A breakdown, h_{j+1,j} <= ``btol``, writes no basis row
    and ends the run."""
    V = np.empty((steps + 1, A.shape[0]))
    HT = np.zeros((steps, steps + 1))
    V[0] = v / _norm(v)
    for j in range(steps):
        w = A @ V[j]
        Q = V[: j + 1]
        h = np.einsum("ij,j->i", Q, w)
        w -= np.einsum("ij,i->j", Q, h)
        corr = np.einsum("ij,j->i", Q, w)
        w -= np.einsum("ij,i->j", Q, corr)
        hnext = _norm(w)
        HT[j, : j + 1] = h + corr
        HT[j, j + 1] = hnext
        if hnext <= btol:
            yield V, HT, j, hnext
            return
        V[j + 1] = w / hnext
        yield V, HT, j, hnext


def _arnoldi_expm(A, v0, dim, scale, btol, tol, halvings=0):
    """(exp(part*scale*A) @ v0, part, steps, last residual estimate) from at
    most ``dim`` Arnoldi steps on A, to the residual tolerance ``tol``.

    part is 1 unless the residual at ``dim`` steps exceeds ``tol``; then it
    is the largest 2**-i, i <= ``halvings``, whose residual meets it, from
    expm of the same H."""
    # Called through the module attribute, so that a patched expm is seen.
    import scipy.linalg

    beta = _norm(v0)
    if beta == 0.0:
        # An earlier short solve underflowed to zero, and exp(scale*A) 0 = 0.
        return v0, 1.0, 0, 0.0
    gate = tol * max(1.0, beta)
    used = dim
    residual = np.inf
    expH = None
    for V, HT, j, hnext in _arnoldi(A, v0, dim, btol):
        if hnext <= btol:
            used, residual, expH = j + 1, 0.0, None
            break
        if (j + 1) % CHECK_EVERY == 0 or j == dim - 1:
            expH = scipy.linalg.expm(scale * HT[: j + 1, : j + 1].T.copy())
            residual = beta * (scale * hnext) * abs(expH[j, 0])
            if residual <= gate:
                used = j + 1
                break

    # The last residual check exponentiated H on the basis in use, unless the
    # basis broke down (the exact action) after it.
    part = 1.0
    if expH is None:
        expH = scipy.linalg.expm(scale * HT[:used, :used].T.copy())
    for _ in range(halvings if residual > gate else 0):
        part *= 0.5
        expH = scipy.linalg.expm(part * scale * HT[:used, :used].T.copy())
        residual = beta * (part * scale * hnext) * abs(expH[used - 1, 0])
        if residual <= gate:
            break
    if residual > gate:
        tried = f" on {part:g} of its horizon at the step cap" if halvings else "; increase dim"
        raise KrylovConvergenceError(
            f"Krylov subspace of dimension {used} left residual estimate "
            f"{residual:.3e} above tolerance {tol:.1e}{tried}",
            residual=residual,
            dim=used,
        )
    return beta * np.einsum("ij,i->j", V[:used], expH[:, 0]), part, used, residual


def chebyshev_expm_action(A, v, tau=1.0):
    """Approximate exp(tau*A) @ v by a Chebyshev series on a real interval.

    The interval [lo, hi] covers the real parts of the spectrum: lo is the
    Gershgorin left end min(a_ii - sum_{j != i} |a_ij|), hi the largest real
    part of the Ritz values of a ``RITZ_STEPS``-step Arnoldi run from v.  The
    series needs only matvecs and four N-vectors (see
    :func:`_chebyshev_series`).  A hi below the rightmost eigenvalue is
    harmless while the coefficients outrun the growth of the terms; the
    rounding indicator refuses the sum when they do not.  Rows of A with no
    stored entry (:func:`_empty_rows`) come back from v bit for bit.  A zero
    ``v`` returns zeros; a non-finite ``A`` or ``v`` is refused.
    """
    A, v = _expm_operands(A, v, tau)
    n = A.shape[0]
    if not v.any():
        return np.zeros(n)
    lo, norm = _gershgorin_lo_and_norm(A)
    hi = max(lo, _ritz_hi(A, v, min(RITZ_STEPS, n), 1e-14 * norm))
    y = _chebyshev_series(A, v, tau, lo, hi)
    held = _empty_rows(A)  # which the series returns only to rounding
    y[held] = v[held]
    return y


def _gershgorin_lo_and_norm(A):
    """(min_i a_ii - sum_{j != i} |a_ij|, ||A||_1) of a CSR matrix."""
    # |A| shares A's index arrays: one copy of the values, freed on return.
    absA = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    diag = A.diagonal()
    lo = float((diag + np.abs(diag) - np.asarray(absA.sum(axis=1)).ravel()).min())
    return lo, float(absA.sum(axis=0).max())


def _ritz_hi(A, v, steps, btol):
    """Largest real part of the Ritz values of up to ``steps`` Arnoldi steps from v."""
    for _, HT, j, _ in _arnoldi(A, v, steps, btol):
        pass
    return float(np.linalg.eigvals(HT[: j + 1, : j + 1].T).real.max())


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
    vnorm = _norm(v)
    a = 0.5 * coef[0]
    y = a * v
    terms = a * vnorm  # sum of |a_k| ||T_k v||
    t_prev, t = v, 0.5 * (M2 @ v)
    small = 0
    for k in range(1, CHEB_MAX_DEGREE + 1):
        tnorm = _norm(t)
        if not math.isfinite(tnorm):
            raise ChebyshevError(f"Chebyshev term {k} is not finite; the interval "
                                 f"[{lo:.4g}, {hi:.4g}] misses the spectrum", degree=k)
        a = float(coef[k]) if k < coef.size else 0.0
        y += a * t
        terms += a * tnorm
        if k * k > z:
            small = small + 1 if a * max(tnorm, vnorm) < CHEB_TOL * _norm(y) else 0
            if small == 3:
                break
        w = M2 @ t
        w -= t_prev
        t_prev, t = t, w
    else:
        raise ChebyshevError(f"Chebyshev sum on [{lo:.4g}, {hi:.4g}] at tau={tau} did not "
                             f"converge in {CHEB_MAX_DEGREE} terms", degree=CHEB_MAX_DEGREE)
    ynorm = _norm(y)
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
        violations = (midpoint_step_violations(self.delta_tau)
                      + integer_violations("steps", self.steps, 1))
        if violations:
            raise InvalidArgumentError(violations)

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


def _midpoint_operands(A, v0, horizon):
    """(matvec (tau, x) -> A(tau) @ x, v0 as a flat float copy) for the
    midpoint stepper.  v0 must have A's row count and be finite; a constant
    matrix keeps every operand rule of the exp-actions (:func:`_expm_operands`)."""
    if not (hasattr(A, "matvec") and hasattr(A, "is_time_dependent")):
        M, v = _expm_operands(A, v0, horizon)
        return (lambda tau, x: M @ x), v.copy()
    v = _vector_operand(v0, A.n)
    if not np.isfinite(v).all():
        raise InvalidArgumentError("v must be finite")
    return (lambda tau, x: A.matvec(x, tau=tau)), v.copy()


def modified_midpoint_solve(A, v0, cfg: MidpointConfig):
    """March V' = A(tau) V to the horizon with the explicit modified midpoint.

    Each global step of size delta_tau runs the scheme
        Z0 = V,  Z1 = Z0 + dt A(t) Z0,  Z2 = Z0 + 2 dt A(t+dt) Z1,
        V  = (Z2 + Z1 + dt A(t+2dt) Z2) / 2,     dt = delta_tau / 2,
    i.e. the midpoint sequence with the smoothing combination applied per
    step.  Second order in delta_tau; aborts with the growth diagnostic if
    the iterate norm exceeds ``DIVERGENCE_FACTOR`` times its initial value.

    ``A`` may be an :class:`~fxhhw.operators.AssembledOperator` or a constant
    matrix.  A ``v0`` of the wrong length or with a non-finite entry is
    refused before the first step.
    """
    mv, v = _midpoint_operands(A, v0, cfg.horizon)
    norm0 = _norm(v)
    limit = DIVERGENCE_FACTOR * max(norm0, 1e-300)
    dt = 0.5 * cfg.delta_tau
    for step in range(cfg.steps):
        t0 = step * cfg.delta_tau
        z1 = v + dt * mv(t0, v)
        z2 = v + 2.0 * dt * mv(t0 + dt, z1)
        v = 0.5 * (z2 + z1 + dt * mv(t0 + 2.0 * dt, z2))
        nv = _norm(v)
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
    one whose magnitude tracks grid refinement (ARPACK on sparse problems).
    ``rightmost_re`` is the largest real part (the actual decay/growth bound;
    dense problems only).  ``sym_lambda_max`` is the top eigenvalue of
    (A + A*)/2 (a plain Lanczos run on sparse problems), the
    logarithmic-norm quantity of the uniform-stability criterion; for these
    operators it is typically slightly positive because the degenerate
    variance boundary leaves pure-advection rows whose symmetric part is
    indefinite, even when every eigenvalue of A itself has negative real
    part.  ``converged`` is False when either sparse run stopped at its cap;
    ``re_lambda_max`` is then None if ARPACK stopped, and ``sym_lambda_max``
    the last top Ritz value if Lanczos stopped.
    """

    re_lambda_max: float | None
    sym_lambda_max: float
    rightmost_re: float | None
    converged: bool


def estimate_lambda_max(A):
    """Spectral diagnostics for an operator (at tau = 0) or a matrix; see
    SpectralReport.

    They apply to the free block, the rows with a stored entry and their
    columns (:func:`_empty_rows`), without the structural zero eigenvalues
    of the held (Dirichlet-pinned) rows, so a plain matrix gets the report
    of the operator it came from.  The sparse path starts its ARPACK and
    Lanczos runs from the same seeded vector, so repeated calls give
    identical reports.  sym_lambda_max is good to about 1e-7 (lambda_max -
    lo), lo the Gershgorin bound of the symmetric part (:func:`_lanczos_top`).
    """
    M = _as_csr(A.matrix() if hasattr(A, "matrix") else A)
    free = np.flatnonzero(~_empty_rows(M))
    if free.size < M.shape[0]:
        M = M[free][:, free]
    n = M.shape[0]

    if n <= DENSE_EIG_CUTOFF:
        dense = M.toarray()
        ev = np.linalg.eigvals(dense)
        sym_max = float(np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1])
        dom = float(ev[np.argmax(np.abs(ev))].real)
        return SpectralReport(dom, sym_max, float(ev.real.max()), True)

    import scipy.sparse.linalg as spla

    start = np.random.default_rng(0).standard_normal(n)
    converged = True
    dom = None
    try:
        vals = spla.eigs(M, k=1, which="LM", maxiter=EIG_MAXITER, v0=start,
                         ncv=min(n - 1, 40), tol=1e-7, return_eigenvectors=False)
        dom = float(vals[np.argmax(np.abs(vals))].real)
    except (spla.ArpackNoConvergence, spla.ArpackError):
        converged = False

    S = (0.5 * (M + M.T)).tocsr()
    sym_max, sym_converged = _lanczos_top(S, start, *_gershgorin_lo_and_norm(S))
    return SpectralReport(dom, sym_max, None, converged and sym_converged)


def _lanczos_top(S, v, lo, norm):
    """(top eigenvalue estimate, converged) of the symmetric CSR matrix S,
    of Gershgorin bound ``lo`` and norm ``norm``, from a plain three-term
    Lanczos run from v: no reorthogonalization and no stored basis, since the
    extreme Ritz values converge without them (Paige 1980).

    Every ``CHECK_EVERY`` steps and at ``EIG_MAXITER`` steps, the top Ritz
    pair (theta, s) of the tridiagonal T_k meets ARPACK's residual rule on
    S - lo*I, which has no eigenvalue below 0: beta_k |s_k| <= 1e-7 (theta -
    lo).  So the estimate is good to about 1e-7 (lambda_max - lo); lo can
    lie far below the spectrum (-12,318 on experiment 1), and the error
    grows with |lo|.  beta_k <= 1e-14 * ``norm`` (an invariant subspace)
    ends the run with T_k's exact top value.  A run at the cap returns its
    last top Ritz value, unconverged.
    """
    from scipy.linalg import eigh_tridiagonal

    alpha, beta = [], []
    q_prev, q, b = np.zeros_like(v), v / _norm(v), 0.0
    for k in range(1, EIG_MAXITER + 1):
        w = S @ q
        w -= b * q_prev
        a = np.einsum("i,i->", w, q)
        w -= a * q
        b = _norm(w)
        alpha.append(a)
        beta.append(b)
        invariant = b <= 1e-14 * norm
        if invariant or k % CHECK_EVERY == 0 or k == EIG_MAXITER:
            theta, s = eigh_tridiagonal(alpha, beta[:-1], select="i",
                                        select_range=(k - 1, k - 1))
            if invariant or b * abs(s[-1, 0]) <= 1e-7 * (theta[0] - lo):
                return float(theta[0]), True
        q_prev, q = q, w / b
    return float(theta[0]), False

"""FX-HHW model: Heston FX dynamics plus domestic/foreign Hull-White rates.

All four drivers carry a full correlation matrix (order: s, v, r_d, r_f).
Under the domestic spot measure the foreign-rate drift picks up the quanto
correction -eta_f*rho_sf*sqrt(v).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ModelConfigError

PSD_TOL = 1e-10


def validate_correlation(R):
    """Check symmetry, unit diagonal, entry range and positive semidefiniteness."""
    R = np.asarray(R, dtype=float)
    if R.shape != (4, 4):
        raise ModelConfigError(f"correlation matrix must be 4x4, got {R.shape}")
    if not np.allclose(R, R.T, atol=1e-12):
        raise ModelConfigError("correlation matrix is not symmetric")
    if not np.allclose(np.diag(R), 1.0, atol=1e-12):
        raise ModelConfigError("correlation matrix diagonal must be 1")
    if np.any(np.abs(R) > 1.0 + 1e-12):
        raise ModelConfigError("correlation entries must lie in [-1, 1]")
    lam_min = float(np.linalg.eigvalsh(R)[0])
    if lam_min < -PSD_TOL:
        raise ModelConfigError(
            f"correlation matrix not positive semidefinite (min eigenvalue {lam_min:.3e})"
        )
    return R


# correlation_matrix's arguments, in order: the pairs above the diagonal.
CORRELATION_KEYS = ("sv", "sd", "sf", "vd", "vf", "df")


def correlation_matrix(rho_sv, rho_sd, rho_sf, rho_vd, rho_vf, rho_df):
    """The 4x4 correlation matrix in (s, v, r_d, r_f) order; ModelParams
    validates it."""
    return np.array(
        [
            [1.0, rho_sv, rho_sd, rho_sf],
            [rho_sv, 1.0, rho_vd, rho_vf],
            [rho_sd, rho_vd, 1.0, rho_df],
            [rho_sf, rho_vf, rho_df, 1.0],
        ]
    )


@dataclass(frozen=True)
class ModelParams:
    """The 16 FX-HHW parameters plus the correlation matrix."""

    s0: float
    v0: float
    rd0: float
    rf0: float
    kappa: float
    vbar: float
    gamma: float
    lambda_d: float
    lambda_f: float
    eta_d: float
    eta_f: float
    theta_d_params: tuple
    theta_f_params: tuple
    correlation: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        violations = [f"{name} must be positive, got {getattr(self, name)}"
                      for name in ("kappa", "gamma", "eta_d", "eta_f", "s0")
                      if not getattr(self, name) > 0]
        violations += [f"{name} must be nonnegative, got {getattr(self, name)}"
                       for name in ("vbar", "v0") if not getattr(self, name) >= 0]
        for name in ("theta_d_params", "theta_f_params"):
            coeffs = tuple(float(x) for x in getattr(self, name))
            if len(coeffs) != 3:
                violations.append(f"{name} needs 3 coefficients")
            elif not (np.all(np.isfinite(coeffs)) and coeffs[2] >= 0):
                violations.append(f"{name} must be finite with a3 >= 0, got {coeffs}")
            object.__setattr__(self, name, coeffs)
        try:
            object.__setattr__(self, "correlation", validate_correlation(self.correlation))
        except ModelConfigError as err:
            violations += err.violations
        if violations:
            raise ModelConfigError(violations)

    # The correlations of the CORRELATION_KEYS pairs.
    rho_sv = property(lambda self: float(self.correlation[0, 1]))
    rho_sd = property(lambda self: float(self.correlation[0, 2]))
    rho_sf = property(lambda self: float(self.correlation[0, 3]))
    rho_vd = property(lambda self: float(self.correlation[1, 2]))
    rho_vf = property(lambda self: float(self.correlation[1, 3]))
    rho_df = property(lambda self: float(self.correlation[2, 3]))

    def levels(self, tau):
        """(theta_d(tau), theta_f(tau)), each level a1 - a2*exp(-a3*tau) of its
        coefficients; ``tau`` may be an array."""
        tau = np.asarray(tau, dtype=float)
        return tuple(a1 - a2 * np.exp(-a3 * tau)
                     for a1, a2, a3 in (self.theta_d_params, self.theta_f_params))


@dataclass(frozen=True)
class FellerReport:
    ratio: float
    satisfied: bool


def feller_check(params: ModelParams) -> FellerReport:
    """Feller ratio 2*kappa*vbar/gamma^2; variance stays positive when > 1."""
    ratio = 2.0 * params.kappa * params.vbar / params.gamma**2
    return FellerReport(ratio=ratio, satisfied=bool(ratio > 1.0))


@dataclass(frozen=True)
class OptionSpec:
    """European vanilla option: call or put, strike E, maturity T in years;
    strike and maturity are positive and finite."""

    kind: str
    strike: float
    maturity: float

    def __post_init__(self):
        violations = [] if self.kind in ("call", "put") else [
            f"kind must be 'call' or 'put', got {self.kind!r}"]
        for name in ("strike", "maturity"):
            x = getattr(self, name)
            if not x > 0:
                violations.append(f"{name} must be positive, got {x}")
            elif not x < np.inf:
                violations.append(f"{name} must be finite, got {x}")
        if violations:
            raise InvalidArgumentError(violations)

    def payoff(self, s):
        """(s-E)+ for a call, (E-s)+ for a put; vectorized over s >= 0."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise InvalidArgumentError("spot must be nonnegative")
        if self.kind == "call":
            out = np.maximum(s - self.strike, 0.0)
        else:
            out = np.maximum(self.strike - s, 0.0)
        return float(out) if out.ndim == 0 else out

"""FX-HHW model: Heston FX dynamics plus domestic/foreign Hull-White rates.

All four drivers carry a full correlation matrix (order: s, v, r_d, r_f).
Under the domestic spot measure the foreign-rate drift picks up the quanto
correction -eta_f*rho_sf*sqrt(v).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp

import numpy as np

from .errors import InvalidArgumentError, ModelConfigError

PSD_TOL = 1e-10


def mean_reversion_level(coeffs, tau):
    """Time-dependent mean-reversion level a1 - a2*exp(-a3*tau)."""
    a1, a2, a3 = coeffs
    return a1 - a2 * np.exp(-a3 * np.asarray(tau, dtype=float))


def levels_time_dependent(theta_d_params, theta_f_params):
    """True when either level a1 - a2*exp(-a3*tau) actually varies with tau."""
    return any(c[1] != 0.0 and c[2] != 0.0 for c in (theta_d_params, theta_f_params))


def constant_level_approx(coeffs):
    """Constant approximation: the level evaluated at tau = 1."""
    a1, a2, a3 = coeffs
    return a1 - a2 * exp(-a3)


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


def correlation_matrix(rho_sv, rho_sd, rho_sf, rho_vd, rho_vf, rho_df):
    """Build the 4x4 correlation matrix in (s, v, r_d, r_f) order."""
    R = np.array(
        [
            [1.0, rho_sv, rho_sd, rho_sf],
            [rho_sv, 1.0, rho_vd, rho_vf],
            [rho_sd, rho_vd, 1.0, rho_df],
            [rho_sf, rho_vf, rho_df, 1.0],
        ]
    )
    return validate_correlation(R)


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
        for name in ("kappa", "gamma", "eta_d", "eta_f"):
            if not getattr(self, name) > 0:
                raise ModelConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.vbar < 0:
            raise ModelConfigError(f"vbar must be nonnegative, got {self.vbar}")
        if self.v0 < 0:
            raise ModelConfigError(f"v0 must be nonnegative, got {self.v0}")
        if self.s0 <= 0:
            raise ModelConfigError(f"s0 must be positive, got {self.s0}")
        for name in ("theta_d_params", "theta_f_params"):
            coeffs = tuple(float(x) for x in getattr(self, name))
            if len(coeffs) != 3:
                raise ModelConfigError(f"{name} needs 3 coefficients")
            object.__setattr__(self, name, coeffs)
        object.__setattr__(self, "correlation", validate_correlation(self.correlation))

    @property
    def rho_sv(self):
        return float(self.correlation[0, 1])

    @property
    def rho_sd(self):
        return float(self.correlation[0, 2])

    @property
    def rho_sf(self):
        return float(self.correlation[0, 3])

    @property
    def rho_vd(self):
        return float(self.correlation[1, 2])

    @property
    def rho_vf(self):
        return float(self.correlation[1, 3])

    @property
    def rho_df(self):
        return float(self.correlation[2, 3])

    def theta_d(self, tau):
        return mean_reversion_level(self.theta_d_params, tau)

    def theta_f(self, tau):
        return mean_reversion_level(self.theta_f_params, tau)

    def theta_constant_approx(self):
        """(theta_d*, theta_f*): constant levels from evaluation at tau = 1."""
        return (
            constant_level_approx(self.theta_d_params),
            constant_level_approx(self.theta_f_params),
        )

    @property
    def theta_time_dependent(self):
        """True when either mean-reversion level actually varies with tau."""
        return levels_time_dependent(self.theta_d_params, self.theta_f_params)


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
    """European vanilla option: call or put, strike E, maturity T in years."""

    kind: str
    strike: float
    maturity: float

    def __post_init__(self):
        if self.kind not in ("call", "put"):
            raise InvalidArgumentError(f"kind must be 'call' or 'put', got {self.kind!r}")
        if not self.strike > 0:
            raise InvalidArgumentError(f"strike must be positive, got {self.strike}")
        if not self.maturity > 0:
            raise InvalidArgumentError(f"maturity must be positive, got {self.maturity}")

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

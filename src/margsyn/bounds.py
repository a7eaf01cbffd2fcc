"""Explicit-constant calculators for the excess-empirical-risk upper bounds.

Setting: models w with ||w|| <= tau over features in [-1,1]^m, so margins
live in [-tau sqrt(m), tau sqrt(m)], and every order-<=d marginal of the
synthetic dataset is within l1 distance nu of the real one.  The excess risk
|L(w_s, D_r) - L(w_r, D_r)| then splits into

  approx_term    error of the degree-(d-1) polynomial approximation of the
                 loss, crossed 4 times in the optimality chain, and
  marginal_term  the risk shift a nu-perturbation of the marginals can cause,
                 crossed twice.

"explicit" mode evaluates the chain with all multipliers spelled out (and
recorded in the report); "shape" mode evaluates the compact asymptotic forms with
their constants dropped, for plotting shape only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .privacy import PrivacyParams, calibrate, synthesis_l1_bound

LN2 = math.log(2.0)

# multiplicity of each approximation step in the chain of optimality inequalities
POLY_HOPS = 4
MARGINAL_HOPS = 2
# sup-error certificate constants for the two polynomial regimes
UNIFORM_CERT = 5.0 / 4.0      # continuous f: (5/4) * omega(f, (b-a)/sqrt(d))
DERIVATIVE_CERT = 3.0 / 4.0   # C^1 f on [0,1]: (3/(4 sqrt(d))) * omega(f', 1/sqrt(d))
LOGISTIC_CURVATURE = 0.25     # Lipschitz constant of the logistic loss derivative


class BoundError(ValueError):
    """Missing or out-of-range bound inputs."""


@dataclass(frozen=True)
class BoundInputs:
    """Everything the calculators may need; leave unused fields at None."""

    n: int
    m: int
    d: int
    tau: float
    K: float = 1.0
    phi0: float = LN2
    l: int | None = None
    nu: float | None = None
    sigma: float | None = None
    lam: float | None = None
    epsilon: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if (self.n < 1 or self.m < 1 or not self.tau >= 0 or not 0 < self.K < math.inf
                or not math.isfinite(self.phi0) or not (self.nu is None or self.nu >= 0)
                or not (self.sigma is None or self.sigma >= 0)
                or not (self.lam is None or 0 < self.lam < math.inf)):  # NaN fails every test
            raise BoundError("need n >= 1, m >= 1, tau >= 0, finite K > 0 and phi0, and, when "
                             "given, nu >= 0, sigma >= 0 and finite lam > 0")
        if self.d < 2:
            raise BoundError("bounds are stated for marginal order d >= 2 (they use d-1)")
        # the calculators take square roots and quotients of these in floats
        huge = [name for name in ("n", "m", "d", "l")
                if getattr(self, name) is not None and getattr(self, name) > sys.float_info.max]
        if huge:
            raise BoundError(f"bound inputs too large for a float (above {sys.float_info.max:.4g}): "
                             f"{huge}")


@dataclass(frozen=True)
class BoundReport:
    approx_term: float
    marginal_term: float
    total: float
    constants_mode: str
    terms: dict
    notes: tuple[str, ...] = ()


def excess_risk_bound(inp: BoundInputs, loss: str = "lipschitz",
                      mode: str = "explicit") -> BoundReport:
    """Bound for a loss family at marginal distance inp.nu, in one constants mode.

    lipschitz: any continuous K-Lipschitz loss with value phi0 at 0.
      explicit: 4 * (5/4) * K * tau sqrt(m) / sqrt(d-1)
                + 2/n * (K tau sqrt(m) + phi0) * ((1 + 2/(2 tau sqrt(m))) m max(1,tau))^(d-1) * nu
      shape:    K tau sqrt(m/(d-1)) + (K tau sqrt(m) + phi0)/n * (3 m max(1,tau))^(d-1) * nu
    logistic: tighter, since the derivative of the logistic loss is 1/4-Lipschitz.
      The approximation certificate for a loss with Lipschitz derivative
      decays as 1/(d-1) instead of 1/sqrt(d-1); after rescaling the margin
      interval onto [0,1] its curvature constant becomes (2 tau sqrt(m))^2 / 4.
      The marginal term keeps the generic form with sup |loss| <= ln 2 + tau sqrt(m).
      Two variants of the coefficient base circulate (2m vs 3m); shape mode
      uses 3m, the only base consistent with the coefficient-sum certificate
      when the margin interval has width >= 1, and explicit mode uses the
      exact base (see notes).
    At nu = 0 the marginal term is exactly 0, also where its coefficient is
    infinite (tau = inf, or a power past the float range).
    """
    if loss not in ("lipschitz", "logistic"):
        raise BoundError(f"unknown loss family {loss!r}")
    if mode not in ("explicit", "shape"):
        raise BoundError(f"unknown constants mode {mode!r}")
    _require(inp, "nu")
    if inp.tau == 0.0:
        return BoundReport(0.0, 0.0, 0.0, mode, {"tau": 0.0},
                           ("tau = 0 pins w = 0 on both datasets, so the risks coincide exactly",))
    half_width = inp.tau * math.sqrt(inp.m)
    width = 2.0 * half_width
    lipschitz = loss == "lipschitz"
    loss_sup = inp.K * half_width + inp.phi0 if lipschitz else half_width + LN2
    notes = () if lipschitz else (
        "coefficient-base variants disagree (2m vs 3m); this calculator uses "
        "3m in shape mode, and (1 + 2/width) m max(1,tau) exactly in explicit mode",)
    if mode == "shape":
        base = 3.0 * inp.m * max(1.0, inp.tau)
        if lipschitz:
            approx, top = inp.K * inp.tau * math.sqrt(inp.m / (inp.d - 1)), loss_sup
        else:
            approx, top = half_width / (inp.d - 1), half_width
        marg = _times_power(top / inp.n, base, inp.d - 1) * inp.nu if inp.nu else 0.0
        return BoundReport(approx, marg, approx + marg, mode,
                           {"coeff_base": base, "loss_sup_bound": loss_sup, "nu": inp.nu}, notes)
    if lipschitz:
        modulus_step = half_width / math.sqrt(inp.d - 1)
        approx = POLY_HOPS * UNIFORM_CERT * inp.K * modulus_step
        terms = {"poly_hops": float(POLY_HOPS), "uniform_cert": UNIFORM_CERT,
                 "modulus_step": modulus_step, "K": inp.K}
    else:
        rescaled_curvature = _times_power(LOGISTIC_CURVATURE, width, 2)
        per_hop = DERIVATIVE_CERT * rescaled_curvature / (inp.d - 1)
        approx = POLY_HOPS * per_hop
        terms = {"poly_hops": float(POLY_HOPS), "derivative_cert": DERIVATIVE_CERT,
                 "rescaled_curvature": rescaled_curvature, "per_hop": per_hop}
    coeff_base = (1.0 + 2.0 / width) * inp.m * max(1.0, inp.tau)
    marg = _times_power(MARGINAL_HOPS / inp.n * loss_sup, coeff_base, inp.d - 1) * inp.nu if inp.nu else 0.0
    terms.update({"marginal_hops": float(MARGINAL_HOPS), "loss_sup_bound": loss_sup,
                  "coeff_base": coeff_base, "coeff_growth": _times_power(1.0, coeff_base, inp.d - 1),
                  "nu": inp.nu, "interval_width": width})
    return BoundReport(approx, marg, approx + marg, mode, terms, notes)


def private_excess_risk_bound(inp: BoundInputs, loss: str = "lipschitz",
                              mode: str = "explicit") -> BoundReport:
    """End-to-end bound with nu replaced by the high-probability l1 bound.

    nu := 2 l^d sqrt(2 (ln 2 (1+lam) + d ln(m l))) sigma, valid except with
    probability 2^-lam.  sigma is given directly, or is the mechanism's own,
    `privacy.calibrate` of (m, d, epsilon, delta), which refuses the budgets
    that `generate_synthetic` refuses.  A nu, or a sigma with epsilon or delta, is refused.
    """
    _require(inp, "l", "lam")
    if inp.nu is not None:
        raise BoundError("a private bound derives nu from sigma; give no nu")
    if inp.sigma is not None:
        if inp.epsilon is not None or inp.delta is not None:
            raise BoundError("give sigma, or epsilon and delta, not both")
        sigma = inp.sigma
    else:
        _require(inp, "epsilon", "delta")
        sigma = calibrate(inp.m, inp.d, PrivacyParams(inp.epsilon, inp.delta))
    nu = synthesis_l1_bound(sigma, inp.d, inp.m, inp.l, inp.lam)
    report = excess_risk_bound(replace(inp, nu=nu, sigma=sigma), loss, mode)
    return replace(report, terms={**report.terms, "sigma": sigma, "nu_from_tail_bound": nu,
                                  "lam": inp.lam},
                   notes=report.notes + (f"holds except with probability 2^-{inp.lam:g}",))


def _times_power(scale: float, base: float, exponent: int) -> float:
    """scale * base ** exponent, for base > 0: +-inf where the power passes the
    float range (Python's float power raises there), and 0 at scale 0."""
    try:
        return scale * base ** exponent
    except OverflowError:
        return scale * math.inf if scale else 0.0


def _require(inp: BoundInputs, *fields: str) -> None:
    missing = [f for f in fields if getattr(inp, f) is None]
    if missing:
        raise BoundError(f"missing bound inputs: {missing}")


# ---------------------------------------------------------------------------
# Hardness-regime parameter schedule


@dataclass(frozen=True)
class HardInstanceParams:
    """Parameter schedule of the worst-case construction, gamma-driven.

    d is proportional to gamma^(-2r/5)/(-ln gamma) through an undetermined
    constant c' = min(1/5, c/8); the scale factor and the value at the
    c' = 1/5 cap are both reported, with c left symbolic.
    """

    m: int
    r: float
    gamma: float
    tau: float
    n: float
    d_scale: float
    c_prime_cap: float
    d_at_cap: float
    gamma_range_ok: bool


def hard_instance_schedule(m: int) -> HardInstanceParams:
    """r = 5/6, gamma = (m/2)^(-5/(10-2r)), n = exp(gamma^(-2r/5)), tau = 1/sqrt(m).

    Requires a finite m > 2e, and n to be a finite float (m up to about
    3.6e14).  gamma_range_ok reports whether gamma < 2^(-1/(1-r)), the
    precondition of the query-complexity argument (it fails for small m).
    """
    if not 2 * math.e < m < math.inf:  # NaN fails too
        raise BoundError(f"schedule needs a finite m > 2e, got m={m}")
    r = 5.0 / 6.0
    try:
        gamma = (m / 2.0) ** (-5.0 / (10.0 - 2.0 * r))
        exponent = gamma ** (-2.0 * r / 5.0)
        n = math.exp(exponent)
    except OverflowError:
        raise BoundError("schedule's n = exp((m/2)^(1/5)) overflows a float "
                         "for m above about 3.6e14") from None
    d_scale = exponent / (-math.log(gamma))
    c_prime_cap = 1.0 / 5.0
    return HardInstanceParams(
        m=m, r=r, gamma=gamma, tau=1.0 / math.sqrt(m), n=n,
        d_scale=d_scale, c_prime_cap=c_prime_cap, d_at_cap=c_prime_cap * d_scale,
        gamma_range_ok=(0.0 < gamma < 2.0 ** (-1.0 / (1.0 - r))),
    )

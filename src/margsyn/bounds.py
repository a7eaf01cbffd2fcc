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
from dataclasses import dataclass

from .privacy import gaussian_sigma, marginal_set_sensitivity, synthesis_l1_bound

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
        if self.n < 1 or self.m < 1 or self.tau < 0 or self.K <= 0:
            raise BoundError("need n >= 1, m >= 1, tau >= 0, K > 0")
        if self.d < 2:
            raise BoundError("bounds are stated for marginal order d >= 2 (they use d-1)")


@dataclass(frozen=True)
class BoundReport:
    approx_term: float
    marginal_term: float
    total: float
    constants_mode: str
    terms: dict
    notes: tuple[str, ...] = ()


def _zero_budget_report(mode: str) -> BoundReport:
    return BoundReport(0.0, 0.0, 0.0, mode,
                       {"tau": 0.0},
                       ("tau = 0 pins w = 0 on both datasets, so the risks coincide exactly",))


def _marginal_term_explicit(inp: BoundInputs, loss_sup: float, nu: float) -> tuple[float, dict]:
    half_width = inp.tau * math.sqrt(inp.m)
    width = 2.0 * half_width
    coeff_base = (1.0 + 2.0 / width) * inp.m * max(1.0, inp.tau)
    term = MARGINAL_HOPS / inp.n * loss_sup * coeff_base ** (inp.d - 1) * nu
    parts = {
        "marginal_hops": float(MARGINAL_HOPS),
        "loss_sup_bound": loss_sup,
        "coeff_base": coeff_base,
        "coeff_growth": coeff_base ** (inp.d - 1),
        "nu": nu,
        "interval_width": width,
    }
    return term, parts


def lipschitz_excess_risk_bound(inp: BoundInputs, mode: str = "explicit") -> BoundReport:
    """Bound for any continuous K-Lipschitz loss with value phi0 at 0.

    explicit: 4 * (5/4) * K * tau sqrt(m) / sqrt(d-1)
              + 2/n * (K tau sqrt(m) + phi0) * ((1 + 2/(2 tau sqrt(m))) m max(1,tau))^(d-1) * nu
    shape:    K tau sqrt(m/(d-1)) + (K tau sqrt(m) + phi0)/n * (3 m max(1,tau))^(d-1) * nu
    """
    _require(inp, "nu")
    if inp.tau == 0.0:
        return _zero_budget_report(mode)
    half_width = inp.tau * math.sqrt(inp.m)
    loss_sup = inp.K * half_width + inp.phi0
    if mode == "explicit":
        modulus_step = half_width / math.sqrt(inp.d - 1)
        approx = POLY_HOPS * UNIFORM_CERT * inp.K * modulus_step
        marg, parts = _marginal_term_explicit(inp, loss_sup, inp.nu)
        terms = {"poly_hops": float(POLY_HOPS), "uniform_cert": UNIFORM_CERT,
                 "modulus_step": modulus_step, "K": inp.K, **parts}
        return BoundReport(approx, marg, approx + marg, mode, terms)
    if mode == "shape":
        approx = inp.K * inp.tau * math.sqrt(inp.m / (inp.d - 1))
        base = 3.0 * inp.m * max(1.0, inp.tau)
        marg = loss_sup / inp.n * base ** (inp.d - 1) * inp.nu
        return BoundReport(approx, marg, approx + marg, mode,
                           {"coeff_base": base, "loss_sup_bound": loss_sup, "nu": inp.nu})
    raise BoundError(f"unknown constants mode {mode!r}")


def logistic_excess_risk_bound(inp: BoundInputs, mode: str = "explicit") -> BoundReport:
    """Tighter bound for the logistic loss, whose derivative is 1/4-Lipschitz.

    The approximation certificate for a loss with Lipschitz derivative decays
    as 1/(d-1) instead of 1/sqrt(d-1); after rescaling the margin interval
    onto [0,1] its curvature constant becomes (2 tau sqrt(m))^2 / 4. The
    marginal term keeps the generic form with sup |loss| <= ln 2 + tau sqrt(m).
    Two variants of the coefficient base circulate (2m vs 3m); shape mode
    uses 3m, the only base consistent with the coefficient-sum certificate when
    the margin interval has width >= 1, and explicit mode uses the exact base
    (see notes).
    """
    _require(inp, "nu")
    if inp.tau == 0.0:
        return _zero_budget_report(mode)
    half_width = inp.tau * math.sqrt(inp.m)
    width = 2.0 * half_width
    loss_sup = half_width + LN2
    note = ("coefficient-base variants disagree (2m vs 3m); this calculator uses "
            "3m in shape mode, and (1 + 2/width) m max(1,tau) exactly in explicit mode",)
    if mode == "explicit":
        rescaled_curvature = width**2 * LOGISTIC_CURVATURE
        per_hop = DERIVATIVE_CERT * rescaled_curvature / (inp.d - 1)
        approx = POLY_HOPS * per_hop
        marg, parts = _marginal_term_explicit(inp, loss_sup, inp.nu)
        terms = {"poly_hops": float(POLY_HOPS), "derivative_cert": DERIVATIVE_CERT,
                 "rescaled_curvature": rescaled_curvature, "per_hop": per_hop, **parts}
        return BoundReport(approx, marg, approx + marg, mode, terms, note)
    if mode == "shape":
        approx = half_width / (inp.d - 1)
        base = 3.0 * inp.m * max(1.0, inp.tau)
        marg = half_width / inp.n * base ** (inp.d - 1) * inp.nu
        return BoundReport(approx, marg, approx + marg, mode,
                           {"coeff_base": base, "loss_sup_bound": loss_sup, "nu": inp.nu}, note)
    raise BoundError(f"unknown constants mode {mode!r}")


def private_excess_risk_bound(inp: BoundInputs, loss: str = "lipschitz",
                              mode: str = "explicit") -> BoundReport:
    """End-to-end bound with nu replaced by the high-probability l1 bound.

    nu := 2 l^d sqrt(2 (ln 2 (1+lam) + d ln(m l))) sigma, valid except with
    probability 2^-lam.  sigma may be given directly, or is derived from
    (epsilon, delta) with the mechanism's own sensitivity sqrt(2 |Q|), so it
    equals `privacy.calibrate(m, d, ...).sigma`.
    """
    _require(inp, "l", "lam")
    if inp.sigma is not None:
        sigma = inp.sigma
    else:
        _require(inp, "epsilon", "delta")
        sigma = gaussian_sigma(inp.epsilon, inp.delta, marginal_set_sensitivity(inp.m, inp.d))
    nu = synthesis_l1_bound(sigma, inp.d, inp.m, inp.l, inp.lam)
    with_nu = BoundInputs(n=inp.n, m=inp.m, d=inp.d, tau=inp.tau, K=inp.K, phi0=inp.phi0,
                          l=inp.l, nu=nu, sigma=sigma, lam=inp.lam,
                          epsilon=inp.epsilon, delta=inp.delta)
    if loss == "lipschitz":
        report = lipschitz_excess_risk_bound(with_nu, mode)
    elif loss == "logistic":
        report = logistic_excess_risk_bound(with_nu, mode)
    else:
        raise BoundError(f"unknown loss family {loss!r}")
    terms = dict(report.terms)
    terms.update({"sigma": sigma, "nu_from_tail_bound": nu, "lam": inp.lam})
    return BoundReport(report.approx_term, report.marginal_term, report.total,
                       report.constants_mode, terms,
                       report.notes + (f"holds except with probability 2^-{inp.lam:g}",))


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

    Requires m > 2e.  gamma_range_ok reports whether gamma < 2^(-1/(1-r)),
    the precondition of the query-complexity argument (it fails for small m).
    """
    if m <= 2 * math.e:
        raise BoundError(f"schedule needs m > 2e, got m={m}")
    r = 5.0 / 6.0
    gamma = (m / 2.0) ** (-5.0 / (10.0 - 2.0 * r))
    exponent = gamma ** (-2.0 * r / 5.0)
    d_scale = exponent / (-math.log(gamma))
    c_prime_cap = 1.0 / 5.0
    return HardInstanceParams(
        m=m, r=r, gamma=gamma, tau=1.0 / math.sqrt(m),
        n=math.exp(exponent),
        d_scale=d_scale, c_prime_cap=c_prime_cap, d_at_cap=c_prime_cap * d_scale,
        gamma_range_ok=(0.0 < gamma < 2.0 ** (-1.0 / (1.0 - r))),
    )

"""Gaussian-mechanism calibration and noise injection for marginal sets.

The released object is the concatenation of all marginal count vectors for
queries of order at most d, one vector in `MarginalOperator`'s layout.
Changing one row of the dataset changes at most two entries of each of the
|Q| marginals by 1, so the l2 sensitivity is sqrt(2 |Q|).  That one value,
through `calibrate`, sets the noise of the mechanism, which
`add_noise_to_set` draws into that vector, and the sigma behind the
excess-risk bound of `bounds.private_excess_risk_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginals import query_count


@dataclass(frozen=True)
class PrivacyParams:
    """(epsilon, delta)-DP target plus the failure exponent lambda.

    `gaussian_sigma`, not this class, refuses a pair whose sigma is not
    (epsilon, delta)-DP.  `allow_large_epsilon` is ignored; old callers pass it.
    """

    epsilon: float
    delta: float
    lam: float = 3.0
    allow_large_epsilon: bool = False  # ignored

    def __post_init__(self):
        # written so that NaN fails too: every comparison with NaN is False
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        _check_delta(self.delta)
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lambda must be finite and positive")


def gaussian_sigma(eps: float, delta: float, sensitivity: float) -> float:
    """Standard deviation sensitivity * sqrt(2 ln(1.25/delta)) / eps.

    That sigma is not (eps, delta)-DP at large eps, so a pair is refused
    when the mechanism's exact delta at r = sensitivity / sigma,
    Phi(r/2 - eps/r) - e^eps Phi(-r/2 - eps/r) (Balle & Wang, ICML 2018,
    Thm 8), exceeds delta: above eps = 9.63 at delta = 1/32000^2, 8.78 at
    1e-6, 6.77 at 0.01 and 5.68 at 1/9.
    """
    if not (eps > 0 and sensitivity > 0):
        raise ValueError("eps and sensitivity must be positive")
    _check_delta(delta)
    c = math.sqrt(2.0 * math.log(1.25 / delta))
    r = eps / c
    tail = _normal_cdf(-r / 2 - eps / r)  # times e^eps in logs: e^eps overflows above 709
    exact = _normal_cdf(r / 2 - eps / r) - (math.exp(eps + math.log(tail)) if tail > 0 else 0.0)
    if exact > delta:
        raise ValueError(f"sigma = sensitivity * sqrt(2 ln(1.25/delta)) / eps is not "
                         f"(eps, delta)-DP at eps={eps}, delta={delta}: its exact delta is {exact:.3g}")
    return sensitivity * c / eps


def _check_delta(delta: float) -> None:
    """Refuse a delta outside (0, 1), or so small that 1.25/delta overflows a
    float (below about 6.95e-309), where ln(1.25/delta) and sigma would be infinite."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 1.25 / delta < math.inf:
        raise ValueError(f"delta={delta} is too small: 1.25/delta overflows a float")


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def marginal_set_sensitivity(m: int, d: int) -> float:
    """l2 sensitivity sqrt(2 |Q|) of the concatenated order-<=d marginal vector."""
    if d < 1 or d > m + 1:
        raise ValueError(f"invalid marginal order d={d} for m={m}")
    return math.sqrt(2.0 * query_count(m, d))


def calibrate(m: int, d: int, params: PrivacyParams) -> float:
    """The mechanism's sigma for the order-<=d marginals of m features: the one
    place that derives sigma from (epsilon, delta)."""
    return gaussian_sigma(params.epsilon, params.delta, marginal_set_sensitivity(m, d))


def add_noise_to_set(counts: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """The concatenated marginal vector `counts` plus independent N(0, sigma^2)
    noise on every entry, as a new float64 vector (sigma 0 draws nothing).

    The noise is one draw of the whole vector from one generator seeded by
    `seed`, so the result does not depend on evaluation order, and a
    vector's first k entries get the noise of a k-entry vector.  The
    `synth.Release` that holds the result checks that it fits its queries.
    Determinism is per seed, not bit-exact across platforms or numpy builds.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    noisy = np.array(counts, dtype=np.float64)
    if sigma > 0:
        noisy += np.random.default_rng(seed).normal(0.0, sigma, size=noisy.shape)
    return noisy


def synthesis_l1_bound(sigma: float, d: int, m: int, l: int, lam: float) -> float:
    """High-probability bound on max-over-queries l1 marginal error after synthesis.

    For data synthesized to minimize the maximum l1 distance to noisy
    marginals, every order-<=d marginal of the output is within
    2 l^d sqrt(2 (ln(2)(1+lambda) + d ln(m l))) sigma of the real marginal,
    except with probability 2^-lambda.  (Per-entry Gaussian tail of k*sigma,
    union bound over at most (m l)^d entries, doubled by the minimizer's
    triangle inequality.)  A bound past the float range is inf (0 at sigma = 0).
    """
    if sigma < 0 or d < 1 or m < 1 or l < 2 or lam <= 0:
        raise ValueError("need sigma >= 0, d >= 1, m >= 1, l >= 2, lam > 0")
    if d > 2048 / math.log2(l):  # l**d far past the float range: do not build the int
        return math.inf if sigma else 0.0
    k = math.sqrt(2.0 * (math.log(2.0) * (1.0 + lam) + d * math.log(m * l)))
    try:
        return 2.0 * l**d * k * sigma
    except OverflowError:  # the int l**d is too large to convert to a float
        return math.inf if sigma else 0.0

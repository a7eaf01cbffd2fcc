"""Gaussian-mechanism calibration and noise injection for marginal sets.

The released object is the concatenation of all marginal count vectors for
queries of order at most d.  Changing one row of the dataset changes at most
two entries of each of the |Q| marginals by 1, so the l2 sensitivity is
sqrt(2 |Q|).  That one value sets the noise of the mechanism and the sigma
behind the excess-risk bound of `bounds.private_excess_risk_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginals import Marginal, query_count


@dataclass(frozen=True)
class PrivacyParams:
    """(epsilon, delta)-DP target plus the failure exponent lambda.

    The Gaussian-mechanism guarantee is stated for epsilon in (0, 1]; larger
    budgets are practical but outside that statement, so they must be allowed
    explicitly and are recorded by callers.
    """

    epsilon: float
    delta: float
    lam: float = 3.0
    allow_large_epsilon: bool = False

    def __post_init__(self):
        # written so that NaN fails too: every comparison with NaN is False
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lambda must be finite and positive")
        if self.epsilon > 1.0 and not self.allow_large_epsilon:
            raise ValueError(
                f"epsilon={self.epsilon} > 1 is outside the calibration's stated range; "
                "set allow_large_epsilon=True to proceed anyway"
            )


@dataclass(frozen=True)
class NoiseCalibration:
    """Noise scale for one release, recomputable from its inputs."""

    sigma: float
    sensitivity: float
    d: int
    m: int
    epsilon: float
    delta: float


def gaussian_sigma(eps: float, delta: float, sensitivity: float) -> float:
    """Standard deviation sensitivity * sqrt(2 ln(1.25/delta)) / eps."""
    if not (eps > 0 and sensitivity > 0):
        raise ValueError("eps and sensitivity must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / eps


def marginal_set_sensitivity(m: int, d: int) -> float:
    """l2 sensitivity sqrt(2 |Q|) of the concatenated order-<=d marginal vector."""
    if d < 1 or d > m + 1:
        raise ValueError(f"invalid marginal order d={d} for m={m}")
    return math.sqrt(2.0 * query_count(m, d))


def calibrate(m: int, d: int, params: PrivacyParams) -> NoiseCalibration:
    sens = marginal_set_sensitivity(m, d)
    sigma = gaussian_sigma(params.epsilon, params.delta, sens)
    return NoiseCalibration(sigma, sens, d, m, params.epsilon, params.delta)


def add_noise(h: Marginal, sigma: float, rng: np.random.Generator) -> Marginal:
    """Independent N(0, sigma^2) per entry; the result is flagged non-exact.

    Determinism is per seed, not bit-exact across platforms or numpy builds.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    noisy = h.counts + (rng.normal(0.0, sigma, size=h.counts.shape) if sigma > 0 else 0.0)
    return Marginal(h.query, noisy, exact=False)


def add_noise_to_set(marginals: list[Marginal], sigma: float, seed: int) -> list[Marginal]:
    """Noise every marginal under a per-query derived sub-seed.

    Each query gets its own generator seeded by (seed, query position), so the
    result does not depend on evaluation order or scheduling.
    """
    out = []
    for idx, h in enumerate(marginals):
        rng = np.random.default_rng([seed, idx])
        out.append(add_noise(h, sigma, rng))
    return out


def synthesis_l1_bound(sigma: float, d: int, m: int, l: int, lam: float) -> float:
    """High-probability bound on max-over-queries l1 marginal error after synthesis.

    For data synthesized to minimize the maximum l1 distance to noisy
    marginals, every order-<=d marginal of the output is within
    2 l^d sqrt(2 (ln(2)(1+lambda) + d ln(m l))) sigma of the real marginal,
    except with probability 2^-lambda.  (Per-entry Gaussian tail of k*sigma,
    union bound over at most (m l)^d entries, doubled by the minimizer's
    triangle inequality.)
    """
    if sigma < 0 or d < 1 or m < 1 or l < 2 or lam <= 0:
        raise ValueError("need sigma >= 0, d >= 1, m >= 1, l >= 2, lam > 0")
    k = math.sqrt(2.0 * (math.log(2.0) * (1.0 + lam) + d * math.log(m * l)))
    return 2.0 * l**d * k * sigma

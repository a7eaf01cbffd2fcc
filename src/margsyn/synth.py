"""Synthetic data generation from noisy marginals.

Two strategies stand behind one entry point:

  "brute"   minimize the maximum l1 distance to the noisy marginals over
            size-n multisets of the joint domain.  Exhaustive enumeration when
            the multiset count fits the configured cap, otherwise a
            deterministic greedy descent over single-row reassignments
            minimizing the same objective.
  "fitted"  least-squares fit of a dense joint distribution to the noisy
            marginals (accelerated projected gradient on the probability
            simplex with restart, its step from the curvature along the
            simplex, one forward and one adjoint operator application per
            iteration, stopping on a relative-decrease test), followed by
            cumulative rounding of n times the fitted joint over the
            row-major cells with one uniform offset: exactly n rows,
            unbiased cell counts within one of n*p, and every group of
            fixed leading attributes within less than one row of its mass.

The synthesizer sees only the noisy marginals, the target size and the
schema; diagnostics against the real data are assembled outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from .dataset import Dataset, Schema
from .marginals import (Marginal, MarginalOperator, MarginalQuery, compute_marginal,
                        enumerate_queries, l1_distance, normalized_l1)
from .privacy import PrivacyParams, add_noise_to_set, calibrate, synthesis_l1_bound

DEFAULT_CANDIDATE_CAP = 10_000_000
DENSE_CELL_CAP = 1_000_000
# The dense fit's step: power iterations for the top curvature on the
# simplex, and the factor that covers what they leave unconverged.
POWER_ITERS = 30
STEP_SAFETY = 1.05


class SynthesisError(ValueError):
    """Synthesis request outside the supported regime."""


@dataclass(frozen=True)
class NoisyMarginalSet:
    """Noisy marginal measurements for a unique, schema-valid query set."""

    schema: Schema
    marginals: tuple[Marginal, ...]
    sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        queries = [m.query for m in self.marginals]
        if len(set(queries)) != len(queries):
            raise SynthesisError("duplicate queries in marginal set")
        for q in queries:
            q.validate(self.schema)

    @cached_property
    def operator(self) -> MarginalOperator:
        return MarginalOperator(self.schema, [m.query for m in self.marginals])

    @property
    def targets(self) -> list[np.ndarray]:
        return [m.counts for m in self.marginals]


def num_joint_cells(schema: Schema) -> int:
    return int(np.prod(schema.sizes))


def _counts_to_dataset(counts: np.ndarray, schema: Schema) -> Dataset:
    cell_ids = np.repeat(np.arange(counts.shape[0]), counts.astype(np.int64))
    codes = np.stack(np.unravel_index(cell_ids, schema.sizes), axis=1)
    return Dataset(schema, codes)


def brute_force_synth(n: int, nm: NoisyMarginalSet,
                      cap: int = DEFAULT_CANDIDATE_CAP) -> Dataset:
    """Exhaustive minimizer of max_q ||h_q - M_q(D)||_1 over size-n multisets.

    Ties are broken by the lexicographically smallest multiset encoding
    (candidates are scanned in that order and only strict improvements are
    kept).  Candidate count C(|cells|+n-1, n) must not exceed `cap`.
    """
    if not nm.marginals:
        raise SynthesisError("empty query set")
    if n < 0:
        raise SynthesisError("n must be non-negative")
    cells = num_joint_cells(nm.schema)
    n_candidates = math.comb(cells + n - 1, n)
    if n_candidates > cap:
        raise SynthesisError(
            f"{n_candidates} candidate multisets exceed the cap {cap}; "
            "use the greedy or fitted path for this size"
        )
    op, targets = nm.operator, nm.targets
    best_counts = None
    best_obj = math.inf
    for combo in combinations_with_replacement(range(cells), n):
        counts = np.bincount(np.asarray(combo, dtype=np.int64), minlength=cells).astype(np.float64)
        obj = float(op.l1_to(counts, targets).max())
        if obj < best_obj:
            best_obj = obj
            best_counts = counts
    return _counts_to_dataset(best_counts, nm.schema)


def _largest_remainder_round(mu: np.ndarray, n: int) -> np.ndarray:
    """Integer counts summing to n, each within one of mu (after scaling to n)."""
    mu = np.maximum(np.asarray(mu, dtype=np.float64), 0.0)
    total = mu.sum()
    mu = np.full_like(mu, n / mu.shape[0]) if total <= 0 else mu * (n / total)
    floors = np.floor(mu).astype(np.int64)
    r = n - int(floors.sum())
    if r > 0:
        frac = mu - floors
        extra = np.argsort(-frac, kind="stable")[:r]
        floors[extra] += 1
    return floors


def _greedy_minmax(n: int, nm: NoisyMarginalSet) -> np.ndarray:
    """Deterministic single-row-reassignment descent on the max-l1 objective.

    Runs from two starts (uniform counts, and the product of the clipped
    one-way noisy marginals) and keeps the better local minimum.
    """
    schema = nm.schema
    cells = num_joint_cells(schema)
    if cells * cells * max(1, len(nm.marginals)) > 200_000_000:
        raise SynthesisError("joint domain too large for the greedy path; use fitted mode")
    op, targets = nm.operator, nm.targets
    bin_maps = op.bin_maps
    eq_masks = [bm[:, None] == bm[None, :] for bm in bin_maps]
    max_steps = 200 + 40 * n

    def descend(counts: np.ndarray) -> tuple[np.ndarray, float]:
        counts = counts.astype(np.float64)
        resid = [t - seg for t, seg in zip(targets, op.forward(counts))]
        l1 = np.array([np.abs(r).sum() for r in resid])
        for _ in range(max_steps):
            obj = float(l1.max())
            cand = None
            for qi, (bm, r) in enumerate(zip(bin_maps, resid)):
                rb = r[bm]
                d_remove = np.abs(rb + 1.0) - np.abs(rb)  # take one row out of cell i
                d_add = np.abs(rb - 1.0) - np.abs(rb)     # put one row into cell j
                mq = l1[qi] + d_remove[:, None] + d_add[None, :]
                mq[eq_masks[qi]] = l1[qi]
                cand = mq if cand is None else np.maximum(cand, mq)
            cand[counts <= 0, :] = math.inf
            np.fill_diagonal(cand, math.inf)
            flat = int(np.argmin(cand))
            i, j = divmod(flat, cells)
            if not cand[i, j] < obj - 1e-12:
                break
            counts[i] -= 1.0
            counts[j] += 1.0
            for qi, bm in enumerate(bin_maps):
                bi, bj = bm[i], bm[j]
                if bi != bj:
                    r = resid[qi]
                    l1[qi] += (abs(r[bi] + 1.0) - abs(r[bi])) + (abs(r[bj] - 1.0) - abs(r[bj]))
                    r[bi] += 1.0
                    r[bj] -= 1.0
        return counts, float(l1.max())

    starts = [_largest_remainder_round(np.ones(cells), n)]
    one_way = {m.query.attrs[0]: m for m in nm.marginals if m.query.order == 1}
    if len(one_way) == schema.num_attributes:
        probs = np.ones(1)
        for j in range(schema.num_attributes):
            col = np.maximum(one_way[j].counts, 0.0)
            col = np.full(schema.sizes[j], 1.0 / schema.sizes[j]) if col.sum() <= 0 else col / col.sum()
            probs = np.multiply.outer(probs, col).ravel()
        starts.append(_largest_remainder_round(probs, n))

    best_counts, best_obj = None, math.inf
    for start in starts:
        counts, obj = descend(start)
        if obj < best_obj:
            best_counts, best_obj = counts, obj
    return best_counts


# ---------------------------------------------------------------------------
# Distribution fitting (dense joint, least squares on the simplex)


@dataclass(frozen=True)
class DistributionEstimate:
    """Dense joint probability vector explaining the noisy marginals.

    `converged` says whether the fit stopped on its convergence test rather
    than at its iteration cap.
    """

    schema: Schema
    probs: np.ndarray
    objective_trace: tuple[float, ...]
    converged: bool = False

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64).copy()
        if probs.ndim != 1 or probs.shape[0] != num_joint_cells(self.schema):
            raise SynthesisError("probs must be a flat vector over the joint domain")
        if (probs < -1e-12).any() or abs(float(probs.sum()) - 1.0) > 1e-9:
            raise SynthesisError("probs must be a normalized non-negative distribution")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def marginal_probs(self, query: MarginalQuery) -> np.ndarray:
        return MarginalOperator(self.schema, [query]).forward(self.probs)[0]


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = 1} (sort-based, O(n log n))."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.shape[0] + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _simplex_lipschitz(op: MarginalOperator, n: float) -> float:
    """Lipschitz constant of the fit's gradient along the probability simplex.

    The objective's Hessian is 2 n^2 A^T A, A being `op`.  Its largest
    eigenvalue, 2 n^2 sum_q cells/|bins_q|, belongs to the all-ones
    direction (A^T A is non-negative with that constant row sum), which is
    orthogonal to the simplex, so no step moves along it.  The top
    eigenvalue on the sum-zero subspace is estimated by POWER_ITERS power
    iterations of adjoint(forward(.)) from a fixed equidistributed start (it
    draws from no random stream), the mean removed at each step, then raised
    by STEP_SAFETY and capped by the all-ones value.
    """
    v = np.modf(np.arange(op.num_cells) * 0.5 * (math.sqrt(5.0) - 1.0))[0]  # golden-ratio sequence
    rayleigh = 0.0
    for _ in range(POWER_ITERS):
        v = v - v.mean()
        v /= np.linalg.norm(v)
        segs = op.forward(v)
        rayleigh = sum(float(s @ s) for s in segs)
        v = op.adjoint(segs)
    return 2.0 * n * n * min(STEP_SAFETY * rayleigh, sum(op.num_cells / k for k in op.num_bins))


def fit_distribution(nm: NoisyMarginalSet, n: float, iters: int = 2000,
                     tol: float = 1e-10) -> DistributionEstimate:
    """Minimize sum_q ||n * M_q(p) - h_q||_2^2 over the probability simplex.

    Accelerated projected gradient (FISTA: Beck & Teboulle 2009) from the
    uniform distribution, with step 1/L (L from `_simplex_lipschitz`) and
    function-value restart (O'Donoghue & Candes 2015): an iteration that
    would raise the objective is rejected and the momentum restarts from
    the current iterate; if that iteration already had no momentum, L
    doubles.  So the recorded objective never rises.

    The residual r(p) = n * M(p) - h, all queries' bins in one vector, is
    affine in p, so at the extrapolated point y = p_k + beta (p_k - p_{k-1})
    it is (1 + beta) r_k - beta r_{k-1}: each iteration applies the
    operator's forward once (at the new iterate, which also gives its
    objective) and its adjoint once (the gradient at y).

    Converged when an accepted step lowers the objective by at most tol
    times its value; otherwise it stops after `iters` iterations.  The trace
    holds the initial objective and one value per iteration, so its length
    minus one is the iteration count.  Negative noisy entries need no
    pre-clamping; the simplex projection resolves them.
    """
    if not nm.marginals:
        raise SynthesisError("empty query set")
    cells = num_joint_cells(nm.schema)
    if cells > DENSE_CELL_CAP:
        raise SynthesisError(f"joint domain of {cells} cells exceeds dense-mode cap {DENSE_CELL_CAP}")
    op = nm.operator
    target = np.concatenate(nm.targets)
    splits = np.cumsum(op.num_bins)[:-1]
    lipschitz = _simplex_lipschitz(op, n)

    def residual(p):
        return n * np.concatenate(op.forward(p)) - target

    p = np.full(cells, 1.0 / cells)
    r = residual(p)
    obj = float(r @ r)
    p_prev, r_prev, t = p, r, 1.0
    trace = [obj]
    converged = False
    for _ in range(iters):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = p + beta * (p - p_prev)
        grad = op.adjoint(np.split(2.0 * n * ((1.0 + beta) * r - beta * r_prev), splits))
        p_new = _project_simplex(y - grad / lipschitz)
        r_new = residual(p_new)
        obj_new = float(r_new @ r_new)
        if obj_new > obj:
            if beta == 0.0:
                lipschitz *= 2.0
            p_prev, r_prev, t = p, r, 1.0
            trace.append(obj)
            continue
        p_prev, r_prev, p, r, t = p, r, p_new, r_new, t_next
        trace.append(obj_new)
        if obj - obj_new <= tol * obj:
            converged = True
            break
        obj = obj_new
    return DistributionEstimate(nm.schema, p, tuple(trace), converged)


# ---------------------------------------------------------------------------
# Sampling


def sample_dataset(dist: DistributionEstimate, n: int, rng: np.random.Generator) -> Dataset:
    """Draw a size-n dataset by cumulative (systematic) rounding of n*p.

    With C the cumulative sum of the clipped probabilities over the row-major
    cells, normalized to end at 1, and one uniform u in [0, 1), cell c
    receives floor(u + n*C_c) - floor(u + n*C_{c-1}) rows.  So there are
    exactly n rows, each cell count is floor(mu_c) or floor(mu_c)+1 and
    unbiased for mu_c = n*p_c, zero-probability cells stay empty, and every
    row-major prefix group (fixed leading attributes, a contiguous block of
    cells) is within strictly less than one row of its expected mass.  Rows
    come out in cell order.
    """
    cum = np.cumsum(np.maximum(dist.probs, 0.0))
    edges = np.floor(rng.random() + n * (cum / cum[-1])).astype(np.int64)
    return _counts_to_dataset(np.diff(edges, prepend=0), dist.schema)


# ---------------------------------------------------------------------------
# End-to-end mechanism


def synthesize(n: int, nm: NoisyMarginalSet, mode: str,
               rng: np.random.Generator | None = None,
               cap: int = DEFAULT_CANDIDATE_CAP,
               fit_iters: int = 2000) -> tuple[Dataset, dict]:
    """Build a size-n dataset from noisy marginals only (no access to real data).

    mode "brute" uses exhaustive search when the candidate count fits `cap`
    and the greedy descent otherwise; mode "fitted" fits a dense joint
    distribution and samples from it (requires rng).  The stats hold the
    l1 distances to the noisy targets, the synthetic marginals
    ("marginals"), in the noisy set's query order, and the fit's iteration
    count and convergence ("fit_iters", "fit_converged": 0 and None when
    no fit ran).
    """
    if mode == "brute":
        cells = num_joint_cells(nm.schema)
        if math.comb(cells + n - 1, n) <= cap:
            ds = brute_force_synth(n, nm, cap=cap)
        else:
            ds = _counts_to_dataset(_greedy_minmax(n, nm), nm.schema)
        fit = {"fit_iters": 0, "fit_converged": None}
    elif mode == "fitted":
        if rng is None:
            raise SynthesisError("fitted mode needs a random generator")
        dist = fit_distribution(nm, n=n, iters=fit_iters)
        ds = sample_dataset(dist, n, rng)
        fit = {"fit_iters": len(dist.objective_trace) - 1, "fit_converged": dist.converged}
    else:
        raise SynthesisError(f"unknown mode {mode!r}; expected 'brute' or 'fitted'")

    op = nm.operator
    counts = op.cell_counts(ds)
    dists = op.l1_to(counts, nm.targets)
    synth_margs = [Marginal(q, v, exact=True) for q, v in zip(op.queries, op.forward(counts))]
    stats = {"l1_to_noisy_max": float(dists.max()), "l1_to_noisy_mean": float(np.mean(dists)),
             "marginals": synth_margs, **fit}
    return ds, stats


@dataclass(frozen=True)
class GenReport:
    """Provenance of one synthetic dataset.

    sigma is calibrated from epsilon and delta with the mechanism's
    sensitivity, so the privacy claim describes the noise actually added.
    `bound_certified` says whether the output is within half of
    `l1_bound_at_lam` of the noisy marginals; by the triangle inequality the
    bound then holds for it on the same 1 - 2^-lam event, whichever path ran.
    It reads only noisy data, as do `fit_iters` and `fit_converged`, the
    dense fit's iteration count and whether it converged before its cap
    (0 and None when no fit ran).  The `nonprivate_*` entries compare against the
    real marginals; they are evaluation-only diagnostics computed outside the
    mechanism and must not be released alongside the synthetic data.
    """

    n: int
    d: int
    mode: str
    seed: int
    sigma: float
    sensitivity: float
    epsilon: float
    delta: float
    epsilon_above_stated_range: bool
    query_count: int
    lam: float
    l1_bound_at_lam: float
    bound_certified: bool
    l1_to_noisy_max: float
    l1_to_noisy_mean: float
    fit_iters: int
    fit_converged: bool | None
    nonprivate_l1_to_real_max: float
    nonprivate_l1_to_real_mean: float
    nonprivate_normalized_l1_max: float
    nonprivate_normalized_l1_mean: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def generate_synthetic(ds_real: Dataset, d: int, privacy: PrivacyParams,
                       mode: str = "fitted", seed: int = 0,
                       cap: int = DEFAULT_CANDIDATE_CAP,
                       fit_iters: int = 2000) -> tuple[Dataset, GenReport]:
    """Measure all order-<=d marginals, noise them, synthesize, and report.

    sigma is always the Gaussian-mechanism calibration of `privacy`, so the
    report's epsilon and delta are those of the noise actually added.  (To
    synthesize from given marginals, with any noise or none, call
    `synthesize` on a `NoisyMarginalSet`.)
    Fixed seed gives a bit-identical dataset on one platform.
    """
    schema = ds_real.schema
    m = schema.num_features
    queries = enumerate_queries(m, d)
    exact = [compute_marginal(ds_real, q) for q in queries]
    calib = calibrate(m, d, privacy)
    noisy = add_noise_to_set(exact, calib.sigma, seed)
    nm = NoisyMarginalSet(schema, tuple(noisy), calib.sigma, seed)
    # a spawned child stream: the noise generators default_rng([seed, idx])
    # never share its state, so sampling is independent of the noise
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    ds_s, stats = synthesize(ds_real.n, nm, mode, rng=rng, cap=cap, fit_iters=fit_iters)

    # evaluation-only diagnostics, outside the mechanism boundary
    synth_margs = stats["marginals"]
    real_l1 = [l1_distance(e, s) for e, s in zip(exact, synth_margs)]
    norm_l1 = [normalized_l1(e, s, ds_real.n) for e, s in zip(exact, synth_margs)] if ds_real.n else [0.0]

    l1_bound = synthesis_l1_bound(calib.sigma, d, m, schema.max_domain_size, privacy.lam)
    report = GenReport(
        n=ds_real.n, d=d, mode=mode, seed=seed, sigma=calib.sigma,
        sensitivity=calib.sensitivity,
        epsilon=privacy.epsilon,
        delta=privacy.delta,
        epsilon_above_stated_range=privacy.epsilon > 1.0,
        query_count=len(queries),
        lam=privacy.lam,
        l1_bound_at_lam=l1_bound,
        bound_certified=stats["l1_to_noisy_max"] <= l1_bound / 2,
        l1_to_noisy_max=stats["l1_to_noisy_max"],
        l1_to_noisy_mean=stats["l1_to_noisy_mean"],
        fit_iters=stats["fit_iters"],
        fit_converged=stats["fit_converged"],
        nonprivate_l1_to_real_max=max(real_l1),
        nonprivate_l1_to_real_mean=float(np.mean(real_l1)),
        nonprivate_normalized_l1_max=max(norm_l1),
        nonprivate_normalized_l1_mean=float(np.mean(norm_l1)),
    )
    return ds_s, report

"""Synthetic data generation from noisy marginals.

Two strategies stand behind one entry point:

  "brute"   minimize the maximum l1 distance to the noisy marginals over
            size-n multisets of the joint domain.  Exhaustive enumeration when
            the multiset count fits the configured cap (candidates scored a
            fixed batch at a time, one bincount per batch), otherwise a
            deterministic greedy descent over single-row reassignments
            minimizing the same objective.  Each greedy step scores only
            the moves that can lower the query w at the maximum: the
            occupied source cells I and the destination cells J whose
            w-bins have a table entry below the stop threshold, so a step's
            matrices are |I| x |J|, never larger than cells x cells.  Every
            move outside I x J scores at least that threshold and a
            same-cell move scores the maximum itself, so the chosen move,
            its row-major tie-break and the stop test are those of scoring
            every move.  Of the queries, only those whose largest possible
            l1 after a move reaches the smallest possible l1 of w are
            scored: the others can set no entry of the max, so this pruning
            is exact too.
  "fitted"  least-squares fit of a dense joint distribution to the noisy
            marginals (accelerated projected gradient on the probability
            simplex with restart, computed in the eigenbasis of the
            operator's A^T A: two operator applications per fit, two small
            Kronecker transforms per iteration, an exact step, stopping on
            a relative-decrease test), then cumulative rounding of n times the
            fitted joint over the row-major cells with one uniform offset:
            counts summing to n, each unbiased and within one of n*p, every
            prefix group within less than one row of its mass.

Each path outputs an int64 count per joint cell; only `synthesize` turns
them into marginals and a dataset.  That dataset holds the counts
(`Dataset.from_counts`) and builds rows only when they are read.
`synthesize` sees only the noisy marginals, the target size and the
schema; diagnostics against the real data are made outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, islice

import numpy as np

from .dataset import Dataset, Schema
from .marginals import Marginal, MarginalOperator, compute_marginal, enumerate_queries
from .privacy import PrivacyParams, add_noise_to_set, calibrate, synthesis_l1_bound

DEFAULT_CANDIDATE_CAP = 10_000_000
DENSE_CELL_CAP = 1_000_000
# The dense fit stops, converged, once an accepted step lowers its objective
# by at most this fraction of its value.
_FIT_TOL = 1e-10
# Candidates the exhaustive scan scores per bincount.  On 32 cells, 15
# queries and n=3, batches of 64 to 16,384 took 5.6-13.7 ms per scan, 256
# the least; the scan's peak allocation grows with the batch (0.57 MB at
# 256, 9.8 MB at 16,384).
_SCAN_BATCH = 256


class SynthesisError(ValueError):
    """Synthesis request outside the supported regime."""


@dataclass(frozen=True)
class NoisyMarginalSet:
    """Noisy marginals of a non-empty, unique, schema-valid query set, with one
    finite count per bin; `target` is all of them in the layout of `operator`.
    """

    schema: Schema
    marginals: tuple[Marginal, ...]

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if not self.marginals:
            raise SynthesisError("empty query set")
        queries = [m.query for m in self.marginals]
        if len(set(queries)) != len(queries):
            raise SynthesisError("duplicate queries in marginal set")
        for m in self.marginals:
            m.query.validate(self.schema)
            bins = math.prod(self.schema.shape(m.query.attrs))
            if m.counts.shape != (bins,):
                raise SynthesisError(f"query {m.query.attrs} has {bins} bins, not {m.counts.shape}")
            if not np.isfinite(m.counts).all():
                raise SynthesisError(f"non-finite counts for query {m.query.attrs}")

    @cached_property
    def operator(self) -> MarginalOperator:
        return MarginalOperator(self.schema, [m.query for m in self.marginals])

    @cached_property
    def target(self) -> np.ndarray:
        target = np.concatenate([m.counts for m in self.marginals])
        target.setflags(write=False)
        return target


def num_joint_cells(schema: Schema) -> int:
    return int(np.prod(schema.sizes))


def brute_force_synth(n: int, nm: NoisyMarginalSet,
                      cap: int = DEFAULT_CANDIDATE_CAP) -> np.ndarray:
    """Int64 cell counts of the minimizer of max_q ||h_q - M_q(D)||_1 over size-n multisets.

    Ties are broken by the lexicographically smallest multiset encoding
    (candidates are scanned in that order and only strict improvements are
    kept).  Candidate count C(|cells|+n-1, n) must not exceed `cap`.

    Candidates are scored _SCAN_BATCH at a time: gathering the operator's
    `bin_maps` at each candidate's n cells, shifted by each query's offset
    and each candidate's place in the batch, and counting with one bincount
    gives every query's marginal of every candidate in the batch.  Each
    query's l1 is `MarginalOperator.query_sums` of one candidate, the same sum
    as `MarginalOperator.l1_to`, so objectives and ties are bit-equal to
    scoring the candidates one at a time (np.add.reduceat adds in another
    order and can pick another multiset among near-ties).  The first minimum
    of a batch is kept only if it is strictly below the best so far, which is
    the lexicographic tie-break.  Memory is fixed by the batch, not by the
    candidate count.
    """
    if n < 0:
        raise SynthesisError("n must be non-negative")
    cells = num_joint_cells(nm.schema)
    n_candidates = math.comb(cells + n - 1, n)
    if n_candidates > cap:
        raise SynthesisError(
            f"{n_candidates} candidate multisets exceed the cap {cap}; "
            "use the greedy or fitted path for this size"
        )
    op, target = nm.operator, nm.target
    total = target.shape[0]
    combos = combinations_with_replacement(range(cells), n)
    best_cells, best_obj = None, math.inf
    while batch := list(islice(combos, _SCAN_BATCH)):
        rows = np.array(batch, dtype=np.int64).reshape(len(batch), n)
        flat = op.bin_maps[:, rows] + (op.offsets[:, None, None] + total * np.arange(len(batch))[:, None])
        marg = np.bincount(flat.ravel(), minlength=total * len(batch))
        diff = np.abs(target - marg.reshape(len(batch), -1))
        obj = op.query_sums(diff).max(axis=-1)
        at = int(np.argmin(obj))
        if obj[at] < best_obj:
            best_cells, best_obj = rows[at], obj[at]
    return np.bincount(best_cells, minlength=cells)


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


def _greedy_starts(n: int, nm: NoisyMarginalSet) -> list[np.ndarray]:
    """The greedy's starts: uniform counts, and the product of the clipped
    one-way noisy marginals when every attribute has one."""
    schema = nm.schema
    starts = [_largest_remainder_round(np.ones(num_joint_cells(schema)), n)]
    one_way = {m.query.attrs[0]: m for m in nm.marginals if m.query.order == 1}
    if len(one_way) == schema.num_attributes:
        probs = np.ones(1)
        for j in range(schema.num_attributes):
            col = np.maximum(one_way[j].counts, 0.0)
            col = np.full(schema.sizes[j], 1.0 / schema.sizes[j]) if col.sum() <= 0 else col / col.sum()
            probs = np.multiply.outer(probs, col).ravel()
        starts.append(_largest_remainder_round(probs, n))
    return starts


def _descend(counts: np.ndarray, nm: NoisyMarginalSet) -> tuple[np.ndarray, np.ndarray]:
    """One-row-move descent on the max-l1 objective from `counts` (updated in
    place): the final counts and every query's final l1 to the noisy marginals.

    Each step moves one row from cell i to cell j, at the pair minimizing
    cand[i, j] = max_q m_q[i, j], the max-l1 after the move: m_q[i, j] is
    t_q[bin_q(i), bin_q(j)], with t_q the bins x bins table
    (l1_q + dr_q[a]) + da_q[b] off the diagonal and l1_q on it (a move inside
    one bin leaves q unchanged), dr = |r + 1| - |r| and da = |r - 1| - |r| per
    bin of the residual r.  All queries' tables are built at once, in one
    concatenated (query, source bin, destination bin) layout fixed per call.
    The descent stops when no move has cand[i, j] < thr = obj - 1e-12, obj the
    current maximum, or after 200 + 40 n steps.

    Only moves that can pass that test are scored.  A move lowers the maximum
    only if it lowers w, the first query at the maximum, so rows I are the
    occupied cells whose w-bin has an entry of t_w below thr in its row, and
    columns J the cells whose w-bin has one in its column (both ascending);
    cand is built on I x J alone, so a step's matrices are |I| x |J|, never
    larger than cells x cells.  This is exact: every entry outside I x J is
    at least m_w[i, j] >= thr, a diagonal entry (i = j) is max_q l1_q = obj,
    and the row-major order over I x J keeps the first-index tie-break, so
    the chosen move and the stop test are those of the full cells x cells
    matrix with empty source cells and the diagonal excluded.  An empty I or
    J ends the descent.  Queries are pruned too: every entry of cand is at
    least m_w[i, j] >= lo = min t_w, so a query whose largest table entry is
    below lo never sets an entry of cand and is skipped.  After a move, every
    query's residual and l1 are updated at once, l1_q += dr_q[a] + da_q[b].
    """
    op, target = nm.operator, nm.target
    maps, offsets = op.bin_maps, op.offsets
    bins = np.array(op.num_bins)
    sizes = bins * bins
    begin = np.cumsum(sizes) - sizes
    query = np.repeat(np.arange(bins.shape[0]), sizes)
    entry = np.arange(sizes.sum()) - begin[query]
    src = offsets[query] + entry // bins[query]
    dst = offsets[query] + entry % bins[query]
    same = src == dst
    tables = np.empty(sizes.sum())
    views = [tables[b:b + k * k].reshape(k, k) for b, k in zip(begin, op.num_bins)]
    resid = target - op.forward(counts)
    l1 = op.query_sums(np.abs(resid))
    for _ in range(200 + 40 * int(counts.sum())):
        w = int(np.argmax(l1))
        thr = l1[w] - 1e-12
        mag = np.abs(resid)
        d_remove = np.abs(resid + 1.0) - mag  # take one row out of a cell in the bin
        d_add = np.abs(resid - 1.0) - mag     # put one row into a cell in the bin
        base = l1[query]
        np.add(base, d_remove[src], out=tables)
        tables += d_add[dst]
        np.copyto(tables, base, where=same)
        t_w = views[w]
        below = t_w < thr
        rows = np.flatnonzero(below.any(axis=1)[maps[w]] & (counts > 0))
        cols = np.flatnonzero(below.any(axis=0)[maps[w]])
        if not (rows.size and cols.size):
            break
        row_bins, col_bins = maps.take(rows, 1), maps.take(cols, 1)
        cand = None
        for q in np.flatnonzero(np.maximum.reduceat(tables, begin) >= t_w.min()):
            m_q = views[q].take(row_bins[q], 0).take(col_bins[q], 1)
            cand = m_q if cand is None else np.maximum(cand, m_q, out=cand)
        at = int(np.argmin(cand))
        if not cand.flat[at] < thr:
            break
        i, j = rows[at // cols.shape[0]], cols[at % cols.shape[0]]
        counts[i] -= 1
        counts[j] += 1
        moved = maps[:, i] != maps[:, j]
        bi, bj = maps[moved, i] + offsets[moved], maps[moved, j] + offsets[moved]
        l1[moved] += d_remove[bi] + d_add[bj]
        resid[bi] += 1.0
        resid[bj] -= 1.0
    return counts, l1


def _greedy_minmax(n: int, nm: NoisyMarginalSet) -> np.ndarray:
    """Int64 cell counts of a deterministic one-row-move descent (`_descend`)
    on the max-l1 objective.

    Runs from each of `_greedy_starts` and keeps the first of the best local
    minima.
    """
    cells = num_joint_cells(nm.schema)
    # a step's arrays: cand, at most cells x cells, and the move tables of all
    # queries, sum_q bins_q^2 entries each; 2e8 float64 entries are 1.6 GB
    if max(cells * cells, sum(m.counts.size ** 2 for m in nm.marginals)) > 200_000_000:
        raise SynthesisError("joint domain too large for the greedy path; use fitted mode")
    best_counts, best_obj = None, math.inf
    for start in _greedy_starts(n, nm):
        counts, l1 = _descend(start, nm)
        obj = float(l1.max())
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
        if (not np.isfinite(probs).all() or (probs < -1e-12).any()
                or abs(float(probs.sum()) - 1.0) > 1e-9):
            raise SynthesisError("probs must be a finite, normalized, non-negative distribution")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = 1} (sort-based, O(n log n))."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.shape[0] + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def fit_distribution(nm: NoisyMarginalSet, n: float, iters: int = 2000) -> DistributionEstimate:
    """Minimize sum_q ||n * M_q(p) - h_q||_2^2 over the probability simplex.

    Accelerated projected gradient (FISTA: Beck & Teboulle 2009) from the
    uniform distribution with function-value restart (O'Donoghue & Candes
    2015): an iteration that would raise the objective is rejected and the
    momentum restarts from the current iterate.  So the recorded objective
    never rises.

    The objective is computed in the eigenbasis of the operator's A^T A
    (`MarginalOperator.transform` T and `spectrum` lambda).  With b = A^T h
    (h: all queries' noisy bins in one vector), c* = T b / (n lambda) where
    lambda > 0 (0 elsewhere) and p* = T c*, the residual n A p* - h is
    orthogonal to the range of A, so with d = T p - c*
        f(p) = n^2 sum lambda d^2 + ||n A p* - h||^2,   grad f(p) = 2 n^2 T (lambda d).
    The fit applies the operator twice in all (b and the constant term);
    each iteration applies T twice (the gradient at the extrapolated point
    y = p_k + beta (p_k - p_{k-1}), where d is (1 + beta) d_k - beta d_{k-1}
    since d is affine in p, and d at the new iterate, which gives its
    objective).  The step is 1/L with the exact Lipschitz constant along the
    simplex, L = 2 n^2 max lambda over the sum-zero coefficients, so a
    momentum-free step can raise the objective only through rounding: one
    that does not lower it ends the fit, converged, at the current iterate.

    Also converged when an accepted step lowers the objective by at most
    _FIT_TOL times its value; otherwise it stops after `iters` iterations.
    The trace holds the initial objective and one value per iteration, so its
    length minus one is the iteration count.  With n = 0 the objective is constant
    and the uniform start is returned, converged, after no iteration.
    Negative noisy entries need no pre-clamping; the simplex projection
    resolves them.
    """
    cells = num_joint_cells(nm.schema)
    if cells > DENSE_CELL_CAP:
        raise SynthesisError(f"joint domain of {cells} cells exceeds dense-mode cap {DENSE_CELL_CAP}")
    p = np.full(cells, 1.0 / cells)
    target = nm.target
    if n == 0:
        return DistributionEstimate(nm.schema, p, (float(target @ target),), True)
    op = nm.operator
    lam = op.spectrum
    coef = op.transform(op.adjoint(target))
    c_star = np.divide(coef, n * lam, out=np.zeros(cells), where=lam > 0)
    r_star = n * op.forward(op.transform(c_star)) - target
    base = float(r_star @ r_star)
    weight = n * n * lam
    lipschitz = 2.0 * float(weight[1:].max())

    def objective(d):
        return float(d @ (weight * d)) + base

    d = op.transform(p) - c_star
    obj = objective(d)
    p_prev, d_prev, t = p, d, 1.0
    trace = [obj]
    converged = False
    for _ in range(iters):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = p + beta * (p - p_prev)
        grad = op.transform(2.0 * weight * ((1.0 + beta) * d - beta * d_prev))
        p_new = _project_simplex(y - grad / lipschitz)
        d_new = op.transform(p_new) - c_star
        obj_new = objective(d_new)
        if obj_new >= obj and beta == 0.0:
            trace.append(obj)
            converged = True
            break
        if obj_new > obj:
            p_prev, d_prev, t = p, d, 1.0
            trace.append(obj)
            continue
        p_prev, d_prev, p, d, t = p, d, p_new, d_new, t_next
        trace.append(obj_new)
        if obj - obj_new <= _FIT_TOL * obj:
            converged = True
            break
        obj = obj_new
    return DistributionEstimate(nm.schema, p, tuple(trace), converged)


# ---------------------------------------------------------------------------
# Sampling


def sample_dataset(dist: DistributionEstimate, n: int, rng: np.random.Generator) -> np.ndarray:
    """Int64 cell counts of a size-n draw by cumulative (systematic) rounding of n*p.

    With C the cumulative sum of the clipped probabilities over the row-major
    cells, normalized to end at 1, and one uniform u in [0, 1), cell c
    receives floor(u + n*C_c) - floor(u + n*C_{c-1}) rows.  So there are
    exactly n rows, each cell count is floor(mu_c) or floor(mu_c)+1 and
    unbiased for mu_c = n*p_c, zero-probability cells stay empty, and every
    row-major prefix group (fixed leading attributes, a contiguous block of
    cells) is within strictly less than one row of its expected mass.
    """
    cum = np.cumsum(np.maximum(dist.probs, 0.0))
    edges = np.floor(rng.random() + n * (cum / cum[-1])).astype(np.int64)
    return np.diff(edges, prepend=0)


# ---------------------------------------------------------------------------
# End-to-end mechanism


def synthesize(n: int, nm: NoisyMarginalSet, mode: str,
               rng: np.random.Generator | None = None,
               cap: int = DEFAULT_CANDIDATE_CAP) -> tuple[Dataset, dict]:
    """Build a size-n dataset from noisy marginals only (no access to real data).

    mode "brute" uses exhaustive search when the candidate count fits `cap`
    and the greedy descent otherwise; mode "fitted" fits a dense joint
    distribution and samples from it (requires rng).  The stats hold the
    path that ran ("path": "exhaustive", "greedy" or "fitted"), the output's
    marginals in the layout of `nm.operator` ("marginals"), the max and
    mean over queries of their l1 distance to the noisy targets
    ("l1_to_noisy_max", "l1_to_noisy_mean"), and the fit's iteration count
    and convergence ("fit_iterations", "fit_converged": 0 and None when no
    fit ran).  The marginals and the dataset both come from the path's cell
    counts; the dataset holds them and builds no rows.
    """
    if n < 0:
        raise SynthesisError("n must be non-negative")
    if mode == "brute":
        cells = num_joint_cells(nm.schema)
        if math.comb(cells + n - 1, n) <= cap:
            counts, path = brute_force_synth(n, nm, cap=cap), "exhaustive"
        else:
            counts, path = _greedy_minmax(n, nm), "greedy"
        fit = {"fit_iterations": 0, "fit_converged": None}
    elif mode == "fitted":
        if rng is None:
            raise SynthesisError("fitted mode needs a random generator")
        dist = fit_distribution(nm, n=n)
        counts, path = sample_dataset(dist, n, rng), "fitted"
        fit = {"fit_iterations": len(dist.objective_trace) - 1, "fit_converged": dist.converged}
    else:
        raise SynthesisError(f"unknown mode {mode!r}; expected 'brute' or 'fitted'")

    marginals = nm.operator.forward(counts)
    dists = nm.operator.l1_to(marginals, nm.target)
    stats = {"path": path, "marginals": marginals, "l1_to_noisy_max": float(dists.max()),
             "l1_to_noisy_mean": float(np.mean(dists)), **fit}
    return Dataset.from_counts(nm.schema, counts), stats


@dataclass(frozen=True)
class GenReport:
    """Provenance of one synthetic dataset.

    sigma is calibrated from epsilon and delta with the mechanism's
    sensitivity, so the privacy claim describes the noise actually added.
    `bound_certified` says whether the output is within half of
    `l1_bound_at_lam` of the noisy marginals; by the triangle inequality the
    bound then holds for it on the same 1 - 2^-lam event, whichever path ran.
    It reads only noisy data, as do `path`, the synthesis path that ran
    ("exhaustive" or "greedy" in mode "brute", "fitted" in mode "fitted"),
    and `fit_iterations` and `fit_converged`, the dense fit's iteration count
    and whether it converged before its cap (0 and None when no fit ran).
    The `nonprivate_*` entries compare against the real marginals; they are
    evaluation-only diagnostics computed outside the mechanism and must not
    be released alongside the synthetic data.
    """

    n: int
    d: int
    mode: str
    path: str
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
    fit_iterations: int
    fit_converged: bool | None
    nonprivate_l1_to_real_max: float
    nonprivate_l1_to_real_mean: float
    nonprivate_normalized_l1_max: float
    nonprivate_normalized_l1_mean: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def generate_synthetic(ds_real: Dataset, d: int, privacy: PrivacyParams,
                       mode: str = "fitted", seed: int = 0,
                       cap: int = DEFAULT_CANDIDATE_CAP) -> tuple[Dataset, GenReport]:
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
    nm = NoisyMarginalSet(schema, tuple(noisy))
    # a spawned child stream: the noise generators default_rng([seed, idx])
    # never share its state, so sampling is independent of the noise
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    ds_s, stats = synthesize(ds_real.n, nm, mode, rng=rng, cap=cap)

    # evaluation-only diagnostics, outside the mechanism boundary
    real_l1 = nm.operator.l1_to(stats["marginals"], np.concatenate([e.counts for e in exact]))
    norm_l1 = real_l1 / ds_real.n if ds_real.n else np.zeros(1)

    l1_bound = synthesis_l1_bound(calib.sigma, d, m, schema.max_domain_size, privacy.lam)
    report = GenReport(
        n=ds_real.n, d=d, mode=mode, path=stats["path"], seed=seed, sigma=calib.sigma,
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
        fit_iterations=stats["fit_iterations"],
        fit_converged=stats["fit_converged"],
        nonprivate_l1_to_real_max=float(real_l1.max()),
        nonprivate_l1_to_real_mean=float(np.mean(real_l1)),
        nonprivate_normalized_l1_max=float(norm_l1.max()),
        nonprivate_normalized_l1_mean=float(np.mean(norm_l1)),
    )
    return ds_s, report

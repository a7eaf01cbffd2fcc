"""Synthetic data generation from noisy marginals.

Two strategies stand behind one entry point:

  "brute"   minimize the maximum l1 distance to the noisy marginals over
            size-n multisets of the joint domain.  Exhaustive enumeration when
            the multiset and cell counts fit the configured cap (candidates
            scored a fixed batch at a time, one bincount per batch), otherwise a
            deterministic greedy descent over single-row reassignments
            minimizing the same objective, from one start: the "fitted"
            path's output, so the descent begins near the noisy marginals
            and mode "brute" above the cap is exactly "fitted", then the
            descent.  Each greedy step scores only the moves that can
            lower the query w at the maximum: the occupied source cells I
            and the destination cells J whose w-bins have a table entry
            below the stop threshold, so a step's
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
            simplex with restarts, computed in the eigenbasis of the
            operator's A^T A: two operator applications per fit, two small
            Kronecker transforms per iteration, an exact step, a start at
            the closed-form minimizer on the plane sum p = 1, projected,
            stopping on a relative-decrease test), then the largest-remainder
            rounding of n times the fitted joint (`sample_dataset`, O(cells)):
            counts summing to n, each the floor or the ceiling of n*p.

No path draws a random number: the output is a deterministic function of
the noisy marginals, n and the cap, so the only randomness of the
mechanism is its noise.  Each path outputs an int64 count per joint cell;
only `synthesize` turns them into marginals and a dataset.  That dataset
holds the counts (`Dataset.from_counts`) and builds rows only when they are
read.  `synthesize` sees only the noisy marginals, the target size and the
schema; diagnostics against the real data are made outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, islice

import numpy as np

from .dataset import Dataset, Schema
from .marginals import MarginalOperator, MarginalQuery, compute_marginal, order_operator
from .privacy import (PrivacyParams, add_noise_to_set, calibrate, marginal_set_sensitivity,
                      synthesis_l1_bound)

DEFAULT_CANDIDATE_CAP = 10_000_000
DENSE_CELL_CAP = 1_000_000
# The dense fit stops, converged, once an accepted step lowers its objective
# by at most this fraction of its value.
_FIT_TOL = 1e-10
# Candidates the exhaustive scan scores per bincount.  On 32 cells, 15
# queries and n=3 (one BLAS thread), batches of 64 to 16,384 took 3.3-8.6 ms
# per scan; 256 and 512 were the fastest, within 10% of each other either
# way over repeated runs, and 768 or more slower.  The scan's peak allocation
# grows with the batch (0.50 MB at 256, 1.0 MB at 512, 12 MB at 16,384).
_SCAN_BATCH = 256
# Most entries of the queries x cells bin table, which every path reads, and
# of any other array a brute path allocates over the whole domain: 2e8
# float64 entries are 1.6 GB.
_BRUTE_ENTRIES = 200_000_000


class SynthesisError(ValueError):
    """Synthesis request outside the supported regime."""


@dataclass(frozen=True)
class NoisyMarginalSet:
    """Noisy marginals of a non-empty, unique query set: `target` holds one
    finite count per bin of every query of `operator`, in its layout, as a
    read-only copy.  `schema` is the operator's.
    """

    operator: MarginalOperator
    target: np.ndarray
    schema: Schema = field(init=False)

    def __post_init__(self):
        op = self.operator
        object.__setattr__(self, "schema", op.schema)
        if not op.queries:
            raise SynthesisError("empty query set")
        if len(set(op.queries)) != len(op.queries):
            raise SynthesisError("duplicate queries in marginal set")
        target = np.array(self.target, dtype=np.float64)
        bins = sum(op.num_bins)
        if target.shape != (bins,):
            raise SynthesisError(f"the queries have {bins} bins, not a target of shape {target.shape}")
        if not np.isfinite(target).all():
            raise SynthesisError("non-finite counts in the noisy marginals")
        target.setflags(write=False)
        object.__setattr__(self, "target", target)


def _path(n: int, op: MarginalOperator, mode: str, cap: int) -> str:
    """The path `synthesize` runs for n rows and the queries of `op`, or the
    SynthesisError that refuses the request: the one size and mode check.

    It reads only sizes, so `generate_synthetic` asks it before counting the
    real data or reading the operator's arrays, which span the joint domain.
    The exhaustive path needs at most `cap` cells as well as candidates: for
    n >= 1 the candidate count implies it, and n = 0 is refused where n = 1 is.
    Every path reads the operator's queries x cells `bin_maps`, so every path
    is refused when it holds more than _BRUTE_ENTRIES entries.
    """
    if n < 0:
        raise SynthesisError("n must be non-negative")
    cells = op.num_cells
    table = len(op.num_bins) * cells
    if mode == "brute":
        if cells <= cap and math.comb(cells + n - 1, n) <= cap:
            if table > _BRUTE_ENTRIES:
                raise SynthesisError(f"bin table of {table} entries too large for the "
                                     "exhaustive path; use fitted mode")
            return "exhaustive"
        # a greedy step's arrays: cand, at most cells x cells, and the move
        # tables of all queries, sum_q bins_q^2 entries each.  The bin table is
        # smaller than cells x cells: unique queries number fewer than cells.
        if max(cells * cells, sum(k * k for k in op.num_bins)) > _BRUTE_ENTRIES:
            raise SynthesisError("joint domain too large for the greedy path; use fitted mode")
        return "greedy"
    if mode == "fitted":
        if cells > DENSE_CELL_CAP:
            raise SynthesisError(f"joint domain of {cells} cells exceeds dense-mode cap {DENSE_CELL_CAP}")
        if table > _BRUTE_ENTRIES:
            raise SynthesisError(f"bin table of {table} entries too large for the fitted path")
        return "fitted"
    raise SynthesisError(f"unknown mode {mode!r}; expected 'brute' or 'fitted'")


def brute_force_synth(n: int, nm: NoisyMarginalSet) -> np.ndarray:
    """Int64 cell counts of the minimizer of max_q ||h_q - M_q(D)||_1 over size-n multisets.

    Ties are broken by the lexicographically smallest multiset encoding
    (candidates are scanned in that order and only strict improvements are
    kept).  All C(|cells|+n-1, n) candidates are scanned: `synthesize` has
    checked that their count fits its cap (`_path`).

    Candidates are scored _SCAN_BATCH at a time, each batch by a fixed number
    of numpy calls.  The batch's cells are read by np.fromiter from the
    flattened stream of `combinations_with_replacement`, in its order, with
    no list of tuples per batch to convert.  Gathering the operator's
    `bin_maps` at those cells and adding the (queries x batch) shift of each
    query's offset and each candidate's place in the batch, built once per
    scan, lets one bincount give every query's marginal of every candidate.  Each query's l1
    is `MarginalOperator.query_sums` of the batch's absolute residuals, which
    is bit-equal to summing one candidate's query at a time, as
    `MarginalOperator.l1_to` does, so objectives and ties are those of
    scoring the candidates one by one (np.add.reduceat adds in another order
    and can pick another multiset among near-ties).  The first minimum of a
    batch is kept only if it is strictly below the best so far, which is the
    lexicographic tie-break.  Memory is fixed by the batch, not by the
    candidate count, and the queries x cells table is read, never copied.
    n = 0 has one candidate, the empty multiset: all-zero counts.
    """
    op, target = nm.operator, nm.target
    cells = op.num_cells
    if n == 0:
        return np.zeros(cells, dtype=np.int64)
    total = target.shape[0]
    stream = chain.from_iterable(combinations_with_replacement(range(cells), n))
    shift = op.offsets[:, None] + total * np.arange(_SCAN_BATCH)
    best_cells, best_obj = None, math.inf
    while (rows := np.fromiter(islice(stream, _SCAN_BATCH * n), dtype=np.intp)).size:
        rows = rows.reshape(-1, n)
        size = rows.shape[0]
        flat = op.bin_maps[:, rows.T]
        flat += shift[:, None, :size]
        marg = np.bincount(flat.ravel(), minlength=total * size)
        obj = op.query_sums(np.abs(target - marg.reshape(size, total))).max(axis=-1)
        at = int(np.argmin(obj))
        if obj[at] < best_obj:
            best_cells, best_obj = rows[at], obj[at]
    return np.bincount(best_cells, minlength=cells)


def _descend(counts: np.ndarray, nm: NoisyMarginalSet) -> tuple[np.ndarray, np.ndarray]:
    """One-row-move descent on the max-l1 objective from `counts` (updated in
    place): the final counts and every query's final l1 to the noisy marginals.
    `synthesize` starts it from the rounded dense fit (`sample_dataset`);
    `_path` has checked that a step's arrays fit.

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
        if probs.ndim != 1 or probs.shape[0] != math.prod(self.schema.sizes):
            raise SynthesisError("probs must be a flat vector over the joint domain")
        if (not np.isfinite(probs).all() or (probs < -1e-12).any()
                or abs(float(probs.sum()) - 1.0) > 1e-9):
            raise SynthesisError("probs must be a finite, normalized, non-negative distribution")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def _simplex_projector(size: int):
    """Euclidean projection onto {p >= 0, sum p = 1} of vectors of `size`
    entries (sort-based, O(n log n)), into a new array.

    Its work arrays are allocated here, once, and reused by every call.
    """
    ranks = np.arange(1.0, size + 1.0)
    u, css, scaled = np.empty(size), np.empty(size), np.empty(size)
    above = np.empty(size, dtype=bool)
    desc = u[::-1]

    def project(v: np.ndarray) -> np.ndarray:
        np.copyto(u, v)
        u.sort()
        np.subtract(np.cumsum(desc, out=css), 1.0, out=css)
        np.multiply(desc, ranks, out=scaled)
        np.greater(scaled, css, out=above)
        # the last index where above holds; above[0] always holds
        rho = size - 1 - int(np.argmax(above[::-1]))
        out = np.subtract(v, css[rho] / (rho + 1.0))
        return np.maximum(out, 0.0, out=out)

    return project


def fit_distribution(nm: NoisyMarginalSet, n: float, iters: int = 2000) -> DistributionEstimate:
    """Minimize sum_q ||n * M_q(p) - h_q||_2^2 over the probability simplex.

    Accelerated projected gradient (FISTA: Beck & Teboulle 2009) with the two
    restarts of O'Donoghue & Candes (2015).  Function-value restart: an
    iteration that would raise the objective is rejected and the momentum
    restarts from the current iterate, so the recorded objective never rises.
    Gradient restart: an accepted step from y to p_new restarts the momentum
    (t = 1) when (y - p_new).(p_new - p) > 0, that is when the step's
    projected gradient points against the direction the iterate moved.

    The objective is computed in the eigenbasis of the operator's A^T A
    (`MarginalOperator.transform` T and `spectrum` lambda).  With b = A^T h
    (h: all queries' noisy bins in one vector), c* = T b / (n lambda) where
    lambda > 0 (0 elsewhere) and p* = T c*, the residual n A p* - h is
    orthogonal to the range of A, so with d = T p - c*
        f(p) = n^2 sum lambda d^2 + ||n A p* - h||^2,   grad f(p) = 2 n^2 T (lambda d).
    The start is the projection of T c_u, where c_u is c* with its constant
    coefficient (index 0) set to 1/sqrt(cells), the value it has for every p
    summing to 1: T c_u = p* + (1/sqrt(cells) - c*_0) / sqrt(cells) is the
    minimum-norm minimizer of f on the plane sum p = 1.
    When it is non-negative it minimizes f on the simplex, and the first
    iteration, whose gradient is constant, confirms it and stops the fit.
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
    and the uniform distribution is returned, converged, after no iteration.
    Negative noisy entries need no pre-clamping; the simplex projection
    resolves them.  The work arrays of an iteration (y, the gradient's input,
    weight * d and the projection's) are allocated once per fit and also
    hold the restart test's differences; an iteration allocates only its two
    transforms' results and the new iterate.
    """
    op, target = nm.operator, nm.target
    cells = op.num_cells
    if n == 0:
        uniform = np.full(cells, 1.0 / cells)
        return DistributionEstimate(nm.schema, uniform, (float(target @ target),), True)
    lam = op.spectrum
    coef = op.transform(op.adjoint(target))
    c_star = np.divide(coef, n * lam, out=np.zeros(cells), where=lam > 0)
    p_star = op.transform(c_star)
    r_star = n * op.forward(p_star) - target
    base = float(r_star @ r_star)
    weight = n * n * lam
    weight2 = 2.0 * weight
    lipschitz = 2.0 * float(weight[1:].max())
    project = _simplex_projector(cells)
    # y, the gradient's input and weight * d (also scratch for beta * d_prev)
    y, grad_in, wd = np.empty(cells), np.empty(cells), np.empty(cells)

    def objective(d):
        return float(d @ np.multiply(weight, d, out=wd)) + base

    root = math.sqrt(cells)
    p_star += (1.0 / root - c_star[0]) / root  # T c_u
    p = project(p_star)
    d = op.transform(p) - c_star
    obj = objective(d)
    p_prev, d_prev, t = p, d, 1.0
    trace = [obj]
    converged = False
    for _ in range(iters):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        np.subtract(p, p_prev, out=y)  # y = p + beta (p - p_prev)
        y *= beta
        y += p
        np.multiply(d, 1.0 + beta, out=grad_in)  # 2 weight ((1 + beta) d - beta d_prev)
        grad_in -= np.multiply(d_prev, beta, out=wd)
        grad_in *= weight2
        step = op.transform(grad_in)  # the gradient, then y - gradient / L
        step /= lipschitz
        p_new = project(np.subtract(y, step, out=step))
        d_new = op.transform(p_new)
        d_new -= c_star
        obj_new = objective(d_new)
        if obj_new >= obj and beta == 0.0:
            trace.append(obj)
            converged = True
            break
        if obj_new > obj:
            p_prev, d_prev, t = p, d, 1.0
            trace.append(obj)
            continue
        # gradient restart: (y - p_new).(p_new - p) > 0, in the work arrays
        restart = float(np.subtract(y, p_new, out=grad_in) @ np.subtract(p_new, p, out=wd)) > 0.0
        p_prev, d_prev, p, d, t = p, d, p_new, d_new, 1.0 if restart else t_next
        trace.append(obj_new)
        if obj - obj_new <= _FIT_TOL * obj:
            converged = True
            break
        obj = obj_new
    return DistributionEstimate(nm.schema, p, tuple(trace), converged)


# ---------------------------------------------------------------------------
# Rounding


def sample_dataset(dist: DistributionEstimate, n: int) -> np.ndarray:
    """Int64 cell counts of size n: the largest-remainder rounding of n*p, the
    program's one rounding (the fitted output and the greedy descent's start).

    With p the clipped probabilities and mu = n * p / sum(p), every cell gets
    floor(mu) and the r = n - sum(floor(mu)) cells of largest remainder one
    more, ties to the first cells: exactly n rows, each count floor(mu) or
    floor(mu) + 1, zero-probability cells empty.  The r-th largest remainder
    is found by a partition, so the rounding is O(cells): every cell above it
    gets one more, then the first of the cells equal to it, as many as are
    left.  That picks the first r cells of a stable sort by remainder.  The
    name is the benchmark tracer's site for this stage; it changes with the
    benchmark.
    """
    probs = np.maximum(dist.probs, 0.0)
    mu = probs * (n / probs.sum())
    floors = np.floor(mu).astype(np.int64)
    r = n - int(floors.sum())
    if r > 0:
        key = floors - mu  # minus the remainder
        kth = np.partition(key, r - 1)[r - 1]
        below = key < kth
        floors[below] += 1
        floors[np.flatnonzero(key == kth)[:r - np.count_nonzero(below)]] += 1
    return floors


# ---------------------------------------------------------------------------
# End-to-end mechanism


def synthesize(n: int, nm: NoisyMarginalSet, mode: str,
               cap: int = DEFAULT_CANDIDATE_CAP) -> tuple[Dataset, dict]:
    """Build a size-n dataset from noisy marginals only (no access to real data).

    mode "fitted" returns `sample_dataset`, the largest-remainder rounding of
    n times the dense fit.  mode "brute" uses exhaustive search when the
    candidate count and the cell count fit `cap`, and otherwise runs the
    one-row-move descent (`_descend`) from that same rounding.  No path draws
    a random number, so the output is a function of n, `nm`, mode and cap.
    `_path` is the one check of the request.  The stats hold the
    path that ran ("path": "exhaustive", "greedy" or "fitted"), the output's
    marginals in the layout of `nm.operator` ("marginals"), the max and
    mean over queries of their l1 distance to the noisy targets
    ("l1_to_noisy_max", "l1_to_noisy_mean"), and the fit's iteration count
    and convergence ("fit_iterations", "fit_converged": 0 and None on the
    exhaustive path, the one that runs no fit).  The marginals and the
    dataset both come from the path's cell counts; the dataset holds them
    and builds no rows.
    """
    path = _path(n, nm.operator, mode, cap)
    fit = {"fit_iterations": 0, "fit_converged": None}
    if path == "exhaustive":
        counts = brute_force_synth(n, nm)
    else:
        dist = fit_distribution(nm, n=n)
        fit = {"fit_iterations": len(dist.objective_trace) - 1, "fit_converged": dist.converged}
        counts = sample_dataset(dist, n)
        if path == "greedy":
            counts, _ = _descend(counts, nm)

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
    and whether it converged before its cap (the greedy starts from that fit;
    0 and None on the exhaustive path, which runs none).
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


def generate_synthetic(ds_real: Dataset, d: int, privacy: PrivacyParams,
                       mode: str = "fitted", seed: int = 0,
                       cap: int = DEFAULT_CANDIDATE_CAP) -> tuple[Dataset, GenReport]:
    """Measure all order-<=d marginals, noise them, synthesize, and report.

    The operator over the queries comes from `order_operator`, so the
    releases of one (schema, d) share one, with its bin table, spectrum and
    transform factors.  The request is checked as `synthesize` checks it
    (`_path`, which reads only sizes), so a joint domain too large for the
    path is refused before anything of its size is allocated, and a budget
    `calibrate` refuses before the real data is read.
    Then the real data is counted once into joint cells, and the operator's
    `forward` of those counts gives every real marginal: sums of whole
    numbers, so the same floats as counting each query on its own.  The noise
    is drawn into that one vector by one generator (`add_noise_to_set`), and
    the noisy set holds it on the same operator.  Synthesis draws nothing, so
    `seed` seeds only the noise.
    sigma is always the Gaussian-mechanism calibration of `privacy`, so the
    report's epsilon and delta are those of the noise actually added.  (To
    synthesize from given marginals `counts` in the operator's layout, with
    any noise or none, call
    `synthesize(n, NoisyMarginalSet(MarginalOperator(schema, queries), counts), mode)`.)
    Fixed seed gives a bit-identical dataset on one platform.
    """
    schema = ds_real.schema
    m = schema.num_features
    op = order_operator(schema, d)
    _path(ds_real.n, op, mode, cap)
    sigma = calibrate(m, d, privacy)
    joint = compute_marginal(ds_real, MarginalQuery(tuple(range(schema.num_attributes))))
    real = op.forward(joint)
    nm = NoisyMarginalSet(op, add_noise_to_set(real, op.num_bins, sigma, seed))
    ds_s, stats = synthesize(ds_real.n, nm, mode, cap=cap)

    # evaluation-only diagnostics, outside the mechanism boundary
    real_l1 = op.l1_to(stats["marginals"], real)
    norm_l1 = real_l1 / ds_real.n if ds_real.n else np.zeros(1)

    l1_bound = synthesis_l1_bound(sigma, d, m, schema.max_domain_size, privacy.lam)
    report = GenReport(
        n=ds_real.n, d=d, mode=mode, path=stats["path"], seed=seed, sigma=sigma,
        sensitivity=marginal_set_sensitivity(m, d),
        epsilon=privacy.epsilon,
        delta=privacy.delta,
        query_count=len(op.queries),
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

"""Synthetic data generation from noisy marginals.

Two strategies stand behind one entry point:

  "brute"   minimize the maximum l1 distance to the noisy marginals over
            size-n multisets of the joint domain by exhaustive enumeration
            when the count of multisets fits the configured cap (the
            marginals of each (n-1)-cell prefix counted once, a batch of
            prefixes per bincount, and each candidate's l1 distances read
            from its prefix's tables, or scored on their own for queries
            wider than a prefix has last cells on average).  Only this scan
            reads the operator's queries x cells bin table.  Above the cap,
            mode "brute" is exactly "fitted".
  "fitted"  least-squares fit of a dense joint distribution to the noisy
            marginals (accelerated projected gradient on the probability
            simplex with restarts, computed in the eigenbasis of the
            operator's A^T A: two operator applications per fit, each
            applied in that basis with no table over the cells, two small
            Kronecker transforms per iteration, an exact step, a start at
            the closed-form minimizer on the plane sum p = 1, projected,
            stopping on a relative-decrease test), then the largest-remainder
            rounding of n times the fitted joint (`sample_dataset`, O(cells)):
            counts summing to n, each the floor or the ceiling of n*p.

No path draws a random number: the output is a deterministic function of
the release (its noisy marginals and n) and the cap, so the only randomness
of the mechanism is its noise.  Each path outputs an int64 count per joint
cell; only `synthesize` turns them into marginals and a dataset.  That
dataset holds the counts (`Dataset.from_counts`) and builds rows only when
they are read.  `synthesize` sees only the `Release`; diagnostics against
the real data are made outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, islice

import numpy as np

from .dataset import Dataset, Schema
from .marginals import MarginalOperator, MarginalQuery, bin_sums, compute_marginal, order_operator
from .privacy import (PrivacyParams, add_noise_to_set, calibrate, marginal_set_sensitivity,
                      synthesis_l1_bound)

DEFAULT_CANDIDATE_CAP = 10_000_000
DENSE_CELL_CAP = 1_000_000
# The dense fit stops, converged, once an accepted step lowers its objective
# by at most this fraction of its value.
_FIT_TOL = 1e-10
# Candidates the exhaustive scan scores per chunk, and about as many per
# batch of prefixes.  On the brute panel's exhaustive instance (32 cells, 15
# queries, n = 3; workload seeds 1, 2 and 1009; one BLAS thread, fresh
# interpreters, best of 40 scans, three rounds) chunks of 256, 512, 768,
# 1,024 and 2,048 took 2.0-3.1, 1.3-2.3, 1.1-2.5, 1.0-1.8 and 1.3-1.5 ms per
# scan, and on (7, 9, 2) at d = 2, n = 2 5.0, 3.0-4.7, 2.4-3.6, 2.0-3.0 and
# 1.5-1.6 ms.  But past 512 the 528 candidates of n = 2 on 32 cells no
# longer fill a batch, so the peak allocation grows with the candidate count:
# at n = 3 it is 1.9x (768), 2.5x (1,024) and 4.5x (2,048) that at n = 2,
# against 1.3x at 512 (0.25 and 0.34 MB).
_SCAN_BATCH = 512
# Most entries of the queries x cells bin table, which only the exhaustive
# scan reads: 2e8 intp entries are 1.6 GB.
_TABLE_ENTRIES = 200_000_000


class SynthesisError(ValueError):
    """Synthesis request outside the supported regime."""


@dataclass(frozen=True)
class Release:
    """One release: the noisy marginals of n >= 0 rows at noise scale `sigma`
    (0 for marginals given as they are).  `target` holds one finite count per
    bin of every query of `operator`, in its layout, as a read-only copy; the
    queries are non-empty and unique.  `schema` is the operator's.
    """

    operator: MarginalOperator
    target: np.ndarray
    n: int
    sigma: float
    schema: Schema = field(init=False)

    def __post_init__(self):
        op = self.operator
        object.__setattr__(self, "schema", op.schema)
        if self.n < 0:
            raise SynthesisError("n must be non-negative")
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
    """The path `synthesize` runs for a release's n rows and the queries of `op`,
    or the SynthesisError that refuses the request: the one size and mode check.

    It reads only sizes, so `generate_synthetic` asks it before counting the
    real data or reading the operator's arrays, which span the joint domain.
    Mode "brute" takes the exhaustive path when its C(cells + k - 1, k)
    candidates, k = max(n, 1), fit `cap` (so n = 0 goes where n = 1 goes),
    and otherwise the fitted path with its refusals, as mode "fitted" does.
    The count is built one integer factor at a time and stops once past
    `cap`: at most a few hundred steps on 4 or more cells at the default cap.
    The exhaustive scan reads the operator's queries x cells `bin_maps`, so
    it is refused when that holds more than _TABLE_ENTRIES entries; the
    fitted path reads no table, so only DENSE_CELL_CAP refuses it.
    """
    cells = op.num_cells
    count = 1
    if mode == "brute":
        for j in range(1, max(n, 1) + 1):
            count = count * (cells + j - 1) // j
            if count > cap:
                break
    if mode == "brute" and count <= cap:
        table = len(op.num_bins) * cells
        if table > _TABLE_ENTRIES:
            raise SynthesisError(f"bin table of {table} entries too large for the exhaustive path")
        return "exhaustive"
    if mode not in ("brute", "fitted"):
        raise SynthesisError(f"unknown mode {mode!r}; expected 'brute' or 'fitted'")
    if cells > DENSE_CELL_CAP:
        raise SynthesisError(f"joint domain of {cells} cells exceeds dense-mode cap {DENSE_CELL_CAP}")
    return "fitted"


def _prefixes(cells: int, k: int, size: int):
    """The k-cell multisets of the joint cells in lexicographic order, `size`
    at a time, each batch an intp array of shape (multisets, k).  k = 0 gives
    the one empty multiset.  The cells are read by np.fromiter from the
    flattened stream of `combinations_with_replacement`, in its order, with
    no list of tuples per batch to convert."""
    if k == 0:
        yield np.empty((1, 0), dtype=np.intp)
        return
    stream = chain.from_iterable(combinations_with_replacement(range(cells), k))
    while (rows := np.fromiter(islice(stream, size * k), dtype=np.intp)).size:
        yield rows.reshape(-1, k)


def brute_force_synth(n: int, nm: Release) -> np.ndarray:
    """Int64 cell counts of the minimizer of max_q ||h_q - M_q(D)||_1 over size-n multisets.

    Ties are broken by the lexicographically smallest multiset encoding
    (candidates are scanned in that order and only strict improvements are
    kept).  All C(|cells|+n-1, n) candidates are scanned: `synthesize` has
    checked that their count fits its cap (`_path`).

    A candidate is an (n-1)-cell prefix p, the prefixes in lexicographic
    order, followed by a last cell c >= last(p): its marginals are the
    prefix's h_p plus one count in bin bin_maps[q, c] of each query q.  The
    prefixes are read a batch at a time (`_prefixes`), as many as have about
    _SCAN_BATCH candidates, and one bincount of the operator's `bin_maps`
    gathered at their cells and shifted by each query's offset and each
    prefix's place gives every query's marginal of every prefix.

    Each run of equal-sized queries (`MarginalOperator.runs`) of k bins is
    then scored one of two ways.  A prefix has (cells + n - 1) / n last
    cells on average; a run of at most that many bins, and at most
    _SCAN_BATCH, is tabled: for each prefix, query and bin j, the l1
    distance ||t_q - (h_p + e_j)||_1, k sums of k absolute residuals, and a
    candidate's distance is the entry of its prefix at j = bin_maps[q, c].
    A wider run is scored per candidate, in one array of a chunk's
    candidates by the run's bins: the prefix's marginals, one count added at
    the last cell's bins, then the absolute residuals, summed.  The
    marginals are held as floats, exact as whole numbers, so a residual is
    the float that counting the candidate alone gives.  Either way each sum
    is `bin_sums`, bit-equal to summing one candidate's query at a time, as
    `MarginalOperator.l1_to` does, so objectives and ties are those of
    scoring the candidates one by one (np.add.reduceat adds in another order
    and can pick another multiset among near-ties).  The rule reads only the
    input's shape and the batch, and a table holds no more entries than
    scoring a batch's candidates would.

    A batch's candidates are scored _SCAN_BATCH at a time in their order,
    so the last cells of one prefix may fall in several chunks (at n = 1 the
    one empty prefix has every cell); a chunk's objective is the max over
    queries.  Its first minimum is kept only if it is strictly below the
    best so far, which is the lexicographic tie-break.  Memory is fixed by
    the batch, not by the candidate count, and the queries x cells table is
    read, never copied.  n = 0 has one candidate, the empty multiset:
    all-zero counts.
    """
    op, target = nm.operator, nm.target
    cells = op.num_cells
    if n == 0:
        return np.zeros(cells, dtype=np.int64)
    total = target.shape[0]
    # the tabled runs' (first bin, queries, bins), those runs as ranges of
    # consecutive queries, each gathered at once, and the other runs' (first
    # query, first bin, queries, bins)
    tabled, spans, direct = [], [], []
    q = 0
    for first, count, bins in op.runs:
        if bins * n > cells + n - 1 or bins > _SCAN_BATCH:
            direct.append((q, first, count, bins))
        else:
            tabled.append((first, count, bins))
            if spans and spans[-1][1] == q:
                spans[-1][1] += count
            else:
                spans.append([q, q + count])
        q += count
    batch = max(1, _SCAN_BATCH * n // (cells + n - 1))  # prefixes
    shift = op.offsets[:, None] + total * np.arange(batch)
    best_cells, best_obj = None, math.inf
    for rows in _prefixes(cells, n - 1, batch):
        size = rows.shape[0]
        flat = op.bin_maps.take(rows.T, axis=1)
        flat += shift[:, None, :size]
        marg = np.bincount(flat.ravel(), minlength=total * size).reshape(size, total).astype(np.float64)
        if tabled:
            low, high = np.abs(target - marg), np.abs(target - (marg + 1))
            table = np.empty((size, total))
            for first, count, bins in tabled:
                cut = np.s_[:, first:first + count * bins]
                sums = np.empty((size, bins, count, bins))  # prefix, bin, query, the bin raised
                sums[...] = low[cut].reshape(size, count, bins).transpose(0, 2, 1)[..., None]
                raised = np.arange(bins)
                sums[:, raised, :, raised] = high[cut].reshape(size, count, bins).transpose(2, 0, 1)
                out = np.zeros((size, count, bins))
                bin_sums(sums, out)
                table[cut] = out.reshape(size, -1)
        ends = np.cumsum(cells - rows[:, -1]) if n > 1 else np.array([cells])
        for start in range(0, int(ends[-1]), _SCAN_BATCH):
            pos = np.arange(start, min(start + _SCAN_BATCH, int(ends[-1])))
            pre = np.searchsorted(ends, pos, side="right")  # each candidate's prefix
            cell = pos + (cells - ends)[pre]
            row = pre * total
            obj = None
            for q, end in spans:
                idx = op.bin_maps[q:end].take(cell, axis=1)
                idx += op.offsets[q:end, None]
                idx += row
                part = np.take(table, idx).max(axis=0)
                obj = part if obj is None else np.maximum(obj, part, out=obj)
            for q, first, count, bins in direct:
                res = marg[pre, first:first + count * bins]  # the candidates' marginals, then residuals
                idx = op.bin_maps[q:q + count].take(cell, axis=1)
                idx += bins * np.arange(count)[:, None]
                res[np.arange(pos.size), idx] += 1
                np.subtract(target[first:first + count * bins], res, out=res)
                l1 = np.zeros((count, pos.size))
                bin_sums(np.abs(res, out=res).T.reshape(count, bins, -1), l1)
                del res  # before the next chunk gathers its own
                part = l1.max(axis=0)
                obj = part if obj is None else np.maximum(obj, part, out=obj)
            at = int(np.argmin(obj))
            if obj[at] < best_obj:
                best_cells, best_obj = np.append(rows[pre[at]], cell[at]), obj[at]
    return np.bincount(best_cells, minlength=cells)


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


def fit_distribution(release: Release, iters: int = 2000) -> DistributionEstimate:
    """Minimize sum_q ||n * M_q(p) - h_q||_2^2 over the simplex, n and h the release's.

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
    op, target, n = release.operator, release.target, release.n
    cells = op.num_cells
    if n == 0:
        uniform = np.full(cells, 1.0 / cells)
        return DistributionEstimate(release.schema, uniform, (float(target @ target),), True)
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
    return DistributionEstimate(release.schema, p, tuple(trace), converged)


# ---------------------------------------------------------------------------
# Rounding


def sample_dataset(dist: DistributionEstimate, n: int) -> np.ndarray:
    """Int64 cell counts of size n: the largest-remainder rounding of n*p, the
    program's one rounding and the fitted path's output, in either mode.

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


def synthesize(release: Release, mode: str, cap: int = DEFAULT_CANDIDATE_CAP) -> tuple[Dataset, dict]:
    """Build a dataset of `release.n` rows from the release alone (no access to real data).

    mode "fitted" returns `sample_dataset`, the largest-remainder rounding of
    n times the dense fit.  mode "brute" uses exhaustive search when the
    candidate count and the cell count fit `cap`, and otherwise returns that
    same rounding, the fitted path's output.  No path draws a random number,
    so the output is a function of the release, mode and cap.  `_path` is
    the one check of the request.  The stats hold the path that ran
    ("path": "exhaustive" or "fitted"), the output's
    marginals in the layout of `release.operator` ("marginals"), the max and
    mean over queries of their l1 distance to the noisy targets
    ("l1_to_noisy_max", "l1_to_noisy_mean"), and the fit's iteration count
    and convergence ("fit_iterations", "fit_converged": 0 and None on the
    exhaustive path, the one that runs no fit).  The marginals and the
    dataset both come from the path's cell counts; the dataset holds them
    and builds no rows.
    """
    path = _path(release.n, release.operator, mode, cap)
    fit = {"fit_iterations": 0, "fit_converged": None}
    if path == "exhaustive":
        counts = brute_force_synth(release.n, release)
    else:
        dist = fit_distribution(release)
        fit = {"fit_iterations": len(dist.objective_trace) - 1, "fit_converged": dist.converged}
        counts = sample_dataset(dist, release.n)

    marginals = release.operator.forward(counts)
    dists = release.operator.l1_to(marginals, release.target)
    stats = {"path": path, "marginals": marginals, "l1_to_noisy_max": float(dists.max()),
             "l1_to_noisy_mean": float(np.mean(dists)), **fit}
    return Dataset.from_counts(release.schema, counts), stats


@dataclass(frozen=True)
class GenReport:
    """Provenance of one synthetic dataset.

    sigma is calibrated from epsilon and delta with the mechanism's
    sensitivity, so the privacy claim describes the noise actually added.
    `bound_certified` says whether the output is within half of
    `l1_bound_at_lam` of the noisy marginals; by the triangle inequality the
    bound then holds for it on the same 1 - 2^-lam event, whichever path ran.
    It reads only noisy data, as do `path`, the synthesis path that ran
    ("exhaustive" or, above the cap, "fitted" in mode "brute"; "fitted" in
    mode "fitted"), and `fit_iterations` and `fit_converged`, the dense fit's
    iteration count and whether it converged before its cap (0 and None on
    the exhaustive path, which runs none).
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
    releases of one (schema, d) share one, with its query groups, spectrum
    and (for the exhaustive scan) bin table.  The request is checked as
    `synthesize` checks it (`_path`, which reads only sizes), so a joint
    domain too large for the path is refused before anything of its size is
    allocated, and a budget `calibrate` refuses before the real data is
    read.
    Then the real data is counted once into joint cells, and the operator's
    `forward` of those counts gives every real marginal: sums of whole
    numbers, so the same floats as counting each query on its own.  The noise
    is drawn into that one vector by one generator (`add_noise_to_set`), and
    the `Release` holds it on the same operator with n and sigma, which the
    report reads.  Synthesis draws nothing, so `seed` seeds only the noise.
    sigma is always the Gaussian-mechanism calibration of `privacy`, so the
    report's epsilon and delta are those of the noise actually added.  (To
    synthesize n rows from given marginals `counts` in the operator's layout,
    with any noise or none, call
    `synthesize(Release(MarginalOperator(schema, queries), counts, n, sigma), mode)`.)
    Fixed seed gives a bit-identical dataset on one platform.
    """
    schema = ds_real.schema
    m = schema.num_features
    op = order_operator(schema, d)
    _path(ds_real.n, op, mode, cap)
    sigma = calibrate(m, d, privacy)
    joint = compute_marginal(ds_real, MarginalQuery(tuple(range(schema.num_attributes))))
    real = op.forward(joint)
    release = Release(op, add_noise_to_set(real, sigma, seed), ds_real.n, sigma)
    ds_s, stats = synthesize(release, mode, cap=cap)

    # evaluation-only diagnostics, outside the mechanism boundary
    real_l1 = op.l1_to(stats["marginals"], real)
    norm_l1 = real_l1 / release.n if release.n else np.zeros(1)

    l1_bound = synthesis_l1_bound(release.sigma, d, m, schema.max_domain_size, privacy.lam)
    report = GenReport(
        n=release.n, d=d, mode=mode, path=stats["path"], seed=seed, sigma=release.sigma,
        sensitivity=marginal_set_sensitivity(m, d),
        epsilon=privacy.epsilon,
        delta=privacy.delta,
        query_count=len(release.operator.queries),
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

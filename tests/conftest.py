import csv
import math
import re
from collections import Counter
from itertools import combinations_with_replacement

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from margsyn.bounds import (DERIVATIVE_CERT, LN2, LOGISTIC_CURVATURE, MARGINAL_HOPS, POLY_HOPS,
                            UNIFORM_CERT, BoundError, BoundInputs, BoundReport, _require)
from margsyn.cli import main
from margsyn.dataset import Dataset, DomainError, ParseError, Schema
from margsyn.evaluate import _weighted_auc
from margsyn.learn import LinearModel, predict
from margsyn.marginals import MarginalOperator, MarginalQuery, compute_marginal
from margsyn.privacy import add_noise_to_set
from margsyn.synth import Release, fit_distribution, sample_dataset

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def assert_refused(capsys, argv: list[str], match: str) -> None:
    """The CLI refuses argv at its error boundary: exit status 2 and one
    `margsyn <command>: error: <message>` line on stderr, the message
    matching the regex `match`."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"margsyn {argv[0]}: error: [^\n]*\n", err), err
    assert re.search(match, err), err


@pytest.fixture
def two_binary_rows():
    """Rows {(0,0),(0,1),(1,1),(1,1)} over one binary feature plus label."""
    schema = Schema(("a", "label"), (2, 2))
    return Dataset(schema, np.array([[0, 0], [0, 1], [1, 1], [1, 1]]))


@pytest.fixture
def three_binary_schema():
    return Schema(("a", "b", "c", "label"), (2, 2, 2, 2))


def random_dataset(schema: Schema, n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    codes = np.column_stack([rng.integers(0, s, size=n) for s in schema.sizes])
    return Dataset(schema, codes)


def cell_counts(ds: Dataset) -> np.ndarray:
    """Number of the dataset's rows in each joint cell, counted row by row."""
    flat = np.ravel_multi_index(tuple(ds.codes.T), ds.schema.sizes)
    return np.bincount(flat, minlength=math.prod(ds.schema.sizes))


def reference_row_multiset(ds: Dataset) -> Counter:
    """The dataset's rows with their multiplicities, counted row by row."""
    return Counter(map(tuple, ds.codes.tolist()))


def reference_l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """l1 distance between two marginal vectors of the same query."""
    assert a.shape == b.shape, f"shape mismatch: {a.shape} vs {b.shape}"
    return float(np.abs(a - b).sum())


def reference_add_noise_to_set(marginals: list[np.ndarray], sigma: float, seed: int) -> list[np.ndarray]:
    """Noise every marginal vector from one stream, one vector per query: the
    queries, in order, each take their entries' independent N(0, sigma^2)
    draws in turn from one default_rng(seed), and nothing is drawn at sigma 0."""
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    rng = np.random.default_rng(seed)
    return [h + (rng.normal(0.0, sigma, size=h.shape) if sigma > 0 else 0.0) for h in marginals]


def reference_gaussian_delta(eps: float, r: float) -> float:
    """Exact delta of the Gaussian mechanism with sensitivity / sigma = r at eps,
    Phi(r/2 - eps/r) - e^eps Phi(-r/2 - eps/r) (Balle & Wang, ICML 2018, Thm 8),
    evaluated with 50 significant digits."""
    with mpmath.workdps(50):
        eps, r = mpmath.mpf(eps), mpmath.mpf(r)
        return float(mpmath.ncdf(r / 2 - eps / r) - mpmath.exp(eps) * mpmath.ncdf(-r / 2 - eps / r))


def release_of(schema: Schema, marginals: list[tuple[MarginalQuery, np.ndarray]], n: int,
               sigma: float = 0.0, seed: int = 0) -> Release:
    """The release of n rows from (query, marginal vector) pairs, in their order:
    one operator over their queries and `add_noise_to_set` of their
    concatenated vectors (at sigma 0, the vectors themselves)."""
    op = MarginalOperator(schema, [q for q, _ in marginals])
    counts = np.concatenate([h for _, h in marginals])
    return Release(op, add_noise_to_set(counts, op.num_bins, sigma, seed), n, sigma)


def per_query(nm: Release) -> list[tuple[MarginalQuery, np.ndarray]]:
    """The release's (query, marginal vector) pairs, one per query of its operator, in order."""
    op = nm.operator
    return [(q, nm.target[o:o + k]) for q, o, k in zip(op.queries, op.offsets, op.num_bins)]


def reference_counts_to_rows(counts: np.ndarray, schema: Schema) -> np.ndarray:
    """Codes of the rows of a cell-count vector: one cell id per row, each unravelled."""
    cell_ids = np.repeat(np.arange(counts.shape[0]), counts.astype(np.int64))
    return np.stack(np.unravel_index(cell_ids, schema.sizes), axis=1)


def reference_load_csv(path, schema: Schema) -> Dataset:
    """The coded-CSV loader that parses and range-checks each cell in Python, line by line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: missing header row") from None
        if tuple(h.strip() for h in header) != schema.names:
            raise ParseError(f"{path}: header {header} does not match schema {list(schema.names)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != schema.num_attributes:
                raise ParseError(f"{path}:{lineno}: expected {schema.num_attributes} cells, got {len(row)}")
            try:
                coded = [int(cell) for cell in row]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            for j, c in enumerate(coded):
                if not 0 <= c < schema.sizes[j]:
                    raise DomainError(
                        f"{path}:{lineno}: code {c} out of range for {schema.names[j]!r} (size {schema.sizes[j]})"
                    )
            rows.append(coded)
    codes = np.asarray(rows, dtype=np.int64).reshape(len(rows), schema.num_attributes)
    return Dataset(schema, codes)


def reference_risk_and_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray, spec):
    """The row-by-row risk (1/n) sum phi(t) and its gradient over all n rows."""
    t = (X @ w) * y
    val = float(np.mean(spec.value(t)))
    g = (X.T @ (spec.grad(t) * y)) / X.shape[0]
    return val, g


def reference_average_ranks(values: np.ndarray) -> np.ndarray:
    """Tie spans walked one by one: each gets the mean of its 1-based ranks."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    ranks = np.empty(values.shape[0], dtype=np.float64)
    i = 0
    while i < values.shape[0]:
        j = i
        while j + 1 < values.shape[0] and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def reference_roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney rank sum over every row: (R_+ - n_+(n_+ + 1)/2) / (n_+ n_-)."""
    n_pos = int(np.sum(labels > 0))
    n_neg = int(np.sum(labels <= 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs both classes present")
    rank_sum_pos = float(reference_average_ranks(scores)[labels > 0].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def weighted_auc_by_label(scores, labels) -> float:
    """`evaluate._weighted_auc` over rows with +-1 labels, each row counted once.

    Not an oracle: it runs the production formula from a list of labels;
    `reference_roc_auc` is the independent reference.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return _weighted_auc(scores, labels > 0, labels <= 0)


def reference_encode_xy(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Features in [-1, 1] and +-1 labels of all n rows, encoded row by row."""
    sizes = np.asarray(ds.schema.sizes, dtype=np.float64)
    mat = 2.0 * ds.codes.astype(np.float64) / (sizes - 1.0) - 1.0
    return mat[:, :-1], mat[:, -1]


def reference_scores(model, ds: Dataset) -> dict:
    """Accuracy, ROC-AUC (None with one class) and empirical risk, row by row over all n rows."""
    X, y = reference_encode_xy(ds)
    labels, scores = predict(model, X)
    auc = reference_roc_auc(scores, y) if len(set(y.tolist())) == 2 else None
    return {"accuracy": float(np.mean(labels == y)), "roc_auc": auc,
            "empirical_risk": float(np.mean(model.loss.value(scores * y)))}


def reference_sgd(ds: Dataset, spec, iterations: int, batch_size: int,
                  learning_rate: float, rng: np.random.Generator) -> LinearModel:
    """Minibatch SGD without clipping or noise, sampling batches as `learn.dp_sgd` does."""
    X, y = reference_encode_xy(ds)
    w = np.zeros(X.shape[1])
    for _ in range(iterations):
        idx = rng.integers(0, ds.n, size=batch_size)
        xb, yb = X[idx], y[idx]
        t = (xb @ w) * yb
        gbar = (spec.grad(t)[:, None] * yb[:, None] * xb).mean(axis=0)
        w = w - learning_rate * gbar
    return LinearModel(w, math.inf, spec)


def dense_marginal_matrix(schema: Schema, queries) -> np.ndarray:
    """A as a dense matrix: column c is the marginal vector of the one-row dataset in cell c."""
    sizes = schema.sizes
    cells = np.stack(np.unravel_index(np.arange(int(np.prod(sizes))), sizes), axis=1)
    return np.column_stack([
        np.concatenate([compute_marginal(Dataset(schema, row[None, :]), q) for q in queries])
        for row in cells])


def reference_bin_maps(schema: Schema, queries) -> np.ndarray:
    """Each query's bin of every cell, one ravel_multi_index per query."""
    num_cells = int(np.prod(schema.sizes))
    codes = np.unravel_index(np.arange(num_cells), schema.sizes)
    # filled row by row: stacking a list of rows holds every row twice
    bin_maps = np.empty((len(queries), num_cells), dtype=np.intp)
    for row, q in zip(bin_maps, queries):
        row[:] = np.ravel_multi_index(tuple(codes[a] for a in q.attrs), schema.shape(q.attrs))
    return bin_maps


def reference_spectrum(schema: Schema, queries) -> np.ndarray:
    """Eigenvalues of A^T A in cell order, one strided add per query: query Q
    adds cells/bins_Q on the coefficients that are 0 on every attribute outside Q."""
    num_cells = int(np.prod(schema.sizes))
    lam = np.zeros(schema.sizes)
    for q in queries:
        bins = int(np.prod(schema.shape(q.attrs)))
        inside = tuple(slice(None) if a in q.attrs else 0 for a in range(lam.ndim))
        lam[inside] += num_cells // bins
    return lam.ravel()


def reference_project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = 1} (sort-based, O(n log n))."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.shape[0] + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def reference_fit(nm, iters: int = 2000, tol: float = 1e-10) -> tuple[np.ndarray, list[float]]:
    """Final iterate and objective trace of the eigenbasis FISTA fit of the
    release `nm` with a fresh array for every intermediate, and
    `reference_project_simplex`: from the projection of T c_u, c_u being c*
    with its constant coefficient set to 1/sqrt(cells), with function-value
    and gradient restarts."""
    cells = int(np.prod(nm.schema.sizes))
    target, n = nm.target, nm.n
    op = nm.operator
    lam = op.spectrum
    coef = op.transform(op.adjoint(target))
    c_star = np.divide(coef, n * lam, out=np.zeros(cells), where=lam > 0)
    p_star = op.transform(c_star)
    r_star = n * op.forward(p_star) - target
    base = float(r_star @ r_star)
    weight = n * n * lam
    lipschitz = 2.0 * float(weight[1:].max())

    def objective(d):
        return float(d @ (weight * d)) + base

    root = math.sqrt(cells)
    p = reference_project_simplex(p_star + (1.0 / root - c_star[0]) / root)
    d = op.transform(p) - c_star
    obj = objective(d)
    p_prev, d_prev, t = p, d, 1.0
    trace = [obj]
    for _ in range(iters):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = p + beta * (p - p_prev)
        grad = op.transform(2.0 * weight * ((1.0 + beta) * d - beta * d_prev))
        p_new = reference_project_simplex(y - grad / lipschitz)
        d_new = op.transform(p_new) - c_star
        obj_new = objective(d_new)
        if obj_new >= obj and beta == 0.0:
            trace.append(obj)
            break
        if obj_new > obj:
            p_prev, d_prev, t = p, d, 1.0
            trace.append(obj)
            continue
        restart = float((y - p_new) @ (p_new - p)) > 0.0
        p_prev, d_prev, p, d, t = p, d, p_new, d_new, 1.0 if restart else t_next
        trace.append(obj_new)
        if obj - obj_new <= tol * obj:
            break
        obj = obj_new
    return p, trace


def reference_exhaustive_counts(n: int, nm) -> np.ndarray:
    """Cell counts of the exhaustive min-max scan, one candidate at a time."""
    cells = int(np.prod(nm.schema.sizes))
    op, target = nm.operator, nm.target
    best_counts = None
    best_obj = math.inf
    for combo in combinations_with_replacement(range(cells), n):
        counts = np.bincount(np.asarray(combo, dtype=np.int64), minlength=cells).astype(np.float64)
        obj = float(op.l1_to(op.forward(counts), target).max())
        if obj < best_obj:
            best_obj = obj
            best_counts = counts
    return best_counts


def reference_greedy_counts(nm) -> tuple[np.ndarray, np.ndarray]:
    """Cell counts of the greedy min-max descent of the release `nm`, every query
    scored at every step, from the greedy's start, the largest-remainder rounding
    of n times the dense fit, and its final l1 vector (one entry per query)."""
    n, schema = nm.n, nm.schema
    cells = int(np.prod(schema.sizes))
    op = nm.operator
    bin_maps = op.bin_maps
    eq_masks = [bm[:, None] == bm[None, :] for bm in bin_maps]
    max_steps = 200 + 40 * n
    counts = sample_dataset(fit_distribution(nm), n).astype(np.float64)
    resid = np.split(nm.target - op.forward(counts), op.offsets[1:])
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
    return counts, l1


# The two per-loss calculators that `bounds.excess_risk_bound` replaced, kept as
# its oracle: the new function must return an equal report in every mode.


def _reference_zero_budget_report(mode: str) -> BoundReport:
    return BoundReport(0.0, 0.0, 0.0, mode,
                       {"tau": 0.0},
                       ("tau = 0 pins w = 0 on both datasets, so the risks coincide exactly",))


def _reference_marginal_term_explicit(inp: BoundInputs, loss_sup: float, nu: float) -> tuple[float, dict]:
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


def reference_lipschitz_bound(inp: BoundInputs, mode: str = "explicit") -> BoundReport:
    """Bound for any continuous K-Lipschitz loss with value phi0 at 0.

    explicit: 4 * (5/4) * K * tau sqrt(m) / sqrt(d-1)
              + 2/n * (K tau sqrt(m) + phi0) * ((1 + 2/(2 tau sqrt(m))) m max(1,tau))^(d-1) * nu
    shape:    K tau sqrt(m/(d-1)) + (K tau sqrt(m) + phi0)/n * (3 m max(1,tau))^(d-1) * nu
    """
    _require(inp, "nu")
    if inp.tau == 0.0:
        return _reference_zero_budget_report(mode)
    half_width = inp.tau * math.sqrt(inp.m)
    loss_sup = inp.K * half_width + inp.phi0
    if mode == "explicit":
        modulus_step = half_width / math.sqrt(inp.d - 1)
        approx = POLY_HOPS * UNIFORM_CERT * inp.K * modulus_step
        marg, parts = _reference_marginal_term_explicit(inp, loss_sup, inp.nu)
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


def reference_logistic_bound(inp: BoundInputs, mode: str = "explicit") -> BoundReport:
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
        return _reference_zero_budget_report(mode)
    half_width = inp.tau * math.sqrt(inp.m)
    width = 2.0 * half_width
    loss_sup = half_width + LN2
    note = ("coefficient-base variants disagree (2m vs 3m); this calculator uses "
            "3m in shape mode, and (1 + 2/width) m max(1,tau) exactly in explicit mode",)
    if mode == "explicit":
        rescaled_curvature = width**2 * LOGISTIC_CURVATURE
        per_hop = DERIVATIVE_CERT * rescaled_curvature / (inp.d - 1)
        approx = POLY_HOPS * per_hop
        marg, parts = _reference_marginal_term_explicit(inp, loss_sup, inp.nu)
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

"""Polynomial approximation: Bernstein, iterated Bernstein, Remez minimax.

The functions approximated are the caller's; the margin loss studied here,
ln(1 + e^-t), is the training loss itself, `learn.LossSpec.logistic().value`.
Each is called once per grid, on a float64 array, and must return an array
of the same shape.

All polynomials are stored in the power basis on an explicit interval.  The
Bernstein construction is done in exact rational arithmetic (binomial
expansion is ill-conditioned in floating point), with degree capped at 30.

Error certificates carried by this module, for f on [a, b] with a <= 0 < 1 <= b:
  sup |B_d f - f|  <=  (5/4) * omega(f, (b-a)/sqrt(d))
  sum_k |a_k|      <=  sup|f| * (1 + 2/(b-a))^d
and on [0, 1] with Lipschitz-continuous derivative:
  sup |B_d f - f|  <=  (3/(4 sqrt(d))) * omega(f', 1/sqrt(d)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

MAX_DEGREE = 30
REPORT_GRID = 4097  # uniform points including both endpoints
_REMEZ_GRID = 16385
_REMEZ_MAX_EXCHANGES = 60
_REMEZ_TOL = 1e-8  # converged: the alternation |errors| agree to this (relative), or all are below it


class ApproxError(ValueError):
    """Invalid approximation request (degree, non-finite samples, ...)."""


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ApproxError(f"need a < b, got [{self.a}, {self.b}]")
        if not math.isfinite(self.b - self.a):  # an infinite end, or a width past the float range
            raise ApproxError(f"need finite a, b and b - a, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    def grid(self, num: int) -> np.ndarray:
        return np.linspace(self.a, self.b, num)


@dataclass(frozen=True)
class Polynomial:
    """Power-basis coefficients c[k] of sum_k c[k] x^k, valid on `interval`."""

    coeffs: tuple[float, ...]
    interval: Interval

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ApproxReport:
    max_abs_error: float
    coeff_abs_sum: float
    grid_points: int


def _sample(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """f on the grid xs, in one call: f takes and returns an array of the grid's shape."""
    vals = np.asarray(f(xs), dtype=np.float64)
    if vals.shape != xs.shape:
        raise ApproxError(f"function returned shape {vals.shape} on a grid of shape {xs.shape}")
    if not np.all(np.isfinite(vals)):
        raise ApproxError("function returned a non-finite sample")
    return vals


def _power_coeffs_from_nodes(values, a: Fraction, b: Fraction) -> list[Fraction]:
    """Exact power-basis coefficients of the Bernstein form with the given node values.

    With u = (x-a)/(b-a), the basis polynomial C(d,i) u^i (1-u)^(d-i) is
    expanded binomially in u, then u is substituted back to x.  All arithmetic
    is rational; only the node values themselves carry float rounding.
    """
    d = len(values) - 1
    cu = [Fraction(0)] * (d + 1)
    for i, v in enumerate(values):
        vf = Fraction(v) * math.comb(d, i)
        for j in range(d - i + 1):
            term = vf * math.comb(d - i, j)
            cu[i + j] += -term if j % 2 else term
    return _shifted_power_coeffs(cu, a, b - a)


def _shifted_power_coeffs(cu: list[Fraction], a: Fraction, w: Fraction) -> list[Fraction]:
    """Exact power-basis coefficients of sum_k cu[k] ((x - a)/w)^k."""
    cx = [Fraction(0)] * len(cu)
    for k, ck in enumerate(cu):
        if ck == 0:
            continue
        scale = ck / w**k
        for j in range(k + 1):
            cx[j] += scale * math.comb(k, j) * (-a) ** (k - j)
    return cx


def _eval_fraction_poly(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _nodes(d: int, iv: Interval) -> list[Fraction]:
    a, b = Fraction(iv.a), Fraction(iv.b)
    return [a + (b - a) * i / d for i in range(d + 1)]


def _check_degree(d: int) -> None:
    if d < 1:
        raise ApproxError("degree must be at least 1")
    if d > MAX_DEGREE:
        raise ApproxError(f"degree {d} exceeds the supported cap {MAX_DEGREE}; "
                          "the power-basis conversion is too ill-conditioned beyond it")


def bernstein(f: Callable, d: int, iv: Interval) -> Polynomial:
    """Degree-d Bernstein approximation: sample f at d+1 equispaced nodes and
    take sum_i f(x_i) C(d,i) u^i (1-u)^(d-i) with u = (x-a)/(b-a)."""
    return iterated_bernstein(f, d, 1, iv)


def iterated_bernstein(f: Callable, d: int, iters: int, iv: Interval) -> Polynomial:
    """Residual-correction iteration of the Bernstein operator at fixed degree.

    Q_1 = B_d f and Q_{j+1} = Q_j + B_d(f - Q_j); the result is still a
    degree-d polynomial but with markedly smaller error than B_d f.
    """
    _check_degree(d)
    if iters < 1:
        raise ApproxError("iters must be at least 1")
    nodes = _nodes(d, iv)
    node_floats = np.asarray([float(t) for t in nodes])
    fvals = _sample(f, node_floats)
    a, b = Fraction(iv.a), Fraction(iv.b)
    coeffs = _power_coeffs_from_nodes([Fraction(float(v)) for v in fvals], a, b)
    for _ in range(iters - 1):
        # rounding the residual to float keeps the rational coefficients dyadic
        # (bounded denominators) without losing tracked precision
        resid = [Fraction(float(Fraction(float(fvals[i])) - _eval_fraction_poly(coeffs, nodes[i])))
                 for i in range(d + 1)]
        corr = _power_coeffs_from_nodes(resid, a, b)
        coeffs = [c0 + c1 for c0, c1 in zip(coeffs, corr)]
    return Polynomial(tuple(float(c) for c in coeffs), iv)


# ---------------------------------------------------------------------------
# Remez exchange


def _alternation_extrema(err: np.ndarray) -> list[int]:
    """One max-|err| index per run of constant sign, left to right: the first
    largest of its run, zeros of either sign in no run."""
    nz = np.flatnonzero(err)
    if not nz.size:
        return []
    starts = np.flatnonzero(np.r_[True, np.diff(np.signbit(err[nz]))])
    mag = np.abs(err[nz])
    top = np.repeat(np.maximum.reduceat(mag, starts), np.diff(np.r_[starts, nz.size]))
    first = np.minimum.reduceat(np.where(mag == top, np.arange(nz.size), nz.size), starts)  # of each run's top
    return nz[first].tolist()


def remez_minimax(f: Callable, d: int, iv: Interval) -> Polynomial:
    """Best uniform degree-d approximation via the Remez exchange algorithm.

    At convergence the residual equioscillates on d+2 alternation points whose
    |error| values agree to within _REMEZ_TOL (relative).  On non-convergence after
    _REMEZ_MAX_EXCHANGES exchanges the best iterate seen is returned with a warning.

    The linear solves run in the scaled variable s in [-1, 1] for conditioning;
    coefficients are converted back to x exactly at the end.
    """
    _check_degree(d)
    mid = 0.5 * (iv.a + iv.b)
    half = 0.5 * iv.width

    def fs(s):
        return _sample(f, mid + half * np.asarray(s, dtype=np.float64))

    grid = np.linspace(-1.0, 1.0, _REMEZ_GRID)
    fgrid = fs(grid)
    fscale = max(1.0, float(np.max(np.abs(fgrid))))

    # Deliberately skewed initial reference: a symmetric one makes the solve
    # degenerate (level 0) whenever f has even/odd structure around the
    # interval midpoint.
    j = np.arange(d + 2, dtype=np.float64)
    ref = np.sort(np.cos(np.pi * (j + 0.25) / (d + 1.5)))

    best_coeffs = None
    best_err = math.inf
    converged = False
    signs = (-1.0) ** np.arange(d + 2)

    def perturbed(points: np.ndarray) -> np.ndarray:
        # drop one endpoint, insert the midpoint of the largest gap
        gaps = np.diff(points)
        k = int(np.argmax(gaps))
        inserted = 0.5 * (points[k] + points[k + 1])
        return np.sort(np.append(points[1:] if k > 0 else points[:-1], inserted))

    for _ in range(_REMEZ_MAX_EXCHANGES):
        system = np.hstack([np.vander(ref, d + 1, increasing=True), signs[:, None]])
        try:
            sol = np.linalg.solve(system, fs(ref))
        except np.linalg.LinAlgError:
            ref = perturbed(ref)
            continue
        coeffs_s, level = sol[:-1], abs(sol[-1])

        err = np.polynomial.polynomial.polyval(grid, coeffs_s) - fgrid
        max_err = float(np.max(np.abs(err)))
        if max_err < best_err:
            best_err = max_err
            best_coeffs = coeffs_s

        if max_err <= max(_REMEZ_TOL, 1e-13 * fscale):
            converged = True
            break
        if (max_err - level) <= _REMEZ_TOL * max_err:
            converged = True
            break
        if level <= 1e-13 * fscale:
            # degenerate reference (e.g. symmetry re-emerged); repair and retry
            ref = perturbed(ref)
            continue

        extrema = _alternation_extrema(err)
        if len(extrema) < d + 2:
            ref = perturbed(ref)
            continue
        while len(extrema) > d + 2:
            # dropping an interior point would merge same-sign neighbours
            if abs(err[extrema[0]]) <= abs(err[extrema[-1]]):
                extrema.pop(0)
            else:
                extrema.pop()
        new_ref = grid[extrema]
        if np.array_equal(new_ref, ref):
            converged = True
            break
        ref = new_ref

    if best_coeffs is None:
        raise ApproxError("exchange iteration failed before producing an iterate")
    if not converged:
        warnings.warn(
            f"exchange did not meet tol={_REMEZ_TOL} within {_REMEZ_MAX_EXCHANGES} iterations; "
            f"returning best iterate (max error {best_err:.3g})",
            RuntimeWarning,
            stacklevel=2,
        )

    # exact affine change of variable s = (x - mid)/half
    cx = _shifted_power_coeffs([Fraction(float(c)) for c in best_coeffs], Fraction(mid), Fraction(half))
    return Polynomial(tuple(float(c) for c in cx), iv)


def approx_report(p: Polynomial, f: Callable) -> ApproxReport:
    """Dense-grid sup-norm error and the absolute coefficient sum."""
    xs = p.interval.grid(REPORT_GRID)
    vals = _sample(f, xs)
    err = float(np.max(np.abs(p(xs) - vals)))
    return ApproxReport(max_abs_error=err,
                        coeff_abs_sum=float(np.sum(np.abs(p.coeffs))),
                        grid_points=REPORT_GRID)

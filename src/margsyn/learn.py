"""Norm-constrained linear classification with convex margin losses.

Models are weight vectors w with ||w||_2 <= tau scoring a sample as <w, x>;
training minimizes the empirical risk (1/n) sum phi(<w, x> y) by projected
gradient descent with backtracking.  A noisy-gradient variant with per-sample
clipping provides the differentially-private baseline trainer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset, Schema, encode_xy

LN2 = math.log(2.0)


class LossError(ValueError):
    """Bad loss specification or loss argument outside its domain."""


def gamma_margin_loss(t: np.ndarray, gamma: float) -> np.ndarray:
    """Piecewise convex margin penalty (1-t)^2/8 + tail, defined on [-1, 1].

    The tail is 1 - 2t/gamma for t in [-1, 0], (t-gamma)^2/gamma^2 for
    t in [0, gamma] and 0 for t in [gamma, 1].
    """
    t = np.asarray(t, dtype=np.float64)
    tail = np.select(
        [t <= 0.0, t <= gamma],
        [1.0 - 2.0 * t / gamma, (t - gamma) ** 2 / gamma**2],
        default=0.0,
    )
    return (1.0 - t) ** 2 / 8.0 + tail


def _margin_loss_tail_grad(t: np.ndarray, gamma: float) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    return np.select([t <= 0.0, t <= gamma], [-2.0 / gamma, 2.0 * (t - gamma) / gamma**2], default=0.0)


@dataclass(frozen=True)
class LossSpec:
    """A convex margin loss with its Lipschitz constant and value at 0.

    kinds:
      "logistic"     phi(t) = ln(1 + e^-t), 1-Lipschitz, phi(0) = ln 2
      "gamma_margin" phi(t) = gamma * gamma_margin_loss(t, gamma),
                     nominal Lipschitz constant 2 (exact sup|phi'| is
                     2 + gamma/2, attained at t = -1); domain [-1, 1]
      "custom"       piecewise-linear interpolation of (knots_t, knots_v),
                     K = max segment |slope|
    """

    kind: str
    lipschitz_K: float
    value_at_zero: float
    gamma: float | None = None
    knots_t: tuple[float, ...] | None = None
    knots_v: tuple[float, ...] | None = None

    @classmethod
    def logistic(cls) -> "LossSpec":
        return cls("logistic", lipschitz_K=1.0, value_at_zero=LN2)

    @classmethod
    def gamma_margin(cls, gamma: float) -> "LossSpec":
        if not 0.0 < gamma < 1.0:
            raise LossError("gamma must lie in (0, 1)")
        return cls("gamma_margin", lipschitz_K=2.0, value_at_zero=gamma * 9.0 / 8.0, gamma=gamma)

    @classmethod
    def from_table(cls, knots_t, knots_v) -> "LossSpec":
        ts = tuple(float(t) for t in knots_t)
        vs = tuple(float(v) for v in knots_v)
        if len(ts) != len(vs) or len(ts) < 2:
            raise LossError("need at least two (t, value) knots of equal length")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise LossError("knot locations must be strictly increasing")
        if not all(math.isfinite(v) for v in ts + vs):
            raise LossError("non-finite entry in loss table")
        slopes = [(vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)]
        k = max(abs(s) for s in slopes)
        if k <= 0:
            raise LossError("loss table is constant; Lipschitz constant must be positive")
        v0 = float(np.interp(0.0, ts, vs))
        return cls("custom", lipschitz_K=k, value_at_zero=v0, knots_t=ts, knots_v=vs)

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "logistic":
            return np.logaddexp(0.0, -t)
        if self.kind == "gamma_margin":
            self._check_domain(t)
            return self.gamma * gamma_margin_loss(t, self.gamma)
        return np.interp(t, self.knots_t, self.knots_v)

    def grad(self, t) -> np.ndarray:
        """Derivative (a subgradient at custom-loss knots)."""
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "logistic":
            # -1/(1 + e^t), computed stably
            return -np.exp(-np.logaddexp(0.0, t))
        if self.kind == "gamma_margin":
            self._check_domain(t)
            return self.gamma * (t - 1.0) / 4.0 + self.gamma * _margin_loss_tail_grad(t, self.gamma)
        ts = np.asarray(self.knots_t)
        vs = np.asarray(self.knots_v)
        seg = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        return (vs[seg + 1] - vs[seg]) / (ts[seg + 1] - ts[seg])

    def _check_domain(self, t: np.ndarray) -> None:
        if t.size and (np.min(t) < -1.0 - 1e-9 or np.max(t) > 1.0 + 1e-9):
            raise LossError("gamma_margin loss is defined on [-1, 1] only; "
                            "keep tau*sqrt(m) <= 1 so margins stay in range")

    def to_dict(self) -> dict:
        doc = {"kind": self.kind, "lipschitz_K": self.lipschitz_K, "value_at_zero": self.value_at_zero}
        if self.gamma is not None:
            doc["gamma"] = self.gamma
        if self.knots_t is not None:
            doc["knots_t"] = list(self.knots_t)
            doc["knots_v"] = list(self.knots_v)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "LossSpec":
        if doc["kind"] == "logistic":
            return cls.logistic()
        if doc["kind"] == "gamma_margin":
            return cls.gamma_margin(doc["gamma"])
        return cls.from_table(doc["knots_t"], doc["knots_v"])


@dataclass(frozen=True)
class LinearModel:
    w: np.ndarray
    tau: float
    loss: LossSpec

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64).copy()
        if math.isfinite(self.tau) and np.linalg.norm(w) > self.tau * (1.0 + 1e-9) + 1e-15:
            raise ValueError(f"||w||={np.linalg.norm(w):.6g} exceeds tau={self.tau}")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


def predict(model: LinearModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Labels (+1 on ties) and raw scores <w, x> for one vector or a matrix."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xm = x[None, :] if single else x
    if xm.shape[1] != model.w.shape[0]:
        raise ValueError(f"feature dimension {xm.shape[1]} != model dimension {model.w.shape[0]}")
    scores = xm @ model.w
    labels = np.where(scores >= 0.0, 1.0, -1.0)
    if single:
        return labels[0], float(scores[0])
    return labels, scores


def _project_ball(w: np.ndarray, tau: float) -> np.ndarray:
    if not math.isfinite(tau):
        return w
    norm = np.linalg.norm(w)
    if norm <= tau or norm == 0.0:
        return w
    return w * (tau / norm)


def _risk_and_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray, spec: LossSpec):
    t = (X @ w) * y
    val = float(np.mean(spec.value(t)))
    g = (X.T @ (spec.grad(t) * y)) / X.shape[0]
    return val, g


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 500
    step_size: float = 1.0
    step_decay: float = 0.5
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1 or self.step_size <= 0 or not 0 < self.step_decay < 1 or self.tolerance < 0:
            raise ValueError("invalid training configuration")


def train_projected(ds: Dataset, spec: LossSpec, tau: float, cfg: TrainConfig | None = None) -> LinearModel:
    """Minimize the empirical risk over ||w|| <= tau.

    Projected gradient descent from w = 0 with backtracking line search.
    Every accepted step strictly lowers the objective, so the last iterate is
    the best and is returned.  tau may be math.inf for unconstrained training.
    """
    cfg = cfg or TrainConfig()
    if ds.n < 1:
        raise ValueError("cannot train on an empty dataset")
    X, y = encode_xy(ds)
    m = X.shape[1]
    if tau == 0.0:
        return LinearModel(np.zeros(m), tau, spec)

    w = np.zeros(m)
    obj, grad = _risk_and_grad(w, X, y, spec)
    if not math.isfinite(obj):
        raise LossError("non-finite loss at the initial point")
    step = cfg.step_size
    for _ in range(cfg.max_iters):
        improved = False
        s = step
        for _ in range(40):
            w_new = _project_ball(w - s * grad, tau)
            obj_new, grad_new = _risk_and_grad(w_new, X, y, spec)
            if not math.isfinite(obj_new):
                raise LossError("non-finite loss during training")
            if obj_new < obj:
                improved = True
                break
            s *= cfg.step_decay
        if not improved:
            break
        gain = obj - obj_new
        w, obj, grad = w_new, obj_new, grad_new
        step = min(s / cfg.step_decay, cfg.step_size)
        if gain <= cfg.tolerance * max(1.0, abs(obj)):
            break
    return LinearModel(w, tau, spec)


# ---------------------------------------------------------------------------
# Noisy-gradient baseline trainer


@dataclass(frozen=True)
class DpSgdConfig:
    iterations: int
    batch_size: int
    learning_rate: float
    clip_norm: float  # may be math.inf to disable clipping
    lipschitz_L: float
    epsilon: float
    delta: float
    sigma_override: float | None = None  # test hook; None derives sigma from the formula

    def __post_init__(self):
        ok = (self.iterations > 0 and self.batch_size > 0 and self.learning_rate > 0
              and self.clip_norm > 0 and self.lipschitz_L > 0 and self.epsilon > 0
              and 0 < self.delta < 1)
        if not ok:
            raise ValueError("all noisy-gradient training parameters must be positive (delta in (0,1))")


def dp_sgd_sigma_sq(cfg: DpSgdConfig, n: int) -> float:
    """Per-coordinate noise variance 16 L^2 T ln(1/delta) / (n^2 eps^2)."""
    return 16.0 * cfg.lipschitz_L**2 * cfg.iterations * math.log(1.0 / cfg.delta) / (n**2 * cfg.epsilon**2)


def clip_rows(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row g by 1/max(1, ||g||_2 / clip_norm)."""
    if not math.isfinite(clip_norm):
        return grads
    norms = np.linalg.norm(grads, axis=1)
    return grads / np.maximum(1.0, norms / clip_norm)[:, None]


def dp_sgd(ds: Dataset, spec: LossSpec, cfg: DpSgdConfig, rng: np.random.Generator) -> LinearModel:
    """Minibatch gradient descent with per-sample clipping and Gaussian noise.

    Batches are sampled uniformly with replacement; each per-sample gradient is
    scaled by 1/max(1, ||g||/C); noise is added to the averaged batch gradient.
    Returns the final (unprojected) iterate.  With sigma_override=0 the noise
    draw is skipped entirely, so the trajectory matches plain_sgd under a
    shared generator state.
    """
    if cfg.batch_size > ds.n:
        raise ValueError(f"batch size {cfg.batch_size} exceeds dataset size {ds.n}")
    X, y = encode_xy(ds)
    m = X.shape[1]
    sigma = math.sqrt(dp_sgd_sigma_sq(cfg, ds.n)) if cfg.sigma_override is None else cfg.sigma_override
    w = np.zeros(m)
    for _ in range(cfg.iterations):
        idx = rng.integers(0, ds.n, size=cfg.batch_size)
        xb, yb = X[idx], y[idx]
        t = (xb @ w) * yb
        per_sample = clip_rows(spec.grad(t)[:, None] * yb[:, None] * xb, cfg.clip_norm)
        gbar = per_sample.mean(axis=0)
        if sigma > 0.0:
            gbar = gbar + rng.normal(0.0, sigma, size=m)
        w = w - cfg.learning_rate * gbar
    return LinearModel(w, math.inf, spec)


def plain_sgd(ds: Dataset, spec: LossSpec, iterations: int, batch_size: int,
              learning_rate: float, rng: np.random.Generator) -> LinearModel:
    """Reference minibatch SGD with the same batch-sampling pattern as dp_sgd."""
    if batch_size > ds.n:
        raise ValueError(f"batch size {batch_size} exceeds dataset size {ds.n}")
    X, y = encode_xy(ds)
    w = np.zeros(X.shape[1])
    for _ in range(iterations):
        idx = rng.integers(0, ds.n, size=batch_size)
        xb, yb = X[idx], y[idx]
        t = (xb @ w) * yb
        gbar = (spec.grad(t)[:, None] * yb[:, None] * xb).mean(axis=0)
        w = w - learning_rate * gbar
    return LinearModel(w, math.inf, spec)


# ---------------------------------------------------------------------------
# Model files


def save_model(model: LinearModel, schema: Schema, path: str | Path) -> None:
    doc = {
        "schema_hash": schema.digest(),
        "tau": model.tau if math.isfinite(model.tau) else "inf",
        "loss": model.loss.to_dict(),
        "weights": [float(v) for v in model.w],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path: str | Path) -> tuple[LinearModel, str]:
    """Model plus the schema hash it was trained against."""
    with open(path) as fh:
        doc = json.load(fh)
    tau = math.inf if doc["tau"] == "inf" else float(doc["tau"])
    model = LinearModel(np.asarray(doc["weights"], dtype=np.float64), tau, LossSpec.from_dict(doc["loss"]))
    return model, doc["schema_hash"]

"""Norm-constrained linear classification with convex margin losses.

Models are weight vectors w with ||w||_2 <= tau scoring a sample as <w, x>;
training minimizes the empirical risk (1/n) sum phi(<w, x> y) by projected
gradient descent with backtracking.  The risk depends only on which rows
occur and how often, so training runs on the dataset's weighted distinct
rows (`Dataset.weighted`): at most min(n, cells) rows, each weighted by its
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, Schema, _check_document, _read_json, _write_json, encode_weighted


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
    """A convex margin loss; its Lipschitz constant and value at 0 follow from it.

    kinds:
      "logistic"     phi(t) = ln(1 + e^-t), 1-Lipschitz, phi(0) = ln 2
      "gamma_margin" phi(t) = gamma * gamma_margin_loss(t, gamma),
                     nominal Lipschitz constant 2 (exact sup|phi'| is
                     2 + gamma/2, attained at t = -1); domain [-1, 1]
      "custom"       piecewise-linear interpolation of (knots_t, knots_v),
                     K = max segment |slope|
    """

    kind: str
    gamma: float | None = None
    knots_t: tuple[float, ...] | None = None
    knots_v: tuple[float, ...] | None = None

    @classmethod
    def logistic(cls) -> "LossSpec":
        return cls("logistic")

    @classmethod
    def gamma_margin(cls, gamma: float) -> "LossSpec":
        if not 0.0 < gamma < 1.0:
            raise LossError("gamma must lie in (0, 1)")
        return cls("gamma_margin", gamma=gamma)

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
        spec = cls("custom", knots_t=ts, knots_v=vs)
        if spec.lipschitz_K <= 0:
            raise LossError("loss table is constant; Lipschitz constant must be positive")
        return spec

    @property
    def lipschitz_K(self) -> float:
        if self.kind == "custom":
            return float(np.max(np.abs(np.diff(self.knots_v) / np.diff(self.knots_t))))
        return {"logistic": 1.0, "gamma_margin": 2.0}[self.kind]  # gamma_margin: the nominal K

    @property
    def value_at_zero(self) -> float:
        return float(self.value(0.0))

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
    def from_dict(cls, doc) -> "LossSpec":
        """The loss of a JSON document: `kind` and the keys that kind takes
        (`_LOSS_KEYS`).  The derived `lipschitz_K` and `value_at_zero` that
        `to_dict` writes are taken and not read: they follow from the loss."""
        kind = doc.get("kind") if isinstance(doc, dict) else None
        params = _LOSS_KEYS.get(kind, {}) if isinstance(kind, str) else {}
        doc = _check_document(doc, "loss key", {"kind": str, **params},
                              {"lipschitz_K": float, "value_at_zero": float})
        if kind == "logistic":
            return cls.logistic()
        if kind == "gamma_margin":
            return cls.gamma_margin(doc["gamma"])
        if kind == "custom":
            return cls.from_table(doc["knots_t"], doc["knots_v"])
        raise LossError(f"unknown loss kind {kind!r}; expected one of {sorted(_LOSS_KEYS)}")


# The keys each loss kind's document takes besides `kind`, with their JSON types.
_LOSS_KEYS = {"logistic": {}, "gamma_margin": {"gamma": float},
              "custom": {"knots_t": list[float], "knots_v": list[float]}}


@dataclass(frozen=True)
class LinearModel:
    w: np.ndarray
    tau: float
    loss: LossSpec

    def __post_init__(self):
        if not self.tau >= 0:  # NaN fails too
            raise ValueError(f"tau must be >= 0 (math.inf for unconstrained), got {self.tau}")
        w = np.asarray(self.w, dtype=np.float64).copy()
        if not np.isfinite(w).all():
            i = int(np.argmin(np.isfinite(w)))
            raise ValueError(f"model weight {i} is {w[i]}; weights must be finite")
        if math.isfinite(self.tau) and np.linalg.norm(w) > self.tau * (1.0 + 1e-9) + 1e-15:
            raise ValueError(f"||w||={np.linalg.norm(w):.6g} exceeds tau={self.tau}")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


def predict(model: LinearModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Labels (+1 on ties) and raw scores <w, x> of the rows of a matrix.

    Each score is summed in column order, so it depends on its row alone: a
    BLAS matrix-vector product rounds a row differently by its position in
    the matrix, and scoring distinct rows must give each copy's score.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.w.shape[0]:
        raise ValueError(f"feature dimension {x.shape[1]} != model dimension {model.w.shape[0]}")
    scores = np.zeros(x.shape[0])
    for col, wj in zip(x.T, model.w):
        scores = scores + col * wj
    return np.where(scores >= 0.0, 1.0, -1.0), scores


def _project_ball(w: np.ndarray, tau: float) -> np.ndarray:
    if not math.isfinite(tau):
        return w
    norm = np.linalg.norm(w)
    if norm <= tau or norm == 0.0:
        return w
    return w * (tau / norm)


def _risk_and_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray, c: np.ndarray, n: int, spec: LossSpec):
    """Risk c.phi(t)/n and its gradient X^T(c * phi'(t) * y)/n over rows weighted by counts c."""
    t = (X @ w) * y
    val = float(c @ spec.value(t)) / n
    g = (X.T @ (c * spec.grad(t) * y)) / n
    return val, g


# Line search: the largest trial step, and the factor that shrinks a rejected one.
_STEP_SIZE = 1.0
_STEP_DECAY = 0.5


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 500
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1 or not self.tolerance >= 0:  # NaN fails too
            raise ValueError("invalid training configuration")


def train_projected(ds: Dataset, spec: LossSpec, tau: float, cfg: TrainConfig | None = None) -> LinearModel:
    """Minimize the empirical risk over ||w|| <= tau.

    Projected gradient descent from w = 0 with backtracking line search, on
    the weighted distinct rows of ds.
    Every accepted step strictly lowers the objective, so the last iterate is
    the best and is returned.  tau may be math.inf for unconstrained training.
    """
    if not tau >= 0:  # NaN fails too
        raise ValueError(f"tau must be >= 0 (math.inf for unconstrained), got {tau}")
    cfg = cfg or TrainConfig()
    if ds.n < 1:
        raise ValueError("cannot train on an empty dataset")
    X, y, counts = encode_weighted(ds)
    c = counts.astype(np.float64)
    m = X.shape[1]
    if tau == 0.0:
        return LinearModel(np.zeros(m), tau, spec)

    w = np.zeros(m)
    obj, grad = _risk_and_grad(w, X, y, c, ds.n, spec)
    if not math.isfinite(obj):
        raise LossError("non-finite loss at the initial point")
    step = _STEP_SIZE
    for _ in range(cfg.max_iters):
        improved = False
        s = step
        for _ in range(40):
            w_new = _project_ball(w - s * grad, tau)
            obj_new, grad_new = _risk_and_grad(w_new, X, y, c, ds.n, spec)
            if not math.isfinite(obj_new):
                raise LossError("non-finite loss during training")
            if obj_new < obj:
                improved = True
                break
            s *= _STEP_DECAY
        if not improved:
            break
        gain = obj - obj_new
        w, obj, grad = w_new, obj_new, grad_new
        step = min(s / _STEP_DECAY, _STEP_SIZE)
        if gain <= cfg.tolerance * max(1.0, abs(obj)):
            break
    return LinearModel(w, tau, spec)


# ---------------------------------------------------------------------------
# Model files


def save_model(model: LinearModel, schema: Schema, path: str | Path) -> None:
    doc = {
        "schema_hash": schema.digest(),
        "tau": model.tau if math.isfinite(model.tau) else "inf",
        "loss": model.loss.to_dict(),
        "weights": [float(v) for v in model.w],
    }
    _write_json(doc, path)


def load_model(path: str | Path) -> tuple[LinearModel, str]:
    """Model plus the schema hash it was trained against, from a `save_model`
    file: its four keys, with a `tau` of "inf" for math.inf."""
    doc = _read_json(path)
    if isinstance(doc, dict) and doc.get("tau") == "inf":
        doc = {**doc, "tau": math.inf}
    doc = _check_document(doc, "model key", {"schema_hash": str, "tau": float, "loss": dict,
                                             "weights": list[float]})
    model = LinearModel(np.asarray(doc["weights"], dtype=np.float64), doc["tau"],
                        LossSpec.from_dict(doc["loss"]))
    return model, doc["schema_hash"]

"""Layer-wise representation analysis.

Two curves per model: a logistic-regression language probe on mean-pooled
utterance representations, and the mutual information between k-means
cluster assignments of frame representations and the ground-truth
per-frame phoneme labels. Layer 0 is the projected-and-positioned input.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import ConfigError


def collect_layer_data(model, utterances):
    """One forward per utterance, shared by every per-layer probe.

    Returns (pooled, frames, lang_labels, frame_labels): pooled[d] is
    N x H means over the full sequence (language-summary row included via
    the pooling); frames[d] stacks per-frame rows with the summary row
    excluded, aligned with the phoneme labels.
    """
    depth = model.depth
    pooled: list[list[np.ndarray]] = [[] for _ in range(depth + 1)]
    frames: list[list[np.ndarray]] = [[] for _ in range(depth + 1)]
    lang_labels: list[int] = []
    frame_labels: list[np.ndarray] = []
    languages = model.cfg.vocab.languages
    for utt in utterances:
        if utt.lang not in languages:
            raise ConfigError(f"utterance language {utt.lang!r} is not one of the checkpoint's languages {list(languages)}")
    with tz.no_grad():
        for utt in utterances:
            out = model.forward(utt.features, retain_activations=True)
            lang_labels.append(languages.index(utt.lang))
            frame_labels.append(np.asarray(utt.alignment, dtype=np.int64))
            for d, act in enumerate(out.activations):
                pooled[d].append(act.mean(axis=0))
                frames[d].append(act[1:] if act.shape[0] == utt.n_frames + 1 else act)
    pooled_arr = [np.stack(rows) for rows in pooled]
    frames_arr = [np.concatenate(rows, axis=0) for rows in frames]
    return pooled_arr, frames_arr, np.asarray(lang_labels), np.concatenate(frame_labels)


class LogisticRegressionProbe:
    """Multinomial logistic regression trained by full-batch gradient
    descent: L2 weight 1e-4, stop at gradient norm < 1e-5 or 2000 steps."""

    def __init__(self, l2: float = 1e-4, max_iter: int = 2000, grad_tol: float = 1e-5):
        self.l2 = l2
        self.max_iter = max_iter
        self.grad_tol = grad_tol
        self.weights = None
        self.classes_ = None
        self._mean = None
        self._scale = None

    def fit(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        n, d = x.shape
        m = len(self.classes_)
        if m < 2:
            raise ConfigError("probe needs at least two classes in the training split")
        self._mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        xb = np.concatenate([(x - self._mean) / scale, np.ones((n, 1))], axis=1)
        onehot = np.zeros((n, m))
        onehot[np.arange(n), y_idx] = 1.0

        # fixed step from the softmax-Hessian bound 0.5 * lmax(X^T X)/N + l2
        lr = 1.0 / (0.5 * _power_iteration_lmax(xb) / n + self.l2)
        w = np.zeros((d + 1, m))
        for _ in range(self.max_iter):
            logits = xb @ w
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            p = e / e.sum(axis=1, keepdims=True)
            grad = xb.T @ (p - onehot) / n
            grad[:-1] += self.l2 * w[:-1]  # bias row carries no penalty
            if np.sqrt((grad * grad).sum()) < self.grad_tol:
                break
            w -= lr * grad
        self.weights = w
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise ConfigError("probe is not fitted")
        x = (np.asarray(x, dtype=np.float64) - self._mean) / self._scale
        xb = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        return self.classes_[(xb @ self.weights).argmax(axis=1)]

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(x) == np.asarray(y)).mean())


def _power_iteration_lmax(x: np.ndarray, iters: int = 64) -> float:
    v = np.ones(x.shape[1]) / np.sqrt(x.shape[1])
    for _ in range(iters):
        v = x.T @ (x @ v)
        norm = np.linalg.norm(v)
        if norm == 0:
            return 1.0
        v /= norm
    return float(v @ (x.T @ (x @ v)))


def stratified_split(labels: np.ndarray, train_frac: float, seed: int):
    """Deterministic per-class shuffle; every class keeps ``train_frac`` of
    its points in the training side (at least one point per side)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0xB2]))
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        cut = max(1, min(len(members) - 1, int(round(train_frac * len(members)))))
        train_idx.extend(members[:cut])
        test_idx.extend(members[cut:])
    return np.sort(np.asarray(train_idx)), np.sort(np.asarray(test_idx))


def lid_probe(pooled: np.ndarray, labels: np.ndarray, l2: float = 1e-4, split_seed: int = 0) -> float:
    """Held-out accuracy of the language probe on a stratified 70/30 split."""
    pooled = np.asarray(pooled)
    labels = np.asarray(labels)
    if pooled.shape[0] != labels.shape[0]:
        raise ConfigError("pooled representation / label count mismatch")
    train_idx, test_idx = stratified_split(labels, 0.7, split_seed)
    probe = LogisticRegressionProbe(l2=l2)
    probe.fit(pooled[train_idx], labels[train_idx])
    return probe.score(pooled[test_idx], labels[test_idx])


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    distortions: list[float] = field(default_factory=list)  # one per Lloyd iteration
    n_iter: int = 0


def kmeans(frames: np.ndarray, k: int, seed: int, max_iter: int = 300) -> KMeansResult:
    """k-means++ seeding then Lloyd iterations to an assignment fixpoint
    (or ``max_iter``); fully determined by ``seed``."""
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[0]
    if k > n:
        raise ConfigError(f"k={k} exceeds {n} points")
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0xB3]))
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            centroids[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))

    assignments = np.full(n, -1)
    distortions: list[float] = []
    n_iter = 0
    x_sq = (x * x).sum(axis=1)
    for n_iter in range(1, max_iter + 1):
        # x_sq - 2 x.c + c_sq, with the same IEEE operations, in one n x k buffer
        dist = x @ centroids.T
        dist *= -2.0
        dist += x_sq[:, None]
        dist += (centroids * centroids).sum(axis=1)
        new_assign = dist.argmin(axis=1)
        distortions.append(float(np.maximum(dist[np.arange(n), new_assign], 0.0).sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for j in range(k):
            members = x[assignments == j]
            if len(members):  # empty clusters keep their previous centroid
                centroids[j] = members.mean(axis=0)
    return KMeansResult(assignments=assignments, centroids=centroids, distortions=distortions, n_iter=n_iter)


def mutual_information(assignments, labels) -> float:
    """Plug-in MI (nats) of the empirical joint; zero-count cells add 0.

    Count products stay in exact integer arithmetic so independent
    factorial tables come out at exactly 0.0.
    """
    a = np.asarray(assignments).ravel()
    b = np.asarray(labels).ravel()
    if a.shape != b.shape:
        raise ConfigError("assignment / label length mismatch")
    n = a.size
    if n == 0:
        return 0.0
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    n_a = ai.max() + 1
    n_b = bi.max() + 1
    joint = np.bincount(ai * n_b + bi, minlength=n_a * n_b).reshape(n_a, n_b)
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    mi = 0.0
    for i in range(n_a):
        for j in range(n_b):
            c = int(joint[i, j])
            if c == 0:
                continue
            mi += (c / n) * np.log((c * n) / (int(row[i]) * int(col[j])))
    return float(mi)


def entropy_of_counts(counts) -> float:
    counts = np.asarray(counts, dtype=np.int64).ravel()
    n = counts.sum()
    probs = counts[counts > 0] / n
    return float(-(probs * np.log(probs)).sum())


@dataclass
class ProbeReport:
    rows: list[dict]  # {"layer", "lid_acc", "mi_nats"} per stack depth
    metadata: dict

    def to_dict(self) -> dict:
        return {"rows": self.rows, "metadata": self.metadata}


def probe_all_layers(model, utterances, k: int, seed: int, checkpoint_id: str = "", probe_set_id: str = "",
                     layers=None) -> ProbeReport:
    """LID accuracy and cluster/phoneme MI at each depth in ``layers``
    (default: every depth, layer 0 included)."""
    layers = range(model.depth + 1) if layers is None else list(layers)
    for d in layers:
        if not 0 <= d <= model.depth:
            raise ConfigError(f"layer {d} outside [0, {model.depth}]")
    pooled, frames, lang_labels, frame_labels = collect_layer_data(model, utterances)
    rows = []
    for d in layers:
        acc = lid_probe(pooled[d], lang_labels, split_seed=seed)
        km = kmeans(frames[d], k, seed=seed + d)
        mi = mutual_information(km.assignments, frame_labels)
        rows.append({"layer": d, "lid_acc": acc, "mi_nats": mi})
    return ProbeReport(
        rows=rows,
        metadata={
            "checkpoint": checkpoint_id,
            "probe_set": probe_set_id,
            "k": k,
            "seed": seed,
            "n_utterances": len(utterances),
        },
    )


def write_report(report: ProbeReport, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "probe_report.json")
    csv_path = os.path.join(out_dir, "probe_report.csv")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "lid_acc", "mi_nats"])
        for row in report.rows:
            writer.writerow([row["layer"], f"{row['lid_acc']:.6f}", f"{row['mi_nats']:.6f}"])
    return json_path, csv_path

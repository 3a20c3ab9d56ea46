"""Layer-wise representation analysis.

Two curves per model: a logistic-regression language probe on mean-pooled
utterance representations, and the mutual information between k-means
cluster assignments of frame representations and the ground-truth
per-frame phoneme labels. Layer 0 is the projected-and-positioned input.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import ConfigError
from .files import replacing, write_json


def _labels(model, utterances):
    """The utterances' language indices and stacked per-frame phoneme
    labels; rejects an empty list or a language the checkpoint lacks."""
    languages = model.cfg.vocab.languages
    if not utterances:
        raise ConfigError("no utterances to probe")
    model.cfg.vocab.check_languages(utt.lang for utt in utterances)
    lang_labels = np.asarray([languages.index(utt.lang) for utt in utterances])
    return lang_labels, np.concatenate([utt.alignment for utt in utterances]).astype(np.int64)


def _store(act, i: int, start: int, n_frames: int, pooled, frames):
    """Copy utterance i's activation at one depth in: its mean over the
    full sequence into ``pooled[i]``, its frames (summary row excluded)
    into ``frames[start:start + n_frames]``."""
    pooled[i] = act.mean(axis=0)
    frames[start:start + n_frames] = act[1:] if act.shape[0] == n_frames + 1 else act


def collect_layer_data(model, utterances):
    """Every depth's activations of the utterances, one ``stages`` run each.

    Returns (pooled, frames, lang_labels, frame_labels): pooled[d] is
    N x H means over the full sequence (language-summary row included via
    the pooling); frames[d] stacks per-frame rows with the summary row
    excluded, aligned with the phoneme labels.

    Each layer's two arrays are allocated once, in the activations' dtype,
    after the first run, and every utterance's rows are copied in as its
    run ends, so the result is the only copy of the activations that
    outlives a run; no final head runs. ``probe_all_layers`` holds one
    depth at a time instead.
    """
    lang_labels, frame_labels = _labels(model, utterances)
    start = 0
    with tz.no_grad():
        for i, utt in enumerate(utterances):
            acts = [out.values for out, _, _ in model.stages(utt.features)]
            if i == 0:
                pooled = [np.empty((len(utterances), act.shape[1]), act.dtype) for act in acts]
                frames = [np.empty((len(frame_labels), act.shape[1]), act.dtype) for act in acts]
            for d, act in enumerate(acts):
                _store(act, i, start, utt.n_frames, pooled[d], frames[d])
            start += utt.n_frames
    return pooled, frames, lang_labels, frame_labels


PROBE_L2 = 1e-4  # L2 weight of the language probe
PROBE_MAX_ITER = 2000
PROBE_GRAD_TOL = 1e-5  # stop once the gradient norm falls below this


class LogisticRegressionProbe:
    """Multinomial logistic regression trained by full-batch gradient
    descent: L2 weight ``PROBE_L2``, stop at gradient norm <
    ``PROBE_GRAD_TOL`` or after ``PROBE_MAX_ITER`` steps."""

    def __init__(self):
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
        lr = 1.0 / (0.5 * _power_iteration_lmax(xb) / n + PROBE_L2)
        w = np.zeros((d + 1, m))
        for _ in range(PROBE_MAX_ITER):
            logits = xb @ w
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            p = e / e.sum(axis=1, keepdims=True)
            grad = xb.T @ (p - onehot) / n
            grad[:-1] += PROBE_L2 * w[:-1]  # bias row carries no penalty
            if np.sqrt((grad * grad).sum()) < PROBE_GRAD_TOL:
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


def lid_probe(pooled: np.ndarray, labels: np.ndarray, split_seed: int = 0) -> float:
    """Held-out accuracy of the language probe on a stratified 70/30 split."""
    pooled = np.asarray(pooled)
    labels = np.asarray(labels)
    if pooled.shape[0] != labels.shape[0]:
        raise ConfigError("pooled representation / label count mismatch")
    train_idx, test_idx = stratified_split(labels, 0.7, split_seed)
    probe = LogisticRegressionProbe()
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
    (or ``max_iter``); fully determined by ``seed``.

    Arithmetic is float64. ``frames`` is read in row blocks, each
    converted to float64 when it is used, so no n x F float64 copy and no
    n x k distance matrix is ever held: per block, seeding forms
    ``(x - c)**2`` row sums and a Lloyd step forms ``x_sq - 2 x.c + c_sq``
    with the same IEEE operations, in the same order, as over all n rows
    at once. Results are bitwise those of the unblocked computation.
    """
    frames = np.asarray(frames)
    n, n_feat = frames.shape
    if k < 1:
        raise ConfigError(f"k={k} must be >= 1")
    if k > n:
        raise ConfigError(f"k={k} exceeds {n} points")
    # n split evenly into n // 1024 row blocks (one when k == 1): with at
    # least 1024 rows per block, each block's x @ c.T on OpenBLAS's Haswell
    # kernels is bitwise the rows of the full product, and a short tail
    # block or an n x 1 product split in rows is not always
    n_blocks = 1 if k == 1 else max(1, n // 1024)
    bounds = [i * n // n_blocks for i in range(n_blocks + 1)]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    block_rows = max(hi - lo for lo, hi in blocks)
    xbuf = np.empty((block_rows, n_feat))
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0xB3]))

    def sq_dist_to(c: np.ndarray) -> np.ndarray:
        d2 = np.empty(n)
        for lo, hi in blocks:
            diff = np.subtract(frames[lo:hi], c, out=xbuf[: hi - lo])
            np.square(diff, out=diff)
            diff.sum(axis=1, out=d2[lo:hi])
        return d2

    centroids = np.empty((k, n_feat))
    centroids[0] = frames[rng.integers(n)]
    d2 = sq_dist_to(centroids[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = frames[rng.integers(n)]
        else:
            centroids[j] = frames[rng.choice(n, p=d2 / total)]
        np.minimum(d2, sq_dist_to(centroids[j]), out=d2)

    x_sq = sq_dist_to(np.zeros(n_feat))  # x - 0 is exact, so these are the bits of (x * x).sum(axis=1)
    dist = np.empty((block_rows, k))
    assignments = np.full(n, -1)
    distortions: list[float] = []
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        c_sq = (centroids * centroids).sum(axis=1)
        new_assign = np.empty(n, dtype=np.intp)
        closest = np.empty(n)
        for lo, hi in blocks:
            xb = xbuf[: hi - lo]
            xb[...] = frames[lo:hi]
            db = np.matmul(xb, centroids.T, out=dist[: hi - lo])
            db *= -2.0
            db += x_sq[lo:hi, None]
            db += c_sq
            db.argmin(axis=1, out=new_assign[lo:hi])
            closest[lo:hi] = db[np.arange(hi - lo), new_assign[lo:hi]]
        distortions.append(float(np.maximum(closest, 0.0, out=closest).sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        # a stable sort lists each cluster's rows in ascending order, as a
        # boolean mask would, so every mean sums the same rows in the same order
        order = np.argsort(assignments, kind="stable")
        start = 0
        for j, stop in enumerate(np.cumsum(np.bincount(assignments, minlength=k))):
            if stop > start:  # empty clusters keep their previous centroid
                centroids[j] = np.asarray(frames[order[start:stop]], dtype=np.float64).mean(axis=0)
            start = stop
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


@dataclass
class ProbeReport:
    rows: list[dict]  # {"layer", "lid_acc", "mi_nats"} per stack depth
    metadata: dict

    def to_dict(self) -> dict:
        return {"rows": self.rows, "metadata": self.metadata}


def probe_all_layers(model, utterances, k: int, seed: int, checkpoint_id: str = "", probe_set_id: str = "",
                     layers=None) -> ProbeReport:
    """LID accuracy and cluster/phoneme MI at each depth in ``layers``
    (default: every depth, layer 0 included), rows in ``layers`` order.

    Each utterance keeps its own ``model.stages`` run, and all of them
    advance one depth at a time: a depth's activations are copied into one
    pooled and one frame buffer, reused for every depth, and probed before
    the next depth runs. So the probe holds one depth's frames and each
    utterance's current activation (and its tap posterior, until the layer
    above reads it), and stops after the deepest layer asked for, before
    any layer above it. The numbers are those of ``collect_layer_data``
    followed by the per-depth probes.
    """
    layers = range(model.depth + 1) if layers is None else list(layers)
    for d in layers:
        if not 0 <= d <= model.depth:
            raise ConfigError(f"layer {d} outside [0, {model.depth}]")
    lang_labels, frame_labels = _labels(model, utterances)
    scores = {}
    with tz.no_grad():
        runs = [model.stages(utt.features) for utt in utterances]
        for d in range(max(layers, default=-1) + 1):
            start = 0
            for i, (run, utt) in enumerate(zip(runs, utterances)):
                act = next(run)[0].values
                if d == 0 and i == 0:
                    pooled = np.empty((len(utterances), act.shape[1]), act.dtype)
                    frames = np.empty((len(frame_labels), act.shape[1]), act.dtype)
                _store(act, i, start, utt.n_frames, pooled, frames)
                start += utt.n_frames
            if d in layers:
                acc = lid_probe(pooled, lang_labels, split_seed=seed)
                km = kmeans(frames, k, seed=seed + d)
                scores[d] = acc, mutual_information(km.assignments, frame_labels)
    rows = [{"layer": d, "lid_acc": scores[d][0], "mi_nats": scores[d][1]} for d in layers]
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
    write_json(json_path, report.to_dict())
    with replacing(csv_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "lid_acc", "mi_nats"])
        for row in report.rows:
            writer.writerow([row["layer"], f"{row['lid_acc']:.6f}", f"{row['mi_nats']:.6f}"])
    return json_path, csv_path

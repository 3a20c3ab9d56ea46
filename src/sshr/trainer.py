"""Deterministic fine-tuning loop: Adam, eval-time metrics, and
checkpointing.

Every source of randomness flows from the training seed, so two runs with
identical configs produce byte-identical checkpoints and metric logs.
One optimizer step is one batch of ``batch_size`` utterances and one
packed forward/backward; a larger effective batch is a larger
``batch_size``. Utterances whose frame count cannot emit their targets are
left out before the forward and counted, never fatal; a step left with no
utterance makes no update.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .config import Strict
from .datagen import load_split
from .errors import ConfigError
from .evalkit import evaluate_model
from .files import write_json, write_text
from .model import SshrConfig, SshrModel


@dataclass(frozen=True)
class TrainConfig(Strict):
    steps: int = 2000
    lr: float = 1e-3
    warmup_steps: int = 100
    batch_size: int = 8
    seed: int = 1
    checkpoint_interval: int = 1000
    eval_interval: int = 250

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        for name in ("lr", "warmup_steps", "batch_size", "checkpoint_interval", "eval_interval"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"train config {name} must be positive")


ADAM_CHUNK = 1 << 14  # values per block of the Adam update
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moment vectors, one value per flat parameter value,
    plus the shared step counter."""

    def __init__(self, params: np.ndarray):
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> AdamState:
    """One bias-corrected Adam update of the flat ``params`` in place, with
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    ``grads`` and the moments are flat vectors of the same length. The
    update runs in blocks of ``ADAM_CHUNK`` values through two block-sized
    buffers, so it allocates nothing of the parameters' size; Adam is
    elementwise, so the blocks give the bits of a whole-vector update.
    """
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ConfigError(
            f"Adam needs equal flat lengths: parameters {params.shape}, gradients {grads.shape}, moments {state.m.shape}"
        )
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    buf_a = np.empty(min(ADAM_CHUNK, params.size), dtype=params.dtype)
    buf_b = np.empty_like(buf_a)
    for start in range(0, params.size, ADAM_CHUNK):
        p, g, m, v = (a[start : start + ADAM_CHUNK] for a in (params, grads, state.m, state.v))
        a, b = buf_a[: p.size], buf_b[: p.size]
        # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - ADAM_BETA2
        v += a
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, bc1, out=b)
        b /= a
        b *= lr
        p -= b
    return state


def _batch_stream(utterances, batch_size: int, rng: np.random.Generator):
    while True:
        order = rng.permutation(len(utterances))
        for start in range(0, len(order) - batch_size + 1, batch_size):
            yield [utterances[i] for i in order[start : start + batch_size]]


def _backward_step(model: SshrModel, utts) -> float:
    """Add the gradient of the batch's mean utterance loss into the
    parameters' ``.grad`` and return that loss. The step's graph dies with
    this frame, so it is freed before the next step's forward."""
    loss = model.batch_loss([(u.features, u.transcript, u.lang) for u in utts])
    tz.backward(loss)
    return loss.item()


def train(model_cfg, train_cfg, corpus_dir, out_dir) -> dict:
    """Run fine-tuning; writes checkpoints and metrics.jsonl into out_dir.

    Returns a summary with the final checkpoint path, last dev metrics (and
    the unrounded final dev scores), and the count of skipped infeasible
    utterances.
    """
    cfg = model_cfg if isinstance(model_cfg, SshrConfig) else SshrConfig.from_dict(model_cfg)
    tcfg = train_cfg if isinstance(train_cfg, TrainConfig) else TrainConfig.from_dict(train_cfg)
    train_utts, dev_utts = load_split(corpus_dir, "train"), load_split(corpus_dir, "dev")
    for split, utts in (("train", train_utts), ("dev", dev_utts)):
        if not utts:
            raise ConfigError(f"corpus {corpus_dir}: the {split} split has no utterances")
    os.makedirs(out_dir, exist_ok=True)
    model = SshrModel(cfg)
    state = AdamState(model.flat_values)
    rng = np.random.default_rng(np.random.SeedSequence([tcfg.seed & 0xFFFFFFFF, 0xA1]))
    batches = _batch_stream(train_utts, min(tcfg.batch_size, len(train_utts)), rng)

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    metrics = ""  # the log so far; the file is rewritten whole, never left half a line
    write_text(metrics_path, metrics)
    skipped = 0
    losses_since_eval: list[float] = []
    last_eval: dict = {}
    for step in range(1, tcfg.steps + 1):
        lr_t = tcfg.lr * min(1.0, step / tcfg.warmup_steps)
        batch = next(batches)
        kept = [u for u in batch if model.feasible(u.n_frames, u.transcript, u.lang)]
        skipped += len(batch) - len(kept)
        model.zero_grads()
        if kept:
            losses_since_eval.append(_backward_step(model, kept))
            adam_step(model.flat_values, model.flat_grads, state, lr_t)
        if step % tcfg.eval_interval == 0 or step == tcfg.steps:
            dev = evaluate_model(model, dev_utts)
            mean_loss = sum(losses_since_eval) / max(1, len(losses_since_eval))
            losses_since_eval = []
            last_eval = {
                "step": step,
                "loss": round(mean_loss, 6),
                "dev_per": round(dev["per"], 6),
                "dev_lid_acc": None if dev["lid_acc"] is None else round(dev["lid_acc"], 6),
            }
            metrics += json.dumps(last_eval, sort_keys=True) + "\n"
            write_text(metrics_path, metrics)
        if step % tcfg.checkpoint_interval == 0:
            model.save(os.path.join(out_dir, f"ckpt_{step:06d}.sshr"))
    final_path = os.path.join(out_dir, "final.sshr")
    model.save(final_path)
    return {
        "checkpoint": final_path,
        "metrics": metrics_path,
        "skipped_utterances": skipped,
        "last_eval": last_eval,
        "dev": dev if tcfg.steps else evaluate_model(model, dev_utts),
        "steps": tcfg.steps,
    }


def run_single_experiment(model_cfg: dict, train_cfg: dict, corpus_dir, run_dir) -> dict:
    """Train one configuration, then score test (dev was scored at the
    final step); the unit of work the ablation ladder fans out."""
    summary = train(model_cfg, train_cfg, corpus_dir, run_dir)
    model = SshrModel.load(summary["checkpoint"])
    dev = summary["dev"]
    test = evaluate_model(model, load_split(corpus_dir, "test"))
    result = {
        "dev_per": dev["per"],
        "test_per": test["per"],
        "lid_acc": test["lid_acc"],
        "skipped_utterances": summary["skipped_utterances"],
    }
    write_json(os.path.join(run_dir, "eval.json"), result)
    return result

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
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .config import Strict
from .datagen import load_split
from .errors import ConfigError
from .evalkit import evaluate_model
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


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: "OrderedDict[str, tz.Tensor]"):
        self.t = 0
        self.m = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in params.items()}


def adam_step(
    params: "OrderedDict[str, tz.Tensor]",
    grads: dict,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One bias-corrected Adam update; missing grads count as zero."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.values)
        elif g.shape != p.values.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter {name} shape {p.values.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.values = p.values - lr * update
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
    os.makedirs(out_dir, exist_ok=True)
    train_utts = load_split(corpus_dir, "train")
    if not train_utts:
        raise ConfigError(f"corpus {corpus_dir}: the train split has no utterances")
    dev_utts = load_split(corpus_dir, "dev")
    model = SshrModel(cfg)
    state = AdamState(model.params)
    rng = np.random.default_rng(np.random.SeedSequence([tcfg.seed & 0xFFFFFFFF, 0xA1]))
    batches = _batch_stream(train_utts, min(tcfg.batch_size, len(train_utts)), rng)

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    skipped = 0
    losses_since_eval: list[float] = []
    last_eval: dict = {}
    with open(metrics_path, "w", encoding="utf-8") as metrics_fh:
        for step in range(1, tcfg.steps + 1):
            lr_t = tcfg.lr * min(1.0, step / tcfg.warmup_steps)
            batch = next(batches)
            kept = [u for u in batch if model.feasible(u.n_frames, u.transcript, u.lang)]
            skipped += len(batch) - len(kept)
            model.zero_grads()
            if kept:
                losses_since_eval.append(_backward_step(model, kept))
                grads = {name: p.grad for name, p in model.params.items() if p.grad is not None}
                adam_step(model.params, grads, state, lr_t)
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
                metrics_fh.write(json.dumps(last_eval, sort_keys=True))
                metrics_fh.write("\n")
            if tcfg.checkpoint_interval and step % tcfg.checkpoint_interval == 0:
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
    with open(os.path.join(run_dir, "eval.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return result

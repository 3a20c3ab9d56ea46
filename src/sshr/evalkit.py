"""Metrics and the ablation-ladder harness.

Error rates are pooled over the corpus: total edit distance divided by
total reference length, with language-id tokens stripped from both sides
first so every variant is scored over identical reference material.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .config import overlay
from .ctc import Vocabulary
from .errors import ConfigError
from .files import canonical_json, replacing, write_json

# Published full-scale reference numbers for each ladder variant, attached
# to reports as context only; toy runs do not target them.
REFERENCE_RESULTS = {
    "B0": [("table1", "cv_per", 6.70), ("table1", "ml_cer", 16.08), ("table1", "ml_wer", 50.14)],
    "C1": [("table1", "cv_per", 6.39), ("table2", "cv_per", 6.38), ("table1", "ml_cer", 15.08), ("table1", "ml_wer", 47.81)],
    "C2": [("table1", "cv_per", 6.25), ("table3", "cv_per", 6.25), ("table1", "ml_cer", 15.22), ("table1", "ml_wer", 47.79)],
    "C3": [("table1", "cv_per", 6.12), ("table4", "cv_per", 6.12), ("table1", "ml_cer", 14.73), ("table1", "ml_wer", 46.92)],
    "C4": [("table1", "cv_per", 6.09), ("table1", "ml_cer", 14.05), ("table1", "ml_wer", 45.38)],
    "D2": [("table2", "cv_per", 6.68)],
    "D3": [("table2", "cv_per", 6.51)],
    "E1": [("table3", "cv_per", 6.44)],
    "E2": [("table3", "cv_per", 6.52)],
    "E3": [("table3", "cv_per", 6.26)],
    "F2": [("table4", "cv_per", 6.13)],
}

def edit_distance(a, b) -> int:
    """Levenshtein distance with unit costs (two-row DP)."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def error_counts(refs, hyps, groups, vocab: Vocabulary | None = None) -> dict:
    """Group -> [edit distance, reference length], each summed over the
    group's utterances, groups in sorted order. Each utterance is scored
    once, after stripping language-id tokens from both sides when a
    vocabulary is given."""
    refs, hyps, groups = list(refs), list(hyps), list(groups)
    if not len(refs) == len(hyps) == len(groups):
        raise ConfigError(f"{len(refs)} references vs {len(hyps)} hypotheses vs {len(groups)} groups")
    counts = {group: [0, 0] for group in sorted(set(groups))}
    for ref, hyp, group in zip(refs, hyps, groups):
        if vocab is not None:
            ref, hyp = vocab.strip_lid(ref), vocab.strip_lid(hyp)
        counts[group][0] += edit_distance(ref, hyp)
        counts[group][1] += len(ref)
    return counts


def pooled_rate(counts: list) -> float:
    """Total edits over total reference length of a list of
    ``error_counts`` values."""
    total_edits, total_ref = sum(e for e, _ in counts), sum(n for _, n in counts)
    if total_ref == 0:
        raise ConfigError("empty reference corpus")
    return total_edits / total_ref


def lid_accuracy(decoded, languages, vocab: Vocabulary) -> float:
    """Fraction of utterances whose first decoded token is the correct
    language-id token; a missing token scores as wrong."""
    decoded, languages = list(decoded), list(languages)
    if len(decoded) != len(languages):
        raise ConfigError("decoded/language count mismatch")
    if not decoded:
        return 0.0
    hits = 0
    for hyp, lang in zip(decoded, languages):
        if hyp and vocab.is_lid(hyp[0]) and hyp[0] == vocab.lid_token(lang):
            hits += 1
    return hits / len(decoded)


def evaluate_model(model, utterances) -> dict:
    """Greedy-decode a split; returns pooled PER (the headline), the
    per-language rates with their macro average, and LID accuracy when the
    model scores it, in which case a language the model lacks is rejected
    before any decode."""
    vocab = model.cfg.vocab
    if model.cfg.lid_in_targets:
        vocab.check_languages(utt.lang for utt in utterances)
    refs, hyps, langs = [], [], []
    for utt in utterances:
        refs.append([vocab.phoneme_token(p) for p in utt.transcript])
        hyps.append(model.decode(utt.features))
        langs.append(utt.lang)
    counts = error_counts(refs, hyps, langs, vocab)
    by_lang = {lang: pooled_rate([c]) for lang, c in counts.items()}
    lid = lid_accuracy(hyps, langs, vocab) if model.cfg.lid_in_targets else None
    return {
        "per": pooled_rate(list(counts.values())),
        "per_by_language": by_lang,
        "macro_per": sum(by_lang.values()) / len(by_lang),
        "lid_acc": lid,
    }


# ---------------------------------------------------------------------------
# ablation ladder


@dataclass
class ExperimentResult:
    variant: str
    seed: int
    config_hash: str
    dev_per: float
    test_per: float
    lid_acc: float | None


DEFAULT_LADDER = ("B0", "C1", "C2", "C3", "C4")
# every mechanism off; each variant overrides some of these keys
_BASELINE = {
    "stack": {"surgery": {"kind": "none", "n": 0}},
    "lid_extract_layer": None,
    "lid_in_targets": False,
    "cross_taps": [],
    "loss_weight": 0.0,
}


def apply_variant(model_cfg: dict, variant: str) -> dict:
    """Rewrite a baseline model-config dict into the given ladder variant.

    B0 is the plain encoder + CTC. C1 adds the language-summary frame, C2
    only trims the stack, C3 only adds posterior-query cross-attention
    taps, and C4 combines all three. D2 scores the language token without
    the frame, D3 extracts the frame at a low layer, E1/E2/E3 are the
    alternative surgeries, F2 is a single tap near the top. Layer counts
    and positions scale from the paper's 24-layer stack to ``depth``.
    """
    depth = model_cfg["stack"]["depth"]
    trim = max(1, round(depth * 3 / 24))  # final-layer count, scaled from 3 of 24
    lid = {"lid_extract_layer": max(1, round(depth * 8 / 24)), "lid_in_targets": True}

    def surgery(kind, n):
        return {"stack": {"surgery": {"kind": kind, "n": n}}}

    overrides = {
        "B0": {},
        "C1": lid,
        "C2": surgery("delete_last", trim),
        "C3": {"cross_taps": default_taps(depth), "loss_weight": 0.5},
        "C4": {**surgery("delete_last", trim), **lid, "cross_taps": default_taps(depth - trim), "loss_weight": 0.5},
        "D2": {"lid_in_targets": True},
        "D3": {"lid_extract_layer": trim, "lid_in_targets": True},  # low layer, 3 of 24
        "E1": surgery("random_init_last", trim),
        "E2": surgery("replace_last_with_middle", trim),
        "E3": surgery("delete_last", trim + 1),
        "F2": {"cross_taps": default_taps(depth)[-1:], "loss_weight": 0.5},  # single tap near the top
    }
    if variant not in overrides:
        raise ConfigError(f"unknown ladder variant {variant!r}")
    return overlay(overlay(model_cfg, _BASELINE), overrides[variant])


def default_taps(depth: int) -> list[int]:
    """Tap positions placed relative to the top of the (post-surgery)
    stack, every other layer: {depth-3, depth-1}. Taps that would fall on
    layer 1 or leave no layer above them are dropped."""
    taps = sorted({depth - 3, depth - 1})
    return [j for j in taps if 2 <= j <= depth - 1]


def config_hash(cfg_dict: dict) -> str:
    return hashlib.sha256(canonical_json(cfg_dict).encode("utf-8")).hexdigest()[:12]


def primary_reference(variant: str):
    refs = REFERENCE_RESULTS.get(variant)
    if not refs:
        return None, None
    table, _, value = refs[0]
    return value, table


class Ablation(NamedTuple):
    """A ladder's finished runs in ladder order, its failed runs, and every
    file it wrote."""

    results: list[ExperimentResult]
    failures: list[dict]
    files: list[str]


def run_ablation(ladder, seeds, corpus_dir, out_dir, train_cfg: dict, jobs: int = 1) -> Ablation:
    """Train and evaluate every (variant, seed) pair; failures are recorded
    per variant and do not stop the remaining runs. ``files`` lists every
    file written, a failed run's leftovers under its directory included.

    ``ladder`` is a list of (id, model_cfg) pairs; ``apply_variant`` gives
    a builtin variant's config. Each id owns ``<out_dir>/<id>/seed<k>``, so
    a repeated id, or one that is not a single plain path component (empty,
    ``.``, ``..``, holding a separator, absolute), is a ``ConfigError``
    before any run starts.

    Seed k is both the model seed and the training seed of its runs, so
    each seed draws its own initialisation; ``config_hash`` stays the hash
    of the ladder entry's config. With ``jobs > 1`` the runs go to a pool
    of spawned workers, which start from a fresh import and read the BLAS
    thread variables from the environment. A spawned worker re-imports the
    calling script, so a script that calls this with ``jobs > 1`` must do so
    under ``if __name__ == "__main__":``; without that guard every run is
    recorded as a failure.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    from .trainer import run_single_experiment  # local import: trainer uses these metrics

    variant_ids = [vid for vid, _ in ladder]
    for i, vid in enumerate(variant_ids):
        if vid in variant_ids[:i]:
            raise ConfigError(f"ladder id {vid!r} appears more than once")
        if vid in ("", ".", "..") or os.path.basename(vid) != vid:
            raise ConfigError(f"ladder id {vid!r} is not one plain path component")
    os.makedirs(out_dir, exist_ok=True)
    tasks = []
    for variant, variant_cfg in ladder:
        for seed in seeds:
            run_dir = os.path.join(out_dir, variant, f"seed{seed}")
            tasks.append((variant, int(seed), variant_cfg, run_dir))

    results: list[ExperimentResult] = []
    failures: list[dict] = []
    files: list[str] = []
    args = [(dict(cfg, seed=seed), dict(train_cfg, seed=seed), corpus_dir, run_dir) for _, seed, cfg, run_dir in tasks]
    # one call per task, in task order: a pool future's result, or the run itself
    with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn")) if jobs > 1 else nullcontext() as pool:
        calls = [
            pool.submit(run_single_experiment, *a).result if pool else partial(run_single_experiment, *a)
            for a in args
        ]
        for (variant, seed, variant_cfg, run_dir), call in zip(tasks, calls):
            try:
                outcome = call()
            except Exception as err:  # noqa: BLE001 - per-variant isolation
                failures.append({"variant": variant, "seed": seed, "error": str(err)})
                files += sorted(os.path.join(top, name) for top, _, names in os.walk(run_dir) for name in names)
                continue
            files += outcome["files"]
            results.append(
                ExperimentResult(
                    variant=variant,
                    seed=seed,
                    config_hash=config_hash(variant_cfg),
                    dev_per=outcome["dev_per"],
                    test_per=outcome["test_per"],
                    lid_acc=outcome["lid_acc"],
                )
            )

    order = {v: i for i, v in enumerate(variant_ids)}
    results.sort(key=lambda r: (order[r.variant], r.seed))
    files += write_ablation_report(results, failures, variant_ids, out_dir)
    return Ablation(results, failures, files)


def write_ablation_report(results, failures, ladder, out_dir) -> list[str]:
    """Write ``ablation.csv`` and ``summary.json``; returns their paths."""
    csv_path, summary_path = os.path.join(out_dir, "ablation.csv"), os.path.join(out_dir, "summary.json")
    with replacing(csv_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "dev_per", "test_per", "lid_acc", "paper_ref_value", "paper_ref_table"])
        for r in results:
            ref_value, ref_table = primary_reference(r.variant)
            writer.writerow(
                [
                    r.variant,
                    r.seed,
                    f"{r.dev_per:.6f}",
                    f"{r.test_per:.6f}",
                    "" if r.lid_acc is None else f"{r.lid_acc:.6f}",
                    "" if ref_value is None else ref_value,
                    "" if ref_table is None else ref_table,
                ]
            )

    summary: dict = {"ladder": list(ladder), "variants": {}, "failures": failures}
    baseline_mean = None
    for variant in ladder:
        rows = [r for r in results if r.variant == variant]
        if not rows:
            continue
        pers = [r.test_per for r in rows]
        mean = sum(pers) / len(pers)
        sd = math.sqrt(sum((p - mean) ** 2 for p in pers) / len(pers)) if len(pers) > 1 else 0.0
        if variant == ladder[0]:
            baseline_mean = mean
        entry = {
            "seeds": [r.seed for r in rows],
            "config_hash": rows[0].config_hash,
            "dev_per": [r.dev_per for r in rows],
            "test_per": pers,
            "test_per_mean": mean,
            "test_per_sd": sd,
            "lid_acc": [r.lid_acc for r in rows],
            "reference": [
                {"table": t, "metric": m, "value": v} for t, m, v in REFERENCE_RESULTS.get(variant, [])
            ],
        }
        if baseline_mean and baseline_mean > 0:
            # toy-scale relative change vs the ladder's first row, context only
            entry["relative_change_vs_baseline"] = (baseline_mean - mean) / baseline_mean
        summary["variants"][variant] = entry
    write_json(summary_path, summary)
    return [csv_path, summary_path]

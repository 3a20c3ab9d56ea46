"""Single executable for the whole workflow.

Subcommands: ``datagen``, ``train``, ``eval``, ``probe``, ``ablate``,
``gradcheck``. Exit codes: 0 success, 1 validation error, 2 runtime
failure. All randomness flows from ``--seed``. A command creates ``--out``
when it writes its first output, so an invocation rejected for its flags,
configs, checkpoint or corpus writes nothing. Once the command returns,
``main`` writes ``run_manifest.json`` (the only output allowed to differ
between identical runs, via its timestamps); a run that fails midway
keeps its outputs so far, with no run manifest. ``SSHR_LOG`` picks the
log level.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys
from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple

from . import __version__
from .config import Strict, overlay, strict_args, typed
from .ctc import Vocabulary
from .datagen import DEFAULT_COUNTS, SPLITS, default_corpus_spec, generate_corpus, load_corpus_spec, load_split
from .errors import ConfigError, CorruptDataError, SshrError
from .evalkit import DEFAULT_LADDER, apply_variant, evaluate_model, run_ablation
from .files import write_json
from .gradcheck import gradcheck_suite
from .model import SshrConfig, SshrModel, default_model_config
from .probe import probe_all_layers, write_report
from .trainer import TrainConfig, train

log = logging.getLogger("sshr")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad flags, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p, out_default=None):
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness in this run")
    if out_default is None:
        p.add_argument("--out", required=True, help="run directory for every output")
    else:
        p.add_argument("--out", default=out_default, help="run directory for every output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sshr", description=__doc__, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--version", action="version", version=f"sshr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("datagen", help="generate the synthetic corpus",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p)
    p.add_argument("--config", default=None, help="JSON file of corpus knobs (strict keys)")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="fine-tune a model on a generated corpus",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p)
    p.add_argument("--config", required=True, help="JSON file with model/train/data sections")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a corpus split",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p)
    p.add_argument("--config", required=True, help="JSON file: checkpoint/corpus_dir/split")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="layer-wise LID-accuracy and cluster/phoneme MI curves",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p)
    p.add_argument("--config", required=True, help="JSON file: checkpoint/corpus_dir/split")
    p.add_argument("--k", type=int, default=0, help="k-means clusters (0 = 4 x phoneme inventory)")
    p.add_argument("--layer", type=int, default=None, help="probe a single layer instead of all")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("ablate", help="train and score a ladder of model variants",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p)
    p.add_argument("--config", required=True, help="JSON file with model/train/data sections")
    p.add_argument("--ladder", default="default", help="ladder name or JSON file of variants")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds per variant (seed, seed+1, ...)")
    p.add_argument("--jobs", type=int, default=1, help="parallel training processes")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference verification of every gradient rule",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(p, out_default="sshr_gradcheck")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as err:  # not UTF-8 or not JSON
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None


@dataclass(frozen=True)
class _Data(Strict):
    corpus_dir: str


@dataclass(frozen=True)
class _TrainFile(Strict):
    """A ``train``/``ablate`` config; the model and train sections are
    checked once the corpus has supplied the vocabulary."""

    data: _Data
    model: dict | None = None
    train: dict | None = None


@dataclass(frozen=True)
class _EvalFile(Strict):
    checkpoint: str
    corpus_dir: str
    split: str = "test"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ConfigError(f"split must be one of {', '.join(SPLITS)}, got {self.split!r}")


@dataclass(frozen=True)
class _LadderEntry(Strict):
    id: str
    variant: str | None = None
    model: dict | None = None


def _model_config(base: dict, explicit: dict, variant: str | None, where: str) -> SshrConfig:
    """``base`` with a ladder variant and explicit keys applied. Explicit
    keys win over the variant's, and the variant derives its layers from
    the explicit depth."""
    cfg = overlay(base, explicit)
    if variant is not None:
        stack = typed(cfg["stack"], dict, f"{where}.stack")
        typed(stack["depth"], int, f"{where}.stack.depth")
        cfg = overlay(apply_variant(cfg, variant), explicit)
    return SshrConfig.from_dict(cfg, where)


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class Outcome(NamedTuple):
    """What a command resolved and wrote, and its exit code. The command
    creates ``--out`` with its first output; ``main`` adds the run
    manifest."""

    resolved_config: dict
    outputs: list
    code: int = 0


def cmd_datagen(args) -> Outcome:
    raw = _load_json(args.config) if args.config else {}
    kwargs = strict_args(default_corpus_spec, raw, "corpus")
    if "seed" in raw:
        raise ConfigError("corpus.seed is set by --seed")
    kwargs["counts"] = {**DEFAULT_COUNTS, **kwargs["counts"]}  # splits left out keep their default
    resolved = {**kwargs, "seed": args.seed}
    summary = generate_corpus(default_corpus_spec(**resolved), args.out)
    log.info("datagen: wrote %s", summary["splits"])
    return Outcome(resolved, summary["files"])


def _resolve_train_sections(raw, seed: int):
    cfg = _TrainFile.from_dict(raw, "config")
    model, train_section = dict(cfg.model or {}), cfg.train or {}
    if "seed" in model or "seed" in train_section:
        raise ConfigError("model.seed and train.seed are set by --seed")
    if "vocab" in model or "feature_dim" in model:
        raise ConfigError("model vocab/feature_dim come from the corpus")
    spec = load_corpus_spec(cfg.data.corpus_dir)
    vocab = Vocabulary(phonemes=spec.phoneme_symbols, languages=spec.language_names)
    base = default_model_config(vocab, spec.feature_dim, seed)
    variant = typed(model.pop("variant", None), str | None, "model.variant")
    model_cfg = _model_config(base, model, variant, "model")
    train_cfg = TrainConfig.from_dict({**train_section, "seed": seed}, "train")
    return model_cfg, train_cfg, cfg.data.corpus_dir


def cmd_train(args) -> Outcome:
    model_cfg, train_cfg, corpus_dir = _resolve_train_sections(_load_json(args.config), args.seed)
    summary = train(model_cfg, train_cfg, corpus_dir, args.out)
    log.info("train: final checkpoint %s, last eval %s", summary["checkpoint"], summary["last_eval"])
    resolved = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict(), "data": {"corpus_dir": corpus_dir}}
    return Outcome(resolved, [summary["checkpoint"], summary["metrics"]])


def _load_scored(cfg: _EvalFile):
    """The checkpoint and the split it scores. Token ids index the
    checkpoint's phonemes, so the corpus must list the same ones."""
    model = SshrModel.load(cfg.checkpoint)
    utts = load_split(cfg.corpus_dir, cfg.split)
    pairs = zip_longest(model.cfg.vocab.phonemes, load_corpus_spec(cfg.corpus_dir).phoneme_symbols)
    for i, (ours, theirs) in enumerate(pairs):
        if ours != theirs:
            raise ConfigError(f"{cfg.checkpoint}: phoneme {i} is {ours!r} in the checkpoint but {theirs!r} in "
                              f"{cfg.corpus_dir}; a checkpoint scores only a corpus with its phoneme inventory")
    return model, utts


def cmd_eval(args) -> Outcome:
    cfg = _EvalFile.from_dict(_load_json(args.config), "config")
    model, utts = _load_scored(cfg)
    payload = {"split": cfg.split, "n_utterances": len(utts), **evaluate_model(model, utts)}
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "eval.json")
    write_json(out_path, payload)
    log.info("eval: %s", payload)
    return Outcome(cfg.to_dict(), [out_path])


def cmd_probe(args) -> Outcome:
    if args.k < 0:
        raise ConfigError("--k must be >= 0")
    cfg = _EvalFile.from_dict(_load_json(args.config), "config")
    model, utts = _load_scored(cfg)
    k = args.k if args.k > 0 else 4 * len(model.cfg.vocab.phonemes)
    report = probe_all_layers(model, utts, k=k, seed=args.seed, checkpoint_id=cfg.checkpoint,
                              probe_set_id=cfg.split, layers=None if args.layer is None else [args.layer])
    json_path, csv_path = write_report(report, args.out)
    log.info("probe: wrote %s", csv_path)
    return Outcome({**cfg.to_dict(), "k": k, "layer": args.layer}, [json_path, csv_path])


def _load_ladder(name_or_path) -> list[_LadderEntry]:
    """Ladder entries: variant ids, or objects with an id, an optional
    variant and optional explicit model keys."""
    if name_or_path == "default":
        return [_LadderEntry(v, v) for v in DEFAULT_LADDER]
    raw = _load_json(name_or_path)
    if not isinstance(raw, list) or not raw:
        raise ConfigError("ladder file must be a nonempty JSON list")
    return [
        _LadderEntry(item, item) if isinstance(item, str) else _LadderEntry.from_dict(item, f"ladder[{i}]")
        for i, item in enumerate(raw)
    ]


def cmd_ablate(args) -> Outcome:
    model_cfg, train_cfg, corpus_dir = _resolve_train_sections(_load_json(args.config), args.seed)
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    seeds = [args.seed + i for i in range(args.seeds)]
    base = model_cfg.to_dict()
    # every entry is checked here, before the first run starts
    ladder = [
        (e.id, _model_config(base, e.model or {}, e.variant, f"ladder.{e.id}.model").to_dict())
        for e in _load_ladder(args.ladder)
    ]
    train_cfg = train_cfg.to_dict()
    results = run_ablation(ladder, seeds, corpus_dir, args.out, train_cfg, jobs=args.jobs)
    log.info("ablate: %d runs finished", len(results))
    resolved = {
        "ladder": [{"id": vid, "model": cfg} for vid, cfg in ladder],
        "train": train_cfg,
        "data": {"corpus_dir": corpus_dir},
        "seeds": seeds,
        "jobs": args.jobs,
    }
    return Outcome(resolved, [os.path.join(args.out, name) for name in ("ablation.csv", "summary.json")])


def cmd_gradcheck(args) -> Outcome:
    report = gradcheck_suite(seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "gradcheck.json")
    write_json(out_path, report)
    for name, entry in sorted(report["checks"].items()):
        log.info("gradcheck %-24s rel_err=%.3g %s", name, entry["max_rel_err"],
                 "ok" if entry["passed"] else "FAIL")
    if not report["all_passed"]:
        log.error("gradcheck: worst relative error %.3g exceeds %.1g", report["worst_rel_err"], report["tolerance"])
    else:
        log.info("gradcheck: all checks passed (worst %.3g)", report["worst_rel_err"])
    return Outcome({"seed": args.seed}, [out_path], 0 if report["all_passed"] else 2)


def _write_run_manifest(args, started_at: str, outcome: Outcome):
    manifest = {
        "command": args.command,
        "seed": args.seed,
        "version": __version__,
        "resolved_config": outcome.resolved_config,
        "started_at": started_at,
        "finished_at": _utc_now(),
        "outputs": sorted(os.path.relpath(path, args.out) for path in outcome.outputs),
    }
    write_json(os.path.join(args.out, "run_manifest.json"), manifest)


def main(argv=None) -> int:
    level = os.environ.get("SSHR_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        print(f"sshr: invalid SSHR_LOG={level!r} (use error, info, debug)", file=sys.stderr)
        return 1
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError("--seed must be a non-negative integer")
        started_at = _utc_now()
        outcome = args.func(args)
        _write_run_manifest(args, started_at, outcome)
        return outcome.code
    except (ConfigError, CorruptDataError) as err:
        print(f"sshr {args.command}: {err}", file=sys.stderr)
        return 1
    except SshrError as err:
        print(f"sshr {args.command}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"sshr {args.command}: {err}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

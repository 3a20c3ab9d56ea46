"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The pinned toy-scale
training runs (criterion 7) dominate the runtime; everything trains well
inside the 2000-step budget the criteria allow.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from conftest import entropy_of_counts, rand_log_softmax
from sshr import tensor as tz
from sshr.ctc import Vocabulary, ctc_brute_force, ctc_loss, min_frames
from sshr.datagen import default_corpus_spec, generate_corpus, load_split
from sshr.encoder import StackConfig, Surgery, build_stack, init_layer_params
from sshr.evalkit import apply_variant, run_ablation
from sshr.gradcheck import REL_TOL, gradcheck_suite
from sshr.model import SshrModel, default_model_config, total_loss
from sshr.probe import collect_layer_data, lid_probe, mutual_information, probe_all_layers, write_report
from sshr.trainer import run_single_experiment, train

PINNED_SEEDS = (1, 2, 3)
PINNED_STEPS = 600  # converges well inside the 2000-step budget
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def report(num, desc, ok, extra=""):
    suffix = f" ({extra})" if extra else ""
    line = f"ACCEPTANCE {num} {desc}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_corpus")
    generate_corpus(default_corpus_spec(seed=11), out)
    return out


def _timed_run(model_cfg, train_cfg, corpus_dir, run_dir):
    """``run_single_experiment`` in a pool worker: its result and its own
    wall time."""
    started = time.perf_counter()
    res = run_single_experiment(model_cfg, train_cfg, corpus_dir, run_dir)
    return res, time.perf_counter() - started


@pytest.fixture(scope="session")
def pinned_runs(default_corpus, tmp_path_factory):
    """B0 and C4 trained on the default corpus for each pinned seed.

    The six runs share a pool of up to two spawned workers, each started
    with one BLAS thread (two per worker would oversubscribe two cores).
    ``elapsed_sec`` sums the runs' own wall times, so it stays the
    training time of six runs.
    """
    out = tmp_path_factory.mktemp("acc_runs")
    from sshr.datagen import load_corpus_spec

    spec = load_corpus_spec(default_corpus)
    vocab = Vocabulary(spec.phoneme_symbols, spec.language_names)
    base = default_model_config(vocab, spec.feature_dim)
    tcfg = {"steps": PINNED_STEPS, "eval_interval": 300, "checkpoint_interval": PINNED_STEPS}
    runs = {}
    for variant in ("B0", "C4"):
        for seed in PINNED_SEEDS:
            cfg = apply_variant(base, variant)
            cfg["seed"] = seed
            runs[(variant, seed)] = (cfg, dict(tcfg, seed=seed), default_corpus, out / variant / f"seed{seed}")
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1), mp_context=get_context("spawn")) as pool:
        with pytest.MonkeyPatch.context() as env:  # a worker copies the environment when a submit starts it
            for var in BLAS_THREAD_VARS:
                env.setenv(var, "1")
            futures = {key: pool.submit(_timed_run, *args) for key, args in runs.items()}
        outcomes = {key: future.result() for key, future in futures.items()}
    results = {key: {**res, "checkpoint": str(runs[key][3] / "final.sshr")} for key, (res, _) in outcomes.items()}
    results["elapsed_sec"] = sum(elapsed for _, elapsed in outcomes.values())
    return results


def test_criterion_1_ctc_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 200:
        t_len = int(rng.integers(1, 7))
        v = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        targets = [int(x) for x in rng.integers(1, v, size=n)]
        if min_frames(targets) > t_len:
            continue
        lp = rand_log_softmax(rng, t_len, v)
        loss = float(ctc_loss(lp, targets).values)
        brute = ctc_brute_force(np.exp(lp), targets)
        worst = max(worst, abs(math.exp(-loss) - brute))
        checked += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "CTC forward-backward matches brute-force enumeration on 200 random instances",
        worst < 1e-6 and elapsed < 30.0,
        f"worst abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    suite = gradcheck_suite(seed=0)
    elapsed = time.perf_counter() - started
    report(
        2,
        "every op and composite passes 64-bit finite-difference checks",
        suite["all_passed"] and suite["worst_rel_err"] < REL_TOL and elapsed < 120.0,
        f"worst rel err {suite['worst_rel_err']:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_combined_loss_degenerate_weights():
    rng = np.random.default_rng(5)
    targets = [1, 3, 2]
    final = tz.Tensor(rand_log_softmax(rng, 8, 5))
    ok = True
    for k in (2, 3):
        taps = [tz.Tensor(rand_log_softmax(rng, 8, 5)) for _ in range(k)]
        tap_losses = [ctc_loss(tap, targets) for tap in taps]
        w0 = total_loss(ctc_loss(final, targets), tap_losses, 0.0)
        direct = ctc_loss(final, targets)
        ok &= w0.values.tobytes() == direct.values.tobytes()

        w1 = total_loss(ctc_loss(final, targets), tap_losses, 1.0)
        acc = float(ctc_loss(taps[0], targets).values)
        for tap in taps[1:]:
            acc = acc + float(ctc_loss(tap, targets).values)
        mean = acc * (1.0 / k)
        ok &= float(w1.values) == mean and w1.values.dtype == np.float64
    report(3, "w=0 reproduces the final CTC loss and w=1 the tap mean, bitwise in 64-bit", ok)


def test_criterion_4_length_law_and_decode(pinned_runs, default_corpus):
    test_utts = load_split(default_corpus, "test")
    length_ok = True
    stray_free = 0
    lead_correct = 0
    total = 0
    for seed in PINNED_SEEDS:
        model = SshrModel.load(pinned_runs[("C4", seed)]["checkpoint"])
        vocab = model.cfg.vocab
        for utt in test_utts:
            with tz.no_grad():
                out = model.forward(utt.features)
                acts = [x.values for x, _, _ in model.stages(utt.features)]
            lid = model.cfg.lid_extract_layer
            length_ok &= sum(out.lengths) == utt.n_frames + 1
            length_ok &= out.final.values.shape[0] == utt.n_frames + 1
            length_ok &= all(
                act.shape[0] == utt.n_frames + (1 if d > lid else 0)
                for d, act in enumerate(acts)
            )
            decoded = model.decode(utt.features)
            total += 1
            if decoded and vocab.is_lid(decoded[0]) and decoded[0] == vocab.lid_token(utt.lang):
                lead_correct += 1
            rest = decoded[1:] if decoded and vocab.is_lid(decoded[0]) else decoded
            if not any(vocab.is_lid(t) for t in rest):
                stray_free += 1
    report(
        4,
        "post-splice lengths are T+1 and trained decodes strip to plain phonemes",
        length_ok and stray_free == total and lead_correct / total >= 0.95,
        f"lead-correct {lead_correct}/{total}, stray-free {stray_free}/{total}",
    )


def test_criterion_5_stack_surgery_structures():
    cfg = StackConfig(depth=24, hidden=16, heads=2, ffn=32, surgery=Surgery("delete_last", 3))
    deleted = build_stack(cfg)
    ok = len(deleted) == 21 and all(s.kind == "self_attention" for s in deleted)

    cfg = StackConfig(depth=24, hidden=16, heads=2, ffn=32, surgery=Surgery("replace_last_with_middle", 3))
    specs = build_stack(cfg)
    ok &= len(specs) == 24
    ok &= [s.init for s in specs[21:]] == [("copy", 19), ("copy", 20), ("copy", 21)]
    layers = [init_layer_params(spec, cfg, posterior_dim=4, seed=3) for spec in specs]
    for m in range(3):
        src, dst = layers[18 + m], layers[21 + m]
        for a, b in zip(src.values(), dst.values()):
            ok &= a.values.tobytes() == b.values.tobytes()
    report(5, "delete_last(3) keeps 21 layers; replace_last_with_middle(3) copies bytes of 19-21", ok)


def test_criterion_6_mutual_information_estimator():
    # independence: full factorial tables, several shapes
    ok = True
    for c, y, reps in [(2, 2, 3), (4, 3, 2), (5, 7, 1)]:
        a = np.repeat(np.arange(c), y * reps)
        b = np.tile(np.arange(y), c * reps)
        ok &= mutual_information(a, b) == 0.0
    # identity over M equiprobable labels
    for m in (2, 4, 9, 16):
        labels = np.repeat(np.arange(m), 11)
        ok &= abs(mutual_information(labels, labels) - math.log(m)) < 1e-12
    # bounded by marginal entropies on 1000 random tables
    rng = np.random.default_rng(6)
    worst_excess = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 80))
        a = rng.integers(0, int(rng.integers(2, 7)), n)
        b = rng.integers(0, int(rng.integers(2, 7)), n)
        mi = mutual_information(a, b)
        bound = min(entropy_of_counts(np.bincount(a)), entropy_of_counts(np.bincount(b)))
        worst_excess = max(worst_excess, mi - bound)
        ok &= mi >= -1e-12 and mi <= bound + 1e-9
    report(6, "MI: exact 0 under independence, ln M on identity, bounded by marginal entropies", ok,
           f"worst excess over bound {worst_excess:.2e}")


def test_criterion_7_pinned_toy_pipeline(pinned_runs):
    b0 = [pinned_runs[("B0", s)]["test_per"] for s in PINNED_SEEDS]
    c4 = [pinned_runs[("C4", s)]["test_per"] for s in PINNED_SEEDS]
    lid = [pinned_runs[("C4", s)]["lid_acc"] for s in PINNED_SEEDS]
    b0_mean = sum(b0) / len(b0)
    c4_mean = sum(c4) / len(c4)
    lid_mean = sum(lid) / len(lid)
    elapsed = pinned_runs["elapsed_sec"]
    ok = (
        all(per < 0.20 for per in b0)
        and c4_mean <= b0_mean + 0.005
        and lid_mean >= 0.95
        and elapsed < 1800.0
    )
    report(
        7,
        "pinned run: baseline PER < 0.20, full variant within margin, LID >= 0.95, < 30 min",
        ok,
        f"B0 {b0_mean:.4f}, C4 {c4_mean:.4f}, LID {lid_mean:.3f}, {elapsed / 60:.1f} min over {len(PINNED_SEEDS) * 2} runs of {PINNED_STEPS} steps",
    )


def test_criterion_8_probe_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_probe")
    spec = default_corpus_spec(seed=21, noise_sigma=0.0, counts={"train": 60, "dev": 15, "test": 20})
    generate_corpus(spec, out / "corpus")
    vocab = Vocabulary(spec.phoneme_symbols, spec.language_names)
    cfg = default_model_config(vocab, spec.feature_dim, seed=5)
    summary = train(cfg, {"steps": 300, "seed": 5, "eval_interval": 300, "checkpoint_interval": 300},
                    out / "corpus", out / "run")
    model = SshrModel.load(summary["checkpoint"])
    test_utts = load_split(out / "corpus", "test")

    rep = probe_all_layers(model, test_utts, k=32, seed=9, checkpoint_id="final", probe_set_id="test")
    max_acc = max(row["lid_acc"] for row in rep.rows)

    pooled, _, langs, _ = collect_layer_data(model, test_utts)
    rng = np.random.default_rng(3)
    shuffled = langs[rng.permutation(len(langs))]
    n = len(langs)
    n_test = n - int(round(0.7 * n))
    band = 3.0 * math.sqrt(0.25 * 0.75 / n_test)
    shuffled_accs = [lid_probe(pooled[d], shuffled, split_seed=9) for d in range(model.depth + 1)]
    shuffle_ok = all(abs(acc - 0.25) <= band + 1e-9 for acc in shuffled_accs)

    _, csv_path = write_report(rep, out / "report")
    lines = open(csv_path).read().strip().splitlines()
    csv_ok = lines[0] == "layer,lid_acc,mi_nats" and len(lines) == model.depth + 2
    parsed = [line.split(",") for line in lines[1:]]
    csv_ok &= all(len(p) == 3 and float(p[1]) >= 0 and float(p[2]) >= 0 for p in parsed)

    report(
        8,
        "probe: max LID accuracy >= 0.99 on the noiseless corpus, chance on shuffled labels, CSV has depth+1 rows",
        max_acc >= 0.99 and shuffle_ok and csv_ok,
        f"max acc {max_acc:.3f}, shuffled range [{min(shuffled_accs):.2f}, {max(shuffled_accs):.2f}] vs band +-{band:.2f}",
    )


def test_criterion_9_determinism(small_corpus, small_vocab, tmp_path):
    model_cfg = default_model_config(small_vocab, 16, seed=2)
    model_cfg["stack"].update({"depth": 3, "hidden": 16, "ffn": 32, "heads": 2})
    tcfg = {"steps": 40, "seed": 2, "eval_interval": 20, "checkpoint_interval": 40, "batch_size": 4}
    a = train(model_cfg, tcfg, small_corpus, tmp_path / "train_a")
    b = train(model_cfg, tcfg, small_corpus, tmp_path / "train_b")
    train_ok = (
        open(a["checkpoint"], "rb").read() == open(b["checkpoint"], "rb").read()
        and open(a["metrics"]).read() == open(b["metrics"]).read()
    )

    ab_cfg = {"steps": 10, "eval_interval": 10, "checkpoint_interval": 10, "batch_size": 4}
    ladder = [(v, apply_variant(model_cfg, v)) for v in ("B0", "C1")]
    run_ablation(ladder, [2], small_corpus, tmp_path / "ab_a", ab_cfg)
    run_ablation(ladder, [2], small_corpus, tmp_path / "ab_b", ab_cfg)
    ablate_ok = (
        (tmp_path / "ab_a/ablation.csv").read_bytes() == (tmp_path / "ab_b/ablation.csv").read_bytes()
        and (tmp_path / "ab_a/summary.json").read_bytes() == (tmp_path / "ab_b/summary.json").read_bytes()
        and (tmp_path / "ab_a/B0/seed2/final.sshr").read_bytes() == (tmp_path / "ab_b/B0/seed2/final.sshr").read_bytes()
        and (tmp_path / "ab_a/C1/seed2/metrics.jsonl").read_bytes() == (tmp_path / "ab_b/C1/seed2/metrics.jsonl").read_bytes()
    )
    report(9, "train and ablate are byte-identical across repeated seeded runs", train_ok and ablate_ok)

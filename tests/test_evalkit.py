from types import SimpleNamespace

import numpy as np
import pytest

import sshr.evalkit
from conftest import tiny_vocab
from sshr.errors import ConfigError
from sshr.evalkit import (
    DEFAULT_LADDER,
    REFERENCE_RESULTS,
    apply_variant,
    default_taps,
    edit_distance,
    error_counts,
    evaluate_model,
    lid_accuracy,
    pooled_rate,
    primary_reference,
    run_ablation,
)
from sshr.model import default_model_config


class TestEditDistance:
    def test_identical(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0

    def test_empty_vs_length_n(self):
        assert edit_distance([], [5, 6, 7]) == 3
        assert edit_distance([5, 6, 7], []) == 3

    def test_kitten_sitting(self):
        assert edit_distance(list("kitten"), list("sitting")) == 3

    @pytest.mark.parametrize("trial", range(20))
    def test_metric_properties(self, trial):
        rng = np.random.default_rng(400 + trial)
        seqs = [rng.integers(0, 4, size=rng.integers(0, 8)).tolist() for _ in range(3)]
        a, b, c = seqs
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, a) == 0
        if a != b:
            assert edit_distance(a, b) > 0
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def pooled(counts: dict) -> float:
    return pooled_rate(list(counts.values()))


class TestErrorRate:
    def test_exact_match(self):
        counts = error_counts([[1, 2]], [[1, 2]], ["a"])
        assert counts == {"a": [0, 2]} and pooled(counts) == 0.0

    def test_all_empty_hyps(self):
        counts = error_counts([[1, 2], [3]], [[], []], ["a", "a"])
        assert counts == {"a": [3, 3]} and pooled(counts) == 1.0

    def test_single_insertion(self):
        assert pooled(error_counts([[1, 2]], [[1, 3, 2]], ["a"])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            error_counts([[1]], [[1], [2]], ["a"])
        with pytest.raises(ConfigError):
            error_counts([[1], [2]], [[1], [2]], ["a"])

    def test_empty_reference_corpus(self):
        counts = error_counts([[]], [[1]], ["a"])
        assert counts == {"a": [1, 0]}
        with pytest.raises(ConfigError, match="empty reference corpus"):
            pooled(counts)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(1)
        refs = [rng.integers(1, 5, size=6).tolist() for _ in range(4)]
        hyps = [rng.integers(1, 5, size=5).tolist() for _ in range(4)]
        groups = ["a", "b", "a", "b"]
        base = error_counts(refs, hyps, groups)
        relabel = {i: i + 10 for i in range(5)}
        assert error_counts(
            [[relabel[t] for t in r] for r in refs],
            [[relabel[t] for t in h] for h in hyps],
            groups,
        ) == base

    def test_lid_stripping_gives_shared_reference_material(self):
        vocab = tiny_vocab(n_phonemes=4, n_langs=2)
        lid = vocab.lid_token("L0")
        plain_refs = [[1, 2], [3, 4]]
        prefixed_refs = [[lid, 1, 2], [lid, 3, 4]]
        hyps = [[1, 2], [3]]
        groups = ["L0", "L0"]
        plain = error_counts(plain_refs, hyps, groups, vocab)
        assert plain == error_counts(prefixed_refs, hyps, groups, vocab) == {"L0": [1, 4]}

    def test_per_group_rates_alongside_pooled(self):
        refs = [[1, 2], [1, 2, 3, 4]]
        hyps = [[1], [1, 2, 3, 4]]
        counts = error_counts(refs, hyps, ["b", "a"])
        assert list(counts) == ["a", "b"]  # groups in sorted order
        by_group = {group: pooled_rate([c]) for group, c in counts.items()}
        assert by_group == {"a": 0.0, "b": 0.5}
        assert pooled(counts) == 1 / 6  # pooled headline differs from macro
        assert sum(by_group.values()) / 2 == 0.25


class TestEvaluateModel:
    def test_scores_each_utterance_once(self, monkeypatch):
        vocab = tiny_vocab(n_phonemes=4, n_langs=3)
        rng = np.random.default_rng(5)
        utts = [
            SimpleNamespace(transcript=tuple(rng.integers(0, 4, size=rng.integers(1, 7)).tolist()),
                            lang=f"L{rng.integers(0, 3)}", features=i)
            for i in range(12)
        ]
        hyps = [[vocab.lid_token(u.lang)] * (i % 2) + rng.integers(1, 7, size=rng.integers(0, 7)).tolist()
                for i, u in enumerate(utts)]
        model = SimpleNamespace(cfg=SimpleNamespace(vocab=vocab, lid_in_targets=True), decode=hyps.__getitem__)
        scored = []
        monkeypatch.setattr(sshr.evalkit, "edit_distance", lambda a, b: scored.append(1) or edit_distance(a, b))
        scores = evaluate_model(model, utts)
        assert len(scored) == len(utts)
        monkeypatch.undo()
        refs = [[vocab.phoneme_token(p) for p in u.transcript] for u in utts]
        langs = [u.lang for u in utts]
        counts = error_counts(refs, hyps, langs, vocab)
        by_lang = {lang: pooled_rate([c]) for lang, c in counts.items()}
        assert scores == {
            "per": pooled(counts),
            "per_by_language": by_lang,
            "macro_per": sum(by_lang.values()) / len(by_lang),
            "lid_acc": lid_accuracy(hyps, langs, vocab),
        }
        assert list(scores["per_by_language"]) == sorted(set(langs))

    def test_language_the_model_lacks_rejected_before_any_decode(self):
        vocab = tiny_vocab(n_phonemes=4, n_langs=2)
        utts = [SimpleNamespace(transcript=(0, 1), lang=lang, features=None) for lang in ("L0", "LX", "LY")]
        model = SimpleNamespace(cfg=SimpleNamespace(vocab=vocab, lid_in_targets=True),
                                decode=lambda features: pytest.fail("decoded before checking the languages"))
        with pytest.raises(ConfigError, match=r"'LX' is not one of the checkpoint's languages \['L0', 'L1'\]"):
            evaluate_model(model, utts)
        # a model that does not score the language token scores any language's phonemes
        model = SimpleNamespace(cfg=SimpleNamespace(vocab=vocab, lid_in_targets=False), decode=lambda features: [1, 2])
        assert evaluate_model(model, utts)["per_by_language"] == {"L0": 0.0, "LX": 0.0, "LY": 0.0}

    def test_no_utterances(self):
        model = SimpleNamespace(cfg=SimpleNamespace(vocab=tiny_vocab(), lid_in_targets=False), decode=None)
        with pytest.raises(ConfigError, match="empty reference corpus"):
            evaluate_model(model, [])


class TestLidAccuracy:
    def test_all_correct(self):
        vocab = tiny_vocab(4, 2)
        decoded = [[vocab.lid_token("L0"), 1], [vocab.lid_token("L1"), 2]]
        assert lid_accuracy(decoded, ["L0", "L1"], vocab) == 1.0

    def test_missing_lid_counts_wrong(self):
        vocab = tiny_vocab(4, 2)
        assert lid_accuracy([[1, 2]], ["L0"], vocab) == 0.0
        assert lid_accuracy([[]], ["L0"], vocab) == 0.0

    def test_half(self):
        vocab = tiny_vocab(4, 2)
        decoded = [[vocab.lid_token("L0")], [vocab.lid_token("L0")]]
        assert lid_accuracy(decoded, ["L0", "L1"], vocab) == 0.5


class TestVariants:
    def test_default_ladder_order(self):
        assert DEFAULT_LADDER == ("B0", "C1", "C2", "C3", "C4")

    def test_default_taps_rule(self):
        assert default_taps(8) == [5, 7]
        assert default_taps(7) == [4, 6]
        assert default_taps(4) == [3]

    def test_b0_is_plain(self):
        cfg = apply_variant(default_model_config(tiny_vocab(), 4), "B0")
        assert cfg["stack"]["surgery"]["kind"] == "none"
        assert cfg["lid_extract_layer"] is None and cfg["cross_taps"] == []

    def test_c4_combines_all(self):
        cfg = apply_variant(default_model_config(tiny_vocab(), 4), "C4")
        assert cfg["stack"]["surgery"] == {"kind": "delete_last", "n": 1}
        assert cfg["lid_extract_layer"] == 3 and cfg["lid_in_targets"]
        assert cfg["cross_taps"] == [4, 6] and cfg["loss_weight"] == 0.5

    def test_e_variants(self):
        base = default_model_config(tiny_vocab(), 4)
        assert apply_variant(base, "E1")["stack"]["surgery"]["kind"] == "random_init_last"
        assert apply_variant(base, "E2")["stack"]["surgery"]["kind"] == "replace_last_with_middle"
        assert apply_variant(base, "E3")["stack"]["surgery"] == {"kind": "delete_last", "n": 2}

    def test_d2_scores_lid_without_frame(self):
        cfg = apply_variant(default_model_config(tiny_vocab(), 4), "D2")
        assert cfg["lid_in_targets"] and cfg["lid_extract_layer"] is None

    def test_d3_low_extraction_layer(self):
        cfg = apply_variant(default_model_config(tiny_vocab(), 4), "D3")
        assert cfg["lid_in_targets"] and cfg["lid_extract_layer"] == 1

    def test_f2_single_top_tap(self):
        cfg = apply_variant(default_model_config(tiny_vocab(), 4), "F2")
        assert cfg["cross_taps"] == [7] and cfg["loss_weight"] == 0.5

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            apply_variant(default_model_config(tiny_vocab(), 4), "Z9")

    def test_reference_metadata(self):
        # C1 carries both published values with their source tables
        tables = {t for t, m, v in REFERENCE_RESULTS["C1"] if m == "cv_per"}
        assert tables == {"table1", "table2"}
        values = sorted(v for t, m, v in REFERENCE_RESULTS["C1"] if m == "cv_per")
        assert values == [6.38, 6.39]
        assert primary_reference("B0") == (6.70, "table1")
        assert primary_reference("custom") == (None, None)


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    from sshr.ctc import Vocabulary
    from sshr.datagen import default_corpus_spec, generate_corpus

    corpus = tmp_path_factory.mktemp("ab_corpus")
    spec = default_corpus_spec(seed=55, counts={"train": 8, "dev": 3, "test": 3})
    generate_corpus(spec, corpus)
    vocab = Vocabulary(spec.phoneme_symbols, spec.language_names)
    model_cfg = default_model_config(vocab, spec.feature_dim, seed=0)
    model_cfg["stack"].update({"depth": 4, "hidden": 16, "heads": 2, "ffn": 32})
    train_cfg = {"steps": 4, "eval_interval": 4, "checkpoint_interval": 4, "batch_size": 4}
    return corpus, model_cfg, train_cfg


class TestAblationHarness:
    def test_single_variant_ladder(self, mini, tmp_path):
        corpus, model_cfg, train_cfg = mini
        results = run_ablation([("B0", apply_variant(model_cfg, "B0"))], [1], corpus, tmp_path, train_cfg)
        assert len(results) == 1
        assert results[0].variant == "B0" and results[0].seed == 1
        csv_lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "variant,seed,dev_per,test_per,lid_acc,paper_ref_value,paper_ref_table"
        assert len(csv_lines) == 2

    def test_repeated_variant_same_seed_identical_rows(self, mini, tmp_path):
        corpus, model_cfg, train_cfg = mini
        b0 = apply_variant(model_cfg, "B0")
        results = run_ablation([("B0", b0), ("B0-again", b0)], [2], corpus, tmp_path, train_cfg)
        assert len(results) == 2
        assert results[0].dev_per == results[1].dev_per
        assert results[0].test_per == results[1].test_per
        assert results[0].config_hash == results[1].config_hash

    def test_failed_variant_reported_others_proceed(self, mini, tmp_path):
        import json

        corpus, model_cfg, train_cfg = mini
        broken = dict(model_cfg)
        broken["cross_taps"] = [99]  # invalid tap: the run must fail, not the harness
        results = run_ablation([("B0", model_cfg), ("BAD", broken)], [1], corpus, tmp_path, train_cfg)
        assert [r.variant for r in results] == ["B0"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failures"] and summary["failures"][0]["variant"] == "BAD"

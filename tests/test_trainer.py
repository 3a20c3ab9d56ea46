import weakref

import numpy as np
import pytest

from conftest import adam_per_parameter, tiny_model_config, tiny_vocab
from sshr import gradcheck
from sshr import tensor as tz
from sshr.ctc import Vocabulary
from sshr.datagen import default_corpus_spec, generate_corpus, load_split
from sshr.errors import ConfigError
from sshr.evalkit import apply_variant
from sshr.gradcheck import REL_TOL, check_scalar_graph, gradcheck_suite
from sshr.model import SshrConfig, SshrModel, default_model_config
from sshr.trainer import ADAM_CHUNK, AdamState, TrainConfig, adam_step, train


def scalar_params(value):
    return np.asarray([value], dtype=np.float64)


class TestAdam:
    def test_zero_gradient_fresh_state_unchanged(self):
        params = scalar_params(1.25)
        adam_step(params, np.zeros(1), AdamState(params), lr=0.1)
        assert params[0] == 1.25

    def test_zero_lr_unchanged(self):
        params = scalar_params(1.25)
        adam_step(params, np.ones(1), AdamState(params), lr=0.0)
        assert params[0] == 1.25

    def test_hand_evaluated_first_step(self):
        # bias corrections cancel at t=1: update = lr * g / (|g| + eps)
        params = scalar_params(1.0)
        adam_step(params, np.ones(1), AdamState(params), lr=0.1)
        assert abs(params[0] - 0.9) < 1e-6

    def test_shape_mismatch(self):
        params = scalar_params(1.0)
        with pytest.raises(ConfigError):
            adam_step(params, np.ones(3), AdamState(params), lr=0.1)

    def test_chunked_flat_steps_equal_per_parameter_loop_bitwise(self):
        # C4 parameter shapes at default width: Adam's blocks end inside
        # parameters, and the last block is a partial one
        cfg = SshrConfig.from_dict(apply_variant(default_model_config(tiny_vocab(40, 4), 40, seed=2), "C4"))
        model = SshrModel(cfg)
        shapes = {name: p.values.shape for name, p in model.params.items()}
        sizes = [p.values.size for p in model.params.values()]
        ends = np.cumsum(sizes)
        assert sum((end - n) // ADAM_CHUNK != (end - 1) // ADAM_CHUNK for end, n in zip(ends, sizes)) >= 5
        assert ends[-1] % ADAM_CHUNK
        values = {name: p.values.copy() for name, p in model.params.items()}
        m = {name: np.zeros_like(a) for name, a in values.items()}
        v = {name: np.zeros_like(a) for name, a in values.items()}
        state = AdamState(model.flat_values)
        rng = np.random.default_rng(11)
        for t in range(1, 21):
            lr = 1e-3 * min(1.0, t / 5)
            grads = {name: rng.normal(0.0, 0.1, shape).astype(np.float32) for name, shape in shapes.items()}
            adam_per_parameter(values, grads, m, v, t, lr)
            adam_step(model.flat_values, np.concatenate([g.ravel() for g in grads.values()]), state, lr)
        assert state.t == 20
        for flat, per_param in ((model.flat_values, values), (state.m, m), (state.v, v)):
            assert flat.tobytes() == np.concatenate([a.ravel() for a in per_param.values()]).tobytes()


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.steps == 2000 and cfg.lr == 1e-3 and cfg.warmup_steps == 100
        assert cfg.batch_size == 8

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"momentum": 0.9})

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)


class TestTrainLoop:
    def test_zero_steps_checkpoint_equals_init(self, small_corpus, small_vocab, tmp_path):
        cfg = tiny_model_config(vocab=small_vocab, depth=2, hidden=8, heads=2, ffn=16, feature_dim=16, seed=5)
        summary = train(cfg, {"steps": 0, "seed": 5}, small_corpus, tmp_path)
        loaded = SshrModel.load(summary["checkpoint"])
        fresh = SshrModel(cfg)
        for name in fresh.params:
            assert np.array_equal(loaded.params[name].values, fresh.params[name].values.astype(np.float32))

    def test_summary_dev_scores_equal_the_reloaded_checkpoint(self, small_corpus, small_vocab, tmp_path):
        from sshr.evalkit import evaluate_model

        cfg = tiny_model_config(vocab=small_vocab, depth=2, hidden=8, heads=2, ffn=16, feature_dim=16, seed=8)
        dev = load_split(small_corpus, "dev")
        for steps in (0, 3):
            summary = train(cfg, {"steps": steps, "seed": 8, "eval_interval": 2, "batch_size": 2},
                            small_corpus, tmp_path / f"s{steps}")
            assert summary["dev"] == evaluate_model(SshrModel.load(summary["checkpoint"]), dev)

    def test_determinism_bytes(self, small_corpus, small_vocab, tmp_path):
        cfg = tiny_model_config(vocab=small_vocab, depth=2, hidden=16, heads=2, ffn=32, feature_dim=16, seed=6)
        tcfg = {"steps": 12, "seed": 6, "eval_interval": 6, "checkpoint_interval": 12, "batch_size": 4}
        a = train(cfg, tcfg, small_corpus, tmp_path / "a")
        b = train(cfg, tcfg, small_corpus, tmp_path / "b")
        assert open(a["checkpoint"], "rb").read() == open(b["checkpoint"], "rb").read()
        assert open(a["metrics"]).read() == open(b["metrics"]).read()

    def test_metrics_schema(self, small_corpus, small_vocab, tmp_path):
        import json

        cfg = tiny_model_config(vocab=small_vocab, depth=2, hidden=8, heads=2, ffn=16, feature_dim=16, seed=7)
        summary = train(cfg, {"steps": 4, "seed": 7, "eval_interval": 2, "batch_size": 2}, small_corpus, tmp_path)
        lines = [json.loads(l) for l in open(summary["metrics"])]
        assert len(lines) == 2
        assert set(lines[0]) == {"step", "loss", "dev_per", "dev_lid_acc"}

    def test_step_graph_freed_before_next_forward(self, small_corpus, small_vocab, tmp_path, monkeypatch):
        # a step's graph still alive at the next forward holds two graphs at once and raises peak memory
        refs = []
        real_batch_loss = SshrModel.batch_loss

        def spy(model, batch):
            assert all(ref() is None for ref in refs), "an earlier step's loss is still alive"
            loss = real_batch_loss(model, batch)
            refs.append(weakref.ref(loss.values))
            return loss

        monkeypatch.setattr(SshrModel, "batch_loss", spy)
        cfg = tiny_model_config(vocab=small_vocab, depth=2, hidden=8, heads=2, ffn=16, feature_dim=16, seed=4)
        train(cfg, {"steps": 3, "seed": 4, "eval_interval": 3, "batch_size": 2}, small_corpus, tmp_path)
        assert len(refs) == 3

    def test_loss_decreases_over_first_50_steps(self, small_corpus, small_vocab, tmp_path):
        import json

        for seed in (1, 2, 3):
            cfg = tiny_model_config(vocab=small_vocab, depth=2, hidden=16, heads=2, ffn=32, feature_dim=16, seed=seed)
            summary = train(
                cfg, {"steps": 50, "seed": seed, "eval_interval": 10, "batch_size": 4},
                small_corpus, tmp_path / f"s{seed}",
            )
            losses = [json.loads(l)["loss"] for l in open(summary["metrics"])]
            assert losses[-1] < losses[0]

    def test_infeasible_utterances_skipped_and_counted(self, tmp_path, monkeypatch):
        import sshr.trainer

        adam_calls = []
        real_adam_step = sshr.trainer.adam_step
        monkeypatch.setattr(sshr.trainer, "adam_step", lambda *a, **k: adam_calls.append(1) or real_adam_step(*a, **k))
        # T=5 frames but 6 targets once the language token is prepended
        spec = default_corpus_spec(
            seed=13, counts={"train": 3, "dev": 2, "test": 2},
            min_phonemes=5, max_phonemes=5, min_frames_per_phoneme=1, max_frames_per_phoneme=1,
            noise_sigma=0.0,
        )
        generate_corpus(spec, tmp_path / "corpus")
        vocab = Vocabulary(spec.phoneme_symbols, spec.language_names)
        cfg = tiny_model_config(vocab=vocab, depth=2, hidden=8, heads=2, ffn=16, feature_dim=16,
                                seed=13, lid_in_targets=True)
        summary = train(cfg, {"steps": 3, "seed": 13, "batch_size": 2, "eval_interval": 3},
                        tmp_path / "corpus", tmp_path / "run")
        assert summary["skipped_utterances"] == 3 * 2
        # no utterance was trained, so no Adam step ran or moved the parameters
        assert adam_calls == []
        with open(summary["checkpoint"], "rb") as fh:
            assert fh.read() == SshrModel(cfg).save_bytes()


class TestGradcheckSuite:
    def test_fresh_build_all_under_tolerance(self):
        report = gradcheck_suite(seed=3)
        assert report["all_passed"]
        assert report["worst_rel_err"] < REL_TOL

    def test_deterministic_under_seed(self):
        assert gradcheck_suite(seed=5) == gradcheck_suite(seed=5)

    @pytest.mark.parametrize("seed", [2, 9])
    def test_micro_model_passes_where_a_coarse_step_failed(self, seed):
        # correct gradients; at step 1e-3 the central difference's own
        # truncation error put this instance over the tolerance
        instance = gradcheck.check_instance("micro_model_total_loss", seed)
        assert check_scalar_graph(*instance) < REL_TOL
        assert check_scalar_graph(*instance, step=1e-3) > REL_TOL

    def test_removing_an_entry_moves_no_other_entry(self, monkeypatch):
        full, checks = gradcheck_suite(seed=4)["checks"], gradcheck.CHECKS
        for removed in ("linear", "self_attention_layer"):
            table = {name: entry for name, entry in checks.items() if name != removed}
            monkeypatch.setattr(gradcheck, "CHECKS", table)
            rest = gradcheck_suite(seed=4)["checks"]
            assert list(rest) == [name for name in full if name != removed]
            for name, entry in rest.items():
                assert entry["max_rel_err"] == full[name]["max_rel_err"], name  # bitwise

    def test_corrupted_gradient_rule_reported(self):
        # negative control: an op whose backward lies about its gradient
        rng = np.random.default_rng(0)
        x = tz.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)

        def corrupted_square(t):
            out_values = t.values * t.values

            def backward_fn(g):
                return (g * 3.0 * t.values,)  # wrong: should be 2x

            return tz._op(out_values, (t,), backward_fn)

        err = check_scalar_graph(lambda: corrupted_square(x), {"x": x})
        assert err > REL_TOL

import hashlib
import importlib.util
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mutated_bytes, oversized_checkpoint, rand_log_softmax, resealed, tiny_model_config, tiny_vocab
from sshr import tensor as tz
from sshr.ctc import ctc_loss, min_frames
from sshr.errors import ConfigError, CorruptDataError, CtcInfeasibleError, SshrError
from sshr.evalkit import apply_variant
from sshr.model import (SshrConfig, SshrModel, default_model_config, extract_and_splice_lid_frame, parameter_count,
                        total_loss)


class TestSplice:
    def test_constant_rows(self):
        c = np.array([1.5, -2.0, 0.5])
        x = tz.Tensor(np.tile(c, (4, 1)))
        out = extract_and_splice_lid_frame(x, (4,))
        assert out.values.shape == (5, 3)
        assert np.allclose(out.values, np.tile(c, (5, 1)))

    def test_single_row(self):
        x = tz.Tensor(np.array([[3.0, 4.0]]))
        out = extract_and_splice_lid_frame(x, (1,))
        assert out.values.shape == (2, 2)
        assert np.array_equal(out.values[0], out.values[1])

    def test_direct_mean(self):
        x = tz.Tensor(np.array([[0.0, 0.0], [2.0, 4.0]]))
        out = extract_and_splice_lid_frame(x, (2,))
        assert np.array_equal(out.values[0], [1.0, 2.0])
        assert np.array_equal(out.values[1:], x.values)


class TestMakeTargets:
    """The targets ``SshrModel.ctc_terms`` gives the final posterior."""

    @staticmethod
    def final_targets(transcript, language, cfg):
        return SshrModel(cfg).ctc_terms(len(transcript) + 1, transcript, language)[0][1]

    def test_plain_when_disabled(self):
        cfg = tiny_model_config()
        assert self.final_targets([0, 2, 1], "L0", cfg) == [1, 3, 2]

    def test_lid_prefix(self):
        vocab = tiny_vocab(n_phonemes=8, n_langs=3)
        cfg = tiny_model_config(vocab=vocab, lid_in_targets=True)
        out = self.final_targets([5, 7], "L2", cfg)
        assert out == [vocab.lid_token("L2"), 6, 8]

    def test_round_trip_strip(self):
        vocab = tiny_vocab(n_phonemes=8, n_langs=3)
        cfg = tiny_model_config(vocab=vocab, lid_in_targets=True)
        transcript = [3, 1, 4]
        tokens = self.final_targets(transcript, "L1", cfg)
        assert vocab.strip_lid(tokens) == [p + 1 for p in transcript]
        assert 0 not in tokens

    def test_unknown_language(self):
        cfg = tiny_model_config(lid_in_targets=True)
        with pytest.raises(ConfigError):
            self.final_targets([1], "L7", cfg)

    def test_empty_transcript(self):
        with pytest.raises(ConfigError):
            self.final_targets([], "L0", tiny_model_config())


# variant -> per posterior (final first, then each tap): (extra rows, LID first)
_TERMS = {
    "B0": [(0, False)],
    "C1": [(1, True)],
    "C3": [(0, False), (0, False), (0, False)],
    "C4": [(1, True), (1, True), (1, True)],
    "D2": [(0, True)],
    "D3": [(1, True)],
    "F2": [(0, False), (0, False)],
    "tap_below_splice": [(1, True), (0, False), (1, True)],
}


class TestCtcTerms:
    """Rows and targets of every scored posterior, pinned per variant at
    depth 8 (splice at layer 3, or 1 for D3; taps at 5 and 7, at 7 for F2,
    at 4 and 6 after C4's trim), plus a tap below the splice (splice at 5,
    taps at 3 and 6)."""

    @staticmethod
    def model(name):
        base = default_model_config(tiny_vocab(), 4)
        base["stack"].update({"hidden": 8, "heads": 2, "ffn": 16})
        if name == "tap_below_splice":
            cfg = {**base, "lid_extract_layer": 5, "lid_in_targets": True, "cross_taps": [3, 6], "loss_weight": 0.5}
        else:
            cfg = apply_variant(base, name)
        return SshrModel(SshrConfig.from_dict(cfg))

    @pytest.mark.parametrize("name", list(_TERMS))
    def test_rows_and_targets(self, name):
        model = self.model(name)
        transcript, n = [0, 2, 2], 6
        plain = [1, 3, 3]
        lid = model.cfg.vocab.lid_token("L1")
        expected = [(n + extra, [lid] + plain if lid_first else plain) for extra, lid_first in _TERMS[name]]
        assert model.ctc_terms(n, transcript, "L1") == expected

    @pytest.mark.parametrize("name", list(_TERMS))
    def test_feasible_agrees_with_min_frames_on_every_term(self, name):
        model = self.model(name)
        transcript = [0, 2, 2]  # the repeat needs a blank: 4 rows, 5 with the language token
        needs = [4 + lid_first - extra for extra, lid_first in _TERMS[name]]
        for n in range(1, 8):
            terms = model.ctc_terms(n, transcript, "L0")
            assert [min_frames(t) - rows + n for rows, t in terms] == needs
            assert model.feasible(n, transcript, "L0") == all(min_frames(t) <= rows for rows, t in terms)
            assert model.feasible(n, transcript, "L0") == (n >= max(needs))


def t_scalar(value: float) -> tz.Tensor:
    return tz.Tensor(np.float64(value))


class TestTotalLoss:
    """The combination of scalar CTC losses."""

    def test_w_zero_is_final_loss_bitwise(self):
        rng = np.random.default_rng(0)
        targets = [1, 2]
        final = ctc_loss(rand_log_softmax(rng, 6, 4), targets)
        taps = [ctc_loss(rand_log_softmax(rng, 6, 4), targets)]
        combined = total_loss(final, taps, 0.0)
        assert combined.values.tobytes() == final.values.tobytes()

    def test_w_one_is_mean_of_taps(self):
        out = total_loss(t_scalar(9.0), [t_scalar(2.0), t_scalar(4.0)], 1.0)
        assert float(out.values) == 3.0

    def test_half_weight_direct_arithmetic(self):
        out = total_loss(t_scalar(1.0), [t_scalar(3.0)], 0.5)
        assert float(out.values) == 2.0

    def test_no_taps_requires_zero_weight(self):
        with pytest.raises(ConfigError):
            total_loss(t_scalar(1.0), [], 0.5)

    def test_monotone_in_each_term(self):
        rng = np.random.default_rng(1)
        targets = [1, 2]
        base_final = rand_log_softmax(rng, 5, 4)
        base_tap = rand_log_softmax(rng, 5, 4)

        def value(final_lp, tap_lp, w=0.5):
            return float(total_loss(ctc_loss(final_lp, targets), [ctc_loss(tap_lp, targets)], w).values)

        base = value(base_final, base_tap)
        worse_final = base_final.copy()
        worse_final[:, 1] -= 1.0  # lower target log-prob -> larger final CTC term
        assert value(worse_final, base_tap) >= base
        worse_tap = base_tap.copy()
        worse_tap[:, 1] -= 1.0
        assert value(base_final, worse_tap) >= base


class TestForward:
    def test_degenerate_config_keeps_length(self):
        cfg = tiny_model_config()
        model = SshrModel(cfg)
        out = model.forward(np.zeros((7, 4), np.float32))
        assert sum(out.lengths) == 7
        assert out.intermediates == []

    def test_lid_layer_adds_one_row(self):
        cfg = tiny_model_config(lid_extract_layer=2, lid_in_targets=True)
        model = SshrModel(cfg)
        out = model.forward(np.zeros((10, 4), np.float32))
        assert sum(out.lengths) == 11
        assert out.final.values.shape[0] == 11

    def test_sequence_length_law(self):
        cfg = tiny_model_config(depth=4, lid_extract_layer=2, lid_in_targets=True, cross_taps=[3], loss_weight=0.5)
        model = SshrModel(cfg)
        t = 9
        stages = list(model.stages(np.random.default_rng(0).normal(size=(t, 4)).astype(np.float32)))
        assert [x.values.shape[0] for x, _, _ in stages] == [t + (1 if d > 2 else 0) for d in range(5)]
        assert [n for _, (n,), _ in stages] == [t + (1 if d > 2 else 0) for d in range(5)]

    def test_tap_posteriors_routed(self):
        cfg = tiny_model_config(depth=4, cross_taps=[2, 3], loss_weight=0.5)
        model = SshrModel(cfg)
        feats = np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32)
        out = model.forward(feats)
        stages = list(model.stages(feats))
        assert [d for d, (_, _, tap) in enumerate(stages) if tap is not None] == list(cfg.cross_taps)
        assert len(out.intermediates) == 2
        for tap, posterior in zip(cfg.cross_taps, out.intermediates):
            head = model._head(tz.Tensor(stages[tap][0].values))
            assert np.array_equal(posterior.values, head.values)
            assert np.array_equal(posterior.values, stages[tap][2].values)

    def test_tap_posterior_freed_once_the_layer_above_reads_it(self):
        cfg = tiny_model_config(depth=4, lid_extract_layer=2, lid_in_targets=True, cross_taps=[2, 3], loss_weight=0.5)
        model = SshrModel(cfg)
        refs = {}
        with tz.no_grad():
            for d, (_, _, tap) in enumerate(model.stages(np.random.default_rng(0).normal(size=(6, 4)).astype(np.float32))):
                # layer d has read tap d - 1 and the previous item is dropped
                assert [j for j, ref in refs.items() if ref() is not None] == []
                if tap is not None:
                    refs[d] = weakref.ref(tap)
        assert sorted(refs) == [2, 3]

    def test_feature_width_checked(self):
        model = SshrModel(tiny_model_config())
        with pytest.raises(ConfigError):
            model.forward(np.zeros((5, 9), np.float32))

    def test_gradient_reaches_first_layer(self):
        cfg = tiny_model_config(depth=3, lid_extract_layer=1, lid_in_targets=True, cross_taps=[2], loss_weight=0.5)
        model = SshrModel(cfg)
        feats = np.random.default_rng(1).normal(size=(6, 4)).astype(np.float32)
        loss = model.utterance_loss(feats, [0, 1], "L0")
        model.zero_grads()
        tz.backward(loss, seed=np.asarray(1.0, dtype=np.float32))
        for name in ("enc.1.wq", "enc.1.w1", "input.w"):
            assert model.params[name].grad is not None
            assert np.linalg.norm(model.params[name].grad) > 0

    def test_tap_posterior_gets_gradient_from_final_loss(self):
        # even at w=0 the tap feeds the next layer's queries, so the final
        # CTC loss must push gradient back into the intermediate posterior
        cfg = tiny_model_config(depth=3, cross_taps=[2], loss_weight=0.0)
        model = SshrModel(cfg)
        feats = np.random.default_rng(2).normal(size=(6, 4)).astype(np.float32)
        out = model.forward(feats)
        loss = ctc_loss(out.final, [1, 2])
        out.intermediates[0].requires_grad = True  # the sweep keeps only requires_grad gradients
        flow = tz.backward(loss, seed=np.asarray(1.0, dtype=np.float32))
        tap_grad = flow.get(out.intermediates[0])
        assert tap_grad is not None and np.linalg.norm(tap_grad) > 0

    def test_pinned_toy_defaults(self):
        from sshr.evalkit import apply_variant

        vocab = tiny_vocab()
        base = default_model_config(vocab, 4, seed=0)
        c3 = apply_variant(base, "C3")
        assert c3["cross_taps"] == [5, 7] and c3["stack"]["depth"] == 8
        c4 = SshrConfig.from_dict(apply_variant(base, "C4"))
        assert c4.stack.surgery.kind == "delete_last" and c4.stack.surgery.n == 1
        assert c4.lid_extract_layer == 3
        model = SshrModel(c4)
        assert model.depth == 7


class TestConfigValidation:
    def test_weight_range(self):
        with pytest.raises(ConfigError):
            tiny_model_config(cross_taps=[2], loss_weight=1.5)

    def test_taps_strictly_increasing(self):
        with pytest.raises(ConfigError):
            tiny_model_config(depth=6, cross_taps=[4, 3], loss_weight=0.5)

    def test_weight_without_taps(self):
        with pytest.raises(ConfigError):
            tiny_model_config(loss_weight=0.5)

    def test_lid_requires_targets_flag(self):
        with pytest.raises(ConfigError):
            tiny_model_config(lid_extract_layer=2)

    def test_lid_layer_range(self):
        with pytest.raises(ConfigError):
            tiny_model_config(depth=3, lid_extract_layer=3, lid_in_targets=True)

    def test_lid_in_targets_without_layer_is_valid(self):
        cfg = tiny_model_config(lid_in_targets=True)
        assert cfg.lid_extract_layer is None

    def test_unknown_key_rejected(self):
        d = tiny_model_config().to_dict()
        d["bogus"] = 1
        with pytest.raises(ConfigError):
            SshrConfig.from_dict(d)


class TestBaselineEquivalence:
    def test_all_features_off_equals_b0_bytes(self):
        from sshr.evalkit import apply_variant

        vocab = tiny_vocab()
        base = default_model_config(vocab, 4, seed=9)
        explicit = SshrConfig.from_dict(base)
        via_variant = SshrConfig.from_dict(apply_variant(base, "B0"))
        a, b = SshrModel(explicit), SshrModel(via_variant)
        assert list(a.params) == list(b.params)
        for name in a.params:
            assert a.params[name].values.tobytes() == b.params[name].values.tobytes()


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_model_config(depth=3, lid_extract_layer=1, lid_in_targets=True, cross_taps=[2], loss_weight=0.5)
        model = SshrModel(cfg)
        p1 = tmp_path / "a.sshr"
        p2 = tmp_path / "b.sshr"
        model.save(p1)
        loaded = SshrModel.load(p1)
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.cfg == cfg
        for name in model.params:
            assert np.array_equal(model.params[name].values, loaded.params[name].values)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.sshr"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(ConfigError):
            SshrModel.load(path)

    @staticmethod
    def _saved_bytes():
        cfg = tiny_model_config(depth=3, lid_extract_layer=1, lid_in_targets=True, cross_taps=[2], loss_weight=0.5)
        return SshrModel(cfg).save_bytes()

    @pytest.mark.parametrize("part", ["magic", "header", "config", "data"])
    def test_truncation_raises_corrupt_data(self, part):
        raw = self._saved_bytes()
        (cfg_len,) = struct.unpack("<I", raw[5:9])
        cut = {
            "magic": 3,
            "header": 7,
            "config": 9 + cfg_len // 2,
            "data": len(raw) - 3,
        }[part]
        with pytest.raises(CorruptDataError, match="truncated"):
            SshrModel.load_bytes(raw[:cut])

    def test_trailing_bytes_raise_corrupt_data(self):
        with pytest.raises(CorruptDataError, match="trailing"):
            SshrModel.load_bytes(self._saved_bytes() + b"\x00")

    def test_non_finite_blob_raises_corrupt_data(self):
        raw = bytearray(self._saved_bytes())
        raw[-8:-4] = struct.pack("<f", float("nan"))  # the last value of the arena, head.b's
        with pytest.raises(CorruptDataError, match="'head.b'.*non-finite"):
            SshrModel.load_bytes(resealed(raw))

    def test_checksum_mismatch_raises_corrupt_data(self):
        raw = bytearray(self._saved_bytes())
        raw[-8] ^= 1  # a data byte that stays finite
        with pytest.raises(CorruptDataError, match="checksum"):
            SshrModel.load_bytes(bytes(raw))

    def test_layout_mismatch_raises_config_error(self):
        raw = bytearray(self._saved_bytes())
        (cfg_len,) = struct.unpack("<I", raw[5:9])
        raw[9 + cfg_len] ^= 1  # the first byte of the layout digest
        with pytest.raises(ConfigError, match="names, order or shapes"):
            SshrModel.load_bytes(resealed(raw))

    def test_earlier_format_names_its_version_and_asks_for_a_retrain(self):
        raw = b"SSHR1" + self._saved_bytes()[5:]
        with pytest.raises(ConfigError, match="format SSHR1 .* retrain"):
            SshrModel.load_bytes(raw)

    @pytest.mark.parametrize("variant", ["B0", "C1", "C2", "C3", "C4", "D2", "D3", "E1", "E2", "E3", "F2"])
    def test_parameter_count_is_the_arena_size(self, variant):
        cfg = SshrConfig.from_dict(apply_variant(tiny_model_config(depth=8).to_dict(), variant))
        assert parameter_count(cfg) == SshrModel(cfg).flat_values.size

    def test_non_json_config_raises_corrupt_data(self):
        raw = self._saved_bytes()
        (cfg_len,) = struct.unpack("<I", raw[5:9])
        with pytest.raises(CorruptDataError, match="JSON"):
            SshrModel.load_bytes(raw[:9] + b"{" * cfg_len + raw[9 + cfg_len :])

    def test_forward_identical_after_reload(self, tmp_path):
        cfg = tiny_model_config(depth=3, lid_extract_layer=1, lid_in_targets=True, cross_taps=[2], loss_weight=0.5)
        model = SshrModel(cfg)
        path = tmp_path / "m.sshr"
        model.save(path)
        clone = SshrModel.load(path)
        feats = np.random.default_rng(5).normal(size=(8, 4)).astype(np.float32)
        a = model.forward(feats).final.values
        b = clone.forward(feats).final.values
        assert np.array_equal(a, b)

    # sha256 of the initial checkpoint of each variant's tiny config, seed 0
    PINNED = {
        "B0": "df39e34c8a504cd7c4f08ae4a9e956497cd54b629cda94ac13e33eab2a92e7ff",
        "C4": "d118f2b5c73e6be66b43f1a995e1b30abf5b021b3998705f049afabcad014f3d",
        "E1": "08934018c35d7214cd8963b31ce26fd7a6708d9de262c60dbeb2a8ec811dc0ac",
        "E2": "add196186fc425186fd5b85b46c5d3d71ad3bd81fb294363731b1b95c2ad14be",
    }

    @pytest.mark.parametrize("variant", sorted(PINNED))
    def test_initial_checkpoint_bytes_pinned(self, variant):
        cfg = SshrConfig.from_dict(apply_variant(tiny_model_config(depth=8).to_dict(), variant))
        digest = hashlib.sha256(SshrModel(cfg).save_bytes()).hexdigest()
        assert digest == self.PINNED[variant], (
            f"{variant}: the initial checkpoint bytes moved. Either the parameter layout, the init streams "
            "or the checkpoint format changed, or numpy's Generator.normal now draws different values"
        )

    def test_load_draws_no_random_numbers(self, monkeypatch):
        raw = SshrModel(SshrConfig.from_dict(apply_variant(tiny_model_config(depth=8).to_dict(), "C4"))).save_bytes()

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert SshrModel.load_bytes(raw).save_bytes() == raw

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import builtins

        import sshr.files

        cfg = tiny_model_config(depth=3, lid_extract_layer=1, lid_in_targets=True, cross_taps=[2], loss_weight=0.5)
        path = tmp_path / "m.sshr"
        SshrModel(cfg).save(path)
        before = path.read_bytes()

        class HalfWrite:
            """A file that writes half of what it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, raw):
                self.fh.write(raw[: len(raw) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(sshr.files, "open", lambda *a, **k: HalfWrite(builtins.open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            SshrModel(tiny_model_config(depth=3, seed=1)).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.sshr"]

    @pytest.mark.parametrize("stack", [{"hidden": 1024, "ffn": 1024}, {"hidden": 2**17, "ffn": 2**17}, {"depth": 10**9}],
                             ids=["width-1024", "width-2^17", "depth-1e9"])
    def test_load_checks_the_size_before_it_allocates(self, stack):
        raw = oversized_checkpoint(**stack)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptDataError, match=r"truncated: .* needs at least \d+ bytes .* holds 4 \(\d+ short\)"):
                SshrModel.load_bytes(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"load_bytes peaked at {peak} bytes"


@st.composite
def mutated_checkpoint(draw, raw: bytes) -> bytes:
    """``mutated_bytes`` of ``raw``, or ``raw`` with a digit run spliced
    into its config JSON (the length field kept consistent)."""
    if draw(st.integers(0, 3)):
        return draw(mutated_bytes(raw))
    (cfg_len,) = struct.unpack("<I", raw[5:9])
    config = raw[9 : 9 + cfg_len]
    after_digit = [i + 1 for i, c in enumerate(config) if chr(c).isdigit()]
    at = draw(st.sampled_from(after_digit) | st.integers(0, cfg_len))
    config = config[:at] + draw(st.text("0123456789", min_size=1, max_size=12)).encode() + config[at:]
    return raw[:5] + struct.pack("<I", len(config)) + config + raw[9 + cfg_len :]


@pytest.fixture(scope="module")
def c4_checkpoint() -> bytes:
    return SshrModel(SshrConfig.from_dict(apply_variant(tiny_model_config(depth=6).to_dict(), "C4"))).save_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_bytes_raise_only_sshr_errors(c4_checkpoint, data):
    # every byte is under the checksum, so only the unchanged file loads
    # (two flips of one byte can cancel)
    raw = data.draw(mutated_checkpoint(c4_checkpoint))
    try:
        SshrModel.load_bytes(raw)
    except SshrError:
        return
    assert raw == c4_checkpoint


class TestParameterArena:
    """Every parameter's values and grad are views of the model's two flat
    vectors, whatever has happened to the model since construction."""

    @staticmethod
    def _assert_views(model):
        assert model.flat_values.size == sum(p.values.size for p in model.params.values())
        for name, p in model.params.items():
            assert np.shares_memory(p.values, model.flat_values), name
            assert np.shares_memory(p.grad, model.flat_grads), name
        model.flat_grads.fill(1)
        model.zero_grads()
        assert all(not p.grad.any() for p in model.params.values())

    def test_views_after_construction_and_load(self):
        cfg = SshrConfig.from_dict(apply_variant(tiny_model_config(depth=8).to_dict(), "C4"))
        model = SshrModel(cfg)
        self._assert_views(model)
        # declaration order: the vector is the parameters laid end to end
        assert np.array_equal(model.flat_values, np.concatenate([p.values.ravel() for p in model.params.values()]))
        loaded = SshrModel.load_bytes(model.save_bytes())
        self._assert_views(loaded)
        assert loaded.flat_values.tobytes() == model.flat_values.tobytes()

    def test_views_after_a_train_step(self, small_corpus, small_vocab, tmp_path, monkeypatch):
        from sshr.trainer import train

        models = []
        real_batch_loss = SshrModel.batch_loss

        def spy(model, batch):
            models.append(model)
            return real_batch_loss(model, batch)

        monkeypatch.setattr(SshrModel, "batch_loss", spy)
        cfg = tiny_model_config(vocab=small_vocab, depth=2, hidden=8, heads=2, ffn=16, feature_dim=16, seed=4)
        summary = train(cfg, {"steps": 1, "seed": 4, "batch_size": 2}, small_corpus, tmp_path)
        (model,) = models
        assert model.flat_grads.any()  # the step's gradient landed in the vector
        self._assert_views(model)
        assert SshrModel.load(summary["checkpoint"]).flat_values.tobytes() == model.flat_values.tobytes()


def _random_batch(rng, model, size):
    """``size`` feasible utterances with lengths in [2, 80]."""
    batch = []
    n_phonemes = len(model.cfg.vocab.phonemes)
    while len(batch) < size:
        t = int(rng.integers(2, 81))
        transcript = [int(p) for p in rng.integers(0, n_phonemes, size=int(rng.integers(1, t // 2 + 1)))]
        language = model.cfg.vocab.languages[int(rng.integers(len(model.cfg.vocab.languages)))]
        if model.feasible(t, transcript, language):
            batch.append((rng.normal(size=(t, model.cfg.feature_dim)), transcript, language))
    return batch


class TestPackedEquivalence:
    """The packed batch loss against the mean of the B=1 losses, float64."""

    @pytest.mark.parametrize("variant", ["B0", "C1", "C3", "C4"])
    def test_loss_and_every_gradient_match_per_utterance_mean(self, variant):
        from sshr.evalkit import apply_variant
        from sshr.gradcheck import relative_error

        base = default_model_config(tiny_vocab(n_phonemes=6, n_langs=3), 5, seed=4)
        base["stack"].update({"hidden": 8, "heads": 2, "ffn": 16})
        model = SshrModel(SshrConfig.from_dict(apply_variant(base, variant)), dtype=np.float64)
        rng = np.random.default_rng(["B0", "C1", "C3", "C4"].index(variant))
        for size in (1, int(rng.integers(2, 9)), 8):
            batch = _random_batch(rng, model, size)
            model.zero_grads()
            packed = model.batch_loss(batch)
            tz.backward(packed)
            # copies: each .grad is a view that zero_grads overwrites
            packed_grads = {name: p.grad.copy() for name, p in model.params.items()}

            model.zero_grads()
            separate = 0.0
            for utt in batch:
                loss = model.utterance_loss(*utt)
                tz.backward(loss, seed=np.asarray(1.0 / size))
                separate += loss.item() / size
            assert abs(packed.item() - separate) <= 1e-6 * abs(separate)
            for name, p in model.params.items():  # a parameter no loss reaches has a zero gradient
                assert relative_error(packed_grads[name], p.grad) <= 1e-6, name

    def test_ragged_batch_loss_matches_finite_differences(self):
        # three utterances of different lengths, so each posterior's stack
        # is ragged in frames and in targets, on the gradcheck micro model
        from sshr.gradcheck import REL_TOL, check_scalar_graph, micro_config

        model = SshrModel(micro_config(0), dtype=np.float64)
        rng = np.random.default_rng(23)
        batch = [(rng.uniform(-1.0, 1.0, (n, 4)), transcript, lang)
                 for n, transcript, lang in ((5, [0, 2], "L1"), (2, [1], "L0"), (7, [2, 2, 0], "L1"))]
        assert all(model.feasible(len(f), t, lang) for f, t, lang in batch)
        assert check_scalar_graph(lambda: model.batch_loss(batch), dict(model.params)) < REL_TOL

    def test_one_infeasible_utterance_raises_from_its_ctc_loss_before_any_dp(self, monkeypatch):
        import sshr.model

        model = SshrModel(tiny_model_config())
        rng = np.random.default_rng(8)
        batch = [(rng.normal(size=(n, 4)).astype(np.float32), transcript, "L0")
                 for n, transcript in ((6, [0, 1]), (2, [0, 1, 2]), (5, [3]))]
        assert [model.feasible(len(f), t, lang) for f, t, lang in batch] == [True, False, True]
        raised, real_ctc_loss = [], sshr.model.ctc_loss

        def ctc_loss_spy(*args, **kwargs):
            try:
                return real_ctc_loss(*args, **kwargs)
            except CtcInfeasibleError as err:
                raised.append(str(err))
                raise

        def no_dp(items):
            raise AssertionError("a stack was solved before the infeasible term raised")

        monkeypatch.setattr(sshr.model, "ctc_loss", ctc_loss_spy)
        monkeypatch.setattr(sshr.model, "solve_ctc", no_dp)
        with pytest.raises(CtcInfeasibleError, match=r"2 frames cannot emit 3 targets \(needs at least 3\)") as err:
            model.batch_loss(batch)
        assert raised == [str(err.value)]

    def test_float32_gradients_keep_parameter_dtype(self):
        # backward casts each arriving gradient to its parent's dtype; the
        # float64 gradient of log_softmax_rows must not reach the parameters
        base = default_model_config(tiny_vocab(n_phonemes=6, n_langs=3), 5, seed=4)
        base["stack"].update({"hidden": 8, "heads": 2, "ffn": 16})
        model = SshrModel(SshrConfig.from_dict(apply_variant(base, "C4")))
        model.zero_grads()
        flow = tz.backward(model.batch_loss(_random_batch(np.random.default_rng(5), model, 4)))
        # the sweep's own arrays: a float32 .grad view would hide a float64 one
        grads = {name: flow[p] for name, p in model.params.items() if p in flow}
        assert grads
        for name, g in grads.items():
            assert g.dtype == np.float32 == model.params[name].values.dtype, name

    def test_packed_lengths_follow_length_law(self):
        cfg = tiny_model_config(depth=4, lid_extract_layer=2, lid_in_targets=True, cross_taps=[3], loss_weight=0.5)
        model = SshrModel(cfg)
        frames = (3, 9, 1)
        feats = np.random.default_rng(0).normal(size=(sum(frames), 4)).astype(np.float32)
        out = model.forward(feats, lengths=frames)
        assert out.lengths == (4, 10, 2)
        stages = list(model.stages(feats, frames))
        assert [x.values.shape[0] for x, _, _ in stages] == [13, 13, 13, 16, 16]  # layer 2 before the splice
        assert [n for _, n, _ in stages] == [frames] * 3 + [out.lengths] * 2
        assert out.intermediates[0].values.shape[0] == 16

    def test_lengths_must_partition_rows(self):
        model = SshrModel(tiny_model_config())
        with pytest.raises(ConfigError):
            model.forward(np.zeros((5, 4), np.float32), lengths=(2, 2))
        with pytest.raises(ConfigError):
            model.forward(np.zeros((5, 4), np.float32), lengths=(5, 0))

    def test_feasibility_counts_the_spliced_row(self):
        # 3 phonemes + the language token need 4 rows: 3 frames suffice
        # only once the summary frame is spliced in
        spliced = SshrModel(tiny_model_config(lid_extract_layer=1, lid_in_targets=True))
        plain = SshrModel(tiny_model_config(lid_in_targets=True))
        assert spliced.feasible(3, [0, 1, 2], "L0")
        assert not plain.feasible(3, [0, 1, 2], "L0")
        assert not spliced.feasible(2, [0, 1, 2], "L0")


def _closure_bytes(record) -> int:
    """Bytes of the distinct arrays the record's rules close over, each
    view counted as the array that owns its memory."""
    owners = {}
    for node in record:
        cells = node.rule.__closure__ if node.rule else None
        for cell in cells or ():
            stack = [cell.cell_contents]
            while stack:
                x = stack.pop()
                if isinstance(x, np.ndarray):
                    while isinstance(x.base, np.ndarray):
                        x = x.base
                    owners[id(x)] = x.nbytes
                elif isinstance(x, (list, tuple)):
                    stack.extend(x)
    return sum(owners.values())


class TestRecordMemory:
    @pytest.mark.parametrize("variant", ["B0", "C4"])
    def test_batch_loss_holds_only_what_rules_read(self, variant, small_corpus, small_vocab):
        # an op output no rule reads is freed during the forward, so after
        # it the traced bytes stay within the arrays the rules keep
        import tracemalloc

        from sshr.datagen import load_split

        utts = load_split(small_corpus, "train")[:8]
        batch = [(u.features, u.transcript, u.lang) for u in utts]
        base = default_model_config(small_vocab, utts[0].features.shape[1], seed=3)
        model = SshrModel(SshrConfig.from_dict(apply_variant(base, variant)))
        model.batch_loss(batch)  # fills the positional-table cache
        tracemalloc.start()
        try:
            loss = model.batch_loss(batch)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= _closure_bytes(tz.linearize(loss))

    def test_dropped_model_is_freed_without_the_collector(self):
        # a parameter and its record node must form no reference cycle
        import gc
        import weakref

        model = SshrModel(tiny_model_config())
        arena = weakref.ref(model.flat_values)
        gc.disable()
        try:
            del model
            assert arena() is None
        finally:
            gc.enable()


class TestBenchmarkContract:
    """The traced benchmark patches these names and counts these calls."""

    @staticmethod
    def _tracer():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_tracer_target_resolves(self):
        for owner, attr, _, _ in self._tracer().TARGETS:
            assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"

    def test_c4_batch_call_counts(self, monkeypatch):
        """One CTC loss per utterance and posterior, and one layer span per
        stack position: a cross layer's shared body is not a second span."""
        import sshr.model

        cfg = SshrConfig.from_dict(apply_variant(tiny_model_config(depth=8).to_dict(), "C4"))
        assert len(cfg.cross_taps) == 2
        model = SshrModel(cfg)
        rng = np.random.default_rng(3)
        batch = [(rng.normal(size=(n, 4)).astype(np.float32), [0, 2, 1], "L1") for n in (9, 12, 10)]
        calls = {}
        for name in ("ctc_loss", "self_attention_layer", "cross_attention_layer"):
            original = getattr(sshr.model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sshr.model, name, counted)
        model.batch_loss(batch)
        taps = len(cfg.cross_taps)
        assert calls == {
            "ctc_loss": 3 * (1 + taps),
            "self_attention_layer": model.depth - taps,
            "cross_attention_layer": taps,
        }

    def test_infeasible_term_counts_once_at_ctc_loss(self):
        model = SshrModel(tiny_model_config())
        rng = np.random.default_rng(9)
        batch = [(rng.normal(size=(n, 4)).astype(np.float32), transcript, "L1")
                 for n, transcript in ((7, [0, 2]), (1, [1, 1]))]
        tracer = self._tracer().Tracer()
        with tracer.installed(), tracer.recording("unit"), pytest.raises(CtcInfeasibleError):
            model.batch_loss(batch)
        assert tracer.counts["ctc.ctc_loss.infeasible"] == 1
        assert sum(span[0] == "ctc.ctc_loss" for span in tracer.spans) == 1

    def test_traced_c4_step_and_decode_record_every_layer_span(self):
        """Each target the benchmark reports per layer is a function the
        program calls: a target bound elsewhere (say, by a module-level
        import) would trace nothing."""
        cfg = SshrConfig.from_dict(apply_variant(tiny_model_config(depth=8).to_dict(), "C4"))
        model = SshrModel(cfg)
        rng = np.random.default_rng(5)
        batch = [(rng.normal(size=(n, 4)).astype(np.float32), [0, 2, 1], "L1") for n in (9, 12)]
        tracer = self._tracer().Tracer()
        with tracer.installed(), tracer.recording("unit"):
            tz.backward(model.batch_loss(batch))
            model.decode(batch[0][0])
        spans = {span[0] for span in tracer.spans}
        for name in (
            "ctc.ctc_loss",
            "ctc.ctc_head",
            "ctc.ctc_greedy_decode",
            "encoder.self_attention_layer",
            "encoder.cross_attention_layer",
            "tensor.multi_head_attention",
            "model.forward_grad",
            "model.forward_nograd",
        ):
            assert name in spans, name

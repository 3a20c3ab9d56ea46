import numpy as np
import pytest

import sshr.model
from conftest import tiny_model_config
from sshr import tensor as tz
from sshr.encoder import (
    LayerSpec,
    StackConfig,
    Surgery,
    build_stack,
    cross_attention_layer,
    init_layer_params,
    self_attention_layer,
)
from sshr.errors import ConfigError
from sshr.model import SshrModel


def stack_cfg(depth=8, hidden=8, heads=2, ffn=16, surgery=Surgery()):
    return StackConfig(depth=depth, hidden=hidden, heads=heads, ffn=ffn, surgery=surgery)


def make_params(rng, hidden=8, ffn=16, posterior_dim=None):
    """float64 layer parameters from the model's own initializer, moved off
    its zeros and ones."""
    kind = "cross_attention" if posterior_dim else "self_attention"
    params = init_layer_params(LayerSpec(kind), stack_cfg(depth=1, hidden=hidden, ffn=ffn), posterior_dim or 0, 0, np.float64)
    for t in params.values():
        t.values += rng.uniform(-0.5, 0.5, t.values.shape)
    return params


def stack_params(cfg, cross_taps, posterior_dim, seed):
    """Every post-surgery layer's tensors from ``init_layer_params``."""
    return [init_layer_params(spec, cfg, posterior_dim, seed) for spec in build_stack(cfg, cross_taps)]


class TestSelfAttentionLayer:
    @pytest.mark.parametrize("t_len", [1, 3, 9])
    def test_shape_preserved(self, t_len):
        rng = np.random.default_rng(0)
        p = make_params(rng)
        x = tz.Tensor(rng.normal(size=(t_len, 8)))
        out = self_attention_layer(x, p, 2, (t_len,))
        assert out.values.shape == (t_len, 8)

    def test_single_frame_attention_weight_is_one(self):
        rng = np.random.default_rng(1)
        p = make_params(rng)
        x = tz.Tensor(rng.normal(size=(1, 8)))
        h = tz.layer_norm(x, p["ln1_gain"], p["ln1_bias"]).values
        v = h @ p["wv"].values + p["bv"].values
        attn_resid = x.values + (v @ p["wo"].values + p["bo"].values)
        f_in = tz.layer_norm(tz.Tensor(attn_resid), p["ln2_gain"], p["ln2_bias"])
        expected = attn_resid + (tz.gelu(tz.linear(f_in, p["w1"], p["b1"])).values @ p["w2"].values + p["b2"].values)
        out = self_attention_layer(x, p, 2, (1,))
        assert np.allclose(out.values, expected, atol=1e-12)


class TestCrossAttentionLayer:
    def test_output_length_equals_query_length(self):
        rng = np.random.default_rng(2)
        p = make_params(rng, posterior_dim=5)
        probs = tz.Tensor(rng.uniform(0, 1, (4, 5)))
        x = tz.Tensor(rng.normal(size=(4, 8)))
        assert cross_attention_layer(probs, x, p, 2, (4,)).values.shape == (4, 8)

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        p = make_params(rng, posterior_dim=5)
        with pytest.raises(ConfigError):
            cross_attention_layer(tz.Tensor(rng.uniform(0, 1, (3, 5))), tz.Tensor(rng.normal(size=(4, 8))), p, 2, (4,))

    def test_posterior_gradient_is_nonzero(self):
        rng = np.random.default_rng(4)
        p = make_params(rng, posterior_dim=5)
        probs = tz.Tensor(rng.uniform(0.1, 0.9, (4, 5)), requires_grad=True)
        x = tz.Tensor(rng.normal(size=(4, 8)))
        out = cross_attention_layer(probs, x, p, 2, (4,))
        flow = tz.backward(out)
        assert np.linalg.norm(flow[probs]) > 1e-8


class TestBuildStack:
    def test_delete_last_three_of_24(self):
        specs = build_stack(stack_cfg(depth=24, surgery=Surgery("delete_last", 3)))
        assert len(specs) == 21
        assert all(s.kind == "self_attention" for s in specs)
        assert [s.init for s in specs] == [("base", i) for i in range(1, 22)]

    def test_replace_last_with_middle_structure(self):
        specs = build_stack(stack_cfg(depth=24, surgery=Surgery("replace_last_with_middle", 3)))
        assert len(specs) == 24
        assert [s.init for s in specs[:21]] == [("base", i) for i in range(1, 22)]
        assert [s.init for s in specs[21:]] == [("copy", 19), ("copy", 20), ("copy", 21)]

    def test_random_init_last(self):
        specs = build_stack(stack_cfg(depth=8, surgery=Surgery("random_init_last", 3)))
        assert len(specs) == 8
        assert [s.init for s in specs[5:]] == [("fresh", 1), ("fresh", 2), ("fresh", 3)]

    def test_identity_stack(self):
        specs = build_stack(stack_cfg(depth=6))
        assert len(specs) == 6
        assert all(s.kind == "self_attention" for s in specs)

    def test_sizes_per_surgery(self):
        for kind, n, expected in [("delete_last", 2, 6), ("replace_last_with_middle", 2, 8), ("random_init_last", 2, 8)]:
            specs = build_stack(stack_cfg(depth=8, surgery=Surgery(kind, n)))
            assert len(specs) == expected

    def test_tap_marks_next_layer(self, monkeypatch):
        specs = build_stack(stack_cfg(depth=8), cross_taps=[5, 7])
        assert [i for i, s in enumerate(specs, start=1) if s.kind == "cross_attention"] == [6, 8]
        # forward feeds tap j's posterior to the layer above it, j + 1, and to no other
        model = SshrModel(tiny_model_config(depth=8, cross_taps=[5, 7], loss_weight=0.5))
        read = []
        layer = sshr.model.cross_attention_layer
        monkeypatch.setattr(sshr.model, "cross_attention_layer", lambda probs, *args: read.append(probs) or layer(probs, *args))
        with tz.no_grad():
            out = model.forward(np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32))
        assert len(read) == len(out.intermediates) == 2
        for probs, tap in zip(read, out.intermediates):
            assert np.array_equal(probs.values, tz.exp(tap).values)

    def test_tap_on_first_layer_rejected(self):
        with pytest.raises(ConfigError):
            build_stack(stack_cfg(depth=8), cross_taps=[1])
        with pytest.raises(ConfigError, match="outside"):
            tiny_model_config(depth=8, cross_taps=[1], loss_weight=0.5)

    def test_tap_beyond_surviving_depth_rejected(self):
        with pytest.raises(ConfigError):
            build_stack(stack_cfg(depth=8, surgery=Surgery("delete_last", 1)), cross_taps=[7])
        build_stack(stack_cfg(depth=8), cross_taps=[7])  # fine on the full stack


class TestParameterMaterialization:
    def test_copy_layers_share_bytes_then_exist_separately(self):
        cfg = stack_cfg(depth=8, surgery=Surgery("replace_last_with_middle", 2))
        layers = stack_params(cfg, (), posterior_dim=5, seed=7)
        # positions 7,8 copy positions 5,6 (1-based): bitwise identical at build
        for m in range(2):
            src = layers[4 + m]
            dst = layers[6 + m]
            for a, b in zip(src.values(), dst.values()):
                assert np.array_equal(a.values, b.values)
                assert a is not b

    def test_random_init_last_differs_from_base(self):
        base = stack_params(stack_cfg(depth=4), (), 5, seed=7)
        fresh = stack_params(stack_cfg(depth=4, surgery=Surgery("random_init_last", 1)), (), 5, seed=7)
        assert not np.array_equal(base[3]["wq"].values, fresh[3]["wq"].values)
        assert np.array_equal(base[2]["wq"].values, fresh[2]["wq"].values)

    def test_construction_is_pure_function_of_inputs(self):
        def named(layers):
            return [(f"enc.{i}.{name}", t) for i, layer in enumerate(layers, start=1) for name, t in layer.items()]

        a = named(stack_params(stack_cfg(depth=5), (3,), 6, seed=11))
        b = named(stack_params(stack_cfg(depth=5), (3,), 6, seed=11))
        for (name_a, ta), (name_b, tb) in zip(a, b):
            assert name_a == name_b
            assert ta.values.tobytes() == tb.values.tobytes()
        c = named(stack_params(stack_cfg(depth=5), (3,), 6, seed=12))
        assert any(ta.values.tobytes() != tc.values.tobytes() for (_, ta), (_, tc) in zip(a, c))

    def test_model_layers_are_init_layer_params_bytes(self):
        cfg = tiny_model_config(depth=5, cross_taps=[3], loss_weight=0.5, seed=11)
        model = SshrModel(cfg)
        for layer, expected in zip(model.layers, stack_params(cfg.stack, cfg.cross_taps, cfg.vocab.size, seed=11)):
            assert list(layer) == list(expected)
            assert all(layer[name].values.tobytes() == t.values.tobytes() for name, t in expected.items())

    def test_cross_layer_params_match_kind(self):
        layers = stack_params(stack_cfg(depth=5), (3,), posterior_dim=6, seed=0)
        cross = layers[3]
        assert cross["wp1"].values.shape == (6, 8)
        assert "wq" not in cross
        plain = layers[0]
        assert "wq" in plain and "wp1" not in plain


class TestStackConfigValidation:
    def test_n_bounds(self):
        with pytest.raises(ConfigError):
            stack_cfg(depth=4, surgery=Surgery("delete_last", 4))

    def test_heads_divide_hidden(self):
        with pytest.raises(ConfigError):
            StackConfig(depth=2, hidden=9, heads=2, ffn=8)

    def test_unknown_surgery(self):
        with pytest.raises(ConfigError):
            Surgery("swap_layers", 1)

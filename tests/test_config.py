import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_model_config
from sshr.config import overlay, strict_args
from sshr.datagen import CorpusSpec, LanguageSpec, default_corpus_spec
from sshr.encoder import StackConfig, Surgery
from sshr.errors import ConfigError
from sshr.evalkit import apply_variant
from sshr.model import SshrConfig
from sshr.trainer import TrainConfig


def example(lid_in_targets: bool, depth: int = 3, rate: float = 0.5, taps: tuple[int, ...] = (),
            surgery: Surgery = Surgery(), weights: np.ndarray | None = None):
    return locals()


class TestStrictArgs:
    def test_defaults_fill_omitted_keys(self):
        args = strict_args(example, {"lid_in_targets": True}, "x")
        assert args == {"lid_in_targets": True, "depth": 3, "rate": 0.5, "taps": (), "surgery": Surgery(), "weights": None}

    @pytest.mark.parametrize("d,message", [
        ({"lid_in_targets": "false"}, "x.lid_in_targets must be bool, got 'false'"),
        ({"lid_in_targets": True, "depth": 3.7}, "x.depth must be int, got 3.7"),
        ({"lid_in_targets": True, "depth": True}, "x.depth must be int, got True"),
        ({"lid_in_targets": True, "rate": None}, "x.rate must be a finite number, got None"),
        ({"lid_in_targets": True, "rate": 10**400}, "x.rate must be a finite number"),
        ({"lid_in_targets": True, "taps": "2"}, "x.taps must be a list, got '2'"),
        ({"lid_in_targets": True, "taps": [2, "3"]}, "x.taps[1] must be int, got '3'"),
        ({"lid_in_targets": True, "surgery": 5}, "x.surgery must be an object, got 5"),
        ({"lid_in_targets": True, "surgery": {"kind": "delete_last", "n": 0}}, "x.surgery: surgery 'delete_last' needs n >= 1"),
        ({"lid_in_targets": True, "weights": [[1.0], [2.0, 3.0]]}, "x.weights must be a nested list of finite numbers"),
        ({"lid_in_targets": True, "weights": ["1.5"]}, "x.weights must be a nested list of finite numbers"),
        ({"lid_in_targets": True, "extra": 1}, "unknown key x.extra"),
        ({}, "x.lid_in_targets is required"),
        ([], "x must be an object, got []"),
    ])
    def test_rejections_name_the_path(self, d, message):
        with pytest.raises(ConfigError) as err:
            strict_args(example, d, "x")
        assert message in str(err.value)

    def test_conversions(self):
        args = strict_args(example, {"lid_in_targets": False, "rate": 1, "taps": [2, 4],
                                     "surgery": {"kind": "delete_last", "n": 1}, "weights": [[1, 2.5]]}, "x")
        assert args["rate"] == 1.0 and type(args["rate"]) is float
        assert args["taps"] == (2, 4)
        assert args["surgery"] == Surgery("delete_last", 1)
        assert args["weights"].dtype == np.float64 and args["weights"].tolist() == [[1.0, 2.5]]

    def test_overlay_merges_nested_objects_without_aliasing(self):
        base = {"stack": {"depth": 8, "hidden": 64}, "cross_taps": [1]}
        out = overlay(base, {"stack": {"depth": 6}, "cross_taps": [2]})
        assert out == {"stack": {"depth": 6, "hidden": 64}, "cross_taps": [2]}
        out["stack"]["hidden"] = 1
        assert base["stack"]["hidden"] == 64


def corpus_spec():
    return default_corpus_spec(seed=3, n_languages=2, phonemes_per_language=3, shared_phonemes=1,
                               feature_dim=4, counts={"train": 2, "dev": 1})


def model_config():
    return SshrConfig.from_dict(apply_variant(tiny_model_config(depth=6).to_dict(), "C4"))


class TestRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: Surgery("replace_last_with_middle", 2),
        lambda: StackConfig(depth=6, hidden=8, heads=2, ffn=16, surgery=Surgery("delete_last", 1)),
        lambda: model_config().vocab,
        model_config,
        lambda: TrainConfig(steps=7, lr=3e-3, batch_size=4, seed=11),
    ])
    def test_from_dict_of_to_dict_is_identity(self, make):
        x = make()
        d = x.to_dict()
        assert type(x).from_dict(json.loads(json.dumps(d))) == x

    def test_corpus_spec(self):
        spec = corpus_spec()
        back = CorpusSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert all(isinstance(b, LanguageSpec) for b in back.languages)
        moved = dataclasses.replace(spec.languages[0], bias=spec.languages[0].bias + 1.0)
        assert back != dataclasses.replace(spec, languages=(moved,) + spec.languages[1:])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)


def paths(obj, prefix=()):
    """Every (container path, key) inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def substituted(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


VALID = {
    SshrConfig: model_config().to_dict(),
    TrainConfig: TrainConfig().to_dict(),
    CorpusSpec: corpus_spec().to_dict(),
}


@pytest.mark.parametrize("cls", list(VALID), ids=lambda c: c.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_fuzzed_configs_raise_only_config_error(cls, data, value):
    doc = VALID[cls]
    path = data.draw(st.sampled_from(sorted(paths(doc), key=str) + [("surprise",)]))
    try:
        cls.from_dict(substituted(doc, path, value))
    except ConfigError:
        pass

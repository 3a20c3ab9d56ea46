import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from sshr.ctc import Vocabulary, collapse_frames
from sshr.datagen import CorpusSpec, default_corpus_spec, generate_corpus
from sshr.errors import ConfigError
from sshr.files import canonical_json, struct_crc
from sshr.model import CHECKPOINT_MAGIC, SshrConfig, default_model_config


def tiny_vocab(n_phonemes=5, n_langs=2) -> Vocabulary:
    return Vocabulary(
        tuple(f"p{i:02d}" for i in range(n_phonemes)),
        tuple(f"L{i}" for i in range(n_langs)),
    )


def tiny_model_config(vocab=None, depth=3, hidden=8, heads=2, ffn=16, feature_dim=4, seed=0, **over):
    vocab = vocab or tiny_vocab()
    cfg = default_model_config(vocab, feature_dim, seed)
    cfg["stack"].update({"depth": depth, "hidden": hidden, "heads": heads, "ffn": ffn})
    cfg.update(over)
    return SshrConfig.from_dict(cfg)


def oversized_checkpoint(vocab=None, feature_dim=4, **stack) -> bytes:
    """A checkpoint whose config claims a tiny model's stack with ``stack``
    values in place, followed by a 4-byte footer and no layout digest or
    parameters."""
    cfg = tiny_model_config(vocab, feature_dim=feature_dim).to_dict()
    cfg["stack"].update(stack)
    body = canonical_json(cfg).encode("utf-8")
    return resealed(CHECKPOINT_MAGIC + struct.pack("<I", len(body)) + body + bytes(4))


@st.composite
def mutated_bytes(draw, raw: bytes) -> bytes:
    """``raw`` with a few bytes flipped, cut short or bytes appended."""
    kind = draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "flip":
        out = bytearray(raw)
        for i in draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4)):
            out[i] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    return raw + draw(st.binary(min_size=1, max_size=64))


def shifted_boundary(align: bytes, nth: int = 0, earlier: bool = True) -> bytes:
    """An ``.align`` shard whose ``nth`` phoneme boundary moved by one frame
    (the next phoneme starting ``earlier`` or later), under the old footer.
    Inside an utterance the frames still collapse to its transcript."""
    frames = np.frombuffer(align[:-4], dtype="<u2").copy()
    b = np.flatnonzero(frames[1:] != frames[:-1])[nth]
    if earlier:
        frames[b] = frames[b + 1]
    else:
        frames[b + 1] = frames[b]
    return frames.tobytes() + align[-4:]


def resealed(raw) -> bytes:
    """``raw`` with its CRC32 footer recomputed over the bytes before it."""
    return bytes(raw[:-4]) + struct_crc(raw[:-4])


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A fast corpus for trainer/CLI tests: 4 languages, 20/6/6 per language."""
    out = tmp_path_factory.mktemp("corpus_small")
    spec = default_corpus_spec(seed=101, counts={"train": 20, "dev": 6, "test": 6})
    generate_corpus(spec, out)
    return out


@pytest.fixture(scope="session")
def small_vocab(small_corpus):
    from sshr.datagen import load_corpus_spec

    spec = load_corpus_spec(small_corpus)
    return Vocabulary(spec.phoneme_symbols, spec.language_names)


def adam_per_parameter(values: dict, grads: dict, m: dict, v: dict, t: int, lr: float,
                       beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step ``t`` as a loop over parameter arrays, the reference for
    the flat update: rebinds ``values[name]``, updates the moments in place."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, g in grads.items():
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        values[name] = values[name] - lr * update


def rand_log_softmax(rng, t, v, dtype=np.float64, scale=1.0):
    x = rng.normal(0.0, scale, (t, v))
    x = x - np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) - x.max(axis=1, keepdims=True)
    return x.astype(dtype)


def entropy_of_counts(counts) -> float:
    """Plug-in entropy (nats) of a count vector; the bound mutual information must respect."""
    counts = np.asarray(counts, dtype=np.int64).ravel()
    n = counts.sum()
    probs = counts[counts > 0] / n
    return float(-(probs * np.log(probs)).sum())


def oracle_transcribe(spec: CorpusSpec, lang_name: str, features: np.ndarray) -> list[int]:
    """Nearest-prototype frame classifier followed by run collapse.

    With sigma=0 this recovers every transcript exactly, which pins the
    corpus as separable by construction.
    """
    lang = next((l for l in spec.languages if l.name == lang_name), None)
    if lang is None:
        raise ConfigError(f"unknown language {lang_name!r}")
    realized = lang.realized_prototypes()
    d2 = ((features[:, None, :] - realized[None, :, :]) ** 2).sum(axis=2)
    frame_ids = [lang.phoneme_ids[j] for j in d2.argmin(axis=1)]
    return collapse_frames(frame_ids, blank=-1)

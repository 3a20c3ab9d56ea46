"""Transformer encoder layers and stack surgery.

Both layer kinds run one pre-norm residual body, ``self_attention_layer``;
they differ only in where the attention query comes from:

* ``self_attention``: queries, keys and values all come from the layer
  input.
* ``cross_attention``: keys and values come from the layer input, while the
  queries are two stacked linear maps of an earlier layer's posterior
  probabilities. The residual is taken from the layer input, so information
  flow survives near-uniform posteriors.

Stack surgery rewrites the final n positions of the base stack: delete
them, replace them with copies of the n layers just below, or give them a
fresh random initialization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as tz
from .config import Strict
from .errors import ConfigError

SURGERY_KINDS = ("none", "delete_last", "replace_last_with_middle", "random_init_last")


@dataclass(frozen=True)
class Surgery(Strict):
    kind: str = "none"
    n: int = 0

    def __post_init__(self):
        if self.kind not in SURGERY_KINDS:
            raise ConfigError(f"unknown surgery kind {self.kind!r}")
        if self.kind == "none" and self.n != 0:
            raise ConfigError("surgery 'none' takes no layer count")
        if self.kind != "none" and self.n < 1:
            raise ConfigError(f"surgery {self.kind!r} needs n >= 1")


@dataclass(frozen=True)
class StackConfig(Strict):
    depth: int
    hidden: int
    heads: int
    ffn: int
    surgery: Surgery = Surgery()

    def __post_init__(self):
        if self.depth < 1 or self.hidden < 1 or self.heads < 1 or self.ffn < 1:
            raise ConfigError("stack dimensions must be positive")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.surgery.kind != "none" and not 0 <= self.surgery.n < self.depth:
            raise ConfigError(f"surgery n={self.surgery.n} must satisfy 0 <= n < depth={self.depth}")
        if self.surgery.kind == "replace_last_with_middle" and self.depth < 2 * self.surgery.n:
            raise ConfigError(f"replace_last_with_middle({self.surgery.n}) needs depth >= {2 * self.surgery.n}")

    @property
    def surviving_depth(self) -> int:
        if self.surgery.kind == "delete_last":
            return self.depth - self.surgery.n
        return self.depth


@dataclass(frozen=True)
class LayerSpec:
    """One stack position: its kind, the tap feeding it (cross-attention
    only), and where its parameters come from.

    ``init`` is ``("base", i)`` for position i's own initialization stream,
    ``("copy", i)`` for a bitwise copy of pre-surgery layer i's parameters,
    and ``("fresh", m)`` for a re-initialization stream independent of every
    base layer. Layer indices are 1-based throughout, matching configs.
    """

    kind: str
    source: int | None = None
    init: tuple[str, int] = ("base", 0)


def build_stack(cfg: StackConfig, cross_taps=()) -> list[LayerSpec]:
    """Resolve surgery and cross-attention taps into an ordered layer list.

    Taps are expressed against the post-surgery stack; tap j routes layer
    j's posteriors into layer j+1, so a tap must leave room for that next
    layer and may not sit on layer 1.
    """
    surgery = cfg.surgery
    if surgery.kind == "delete_last":
        inits = [("base", i) for i in range(1, cfg.depth - surgery.n + 1)]
    elif surgery.kind == "replace_last_with_middle":
        n = surgery.n
        inits = [("base", i) for i in range(1, cfg.depth - n + 1)]
        inits += [("copy", i) for i in range(cfg.depth - 2 * n + 1, cfg.depth - n + 1)]
    elif surgery.kind == "random_init_last":
        inits = [("base", i) for i in range(1, cfg.depth - surgery.n + 1)]
        inits += [("fresh", m) for m in range(1, surgery.n + 1)]
    else:
        inits = [("base", i) for i in range(1, cfg.depth + 1)]

    depth = len(inits)
    taps = sorted(set(int(j) for j in cross_taps))
    kinds = ["self_attention"] * depth
    sources: list[int | None] = [None] * depth
    for j in taps:
        if j < 2:
            raise ConfigError(f"cross tap {j} may not target the first layer")
        if j + 1 > depth:
            raise ConfigError(
                f"cross tap {j} needs layer {j + 1}, but the post-surgery stack has {depth} layers"
            )
        kinds[j] = "cross_attention"  # position j+1, 0-based index j
        sources[j] = j
    return [LayerSpec(kind=k, source=s, init=i) for k, s, i in zip(kinds, sources, inits)]


@dataclass
class LayerParams:
    """Tensors of one encoder layer; Q-path fields depend on the kind."""

    ln1_gain: tz.Tensor
    ln1_bias: tz.Tensor
    wk: tz.Tensor
    bk: tz.Tensor
    wv: tz.Tensor
    bv: tz.Tensor
    wo: tz.Tensor
    bo: tz.Tensor
    ln2_gain: tz.Tensor
    ln2_bias: tz.Tensor
    w1: tz.Tensor
    b1: tz.Tensor
    w2: tz.Tensor
    b2: tz.Tensor
    wq: tz.Tensor | None = None
    bq: tz.Tensor | None = None
    wp1: tz.Tensor | None = None
    bp1: tz.Tensor | None = None
    wp2: tz.Tensor | None = None
    bp2: tz.Tensor | None = None

    def items(self):
        for f in fields(self):
            t = getattr(self, f.name)
            if t is not None:
                yield f.name, t


def self_attention_layer(x: tz.Tensor, p: LayerParams, n_heads: int, lengths, query=None) -> tz.Tensor:
    """Pre-norm multi-head attention + residual, then pre-norm FFN +
    residual; length-preserving. ``lengths`` segments packed utterances
    (attention stays within each; one utterance is ``(T,)``). The query is
    ``query`` when given, else the layer's own projection of the normed
    input; keys, values and the residual always come from ``x``."""
    h = tz.layer_norm(x, p.ln1_gain, p.ln1_bias)
    q = tz.linear(h, p.wq, p.bq) if query is None else query
    k = tz.linear(h, p.wk, p.bk)
    v = tz.linear(h, p.wv, p.bv)
    a = tz.multi_head_attention(q, k, v, n_heads, lengths)
    x = tz.add(x, tz.linear(a, p.wo, p.bo))
    f = tz.layer_norm(x, p.ln2_gain, p.ln2_bias)
    f = tz.linear(tz.gelu(tz.linear(f, p.w1, p.b1)), p.w2, p.b2)
    return tz.add(x, f)


def cross_attention_layer(probs: tz.Tensor, x: tz.Tensor, p: LayerParams, n_heads: int, lengths) -> tz.Tensor:
    """``self_attention_layer`` with the query Linear(Linear(posterior
    probs)) of an earlier layer; ``probs`` has one row per row of ``x``."""
    if probs.values.shape[0] != x.values.shape[0]:
        raise ConfigError(
            f"posterior length {probs.values.shape[0]} differs from input length {x.values.shape[0]}"
        )
    q = tz.linear(tz.linear(probs, p.wp1, p.bp1), p.wp2, p.bp2)
    return self_attention_layer(x, p, n_heads, lengths, query=q)


def _stream_rng(seed: int, key: str) -> np.random.Generator:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *words]))


def _init_weight(seed, key, rows, cols, dtype):
    std = np.sqrt(2.0 / (rows + cols))
    return _stream_rng(seed, key).normal(0.0, std, (rows, cols)).astype(dtype)


def init_layer_params(spec: LayerSpec, cfg: StackConfig, posterior_dim: int, seed: int, dtype=np.float32) -> LayerParams:
    """Materialize one layer's parameters.

    Parameters are drawn per (seed, stream, parameter-name), so a
    ``("copy", i)`` layer reproduces layer i's bytes exactly and a
    ``("fresh", m)`` layer draws from streams no base layer uses.
    """
    kind_key, idx = spec.init
    stream = f"reinit.{idx}" if kind_key == "fresh" else f"layer.{idx}"
    h, f = cfg.hidden, cfg.ffn

    def w(name, rows, cols):
        return tz.param(_init_weight(seed, f"{stream}.{name}", rows, cols, dtype), name=f"{stream}.{name}")

    def zeros(name, n):
        return tz.param(np.zeros(n, dtype=dtype), name=f"{stream}.{name}")

    def ones(name, n):
        return tz.param(np.ones(n, dtype=dtype), name=f"{stream}.{name}")

    params = LayerParams(
        ln1_gain=ones("ln1_gain", h), ln1_bias=zeros("ln1_bias", h),
        wk=w("wk", h, h), bk=zeros("bk", h),
        wv=w("wv", h, h), bv=zeros("bv", h),
        wo=w("wo", h, h), bo=zeros("bo", h),
        ln2_gain=ones("ln2_gain", h), ln2_bias=zeros("ln2_bias", h),
        w1=w("w1", h, f), b1=zeros("b1", f),
        w2=w("w2", f, h), b2=zeros("b2", h),
    )
    if spec.kind == "cross_attention":
        params.wp1 = w("wp1", posterior_dim, h)
        params.bp1 = zeros("bp1", h)
        params.wp2 = w("wp2", h, h)
        params.bp2 = zeros("bp2", h)
    else:
        params.wq = w("wq", h, h)
        params.bq = zeros("bq", h)
    return params


class EncoderStack:
    """The post-surgery layer list plus materialized parameters.

    Construction is a pure function of (config, taps, posterior width,
    seed): identical inputs give identical parameter bytes.
    """

    def __init__(self, cfg: StackConfig, cross_taps, posterior_dim: int, seed: int, dtype=np.float32):
        self.cfg = cfg
        self.specs = build_stack(cfg, cross_taps)
        self.layers = [
            init_layer_params(spec, cfg, posterior_dim, seed, dtype) for spec in self.specs
        ]

    @property
    def depth(self) -> int:
        return len(self.specs)

    def named_params(self):
        for i, layer in enumerate(self.layers, start=1):
            for name, t in layer.items():
                yield f"enc.{i}.{name}", t

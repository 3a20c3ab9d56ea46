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

A layer's parameters are declared once, in ``layer_layout``.
``allocate_params`` builds a layout as views of one flat vector, and
``init_params`` draws into them, each matrix from its own SHA-256-keyed
stream; a layer is a dict of its tensors by layout name.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

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
    """One stack position: its kind (a cross-attention layer reads the tap
    directly below it) and where its parameters come from.

    ``init`` is ``("base", i)`` for position i's own initialization stream,
    ``("copy", i)`` for a bitwise copy of pre-surgery layer i's parameters,
    and ``("fresh", m)`` for a re-initialization stream independent of every
    base layer. Layer indices are 1-based throughout, matching configs.
    """

    kind: str
    init: tuple[str, int] = ("base", 0)


def check_taps(cfg: StackConfig, taps):
    """Tap j routes layer j's posteriors into layer j+1 of the post-surgery
    stack, so a tap must leave room for that layer and not sit on layer 1."""
    depth = cfg.surviving_depth
    if taps and (min(taps) < 2 or max(taps) > depth - 1):
        raise ConfigError(f"cross taps {list(taps)} outside [2, {depth - 1}]: a tap feeds the layer above it")


def build_stack(cfg: StackConfig, cross_taps=()) -> list[LayerSpec]:
    """Resolve surgery and cross-attention taps into an ordered layer list."""
    check_taps(cfg, cross_taps)
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

    kinds = ["self_attention"] * len(inits)
    for j in cross_taps:
        kinds[j] = "cross_attention"  # position j+1, 0-based index j
    return [LayerSpec(kind=k, init=i) for k, i in zip(kinds, inits)]


def self_attention_layer(x: tz.Tensor, p: dict[str, tz.Tensor], n_heads: int, lengths, query=None) -> tz.Tensor:
    """Pre-norm multi-head attention + residual, then pre-norm FFN +
    residual; length-preserving. ``p`` maps ``layer_layout`` names to the
    layer's tensors. ``lengths`` segments packed utterances (attention stays
    within each; one utterance is ``(T,)``). The query is ``query`` when
    given, else the layer's own projection of the normed input; keys,
    values and the residual always come from ``x``."""
    h = tz.layer_norm(x, p["ln1_gain"], p["ln1_bias"])
    q = tz.linear(h, p["wq"], p["bq"]) if query is None else query
    k = tz.linear(h, p["wk"], p["bk"])
    v = tz.linear(h, p["wv"], p["bv"])
    a = tz.multi_head_attention(q, k, v, n_heads, lengths)
    x = tz.add(x, tz.linear(a, p["wo"], p["bo"]))
    f = tz.layer_norm(x, p["ln2_gain"], p["ln2_bias"])
    f = tz.linear(tz.gelu(tz.linear(f, p["w1"], p["b1"])), p["w2"], p["b2"])
    return tz.add(x, f)


def cross_attention_layer(probs: tz.Tensor, x: tz.Tensor, p: dict[str, tz.Tensor], n_heads: int, lengths) -> tz.Tensor:
    """``self_attention_layer`` with the query Linear(Linear(posterior
    probs)) of the tap below; ``probs`` has one row per row of ``x``
    (``multi_head_attention`` rejects a query of another shape)."""
    q = tz.linear(tz.linear(probs, p["wp1"], p["bp1"]), p["wp2"], p["bp2"])
    return self_attention_layer(x, p, n_heads, lengths, query=q)


def init_stream(spec: LayerSpec) -> str:
    """A layer's init-stream prefix: ``layer.i`` for a base or ``("copy",
    i)`` layer, so a copy draws layer i's bytes; ``reinit.m`` when fresh."""
    kind, idx = spec.init
    return f"reinit.{idx}" if kind == "fresh" else f"layer.{idx}"


def layer_layout(spec: LayerSpec, cfg: StackConfig, posterior_dim: int) -> list[tuple[str, tuple[int, ...], str]]:
    """``(name, shape, init)`` of one layer's parameters in checkpoint
    order; ``init`` is ``"normal"``, ``"zeros"`` or ``"ones"``."""
    h, f = cfg.hidden, cfg.ffn
    layout = [
        ("ln1_gain", (h,), "ones"), ("ln1_bias", (h,), "zeros"),
        ("wk", (h, h), "normal"), ("bk", (h,), "zeros"),
        ("wv", (h, h), "normal"), ("bv", (h,), "zeros"),
        ("wo", (h, h), "normal"), ("bo", (h,), "zeros"),
        ("ln2_gain", (h,), "ones"), ("ln2_bias", (h,), "zeros"),
        ("w1", (h, f), "normal"), ("b1", (f,), "zeros"),
        ("w2", (f, h), "normal"), ("b2", (h,), "zeros"),
    ]
    if spec.kind == "cross_attention":
        return layout + [("wp1", (posterior_dim, h), "normal"), ("bp1", (h,), "zeros"),
                         ("wp2", (h, h), "normal"), ("bp2", (h,), "zeros")]
    return layout + [("wq", (h, h), "normal"), ("bq", (h,), "zeros")]


def allocate_params(layout, dtype) -> tuple[dict[str, tz.Tensor], np.ndarray, np.ndarray]:
    """Zeroed parameters for ``layout`` entries ``(name, shape, init,
    stream key)``, and the two flat vectors holding every tensor's values
    and grad as views, laid end to end in layout order."""
    flat_values = np.zeros(sum(math.prod(shape) for _, shape, _, _ in layout), dtype=dtype)
    flat_grads = np.zeros_like(flat_values)
    params, start = {}, 0
    for name, shape, _, _ in layout:
        stop = start + math.prod(shape)
        params[name] = tz.Tensor(flat_values[start:stop].reshape(shape), requires_grad=True, name=name)
        params[name].grad = flat_grads[start:stop].reshape(shape)
        start = stop
    return params, flat_values, flat_grads


def _stream_rng(seed: int, key: str) -> np.random.Generator:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *words]))


def init_params(params: dict[str, tz.Tensor], layout, seed: int):
    """Write the initial values of ``allocate_params``' zeroed tensors in
    place: ones, or a Glorot normal matrix drawn from stream (seed, key).
    The float64 draw rounds into a float32 view as ``astype`` would."""
    for name, shape, init, key in layout:
        if init == "ones":
            params[name].values.fill(1)
        elif init == "normal":
            params[name].values[...] = _stream_rng(seed, key).normal(0.0, np.sqrt(2.0 / sum(shape)), shape)


def init_layer_params(spec: LayerSpec, cfg: StackConfig, posterior_dim: int, seed: int, dtype=np.float32) -> dict[str, tz.Tensor]:
    """One layer's tensors by ``layer_layout`` name, with the model's bytes."""
    stream = init_stream(spec)
    layout = [(name, shape, init, f"{stream}.{name}") for name, shape, init in layer_layout(spec, cfg, posterior_dim)]
    params, _, _ = allocate_params(layout, dtype)
    init_params(params, layout, seed)
    return params

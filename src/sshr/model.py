"""Full model assembly: input projection, language-summary frame splice,
posterior-query cross-attention taps, shared CTC head, combined loss, and
the versioned checkpoint format.

Layer indices in configs are 1-based. The language-summary frame is the
mean over time of layer i's output, prepended to the frame sequence, so
every layer after i (and the final posterior) works on length T+1.
``SshrModel.ctc_terms`` states the objective: the rows and targets of
each scored posterior.

A batch runs as one packed forward: the utterances' frames are stacked
into a (sum T) x F matrix, every row-wise op runs once over all rows, and
attention and the splice act per utterance. A single utterance is the
batch of one. ``SshrModel.stages`` is the one layer loop, a stream of
``(output, row counts, tap posterior or None)`` per stage: ``forward``
collects its taps and adds the final head, and the probe reads its outputs.

Parameters are declared once, in ``SshrModel._allocate``: ``input.*``,
each layer's ``enc.{i}.*``, ``head_norm.*``, ``head.*``, the order of the
flat arena. Construction draws the initialization into the arena; a
checkpoint is the config (which fixes the layout) and the arena in one piece.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .config import Strict
from .ctc import Vocabulary, ctc_head, ctc_loss, min_frames, solve_ctc
from .encoder import (LayerSpec, StackConfig, allocate_params, build_stack, check_taps, cross_attention_layer,
                      init_params, init_stream, layer_layout, self_attention_layer)
from .errors import ConfigError, CorruptDataError, SshrError
from .files import canonical_json, replacing, struct_crc, unsealed

CHECKPOINT_MAGIC = b"SSHR2"


@dataclass(frozen=True)
class SshrConfig(Strict):
    """Everything needed to rebuild a model bit-for-bit."""

    stack: StackConfig
    feature_dim: int
    vocab: Vocabulary
    lid_extract_layer: int | None = None
    lid_in_targets: bool = False
    cross_taps: tuple[int, ...] = ()
    loss_weight: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be positive")
        if not 0.0 <= self.loss_weight <= 1.0:
            raise ConfigError(f"loss weight {self.loss_weight} outside [0, 1]")
        taps = tuple(int(j) for j in self.cross_taps)
        if list(taps) != sorted(set(taps)):
            raise ConfigError("cross_taps must be strictly increasing")
        object.__setattr__(self, "cross_taps", taps)
        if not taps and self.loss_weight != 0.0:
            raise ConfigError("loss weight must be 0 when there are no cross taps")
        depth = self.stack.surviving_depth
        if self.lid_extract_layer is not None:
            if not 1 <= self.lid_extract_layer < depth:
                raise ConfigError(f"lid_extract_layer {self.lid_extract_layer} outside [1, {depth - 1}]")
            if not self.lid_in_targets:
                raise ConfigError("lid_extract_layer requires lid_in_targets")
        check_taps(self.stack, taps)


def _input_and_head(cfg: SshrConfig) -> tuple[list, list]:
    """The layout entries before and after the layers."""
    h, v = cfg.stack.hidden, cfg.vocab.size
    inputs = [("input.w", (cfg.feature_dim, h), "normal", "input.w"), ("input.b", (h,), "zeros", "input.b")]
    # a shared norm in front of the shared head, so tap and final posteriors see
    # the same input scale (pre-norm stacks leave the residual stream unnormalized)
    head = [("head_norm.gain", (h,), "ones", "head_norm.gain"), ("head_norm.bias", (h,), "zeros", "head_norm.bias"),
            ("head.w", (h, v), "normal", "head.w"), ("head.b", (v,), "zeros", "head.b")]
    return inputs, head


def parameter_count(cfg: SshrConfig) -> int:
    """The size of ``cfg``'s arena from the declarations ``_allocate``
    builds, without building the stack: a layer's parameters depend only
    on its kind, so this is O(1) in depth."""
    inputs, head = _input_and_head(cfg)
    n_cross = len(cfg.cross_taps)
    return sum(math.prod(shape) for _, shape, _, _ in inputs + head) + sum(
        n * sum(math.prod(shape) for _, shape, _ in layer_layout(LayerSpec(kind), cfg.stack, cfg.vocab.size))
        for kind, n in (("self_attention", cfg.stack.surviving_depth - n_cross), ("cross_attention", n_cross)))


def _layout_digest(params: dict) -> bytes:
    """sha256 of the parameters' ``[name, shape]`` list in arena order."""
    return hashlib.sha256(canonical_json([[name, t.values.shape] for name, t in params.items()]).encode()).digest()


def default_model_config(vocab: Vocabulary, feature_dim: int, seed: int = 0) -> dict:
    """Baseline (B0) configuration at desk scale: 8 layers of width 64."""
    return {
        "stack": {
            "depth": 8,
            "hidden": 64,
            "heads": 4,
            "ffn": 256,
            "surgery": {"kind": "none", "n": 0},
        },
        "feature_dim": feature_dim,
        "vocab": vocab.to_dict(),
        "lid_extract_layer": None,
        "lid_in_targets": False,
        "cross_taps": [],
        "loss_weight": 0.0,
        "seed": seed,
    }


@dataclass
class ForwardOutput:
    """Packed log-prob posteriors, the final one and one per tap; the final
    one holds ``lengths[b]`` rows of utterance b, in batch order."""

    final: tz.Tensor
    intermediates: list[tz.Tensor]
    lengths: tuple[int, ...]


def extract_and_splice_lid_frame(x: tz.Tensor, lengths) -> tz.Tensor:
    """Prepend each utterance's mean-over-time row, turning its T x H block
    into (T+1) x H (``lengths`` as in ``tz.mean_over_time``)."""
    return tz.prepend_row(tz.mean_over_time(x, lengths), x, lengths)


def total_loss(final_loss: tz.Tensor, tap_losses, w: float) -> tz.Tensor:
    """Combined objective from scalar CTC losses: (1-w) * final + w * mean
    of the taps. With no taps or w = 0 the final loss is returned
    untouched; with no taps w must be 0.
    """
    k = len(tap_losses)
    if k == 0 and w != 0.0:
        raise ConfigError("loss weight must be 0 when there are no tap losses")
    if k == 0 or w == 0.0:
        return final_loss
    tap_sum = tap_losses[0]
    for term in tap_losses[1:]:
        tap_sum = tz.add(tap_sum, term)
    tap_mean = tz.scale(tap_sum, 1.0 / k)
    if w == 1.0:
        return tap_mean
    return tz.add(tz.scale(final_loss, 1.0 - w), tz.scale(tap_mean, w))


class SshrModel:
    """Encoder stack + shared CTC head behind a single forward interface."""

    def __init__(self, cfg: SshrConfig, dtype=np.float32):
        layout = self._allocate(cfg, dtype)
        init_params(self.params, layout, cfg.seed)

    def _allocate(self, cfg: SshrConfig, dtype) -> list:
        """Declare every parameter and build it zeroed in the arena; returns
        the layout for ``init_params``, which ``load_bytes`` never calls."""
        self.cfg, self.dtype = cfg, dtype
        inputs, head = _input_and_head(cfg)
        self.specs = build_stack(cfg.stack, cfg.cross_taps)
        layouts = [layer_layout(spec, cfg.stack, cfg.vocab.size) for spec in self.specs]
        layout = inputs
        for i, (spec, layer) in enumerate(zip(self.specs, layouts), start=1):
            layout += [(f"enc.{i}.{name}", shape, init, f"{init_stream(spec)}.{name}") for name, shape, init in layer]
        layout += head
        # one arena, so zeroing and the optimizer are whole-vector operations
        self.params, self.flat_values, self.flat_grads = allocate_params(layout, dtype)
        self.layers = [{name: self.params[f"enc.{i}.{name}"] for name, _, _ in layer}
                       for i, layer in enumerate(layouts, start=1)]
        self._pos_cache: dict[int, np.ndarray] = {}
        return layout

    def _head(self, x: tz.Tensor) -> tz.Tensor:
        p = self.params
        return ctc_head(tz.layer_norm(x, p["head_norm.gain"], p["head_norm.bias"]), p["head.w"], p["head.b"])

    @property
    def depth(self) -> int:
        return len(self.specs)

    def zero_grads(self):
        self.flat_grads.fill(0)

    def _positions(self, lengths) -> np.ndarray:
        tables = []
        for n in lengths:
            table = self._pos_cache.get(n)
            if table is None:
                table = tz.sinusoidal_positions(n, self.cfg.stack.hidden, self.dtype)
                self._pos_cache[n] = table
            tables.append(table)
        return np.concatenate(tables)

    def stages(self, features: np.ndarray, lengths=None):
        """The forward pass one stage at a time, the stack's one layer loop.

        ``features`` stacks the utterances' frames in order, and
        ``lengths`` gives their frame counts (None: a single utterance).
        Yields ``(x, lengths, tap)`` per stage: the projected-and-positioned
        input, then layer d's output for d = 1..depth (before the splice
        when d is the extraction layer), the utterances' row counts in
        ``x``, and the posterior layer d emits (None off the taps). A tap is
        held only until the layer above it has read it, and a consumer
        that stops after layer d runs layers 1..d and no head above them.
        """
        feats = np.asarray(features, dtype=self.dtype)
        if feats.ndim != 2 or feats.shape[1] != self.cfg.feature_dim:
            raise ConfigError(f"features must be T x {self.cfg.feature_dim}, got {feats.shape}")
        lengths = (feats.shape[0],) if lengths is None else tuple(int(n) for n in lengths)
        if not lengths or min(lengths) < 1 or sum(lengths) != feats.shape[0]:
            raise ConfigError(f"utterance lengths {list(lengths)} must be positive and sum to {feats.shape[0]} frames")
        x = tz.linear(tz.Tensor(feats), self.params["input.w"], self.params["input.b"])
        x = tz.add(x, tz.Tensor(self._positions(lengths)))
        yield x, lengths, None
        lid_layer, taps, heads = self.cfg.lid_extract_layer, self.cfg.cross_taps, self.cfg.stack.heads
        tap = None
        for pos, (spec, lp) in enumerate(zip(self.specs, self.layers), start=1):
            try:
                if spec.kind == "cross_attention":  # the layer above tap pos - 1
                    x = cross_attention_layer(tz.exp(tap), x, lp, heads, lengths)
                else:
                    x = self_attention_layer(x, lp, heads, lengths)
                out, out_lengths = x, lengths
                if lid_layer == pos:
                    x = extract_and_splice_lid_frame(x, lengths)
                    lengths = tuple(n + 1 for n in lengths)
                tap = self._head(x) if pos in taps else None
            except SshrError as err:
                raise type(err)(f"layer {pos}: {err}") from err
            yield out, out_lengths, tap

    def forward(self, features: np.ndarray, lengths=None) -> ForwardOutput:
        """Run packed utterances through every stage of ``stages``; returns
        the posteriors at the final layer and at every tap."""
        intermediates = []
        for x, lengths, tap in self.stages(features, lengths):
            if tap is not None:
                intermediates.append(tap)
        return ForwardOutput(final=self._head(x), intermediates=intermediates, lengths=lengths)

    def ctc_terms(self, n_frames: int, transcript, language) -> list[tuple[int, list[int]]]:
        """The CTC objective of one utterance: ``(rows, targets)`` for the
        final posterior, then for each tap in order.

        A posterior past the splice has one more row (the summary frame);
        the targets are the phoneme tokens, with the language token first
        on the final posterior and on every spliced tap when the config
        scores it.
        """
        if not len(transcript):
            raise ConfigError("transcript must be nonempty")
        vocab, splice = self.cfg.vocab, self.cfg.lid_extract_layer
        plain = [vocab.phoneme_token(int(p)) for p in transcript]
        final = [vocab.lid_token(language)] + plain if self.cfg.lid_in_targets else plain
        terms = [(n_frames + (splice is not None), final)]
        for j in self.cfg.cross_taps:
            spliced = splice is not None and j >= splice
            terms.append((n_frames + spliced, final if spliced else plain))
        return terms

    def feasible(self, n_frames: int, transcript, language) -> bool:
        """Whether every scored posterior has enough rows to emit its
        targets; lets a batch drop an utterance before its forward instead
        of failing inside it."""
        return all(min_frames(t) <= rows for rows, t in self.ctc_terms(n_frames, transcript, language))

    def batch_loss(self, batch) -> tz.Tensor:
        """Mean combined loss of ``(features, transcript, language)``
        utterances from one packed forward.

        Each utterance's CTC terms read its own row slice of the packed
        posteriors, so the loss and every gradient equal the mean of the
        utterances' separate losses up to summation order. The terms of
        each scored posterior are solved together by one ``solve_ctc``
        stack, bit for bit as each would be alone, and each term still
        enters the graph through its own ``ctc_loss`` call, which adds the
        solved loss and gradient. A term too short for its targets raises
        from its ``ctc_loss`` before any stack is solved.
        """
        if not batch:
            raise ConfigError("batch_loss needs at least one utterance")
        lengths = [np.shape(features)[0] for features, _, _ in batch]
        out = self.forward(np.concatenate([features for features, _, _ in batch]), lengths=lengths)
        w = self.cfg.loss_weight
        posteriors = [out.final] + out.intermediates
        scored = posteriors if w != 0.0 else posteriors[:1]
        starts = [0] * len(posteriors)
        terms = []  # per utterance: (posterior, first row, rows, targets) of each scored term
        for n, (_, transcript, language) in zip(lengths, batch):
            utterance = self.ctc_terms(n, transcript, language)
            terms.append([(p, start, rows, targets) for p, start, (rows, targets) in zip(scored, starts, utterance)])
            starts = [start + rows for start, (rows, _) in zip(starts, utterance)]
        for utterance in terms:
            for p, start, rows, targets in utterance:
                if min_frames(targets) > rows:  # the term's own op raises, before any DP work
                    ctc_loss(tz.row_slice(p, start, start + rows), targets)
        # one stack per posterior, so the scratch held at once is one posterior's
        solved = [iter(solve_ctc([(p.values[start : start + rows], targets) for p, start, rows, targets in column]))
                  for column in zip(*terms)]
        total = None
        for utterance in terms:
            losses = [ctc_loss(tz.row_slice(p, start, start + rows), targets, next(column))
                      for (p, start, rows, targets), column in zip(utterance, solved)]
            term = total_loss(losses[0], losses[1:], w)
            total = term if total is None else tz.add(total, term)
        return tz.scale(total, 1.0 / len(batch))

    def utterance_loss(self, features, transcript, language) -> tz.Tensor:
        return self.batch_loss([(features, transcript, language)])

    def decode(self, features) -> list[int]:
        # imported here, not at module level: the benchmark tracer patches
        # sshr.ctc.ctc_greedy_decode, and a module-level import would bind
        # the unpatched function
        from .ctc import ctc_greedy_decode

        with tz.no_grad():
            out = self.forward(features)
        return ctc_greedy_decode(out.final)

    # -- checkpoint format ---------------------------------------------
    # magic "SSHR2", u32 LE config-JSON length, canonical config JSON, the
    # 32-byte sha256 of the layout's [name, shape] list, ``flat_values`` as
    # float32 LE, then the u32 LE CRC32 of every byte before it.

    def save_bytes(self) -> bytes:
        cfg_bytes = canonical_json(self.cfg.to_dict()).encode("utf-8")
        parts = [CHECKPOINT_MAGIC, len(cfg_bytes).to_bytes(4, "little"), cfg_bytes, _layout_digest(self.params),
                 np.asarray(self.flat_values, dtype="<f4")]
        return b"".join(parts + [struct_crc(*parts)])

    def save(self, path):
        """Write the checkpoint through ``files.replacing``: a crash
        mid-write leaves any earlier file at ``path`` whole."""
        raw = self.save_bytes()
        with replacing(path, "wb") as fh:
            fh.write(raw)

    @classmethod
    def load_bytes(cls, raw: bytes) -> "SshrModel":
        """Rebuild a model from ``save_bytes`` output. The config fixes the
        file's size, checked before anything is allocated. A truncated file,
        a config that is not JSON, trailing bytes, a failed checksum or
        non-finite data raise ``CorruptDataError``; another format or a
        layout other than the config's raises ``ConfigError``."""
        n = len(CHECKPOINT_MAGIC)
        if len(raw) >= n and raw[:n] != CHECKPOINT_MAGIC:
            if raw[: n - 1] == CHECKPOINT_MAGIC[:-1]:
                raise ConfigError(f"checkpoint format {raw[:n].decode('ascii', 'replace')} is not "
                                  f"{CHECKPOINT_MAGIC.decode()}, the one this version reads: retrain the model")
            raise ConfigError("not a model checkpoint (bad magic)")
        start = n + 4 + int.from_bytes(raw[n : n + 4], "little")  # where the layout digest begins
        if len(raw) < start:  # also when the length field itself is cut
            raise CorruptDataError("checkpoint truncated in its header or config")
        try:
            cfg_dict = json.loads(raw[n + 4 : start].decode("utf-8"))
        except ValueError as err:  # not UTF-8 or not JSON
            raise CorruptDataError(f"checkpoint config is not JSON: {err}") from None
        cfg = SshrConfig.from_dict(cfg_dict)
        count = parameter_count(cfg)
        need, room = 32 + 4 * count + 4, len(raw) - start
        if need > room:
            raise CorruptDataError(f"checkpoint truncated: its config needs at least {need} bytes after it, "
                                   f"it holds {room} ({need - room} short)")
        if room > need:
            raise CorruptDataError(f"checkpoint has {room - need} trailing bytes")
        unsealed(raw, "checkpoint")
        model = cls.__new__(cls)
        model._allocate(cfg, np.float32)
        if raw[start : start + 32] != _layout_digest(model.params):
            raise ConfigError("checkpoint parameter names, order or shapes differ from what its config builds")
        model.flat_values[...] = np.frombuffer(raw, dtype="<f4", count=count, offset=start + 32)
        if not np.isfinite(model.flat_values).all():
            name = next(name for name, t in model.params.items() if not np.isfinite(t.values).all())
            raise CorruptDataError(f"checkpoint parameter {name!r} holds non-finite values")
        return model

    @classmethod
    def load(cls, path) -> "SshrModel":
        with open(path, "rb") as fh:
            return cls.load_bytes(fh.read())

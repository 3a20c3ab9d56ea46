"""Finite-difference gradient verification.

``CHECKS`` is the suite, one table entry per check: every function of
``sshr.tensor`` that records a graph node, and ``ctc_loss``, under its own
name, then the composites that wire them together (ragged attention, the
segment splice, the CTC head with its loss, both encoder layers and a
micro model). An entry is ``(fn, shapes)``: ``fn`` maps leaves of
``shapes``, drawn U(-1, 1), to the checked output. A factory entry has
``shapes`` None; ``fn(seed, rng)`` then returns the build thunk and its
named leaves itself. Each entry draws its leaves, and the projection that
seeds the backward of a non-scalar output, from its own stream
``default_rng([seed, crc32(name)])``, so adding or deleting an entry moves
no other entry's inputs.

Analytic gradients are compared with 64-bit central differences at step
1e-4 (at 1e-3 the O(h^2) truncation error of the micro model alone
exceeded the tolerance on correct gradients); the suite reports the worst
relative error per entry and is what the ``gradcheck`` CLI subcommand
runs. Adding a check is one table line.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import tensor as tz
from .ctc import Vocabulary, ctc_head, ctc_loss
from .encoder import LayerSpec, StackConfig, cross_attention_layer, init_layer_params, self_attention_layer
from .model import SshrConfig, SshrModel

FD_STEP = 1e-4
REL_TOL = 1e-4


def finite_difference_gradient(fn, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. float64 array ``x``.

    ``fn`` is re-evaluated with each component nudged in place, so it must
    read ``x`` fresh on every call.
    """
    assert x.dtype == np.float64, "finite differences run in 64-bit"
    grad = np.zeros_like(x)
    for i in range(x.size):  # ndarray.flat writes through even when x is a view
        orig = x.flat[i]
        x.flat[i] = orig + step
        up = fn()
        x.flat[i] = orig - step
        down = fn()
        x.flat[i] = orig
        grad.flat[i] = (up - down) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute deviation scaled by the gradient magnitude.

    The 1e-6 floor keeps exactly-zero gradients (e.g. the key bias, which
    attention's row-shift invariance kills) from dividing finite-difference
    noise by itself.
    """
    if not numeric.size:
        return 0.0
    denom = max(float(np.abs(numeric).max()), float(np.abs(analytic).max()), 1e-6)
    return float(np.abs(analytic - numeric).max()) / denom


def check_scalar_graph(build, leaves: dict[str, tz.Tensor], proj=None, step: float = FD_STEP) -> float:
    """Worst relative error over ``leaves`` for the scalar ``sum(build() *
    proj)``: the backward is seeded with ``proj`` (ones when None) and the
    finite differences read the same sum."""
    out = build()
    proj = np.ones_like(out.values) if proj is None else proj
    flow = tz.backward(out, seed=proj)
    worst = 0.0
    for t in leaves.values():
        with tz.no_grad():  # the differences read values only
            numeric = finite_difference_gradient(lambda: float((build().values * proj).sum()), t.values, step)
        analytic = flow.get(t)
        analytic = np.zeros_like(t.values) if analytic is None else np.asarray(analytic, dtype=np.float64)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


def _leaf(rng, shape) -> tz.Tensor:
    return tz.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


def _layer_check(kind: str):
    """Factory for one encoder layer of ``kind`` on 4 frames of width 6.
    Its parameters are ``init_layer_params``' tensors moved off the init's
    zeros and ones; a cross-attention layer's queries come from the exp of
    a 5-wide posterior leaf."""
    rows, heads, vdim = 4, 2, 5
    stack = StackConfig(depth=1, hidden=6, heads=heads, ffn=8)

    def make(seed, rng):
        params = init_layer_params(LayerSpec(kind), stack, vdim, 0, np.float64)
        for t in params.values():
            t.values += rng.uniform(-0.5, 0.5, t.values.shape)
        x = _leaf(rng, (rows, stack.hidden))
        leaves = {"x": x, **params}
        if kind == "self_attention":
            return (lambda: self_attention_layer(x, params, heads, (rows,))), leaves
        post = _leaf(rng, (rows, vdim))
        return (lambda: cross_attention_layer(tz.exp(post), x, params, heads, (rows,))), {"posterior": post, **leaves}

    return make


def _micro_model(seed, rng):
    """Factory for a two-mechanism micro model: splice at layer 1,
    posterior-query cross-attention after the tap at layer 2, combined loss
    over every parameter. Its inputs are functions of ``seed`` alone: the
    model's own initialization and ``default_rng(seed + 17)``."""
    cfg = SshrConfig(
        stack=StackConfig(depth=3, hidden=6, heads=2, ffn=8),
        feature_dim=4,
        vocab=Vocabulary(("pa", "pb", "pc"), ("L0", "L1")),
        lid_extract_layer=1,
        lid_in_targets=True,
        cross_taps=(2,),
        loss_weight=0.5,
        seed=seed,
    )
    model = SshrModel(cfg, dtype=np.float64)
    feats = np.random.default_rng(seed + 17).uniform(-1.0, 1.0, (5, 4))
    return (lambda: model.utterance_loss(feats, [0, 2], "L1")), dict(model.params)


SEGMENTS = (2, 4, 3)  # packed rows of three utterances

CHECKS = {
    "linear": (tz.linear, [(3, 4), (4, 5), (5,)]),
    "add": (tz.add, [(3, 4), (3, 4)]),
    "scale": (lambda a: tz.scale(a, -1.5), [(3, 4)]),
    "exp": (tz.exp, [(3, 4)]),
    "gelu": (tz.gelu, [(3, 4)]),
    "log_softmax_rows": (tz.log_softmax_rows, [(4, 6)]),
    "layer_norm": (tz.layer_norm, [(3, 5), (5,), (5,)]),
    "row_slice": (lambda x: tz.row_slice(x, 1, 3), [(4, 3)]),
    "mean_over_time": (lambda x: tz.mean_over_time(x, (2, 3)), [(5, 3)]),
    "prepend_row": (lambda r, x: tz.prepend_row(r, x, (2, 3)), [(2, 3), (5, 3)]),
    "multi_head_attention": (lambda q, k, v: tz.multi_head_attention(q, k, v, 2, (3, 1, 4)), [(8, 4)] * 3),
    # unconstrained log-probabilities; the repeated label needs a blank between
    "ctc_loss": (lambda lp: ctc_loss(lp, [1, 2, 2]), [(7, 4)]),
    "multi_head_attention_ragged": (lambda q, k, v: tz.multi_head_attention(q, k, v, 2, SEGMENTS), [(9, 6)] * 3),
    "segment_splice": (lambda x: tz.prepend_row(tz.mean_over_time(x, SEGMENTS), x, SEGMENTS), [(9, 4)]),
    "ctc_head+ctc_loss": (lambda h, w, b: ctc_loss(ctc_head(h, w, b), [1, 2]), [(5, 6), (6, 4), (4,)]),
    "self_attention_layer": (_layer_check("self_attention"), None),
    "cross_attention_layer": (_layer_check("cross_attention"), None),
    "micro_model_total_loss": (_micro_model, None),
}


def check_instance(name: str, seed: int):
    """``(build, leaves, proj)`` of table entry ``name`` at ``seed``, every
    draw from the entry's own stream (``check_scalar_graph``'s arguments)."""
    fn, shapes = CHECKS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
    if shapes is None:
        build, leaves = fn(seed, rng)
    else:
        drawn = [_leaf(rng, s) for s in shapes]
        build, leaves = (lambda: fn(*drawn)), dict(enumerate(drawn))
    out_shape = build().values.shape
    return build, leaves, rng.uniform(-1.0, 1.0, out_shape) if out_shape else None


def gradcheck_suite(seed: int = 0) -> dict:
    """Run every finite-difference check; returns a deterministic report.

    The report maps op name to its worst relative error and pass flag and
    carries an overall verdict; failures are entries, never exceptions.
    """
    checks = {name: check_scalar_graph(*check_instance(name, seed)) for name in CHECKS}
    report = {
        "seed": seed,
        "step": FD_STEP,
        "tolerance": REL_TOL,
        "checks": {
            name: {"max_rel_err": err, "passed": bool(err < REL_TOL)} for name, err in checks.items()
        },
    }
    report["worst_rel_err"] = max(checks.values())
    report["all_passed"] = all(entry["passed"] for entry in report["checks"].values())
    return report

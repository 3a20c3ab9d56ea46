"""Finite-difference gradient verification.

Every differentiable operation is checked against 64-bit central
differences with step 1e-3; the suite reports the worst relative error per
operation and is what the ``gradcheck`` CLI subcommand runs.
"""

from __future__ import annotations

import numpy as np

from . import ctc as ctc_mod
from . import tensor as tz
from .encoder import LayerParams, StackConfig, cross_attention_layer, self_attention_layer

FD_STEP = 1e-3
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
        numeric = finite_difference_gradient(lambda: float((build().values * proj).sum()), t.values, step)
        analytic = flow.get(t)
        analytic = np.zeros_like(t.values) if analytic is None else np.asarray(analytic, dtype=np.float64)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


def _rand(rng, *shape):
    return tz.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


def _layer_params_f64(rng, hidden, ffn, posterior_dim=None):
    def mat(rows, cols):
        return tz.Tensor(rng.uniform(-0.5, 0.5, (rows, cols)), requires_grad=True)

    def vec(n, value=0.0):
        base = np.full(n, value, dtype=np.float64) + rng.uniform(-0.05, 0.05, n)
        return tz.Tensor(base, requires_grad=True)

    return LayerParams(
        ln1_gain=vec(hidden, 1.0),
        ln1_bias=vec(hidden),
        wq=None if posterior_dim else mat(hidden, hidden),
        bq=None if posterior_dim else vec(hidden),
        wp1=mat(posterior_dim, hidden) if posterior_dim else None,
        bp1=vec(hidden) if posterior_dim else None,
        wp2=mat(hidden, hidden) if posterior_dim else None,
        bp2=vec(hidden) if posterior_dim else None,
        wk=mat(hidden, hidden),
        bk=vec(hidden),
        wv=mat(hidden, hidden),
        bv=vec(hidden),
        wo=mat(hidden, hidden),
        bo=vec(hidden),
        ln2_gain=vec(hidden, 1.0),
        ln2_bias=vec(hidden),
        w1=mat(hidden, ffn),
        b1=vec(ffn),
        w2=mat(ffn, hidden),
        b2=vec(hidden),
    )


def _check_micro_model(seed: int) -> float:
    """End-to-end check of a two-mechanism micro model: splice at layer 1,
    posterior-query cross-attention after the tap at layer 2, combined loss
    over every parameter."""
    from .ctc import Vocabulary
    from .model import SshrConfig, SshrModel

    rng = np.random.default_rng(seed + 17)
    vocab = Vocabulary(("pa", "pb", "pc"), ("L0", "L1"))
    cfg = SshrConfig(
        stack=StackConfig(depth=3, hidden=6, heads=2, ffn=8),
        feature_dim=4,
        vocab=vocab,
        lid_extract_layer=1,
        lid_in_targets=True,
        cross_taps=(2,),
        loss_weight=0.5,
        seed=seed,
    )
    model = SshrModel(cfg, dtype=np.float64)
    feats = rng.uniform(-1.0, 1.0, (5, 4))
    transcript = [0, 2]

    def build():
        return model.utterance_loss(feats, transcript, "L1")

    return check_scalar_graph(build, dict(model.params))


def gradcheck_suite(seed: int = 0) -> dict:
    """Run every finite-difference check; returns a deterministic report.

    The report maps op name to its worst relative error and pass flag and
    carries an overall verdict; failures are entries, never exceptions.
    """
    rng = np.random.default_rng(seed)
    checks: dict[str, float] = {}
    # Discarded draws (here and after the attention entry) hold every other
    # entry's inputs fixed, so its reported error stays comparable across reports.
    rng.uniform(-1, 1, 26)

    x, wl, bl = _rand(rng, 3, 4), _rand(rng, 4, 5), _rand(rng, 5)
    proj = rng.uniform(-1, 1, (3, 5))
    checks["linear"] = check_scalar_graph(lambda: tz.linear(x, wl, bl), {"x": x, "w": wl, "b": bl}, proj)

    xs = _rand(rng, 4, 6)
    ps = rng.uniform(-1, 1, (4, 6))
    checks["log_softmax_rows"] = check_scalar_graph(lambda: tz.log_softmax_rows(xs), {"x": xs}, ps)

    xn, gn, bn = _rand(rng, 3, 5), _rand(rng, 5), _rand(rng, 5)
    pn = rng.uniform(-1, 1, (3, 5))
    checks["layer_norm"] = check_scalar_graph(
        lambda: tz.layer_norm(xn, gn, bn), {"x": xn, "gain": gn, "bias": bn}, pn
    )

    xg = _rand(rng, 3, 4)
    pg = rng.uniform(-1, 1, (3, 4))
    checks["gelu"] = check_scalar_graph(lambda: tz.gelu(xg), {"x": xg}, pg)

    xe = _rand(rng, 3, 4)
    pe = rng.uniform(-1, 1, (3, 4))
    checks["exp"] = check_scalar_graph(lambda: tz.exp(xe), {"x": xe}, pe)

    xm = _rand(rng, 4, 3)
    pm = rng.uniform(-1, 1, (3,))[None]
    checks["mean_over_time"] = check_scalar_graph(lambda: tz.mean_over_time(xm, (4,)), {"x": xm}, pm)

    rowp, xp = _rand(rng, 1, 4), _rand(rng, 3, 4)
    pp = rng.uniform(-1, 1, (4, 4))
    checks["prepend_row"] = check_scalar_graph(lambda: tz.prepend_row(rowp, xp, (3,)), {"row": rowp, "x": xp}, pp)

    qa, ka, va = _rand(rng, 4, 6), _rand(rng, 4, 6), _rand(rng, 4, 6)
    pa = rng.uniform(-1, 1, (4, 6))
    checks["multi_head_attention"] = check_scalar_graph(
        lambda: tz.multi_head_attention(qa, ka, va, 2, (4,)), {"q": qa, "k": ka, "v": va}, pa
    )
    rng.uniform(-1, 1, 12)

    # packed rows of three utterances: block-diagonal attention over ragged
    # segments, and the per-segment summary-frame splice
    seg = (2, 4, 3)
    qr, kr, vr = _rand(rng, 9, 6), _rand(rng, 9, 6), _rand(rng, 9, 6)
    pq = rng.uniform(-1, 1, (9, 6))
    checks["multi_head_attention_ragged"] = check_scalar_graph(
        lambda: tz.multi_head_attention(qr, kr, vr, 2, seg), {"q": qr, "k": kr, "v": vr}, pq
    )

    xsp = _rand(rng, 9, 4)
    psp = rng.uniform(-1, 1, (12, 4))
    checks["segment_splice"] = check_scalar_graph(
        lambda: tz.prepend_row(tz.mean_over_time(xsp, seg), xsp, seg), {"x": xsp}, psp
    )

    # ctc_loss as a function of unconstrained log-probabilities
    lp = _rand(rng, 5, 4)
    targets = [1, 2]
    checks["ctc_loss"] = check_scalar_graph(lambda: ctc_mod.ctc_loss(lp, targets), {"log_probs": lp})

    # shared head composed with ctc_loss
    hid = _rand(rng, 5, 6)
    wh, bh = _rand(rng, 6, 4), _rand(rng, 4)
    checks["ctc_head+ctc_loss"] = check_scalar_graph(
        lambda: ctc_mod.ctc_loss(ctc_mod.ctc_head(hid, wh, bh), targets),
        {"hidden": hid, "w": wh, "b": bh},
    )

    # full self-attention encoder layer
    hidden, ffn, heads = 6, 8, 2
    xl = _rand(rng, 4, hidden)
    sp = _layer_params_f64(rng, hidden, ffn)
    pl = rng.uniform(-1, 1, (4, hidden))
    leaves = {"x": xl}
    leaves.update(sp.items())
    checks["self_attention_layer"] = check_scalar_graph(
        lambda: self_attention_layer(xl, sp, heads, (4,)), leaves, pl
    )

    # cross-attention layer driven by a posterior matrix; checks the Q path
    vdim = 5
    post = _rand(rng, 4, vdim)
    xc = _rand(rng, 4, hidden)
    cp = _layer_params_f64(rng, hidden, ffn, posterior_dim=vdim)
    pc = rng.uniform(-1, 1, (4, hidden))
    leaves_c = {"posterior": post, "x": xc}
    leaves_c.update(cp.items())
    checks["cross_attention_layer"] = check_scalar_graph(
        lambda: cross_attention_layer(tz.exp(post), xc, cp, heads, (4,)), leaves_c, pc
    )

    checks["micro_model_total_loss"] = _check_micro_model(seed)

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

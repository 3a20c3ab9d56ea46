"""Dense tensors with reverse-mode automatic differentiation.

Values are plain numpy arrays: float32 for training, float64 for
verification paths (operations preserve the dtype of their inputs).

The record is kept apart from the values. A ``Tensor`` holds its
``values``, its ``.grad`` and its record ``Node``; a tensor that needs no
gradient (a constant, or any output under ``no_grad``) has no node. An
op's node holds its parents' nodes, the rule mapping the output's
gradient to the parents' contributions, and the output dtype, but no
values; it points back (weakly) at its tensor only while that tensor
``requires_grad``. The record, the nodes reachable from a root, lives as
long as the root; an op output's array lives only as long as its caller
or a rule holds it. Each rule closes over only what its formula reads:
``linear`` its input and weight, ``layer_norm`` the normalized rows and
inverse deviations, ``exp`` its output, ``log_softmax_rows`` the float64
softmax, attention its operands and weights, ``gelu`` its derivative
(formed in the forward), ``ctc_loss`` its gradient, ``row_slice``,
``prepend_row`` and ``mean_over_time`` shapes and indices, ``add`` and
``scale`` nothing. So residual sums and the ``wo`` and ``w2`` products
are freed as soon as the next op has read them. Gradients accumulate
into ``.grad`` of every tensor with ``requires_grad``; callers zero
grads between steps.

Gradient arrays are shared, not copied, inside a sweep: ``backward``
passes the array a rule returns on as the parent's gradient (``add``
hands one array to both parents). So a backward rule must never write
into the gradient it receives, nor into any forward value it closed over;
every in-place step writes into a buffer the rule allocated itself. An
intermediate gradient is dropped as soon as its node's rule has used it,
so a sweep holds only the gradients still waiting for their rule.

``.grad`` is owned storage: a tensor's first gradient is stored as a copy,
and later ones are added into it in place. A model's parameters hold
``values`` and ``.grad`` as views of two flat vectors the model owns, so
a sweep adds straight into them; updating those vectors in place between
steps (Adam) is safe only because no step's graph outlives the step.
"""

from __future__ import annotations

import itertools
import math
import weakref
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, NonFiniteError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Node:
    """One entry of the computation record: the parents' nodes (None for
    a parent that needs no gradient), the rule mapping this output's
    gradient to theirs (None for a leaf), and the output dtype.

    ``tensor`` is a weak reference to the Tensor whose gradient the sweep
    keeps, set only while that tensor ``requires_grad``; every other node
    holds no value. Weak, so a tensor and its node form no cycle: a
    dropped model's parameters are freed at once, not by the collector.
    """

    __slots__ = ("parents", "rule", "dtype", "tensor")

    def __init__(self, parents, rule, dtype):
        self.parents = parents
        self.rule = rule
        self.dtype = dtype
        self.tensor = None


class Tensor:
    """A numpy array plus an optional gradient slot and its record node.

    An op's values are immutable by convention once created; ``grad`` is
    mutated afterwards, and a parameter's values only by an optimizer step
    between graphs. Every forward op validates that its output is
    finite, so NaN/Inf surfaces at the op that produced it.
    """

    __slots__ = ("values", "grad", "name", "_node", "__weakref__")

    def __init__(self, values, requires_grad=False, name=None):
        v = np.asarray(values)
        if not np.isfinite(v).all():
            raise NonFiniteError(f"non-finite values in tensor {name or '<anonymous>'}")
        self.values = v
        self.grad = None
        self.name = name
        self._node = None
        if requires_grad:
            self.requires_grad = True

    @property
    def requires_grad(self) -> bool:
        return self._node is not None and self._node.tensor is not None

    @requires_grad.setter
    def requires_grad(self, flag: bool):
        """Makes the sweep keep (or stop keeping) this tensor's gradient;
        a tensor without a node becomes a leaf of the record."""
        if flag and self._node is None:
            self._node = Node((), None, self.values.dtype)
        if self._node is not None:
            self._node.tensor = weakref.ref(self) if flag else None

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype}, name={self.name!r})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(parents) -> bool:
    """Whether an op on ``parents`` goes on the record."""
    return _GRAD_ENABLED and any(p._node is not None for p in parents)


def _op(values, parents, backward_fn):
    out = Tensor(values)
    if _records(parents):
        out._node = Node(tuple(p._node for p in parents), backward_fn, out.values.dtype)
    return out


def linearize(root: Tensor) -> list[Node]:
    """The computation record: the nodes reachable from ``root``, inputs
    first. A tensor that needs no gradient has no node and is not on it.

    Deterministic for a fixed graph, so replaying it yields bitwise
    identical gradients.
    """
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [] if root._node is None else [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Tensor, seed=None) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from ``root``; returns this sweep's gradients.

    ``seed`` must match the root's shape (defaults to ones). Gradients are
    *added* into ``.grad`` of every requires_grad tensor, so repeated calls
    accumulate; the returned dict maps each reached requires_grad tensor
    to the gradient of this sweep alone (one its caller has dropped
    gets none). Every other gradient is freed once its node's rule has
    used it, so setting ``requires_grad`` on an intermediate is how a
    caller observes its gradient.
    """
    if seed is None:
        seed = np.ones_like(root.values)
    seed = np.asarray(seed, dtype=root.values.dtype)
    if seed.shape != root.values.shape:
        raise ConfigError(f"seed shape {seed.shape} does not match output shape {root.values.shape}")
    flow: dict[Node, np.ndarray] = {} if root._node is None else {root._node: seed.copy()}
    for node in reversed(linearize(root)):
        g = flow.get(node) if node.tensor is not None else flow.pop(node, None)
        if g is None or node.rule is None:
            continue
        for parent, pg in zip(node.parents, node.rule(g)):
            if pg is None or parent is None:
                continue
            buf = flow.get(parent)
            # cast (a float64 rule output must not leak into float32
            # parents) but never copy; sums are out of place because
            # arrays are shared
            flow[parent] = np.asarray(pg if buf is None else buf + pg, dtype=parent.dtype)
    grads: dict[Tensor, np.ndarray] = {}
    for node, g in flow.items():  # only requires_grad nodes are left
        t = node.tensor()
        if t is None:  # its caller has dropped it
            continue
        if t.grad is None:
            t.grad = g.copy()  # g may be shared with another tensor's flow
        else:
            t.grad += g
        grads[t] = g
    return grads


# ---------------------------------------------------------------------------
# primitive operations


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` with the bias broadcast over rows."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xv, wv, bv = x.values, w.values, b.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ConfigError(f"linear shapes incompatible: {xv.shape} @ {wv.shape}")
    if bv.shape != (wv.shape[1],):
        raise ConfigError(f"linear bias shape {bv.shape} does not match output width {wv.shape[1]}")

    x_needs_grad = x._node is not None  # raw features need no g @ w.T

    def backward_fn(g):
        return (g @ wv.T if x_needs_grad else None), xv.T @ g, g.sum(axis=0)

    out = xv @ wv
    out += bv
    return _op(out, (x, w, b), backward_fn)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.shape != b.values.shape:
        raise ConfigError(f"add shapes differ: {a.values.shape} vs {b.values.shape}")

    def backward_fn(g):
        return g, g

    return _op(a.values + b.values, (a, b), backward_fn)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return _op(a.values * c, (a,), backward_fn)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.values)

    def backward_fn(g):
        return (g * out,)

    return _op(out, (a,), backward_fn)


def gelu(a) -> Tensor:
    """GELU through the tanh approximation:

    ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))``

    On the record it keeps only its derivative, formed in the forward;
    the rule multiplies the incoming gradient by it.
    """
    a = _as_tensor(a)
    xv = a.values
    k = math.sqrt(2.0 / math.pi)
    c = 0.044715
    # the same IEEE operations, in order, as the expression above; each
    # step writes into a buffer of its own
    t = xv * xv  # x*x*x: float32 pow is slow
    t *= xv
    t *= c
    t += xv
    t *= k
    np.tanh(t, out=t)
    half = xv * 0.5
    d = t + 1.0
    if not _records((a,)):
        half *= d
        return _op(half, (a,), None)
    out = half * d
    # 0.5*(1 + t) + 0.5*x*(1 - t*t)*k*(1 + 3c*x*x), into the buffers
    # of d, t and half
    d *= 0.5
    np.multiply(t, t, out=t)
    np.subtract(1.0, t, out=t)
    du = half
    du *= t
    du *= k
    np.multiply(xv, 3.0 * c, out=t)
    t *= xv
    t += 1.0
    du *= t
    du += d

    def backward_fn(g):
        return (du * g,)

    return _op(out, (a,), backward_fn)


def log_softmax_rows(x) -> Tensor:
    """Row-wise log-softmax with max subtraction.

    Internally evaluated in float64 so that every output row logsumexps to
    zero within 1e-6 even when the stored dtype is float32.
    """
    x = _as_tensor(x)
    xv = x.values
    if xv.ndim != 2:
        raise ConfigError(f"log_softmax_rows expects a matrix, got rank {xv.ndim}")
    x64 = xv.astype(np.float64)
    m = x64.max(axis=1, keepdims=True)
    z = x64 - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out64 = z - lse
    soft = np.exp(out64)

    def backward_fn(g):
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return _op(out64.astype(xv.dtype), (x,), backward_fn)


LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, bias) -> Tensor:
    """Per-row normalization to zero mean / unit variance (``LAYER_NORM_EPS``
    added to the variance), then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    xv, gv, bv = x.values, gain.values, bias.values
    if xv.ndim != 2 or xv.shape[1] < 1:
        raise ConfigError(f"layer_norm expects a T x H matrix, got shape {xv.shape}")
    if gv.shape != (xv.shape[1],) or bv.shape != (xv.shape[1],):
        raise ConfigError("layer_norm gain/bias width mismatch")
    n = xv.shape[1]
    # np.add.reduce then /= n is np.mean's own computation
    mu = np.add.reduce(xv, axis=1, keepdims=True)
    mu /= n
    xh = xv - mu  # centred here, normalized below
    out = xh * xh
    var = np.add.reduce(out, axis=1, keepdims=True)
    var /= n
    var += LAYER_NORM_EPS
    inv = 1.0 / np.sqrt(var)
    xh *= inv
    np.multiply(xh, gv, out=out)
    out += bv

    def backward_fn(g):
        # dx = inv * (dxh - mean(dxh) - xh * mean(dxh * xh)), dxh = g * gain
        tmp = g * xh
        dgain = np.add.reduce(tmp, axis=0)
        dbias = g.sum(axis=0)
        dx = g * gv
        np.multiply(dx, xh, out=tmp)
        m2 = np.add.reduce(tmp, axis=1, keepdims=True)
        m2 /= n
        m1 = np.add.reduce(dx, axis=1, keepdims=True)
        m1 /= n
        dx -= m1
        np.multiply(xh, m2, out=tmp)
        dx -= tmp
        dx *= inv
        return dx, dgain, dbias

    return _op(out, (x, gain, bias), backward_fn)


def _segments(lengths, n_rows: int, what: str) -> tuple[int, ...]:
    """Validated per-segment row counts of a packed matrix. Kept as Python
    ints: a numpy call on a few lengths costs microseconds, paid by every
    op of every B=1 decode."""
    seg = tuple(int(n) for n in lengths)
    if not seg or min(seg) < 1 or sum(seg) != n_rows:
        raise ConfigError(f"{what}: segment lengths {list(seg)} do not partition {n_rows} rows")
    return seg


def _starts(seg) -> list[int]:
    return list(itertools.accumulate(seg[:-1], initial=0))


def row_slice(x, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a matrix as a view (no copy); the gradient is
    scattered back into those rows."""
    x = _as_tensor(x)
    shape, dtype = x.values.shape, x.values.dtype

    def backward_fn(g):
        full = np.zeros(shape, dtype=dtype)
        full[start:stop] = g
        return (full,)

    return _op(x.values[start:stop], (x,), backward_fn)


def mean_over_time(x, lengths) -> Tensor:
    """Arithmetic mean of the rows of each segment of a packed (sum T) x H
    matrix; yields a B x H matrix."""
    x = _as_tensor(x)
    xv = x.values
    if xv.ndim != 2 or xv.shape[0] < 1:
        raise ConfigError(f"mean_over_time needs at least one row, got shape {xv.shape}")
    seg = _segments(lengths, xv.shape[0], "mean_over_time")
    counts = np.array(seg, dtype=xv.dtype)[:, None]
    means = np.add.reduceat(xv, _starts(seg), axis=0) / counts

    def backward_fn(g):
        return (np.repeat(g / counts, seg, axis=0),)

    return _op(means, (x,), backward_fn)


def prepend_row(rows, x, lengths) -> Tensor:
    """Insert row b of a B x H matrix in front of segment b of a packed
    (sum T) x H matrix, giving (sum T + B) x H."""
    rows, x = _as_tensor(rows), _as_tensor(x)
    rv, xv = rows.values, x.values
    if rv.ndim != 2 or xv.ndim != 2 or rv.shape[1] != xv.shape[1]:
        raise ConfigError(f"prepend_row width mismatch: {rv.shape} onto {xv.shape}")
    seg = _segments(lengths, xv.shape[0], "prepend_row")
    if rv.shape[0] != len(seg):
        raise ConfigError(f"prepend_row needs one row per segment: {rv.shape[0]} rows, {len(seg)} segments")
    starts = _starts(seg)
    heads = [start + b for b, start in enumerate(starts)]  # output positions of the inserted rows
    body = np.ones(xv.shape[0] + len(seg), dtype=bool)
    body[heads] = False

    def backward_fn(g):
        return g[heads], g[body]

    return _op(np.insert(xv, starts, rv, axis=0), (rows, x), backward_fn)


def multi_head_attention(q, k, v, n_heads: int, lengths) -> Tensor:
    """Scaled dot-product attention over projected q/k/v, all of one
    shape (sum T) x H.

    Heads are split from the feature axis; the output has the same shape.
    The rows are packed utterances of ``lengths`` rows each, and attention
    stays inside each segment (block-diagonal). Each segment is computed
    on its own rows, unpadded, by exactly the operations of a
    single-segment call, so a packed result equals the per-utterance
    results bit for bit. The whole head computation carries
    one hand-derived gradient rule, which keeps the record short.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    qv, kv, vv = q.values, k.values, v.values
    if qv.ndim != 2 or kv.ndim != 2 or vv.ndim != 2:
        raise ConfigError("attention operands must be matrices")
    if qv.shape != kv.shape or vv.shape != kv.shape:
        raise ConfigError(f"attention operands differ in shape: q{qv.shape} k{kv.shape} v{vv.shape}")
    h = qv.shape[1]
    if h % n_heads != 0:
        raise ConfigError(f"width {h} not divisible by {n_heads} heads")
    d = h // n_heads
    seg = _segments(lengths, kv.shape[0], "multi_head_attention")
    spans = [(start, start + n) for start, n in zip(_starts(seg), seg)]
    inv_sqrt_d = 1.0 / math.sqrt(d)

    def heads(a):
        """Rows x H as a (rows, heads, d) view; ``[i:j].transpose(1, 0, 2)``
        of it is one segment's heads x rows x d operand."""
        return a.reshape(-1, n_heads, d)

    qh, kh, vh = heads(qv), heads(kv), heads(vv)
    out = np.empty_like(vv)
    oh = heads(out)
    attns = []
    for i, j in spans:
        sq, sk, sv = (a[i:j].transpose(1, 0, 2) for a in (qh, kh, vh))
        attn = sq @ sk.transpose(0, 2, 1)  # softmax in place over the scores
        attn *= inv_sqrt_d
        attn -= attn.max(axis=2, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=2, keepdims=True)
        attns.append(attn)
        oh[i:j] = (attn @ sv).transpose(1, 0, 2)

    def backward_fn(g):
        dtype = np.result_type(g, vv)
        grads = [np.empty(vv.shape, dtype=dtype) for _ in range(3)]
        gqh, gkh, gvh = (heads(a) for a in grads)
        gh = heads(g)
        n_max = max(seg)
        scratch = np.empty(n_heads * n_max * n_max, dtype=dtype)
        for (i, j), attn in zip(spans, attns):
            sq, sk, sv, gz = (a[i:j].transpose(1, 0, 2) for a in (qh, kh, vh, gh))
            gs = scratch[: attn.size].reshape(attn.shape)
            ga = gz @ sv.transpose(0, 2, 1)
            gvh[i:j] = (attn.transpose(0, 2, 1) @ gz).transpose(1, 0, 2)
            np.multiply(ga, attn, out=gs)
            ga -= gs.sum(axis=2, keepdims=True)
            np.multiply(attn, ga, out=gs)
            gs *= inv_sqrt_d
            gqh[i:j] = (gs @ sk).transpose(1, 0, 2)
            gkh[i:j] = (gs.transpose(0, 2, 1) @ sq).transpose(1, 0, 2)
        return tuple(grads)

    return _op(out, (q, k, v), backward_fn)


def sinusoidal_positions(length: int, width: int, dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos positional table of shape length x width."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(width, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / width)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(dtype)

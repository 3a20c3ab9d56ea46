"""CTC loss, a brute-force verification oracle, greedy decoding, and the
shared linear posterior head.

The loss is the exact sum over all monotonic alignments, computed with a
log-space forward-backward recursion (pairwise logaddexp, no scaling
factors). The brute-force oracle enumerates every raw label sequence and
never touches the DP, so the two paths verify each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .config import Strict
from .errors import ConfigError, CtcInfeasibleError

BLANK_ID = 0


@dataclass(frozen=True)
class Vocabulary(Strict):
    """Token id space: blank is 0, phonemes follow, language-id tokens form
    a contiguous tail block."""

    phonemes: tuple[str, ...]
    languages: tuple[str, ...]

    def __post_init__(self):
        if not self.phonemes:
            raise ConfigError("vocabulary needs at least one phoneme")
        symbols = self.symbols
        if len(set(symbols)) != len(symbols):
            raise ConfigError("vocabulary symbols must be unique")

    @property
    def symbols(self) -> tuple[str, ...]:
        return ("<blank>",) + self.phonemes + tuple(f"<{lang}>" for lang in self.languages)

    @property
    def size(self) -> int:
        return 1 + len(self.phonemes) + len(self.languages)

    @property
    def first_lid_id(self) -> int:
        return 1 + len(self.phonemes)

    def phoneme_token(self, phoneme_index: int) -> int:
        if not 0 <= phoneme_index < len(self.phonemes):
            raise ConfigError(f"phoneme index {phoneme_index} out of range")
        return 1 + phoneme_index

    def lid_token(self, language: str) -> int:
        try:
            return self.first_lid_id + self.languages.index(language)
        except ValueError:
            raise ConfigError(f"unknown language id {language!r}") from None

    def check_languages(self, languages):
        """Reject the first of ``languages`` this vocabulary has no token for."""
        for lang in languages:
            if lang not in self.languages:
                raise ConfigError(f"utterance language {lang!r} is not one of the checkpoint's languages {list(self.languages)}")

    def is_lid(self, token: int) -> bool:
        return self.first_lid_id <= token < self.size

    def strip_lid(self, tokens) -> list[int]:
        return [t for t in tokens if not self.is_lid(t)]


def _validate_targets(targets, n_classes: int):
    targets = [int(t) for t in targets]
    if not targets:
        raise ConfigError("ctc targets must be nonempty")
    for t in targets:
        if t == BLANK_ID:
            raise ConfigError("ctc targets may not contain the blank token")
        if not 0 <= t < n_classes:
            raise ConfigError(f"target token {t} outside vocabulary of size {n_classes}")
    return targets


def min_frames(targets) -> int:
    """Shortest frame sequence that can emit ``targets`` (repeats need a
    separating blank)."""
    repeats = sum(1 for a, b in zip(targets, targets[1:]) if a == b)
    return len(targets) + repeats


def _extended(targets):
    ext = np.full(2 * len(targets) + 1, BLANK_ID, dtype=np.int64)
    ext[1::2] = targets
    return ext


def _forward_backward(log_probs: np.ndarray, targets):
    """Log-space alpha/beta recursions; returns (loss, dloss/dlog_probs).

    Both recursions run in one sweep over time. A row of 2S+4 columns
    holds ``[-inf, -inf, alpha_t, -inf, -inf, gamma_{T-1-t}]``, where
    gamma = beta + emission and its S states are stored in reverse order,
    so that beta's s+1 and s+2 reads become the same left shifts as
    alpha's s-1 and s-2 reads. Each frame is four ufuncs over the whole
    row into preallocated rows: ``pre`` holds the recursion before the
    emission is added (beta itself in the back half) and ``post`` after.
    The emission row has -inf in the middle pads, so they stay -inf. The
    gradient is the state occupancy exp(alpha + beta - log p) folded onto
    labels by a states x labels one-hot product.
    """
    t_len, n_classes = log_probs.shape
    ext = _extended(targets)
    s_len = ext.size
    width = 2 * s_len + 2  # both halves and the two pads between them
    neg_inf = -np.inf
    emit = np.full((t_len, width), neg_inf)  # frame t's emissions, then frame T-1-t's reversed
    emit[:, :s_len] = log_probs[:, ext]
    emit[:, s_len + 2 :] = log_probs[::-1, ext[::-1]]
    can_skip = np.zeros(s_len, dtype=bool)
    can_skip[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    skip_in = np.where(can_skip, 0.0, neg_inf)  # s-2 -> s allowed
    skip = np.full(width, neg_inf)
    skip[:s_len] = skip_in
    skip[s_len + 4 :] = skip_in[:1:-1]  # s -> s+2 allowed, in reversed order
    buf = np.empty(width)

    pre = np.full((t_len, width), neg_inf)
    # alpha starts in the first two states and beta_{T-1} is 0 in the last
    # two; targets are nonempty, so S >= 3
    pre[0, [0, 1, s_len + 2, s_len + 3]] = 0.0
    post = np.full((t_len, width + 2), neg_inf)
    np.add(pre[0], emit[0], out=post[0, 2:])
    for t in range(1, t_len):
        prev, cur = post[t - 1], pre[t]
        np.logaddexp(prev[2:], prev[1:-1], out=cur)
        np.add(prev[:-2], skip, out=buf)
        np.logaddexp(cur, buf, out=cur)
        np.add(cur, emit[t], out=post[t, 2:])

    log_p = np.logaddexp(post[-1, s_len + 1], post[-1, s_len])
    if not np.isfinite(log_p):
        raise CtcInfeasibleError(
            f"no feasible alignment: {t_len} frames for {len(targets)} targets"
        )

    occupancy = post[:, 2 : s_len + 2] + pre[::-1, : s_len + 1 : -1]  # alpha + beta
    occupancy -= log_p
    with np.errstate(under="ignore"):
        np.exp(occupancy, out=occupancy)
    one_hot = np.zeros((s_len, n_classes))
    one_hot[np.arange(s_len), ext] = 1.0
    return -log_p, -(occupancy @ one_hot)


def ctc_loss(log_probs, targets) -> tz.Tensor:
    """Exact CTC negative log-likelihood in nats.

    ``log_probs`` is a T' x V matrix of row-normalized log-probabilities
    (tensor or array). Returns the scalar loss wired into the autodiff
    graph. Raises CtcInfeasibleError when T' is too short to emit the
    targets.
    """
    lp = log_probs if isinstance(log_probs, tz.Tensor) else tz.Tensor(log_probs)
    if lp.values.ndim != 2:
        raise ConfigError(f"ctc_loss expects a T x V matrix, got shape {lp.values.shape}")
    t_len, n_classes = lp.values.shape
    targets = _validate_targets(targets, n_classes)
    if min_frames(targets) > t_len:
        raise CtcInfeasibleError(
            f"{t_len} frames cannot emit {len(targets)} targets "
            f"(needs at least {min_frames(targets)})"
        )
    loss64, grad64 = _forward_backward(lp.values.astype(np.float64), targets)

    def backward_fn(g):
        return (float(g) * grad64,)

    return tz._op(np.asarray(loss64, dtype=lp.values.dtype), (lp,), backward_fn)


def ctc_brute_force(probs: np.ndarray, targets, guard: int = 10_000_000) -> float:
    """Total target probability by enumerating every raw label sequence.

    Collapses adjacent repeats, then deletes blanks, and sums the product
    probabilities of every sequence that matches. Exponential in T', hence
    the instance-size guard.
    """
    probs = np.asarray(probs, dtype=np.float64)
    t_len, n_classes = probs.shape
    if n_classes**t_len > guard:
        raise ConfigError(f"brute-force instance too large: {n_classes}^{t_len} > {guard}")
    targets = _validate_targets(targets, n_classes)
    rows = probs.tolist()
    total = 0.0
    collapsed: list[int] = []

    def recurse(t: int, last: int, p: float):
        nonlocal total
        if t == t_len:
            if collapsed == targets:
                total += p
            return
        row = rows[t]
        for s in range(n_classes):
            pushed = s != last and s != BLANK_ID
            if pushed:
                collapsed.append(s)
            recurse(t + 1, s, p * row[s])
            if pushed:
                collapsed.pop()

    recurse(0, -1, 1.0)
    return total


def collapse_frames(frame_ids, blank: int = BLANK_ID) -> list[int]:
    """Collapse adjacent repeats, then delete blanks."""
    ids = np.asarray(frame_ids)
    keep = ids != blank
    keep[1:] &= ids[1:] != ids[:-1]
    return ids[keep].tolist()


def ctc_greedy_decode(log_probs) -> list[int]:
    """Per-frame argmax, then collapse. Ties break toward the lower id."""
    lp = log_probs.values if isinstance(log_probs, tz.Tensor) else np.asarray(log_probs)
    return collapse_frames(lp.argmax(axis=1))


def ctc_head(hidden, w, b) -> tz.Tensor:
    """Shared linear head + log-softmax, giving a T x V log-prob matrix;
    the same (w, b) tensors are reused at every tap layer and at the final
    layer."""
    return tz.log_softmax_rows(tz.linear(hidden, w, b))

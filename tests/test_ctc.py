import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sshr.ctc
from conftest import rand_log_softmax, tiny_vocab
from sshr import tensor as tz
from sshr.ctc import (
    BLANK_ID,
    Vocabulary,
    _extended,
    ctc_brute_force,
    ctc_greedy_decode,
    ctc_head,
    ctc_loss,
    collapse_frames,
    min_frames,
    solve_ctc,
)
from sshr.errors import ConfigError, CtcInfeasibleError


def reference_forward_backward(log_probs: np.ndarray, targets):
    """The one-item DP that ``solve_ctc`` replaced, kept verbatim as the
    reference it must match bit for bit (float64 input)."""
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


def assert_bitwise_equal(got, expected):
    (loss, grad), (ref_loss, ref_grad) = got, expected
    assert type(loss) is type(ref_loss) and loss.tobytes() == ref_loss.tobytes()
    assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()


# the target shapes a stack mixes: plain, a repeated label, one label, the language token first
TARGET_KINDS = ("plain", "repeated", "one_label", "lid_first")


@st.composite
def ctc_items(draw, dtype):
    """One ``(log_probs, targets)`` item of its own width and length; the
    last token of the item's vocabulary plays the language token."""
    kind = draw(st.sampled_from(TARGET_KINDS))
    n_classes = draw(st.integers(3, 9))
    phonemes = st.integers(1, n_classes - 2)
    if kind == "one_label":
        targets = [draw(phonemes)]
    else:
        targets = draw(st.lists(phonemes, min_size=1, max_size=6))
        if kind == "repeated":
            i = draw(st.integers(0, len(targets) - 1))
            targets.insert(i, targets[i])
        if kind == "lid_first":
            targets = [n_classes - 1] + targets
    t_len = min_frames(targets) + draw(st.one_of(st.just(0), st.integers(0, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 8.0, 50.0]))
    return rand_log_softmax(rng, t_len, n_classes, dtype=dtype, scale=scale), targets


@st.composite
def ragged_stacks(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return draw(st.lists(ctc_items(dtype), min_size=1, max_size=7))


class TestStackedSolve:
    """``solve_ctc`` against the one-item DP it replaced, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(items=ragged_stacks())
    def test_every_item_matches_the_reference_bitwise(self, items):
        solved = solve_ctc(items)
        assert len(solved) == len(items)
        for (lp, targets), got in zip(items, solved):
            assert_bitwise_equal(got, reference_forward_backward(lp.astype(np.float64), targets))

    @settings(max_examples=60, deadline=None)
    @given(items=ragged_stacks())
    def test_an_item_solved_alone_equals_it_solved_in_a_stack(self, items):
        for item, got in zip(items, solve_ctc(items)):
            assert_bitwise_equal(got, solve_ctc([item])[0])
            loss = ctc_loss(*item)  # the op's own solve of a stack of one
            assert loss.values.tobytes() == np.asarray(got[0], dtype=item[0].dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fixed_ragged_stack(self, dtype):
        # T = min_frames with repeats, a one-frame one-label item, a
        # language token first, and items shorter and narrower than the
        # stack's longest and widest ones
        rng = np.random.default_rng(41)
        shapes = [((6, 4), [1, 1, 2, 2]), ((1, 3), [2]), ((30, 9), [8, 1, 2, 3, 3, 7]), ((12, 5), [4, 1, 1]),
                  ((9, 9), [3]), ((30, 6), [5, 2, 1, 2])]
        items = [(rand_log_softmax(rng, t, v, dtype=dtype), targets) for (t, v), targets in shapes]
        assert [min_frames(targets) for _, targets in items][:2] == [6, 1]
        for item, got in zip(items, solve_ctc(items)):
            assert_bitwise_equal(got, reference_forward_backward(item[0].astype(np.float64), item[1]))
            assert_bitwise_equal(got, solve_ctc([item])[0])

    def test_empty_stack(self):
        assert solve_ctc([]) == []

    def test_infeasible_item_raises(self):
        lp = np.full((3, 3), -np.inf)
        lp[:, 0] = 0.0  # only blanks can be emitted
        with pytest.raises(CtcInfeasibleError, match="no feasible alignment: 3 frames for 1 targets"):
            solve_ctc([(rand_log_softmax(np.random.default_rng(0), 4, 3), [1]), (lp, [1])])

    def test_gradient_is_its_own_array(self):
        # a term's rule must hold its T x V gradient, not a view of the scratch
        items = [(rand_log_softmax(np.random.default_rng(i), 5 + i, 4), [1, 2]) for i in range(3)]
        for (lp, _), (_, grad) in zip(items, solve_ctc(items)):
            assert grad.base is None and grad.shape == lp.shape


class TestVocabulary:
    def test_layout(self):
        v = tiny_vocab(n_phonemes=3, n_langs=2)
        assert BLANK_ID == 0 and v.symbols[BLANK_ID] == "<blank>"
        assert v.size == 6
        assert v.phoneme_token(0) == 1
        assert v.first_lid_id == 4
        assert v.lid_token("L1") == 5
        assert [v.is_lid(t) for t in range(6)] == [False] * 4 + [True, True]

    def test_strip_lid(self):
        v = tiny_vocab(3, 2)
        assert v.strip_lid([4, 1, 2, 5, 3]) == [1, 2, 3]

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ConfigError):
            Vocabulary(("a", "a"), ("L0",))

    def test_unknown_language(self):
        with pytest.raises(ConfigError):
            tiny_vocab().lid_token("L9")


class TestCtcLoss:
    def test_single_frame_forced_alignment(self):
        lp = np.log(np.array([[0.2, 0.5, 0.3]]))
        res = ctc_loss(lp, [1])
        assert np.isclose(float(res.values), -np.log(0.5))

    def test_two_frame_hand_enumeration(self):
        p = np.array([[0.2, 0.5, 0.3], [0.1, 0.6, 0.3]])
        res = ctc_loss(np.log(p), [1])
        expected = p[0, 1] * p[1, 1] + p[0, 1] * p[1, 0] + p[0, 0] * p[1, 1]
        assert np.isclose(np.exp(-float(res.values)), expected, atol=1e-12)

    def test_matches_brute_force_random_instance(self):
        rng = np.random.default_rng(7)
        lp = rand_log_softmax(rng, 5, 4)
        targets = [2, 1]
        res = ctc_loss(lp, targets)
        brute = ctc_brute_force(np.exp(lp), targets)
        assert np.isclose(np.exp(-float(res.values)), brute, atol=1e-6)

    # (frames, classes, targets, logit scale): T = min_frames with repeated
    # labels, a single frame, and logits sharp enough to drive most paths
    # to a near-zero probability
    EDGE_CASES = {
        "min_frames_repeats": (6, 3, [1, 1, 2, 2], 1.0),
        "one_frame_one_target": (1, 4, [3], 1.0),
        "logits_x50": (6, 4, [2, 2, 1], 50.0),
    }

    @classmethod
    def oracle_instance(cls, trial):
        """``(log_probs, targets)`` of one oracle case, None when the drawn
        instance stays infeasible after trimming."""
        if trial in cls.EDGE_CASES:
            t, v, targets, scale = cls.EDGE_CASES[trial]
            return rand_log_softmax(np.random.default_rng(0), t, v, scale=scale), targets
        rng = np.random.default_rng(1000 + trial)
        v = int(rng.integers(2, 6))
        t = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        targets = [int(x) for x in rng.integers(1, v, size=n)]
        if min_frames(targets) > t:
            targets = targets[: max(1, t)]
            targets = [tok for i, tok in enumerate(targets) if i == 0 or tok != targets[i - 1]]
        if min_frames(targets) > t:
            return None
        return rand_log_softmax(rng, t, v), targets

    @staticmethod
    def assert_matches_brute_force(loss, lp, targets):
        brute = ctc_brute_force(np.exp(lp), targets)
        assert np.isclose(np.exp(-loss), brute, atol=1e-6)
        assert np.isclose(-loss, np.log(brute), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("trial", [*range(25), *EDGE_CASES])
    def test_oracle_equivalence_random_instances(self, trial):
        instance = self.oracle_instance(trial)
        if instance is None:
            pytest.skip("instance infeasible after trimming")
        lp, targets = instance
        self.assert_matches_brute_force(float(ctc_loss(lp, targets).values), lp, targets)

    def test_oracle_equivalence_in_stacks(self):
        # every oracle case at once, as one stack, then in ragged stacks of
        # three in reverse order: each sits beside longer, shorter, wider
        # and narrower items
        instances = [i for i in map(self.oracle_instance, [*range(25), *self.EDGE_CASES]) if i is not None]
        stacks = [instances] + [instances[::-1][k : k + 3] for k in range(0, len(instances), 3)]
        for stack in stacks:
            for (lp, targets), (loss, _) in zip(stack, solve_ctc(stack)):
                self.assert_matches_brute_force(float(loss), lp, targets)

    def test_gradient_matches_finite_differences(self):
        from sshr.gradcheck import check_scalar_graph

        rng = np.random.default_rng(11)
        lp = tz.Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
        err = check_scalar_graph(lambda: ctc_loss(lp, [1, 2, 2]), {"lp": lp})
        assert err < 1e-4

    def test_infeasible_raises(self):
        lp = rand_log_softmax(np.random.default_rng(0), 2, 3)
        with pytest.raises(CtcInfeasibleError):
            ctc_loss(lp, [1, 2, 1])
        with pytest.raises(CtcInfeasibleError):
            ctc_loss(lp, [1, 1, 2])  # repeat needs a blank between

    def test_target_validation(self):
        lp = rand_log_softmax(np.random.default_rng(0), 4, 3)
        with pytest.raises(ConfigError):
            ctc_loss(lp, [])
        with pytest.raises(ConfigError):
            ctc_loss(lp, [0, 1])
        with pytest.raises(ConfigError):
            ctc_loss(lp, [3])

    @pytest.mark.parametrize("solved", ["none", "given"])
    def test_errors_raise_before_any_dp_work(self, solved, monkeypatch):
        def no_dp(items):
            raise AssertionError("the DP ran before the targets were checked")

        lp = rand_log_softmax(np.random.default_rng(0), 2, 3)
        given = None if solved == "none" else (np.float64(1.0), np.zeros((2, 3)))
        monkeypatch.setattr(sshr.ctc, "solve_ctc", no_dp)
        with pytest.raises(ConfigError, match="target token 3 outside vocabulary of size 3"):
            ctc_loss(lp, [3], given)
        with pytest.raises(CtcInfeasibleError, match=r"2 frames cannot emit 2 targets \(needs at least 3\)"):
            ctc_loss(lp, [1, 1], given)

    def test_solved_item_is_what_the_op_adds(self):
        rng = np.random.default_rng(19)
        items = [(rand_log_softmax(rng, t, 5), [1, 4, 4]) for t in (9, 5, 7)]
        for (lp, targets), solution in zip(items, solve_ctc(items)):
            op = tz.Tensor(lp, requires_grad=True)
            loss = ctc_loss(op, targets, solution)
            alone = tz.Tensor(lp, requires_grad=True)
            reference = ctc_loss(alone, targets)
            assert loss.values.tobytes() == reference.values.tobytes()
            assert tz.backward(loss)[op].tobytes() == tz.backward(reference)[alone].tobytes()

    def test_vocabulary_permutation_covariance(self):
        rng = np.random.default_rng(13)
        lp = rand_log_softmax(rng, 5, 5)
        targets = [1, 3]
        base = float(ctc_loss(lp, targets).values)
        perm = np.array([0, 3, 4, 1, 2])  # blank fixed
        lp_perm = np.empty_like(lp)
        lp_perm[:, perm] = lp
        remapped = [int(perm[t]) for t in targets]
        assert np.isclose(float(ctc_loss(lp_perm, remapped).values), base, atol=1e-12)

    def test_grad_rows_sum_to_minus_one(self):
        rng = np.random.default_rng(17)
        lp = tz.Tensor(rand_log_softmax(rng, 6, 4), requires_grad=True)
        grad = tz.backward(ctc_loss(lp, [1, 2]))[lp]
        assert np.allclose(grad.sum(axis=1), -1.0, atol=1e-9)


class TestCtcLossRealisticSize:
    """Invariants that hold beyond the brute-force oracle's reach (T <= 6):
    utterance-length inputs over the default 41-token vocabulary."""

    @staticmethod
    def instance(seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(30, 81))
        targets = [int(x) for x in rng.integers(1, 41, size=int(rng.integers(5, t // 2)))]
        return rand_log_softmax(rng, t, 41), targets

    @pytest.mark.parametrize("seed", range(4))
    def test_grad_rows_sum_to_minus_one(self, seed):
        lp, targets = self.instance(seed)
        lp = tz.Tensor(lp, requires_grad=True)
        grad = tz.backward(ctc_loss(lp, targets))[lp]
        assert np.abs(grad.sum(axis=1) + 1.0).max() < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_loss_invariant_under_vocabulary_permutation(self, seed):
        lp, targets = self.instance(seed)
        perm = np.concatenate([[0], 1 + np.random.default_rng(100 + seed).permutation(40)])  # blank fixed
        lp_perm = np.empty_like(lp)
        lp_perm[:, perm] = lp
        base = float(ctc_loss(lp, targets).values)
        permuted = float(ctc_loss(lp_perm, [int(perm[t]) for t in targets]).values)
        assert abs(permuted - base) <= 1e-12 * abs(base)


class TestBruteForce:
    def test_uniform_single_frame(self):
        assert np.isclose(ctc_brute_force(np.full((1, 2), 0.5), [1]), 0.5)

    def test_deterministic_path(self):
        probs = np.zeros((3, 3))
        probs[0, 1] = 1.0
        probs[1, 0] = 1.0
        probs[2, 2] = 1.0
        assert np.isclose(ctc_brute_force(probs, [1, 2]), 1.0)

    def test_guard(self):
        with pytest.raises(ConfigError):
            ctc_brute_force(np.full((30, 5), 0.2), [1], guard=10**6)


class TestGreedyDecode:
    def test_collapse_repeat_then_blank(self):
        lp = np.log(np.array([[0.1, 0.8, 0.1], [0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]))
        assert ctc_greedy_decode(lp) == [1, 2]

    def test_all_blanks(self):
        lp = np.log(np.array([[0.9, 0.05, 0.05]] * 4))
        assert ctc_greedy_decode(lp) == []

    def test_blank_separates_repeats(self):
        frames = [1, 0, 1]
        assert collapse_frames(frames) == [1, 1]

    def test_run_collapse_with_unused_blank_keeps_id_zero(self):
        # corpus alignments hold phoneme ids, where 0 is a real phoneme
        frames = np.array([0, 0, 3, 3, 0, 2], dtype=np.uint16)
        assert collapse_frames(frames, blank=-1) == [0, 3, 0, 2]

    def test_tie_breaks_toward_lower_id(self):
        lp = np.zeros((2, 4))
        assert ctc_greedy_decode(lp) == []  # argmax of equal row is blank=0

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_groupby_reference(self, trial):
        # argmax rows (int64, blank 0), corpus alignments (uint16, no
        # blank) and plain lists, empty and length-1 ones included
        rng = np.random.default_rng(300 + trial)
        frames = rng.integers(0, 4, size=(0, 1, 2, 3, 8, 20, 20, 33, 50, 64)[trial])
        runs = [k for k, _ in itertools.groupby(frames.tolist())]
        reference = [k for k in runs if k != 0]
        for collapsed, expected in (
            (collapse_frames(frames), reference),
            (collapse_frames(frames.tolist()), reference),
            (collapse_frames(frames.astype(np.uint16), blank=-1), runs),
            (collapse_frames(frames.astype(np.uint16).tolist(), blank=-1), runs),
        ):
            assert collapsed == expected
            assert all(type(k) is int for k in collapsed)

    def test_decode_never_emits_blank(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            lp = rand_log_softmax(rng, 12, 5)
            assert 0 not in ctc_greedy_decode(lp)


class TestCtcHead:
    def test_zero_hidden_zero_bias_uniform(self):
        hidden = tz.Tensor(np.zeros((3, 4)))
        w = tz.Tensor(np.zeros((4, 5)))
        b = tz.Tensor(np.zeros(5))
        post = ctc_head(hidden, w, b)
        assert np.allclose(post.values, np.log(0.2))

    def test_identical_rows_identical_posteriors(self):
        rng = np.random.default_rng(29)
        hidden = tz.Tensor(np.tile(rng.normal(size=4), (5, 1)))
        w = tz.Tensor(rng.normal(size=(4, 6)))
        b = tz.Tensor(rng.normal(size=6))
        post = ctc_head(hidden, w, b).values
        assert np.allclose(post, post[0])

    def test_width_mismatch(self):
        with pytest.raises(ConfigError):
            ctc_head(tz.Tensor(np.zeros((2, 3))), tz.Tensor(np.zeros((4, 5))), tz.Tensor(np.zeros(5)))

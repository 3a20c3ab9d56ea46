import itertools

import numpy as np
import pytest

from conftest import rand_log_softmax, tiny_vocab
from sshr import tensor as tz
from sshr.ctc import (
    BLANK_ID,
    Vocabulary,
    ctc_brute_force,
    ctc_greedy_decode,
    ctc_head,
    ctc_loss,
    collapse_frames,
    min_frames,
)
from sshr.errors import ConfigError, CtcInfeasibleError


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

    @pytest.mark.parametrize("trial", [*range(25), *EDGE_CASES])
    def test_oracle_equivalence_random_instances(self, trial):
        if trial in self.EDGE_CASES:
            t, v, targets, scale = self.EDGE_CASES[trial]
            lp = rand_log_softmax(np.random.default_rng(0), t, v, scale=scale)
        else:
            rng = np.random.default_rng(1000 + trial)
            v = int(rng.integers(2, 6))
            t = int(rng.integers(1, 7))
            n = int(rng.integers(1, 4))
            targets = [int(x) for x in rng.integers(1, v, size=n)]
            if min_frames(targets) > t:
                targets = targets[: max(1, t)]
                targets = [tok for i, tok in enumerate(targets) if i == 0 or tok != targets[i - 1]]
            if min_frames(targets) > t:
                pytest.skip("instance infeasible after trimming")
            lp = rand_log_softmax(rng, t, v)
        res = ctc_loss(lp, targets)
        brute = ctc_brute_force(np.exp(lp), targets)
        assert np.isclose(np.exp(-float(res.values)), brute, atol=1e-6)
        assert np.isclose(-float(res.values), np.log(brute), rtol=1e-9, atol=1e-9)

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

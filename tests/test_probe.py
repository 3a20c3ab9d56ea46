import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import entropy_of_counts, tiny_model_config
from sshr.errors import ConfigError
from sshr.model import SshrModel
from sshr.probe import (
    LogisticRegressionProbe,
    collect_layer_data,
    kmeans,
    lid_probe,
    mutual_information,
    probe_all_layers,
    stratified_split,
    write_report,
)


class TestMutualInformation:
    def test_independent_factorial_table_is_exactly_zero(self):
        # every (cluster, label) pair appears the same number of times
        a = np.repeat(np.arange(4), 6)
        b = np.tile(np.repeat(np.arange(3), 2), 4)
        assert mutual_information(a, b) == 0.0

    def test_identity_equiprobable_is_log_m(self):
        for m in (2, 3, 5, 8):
            labels = np.repeat(np.arange(m), 7)
            assert abs(mutual_information(labels, labels) - math.log(m)) < 1e-12

    def test_direct_formula_small_table(self):
        # joint counts [[2,1],[1,2]] over N=6
        a = np.array([0, 0, 0, 1, 1, 1])
        b = np.array([0, 0, 1, 0, 1, 1])
        n = 6.0
        expected = sum(
            (c / n) * math.log((c * n) / (r * s))
            for c, r, s in [(2, 3, 3), (1, 3, 3), (1, 3, 3), (2, 3, 3)]
        )
        assert abs(mutual_information(a, b) - expected) < 1e-12

    def test_symmetry_and_relabel_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, 200)
        b = rng.integers(0, 4, 200)
        mi = mutual_information(a, b)
        assert abs(mi - mutual_information(b, a)) < 1e-12
        relabeled = (a * 7 + 3) % 31  # injective on 0..4
        assert abs(mi - mutual_information(relabeled, b)) < 1e-12

    def test_nonnegative_and_bounded_random_tables(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, int(rng.integers(2, 6)), n)
            b = rng.integers(0, int(rng.integers(2, 6)), n)
            mi = mutual_information(a, b)
            ha = entropy_of_counts(np.bincount(a))
            hb = entropy_of_counts(np.bincount(b))
            assert mi >= -1e-12
            assert mi <= min(ha, hb) + 1e-9


class TestKMeans:
    def test_k_equals_n_zero_distortion(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        res = kmeans(x, 6, seed=0)
        assert res.distortions[-1] < 1e-12  # exactly 0 up to the expanded-form rounding
        assert len(set(res.assignments.tolist())) == 6

    def test_k_one_centroid_is_global_mean(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4))
        res = kmeans(x, 1, seed=0)
        assert np.allclose(res.centroids[0], x.mean(axis=0))

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 0.1, (30, 3))
        b = rng.normal(10.0, 0.1, (30, 3))
        x = np.concatenate([a, b])
        res = kmeans(x, 2, seed=0)
        first, second = res.assignments[:30], res.assignments[30:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_distortion_non_increasing(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 5))
        res = kmeans(x, 8, seed=1)
        for earlier, later in zip(res.distortions, res.distortions[1:]):
            assert later <= earlier + 1e-9

    def test_lloyd_steps_equal_the_expanded_distance_expression_bitwise(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(90, 5)).astype(np.float32).astype(np.float64)
        x[60:] = x[:30]  # duplicate rows
        final = kmeans(x, 7, seed=2)
        assert final.n_iter > 1
        for it in range(1, final.n_iter + 1):
            c = kmeans(x, 7, seed=2, max_iter=it - 1).centroids  # the centroids Lloyd step ``it`` reads
            dist = (x * x).sum(axis=1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
            assign = dist.argmin(axis=1)
            step = kmeans(x, 7, seed=2, max_iter=it)
            assert np.array_equal(step.assignments, assign)
            assert step.distortions[-1] == float(np.maximum(dist[np.arange(len(x)), assign], 0.0).sum())
        assert step.distortions == final.distortions

    @pytest.mark.parametrize("n, k, dtype", [
        (3073, 9, np.float32),   # three blocks, the last one row longer
        (4097, 6, np.float64),   # four blocks
        (2500, 1, np.float32),   # k = 1: one block
    ])
    def test_blocked_seeding_and_lloyd_steps_equal_the_full_expressions_bitwise(self, n, k, dtype):
        rng = np.random.default_rng(n + k)
        # 64 columns (the model width), far from the origin: a last-bit change in any x.c
        # reaches the small closest distances and so the distortion
        frames = (rng.normal(size=(n, 64)) + 40.0).astype(dtype)
        frames[n - 700:] = frames[:700]  # duplicate rows
        x = frames.astype(np.float64)
        # k-means++ seeding over all n rows at once
        seed_rng = np.random.default_rng(np.random.SeedSequence([5, 0xB3]))
        c = np.empty((k, x.shape[1]))
        c[0] = x[seed_rng.integers(n)]
        d2 = ((x - c[0]) ** 2).sum(axis=1)
        for j in range(1, k):
            total = d2.sum()
            c[j] = x[seed_rng.integers(n)] if total <= 0 else x[seed_rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, ((x - c[j]) ** 2).sum(axis=1))
        assert np.array_equal(kmeans(frames, k, seed=5, max_iter=0).centroids, c)
        final = kmeans(frames, k, seed=5, max_iter=12)
        assert final.n_iter > 1
        for it in range(1, final.n_iter + 1):
            # the Lloyd step ``it`` over the full n x k distance matrix
            dist = (x * x).sum(axis=1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
            assign = dist.argmin(axis=1)
            for j in range(k):
                members = x[assign == j]
                if len(members):
                    c[j] = members.mean(axis=0)
            step = kmeans(frames, k, seed=5, max_iter=it)
            assert np.array_equal(step.assignments, assign)
            assert np.array_equal(step.centroids, c)
            assert step.distortions[-1] == float(np.maximum(dist[np.arange(n), assign], 0.0).sum())
        assert step.distortions == final.distortions

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_k_below_one_rejected(self):
        for k in (0, -1):
            with pytest.raises(ConfigError):
                kmeans(np.zeros((3, 2)), k, seed=0)

    def test_peak_memory_below_one_float64_copy_of_the_frames(self):
        n, f = 20000, 64
        frames = np.random.default_rng(14).normal(size=(n, f)).astype(np.float32)
        tracemalloc.start()
        try:
            kmeans(frames, 112, seed=0, max_iter=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * f

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 4))
        a = kmeans(x, 5, seed=9)
        b = kmeans(x, 5, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)


class TestLidProbe:
    def test_separable_blobs(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(0, 0.5, (60, 8)), rng.normal(6, 0.5, (60, 8))])
        y = np.array([0] * 60 + [1] * 60)
        assert lid_probe(x, y, split_seed=0) >= 0.99

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(8)
        n, m = 160, 4
        x = rng.normal(size=(n, 10))
        y = rng.integers(0, m, n)
        acc = lid_probe(x, y, split_seed=0)
        n_test = n - int(round(0.7 * n))
        sigma = math.sqrt((1 / m) * (1 - 1 / m) / n_test)
        assert abs(acc - 1 / m) <= 3 * sigma + 1e-9

    def test_identical_points_balanced_labels(self):
        m = 4
        x = np.ones((40 * m, 6))
        y = np.tile(np.arange(m), 40)
        acc = lid_probe(x, y, split_seed=0)
        assert abs(acc - 1 / m) < 0.05

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            LogisticRegressionProbe().fit(np.zeros((10, 3)), np.zeros(10))

    def test_affine_invariance_of_accuracy(self):
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.normal(0, 1.0, (50, 6)), rng.normal(2.5, 1.0, (50, 6))])
        y = np.array([0] * 50 + [1] * 50)
        rot, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        diffs = []
        for seed in (0, 1, 2):
            base = lid_probe(x, y, split_seed=seed)
            mapped = lid_probe(x @ rot * 3.0 + 1.7, y, split_seed=seed)
            diffs.append(abs(base - mapped))
        assert max(diffs) <= 0.02

    def test_stratified_split_balanced(self):
        y = np.array([0] * 10 + [1] * 20 + [2] * 10)
        train, test = stratified_split(y, 0.7, seed=0)
        assert len(set(train) & set(test)) == 0
        assert len(train) + len(test) == 40
        assert np.bincount(y[train]).tolist() == [7, 14, 7]


@pytest.fixture(scope="module")
def probe_setup(tmp_path_factory):
    from sshr.ctc import Vocabulary
    from sshr.datagen import default_corpus_spec, generate_corpus, load_split

    out = tmp_path_factory.mktemp("probe_corpus")
    spec = default_corpus_spec(seed=77, counts={"train": 6, "dev": 3, "test": 6},
                               min_phonemes=4, max_phonemes=6)
    generate_corpus(spec, out)
    vocab = Vocabulary(spec.phoneme_symbols, spec.language_names)
    cfg = tiny_model_config(vocab=vocab, depth=3, hidden=8, heads=2, ffn=16, feature_dim=16,
                            seed=2, lid_extract_layer=1, lid_in_targets=True)
    return SshrModel(cfg), load_split(out, "test")


class TestProbePipeline:

    def test_untrained_model_full_finite_report(self, probe_setup, tmp_path):
        model, utts = probe_setup
        report = probe_all_layers(model, utts, k=6, seed=0)
        assert len(report.rows) == model.depth + 1
        for row in report.rows:
            assert 0.0 <= row["lid_acc"] <= 1.0
            assert np.isfinite(row["mi_nats"]) and row["mi_nats"] >= 0
        json_path, csv_path = write_report(report, tmp_path)
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "layer,lid_acc,mi_nats"
        assert len(lines) == model.depth + 2

    def test_layer_subset_matches_full_report(self, probe_setup):
        model, utts = probe_setup
        full = probe_all_layers(model, utts, k=6, seed=0)
        part = probe_all_layers(model, utts, k=6, seed=0, layers=[2, 0])
        assert part.rows == [full.rows[2], full.rows[0]] and part.metadata == full.metadata

    def test_out_of_range_layer_rejected_before_any_forward(self, probe_setup, monkeypatch):
        model, utts = probe_setup
        monkeypatch.setattr(SshrModel, "stages", lambda *a: pytest.fail("collected layers first"))
        with pytest.raises(ConfigError):
            probe_all_layers(model, utts, k=6, seed=0, layers=[model.depth + 1])

    def test_empty_list_and_unknown_language_rejected_before_any_forward(self, probe_setup, monkeypatch):
        model, utts = probe_setup
        stranger = dataclasses.replace(utts[1], lang="XX")
        monkeypatch.setattr(SshrModel, "stages", lambda *a: pytest.fail("collected layers first"))
        for bad in ([], [utts[0], stranger]):
            with pytest.raises(ConfigError):
                probe_all_layers(model, bad, k=2, seed=0)

    @pytest.mark.parametrize("tapped", [False, True], ids=["splice", "splice_and_taps"])
    @pytest.mark.parametrize("layers", [None, [2, 0], [3, 1, 3]], ids=["all", "subset", "repeated"])
    def test_equals_collection_then_per_depth_probes(self, probe_setup, tapped, layers):
        """The depth-at-a-time probe gives, row for row, the numbers of
        ``collect_layer_data`` followed by each depth's three probes."""
        model, utts = probe_setup
        if tapped:  # taps before and after the splice at layer 3
            model = SshrModel(tiny_model_config(vocab=model.cfg.vocab, depth=5, hidden=8, heads=2, ffn=16,
                                                feature_dim=16, seed=4, lid_extract_layer=3, lid_in_targets=True,
                                                cross_taps=[2, 4], loss_weight=0.5))
        pooled, frames, lang_labels, frame_labels = collect_layer_data(model, utts)
        depths = range(model.depth + 1) if layers is None else layers
        expected = [
            {"layer": d, "lid_acc": lid_probe(pooled[d], lang_labels, split_seed=3),
             "mi_nats": mutual_information(kmeans(frames[d], 6, seed=3 + d).assignments, frame_labels)}
            for d in depths
        ]
        assert probe_all_layers(model, utts, k=6, seed=3, layers=layers).rows == expected

    def test_one_layer_runs_only_the_layers_below_it(self, probe_setup, monkeypatch):
        import sshr.model

        model, utts = probe_setup
        calls = {"self_attention_layer": 0, "ctc_head": 0}
        for name in calls:
            original = getattr(sshr.model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sshr.model, name, counted)
        probe_all_layers(model, utts, k=6, seed=0, layers=[2])
        assert calls == {"self_attention_layer": 2 * len(utts), "ctc_head": 0}

    def test_peak_memory_below_all_depths_frames(self, tmp_path):
        """The probe holds one depth's frames, not every depth's."""
        from sshr.ctc import Vocabulary
        from sshr.datagen import default_corpus_spec, generate_corpus, load_split
        from sshr.evalkit import apply_variant
        from sshr.model import SshrConfig, default_model_config

        spec = default_corpus_spec(seed=5, counts={"train": 1, "dev": 1, "test": 15})
        generate_corpus(spec, tmp_path)
        utts = load_split(tmp_path, "test")
        vocab = Vocabulary(spec.phoneme_symbols, spec.language_names)
        model = SshrModel(SshrConfig.from_dict(apply_variant(default_model_config(vocab, spec.feature_dim), "C4")))
        assert len(utts) >= 60 and model.cfg.cross_taps
        probe_all_layers(model, utts, k=8, seed=0, layers=[0])  # reads the features, caches the position tables
        tracemalloc.start()
        try:
            probe_all_layers(model, utts, k=8, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        all_frames = (model.depth + 1) * sum(utt.n_frames for utt in utts) * model.cfg.stack.hidden * 4
        assert peak < 0.7 * all_frames

    def test_dump_layer_zero_is_projected_input(self, probe_setup):
        model, utts = probe_setup
        pooled, frames, _, _ = collect_layer_data(model, utts[:2])
        first = utts[0]
        import sshr.tensor as tz

        expected = first.features @ model.params["input.w"].values + model.params["input.b"].values + tz.sinusoidal_positions(first.n_frames, model.cfg.stack.hidden)
        assert np.allclose(frames[0][: first.n_frames], expected, atol=1e-5)
        assert np.allclose(pooled[0][0], expected.mean(axis=0), atol=1e-5)

    def test_frame_level_dump_excludes_summary_row(self, probe_setup):
        import sshr.tensor as tz

        model, utts = probe_setup
        d = model.depth  # after the splice
        pooled, frames, _, frame_labels = collect_layer_data(model, utts[:2])
        with tz.no_grad():
            whole = [list(model.stages(utt.features))[d][0].values for utt in utts[:2]]
        for utt, act in zip(utts[:2], whole):
            assert act.shape[0] == utt.n_frames + 1
        assert np.array_equal(frames[d], np.concatenate([act[1:] for act in whole]))
        assert frames[d].shape[0] == frame_labels.shape[0]
        assert np.array_equal(pooled[d], np.stack([act.mean(axis=0) for act in whole]))

    def test_collection_peak_memory_below_one_and_a_half_results(self, probe_setup):
        model, utts = probe_setup
        utts = utts * 8  # enough rows that one forward's temporaries are small beside the result
        collect_layer_data(model, utts[:len(utts) // 8])  # reads and caches every utterance's features
        tracemalloc.start()
        try:
            pooled, frames, lang_labels, frame_labels = collect_layer_data(model, utts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result_bytes = sum(a.nbytes for a in pooled + frames) + lang_labels.nbytes + frame_labels.nbytes
        assert peak < 1.5 * result_bytes

    def test_empty_utterance_list_rejected(self, probe_setup):
        model, _ = probe_setup
        with pytest.raises(ConfigError):
            collect_layer_data(model, [])

    def test_dumps_deterministic(self, probe_setup):
        model, utts = probe_setup
        a = collect_layer_data(model, utts[:2])
        b = collect_layer_data(model, utts[:2])
        for x, y in zip(a, b):
            if isinstance(x, list):
                assert all(np.array_equal(u, w) for u, w in zip(x, y))
            else:
                assert np.array_equal(x, y)

import json

import numpy as np
import pytest

from conftest import oracle_transcribe
from sshr.ctc import collapse_frames
from sshr.datagen import (
    CorpusSpec,
    default_corpus_spec,
    generate_corpus,
    load_corpus_spec,
    load_manifest,
    load_split,
)
from sshr.errors import ConfigError, CorruptDataError


def small_spec(seed=50, sigma=0.3, counts=None):
    return default_corpus_spec(seed=seed, noise_sigma=sigma, counts=counts or {"train": 4, "dev": 2, "test": 2})


class TestGeneration:
    def test_noiseless_single_language_single_phoneme(self, tmp_path):
        spec = default_corpus_spec(
            seed=1, n_languages=1, phonemes_per_language=1, shared_phonemes=1,
            noise_sigma=0.0, counts={"train": 2}, min_phonemes=1, max_phonemes=1,
        )
        generate_corpus(spec, tmp_path)
        utts = load_split(tmp_path, "train")
        lang = spec.languages[0]
        expected = lang.realized_prototypes()[0]
        for utt in utts:
            assert np.allclose(utt.features, expected.astype(np.float32)[None, :], atol=1e-6)

    def test_same_seed_byte_identical(self, tmp_path):
        spec = small_spec()
        a, b = tmp_path / "a", tmp_path / "b"
        generate_corpus(spec, a)
        generate_corpus(spec, b)
        for name in ["corpus.json", "manifest.train.jsonl", "train.feats", "train.align", "test.feats"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_transcripts_stay_in_language_inventory(self, tmp_path):
        spec = small_spec(counts={"train": 10, "dev": 2, "test": 2})
        generate_corpus(spec, tmp_path)
        inventories = {lang.name: set(lang.phoneme_ids) for lang in spec.languages}
        for split in ("train", "dev", "test"):
            for utt in load_split(tmp_path, split):
                assert set(utt.transcript) <= inventories[utt.lang]

    def test_alignment_collapses_to_transcript(self, tmp_path):
        spec = small_spec(counts={"train": 10})
        generate_corpus(spec, tmp_path)
        for utt in load_split(tmp_path, "train"):
            assert collapse_frames(utt.alignment, blank=-1) == list(utt.transcript)
            assert len(utt.alignment) == utt.n_frames
            assert utt.n_frames >= len(utt.transcript)

    def test_split_ids_disjoint(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        ids = {s: {u.id for u in load_split(tmp_path, s)} for s in ("train", "dev", "test")}
        assert not ids["train"] & ids["dev"]
        assert not ids["train"] & ids["test"]
        assert not ids["dev"] & ids["test"]

    def test_manifest_row_count(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        rows = (tmp_path / "manifest.train.jsonl").read_text().strip().splitlines()
        assert len(rows) == 4 * len(spec.languages)
        keys = set(json.loads(rows[0]))
        assert keys == {"id", "lang", "n_frames", "transcript", "feat_file", "offset_bytes"}


class TestLoading:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        utts = load_manifest(tmp_path / "manifest.dev.jsonl")
        assert len(utts) == 2 * len(spec.languages)
        for utt in utts:
            feats = utt.features
            assert feats.shape == (utt.n_frames, spec.feature_dim)
            assert feats.dtype == np.float32

    def test_truncated_features_rejected(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        path = tmp_path / "train.feats"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorruptDataError):
            load_split(tmp_path, "train")

    def test_corrupt_checksum_rejected(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        path = tmp_path / "dev.feats"
        raw = bytearray(path.read_bytes())
        raw[10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptDataError):
            load_split(tmp_path, "dev")

    def test_bad_byte_range_names_utterance(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        manifest = tmp_path / "manifest.test.jsonl"
        good = manifest.read_text()
        for key, value in (("n_frames", 10_000), ("offset_bytes", -64)):
            rows = [json.loads(line) for line in good.splitlines()]
            rows[-1][key] = value
            manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
            with pytest.raises(CorruptDataError) as err:
                load_split(tmp_path, "test")
            assert rows[-1]["id"] in str(err.value)

    @pytest.mark.parametrize("bad_row,message", [
        (lambda row: "{not json", "malformed row"),
        (lambda row: json.dumps({**row, "transcript": row["transcript"] + " zz"}), "unknown phoneme symbol 'zz'"),
        (lambda row: json.dumps({k: v for k, v in row.items() if k != "n_frames"}), "malformed row"),
        (lambda row: json.dumps({**row, "feat_file": 5}), "malformed row"),
        (lambda row: json.dumps({**row, "lang": "XX"}), "unknown language 'XX'"),
        (lambda row: json.dumps({**row, "n_frames": 0, "transcript": ""}), "n_frames 0 is not positive"),
        (lambda row: json.dumps({**row, "n_frames": -3}), "n_frames -3 is not positive"),
        (lambda row: json.dumps({**row, "transcript": ""}), "empty transcript"),
    ], ids=["not_json", "unknown_symbol", "missing_key", "feat_file_not_a_path", "unknown_language",
            "no_frames_no_phonemes", "negative_frames", "empty_transcript"])
    def test_malformed_manifest_row_names_line(self, tmp_path, bad_row, message):
        generate_corpus(small_spec(), tmp_path)
        manifest = tmp_path / "manifest.dev.jsonl"
        lines = manifest.read_text().splitlines()
        lines[2] = bad_row(json.loads(lines[2]))
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptDataError, match=message) as err:
            load_split(tmp_path, "dev")
        assert "manifest.dev.jsonl line 3" in str(err.value)

    def test_alignment_shard_longer_than_manifest_rejected(self, tmp_path):
        generate_corpus(small_spec(), tmp_path)
        path = tmp_path / "test.align"
        path.write_bytes(path.read_bytes() + b"\x01\x00" * 7)  # 7 more frames
        with pytest.raises(CorruptDataError, match="test.align"):
            load_split(tmp_path, "test")

    def test_spec_round_trips_through_json(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        loaded = load_corpus_spec(tmp_path)
        assert loaded.phoneme_symbols == spec.phoneme_symbols
        assert loaded.counts == spec.counts
        for a, b in zip(loaded.languages, spec.languages):
            assert np.array_equal(a.prototypes, b.prototypes)
            assert np.array_equal(a.rotation, b.rotation)


class TestOracle:
    def test_sigma_zero_is_exact(self, tmp_path):
        spec = small_spec(sigma=0.0)
        generate_corpus(spec, tmp_path)
        for utt in load_split(tmp_path, "train"):
            assert tuple(oracle_transcribe(spec, utt.lang, utt.features)) == utt.transcript

    def test_unknown_language(self):
        spec = small_spec()
        with pytest.raises(ConfigError):
            oracle_transcribe(spec, "Lx", np.zeros((2, spec.feature_dim)))


class TestSpecValidation:
    def test_negative_sigma(self):
        with pytest.raises(ConfigError):
            default_corpus_spec(noise_sigma=-0.1)

    def test_unknown_split(self):
        with pytest.raises(ConfigError):
            default_corpus_spec(counts={"validation": 3})

    def test_shared_exceeding_inventory(self):
        with pytest.raises(ConfigError):
            default_corpus_spec(phonemes_per_language=3, shared_phonemes=4)

    def test_unknown_key_in_dict(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        raw = json.loads((tmp_path / "corpus.json").read_text())
        raw["surprise"] = True
        with pytest.raises(ConfigError):
            CorpusSpec.from_dict(raw)

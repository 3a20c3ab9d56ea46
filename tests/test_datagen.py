import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mutated_bytes, oracle_transcribe
from sshr.ctc import collapse_frames
from sshr.datagen import (
    CorpusSpec,
    default_corpus_spec,
    generate_corpus,
    load_corpus_spec,
    load_manifest,
    load_split,
)
from sshr.errors import ConfigError, CorruptDataError, SshrError
from sshr.files import struct_crc


# default_corpus_spec keywords -> sha256 of every file generate_corpus
# writes; the sampler may get faster, but these bytes must not move
PINNED_SPECS = {
    "default-seed11": (dict(seed=11), {
        "corpus.json": "bad5e7da18dda20570cc2e66ff63c32f278b83caf27e062bf5eb06d8053cfc69",
        "dev.align": "fd95c1257e8392a7a40ee3d2e6ed56a4023b49369a5a897f69bedb43f1e8197a",
        "dev.feats": "c6771ed66648275bd67329439dccf9963e244f4fac1246ceecf505a446492c1a",
        "manifest.dev.jsonl": "0896a84c4016cde89de0dffa2a0dda7eb459fc1c9cac9887a316050bb8131fc4",
        "manifest.test.jsonl": "9e0c04cb407d87f37150877537204ca85eecbdd61e21b3d50cbb263e8099504e",
        "manifest.train.jsonl": "0f4bd19d13e6995627e2b133dc285cbd63072a41f7dfe64216cca02f9ed128ce",
        "test.align": "7ee780ecef1babbac2012ba95202366bc8a905ca44d455cad2dc64a667ddb08b",
        "test.feats": "10681f59c0257887bf477956683e18e4deed6aab6c76ccbb972c8c8a5a30e21b",
        "train.align": "a472981033e2e05cfb3bd10d1aef10cf015fafb8471fcd7eadd1cb66a1132d0f",
        "train.feats": "5383b38c9fd89ddfec4fc1a3605ae9fe3968732e511cbe3d532d6debfb2a33e3",
    }),
    "sigma0-seed3": (dict(seed=3, noise_sigma=0.0, counts={"train": 8, "dev": 2, "test": 2}), {
        "corpus.json": "b3c769637ac1109e0cf9db9e6f53a867841969802ae8603dc53547a36877f4a0",
        "dev.align": "5570c265cf6a772ec2d7dc2226396073bcc0c9f12c01fa98c8ad5d67d1d89a2c",
        "dev.feats": "0bd2ef572b4fd6f82454aad30540a277254105a145be6788eb39a3724ae782b4",
        "manifest.dev.jsonl": "8cf23915e9a1d1a885729b09a9e24a674b340f9e501c97aff230de8a9496f735",
        "manifest.test.jsonl": "184c686f273e68dbf32accb73927d837405ac3808c8c5d3ae96a99a830d4b83b",
        "manifest.train.jsonl": "6e7dd2763d93b597ada4b3e3af26700acc6c56b919ad9bce58acd858e34e6a89",
        "test.align": "9a98aa244955c05ab9e09dee393a3c53fa389e0592cda4d3fb73df0d3993d0a7",
        "test.feats": "6ffd0dbf095d326321e56633bdc052d266cfc18d345f06f2333031acbba4d82e",
        "train.align": "97c50e5f34f747fe8e48c71a77af4cd1d33a7b0fe3c0466f9b1f679da097de29",
        "train.feats": "1ca1778f8b93d714de0374e70ec126513d43f26b5d6980ca6c61d6c26ae3b0cf",
    }),
    "two-phonemes-long": (dict(seed=5, n_languages=2, phonemes_per_language=2, shared_phonemes=1, feature_dim=3,
                                   min_phonemes=1, max_phonemes=30, min_frames_per_phoneme=1, max_frames_per_phoneme=9,
                                   counts={"train": 12, "test": 4}), {
        "corpus.json": "185cbc81c5b038dd41ee59551738ad82e49c938c66075c3c003739a04fa157bd",
        "manifest.test.jsonl": "9a5355ce5165da08ec32d6dc78141551363bfa41d2bb1f3c0155440923b08f26",
        "manifest.train.jsonl": "e2f83334e2a3c075fca2ff8116fd7544441f4ff548e9daf2018af258df30ec49",
        "test.align": "3e4f2f5d43a0ccd2dcf1e5dd0c97f7700e20e2d7a42e3a0dc8baabdd2121b76b",
        "test.feats": "bfc6b1e5aad355f2e9206ca7642690ff9bd4d5d585d126078071125a1afd4227",
        "train.align": "0ad5c9f4a524c8483c2d8500cb50291b52e1b2c7fe065efa97a6c2e1a588a366",
        "train.feats": "4768c8ff1bc31fbd2115913e5ef4df0b1f831a6b23a53a9c8fc16d7a68361ddf",
    }),
    "one-language-one-phoneme": (dict(seed=1, n_languages=1, phonemes_per_language=1, shared_phonemes=1,
                                          min_phonemes=1, max_phonemes=1, counts={"train": 3}), {
        "corpus.json": "3cf0ee3bb814aedce70d957622845043fd47285cc39bdeb23be0fcdef8bb003d",
        "manifest.train.jsonl": "10ffa2bb8e62e7b813156872877604adf0aa70b9c35258fd498983ffbc958a39",
        "train.align": "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        "train.feats": "81012d577e74d6a3bdd19149deeb7312669fde3c556e9ae8ef2875f8dfe81e09",
    }),
}


def small_spec(seed=50, sigma=0.3, counts=None):
    return default_corpus_spec(seed=seed, noise_sigma=sigma, counts=counts or {"train": 4, "dev": 2, "test": 2})


class TestGeneration:
    @pytest.mark.parametrize("name", list(PINNED_SPECS))
    def test_corpus_bytes_pinned(self, tmp_path, name):
        kwargs, pinned = PINNED_SPECS[name]
        generate_corpus(default_corpus_spec(**kwargs), tmp_path)
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
        assert written == pinned, (
            f"corpus bytes of {name!r} changed; every sampler change must keep the draw order and the "
            "arithmetic, and a numpy release that changes Generator streams would trip this too"
        )

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
        (lambda row: json.dumps({**row, "feat_file": "train.feats"}), "'train.feats' is not the split's shard 'dev.feats'"),
        (lambda row: json.dumps({**row, "offset_bytes": str(row["offset_bytes"])}), "malformed row"),
        (lambda row: json.dumps({**row, "n_frames": row["n_frames"] + 0.9}), "malformed row"),
        (lambda row: json.dumps({**row, "n_frames": float(row["n_frames"])}), "malformed row"),
        (lambda row: json.dumps({**row, "n_frames": True}), "malformed row"),
    ], ids=["not_json", "unknown_symbol", "missing_key", "feat_file_not_a_path", "unknown_language",
            "no_frames_no_phonemes", "negative_frames", "empty_transcript", "another_splits_shard",
            "string_offset", "fractional_frames", "float_frames", "bool_frames"])
    def test_malformed_manifest_row_names_line(self, tmp_path, bad_row, message):
        generate_corpus(small_spec(), tmp_path)
        manifest = tmp_path / "manifest.dev.jsonl"
        lines = manifest.read_text().splitlines()
        lines[2] = bad_row(json.loads(lines[2]))
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptDataError, match=message) as err:
            load_split(tmp_path, "dev")
        assert "manifest.dev.jsonl line 3" in str(err.value)

    @pytest.mark.parametrize("offset", [
        lambda rows, f_dim: rows[0]["offset_bytes"],
        lambda rows, f_dim: rows[1]["offset_bytes"] + 4 * f_dim,
    ], ids=["overlap", "gap"])
    def test_row_offsets_follow_one_frame_cursor(self, tmp_path, offset):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        manifest = tmp_path / "manifest.dev.jsonl"
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        rows[1]["offset_bytes"] = offset(rows, spec.feature_dim)
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(CorruptDataError, match=f"utterance {rows[1]['id']}: offset_bytes"):
            load_split(tmp_path, "dev")

    def test_feature_shard_longer_than_manifest_rejected(self, tmp_path):
        generate_corpus(small_spec(), tmp_path)
        path = tmp_path / "dev.feats"
        payload = path.read_bytes()[:-4] + bytes(320)  # 5 more frames, under a valid checksum
        path.write_bytes(payload + struct_crc(payload))
        with pytest.raises(CorruptDataError, match="dev.feats"):
            load_split(tmp_path, "dev")

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


LENGTH_BOUNDS = ("min_phonemes", "max_phonemes", "min_frames_per_phoneme", "max_frames_per_phoneme")


def filled(shape) -> list:
    return np.random.default_rng(len(shape)).normal(size=shape).tolist()


@st.composite
def mutated_language(draw, lang: dict, n_symbols: int) -> dict:
    """``lang`` (a corpus.json language object) with its inventory, ids,
    length and duration bounds or array shapes changed."""
    lang = dict(lang)
    if draw(st.booleans()):  # inventory size, duplicate and out-of-range ids
        lang["phoneme_ids"] = draw(st.lists(st.integers(-1, n_symbols), max_size=4))
        rows = len(lang["phoneme_ids"]) if draw(st.booleans()) else draw(st.integers(0, 7))
        lang["prototypes"] = filled((rows, len(lang["bias"])))
    for key in draw(st.sets(st.sampled_from(LENGTH_BOUNDS))):
        lang[key] = draw(st.integers(-1, 9))
    for key in draw(st.sets(st.sampled_from(("prototypes", "rotation", "bias")))):
        lang[key] = filled(tuple(draw(st.lists(st.integers(0, 5), max_size=3))))
    return lang


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_corpus")
    generate_corpus(default_corpus_spec(seed=7, n_languages=2, feature_dim=4, counts={"train": 2}), out)
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_language_fields_raise_only_sshr_errors(fuzz_corpus, data):
    raw = json.loads((fuzz_corpus / "corpus.json").read_text())
    li = data.draw(st.integers(0, len(raw["languages"]) - 1))
    raw["languages"][li] = data.draw(mutated_language(raw["languages"][li], len(raw["phoneme_symbols"])))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(fuzz_corpus, corpus)
        (corpus / "corpus.json").write_text(json.dumps(raw))
        for attempt in (lambda: load_split(corpus, "train"),
                        lambda: generate_corpus(load_corpus_spec(corpus), Path(tmp) / "again")):
            try:
                attempt()
            except SshrError:
                pass


# names of files the fuzz corpus holds: a shard that does not exist is an
# OSError (exit 2), not a corrupt manifest
FUZZ_FEAT_FILES = ("train.feats", "train.align", "corpus.json", 5)


@st.composite
def mutated_rows(draw, rows: list) -> list:
    """Manifest ``rows`` with offsets, frame counts or shard names changed,
    or rows duplicated, dropped or swapped."""
    rows = [dict(row) for row in rows]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(("offset_bytes", "n_frames", "feat_file", "duplicate", "drop", "swap")))
        if kind == "offset_bytes":
            rows[i]["offset_bytes"] = draw(st.one_of(st.just(rows[j]["offset_bytes"]),
                                                     st.integers(-64, rows[-1]["offset_bytes"] + 512)))
        elif kind == "n_frames":
            rows[i]["n_frames"] = rows[i]["n_frames"] + draw(st.integers(-3, 3))
        elif kind == "feat_file":
            rows[i]["feat_file"] = draw(st.sampled_from(FUZZ_FEAT_FILES))
        elif kind == "duplicate":
            rows.insert(j, dict(rows[i]))
        elif kind == "drop" and len(rows) > 1:
            del rows[i]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
    return rows


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_manifest_rows_raise_only_sshr_errors(fuzz_corpus, data):
    rows = [json.loads(line) for line in (fuzz_corpus / "manifest.train.jsonl").read_text().splitlines()]
    rows = data.draw(mutated_rows(rows))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(fuzz_corpus, corpus)
        (corpus / "manifest.train.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        try:
            utts = load_split(corpus, "train")
        except SshrError:
            return
        # an accepted load walks one shard pair: contiguous, disjoint spans
        # from byte 0 that cover both shards
        shard = Path(utts[0].feat_path)
        align = np.frombuffer(shard.with_suffix(".align").read_bytes(), dtype="<u2")
        frames = 0
        for utt in utts:
            assert utt.feat_path == str(shard) and utt.offset_bytes == frames * utt.feature_dim * 4
            assert np.array_equal(utt.alignment, align[frames : frames + utt.n_frames])
            frames += utt.n_frames
        assert frames * utts[0].feature_dim * 4 == shard.stat().st_size - 4 and frames == len(align)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_shard_bytes_raise_only_sshr_errors(fuzz_corpus, data):
    name = data.draw(st.sampled_from(["train.feats", "train.align"]))
    raw = (fuzz_corpus / name).read_bytes()
    mutated = data.draw(mutated_bytes(raw))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(fuzz_corpus, corpus)
        (corpus / name).write_bytes(mutated)
        try:
            utts = load_split(corpus, "train")
        except SshrError:
            return
    # the CRC covers every .feats byte, so only an unchanged feature shard
    # loads; the .align shard has no checksum, so a flip whose frames still
    # collapse to each transcript loads
    assert mutated == raw or (name == "train.align" and len(mutated) == len(raw))
    for utt in utts:
        assert collapse_frames(utt.alignment, blank=-1) == list(utt.transcript)

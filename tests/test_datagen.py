import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mutated_bytes, oracle_transcribe, shifted_boundary
from sshr.ctc import collapse_frames
from sshr.datagen import (
    CorpusSpec,
    default_corpus_spec,
    generate_corpus,
    load_corpus_spec,
    load_split,
)
from sshr.errors import ConfigError, CorruptDataError, SshrError
from sshr.files import struct_crc


# default_corpus_spec keywords -> sha256 of every file generate_corpus
# writes; the sampler may get faster, but these bytes must not move
PINNED_SPECS = {
    "default-seed11": (dict(seed=11), {
        "corpus.json": "bad5e7da18dda20570cc2e66ff63c32f278b83caf27e062bf5eb06d8053cfc69",
        "dev.align": "8709d40c77a2e96e385f21b53547ab69a8240c9ac358f2ce8d0a852c919daac7",
        "dev.feats": "c6771ed66648275bd67329439dccf9963e244f4fac1246ceecf505a446492c1a",
        "manifest.dev.jsonl": "df2b6a410d44f288670a94667a40deed85f6a7d072d90e26c192237fcb74b235",
        "manifest.test.jsonl": "749c3caf44c8be67502e9974bc435fe74f4ad652040625ab89f0aa587579ff74",
        "manifest.train.jsonl": "d51f3c61e1137660c39ad2713ea35d92f61331c089651a2c3ce43eb4fd423d9c",
        "test.align": "ddddd03c779c84202698a8e4aa71c73425cd777e7686ec8cc7c75c7bbbff471f",
        "test.feats": "10681f59c0257887bf477956683e18e4deed6aab6c76ccbb972c8c8a5a30e21b",
        "train.align": "5d0fa97e60edc7789adbde7a0a9d911cf240f7e3524266cd45ee53f741c1a085",
        "train.feats": "5383b38c9fd89ddfec4fc1a3605ae9fe3968732e511cbe3d532d6debfb2a33e3",
    }),
    "sigma0-seed3": (dict(seed=3, noise_sigma=0.0, counts={"train": 8, "dev": 2, "test": 2}), {
        "corpus.json": "b3c769637ac1109e0cf9db9e6f53a867841969802ae8603dc53547a36877f4a0",
        "dev.align": "79355627dafc32cf535618f74f559397abf8a22ce31594b97754e8946e568220",
        "dev.feats": "0bd2ef572b4fd6f82454aad30540a277254105a145be6788eb39a3724ae782b4",
        "manifest.dev.jsonl": "43390cf5e950f567f1ee3c694bd172cd991f31659398b842ebbb7276ffad0cb4",
        "manifest.test.jsonl": "921d92e1e6e191b1b1ae0d1c0736224d84e6fd0d8ecbd4a01e4229987826a021",
        "manifest.train.jsonl": "0b75ba9567c8a7983f207b4e91494aa361304be7adbd3869545b1ba3405105cf",
        "test.align": "d7120f75dd4c8f568caa51897b96edd2c06a313efde5cd83537a7bfb3802ca74",
        "test.feats": "6ffd0dbf095d326321e56633bdc052d266cfc18d345f06f2333031acbba4d82e",
        "train.align": "ed74026e6039cdaddbad1eb6b8e6669dfaa6f81c7fbfb739301b011b078344c1",
        "train.feats": "1ca1778f8b93d714de0374e70ec126513d43f26b5d6980ca6c61d6c26ae3b0cf",
    }),
    "two-phonemes-long": (dict(seed=5, n_languages=2, phonemes_per_language=2, shared_phonemes=1, feature_dim=3,
                                   min_phonemes=1, max_phonemes=30, min_frames_per_phoneme=1, max_frames_per_phoneme=9,
                                   counts={"train": 12, "test": 4}), {
        "corpus.json": "185cbc81c5b038dd41ee59551738ad82e49c938c66075c3c003739a04fa157bd",
        "manifest.test.jsonl": "f8363fc92321e8253473bb0cc9461965baa5623d2093af61d16b70f20ace8b86",
        "manifest.train.jsonl": "204b0782629340a892af74df6ca2039c85a27c4a59f98b9d025d7f9be9d19e69",
        "test.align": "16224a26c97a785eaf5b87b9d175d52706bfb817de7255a77d34f2504df6f0a4",
        "test.feats": "bfc6b1e5aad355f2e9206ca7642690ff9bd4d5d585d126078071125a1afd4227",
        "train.align": "42d739cf1ad2ac8c37685fb126a10927f3e2198f552eb7c5c0d6ebdadc53ca19",
        "train.feats": "4768c8ff1bc31fbd2115913e5ef4df0b1f831a6b23a53a9c8fc16d7a68361ddf",
    }),
    "one-language-one-phoneme": (dict(seed=1, n_languages=1, phonemes_per_language=1, shared_phonemes=1,
                                          min_phonemes=1, max_phonemes=1, counts={"train": 3}), {
        "corpus.json": "3cf0ee3bb814aedce70d957622845043fd47285cc39bdeb23be0fcdef8bb003d",
        "manifest.train.jsonl": "0a84f298155c6f62caea73db90c59a5f8b4024597f0de29d983236e0d642b8e8",
        "train.align": "97dc36d8524ff802a27bcbf5f4fe1c3350ee163056eb98b18b826e8b118be657",
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
        assert keys == {"id", "lang", "n_frames", "transcript"}


class TestLoading:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path)
        utts = load_split(tmp_path, "dev")
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
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        rows[-1]["n_frames"] = 10_000
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(CorruptDataError) as err:
            load_split(tmp_path, "test")
        assert rows[-1]["id"] in str(err.value)

    @pytest.mark.parametrize("bad_row,message", [
        (lambda row: "{not json", "malformed row"),
        (lambda row: json.dumps({**row, "transcript": row["transcript"] + " zz"}), "unknown phoneme symbol 'zz'"),
        (lambda row: json.dumps({k: v for k, v in row.items() if k != "n_frames"}), "malformed row"),
        (lambda row: json.dumps({**row, "lang": "XX"}), "unknown language 'XX'"),
        (lambda row: json.dumps({**row, "n_frames": 0, "transcript": ""}), "n_frames 0 is not positive"),
        (lambda row: json.dumps({**row, "n_frames": -3}), "n_frames -3 is not positive"),
        (lambda row: json.dumps({**row, "transcript": ""}), "empty transcript"),
        (lambda row: json.dumps({**row, "n_frames": row["n_frames"] + 0.9}), "malformed row"),
        (lambda row: json.dumps({**row, "n_frames": float(row["n_frames"])}), "malformed row"),
        (lambda row: json.dumps({**row, "n_frames": True}), "malformed row"),
        (lambda row: json.dumps({**row, "id": 5}), "malformed row .*id 5 must be a JSON string"),
        (lambda row: json.dumps({**row, "id": "L0-dev-0000"}), "id 'L0-dev-0000' is already on line 1"),
        (lambda row: json.dumps({**row, "offset_bytes": 999}), r"unknown key\(s\) offset_bytes"),
    ], ids=["not_json", "unknown_symbol", "missing_key", "unknown_language", "no_frames_no_phonemes",
            "negative_frames", "empty_transcript", "fractional_frames", "float_frames", "bool_frames",
            "integer_id", "repeated_id", "leftover_key"])
    def test_malformed_manifest_row_names_line(self, tmp_path, bad_row, message):
        generate_corpus(small_spec(), tmp_path)
        manifest = tmp_path / "manifest.dev.jsonl"
        lines = manifest.read_text().splitlines()
        lines[2] = bad_row(json.loads(lines[2]))
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptDataError, match=message) as err:
            load_split(tmp_path, "dev")
        assert "manifest.dev.jsonl line 3" in str(err.value)

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
        payload = path.read_bytes()[:-4] + b"\x01\x00" * 7  # 7 more frames, under a valid checksum
        path.write_bytes(payload + struct_crc(payload))
        with pytest.raises(CorruptDataError, match=r"test\.align: \d+ data bytes, but the manifest's utterances cover"):
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


@st.composite
def mutated_rows(draw, rows: list) -> list:
    """Manifest ``rows`` with frame counts changed, or rows duplicated,
    dropped or swapped."""
    rows = [dict(row) for row in rows]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(("n_frames", "duplicate", "drop", "swap")))
        if kind == "n_frames":
            rows[i]["n_frames"] = rows[i]["n_frames"] + draw(st.integers(-3, 3))
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
        # an accepted load walks the split's shards: contiguous, disjoint
        # spans from byte 0 that cover both payloads
        shard = Path(utts[0].feat_path)
        align = np.frombuffer(shard.with_suffix(".align").read_bytes()[:-4], dtype="<u2")
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
    mutations = [mutated_bytes(raw)]
    if name == "train.align":  # a moved boundary that only the checksum sees
        frames = np.frombuffer(raw[:-4], dtype="<u2")
        boundaries = st.integers(0, int((frames[1:] != frames[:-1]).sum()) - 1)
        mutations.append(st.builds(shifted_boundary, st.just(raw), boundaries, st.booleans()))
    mutated = data.draw(st.one_of(mutations))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(fuzz_corpus, corpus)
        (corpus / name).write_bytes(mutated)
        try:
            utts = load_split(corpus, "train")
        except SshrError:
            return
    # the CRC covers every byte of both shards, so only an unchanged shard loads
    assert mutated == raw and utts

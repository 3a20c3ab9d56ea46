"""Deterministic synthetic multilingual corpus.

Each language owns a phoneme inventory (with some phonemes shared across
languages), a prototype vector per phoneme, and a language-specific affine
transform (rotation + bias). An utterance is a phoneme sequence rendered as
``transform(prototype) + N(0, sigma^2)`` per frame, together with the
ground-truth per-frame alignment.

On-disk layout per corpus directory:

* ``corpus.json`` - generator spec, prototypes and transforms included.
* ``manifest.<split>.jsonl`` - one object per utterance with keys
  id/lang/n_frames/transcript.
* ``<split>.feats`` - raw little-endian float32, row-major T x F per
  utterance, in manifest order.
* ``<split>.align`` - parallel little-endian uint16 phoneme ids per frame.

Both shards end in the ``files.struct_crc`` footer over their payload. A
row's place in them is the sum of the frames of the rows above it, so the
manifest names neither shard nor offset.

Generation draws one PRNG stream per utterance,
``SeedSequence([seed, 0xD0, language, split, index])``, so parallel
generation cannot change the output. The corpus bytes are this draw order
on that stream, and a test pins them:

1. the phoneme count;
2. one choice integer per phoneme, among the inventory's rows (after the
   first, among the rows other than the previous one);
3. then, per phoneme, its duration integer followed by its duration x F
   block of ``normal`` noise (no block when sigma is 0).

Scalar ``integers`` calls consume buffered 32-bit halves of PCG64 output
and the normal blocks come between them, so the draws cannot be batched.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .config import Strict
from .ctc import collapse_frames
from .errors import ConfigError, CorruptDataError
from .files import canonical_json, replacing, struct_crc, unsealed, write_json, write_text

SPLITS = ("train", "dev", "test")
MAX_TRANSFORM_CONDITION = 1e6
DEFAULT_COUNTS = {"train": 200, "dev": 40, "test": 40}  # utterances per language
_ROW_KEYS = {"id", "lang", "n_frames", "transcript"}  # a manifest row's keys, all required


@dataclass(frozen=True)
class LanguageSpec(Strict):
    """One language: inventory, prototypes, affine transform, durations."""

    name: str
    phoneme_ids: tuple[int, ...]
    prototypes: np.ndarray  # |inventory| x F, rows follow phoneme_ids
    rotation: np.ndarray  # F x F
    bias: np.ndarray  # F
    min_phonemes: int
    max_phonemes: int
    min_frames_per_phoneme: int
    max_frames_per_phoneme: int

    def __post_init__(self):
        if not self.phoneme_ids:
            raise ConfigError(f"language {self.name!r} has an empty inventory")
        if len(set(self.phoneme_ids)) != len(self.phoneme_ids):
            raise ConfigError(f"language {self.name!r} lists a phoneme id twice: {list(self.phoneme_ids)}")
        if len(self.phoneme_ids) == 1 and self.max_phonemes > 1:
            raise ConfigError(f"language {self.name!r}: one phoneme cannot make utterances longer than one "
                              "phoneme without adjacent repeats (set max_phonemes to 1)")
        n, f = len(self.phoneme_ids), self.prototypes.shape[-1]
        shapes = (self.prototypes.shape, self.rotation.shape, self.bias.shape)
        if f < 1 or shapes != ((n, f), (f, f), (f,)):
            raise ConfigError(f"language {self.name!r}: prototypes, rotation, bias must be {n}xF, FxF, F; got {shapes}")
        if not (1 <= self.min_phonemes <= self.max_phonemes):
            raise ConfigError(f"language {self.name!r}: bad utterance length bounds")
        if not (1 <= self.min_frames_per_phoneme <= self.max_frames_per_phoneme):
            raise ConfigError(f"language {self.name!r}: bad duration bounds")
        cond = np.linalg.cond(self.rotation)
        if not np.isfinite(cond) or cond > MAX_TRANSFORM_CONDITION:
            raise ConfigError(f"language {self.name!r}: transform condition {cond:.3g} too large")

    def __eq__(self, other):
        """Field-wise equality that compares array fields by value."""
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def realized_prototypes(self) -> np.ndarray:
        """Prototypes pushed through this language's affine transform."""
        return self.prototypes @ self.rotation.T + self.bias


@dataclass(frozen=True)
class CorpusSpec(Strict):
    feature_dim: int
    phoneme_symbols: tuple[str, ...]
    languages: tuple[LanguageSpec, ...]
    noise_sigma: float
    counts: dict[str, int]  # split -> utterances per language
    seed: int = 0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ConfigError("noise sigma must be >= 0")
        if not self.counts:
            raise ConfigError("counts must name at least one split")
        for split, count in self.counts.items():
            if split not in SPLITS:
                raise ConfigError(f"unknown split {split!r}")
            if count < 1:
                raise ConfigError(f"split {split!r} needs at least one utterance per language")
        for lang in self.languages:
            if lang.prototypes.shape[1] != self.feature_dim:
                raise ConfigError(f"language {lang.name!r}: F={lang.prototypes.shape[1]} != feature_dim {self.feature_dim}")
            for pid in lang.phoneme_ids:
                if not 0 <= pid < len(self.phoneme_symbols):
                    raise ConfigError(f"language {lang.name!r}: phoneme id {pid} out of range")

    @property
    def language_names(self) -> tuple[str, ...]:
        return tuple(lang.name for lang in self.languages)


def default_corpus_spec(
    seed: int = 0,
    n_languages: int = 4,
    phonemes_per_language: int = 10,
    shared_phonemes: int = 4,
    feature_dim: int = 16,
    noise_sigma: float = 0.3,
    counts: dict[str, int] = DEFAULT_COUNTS,
    min_phonemes: int = 10,
    max_phonemes: int = 16,
    min_frames_per_phoneme: int = 3,
    max_frames_per_phoneme: int = 5,
) -> CorpusSpec:
    """The stock corpus: 4 languages x 10 phonemes with 4 shared, F=16,
    sigma=0.3, 200/40/40 utterances per language."""
    if min(n_languages, phonemes_per_language, feature_dim) < 1 or shared_phonemes < 0:
        raise ConfigError("languages, phonemes per language and feature_dim must be positive")
    if shared_phonemes > phonemes_per_language:
        raise ConfigError("shared phonemes cannot exceed the per-language inventory")
    unique = phonemes_per_language - shared_phonemes
    n_phonemes = shared_phonemes + n_languages * unique
    symbols = tuple(f"p{i:02d}" for i in range(n_phonemes))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    prototypes = rng.normal(0.0, 1.0, (n_phonemes, feature_dim))
    languages = []
    for li in range(n_languages):
        ids = tuple(range(shared_phonemes)) + tuple(
            shared_phonemes + li * unique + u for u in range(unique)
        )
        lang_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1, li]))
        q, r = np.linalg.qr(lang_rng.normal(0.0, 1.0, (feature_dim, feature_dim)))
        q *= np.sign(np.diag(r))  # fix reflection ambiguity for determinism
        bias = lang_rng.normal(0.0, 1.0, feature_dim)
        languages.append(
            LanguageSpec(
                name=f"L{li}",
                phoneme_ids=ids,
                prototypes=prototypes[list(ids)],
                rotation=q,
                bias=bias,
                min_phonemes=min_phonemes,
                max_phonemes=max_phonemes,
                min_frames_per_phoneme=min_frames_per_phoneme,
                max_frames_per_phoneme=max_frames_per_phoneme,
            )
        )
    return CorpusSpec(
        feature_dim=feature_dim,
        phoneme_symbols=symbols,
        languages=tuple(languages),
        noise_sigma=noise_sigma,
        counts=dict(counts),
        seed=seed,
    )


@dataclass
class Utterance:
    """One synthetic sample; features are read from disk on first access."""

    id: str
    lang: str
    n_frames: int
    transcript: tuple[int, ...]  # global phoneme ids
    alignment: np.ndarray  # per-frame phoneme id, length n_frames
    feat_path: str = ""
    offset_bytes: int = 0
    feature_dim: int = 0
    _features: np.ndarray | None = field(default=None, repr=False)

    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            with open(self.feat_path, "rb") as fh:
                fh.seek(self.offset_bytes)
                raw = fh.read(self.n_frames * self.feature_dim * 4)
            if len(raw) != self.n_frames * self.feature_dim * 4:
                raise CorruptDataError(f"utterance {self.id}: feature shard truncated")
            self._features = np.frombuffer(raw, dtype="<f4").reshape(self.n_frames, self.feature_dim).astype(np.float32)
        return self._features


def _sample_utterance(spec: CorpusSpec, lang: LanguageSpec, ids: np.ndarray, realized: np.ndarray, rng):
    """One utterance of ``lang``, whose inventory ``ids`` (uint16) and
    realized prototypes the caller builds once per language."""
    n_ph = int(rng.integers(lang.min_phonemes, lang.max_phonemes + 1))
    rows = [int(rng.integers(len(ids)))]
    for _ in range(n_ph - 1):
        # no adjacent repeats, so collapsing the alignment recovers the
        # transcript: draw among the other rows, in inventory order
        j = int(rng.integers(len(ids) - 1))
        rows.append(j + (j >= rows[-1]))
    durs, noise = [], []
    for _ in rows:
        durs.append(int(rng.integers(lang.min_frames_per_phoneme, lang.max_frames_per_phoneme + 1)))
        if spec.noise_sigma > 0:
            noise.append(rng.normal(0.0, spec.noise_sigma, (durs[-1], realized.shape[1])))
    frame_rows = np.repeat(rows, durs)
    features = realized[frame_rows]
    if noise:
        features += np.concatenate(noise)
    return tuple(ids[rows].tolist()), features.astype("<f4"), ids[frame_rows]


def generate_corpus(spec: CorpusSpec, out_dir) -> dict:
    """Write the corpus to ``out_dir``; byte-identical for identical specs.
    Returns the utterance count per split and the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = [os.path.join(out_dir, "corpus.json")]
    write_json(written[0], spec.to_dict())
    summary = {"out_dir": str(out_dir), "splits": {}, "files": written}
    tables = [(np.asarray(lang.phoneme_ids, dtype="<u2"), lang.realized_prototypes()) for lang in spec.languages]
    for split_idx, split in enumerate(SPLITS):
        count = spec.counts.get(split, 0)
        if count == 0:
            continue
        rows = []
        feat_payload = bytearray()
        align_payload = bytearray()
        for lang_idx, (lang, (ids, realized)) in enumerate(zip(spec.languages, tables)):
            for k in range(count):
                rng = np.random.default_rng(
                    np.random.SeedSequence([spec.seed, 0xD0, lang_idx, split_idx, k])
                )
                transcript, features, alignment = _sample_utterance(spec, lang, ids, realized, rng)
                rows.append(
                    {
                        "id": f"{lang.name}-{split}-{k:04d}",
                        "lang": lang.name,
                        "n_frames": int(features.shape[0]),
                        "transcript": " ".join(spec.phoneme_symbols[p] for p in transcript),
                    }
                )
                feat_payload.extend(features.tobytes())
                align_payload.extend(alignment.tobytes())
        for ext, payload in (("feats", feat_payload), ("align", align_payload)):
            written.append(os.path.join(out_dir, f"{split}.{ext}"))
            with replacing(written[-1], "wb") as fh:
                fh.write(payload)
                fh.write(struct_crc(payload))
        written.append(os.path.join(out_dir, f"manifest.{split}.jsonl"))
        write_text(written[-1], "".join(canonical_json(row) + "\n" for row in rows))
        summary["splits"][split] = len(rows)
    return summary


def load_corpus_spec(corpus_dir) -> CorpusSpec:
    path = os.path.join(corpus_dir, "corpus.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return CorpusSpec.from_dict(json.load(fh), "corpus")
    except ValueError as err:  # not JSON, or a ConfigError naming the bad key
        raise ConfigError(f"{path}: {err}") from None


def load_split(corpus_dir, split: str) -> list[Utterance]:
    """Load one split; features stay on disk until accessed.

    The rows of ``manifest.<split>.jsonl`` walk the split's shards,
    ``<split>.feats`` and ``<split>.align``, in order from byte 0 with one
    frame cursor, and every payload byte of both belongs to exactly one
    row. Verifies both shards' checksums and that each alignment collapses
    to its transcript. Corrupt data names the offending utterance or shard,
    and a row names its line unless it is a manifest object of exactly the
    keys ``id``, ``lang``, ``n_frames`` and ``transcript``, with a string
    ``id`` that no earlier row has, known language and phoneme symbols, a
    positive integer ``n_frames`` and a nonempty transcript.
    """
    spec = load_corpus_spec(corpus_dir)
    symbol_to_id = {s: i for i, s in enumerate(spec.phoneme_symbols)}
    languages = set(spec.language_names)
    f_dim = spec.feature_dim
    manifest_path = os.path.join(corpus_dir, f"manifest.{split}.jsonl")
    feat_path, align_path = (os.path.join(corpus_dir, f"{split}.{ext}") for ext in ("feats", "align"))
    with open(feat_path, "rb") as fh:
        feat_size = len(unsealed(fh.read(), feat_path))  # read for the checksum; features load lazily
    with open(align_path, "rb") as fh:
        align_data = unsealed(fh.read(), align_path)
    utterances: list[Utterance] = []
    id_lines: dict[str, int] = {}  # each id's manifest line
    frames = 0  # frames of the shards the rows so far cover
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{manifest_path} line {line_no}"
            try:
                row = json.loads(line)
                utt_id, lang, n_frames = row["id"], row["lang"], row["n_frames"]
                if type(n_frames) is not int:  # no bool, float or string
                    raise TypeError(f"n_frames {n_frames!r} must be a JSON integer")
                if type(utt_id) is not str:
                    raise TypeError(f"id {utt_id!r} must be a JSON string")
                symbols = row["transcript"].split()
            except (ValueError, KeyError, TypeError, AttributeError) as err:
                raise CorruptDataError(f"{where}: malformed row ({type(err).__name__}: {err})") from None
            unknown = row.keys() - _ROW_KEYS
            if unknown:
                raise CorruptDataError(f"{where}: unknown key(s) {', '.join(sorted(unknown))}")
            if utt_id in id_lines:
                raise CorruptDataError(f"{where}: id {utt_id!r} is already on line {id_lines[utt_id]}")
            id_lines[utt_id] = line_no
            if n_frames < 1:
                raise CorruptDataError(f"{where}: n_frames {n_frames} is not positive")
            if not symbols:
                raise CorruptDataError(f"{where}: empty transcript")
            if lang not in languages:
                raise CorruptDataError(f"{where}: unknown language {lang!r}")
            transcript = tuple([symbol_to_id.get(s, -1) for s in symbols])
            if -1 in transcript:
                raise CorruptDataError(f"{where}: unknown phoneme symbol {symbols[transcript.index(-1)]!r}")
            offset = frames * f_dim * 4  # where the rows above end
            if offset + n_frames * f_dim * 4 > feat_size:
                raise CorruptDataError(f"utterance {utt_id}: byte range outside shard payload")
            align_bytes = align_data[2 * frames : 2 * (frames + n_frames)]
            if len(align_bytes) != n_frames * 2:
                raise CorruptDataError(f"utterance {utt_id}: alignment shard truncated")
            frames += n_frames
            alignment = np.frombuffer(align_bytes, dtype="<u2")
            if collapse_frames(alignment, blank=-1) != list(transcript):
                raise CorruptDataError(f"utterance {utt_id}: alignment does not collapse to transcript")
            utterances.append(
                Utterance(
                    id=utt_id,
                    lang=lang,
                    n_frames=n_frames,
                    transcript=transcript,
                    alignment=alignment,
                    feat_path=feat_path,
                    offset_bytes=offset,
                    feature_dim=f_dim,
                )
            )
    for path, size, covered in ((feat_path, feat_size, frames * f_dim * 4), (align_path, len(align_data), frames * 2)):
        if size != covered:
            raise CorruptDataError(f"{path}: {size} data bytes, but the manifest's utterances cover {covered}")
    return utterances

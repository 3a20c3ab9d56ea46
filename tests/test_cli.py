import ast
import json
import shutil
import struct
import sys
from pathlib import Path

import pytest

import sshr
from conftest import oversized_checkpoint, resealed, shifted_boundary, tiny_model_config
from sshr.cli import main
from sshr.ctc import Vocabulary
from sshr.datagen import load_corpus_spec
from sshr.files import struct_crc
from sshr.model import SshrModel


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    cfg = write_json(out / "corpus_cfg.json", {"counts": {"train": 10, "dev": 4, "test": 4}})
    assert main(["datagen", "--seed", "3", "--out", str(out / "corpus"), "--config", cfg]) == 0
    return out


def small_train_config(corpus_dir):
    return {
        "model": {"stack": {"depth": 3, "hidden": 16, "ffn": 32, "heads": 2}},
        "train": {"steps": 4, "eval_interval": 2, "checkpoint_interval": 4, "batch_size": 4},
        "data": {"corpus_dir": str(corpus_dir)},
    }


def train_config(cli_corpus, tmp_path):
    return write_json(tmp_path / "cfg.json", small_train_config(cli_corpus / "corpus"))


def empty_split_corpus(cli_corpus, tmp_path, split):
    """A copy of the CLI corpus whose ``split`` has no rows and shards that
    hold only the footer over no payload."""
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_corpus / "corpus", corpus)
    (corpus / f"manifest.{split}.jsonl").write_text("")
    for ext in ("feats", "align"):
        (corpus / f"{split}.{ext}").write_bytes(struct_crc(b""))
    return corpus


def scoring_config(cli_corpus, tmp_path, extra_phonemes=()):
    """An eval/probe config that scores the CLI corpus's test split with a
    tiny checkpoint of its vocabulary plus ``extra_phonemes``."""
    spec = load_corpus_spec(cli_corpus / "corpus")
    vocab = Vocabulary(spec.phoneme_symbols + tuple(extra_phonemes), spec.language_names)
    path = tmp_path / "m.sshr"
    SshrModel(tiny_model_config(vocab=vocab, feature_dim=spec.feature_dim)).save(path)
    return write_json(tmp_path / "eval.json", {"checkpoint": str(path), "corpus_dir": str(cli_corpus / "corpus")})


class TestExitCodes:
    def test_train_without_config_exits_1_naming_flag(self, capsys, tmp_path):
        assert main(["train", "--out", str(tmp_path)]) == 1
        assert "--config" in capsys.readouterr().err

    def test_unknown_flag_exits_1_with_usage(self, capsys):
        assert main(["eval", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["train", "--out", str(tmp_path), "--config", str(tmp_path / "nope.json")]) == 1

    def test_one_phoneme_inventory_exits_1_naming_the_language(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"phonemes_per_language": 1, "shared_phonemes": 0})
        assert main(["datagen", "--out", str(tmp_path / "corpus"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "'L0'" in err and "one phoneme" in err and "Traceback" not in err

    def test_unknown_config_key_exits_1(self, cli_corpus, tmp_path, capsys):
        cfg = small_train_config(cli_corpus / "corpus")
        cfg["train"]["momentum"] = 0.9
        path = write_json(tmp_path / "cfg.json", cfg)
        assert main(["train", "--seed", "1", "--out", str(tmp_path / "run"), "--config", path]) == 1
        assert "momentum" in capsys.readouterr().err

    def test_invalid_log_level_exits_1(self, monkeypatch):
        monkeypatch.setenv("SSHR_LOG", "verbose")
        assert main(["gradcheck", "--seed", "1", "--out", "ignored"]) == 1

    def test_missing_checkpoint_is_runtime_failure(self, cli_corpus, tmp_path):
        cfg = write_json(
            tmp_path / "eval.json",
            {"checkpoint": str(tmp_path / "missing.sshr"), "corpus_dir": str(cli_corpus / "corpus"), "split": "test"},
        )
        assert main(["eval", "--seed", "0", "--out", str(tmp_path / "run"), "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["eval", "probe"])
    def test_unknown_split_exits_1(self, command, cli_corpus, tmp_path, capsys):
        path = tmp_path / "m.sshr"
        SshrModel(tiny_model_config()).save(path)
        cfg = write_json(
            tmp_path / "eval.json",
            {"checkpoint": str(path), "corpus_dir": str(cli_corpus / "corpus"), "split": "bogus"},
        )
        assert main([command, "--seed", "0", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config: split" in err and "'bogus'" in err and "Traceback" not in err

    def test_truncated_checkpoint_exits_1(self, cli_corpus, tmp_path, capsys):
        path = tmp_path / "cut.sshr"
        path.write_bytes(SshrModel(tiny_model_config()).save_bytes()[:-3])
        cfg = write_json(
            tmp_path / "eval.json",
            {"checkpoint": str(path), "corpus_dir": str(cli_corpus / "corpus"), "split": "test"},
        )
        assert main(["eval", "--seed", "0", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "truncated" in err and "Traceback" not in err

    def test_checkpoint_too_short_for_its_config_exits_1(self, cli_corpus, tmp_path, capsys):
        spec = load_corpus_spec(cli_corpus / "corpus")
        path = tmp_path / "wide.sshr"
        vocab = Vocabulary(spec.phoneme_symbols, spec.language_names)
        path.write_bytes(oversized_checkpoint(vocab, spec.feature_dim, hidden=2**17, ffn=2**17))
        cfg = write_json(
            tmp_path / "eval.json",
            {"checkpoint": str(path), "corpus_dir": str(cli_corpus / "corpus"), "split": "test"},
        )
        assert main(["eval", "--seed", "0", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sshr eval: checkpoint truncated") and err.count("\n") == 1 and "Traceback" not in err

    def test_corrupt_manifest_exits_1(self, cli_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus / "corpus", corpus)
        manifest = corpus / "manifest.test.jsonl"
        lines = manifest.read_text().splitlines()
        row = json.loads(lines[0])
        lines[0] = json.dumps({**row, "transcript": "zz " + row["transcript"]})
        manifest.write_text("\n".join(lines) + "\n")
        path = tmp_path / "m.sshr"
        SshrModel(tiny_model_config()).save(path)
        cfg = write_json(tmp_path / "eval.json", {"checkpoint": str(path), "corpus_dir": str(corpus), "split": "test"})
        assert main(["eval", "--seed", "0", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "manifest.test.jsonl line 1" in err and "'zz'" in err

    def test_non_finite_checkpoint_exits_1(self, cli_corpus, tmp_path, capsys):
        raw = bytearray(SshrModel(tiny_model_config()).save_bytes())
        raw[-8:-4] = struct.pack("<f", float("nan"))  # the last value of the arena, head.b's
        path = tmp_path / "nan.sshr"
        path.write_bytes(resealed(raw))
        cfg = write_json(
            tmp_path / "eval.json",
            {"checkpoint": str(path), "corpus_dir": str(cli_corpus / "corpus"), "split": "test"},
        )
        assert main(["eval", "--seed", "0", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "'head.b'" in err and "non-finite" in err and "Traceback" not in err

    def test_checkpoint_of_an_earlier_format_exits_1_asking_for_a_retrain(self, cli_corpus, tmp_path, capsys):
        path = tmp_path / "old.sshr"
        path.write_bytes(b"SSHR1" + SshrModel(tiny_model_config()).save_bytes()[5:])
        cfg = write_json(
            tmp_path / "eval.json",
            {"checkpoint": str(path), "corpus_dir": str(cli_corpus / "corpus"), "split": "test"},
        )
        assert main(["eval", "--seed", "0", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "SSHR1" in err and "retrain" in err and "Traceback" not in err

    def test_empty_train_split_exits_1(self, cli_corpus, tmp_path, capsys):
        corpus = empty_split_corpus(cli_corpus, tmp_path, "train")
        path = write_json(tmp_path / "cfg.json", small_train_config(corpus))
        assert main(["train", "--seed", "1", "--out", str(tmp_path / "run"), "--config", path]) == 1
        err = capsys.readouterr().err
        assert str(corpus) in err and "train split" in err and "Traceback" not in err

    def test_empty_dev_split_exits_1_before_any_step(self, cli_corpus, tmp_path, capsys):
        corpus = empty_split_corpus(cli_corpus, tmp_path, "dev")
        path = write_json(tmp_path / "cfg.json", small_train_config(corpus))
        assert main(["train", "--seed", "1", "--out", str(tmp_path / "run"), "--config", path]) == 1
        err = capsys.readouterr().err
        assert str(corpus) in err and "dev split" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    def test_empty_manifest_beside_full_shards_exits_1(self, cli_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus / "corpus", corpus)
        (corpus / "manifest.train.jsonl").write_text("")
        path = write_json(tmp_path / "cfg.json", small_train_config(corpus))
        assert main(["train", "--seed", "1", "--out", str(tmp_path / "run"), "--config", path]) == 1
        err = capsys.readouterr().err
        assert "train.feats: " in err and "data bytes, but the manifest's utterances cover 0" in err

    @pytest.mark.parametrize("alter", [
        lambda raw: raw[:-4],  # a corpus written before the .align footer
        shifted_boundary,
    ], ids=["unsealed", "boundary_shifted_one_frame"])
    def test_altered_alignment_shard_exits_1(self, cli_corpus, tmp_path, capsys, alter):
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus / "corpus", corpus)
        align = corpus / "test.align"
        align.write_bytes(alter(align.read_bytes()))
        spec = load_corpus_spec(corpus)
        path = tmp_path / "m.sshr"
        SshrModel(tiny_model_config(Vocabulary(spec.phoneme_symbols, spec.language_names), spec.feature_dim)).save(path)
        cfg = write_json(tmp_path / "eval.json", {"checkpoint": str(path), "corpus_dir": str(corpus), "split": "test"})
        assert main(["eval", "--seed", "0", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"sshr eval: {align}: checksum mismatch\n"

    @pytest.mark.parametrize("argv,code", [
        (lambda c, t: ["datagen", "--config", str(t / "missing.json")], 1),
        (lambda c, t: ["train", "--config", str(t / "missing.json")], 1),
        (lambda c, t: ["eval", "--config", str(t / "missing.json")], 1),
        (lambda c, t: ["probe", "--config", str(t / "missing.json")], 1),
        (lambda c, t: ["ablate", "--config", str(t / "missing.json")], 1),
        (lambda c, t: ["ablate", "--seeds", "0", "--config", train_config(c, t)], 1),
        (lambda c, t: ["ablate", "--jobs", "0", "--config", train_config(c, t)], 1),
        (lambda c, t: ["probe", "--k", "-1", "--config", str(t / "missing.json")], 1),
        (lambda c, t: ["eval", "--config", scoring_config(c, t, ["p99"])], 1),
        (lambda c, t: ["probe", "--k", "4", "--config", scoring_config(c, t, ["p99"])], 1),
        (lambda c, t: ["eval", "--config", write_json(t / "eval.json", {
            "checkpoint": str(t / "missing.sshr"), "corpus_dir": str(c / "corpus")})], 2),
        (lambda c, t: ["probe", "--k", "4", "--layer", "99", "--config", scoring_config(c, t)], 1),
        (lambda c, t: ["train", "--config", write_json(t / "cfg.json", small_train_config(
            empty_split_corpus(c, t, "dev")))], 1),
        (lambda c, t: ["ablate", "--seeds", "1", "--config", train_config(c, t),
                       "--ladder", write_json(t / "ladder.json", [{"id": "../x", "variant": "B0"}])], 1),
    ], ids=["datagen", "train", "eval", "probe", "ablate", "ablate_seeds_0", "ablate_jobs_0", "probe_k_negative",
            "eval_another_inventory", "probe_another_inventory", "eval_missing_checkpoint", "probe_layer_99",
            "train_empty_dev", "ablate_id_escapes"])
    def test_rejected_invocation_writes_nothing(self, cli_corpus, tmp_path, argv, code):
        assert main(argv(cli_corpus, tmp_path) + ["--out", str(tmp_path / "run")]) == code
        assert not (tmp_path / "run").exists()

    def test_negative_probe_k_exits_1(self, cli_corpus, tmp_path, capsys):
        spec = load_corpus_spec(cli_corpus / "corpus")
        vocab = Vocabulary(spec.phoneme_symbols, spec.language_names)
        path = tmp_path / "m.sshr"
        SshrModel(tiny_model_config(vocab=vocab, feature_dim=spec.feature_dim)).save(path)
        cfg = write_json(tmp_path / "probe.json", {"checkpoint": str(path), "corpus_dir": str(cli_corpus / "corpus")})
        assert main(["probe", "--k", "-3", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        assert "--k" in capsys.readouterr().err

    def test_probe_with_a_checkpoint_lacking_a_corpus_language_exits_1(self, cli_corpus, tmp_path, capsys):
        spec = load_corpus_spec(cli_corpus / "corpus")
        vocab = Vocabulary(spec.phoneme_symbols, spec.language_names[:2])
        path = tmp_path / "m.sshr"
        SshrModel(tiny_model_config(vocab=vocab, feature_dim=spec.feature_dim)).save(path)
        cfg = write_json(tmp_path / "probe.json", {"checkpoint": str(path), "corpus_dir": str(cli_corpus / "corpus")})
        assert main(["probe", "--k", "4", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert any(repr(lang) in err for lang in spec.language_names[2:])
        assert str(list(vocab.languages)) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "probe"])
    def test_checkpoint_of_another_phoneme_inventory_exits_1(self, command, cli_corpus, tmp_path, capsys):
        cfg = scoring_config(cli_corpus, tmp_path, ["p99"])
        assert main([command] + ["--k", "4"] * (command == "probe") + ["--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        n_phonemes = len(load_corpus_spec(cli_corpus / "corpus").phoneme_symbols)
        assert f"phoneme {n_phonemes} is 'p99' in the checkpoint but None in" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.json", "m.sshr"]

    def test_zero_ablate_jobs_exits_1(self, cli_corpus, tmp_path, capsys):
        path = write_json(tmp_path / "cfg.json", small_train_config(cli_corpus / "corpus"))
        ladder = write_json(tmp_path / "ladder.json", ["B0"])
        argv = ["ablate", "--jobs", "0", "--seeds", "1", "--ladder", ladder, "--out", str(tmp_path / "run"), "--config", path]
        assert main(argv) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "run" / "B0").exists()


class TestHelp:
    @pytest.mark.parametrize("command,flags", [
        ("datagen", ["--seed", "--out", "--config"]),
        ("train", ["--seed", "--out", "--config"]),
        ("eval", ["--seed", "--out", "--config"]),
        ("probe", ["--seed", "--out", "--config", "--k", "--layer"]),
        ("ablate", ["--seed", "--out", "--config", "--ladder", "--seeds", "--jobs"]),
        ("gradcheck", ["--seed", "--out"]),
    ])
    def test_help_lists_flags_with_defaults(self, capsys, command, flags):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out
        assert "default" in out


class TestWorkflow:
    def test_gradcheck_writes_report(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--seed", "7", "--out", str(out)]) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["all_passed"] is True
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "gradcheck" and manifest["seed"] == 7
        assert "gradcheck.json" in manifest["outputs"]

    def test_failed_gradcheck_exits_2_keeping_its_report(self, tmp_path, monkeypatch):
        report = {"checks": {"add": {"max_rel_err": 0.5, "passed": False}}, "all_passed": False,
                  "worst_rel_err": 0.5, "tolerance": 1e-4}
        monkeypatch.setattr("sshr.cli.gradcheck_suite", lambda seed: report)
        out = tmp_path / "gc"
        assert main(["gradcheck", "--seed", "7", "--out", str(out)]) == 2
        assert json.loads((out / "gradcheck.json").read_text()) == report
        assert json.loads((out / "run_manifest.json").read_text())["outputs"] == ["gradcheck.json"]

    def test_train_eval_probe_round_trip(self, cli_corpus, tmp_path):
        corpus = cli_corpus / "corpus"
        cfg_path = write_json(tmp_path / "train.json", small_train_config(corpus))
        run = tmp_path / "run"
        assert main(["train", "--seed", "2", "--out", str(run), "--config", cfg_path]) == 0
        assert (run / "final.sshr").exists() and (run / "metrics.jsonl").exists()
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["resolved_config"]["train"]["steps"] == 4

        eval_cfg = write_json(
            tmp_path / "eval.json",
            {"checkpoint": str(run / "final.sshr"), "corpus_dir": str(corpus), "split": "test"},
        )
        eval_out = tmp_path / "eval_run"
        assert main(["eval", "--seed", "2", "--out", str(eval_out), "--config", eval_cfg]) == 0
        payload = json.loads((eval_out / "eval.json").read_text())
        assert set(payload) == {"split", "n_utterances", "per", "per_by_language", "macro_per", "lid_acc"}

        probe_out = tmp_path / "probe_run"
        assert main(["probe", "--seed", "2", "--out", str(probe_out), "--config", eval_cfg, "--k", "6"]) == 0
        lines = (probe_out / "probe_report.csv").read_text().strip().splitlines()
        assert lines[0] == "layer,lid_acc,mi_nats"
        assert len(lines) == 3 + 2  # depth+1 rows plus header
        assert not list(tmp_path.rglob("*.tmp"))  # every output was moved into place

    def test_probe_single_layer_mode(self, cli_corpus, tmp_path):
        corpus = cli_corpus / "corpus"
        cfg_path = write_json(tmp_path / "train.json", small_train_config(corpus))
        run = tmp_path / "run"
        assert main(["train", "--seed", "4", "--out", str(run), "--config", cfg_path]) == 0
        eval_cfg = write_json(
            tmp_path / "eval.json",
            {"checkpoint": str(run / "final.sshr"), "corpus_dir": str(corpus)},
        )
        probe_out = tmp_path / "probe_one"
        assert main(["probe", "--seed", "4", "--out", str(probe_out), "--config", eval_cfg, "--k", "5", "--layer", "2"]) == 0
        lines = (probe_out / "probe_report.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("2,")

    def test_variant_shorthand_in_model_section(self, cli_corpus, tmp_path):
        corpus = cli_corpus / "corpus"
        cfg = small_train_config(corpus)
        cfg["model"] = {"variant": "C1", "stack": {"depth": 4, "hidden": 16, "ffn": 32, "heads": 2}}
        cfg_path = write_json(tmp_path / "train.json", cfg)
        run = tmp_path / "run"
        assert main(["train", "--seed", "1", "--out", str(run), "--config", cfg_path]) == 0
        manifest = json.loads((run / "run_manifest.json").read_text())
        model = manifest["resolved_config"]["model"]
        assert model["lid_in_targets"] is True
        assert model["lid_extract_layer"] == max(1, round(4 * 8 / 24))


def files_under(out):
    """Every file below ``out`` but the run manifest, as sorted relative paths."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file() and p.name != "run_manifest.json")


class TestDeterminism:
    def test_datagen_twice_identical_primary_outputs(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"counts": {"train": 5, "dev": 2, "test": 2}})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["datagen", "--seed", "9", "--out", str(a), "--config", cfg]) == 0
        assert main(["datagen", "--seed", "9", "--out", str(b), "--config", cfg]) == 0
        for name in ["corpus.json", "manifest.train.jsonl", "train.feats", "train.align"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "run_manifest.json").read_text())
        mb = json.loads((b / "run_manifest.json").read_text())
        ma.pop("started_at"), ma.pop("finished_at")
        mb.pop("started_at"), mb.pop("finished_at")
        assert ma == mb

    def test_datagen_outputs_are_the_files_it_wrote(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"counts": {"train": 2, "dev": 1, "test": 1}})
        out = tmp_path / "corpus"
        assert main(["datagen", "--seed", "2", "--out", str(out), "--config", cfg]) == 0
        outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
        assert outputs == sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")

    def test_train_outputs_are_the_files_it_wrote(self, cli_corpus, tmp_path):
        cfg = small_train_config(cli_corpus / "corpus")
        cfg["train"]["checkpoint_interval"] = 2
        out = tmp_path / "run"
        assert main(["train", "--seed", "1", "--out", str(out), "--config", write_json(tmp_path / "t.json", cfg)]) == 0
        outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
        assert outputs == files_under(out) == ["ckpt_000002.sshr", "ckpt_000004.sshr", "final.sshr", "metrics.jsonl"]

    def test_ablate_outputs_are_the_files_it_wrote(self, cli_corpus, tmp_path):
        cfg = write_json(tmp_path / "ab.json", small_train_config(cli_corpus / "corpus"))
        ladder = write_json(tmp_path / "ladder.json", ["B0", "C1"])
        out = tmp_path / "ab_out"
        assert main(["ablate", "--seed", "1", "--seeds", "2", "--jobs", "2", "--out", str(out),
                     "--config", cfg, "--ladder", ladder]) == 0
        outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
        assert outputs == files_under(out)
        assert len(outputs) == 2 * 2 * 4 + 2 and "C1/seed2/ckpt_000004.sshr" in outputs

    def test_train_twice_identical(self, cli_corpus, tmp_path):
        corpus = cli_corpus / "corpus"
        cfg_path = write_json(tmp_path / "train.json", small_train_config(corpus))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--seed", "5", "--out", str(out), "--config", cfg_path]) == 0
        assert (a / "final.sshr").read_bytes() == (b / "final.sshr").read_bytes()
        assert (a / "metrics.jsonl").read_text() == (b / "metrics.jsonl").read_text()


class TestAblateCli:
    def test_custom_ladder_file(self, cli_corpus, tmp_path):
        corpus = cli_corpus / "corpus"
        cfg_path = write_json(tmp_path / "ab.json", small_train_config(corpus))
        ladder = write_json(
            tmp_path / "ladder.json",
            ["B0", {"id": "B0-wide", "model": {"stack": {"hidden": 32, "ffn": 64}}}],
        )
        out = tmp_path / "ab_out"
        assert main(["ablate", "--seed", "1", "--seeds", "1", "--out", str(out),
                     "--config", cfg_path, "--ladder", ladder]) == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("B0,1,") and lines[2].startswith("B0-wide,1,")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variants"]["B0-wide"]["reference"] == []

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # lr 1e30 overflows before the check fires
    def test_failed_run_exits_2_keeping_the_reports(self, cli_corpus, tmp_path, caplog):
        cfg = small_train_config(cli_corpus / "corpus")
        cfg["train"]["lr"] = 1e30
        ladder = write_json(tmp_path / "ladder.json", ["B0"])
        out = tmp_path / "ab_out"
        assert main(["ablate", "--seed", "1", "--seeds", "1", "--out", str(out),
                     "--config", write_json(tmp_path / "ab.json", cfg), "--ladder", ladder]) == 2
        assert "1 runs failed" in caplog.text
        summary = json.loads((out / "summary.json").read_text())
        assert [f["variant"] for f in summary["failures"]] == ["B0"] and "non-finite" in summary["failures"][0]["error"]
        assert summary["variants"] == {}
        assert (out / "ablation.csv").read_text().strip().count("\n") == 0  # the header alone
        assert json.loads((out / "run_manifest.json").read_text())["outputs"] == ["ablation.csv", "summary.json"]

    def test_repeated_ladder_id_exits_1_before_any_run(self, cli_corpus, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "ab.json", small_train_config(cli_corpus / "corpus"))
        ladder = write_json(tmp_path / "ladder.json", [{"id": "X", "variant": "B0"}, {"id": "X", "variant": "C1"}])
        out = tmp_path / "ab_out"
        assert main(["ablate", "--seed", "1", "--seeds", "1", "--out", str(out),
                     "--config", cfg_path, "--ladder", ladder]) == 1
        assert "ladder id 'X'" in capsys.readouterr().err
        assert not (out / "X").exists()

    @pytest.mark.parametrize("ladder_id", ["../escaped", "nested/escaped", "..", "ABSOLUTE"])
    def test_ladder_id_that_is_not_one_path_component_exits_1_writing_nothing_outside_out(
            self, cli_corpus, tmp_path, capsys, ladder_id):
        if ladder_id == "ABSOLUTE":
            ladder_id = str(tmp_path / "escaped")
        cfg_path = write_json(tmp_path / "ab.json", small_train_config(cli_corpus / "corpus"))
        ladder = write_json(tmp_path / "ladder.json", [{"id": ladder_id, "variant": "B0"}])
        out = tmp_path / "ab" / "out"
        assert main(["ablate", "--seed", "1", "--seeds", "1", "--out", str(out),
                     "--config", cfg_path, "--ladder", ladder]) == 1
        assert f"ladder id {ladder_id!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ab.json", "ladder.json"]


def set_at(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestMalformedConfigs:
    @pytest.mark.parametrize("command,path,value,named", [
        ("train", ("model", "lid_in_targets"), "false", "model.lid_in_targets"),
        ("train", ("model", "stack", "depth"), 3.7, "model.stack.depth"),
        ("train", ("model", "cross_taps"), "2", "model.cross_taps"),
        ("train", ("model", "variant"), 4, "model.variant"),
        ("train", ("train", "steps"), "1", "train.steps"),
        ("train", ("train", "lr"), None, "train.lr"),
        ("train", ("model", "stack"), 5, "model.stack"),
        ("train", ("data",), [], "config.data"),
        ("datagen", ("noise_sigma",), "0.3", "corpus.noise_sigma"),
        ("datagen", ("counts", "train"), True, "corpus.counts.train"),
        ("eval", ("checkpoint",), 5, "config.checkpoint"),
        ("ablate", ("ladder", 0, "id"), 3, "ladder[0].id"),
        ("ablate", ("ladder", 0, "model", "stack", "depth"), "6", "ladder.x.model.stack.depth"),
        ("train", ("train", "grad_accum"), 2, "train.grad_accum"),
    ])
    def test_exit_1_naming_the_key(self, cli_corpus, tmp_path, capsys, command, path, value, named):
        corpus = cli_corpus / "corpus"
        docs = {
            "train": small_train_config(corpus),
            "datagen": {"counts": {"train": 2, "dev": 1, "test": 1}},
            "eval": {"checkpoint": "final.sshr", "corpus_dir": str(corpus)},
            "ablate": {"config": small_train_config(corpus), "ladder": [{"id": "x", "variant": "C1", "model": {"stack": {}}}]},
        }
        doc = set_at(docs[command], path, value)
        argv = [command, "--out", str(tmp_path / "run")]
        if command == "ablate":
            argv += ["--config", write_json(tmp_path / "cfg.json", doc["config"]),
                     "--ladder", write_json(tmp_path / "ladder.json", doc["ladder"])]
        else:
            argv += ["--config", write_json(tmp_path / "cfg.json", doc)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("mutate,named", [
        (lambda c: c["languages"][0]["bias"].pop(), "bias"),
        (lambda c: [row.append(0.0) for row in c["languages"][1]["prototypes"]], "prototypes"),
        (lambda c: c["languages"][0].update(rotation=c["languages"][0]["rotation"][0]), "rotation"),
        (lambda c: c.pop("feature_dim"), "corpus.feature_dim"),
        (lambda c: c["languages"][2].update(phoneme_ids=[0, 0] + c["languages"][2]["phoneme_ids"][2:]),
         "'L2' lists a phoneme id twice"),
    ], ids=["short-bias", "wide-prototypes", "flat-rotation", "no-feature_dim", "duplicate-phoneme-id"])
    def test_malformed_corpus_json_exits_1(self, cli_corpus, tmp_path, capsys, mutate, named):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        spec = json.loads((cli_corpus / "corpus" / "corpus.json").read_text())
        mutate(spec)
        write_json(corpus / "corpus.json", spec)
        cfg = write_json(tmp_path / "cfg.json", small_train_config(corpus))
        assert main(["train", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert named in err and "corpus.json" in err


class TestVariantWithExplicitKeys:
    def test_explicit_keys_win_over_the_variant(self, cli_corpus, tmp_path):
        cfg = small_train_config(cli_corpus / "corpus")
        cfg["model"] = {"variant": "C4", "loss_weight": 1, "stack": {"depth": 5, "hidden": 16, "ffn": 32, "heads": 2}}
        run = tmp_path / "run"
        assert main(["train", "--seed", "1", "--out", str(run), "--config", write_json(tmp_path / "t.json", cfg)]) == 0
        model = json.loads((run / "run_manifest.json").read_text())["resolved_config"]["model"]
        assert model["loss_weight"] == 1.0
        # everything else comes from C4 at depth 5
        assert model["cross_taps"] == [3] and model["lid_extract_layer"] == 2
        assert model["stack"]["surgery"] == {"kind": "delete_last", "n": 1}
        assert SshrModel.load(run / "final.sshr").cfg.loss_weight == 1.0

    def test_ladder_variant_follows_the_entry_depth(self, cli_corpus, tmp_path):
        cfg = write_json(tmp_path / "ab.json", small_train_config(cli_corpus / "corpus"))
        ladder = write_json(tmp_path / "ladder.json",
                            [{"id": "C4-d6", "variant": "C4", "model": {"stack": {"depth": 6}}}])
        out = tmp_path / "ab_out"
        assert main(["ablate", "--seed", "1", "--seeds", "1", "--out", str(out),
                     "--config", cfg, "--ladder", ladder]) == 0
        entry = json.loads((out / "run_manifest.json").read_text())["resolved_config"]["ladder"][0]
        assert entry["model"]["stack"]["depth"] == 6
        assert entry["model"]["cross_taps"] == [2, 4] and entry["model"]["lid_extract_layer"] == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [] and "C4-d6" in summary["variants"]

    def test_bad_ladder_entry_stops_before_any_training(self, cli_corpus, tmp_path, capsys):
        cfg = write_json(tmp_path / "ab.json", small_train_config(cli_corpus / "corpus"))
        ladder = write_json(tmp_path / "ladder.json", ["B0", {"id": "late", "model": {"cross_taps": [9]}}])
        out = tmp_path / "ab_out"
        assert main(["ablate", "--seed", "1", "--seeds", "1", "--out", str(out),
                     "--config", cfg, "--ladder", ladder]) == 1
        assert "ladder.late.model" in capsys.readouterr().err
        assert not (out / "B0").exists()


def test_only_the_files_helper_opens_for_writing():
    """Every output goes through ``sshr.files``: no other module calls
    ``open`` with a mode that is not read-only."""
    writers = []
    for path in sorted(Path(sshr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"):
                continue
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes):
                writers.append(path.name)
    assert writers == ["files.py"]


def test_imports_only_numpy_and_the_standard_library():
    """The package depends only on numpy: every import in ``sshr`` names
    numpy, ``sshr`` itself or a standard-library module."""
    foreign = []
    for path in sorted(Path(sshr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = ["sshr" if node.level else node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}: {root}" for root in roots
                        if root not in ("numpy", "sshr") and root not in sys.stdlib_module_names]
    assert foreign == []


def test_every_exported_name_resolves():
    missing = [name for name in sshr.__all__ if not hasattr(sshr, name)]
    assert missing == [] and len(set(sshr.__all__)) == len(sshr.__all__)

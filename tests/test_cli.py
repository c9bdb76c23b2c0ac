import json
import os
import pathlib
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from ctsum import cli, harness, synth
from ctsum.cli import main
from ctsum.harness import HarnessConfig, SystemId, system_config, train_fold_models, validate_report
from ctsum.lu import LUConfig, lu_init, save_model
from ctsum.cts import read_sseq
from ctsum.seqcore import (
    LatentSequence,
    ProjectionMatrix,
    Vocabulary,
    read_lseq,
    read_proj,
    write_lseq,
    write_proj,
    write_vocab,
)
from ctsum.synth import SynthSpec, save_spec
from test_corruption import FORMATS, variants
from test_lu import no_layer_walk, package_env  # noqa: F401  (fixture)

SMALL_SPEC = dict(
    num_intents=3,
    vocab_size=9,
    latent_dim=8,
    templates_per_intent=2,
    utterances_per_intent=6,
    seed=0,
)


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    save_spec(path, SynthSpec(**SMALL_SPEC))
    return str(path)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("corpus") / "c"
    assert main(["synth", "--spec", spec_file, "--out", str(out), "--seed", "42"]) == 0
    return str(out)


@pytest.fixture(scope="module")
def e1_model(tmp_path_factory, corpus_dir):
    path = tmp_path_factory.mktemp("models") / "e1.ctsm"
    rc = main([
        "train-lu", "--corpus", corpus_dir, "--mode", "e1", "--out", str(path),
        "--seed", "1", "--epochs", "2", "--hidden", "8",
    ])
    assert rc == 0
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out.strip().splitlines()[-1])


class TestUsage:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "ctsum" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", [
        "synth", "summarize", "decode", "train-lu", "eval", "bench", "crossval",
    ])
    def test_help_lists_flags(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd, flag", [
        ("train-lu", "--mode"), ("eval", "--system"), ("bench", "--system"),
    ])
    def test_system_flags_take_p1_e1_e2(self, cmd, flag):
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        action = next(a for a in sub.choices[cmd]._actions if flag in a.option_strings)
        assert list(action.choices) == ["p1", "e1", "e2"]

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus", "x", "--out", "y", "--seed", "1"])
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_seed_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "c")])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_console_script_installed(self):
        exe = shutil.which("ctsum")
        if exe:
            res = subprocess.run([exe, "--version"], capture_output=True, text=True)
        else:
            res = subprocess.run(
                [sys.executable, "-m", "ctsum.cli", "--version"],
                capture_output=True, text=True, env=package_env(),
            )
        assert res.returncode == 0
        assert "ctsum" in res.stdout


class TestSynth:
    def test_writes_corpus_layout(self, corpus_dir, capsys):
        names = {p.name for p in pathlib.Path(corpus_dir).iterdir()}
        assert {"manifest.jsonl", "projection.proj", "vocab.json", "spec.json"} <= names
        assert sum(n.endswith(".lseq") for n in names) == 18

    def test_seed_overrides_spec_file(self, corpus_dir):
        spec = json.loads((pathlib.Path(corpus_dir) / "spec.json").read_text())
        assert spec["seed"] == 42

    def test_negative_seed_exits_2_naming_seed(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "ctsum: error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_reports_counts(self, tmp_path, spec_file, capsys):
        out = run_json(capsys, ["synth", "--spec", spec_file, "--out",
                                str(tmp_path / "c2"), "--seed", "42"])
        assert out["utterances"] == 18
        assert out["intents"] == 3


class TestSummarizeDecode:
    def test_summarize_then_decode_preserves_labels(self, corpus_dir, tmp_path, capsys):
        root = pathlib.Path(corpus_dir)
        lseq = str(root / "u00000.lseq")
        proj = str(root / "projection.proj")
        vocab = str(root / "vocab.json")
        sseq = str(tmp_path / "u0.sseq")

        info = run_json(capsys, ["summarize", "--in", lseq, "--proj", proj, "--out", sseq])
        assert 0 < info["segments"] <= info["source_frames"]

        direct = run_json(capsys, ["decode", "--in", lseq, "--proj", proj, "--vocab", vocab])
        compact = run_json(capsys, ["decode", "--in", sseq, "--proj", proj, "--vocab", vocab])
        assert set(direct) == {"id", "ids", "labels", "logp"}
        assert direct["ids"] == compact["ids"]
        assert direct["labels"] == compact["labels"]
        assert direct["labels"] == [f"w{i}" for i in direct["ids"]]

    def test_summarize_is_idempotent_on_disk(self, corpus_dir, tmp_path, capsys):
        root = pathlib.Path(corpus_dir)
        args = ["summarize", "--in", str(root / "u00001.lseq"),
                "--proj", str(root / "projection.proj")]
        a, b = tmp_path / "a.sseq", tmp_path / "b.sseq"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.fixture
    def blank_two(self, tmp_path):
        """Frames that argmax to 0, 0, 2, 1, 1 under a 3-label identity x 10
        projection, and a vocab whose blank is label 2."""
        lseq, proj, vocab = tmp_path / "x.lseq", tmp_path / "p.proj", tmp_path / "v.json"
        write_lseq(lseq, LatentSequence(np.eye(3)[[0, 0, 2, 1, 1]]))
        write_proj(proj, ProjectionMatrix(10.0 * np.eye(3)))
        write_vocab(vocab, Vocabulary(["a", "b", "_"], blank_index=2))
        args = ["summarize", "--in", str(lseq), "--proj", str(proj), "--drop-blank-segments"]
        return args, str(vocab)

    @pytest.mark.parametrize("with_vocab, labels", [(True, [0, 1]), (False, [2, 1])])
    def test_drop_blank_segments_drops_the_vocab_blank(self, blank_two, tmp_path, capsys,
                                                       with_vocab, labels):
        # without --vocab the blank is label 0, as in decode
        args, vocab = blank_two
        out = tmp_path / "s.sseq"
        run_json(capsys, args + ["--out", str(out)] + (["--vocab", vocab] if with_vocab else []))
        assert read_sseq(out).labels.tolist() == labels

    def test_empty_summary_refusal_names_the_out_file(self, tmp_path, capsys):
        # every frame argmaxes to the blank, so dropping blank segments leaves none
        lseq, proj, out = tmp_path / "x.lseq", tmp_path / "p.proj", tmp_path / "s.sseq"
        write_lseq(lseq, LatentSequence(np.ones((3, 2))))
        write_proj(proj, ProjectionMatrix(np.array([[1.0, 1.0], [0.0, 0.0]])))
        assert main(["summarize", "--in", str(lseq), "--proj", str(proj), "--out", str(out),
                     "--drop-blank-segments"]) == 2
        assert f"{out}: refusing to write an empty summary" in capsys.readouterr().err
        assert not out.exists()

    def test_summarize_vocab_of_wrong_size_exits_2(self, blank_two, tmp_path, capsys):
        args, _ = blank_two
        small = tmp_path / "small.json"
        write_vocab(small, Vocabulary(["_", "a"]))
        assert main(args + ["--out", str(tmp_path / "s.sseq"), "--vocab", str(small)]) == 2
        assert "small.json: vocabulary size 2" in capsys.readouterr().err

    def test_summarize_to_devnull(self, corpus_dir, capsys):
        root = pathlib.Path(corpus_dir)
        assert main(["summarize", "--in", str(root / "u00000.lseq"),
                     "--proj", str(root / "projection.proj"), "--out", os.devnull]) == 0
        assert json.loads(capsys.readouterr().out)["out"] == os.devnull

    def test_decode_without_vocab_uses_indices(self, corpus_dir, capsys):
        root = pathlib.Path(corpus_dir)
        out = run_json(capsys, ["decode", "--in", str(root / "u00002.lseq"),
                                "--proj", str(root / "projection.proj")])
        assert out["labels"] == [str(i) for i in out["ids"]]

    def test_decode_writes_out_file(self, corpus_dir, tmp_path, capsys):
        root = pathlib.Path(corpus_dir)
        dest = tmp_path / "d.jsonl"
        rc = main(["decode", "--in", str(root / "u00003.lseq"),
                   "--proj", str(root / "projection.proj"), "--out", str(dest)])
        capsys.readouterr()
        assert rc == 0
        row = json.loads(dest.read_text())
        assert row["id"] == "u00003"

    def test_corrupt_input_exits_2(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.lseq"
        bad.write_bytes(b"JUNKJUNKJUNK")
        proj = str(pathlib.Path(corpus_dir) / "projection.proj")
        assert main(["decode", "--in", str(bad), "--proj", proj]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_input_exits_2(self, corpus_dir, capsys):
        proj = str(pathlib.Path(corpus_dir) / "projection.proj")
        assert main(["decode", "--in", "/nonexistent.lseq", "--proj", proj]) == 2
        capsys.readouterr()


class TestTrainEvalBench:
    def test_eval_reports_accuracy(self, corpus_dir, e1_model, capsys):
        out = run_json(capsys, ["eval", "--corpus", corpus_dir,
                                "--model", e1_model, "--system", "e1"])
        assert out["system"] == "E1"
        assert 0.0 <= out["accuracy_pct"] <= 100.0
        assert out["utterances"] == 18

    def test_eval_single_fold(self, corpus_dir, e1_model, capsys):
        out = run_json(capsys, ["eval", "--corpus", corpus_dir, "--model", e1_model,
                                "--system", "e1", "--k", "3", "--fold", "0"])
        assert out["utterances"] == 6

    def test_eval_fold_out_of_range_exits_2(self, corpus_dir, e1_model, capsys):
        # k=3 strands intents of this 3-intent corpus, so splitting before
        # the range check would warn once per fold
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--corpus", corpus_dir, "--model", e1_model,
                         "--system", "e1", "--k", "3", "--fold", "3"]) == 2
        assert "fold must be in [0, 3)" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    def test_eval_system_model_mismatch_exits_2(self, corpus_dir, e1_model, capsys):
        assert main(["eval", "--corpus", corpus_dir, "--model", e1_model,
                     "--system", "p1"]) == 2
        capsys.readouterr()

    def test_fine_tune_with_init(self, corpus_dir, e1_model, tmp_path, capsys):
        out_path = str(tmp_path / "e2.ctsm")
        rc = main(["train-lu", "--corpus", corpus_dir, "--mode", "e2",
                   "--out", out_path, "--seed", "2", "--epochs", "1",
                   "--hidden", "8", "--init", e1_model])
        capsys.readouterr()
        assert rc == 0
        out = run_json(capsys, ["eval", "--corpus", corpus_dir,
                                "--model", out_path, "--system", "e2"])
        assert out["compression_ratio"] > 1.0

    @pytest.mark.parametrize("diverged", ["nan-loss", "nan-parameter"])
    def test_diverged_model_exits_2_without_a_file(self, corpus_dir, tmp_path, monkeypatch,
                                                   capsys, diverged):
        def fake_train(config, items, init_model=None):
            model = lu_init(config)
            model.train_losses.append(float("nan") if diverged == "nan-loss" else 1.0)
            if diverged == "nan-parameter":
                model.params[0] = np.nan
            return model

        monkeypatch.setattr(cli, "lu_train", fake_train)
        out = tmp_path / "m.ctsm"
        assert main(["train-lu", "--corpus", corpus_dir, "--mode", "e1", "--out", str(out),
                     "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "ctsum: error:" in err
        assert str(out) in err
        if diverged == "nan-loss":
            assert "train_losses" in err
        assert not out.exists()

    def test_bench_reports_rtf(self, corpus_dir, e1_model, capsys):
        out = run_json(capsys, ["bench", "--corpus", corpus_dir,
                                "--model", e1_model, "--system", "e1"])
        assert out["rtf"] > 0
        assert out["nominal_audio_s"] > 0

    def test_bench_too_few_repeats_exits_2(self, corpus_dir, e1_model, capsys):
        assert main(["bench", "--corpus", corpus_dir, "--model", e1_model,
                     "--system", "e1", "--repeats", "2"]) == 2
        capsys.readouterr()


class TestTrainRecipe:
    """`train-lu` trains each --mode with crossval's recipe for its system."""

    @pytest.fixture
    def trained(self, monkeypatch):
        configs = []

        def fake_train(config, items, init_model=None):
            configs.append(config)
            model = lu_init(config)
            model.train_losses.append(0.0)
            return model

        monkeypatch.setattr(cli, "lu_train", fake_train)
        monkeypatch.setattr(harness, "lu_train", fake_train)
        return configs

    def train(self, capsys, corpus_dir, out, mode, seed, *flags):
        return run_json(capsys, ["train-lu", "--corpus", corpus_dir, "--mode", mode,
                                 "--out", str(out), "--seed", str(seed), *flags])

    @pytest.mark.parametrize("mode", ["e1", "e2", "p1"])
    def test_unset_flags_follow_system_config(self, corpus_dir, e1_model, tmp_path, capsys,
                                              trained, mode):
        init = ["--init", e1_model] if mode == "e2" else []
        out = self.train(capsys, corpus_dir, tmp_path / "m.ctsm", mode, 4, *init)
        want = system_config(SystemId[mode.upper()], synth.load_corpus(corpus_dir).spec,
                             HarnessConfig(), 4)
        assert trained == [want]
        assert out["epochs"] == want.epochs

    def test_e2_is_crossvals_e2(self, corpus_dir, e1_model, tmp_path, capsys, trained):
        corpus = synth.load_corpus(corpus_dir)
        train_fold_models(corpus, list(range(len(corpus))), HarnessConfig(), 0)
        crossval_e2 = trained[1]
        self.train(capsys, corpus_dir, tmp_path / "e2.ctsm", "e2", crossval_e2.seed,
                   "--init", e1_model)
        assert trained[-1] == crossval_e2
        assert (crossval_e2.epochs, crossval_e2.learning_rate) == (10, 1e-3)

    def test_passed_flags_override_only_themselves(self, corpus_dir, tmp_path, capsys, trained):
        self.train(capsys, corpus_dir, tmp_path / "p1.ctsm", "p1", 4,
                   "--epochs", "1", "--hidden", "8")
        recipe = system_config(SystemId.P1, synth.load_corpus(corpus_dir).spec,
                               HarnessConfig(), 4)
        assert trained == [replace(recipe, epochs=1, hidden=8)]

    def test_help_names_the_recipe(self, capsys):
        with pytest.raises(SystemExit):
            main(["train-lu", "--help"])
        assert "crossval's for --mode" in capsys.readouterr().out

    def test_e2_without_init_is_a_usage_error(self, tmp_path, capsys, trained):
        # the corpus does not exist: the check comes before any file is read
        with pytest.raises(SystemExit) as exc:
            main(["train-lu", "--corpus", str(tmp_path / "missing"), "--mode", "e2",
                  "--out", str(tmp_path / "e2.ctsm"), "--seed", "1"])
        assert exc.value.code == 1
        assert "--init" in capsys.readouterr().err.splitlines()[-1]
        assert trained == []

    def test_help_says_e2_needs_init(self, capsys):
        with pytest.raises(SystemExit):
            main(["train-lu", "--help"])
        assert "required for e2" in " ".join(capsys.readouterr().out.split())


class TestCrossval:
    def test_writes_schema_valid_report(self, spec_file, tmp_path, capsys):
        dest = tmp_path / "report.json"
        rc = main(["crossval", "--spec", spec_file, "--seed", "5", "--k", "3",
                   "--epochs", "2", "--fine-tune-epochs", "2", "--text-epochs", "2",
                   "--out", str(dest)])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(dest.read_text())
        validate_report(report)
        assert report["seed"] == 5
        for name in ("P1", "E1", "E2"):
            assert name in captured.err

    def test_report_to_stdout(self, spec_file, capsys):
        rc = main(["crossval", "--spec", spec_file, "--seed", "5", "--k", "3",
                   "--epochs", "1", "--fine-tune-epochs", "1", "--text-epochs", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        validate_report(json.loads(out))

    def test_rejects_bad_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{\"vocab_size\": 1}")
        assert main(["crossval", "--spec", str(bad), "--seed", "1"]) == 2
        capsys.readouterr()


@pytest.fixture
def no_generation(monkeypatch):
    """Corpus generation fails at once if reached: a spec rejected up
    front allocates nothing."""

    def refuse(spec):
        raise AssertionError("the spec reached corpus generation")

    monkeypatch.setattr(synth, "plant_projection", refuse)


def _hostile_spec(tmp_path, blob):
    path = tmp_path / "hostile-spec.json"
    path.write_text(json.dumps(dict(SMALL_SPEC, **blob)))
    return str(path)


def _edit_json(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))) + "\n")


def _edit_manifest(path, field, value):
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), **{field: value}))
    path.write_text("\n".join(lines) + "\n")


def _edit_model_config(path, field, value):
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    meta = json.loads(raw[10 : 10 + hlen])
    meta["config"][field] = value
    header = json.dumps(meta).encode("utf-8")
    path.write_bytes(raw[:6] + struct.pack("<I", len(header)) + header + raw[10 + hlen :])


HOSTILE_SPECS = {
    "float-intents": {"num_intents": 3.0},
    "float-seed": {"seed": 1.5},
    "negative-seed": {"seed": -1},
    "float-range": {"run_len_range": [1.5, 4]},
    "bool-dim": {"latent_dim": True},
    "bool-sigma": {"noise_sigma": True},
    "infinite-scale": {"logit_scale": float("inf")},
    # sizes no corpus could hold; SynthSpec bounds them from above
    "huge-dim": {"latent_dim": 2**40},
    "huge-vocab": {"vocab_size": 2**40},
    "huge-run": {"run_len_range": [2, 2**40]},
    "huge-corpus": {"utterances_per_intent": 10**12},
    "huge-templates": {"templates_per_intent": 10**12},
}

def _reshape_projection(corpus, rows, cols):
    proj = read_proj(corpus / "projection.proj")
    write_proj(corpus / "projection.proj", ProjectionMatrix(proj.weights[rows, cols], proj.bias[rows]))


def _widen_lseq(corpus):
    seq = read_lseq(corpus / "u00000.lseq")
    write_lseq(corpus / "u00000.lseq", LatentSequence(np.hstack([seq.frames, seq.frames[:, :1]])))


def _lseq_outside(corpus, absolute):
    outside = corpus.parent / "outside.lseq"
    shutil.copyfile(corpus / "u00000.lseq", outside)
    _edit_manifest(corpus / "manifest.jsonl", "lseq", str(outside) if absolute else "../outside.lseq")


# files that each parse but disagree with the spec or the other files:
# (corruption, the start of the message that must name the file at fault)
CORPUS_MISMATCHES = {
    "manifest-intent-past-spec": (
        lambda c: _edit_manifest(c / "manifest.jsonl", "intent", SMALL_SPEC["num_intents"]),
        "manifest.jsonl: manifest line 1: intent",
    ),
    "manifest-negative-intent": (
        lambda c: _edit_manifest(c / "manifest.jsonl", "intent", -1),
        "manifest.jsonl: manifest line 1: intent",
    ),
    "manifest-blank-label": (
        lambda c: _edit_manifest(c / "manifest.jsonl", "labels", [1, 0]),
        "manifest.jsonl: manifest line 1: label 0",
    ),
    "manifest-empty-labels": (
        lambda c: _edit_manifest(c / "manifest.jsonl", "labels", []),
        "manifest.jsonl: manifest line 1: labels must be non-empty",
    ),
    "manifest-label-past-vocab": (
        lambda c: _edit_manifest(c / "manifest.jsonl", "labels", [SMALL_SPEC["vocab_size"]]),
        "manifest.jsonl: manifest line 1: label",
    ),
    "manifest-lseq-outside": (
        lambda c: _lseq_outside(c, absolute=False),
        "manifest.jsonl: manifest line 1: lseq",
    ),
    "manifest-lseq-absolute": (
        lambda c: _lseq_outside(c, absolute=True),
        "manifest.jsonl: manifest line 1: lseq",
    ),
    "vocab-one-label-short": (
        lambda c: _edit_json(c / "vocab.json", lambda v: dict(v, labels=v["labels"][:-1])),
        "vocab.json:",
    ),
    "proj-one-label-short": (
        lambda c: _reshape_projection(c, slice(0, -1), slice(None)),
        "projection.proj:",
    ),
    "proj-one-dim-short": (
        lambda c: _reshape_projection(c, slice(None), slice(0, -1)),
        "projection.proj:",
    ),
    "lseq-wider-than-spec": (_widen_lseq, "u00000.lseq:"),
}

HOSTILE_CORPORA = {
    "manifest-float-intent": lambda c: _edit_manifest(c / "manifest.jsonl", "intent", 1.9),
    "manifest-float-labels": lambda c: _edit_manifest(c / "manifest.jsonl", "labels", [1.5, 2]),
    "manifest-null-id": lambda c: _edit_manifest(c / "manifest.jsonl", "id", None),
    "manifest-duplicate-id": lambda c: _edit_manifest(c / "manifest.jsonl", "id", "u00001"),
    "vocab-string-labels": lambda c: _edit_json(
        c / "vocab.json", lambda v: dict(v, labels="_abcdefgh")
    ),
    "vocab-float-blank": lambda c: _edit_json(c / "vocab.json", lambda v: dict(v, blank_index=1.5)),
    "vocab-bool-blank": lambda c: _edit_json(c / "vocab.json", lambda v: dict(v, blank_index=True)),
    "vocab-deep-nesting": lambda c: (c / "vocab.json").write_text("[" * 100_000),
    "spec-float-intents": lambda c: _edit_json(c / "spec.json", lambda s: dict(s, num_intents=3.0)),
    "spec-negative-seed": lambda c: _edit_json(c / "spec.json", lambda s: dict(s, seed=-1)),
    **{name: corrupt for name, (corrupt, _) in CORPUS_MISMATCHES.items()},
}


class TestHostileJson:
    """Hostile JSON in a spec, corpus or model header is a data error:
    exit code 2 with a one-line message, never a traceback."""

    @staticmethod
    def assert_data_error(capsys, argv):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("ctsum: error:") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("blob", HOSTILE_SPECS.values(), ids=HOSTILE_SPECS)
    def test_spec_commands(self, tmp_path, capsys, no_generation, blob):
        spec = _hostile_spec(tmp_path, blob)
        self.assert_data_error(
            capsys, ["synth", "--spec", spec, "--out", str(tmp_path / "c"), "--seed", "1"]
        )
        self.assert_data_error(capsys, ["crossval", "--spec", spec, "--seed", "1", "--k", "3"])

    @pytest.mark.parametrize("corrupt", HOSTILE_CORPORA.values(), ids=HOSTILE_CORPORA)
    def test_corpus_commands(self, tmp_path, capsys, corpus_dir, e1_model, corrupt):
        bad = tmp_path / "c"
        shutil.copytree(corpus_dir, bad)
        corrupt(bad)
        model = str(tmp_path / "m.ctsm")
        self.assert_data_error(
            capsys,
            ["train-lu", "--corpus", str(bad), "--mode", "p1", "--out", model, "--seed", "1"],
        )
        for cmd in ("eval", "bench"):
            self.assert_data_error(
                capsys, [cmd, "--corpus", str(bad), "--model", e1_model, "--system", "e1"]
            )

    @pytest.mark.parametrize("corrupt, names", CORPUS_MISMATCHES.values(), ids=CORPUS_MISMATCHES)
    def test_corpus_mismatch_names_file(self, tmp_path, capsys, corpus_dir, corrupt, names):
        bad = tmp_path / "c"
        shutil.copytree(corpus_dir, bad)
        corrupt(bad)
        err = self.assert_data_error(
            capsys, ["train-lu", "--corpus", str(bad), "--mode", "p1", "--out",
                     str(tmp_path / "m.ctsm"), "--seed", "1"],
        )
        assert str(bad / names) in err, err

    def test_manifest_invalid_utf8_names_file_and_line(self, tmp_path, capsys, corpus_dir,
                                                       e1_model):
        bad = tmp_path / "c"
        shutil.copytree(corpus_dir, bad)
        manifest = bad / "manifest.jsonl"
        manifest.write_bytes(manifest.read_bytes().replace(b'"u00000"', b'"u\xff"'))
        argvs = [["train-lu", "--corpus", str(bad), "--mode", "p1", "--out",
                  str(tmp_path / "m.ctsm"), "--seed", "1"]]
        argvs += [[cmd, "--corpus", str(bad), "--model", e1_model, "--system", "e1"]
                  for cmd in ("eval", "bench")]
        for argv in argvs:
            err = self.assert_data_error(capsys, argv)
            assert f"{manifest}: manifest line 1: invalid JSON" in err, err

    @pytest.mark.parametrize(
        "value", [1.7, True, -1], ids=["float-seed", "bool-seed", "negative-seed"]
    )
    def test_model_header(self, tmp_path, capsys, corpus_dir, e1_model, value):
        bad = tmp_path / "bad.ctsm"
        shutil.copyfile(e1_model, bad)
        _edit_model_config(bad, "seed", value)
        self.assert_data_error(
            capsys, ["eval", "--corpus", corpus_dir, "--model", str(bad), "--system", "e1"]
        )
        self.assert_data_error(
            capsys,
            ["train-lu", "--corpus", corpus_dir, "--mode", "e2", "--out",
             str(tmp_path / "e2.ctsm"), "--seed", "1", "--init", str(bad)],
        )

    def test_model_header_huge_layer_count(self, tmp_path, capsys, corpus_dir, e1_model,
                                           no_layer_walk):
        bad = tmp_path / "bad.ctsm"
        shutil.copyfile(e1_model, bad)
        _edit_model_config(bad, "layers", 10**9)
        for cmd in ("eval", "bench"):
            self.assert_data_error(
                capsys, [cmd, "--corpus", corpus_dir, "--model", str(bad), "--system", "e1"]
            )
        self.assert_data_error(
            capsys,
            ["train-lu", "--corpus", corpus_dir, "--mode", "e2", "--out",
             str(tmp_path / "e2.ctsm"), "--seed", "1", "--init", str(bad)],
        )

    def test_console_exit_code_and_stderr(self, tmp_path):
        spec = _hostile_spec(tmp_path, HOSTILE_SPECS["float-intents"])
        proc = subprocess.run(
            [sys.executable, "-m", "ctsum.cli", "synth", "--spec", spec,
             "--out", str(tmp_path / "c"), "--seed", "1"],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 2
        assert "num_intents must be an integer" in proc.stderr
        assert "Traceback" not in proc.stderr


U32_MAX = 2**32 - 1

# (file kind, magic, header field codes, field values): each header
# declares a payload of at least 4 GiB; the file holds 32 bytes after it
HOSTILE_HEADERS = {
    "lseq-huge-T": ("lseq", b"CTSQ", "IIf", (U32_MAX, 8, 10.0)),
    "lseq-huge-D": ("lseq", b"CTSQ", "IIf", (2, U32_MAX, 10.0)),
    "sseq-huge-S": ("sseq", b"CTSS", "IIf", (U32_MAX, 8, 10.0)),
    "sseq-huge-D": ("sseq", b"CTSS", "IIf", (2, U32_MAX, 10.0)),
    "proj-huge-V": ("proj", b"CTSP", "II", (U32_MAX, 8)),
    "proj-huge-D": ("proj", b"CTSP", "II", (9, U32_MAX)),
    "ctsm-huge-json": ("ctsm", b"CTSM", "I", (U32_MAX,)),
}


class TestHostileSizes:
    """A tiny file whose header declares a huge T, D, S, V or JSON length
    is a data error for every command that reads it: exit code 2, no
    traceback, and a "header declares" message, which only the size
    checks made before any payload is read (or allocated) produce."""

    @staticmethod
    def commands(kind, bad, corpus_dir, e1_model, tmp_path):
        root = pathlib.Path(corpus_dir)
        lseq, proj = str(root / "u00000.lseq"), str(root / "projection.proj")
        out = str(tmp_path / "out")
        if kind == "ctsm":
            return [
                ["eval", "--corpus", corpus_dir, "--model", bad, "--system", "e1"],
                ["bench", "--corpus", corpus_dir, "--model", bad, "--system", "e1"],
                ["train-lu", "--corpus", corpus_dir, "--mode", "e2", "--out", out,
                 "--seed", "1", "--init", bad],
            ]
        if kind == "sseq":
            return [["decode", "--in", bad, "--proj", proj]]
        corpus = tmp_path / "c"  # a corpus holding the hostile file
        shutil.copytree(corpus_dir, corpus)
        shutil.copyfile(bad, corpus / ("u00000.lseq" if kind == "lseq" else "projection.proj"))
        inp, pr = (bad, proj) if kind == "lseq" else (lseq, bad)
        return [
            ["summarize", "--in", inp, "--proj", pr, "--out", out],
            ["decode", "--in", inp, "--proj", pr],
            ["eval", "--corpus", str(corpus), "--model", e1_model, "--system", "e1"],
            ["bench", "--corpus", str(corpus), "--model", e1_model, "--system", "e1"],
            ["train-lu", "--corpus", str(corpus), "--mode", "e1", "--out", out, "--seed", "1"],
        ]

    @pytest.mark.parametrize("name", sorted(HOSTILE_HEADERS))
    def test_exit_2_before_reading(self, tmp_path, capsys, corpus_dir, e1_model, name):
        kind, magic, fields, values = HOSTILE_HEADERS[name]
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(magic + struct.pack("<H" + fields, 1, *values) + bytes(32))
        for argv in self.commands(kind, str(bad), corpus_dir, e1_model, tmp_path):
            err = TestHostileJson.assert_data_error(capsys, argv)
            assert "header declares" in err, (argv[0], err)


class TestCorruptedFiles:
    """``test_corruption``'s truncated and byte-flipped ``.lseq`` and
    ``.sseq`` files through the commands that read them: each exits 0 or
    2, never with an escaped exception or a traceback."""

    @pytest.mark.parametrize(
        "fmt, commands",
        [("lseq", ("decode", "summarize")), ("sseq", ("decode",))],
        ids=["lseq", "sseq"],
    )
    def test_exit_0_or_2(self, tmp_path, capsys, fmt, commands):
        write, _ = FORMATS[fmt]
        valid = tmp_path / f"valid.{fmt}"
        write(valid)
        proj = tmp_path / "p.proj"  # D = 2, as in both tiny files
        write_proj(proj, ProjectionMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])))
        bad = tmp_path / f"variant.{fmt}"
        argvs = {
            "decode": ["decode", "--in", str(bad), "--proj", str(proj)],
            "summarize": ["summarize", "--in", str(bad), "--proj", str(proj),
                          "--out", str(tmp_path / "out.sseq")],
        }
        escaped = []
        for what, data in variants(valid.read_bytes()):
            bad.write_bytes(data)
            for cmd in commands:
                try:
                    rc = main(argvs[cmd])
                except Exception as exc:  # any escape is the finding
                    escaped.append(f"{cmd}, {what}: {type(exc).__name__}: {exc}")
                    continue
                err = capsys.readouterr().err
                if rc not in (0, 2) or "Traceback" in err:
                    escaped.append(f"{cmd}, {what}: exit {rc}: {err}")
        assert not escaped, "\n".join(escaped[:20])

    # format: (V, D) of a 2-intent corpus matching the valid file, and
    # the system the commands run
    CORPUS_FORMATS = {"proj": (4, 3, "e2"), "vocab": (3, 2, "p1"), "ctsm": (3, 2, "e2")}

    @pytest.mark.parametrize("fmt", sorted(CORPUS_FORMATS))
    def test_corpus_and_model_formats_exit_0_or_2(self, tmp_path, capsys, fmt):
        """The ``.proj`` and vocab variants replace a tiny corpus's file;
        the ``.ctsm`` variants are the model of ``eval``, ``bench`` and
        ``train-lu --init``. The untouched file runs every command."""
        v, d, system = self.CORPUS_FORMATS[fmt]
        corpus = tmp_path / "c"
        synth.generate_corpus(
            SynthSpec(num_intents=2, vocab_size=v, latent_dim=d, templates_per_intent=1,
                      template_len_range=(1, 2), utterances_per_intent=1), corpus)
        write, _ = FORMATS[fmt]
        valid = tmp_path / f"valid.{fmt}"
        write(valid)
        bad = {"proj": corpus / synth.PROJECTION_NAME, "vocab": corpus / synth.VOCAB_NAME,
               "ctsm": tmp_path / "variant.ctsm"}[fmt]
        model = bad if fmt == "ctsm" else tmp_path / "m.ctsm"
        if fmt != "ctsm":
            save_model(model, lu_init(LUConfig(d, 2, hidden=1, layers=1,
                                               vocab_size=v if system == "p1" else None)))
        run = ["--corpus", str(corpus), "--system", system, "--model", str(model)]
        init = ["--init", str(model)] if system == "e2" else []
        argvs = [
            ["eval", *run],
            ["bench", *run],
            ["train-lu", "--corpus", str(corpus), "--mode", system, *init, "--seed", "1",
             "--out", str(tmp_path / "out.ctsm"), "--epochs", "1", "--hidden", "1",
             "--layers", "1"],
        ]
        bad.write_bytes(valid.read_bytes())
        for argv in argvs:
            assert main(argv) == 0, (argv[0], capsys.readouterr().err)
        capsys.readouterr()
        escaped = []
        for what, data in variants(valid.read_bytes()):
            bad.write_bytes(data)
            for argv in argvs:
                try:
                    rc = main(argv)
                except Exception as exc:  # any escape is the finding
                    escaped.append(f"{argv[0]}, {what}: {type(exc).__name__}: {exc}")
                    continue
                err = capsys.readouterr().err
                if rc not in (0, 2) or "Traceback" in err:
                    escaped.append(f"{argv[0]}, {what}: exit {rc}: {err}")
        assert not escaped, "\n".join(escaped[:20])

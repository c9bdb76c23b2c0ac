import json
import pathlib
import shutil
import struct
import subprocess
import sys

import jsonschema
import pytest

from ctsum.cli import main
from ctsum.harness import validate_report
from ctsum.synth import SynthSpec, save_spec
from test_lu import no_layer_walk  # noqa: F401  (fixture)

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
                capture_output=True, text=True,
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
        assert main(["eval", "--corpus", corpus_dir, "--model", e1_model,
                     "--system", "e1", "--k", "3", "--fold", "3"]) == 2
        capsys.readouterr()

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

    def test_bench_reports_rtf(self, corpus_dir, e1_model, capsys):
        out = run_json(capsys, ["bench", "--corpus", corpus_dir,
                                "--model", e1_model, "--system", "e1"])
        assert out["rtf"] > 0
        assert out["nominal_audio_s"] > 0

    def test_bench_too_few_repeats_exits_2(self, corpus_dir, e1_model, capsys):
        assert main(["bench", "--corpus", corpus_dir, "--model", e1_model,
                     "--system", "e1", "--repeats", "2"]) == 2
        capsys.readouterr()


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
    "float-range": {"run_len_range": [1.5, 4]},
    "bool-dim": {"latent_dim": True},
    "bool-sigma": {"noise_sigma": True},
    "infinite-scale": {"logit_scale": float("inf")},
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
    def test_spec_commands(self, tmp_path, capsys, blob):
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

    @pytest.mark.parametrize("value", [1.7, True], ids=["float-seed", "bool-seed"])
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
            capture_output=True, text=True,
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

import copy
import json
import os
import pathlib
import shutil
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from ctsum import harness
from ctsum.cts import summarize
from ctsum.harness import (
    STAGES,
    HarnessConfig,
    SystemId,
    bench_rtf,
    evaluate,
    nominal_audio_seconds,
    run_crossval,
    run_system,
    strip_timing,
    system_config,
    train_fold_models,
    training_items,
    validate_report,
)
from ctsum.lu import LUConfig, embed_labels, lu_forward, lu_init, lu_train
from ctsum.seqcore import LatentSequence, ProjectionMatrix, Vocabulary
from ctsum.synth import SynthSpec, build_corpus


def small_spec(**kw):
    base = dict(
        num_intents=3,
        vocab_size=9,
        latent_dim=8,
        templates_per_intent=2,
        utterances_per_intent=10,
        seed=7,
    )
    base.update(kw)
    return SynthSpec(**base)


def quick_cfg(**kw):
    base = dict(hidden=8, epochs=2, fine_tune_epochs=2, text_epochs=2)
    base.update(kw)
    return HarnessConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(small_spec())


@pytest.fixture(scope="module")
def models(corpus):
    idx = list(range(len(corpus.rows)))
    return train_fold_models(corpus, idx, quick_cfg(), fold=0)


@pytest.fixture(scope="module")
def report():
    return run_crossval(small_spec(), k=3, cfg=quick_cfg())


STAGE_NAMES = {
    SystemId.P1: ["project", "decode", "embed", "classify"],
    SystemId.E1: ["classify"],
    SystemId.E2: ["summarize", "classify"],
}


class TestRunSystem:
    def test_stage_names(self, corpus, models):
        for sys in SystemId:
            assert [name for name, _ in STAGES[sys]] == STAGE_NAMES[sys]
            run = run_system(sys, models[sys], corpus.rows, corpus.sequences,
                             corpus.projection, corpus.vocab)
            assert list(run.stage_ms) == STAGE_NAMES[sys]
            assert set(run.predictions) == {r["id"] for r in corpus.rows}

    def test_stages_call_module_names_late(self, corpus, models, monkeypatch):
        # patching a name in the harness module reaches every stage that
        # uses it, as the benchmark's taps rely on
        calls = []
        for name in ("project_softmax", "greedy_decode", "embed_labels", "summarize",
                     "lu_forward"):
            fn = getattr(harness, name)
            monkeypatch.setattr(
                harness, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a)
            )
        rows, seqs = corpus.rows[:2], corpus.sequences[:2]
        for sys in SystemId:
            run_system(sys, models[sys], rows, seqs, corpus.projection, corpus.vocab)
        per_utt = ["project_softmax", "greedy_decode", "embed_labels", "lu_forward"]
        assert calls == per_utt * 2 + ["lu_forward"] * 2 + ["summarize", "lu_forward"] * 2

    def test_stage_sum_dominates_total(self, corpus, models):
        run = run_system(SystemId.E1, models[SystemId.E1], corpus.rows,
                         corpus.sequences, corpus.projection, corpus.vocab)
        stage_sum = sum(run.stage_ms.values())
        assert 0 < stage_sum <= run.total_ms
        assert stage_sum >= 0.85 * run.total_ms

    def test_compression_reported_only_for_summarizing_system(self, corpus, models):
        for sys in SystemId:
            run = run_system(sys, models[sys], corpus.rows, corpus.sequences,
                             corpus.projection, corpus.vocab)
            if sys is SystemId.E2:
                assert run.compression is not None and run.compression > 1.0
            else:
                assert run.compression is None

    def test_compression_is_the_mean_bit_for_bit(self, corpus, models):
        # run_system sums and divides without np.mean's wrapper; the figure
        # must stay np.mean's to the last bit. Over the corpus three times,
        # np.mean's pairwise sum and a running sum differ in the last bits.
        rows, seqs = corpus.rows * 3, corpus.sequences * 3
        run = run_system(SystemId.E2, models[SystemId.E2], rows, seqs, corpus.projection,
                         corpus.vocab)
        ratios = [seq.num_frames / summarize(seq, corpus.projection).num_segments for seq in seqs]
        assert sum(ratios) / len(ratios) != np.mean(ratios)
        assert type(run.compression) is float
        assert run.compression.hex() == float(np.mean(ratios)).hex()

    def test_single_frame_utterances_make_e1_e2_agree(self, corpus, models):
        # a one-frame sequence summarizes to its own single frame, so the
        # same classifier must produce identical predictions either way
        rng = np.random.default_rng(3)
        rows = [{"id": f"s{i}", "intent": 0} for i in range(5)]
        seqs = [LatentSequence(rng.standard_normal((1, 8)).astype(np.float32))
                for _ in range(5)]
        model = models[SystemId.E1]
        e1 = run_system(SystemId.E1, model, rows, seqs, corpus.projection, corpus.vocab)
        e2 = run_system(SystemId.E2, model, rows, seqs, corpus.projection, corpus.vocab)
        assert e1.predictions == e2.predictions

    def test_p1_predictions_match_gold_text_when_noiseless(self):
        corpus = build_corpus(small_spec(noise_sigma=0.0))
        idx = list(range(len(corpus.rows)))
        p1 = train_fold_models(corpus, idx, quick_cfg(), fold=0)[SystemId.P1]
        run = run_system(SystemId.P1, p1, corpus.rows, corpus.sequences,
                         corpus.projection, corpus.vocab)
        for row in corpus.rows:
            x = embed_labels(row["labels"], p1)
            assert run.predictions[row["id"]] == int(np.argmax(lu_forward(p1, x)))

    def test_misaligned_inputs_rejected(self, corpus, models):
        with pytest.raises(ValueError):
            run_system(SystemId.E1, models[SystemId.E1], corpus.rows,
                       corpus.sequences[:-1], corpus.projection, corpus.vocab)
        with pytest.raises(ValueError):
            run_system(SystemId.E1, models[SystemId.E1], [], [],
                       corpus.projection, corpus.vocab)

    def test_model_system_mismatch_rejected(self, corpus, models):
        with pytest.raises(ValueError):
            run_system(SystemId.E1, models[SystemId.P1], corpus.rows,
                       corpus.sequences, corpus.projection, corpus.vocab)
        with pytest.raises(ValueError):
            run_system(SystemId.P1, models[SystemId.E1], corpus.rows,
                       corpus.sequences, corpus.projection, corpus.vocab)
        wrong_dim = lu_init(LUConfig(input_dim=5, num_intents=3, hidden=4, layers=1))
        with pytest.raises(ValueError):
            run_system(SystemId.E1, wrong_dim, corpus.rows, corpus.sequences,
                       corpus.projection, corpus.vocab)


class TestEvaluate:
    def test_all_correct(self):
        rows = [{"id": f"u{i}", "intent": i % 3} for i in range(9)]
        preds = {r["id"]: r["intent"] for r in rows}
        assert evaluate(preds, rows) == 100.0

    def test_half_correct(self):
        rows = [{"id": f"u{i}", "intent": 0} for i in range(4)]
        preds = {"u0": 0, "u1": 0, "u2": 1, "u3": 2}
        assert evaluate(preds, rows) == 50.0

    def test_matches_independent_recount(self):
        rng = np.random.default_rng(11)
        rows = [{"id": f"u{i}", "intent": int(rng.integers(3))} for i in range(40)]
        preds = {r["id"]: int(rng.integers(3)) for r in rows}
        want = 100.0 * sum(preds[r["id"]] == r["intent"] for r in rows) / len(rows)
        assert evaluate(preds, rows) == pytest.approx(want)

    @pytest.mark.parametrize(
        "pred, intent, field",
        [(1.7, 1, "prediction"), (True, 1, "prediction"), (1, 1.0, "intent")],
        ids=["float-prediction", "bool-prediction", "float-intent"],
    )
    def test_non_integer_rejected_not_truncated(self, pred, intent, field):
        # int() would count 1.7 and True as intent 1
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            evaluate({"a": pred}, [{"id": "a", "intent": intent}])

    def test_missing_prediction_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            evaluate({}, [{"id": "u0", "intent": 0}])
        with pytest.raises(ValueError):
            evaluate({}, [])


class TestTiming:
    def test_nominal_audio_seconds(self):
        seq = LatentSequence(np.zeros((25, 4), dtype=np.float32))  # 10 ms shift
        assert nominal_audio_seconds([seq]) == pytest.approx(1.0)
        assert nominal_audio_seconds([seq, seq]) == pytest.approx(2.0)
        shifted = LatentSequence(np.zeros((10, 4), dtype=np.float32), frame_shift_ms=20.0)
        assert nominal_audio_seconds([shifted]) == pytest.approx(0.8)

    def test_bench_rtf_consistency(self, corpus, models):
        res = bench_rtf(SystemId.E2, models[SystemId.E2], corpus.rows,
                        corpus.sequences, corpus.projection, corpus.vocab)
        assert res.nominal_audio_s == pytest.approx(nominal_audio_seconds(corpus.sequences))
        assert res.rtf == pytest.approx(res.total_ms / 1e3 / res.nominal_audio_s)
        assert res.rtf > 0
        assert list(res.stage_ms) == STAGE_NAMES[SystemId.E2]

    @pytest.mark.parametrize("repeats, middle", [(3, 4.0), (4, 4.0), (5, 3.0)])
    def test_bench_figures_come_from_one_run(self, corpus, models, monkeypatch, repeats, middle):
        # each faked run's stage time equals its total, so a figure from
        # another run, or a mean of two runs, shows as a mismatch
        totals = iter([100.0, 5.0, 2.0, 4.0, 3.0, 1.0])  # warmup first

        def fake_run(system, *args):
            t = next(totals)
            return harness.SystemRun(system, {}, {"classify": t}, t)

        monkeypatch.setattr(harness, "run_system", fake_run)
        res = bench_rtf(SystemId.E1, models[SystemId.E1], corpus.rows, corpus.sequences,
                        corpus.projection, corpus.vocab, repeats=repeats)
        assert res.total_ms == middle
        assert res.stage_ms == {"classify": middle}
        assert res.rtf == middle / 1e3 / res.nominal_audio_s

    def test_bench_argument_validation(self, corpus, models):
        with pytest.raises(ValueError):
            bench_rtf(SystemId.E1, models[SystemId.E1], corpus.rows,
                      corpus.sequences, corpus.projection, corpus.vocab, repeats=2)
        with pytest.raises(ValueError):
            bench_rtf(SystemId.E1, models[SystemId.E1], [], [],
                      corpus.projection, corpus.vocab)
        with pytest.raises(ValueError):
            HarnessConfig(bench_repeats=1)

    @pytest.mark.parametrize("repeats", [3.5, 4.0, True])
    def test_repeats_must_be_an_integer(self, corpus, models, repeats):
        # refused at construction, not in range() after a fold has trained
        with pytest.raises(TypeError, match="bench_repeats must be an integer"):
            HarnessConfig(bench_repeats=repeats)
        with pytest.raises(TypeError, match="repeats must be an integer"):
            bench_rtf(SystemId.E1, models[SystemId.E1], corpus.rows, corpus.sequences,
                      corpus.projection, corpus.vocab, repeats=repeats)


class TestHarnessConfig:
    @pytest.mark.parametrize(
        "field, bad, error",
        [
            *((f, 0, ValueError) for f in ("hidden", "layers", "epochs", "fine_tune_epochs",
                                           "text_epochs", "batch_size")),
            *((f, 2.0, TypeError) for f in ("hidden", "text_epochs", "batch_size")),
            *((f, bad, error) for f in ("learning_rate", "fine_tune_lr")
              for bad, error in ((float("nan"), TypeError), (0.0, ValueError),
                                 (-1e-3, ValueError), (True, TypeError))),
        ],
    )
    def test_every_field_checked_at_construction(self, field, bad, error):
        # named when the config is built, not by LUConfig after a fold has trained
        with pytest.raises(error, match=f"^{field} must be"):
            HarnessConfig(**{field: bad})

    def test_fields_take_their_types(self):
        cfg = HarnessConfig(epochs=np.int64(4), fine_tune_lr=1)
        assert type(cfg.epochs) is int and type(cfg.fine_tune_lr) is float


class TestTrainingItems:
    def test_inputs_per_system(self, corpus):
        idx = [4, 0, 7]
        intents = [corpus.rows[i]["intent"] for i in idx]
        for sys in SystemId:
            assert [y for _, y in training_items(sys, corpus, idx)] == intents
        for (x, _), i in zip(training_items(SystemId.E1, corpus, idx), idx):
            np.testing.assert_array_equal(x, corpus.sequences[i].frames)
        for (x, _), i in zip(training_items(SystemId.E2, corpus, idx), idx):
            np.testing.assert_array_equal(x, summarize(corpus.sequences[i], corpus.projection).vectors)
        for (x, _), i in zip(training_items(SystemId.P1, corpus, idx), idx):
            assert x.dtype == np.int64 and x.tolist() == corpus.rows[i]["labels"]

    def test_gold_labels_refuse_floats(self, corpus):
        # refused, not truncated to the labels [1, 2]
        bad = copy.copy(corpus)
        bad.rows = [dict(corpus.rows[0], labels=[1.5, 2.0])]
        with pytest.raises(ValueError, match="label ids must be a 1-d integer sequence"):
            training_items(SystemId.P1, bad, [0])

    def test_e2_matches_serve_input(self, corpus, models, monkeypatch):
        # E2 trains on exactly what its classify stage sees when serving
        seen = []
        monkeypatch.setattr(harness, "lu_forward", lambda m, x: seen.append(x) or lu_forward(m, x))
        idx = [1, 2]
        rows, seqs = [corpus.rows[i] for i in idx], [corpus.sequences[i] for i in idx]
        run_system(SystemId.E2, models[SystemId.E2], rows, seqs, corpus.projection, corpus.vocab)
        items = training_items(SystemId.E2, corpus, idx)
        for served, (x, _) in zip(seen, items):
            np.testing.assert_array_equal(served, x)


class TestSystemConfig:
    def test_recipe_per_system(self, corpus):
        cfg = HarnessConfig(hidden=5, layers=3, learning_rate=0.01, epochs=7, fine_tune_epochs=4,
                            fine_tune_lr=0.002, text_epochs=6, batch_size=9)
        spec = corpus.spec
        want = {SystemId.E1: (7, 0.01), SystemId.E2: (4, 0.002), SystemId.P1: (6, 0.01)}
        for sys in SystemId:
            got = system_config(sys, spec, cfg, 11)
            assert (got.epochs, got.learning_rate) == want[sys], sys
            assert (got.input_dim, got.num_intents, got.hidden, got.layers, got.batch_size,
                    got.seed) == (spec.latent_dim, spec.num_intents, 5, 3, 9, 11)
            assert got.vocab_size == (spec.vocab_size if sys is SystemId.P1 else None)

    def test_train_fold_models_uses_it(self, corpus, monkeypatch):
        calls = []

        def fake_train(config, items, init_model=None):
            calls.append((config, init_model))
            return lu_init(config)

        monkeypatch.setattr(harness, "lu_train", fake_train)
        cfg = quick_cfg()
        models = train_fold_models(corpus, [0, 1, 2], cfg, fold=3)
        order = (SystemId.E1, SystemId.E2, SystemId.P1)  # position is the seed index
        for index, (sys, (config, init)) in enumerate(zip(order, calls, strict=True)):
            seed = harness._train_seed(corpus.spec.seed, 3, index)
            assert config == system_config(sys, corpus.spec, cfg, seed), sys
            assert init is (models[SystemId.E1] if sys is SystemId.E2 else None), sys


class TestTrainFoldModels:
    def test_model_shapes(self, corpus, models):
        assert set(models) == set(SystemId)
        assert models[SystemId.P1].embedding is not None
        assert models[SystemId.P1].config.vocab_size == corpus.spec.vocab_size
        for sys in (SystemId.E1, SystemId.E2):
            assert models[sys].embedding is None
            assert models[sys].config.input_dim == corpus.spec.latent_dim

    def test_e2_starts_from_e1_architecture(self, models):
        e1, e2 = models[SystemId.E1], models[SystemId.E2]
        assert e1.config.hidden == e2.config.hidden
        assert e1.config.layers == e2.config.layers

    def test_deterministic(self, corpus, models):
        again = train_fold_models(corpus, list(range(len(corpus.rows))), quick_cfg(), fold=0)
        for sys in SystemId:
            for pa, pb in zip(models[sys].param_arrays(), again[sys].param_arrays()):
                np.testing.assert_array_equal(pa, pb)

    def test_fold_changes_seed(self, corpus, models):
        other = train_fold_models(corpus, list(range(len(corpus.rows))), quick_cfg(), fold=1)
        assert any(
            not np.array_equal(pa, pb)
            for pa, pb in zip(models[SystemId.E1].param_arrays(),
                              other[SystemId.E1].param_arrays())
        )


class TestCrossval:
    def test_schema_valid(self, report):
        validate_report(report)
        assert report["seed"] == 7
        assert report["config"]["k"] == 3

    def test_fold_structure(self, report):
        assert len(report["folds"]) == 3
        assert sum(f["eval_size"] for f in report["folds"]) == 30
        for f in report["folds"]:
            assert set(f["per_system"]) == {"P1", "E1", "E2"}

    def test_summary_is_fold_mean(self, report):
        for sys in ("P1", "E1", "E2"):
            folds = [f["per_system"][sys]["accuracy_pct"] for f in report["folds"]]
            assert report["summary"]["per_system"][sys]["accuracy_pct"] == pytest.approx(
                float(np.mean(folds))
            )

    def test_compression_ratio_present(self, report):
        assert report["summary"]["compression_ratio_e2"] > 1.0

    def test_deterministic_apart_from_timing(self):
        spec = small_spec(num_intents=2, utterances_per_intent=5, seed=3)
        cfg = quick_cfg(epochs=1, fine_tune_epochs=1, text_epochs=1)
        a = run_crossval(spec, k=2, cfg=cfg)
        b = run_crossval(spec, k=2, cfg=cfg)
        assert strip_timing(a) == strip_timing(b)

    def test_strip_timing_removes_only_timing(self, report):
        bare = strip_timing(report)
        summary = bare["summary"]["per_system"]["E1"]
        assert "accuracy_pct" in summary
        assert "rtf" not in summary and "stage_ms" not in summary
        assert bare["folds"] == report["folds"]
        # original untouched
        assert "rtf" in report["summary"]["per_system"]["E1"]

    def test_schema_rejects_fourth_system(self, report):
        bad = copy.deepcopy(report)
        bad["summary"]["per_system"]["P2"] = bad["summary"]["per_system"]["P1"]
        with pytest.raises(jsonschema.ValidationError):
            validate_report(bad)
        bad = copy.deepcopy(report)
        bad["folds"][0]["per_system"]["P2"] = {"accuracy_pct": 50.0}
        with pytest.raises(jsonschema.ValidationError):
            validate_report(bad)

    def test_schema_rejects_missing_field(self, report):
        bad = copy.deepcopy(report)
        del bad["seed"]
        with pytest.raises(jsonschema.ValidationError):
            validate_report(bad)

    def test_schema_is_read_through_the_package_name(self, tmp_path):
        # a copy of the package under another name (an A/B instrument loads
        # two) reads its own schema, not one of a package named ctsum
        copy_dir = tmp_path / "ctsum_b"
        shutil.copytree(pathlib.Path(harness.__file__).parent, copy_dir,
                        ignore=shutil.ignore_patterns("__pycache__"))
        schema = json.loads((copy_dir / "report_schema.json").read_text(encoding="utf-8"))
        schema["$comment"] = "the copy's own schema"
        (copy_dir / "report_schema.json").write_text(json.dumps(schema), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", "import json, ctsum_b.harness as h; print(json.dumps(h._schema()))"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == schema

    def test_exactly_three_systems_defined(self):
        assert {s.value for s in SystemId} == {"P1", "E1", "E2"}

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsum.ctc import greedy_decode
from ctsum.cts import summarize
from ctsum.seqcore import FormatError, LatentSequence, frame_argmax, project_softmax
from ctsum.synth import (
    SynthSpec,
    build_corpus,
    default_vocab,
    generate_corpus,
    generate_utterance,
    kfold_split,
    load_corpus,
    load_spec,
    make_templates,
    plant_projection,
    save_spec,
    templates_disjoint,
)


def small_spec(**kw):
    base = dict(
        num_intents=3,
        vocab_size=9,
        latent_dim=8,
        templates_per_intent=2,
        utterances_per_intent=6,
        seed=42,
    )
    base.update(kw)
    return SynthSpec(**base)


class TestSpec:
    def test_defaults(self):
        spec = SynthSpec()
        assert spec.num_intents == 6
        assert spec.num_utterances == 600

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(vocab_size=2)
        with pytest.raises(ValueError):
            SynthSpec(template_len_range=(5, 3))
        with pytest.raises(ValueError):
            SynthSpec(run_len_range=(0, 4))
        with pytest.raises(ValueError):
            SynthSpec(gap_len_range=(-1, 2))
        with pytest.raises(ValueError):
            SynthSpec(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(num_intents=1)

    @pytest.mark.parametrize(
        "kw, field",
        [
            (dict(latent_dim=2**40), "latent_dim"),
            (dict(vocab_size=2**40), "vocab_size"),
            (dict(run_len_range=(2, 2**40)), "run_len_range"),
            (dict(utterances_per_intent=10**12), "utterances_per_intent"),
            (dict(templates_per_intent=10**12), "templates_per_intent"),
        ],
    )
    def test_sizes_bounded_from_above(self, kw, field):
        with pytest.raises(ValueError, match=f"spec too large: .*{field}"):
            SynthSpec(**kw)

    def test_size_bound_is_inclusive(self):
        edge = dict(num_intents=2, latent_dim=2**22, template_len_range=(1, 1),
                    run_len_range=(1, 1), utterances_per_intent=1)
        SynthSpec(vocab_size=2**6, **edge)  # a projection of exactly MAX_SPEC_ELEMENTS
        with pytest.raises(ValueError, match="vocab_size x latent_dim"):
            SynthSpec(vocab_size=2**6 + 1, **edge)

    def test_json_round_trip(self, tmp_path):
        spec = small_spec(noise_sigma=0.25)
        path = tmp_path / "spec.json"
        save_spec(path, spec)
        assert load_spec(path) == spec

    @pytest.mark.parametrize(
        "field",
        ["num_intents", "vocab_size", "latent_dim", "templates_per_intent",
         "utterances_per_intent", "seed"],
    )
    def test_integer_fields_reject_float_and_bool(self, field):
        value = getattr(SynthSpec(), field)
        for bad in (float(value), value + 0.5, True):
            with pytest.raises(TypeError, match=f"{field} must be an integer"):
                SynthSpec(**{field: bad})

    @pytest.mark.parametrize("field", ["logit_scale", "noise_sigma"])
    @pytest.mark.parametrize(
        "bad", [True, float("inf"), float("nan"), "0.5"], ids=["bool", "inf", "nan", "string"]
    )
    def test_float_fields_reject_bool_string_and_non_finite(self, field, bad):
        with pytest.raises(TypeError, match=f"{field} must be a finite number"):
            SynthSpec(**{field: bad})

    def test_float_fields_accept_integers(self):
        spec = SynthSpec(logit_scale=4, noise_sigma=0)
        assert (spec.logit_scale, spec.noise_sigma) == (4.0, 0.0)
        assert type(spec.logit_scale) is float and type(spec.noise_sigma) is float

    def test_range_bounds_reject_floats(self):
        with pytest.raises(TypeError, match="run_len_range must be an integer"):
            SynthSpec(run_len_range=(1.5, 4))

    @pytest.mark.parametrize(
        "blob",
        [{"num_intents": 6.0}, {"seed": 1.5}, {"gap_len_range": [0, 2.0]}, {"latent_dim": True}],
        ids=["float-intents", "float-seed", "float-range", "bool-dim"],
    )
    def test_load_spec_rejects_non_integer_fields(self, tmp_path, blob):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(FormatError, match="must be an integer"):
            load_spec(path)

    @pytest.mark.parametrize(
        "blob",
        [{"noise_sigma": True}, {"logit_scale": float("inf")}],
        ids=["bool-sigma", "infinite-scale"],
    )
    def test_load_spec_rejects_bool_and_non_finite_floats(self, tmp_path, blob):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(blob))  # inf is written as the JSON token Infinity
        with pytest.raises(FormatError, match="must be a finite number"):
            load_spec(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        save_spec(path, small_spec())
        blob = json.loads(path.read_text())
        blob["bogus"] = 1
        path.write_text(json.dumps(blob))
        with pytest.raises(FormatError):
            load_spec(path)


class TestProjection:
    def test_noiseless_frames_argmax_to_planted_ids(self):
        spec = small_spec(noise_sigma=0.0)
        proj, emb = plant_projection(spec)
        frames = emb[np.array([0, 3, 7, 3])].astype(np.float32)
        grid = project_softmax(LatentSequence(frames), proj)
        path = frame_argmax(grid)
        np.testing.assert_array_equal(path.arg_labels, [0, 3, 7, 3])

    def test_embeddings_unit_norm_and_rows_scaled(self):
        spec = small_spec()
        proj, emb = plant_projection(spec)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(
            np.linalg.norm(proj.weights, axis=1), spec.logit_scale, atol=1e-4
        )
        assert (proj.bias == 0).all()

    def test_same_spec_same_projection(self):
        a, _ = plant_projection(small_spec())
        b, _ = plant_projection(small_spec())
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_default_noise_keeps_decodes_clean(self):
        spec = SynthSpec(utterances_per_intent=10)
        corpus = build_corpus(spec)
        hit = 0
        for row, seq in zip(corpus.rows, corpus.sequences):
            grid = project_softmax(seq, corpus.projection)
            hit += list(greedy_decode(grid, corpus.vocab).ids) == row["labels"]
        assert hit / len(corpus.rows) >= 0.95


class TestTemplates:
    def test_no_immediate_repeats_and_unique(self):
        spec = SynthSpec()
        templates = make_templates(spec)
        assert len(templates) == spec.num_intents
        seen = set()
        for group in templates:
            assert len(group) == spec.templates_per_intent
            for t in group:
                assert t not in seen
                seen.add(t)
                assert all(a != b for a, b in zip(t, t[1:]))
                assert all(1 <= v < spec.vocab_size for v in t)
                assert spec.template_len_range[0] <= len(t) <= spec.template_len_range[1]

    def test_same_spec_same_templates(self):
        assert make_templates(SynthSpec()) == make_templates(SynthSpec())

    def test_disjoint_checker(self):
        assert templates_disjoint([[(1, 2)], [(2, 1)]])
        assert not templates_disjoint([[(1, 2)], [(1, 2)]])


class TestUtterance:
    def test_degenerate_ranges_give_exact_layout(self):
        spec = small_spec(
            template_len_range=(2, 2),
            run_len_range=(1, 1),
            gap_len_range=(1, 1),
            noise_sigma=0.0,
        )
        _, emb = plant_projection(spec)
        utt = generate_utterance(
            spec, 0, np.random.default_rng(5),
            embeddings=emb, templates=[[(3, 5)]] * spec.num_intents,
        )
        # layout: run, gap, run with unit lengths and no leading gap
        assert utt.seq.frames.shape == (3, spec.latent_dim)
        assert list(utt.true_labels.ids) == [3, 5]
        np.testing.assert_allclose(utt.seq.frames, emb[[3, 0, 5]], atol=1e-6)

    def test_frame_count_range(self):
        spec = SynthSpec()
        lo, hi = spec.template_len_range
        rlo, rhi = spec.run_len_range
        ghi = spec.gap_len_range[1]
        _, emb = plant_projection(spec)
        templates = make_templates(spec)
        rng = np.random.default_rng(6)
        for i in range(40):
            utt = generate_utterance(spec, i % spec.num_intents, rng,
                                     embeddings=emb, templates=templates)
            n = len(utt.true_labels)
            t = utt.seq.frames.shape[0]
            assert lo <= n <= hi
            assert n * rlo <= t <= n * rhi + (n - 1) * ghi

    def test_intent_out_of_range(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            generate_utterance(spec, 3, np.random.default_rng(0))

    def test_noiseless_decode_recovers_labels(self):
        corpus = build_corpus(small_spec(noise_sigma=0.0))
        for row, seq in zip(corpus.rows, corpus.sequences):
            grid = project_softmax(seq, corpus.projection)
            assert list(greedy_decode(grid, corpus.vocab).ids) == row["labels"]


class TestCorpus:
    def test_counts_and_balance(self):
        corpus = build_corpus(small_spec())
        assert len(corpus.rows) == 18
        counts = {}
        for row in corpus.rows:
            counts[row["intent"]] = counts.get(row["intent"], 0) + 1
        assert counts == {0: 6, 1: 6, 2: 6}
        assert [r["id"] for r in corpus.rows] == [f"u{i:05d}" for i in range(18)]

    def test_same_seed_is_byte_identical_on_disk(self, tmp_path):
        spec = small_spec()
        a, b = tmp_path / "a", tmp_path / "b"
        generate_corpus(spec, a)
        generate_corpus(spec, b)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_round_trip_load(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path / "c")
        built = build_corpus(spec)
        loaded = load_corpus(tmp_path / "c")
        assert loaded.spec == spec
        assert loaded.rows == built.rows
        for x, y in zip(loaded.sequences, built.sequences):
            np.testing.assert_array_equal(x.frames, y.frames)
        np.testing.assert_array_equal(
            loaded.projection.weights, built.projection.weights
        )

    def test_corrupt_manifest_rejected(self, tmp_path):
        generate_corpus(small_spec(), tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        row = json.loads(lines[0])
        del row["intent"]
        lines[0] = json.dumps(row)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize(
        "edit",
        [
            {"intent": 1.9},
            {"intent": True},
            {"labels": [1.5, 2]},
            {"labels": "12"},
        ],
        ids=["float-intent", "bool-intent", "float-label", "string-labels"],
    )
    def test_manifest_rejects_non_integer_intent_and_labels(self, tmp_path, edit):
        generate_corpus(small_spec(), tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[1] = json.dumps(dict(json.loads(lines[1]), **edit))
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="manifest line 2: .* must be an integer"):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize(
        "edit",
        [{"id": None}, {"id": ""}, {"id": 7}, {"id": "u00000"}, {"lseq": None}, {"lseq": ""}],
        ids=["null-id", "empty-id", "int-id", "duplicate-id", "null-lseq", "empty-lseq"],
    )
    def test_manifest_rejects_bad_and_duplicate_ids(self, tmp_path, edit):
        generate_corpus(small_spec(), tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        assert json.loads(lines[0])["id"] == "u00000"
        lines[1] = json.dumps(dict(json.loads(lines[1]), **edit))
        manifest.write_text("\n".join(lines) + "\n")
        (key,) = edit
        match = "duplicate id" if edit == {"id": "u00000"} else f"{key} must be a non-empty string"
        with pytest.raises(FormatError, match=f"manifest line 2: {match}"):
            load_corpus(tmp_path / "c")

    def test_manifest_invalid_utf8_names_file_and_line(self, tmp_path):
        generate_corpus(small_spec(), tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.jsonl"
        lines = manifest.read_bytes().splitlines()
        lines[1] = lines[1].replace(b'"u00001"', b'"u\xff"')
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(FormatError, match="manifest line 2: invalid JSON") as exc:
            load_corpus(tmp_path / "c")
        assert str(manifest) in str(exc.value)

    def test_vocab_matches_size(self):
        vocab = default_vocab(5)
        assert vocab.labels == ["_", "w1", "w2", "w3", "w4"]
        assert vocab.blank_index == 0

    def test_compression_headroom_on_default_style_corpus(self):
        corpus = build_corpus(SynthSpec(utterances_per_intent=5))
        ratios = []
        for seq in corpus.sequences:
            summary = summarize(seq, corpus.projection)
            ratios.append(summary.source_T / summary.num_segments)
        assert float(np.mean(ratios)) >= 3.0


class TestNoiseMonotonicity:
    def test_accuracy_degrades_with_sigma(self):
        accs = []
        for sigma in (0.0, 0.4, 0.8, 1.6, 3.2):
            spec = SynthSpec(utterances_per_intent=5, noise_sigma=sigma, seed=11)
            corpus = build_corpus(spec)
            hit = 0
            for row, seq in zip(corpus.rows, corpus.sequences):
                grid = project_softmax(seq, corpus.projection)
                hit += list(greedy_decode(grid, corpus.vocab).ids) == row["labels"]
            accs.append(hit / len(corpus.rows))
        assert accs[0] == 1.0
        # allow 1% slack against sampling noise, require a real drop overall
        for a, b in zip(accs, accs[1:]):
            assert b <= a + 0.01
        assert accs[-1] < accs[0]


class TestKFold:
    def test_round_robin_assignment(self):
        rows = [{"id": f"u{i}"} for i in range(10)]
        train, evl = kfold_split(rows, k=5)[0]
        assert evl == [0, 5]
        assert train == [1, 2, 3, 4, 6, 7, 8, 9]
        assert kfold_split(rows, k=5)[3][1] == [3, 8]

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(2, 60), k=st.integers(2, 8))
    def test_partition_properties(self, n, k):
        if n < k:
            with pytest.raises(ValueError):
                kfold_split([{}] * n, k=k)
            return
        folds = kfold_split([{}] * n, k=k)
        assert len(folds) == k
        flat = sorted(i for _, evl in folds for i in evl)
        assert flat == list(range(n))
        sizes = [len(evl) for _, evl in folds]
        assert max(sizes) - min(sizes) <= 1
        for train, evl in folds:
            assert sorted(train + evl) == list(range(n))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kfold_split([{}] * 4, k=1)

    def test_warns_when_fold_strands_an_intent(self):
        # intents cycle i % 3, so k=3 pins each intent to a single fold
        rows = [{"id": f"u{i}", "intent": i % 3} for i in range(12)]
        with pytest.warns(UserWarning, match="never occur") as rec:
            folds = kfold_split(rows, k=3)
        assert len(rec) == 3
        assert {rows[i]["intent"] for _, evl in folds for i in evl} == {0, 1, 2}

    def test_coprime_k_covers_all_intents_silently(self):
        rows = [{"id": f"u{i}", "intent": i % 3} for i in range(12)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            folds = kfold_split(rows, k=4)
        for train, _ in folds:
            assert {rows[i]["intent"] for i in train} == {0, 1, 2}

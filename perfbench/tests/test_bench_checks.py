"""Correct outputs pass the benchmark's checks; corrupted ones are
counted as failed operations."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ctsum
from ctsum import harness

import calibration
import checks
import reference as ref
import report
import tracing
import workloads

SPEC = ctsum.SynthSpec(utterances_per_intent=2, seed=5)


@pytest.fixture(scope="module")
def corpus():
    return ctsum.build_corpus(SPEC)


def expected_for(corpus, i):
    proj = corpus.projection
    return checks.Expected(corpus.sequences[i].frames, proj.weights, proj.bias, 0)


def test_program_outputs_pass(corpus):
    proj, vocab = corpus.projection, corpus.vocab
    model = ctsum.lu_init(ctsum.LUConfig(SPEC.latent_dim, SPEC.num_intents, hidden=4))
    for i, seq in enumerate(corpus.sequences):
        exp = expected_for(corpus, i)
        probs = ctsum.lu_forward(model, seq.frames)
        assert checks.check_probs(probs, int(np.argmax(probs)), ref.bigru_probs(model, seq.frames)) == []
        grid = ctsum.project_softmax(seq, proj)
        decoded = ctsum.greedy_decode(grid, vocab)
        assert checks.check_decode(decoded.ids, exp) == []
        summ = ctsum.summarize(seq, proj)
        assert checks.check_summary(summ, exp, proj.weights, proj.bias) == []
        gold = ctsum.LabelSequence(corpus.rows[i]["labels"])
        logprob = ctsum.ctc_forward_logprob(grid, gold, vocab)
        assert checks.check_ctc(logprob, exp, gold.ids, decoded.ids) == []


def test_perturbed_probability_fails(corpus):
    model = ctsum.lu_init(ctsum.LUConfig(SPEC.latent_dim, SPEC.num_intents, hidden=4))
    x = corpus.sequences[0].frames
    probs = ctsum.lu_forward(model, x).copy()
    want = ref.bigru_probs(model, x)
    probs[0] += 1e-6
    probs[1] -= 1e-6
    assert checks.check_probs(probs, int(np.argmax(probs)), want)
    wrong = (int(np.argmax(want)) + 1) % len(want)
    assert checks.check_probs(want, wrong, want)


def test_corrupted_summary_fails(corpus):
    proj = corpus.projection
    i = next(i for i, s in enumerate(corpus.sequences) if ctsum.summarize(s, proj).num_segments > 1)
    exp = expected_for(corpus, i)
    summ = ctsum.summarize(corpus.sequences[i], proj)
    swapped = summ.vectors.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    bad = ctsum.SummarizedSequence(swapped, summ.segments, summ.source_T)
    assert checks.check_summary(bad, exp, proj.weights, proj.bias)
    seg = summ.segments[0]
    if seg.length > 1:
        moved = [replace(seg, rep_frame=seg.start + (seg.rep_frame == seg.start))] + summ.segments[1:]
        assert checks.check_summary(
            ctsum.SummarizedSequence(summ.vectors, moved, summ.source_T), exp, proj.weights, proj.bias
        )


def test_wrong_ctc_score_and_roundtrip_fail(corpus):
    proj, vocab = corpus.projection, corpus.vocab
    seq = corpus.sequences[0]
    exp = expected_for(corpus, 0)
    grid = ctsum.project_softmax(seq, proj)
    gold = ctsum.LabelSequence(corpus.rows[0]["labels"])
    logprob = ctsum.ctc_forward_logprob(grid, gold, vocab)
    assert checks.check_ctc(logprob * (1 + 1e-6), exp, gold.ids, gold.ids)
    summ = ctsum.summarize(seq, proj)
    rescored = [replace(s, rep_score=s.rep_score * 0.5) for s in summ.segments]
    back = ctsum.SummarizedSequence(summ.vectors, rescored, summ.source_T)
    assert checks.check_sseq_roundtrip(summ, back, seq.num_frames)
    assert checks.check_sseq_roundtrip(summ, summ, seq.num_frames + 1)


def test_training_checks():
    model = ctsum.lu_init(ctsum.LUConfig(3, 6))
    model.train_losses = [1.0, 0.9]
    assert checks.check_training(model, 2, 0.9, 6, 1e-6) == []
    model.train_losses = [1.0, 1.1]
    assert checks.check_training(model, 2, 0.9, 6, 1e-6)
    model.train_losses = [1.0, 0.9]
    assert checks.check_training(model, 2, 0.25, 6, 1e-6)  # within the margin of chance
    assert checks.check_training(model, 2, 0.9, 6, 1e-3)


def _perturb_probs(fn):
    def corrupted(model, x):
        probs = fn(model, x).copy()
        probs[0] += 1e-6
        probs[1] -= 1e-6
        return probs

    return corrupted


def _swap_summary_frames(fn):
    def corrupted(seq, proj, **kwargs):
        summ = fn(seq, proj, **kwargs)
        if summ.num_segments > 1:
            summ.vectors[[0, 1]] = summ.vectors[[1, 0]]
        return summ

    return corrupted


@pytest.mark.parametrize(
    "system, attr, corrupt", [("p1", "lu_forward", _perturb_probs), ("e2", "summarize", _swap_summary_frames)]
)
def test_corrupted_serve_output_counts_as_failed(tmp_path, system, attr, corrupt):
    patches = tracing.Patches()
    patches.patch(harness, attr, corrupt)
    try:
        out = workloads.serve(system, 3, 0.0, tracing.NoTrace(), calibration.HostClock(), tmp_path)
    finally:
        patches.restore()
    assert out.attempted == workloads.MIN_PASSES * 600
    assert out.failed > 0.9 * out.attempted
    assert not out.setup_problems


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in report.END_TO_END]
    tracer = tracing.Tracer()
    layer = tracer.metrics(workloads.SPANS, workloads.SELF_TIME_SPANS, workloads.COUNTS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

"""The benchmark's workloads, each one caller in a closed loop.

``serve_<system>``  one utterance at a time through ``harness.run_system``
                    for one system (P1, E1 or E2);
``train``           ``lu_train`` for E1, then E2 fine-tuned from that E1
                    on summaries, then P1 on gold label ids, on one fold;
``offline``         on-disk processing of a long-utterance corpus: read,
                    decode, CTC-score, summarize, write and re-read.

Every run repeats its set-up ``SETUP_REPEATS`` times, then attempts whole
rounds (a pass over the corpus, or one training round) until the timed
operations add up to the requested wall seconds. Each operation's outputs
are checked after its timer stops; a failed check counts the operation as
failed. Times are recorded in reference-host seconds (``calibration``).
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ctsum
from ctsum import cts, harness

import checks
import reference as ref
from tracing import Patches, tap

SETUP_REPEATS = 5
# serve and offline draw their 600 utterances from ten default-spec
# corpora of 60: one corpus draws only 30 templates, and its median
# utterance length moves from 24 to 34 frames across seeds 1-10
CORPUS_PARTS = 10
MIN_PASSES = 2  # 2 x 600 utterances: at least 1000 latency samples
TRAIN_EPOCHS = 2  # per lu_train call; harness crossval uses 10-15
TRAIN_ROWS = 32  # rows per timed lu_train call: 2 minibatches of 16 per epoch
TRAIN_FOLDS = 5
OFFLINE_RUN_LEN = (10, 30)  # frames per label run: T mean ~118, T/S ~13
NOMINAL_FRAMES_PER_STEP = 4  # one latent frame stands for 4 x frame shift

WORKLOADS = ("serve_p1", "serve_e1", "serve_e2", "train", "offline")

SPANS = (
    "import.ctsum",
    "synth.build_corpus",
    "synth.generate_corpus",
    "lu.save_model",
    "lu.load_model",
    "harness.run_system.p1",
    "harness.run_system.e1",
    "harness.run_system.e2",
    "seqcore.project_softmax.p1",
    "ctc.greedy_decode.p1",
    "lu.embed_labels",
    "lu.lu_forward.p1",
    "lu.lu_forward.e1",
    "lu.lu_forward.e2",
    "cts.summarize",
    "seqcore.project_softmax.e2",
    "seqcore.frame_argmax",
    "cts.segment_path",
    "cts.select_representatives",
    "lu.lu_train.p1",
    "lu.lu_train.e1",
    "lu.lu_train.e2",
    "cts.summarize.train",
    "seqcore.read_lseq",
    "seqcore.project_softmax.source",
    "ctc.greedy_decode.source",
    "ctc.ctc_forward_logprob",
    "cts.write_sseq",
    "cts.read_sseq",
    "seqcore.project_softmax.summary",
    "ctc.greedy_decode.summary",
)
SELF_TIME_SPANS = (
    "harness.run_system.p1",
    "harness.run_system.e1",
    "harness.run_system.e2",
    "cts.summarize",
    "cts.summarize.train",
)
COUNTS = (
    ("serve.frames", "frames"),
    ("serve.segments", "segments"),
    ("serve.labels", "labels"),
    ("lu.train_rows.p1", "rows"),
    ("lu.train_rows.e1", "rows"),
    ("lu.train_rows.e2", "rows"),
    ("lu.adam_steps.p1", "steps"),
    ("lu.adam_steps.e1", "steps"),
    ("lu.adam_steps.e2", "steps"),
    ("ctc.forward_cells", "cells"),
    ("io.bytes_read", "bytes"),
    ("io.bytes_written", "bytes"),
)


@dataclass
class Outcome:
    setup_s: list = field(default_factory=list)  # reference seconds per set-up
    busy_s: float = 0.0  # reference seconds of all operations
    work: int = 0  # utterances (train: utterance-epochs) of all operations
    audio_s: float = 0.0  # nominal audio seconds the operations covered
    # per input (an utterance; in train a system): reference ms per
    # utterance of each of its operations
    per_input_ms: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    setup_problems: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)  # message -> operations

    def record(self, key, seconds, work, audio_s, problems):
        self.busy_s += seconds
        self.work += work
        self.audio_s += audio_s
        self.per_input_ms.setdefault(key, []).append(1e3 * seconds / work)
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                self.problems[p] = self.problems.get(p, 0) + 1


def _child_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1)[0])


def _part_specs(seed: int, **overrides) -> list:
    per_intent = ctsum.SynthSpec().utterances_per_intent // CORPUS_PARTS
    return [
        ctsum.SynthSpec(seed=_child_seed(seed, 100 + k), utterances_per_intent=per_intent, **overrides)
        for k in range(CORPUS_PARTS)
    ]


def _audio_s(seq) -> float:
    return seq.num_frames * seq.frame_shift_ms * NOMINAL_FRAMES_PER_STEP / 1e3


def _trace_summarize_steps(patches: Patches, tracer):
    """Spans for the four public steps ``cts.summarize`` composes."""
    for attr, name in (
        ("project_softmax", "seqcore.project_softmax.e2"),
        ("frame_argmax", "seqcore.frame_argmax"),
        ("segment_path", "cts.segment_path"),
        ("select_representatives", "cts.select_representatives"),
    ):
        patches.patch(cts, attr, tracer.traced(name))


def _timed_setup(out: Outcome, clock, make):
    state = None
    for k in range(SETUP_REPEATS):
        state, seconds = clock.cpu_time(make, k)
        out.setup_s.append(seconds)
    return state


def run(workload: str, seed: int, seconds: float, tracer, clock, workdir: Path) -> Outcome:
    workdir.mkdir(parents=True, exist_ok=True)
    if workload.startswith("serve_"):
        return serve(workload.split("_", 1)[1], seed, seconds, tracer, clock, workdir)
    if workload == "train":
        return train(seed, seconds, tracer, clock)
    if workload == "offline":
        return offline(seed, seconds, tracer, clock, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# serve


def _lu_config(spec, system: str, seed: int, **overrides) -> ctsum.LUConfig:
    cfg = ctsum.HarnessConfig()
    key = {"e1": 0, "e2": 1, "p1": 2}[system]
    return ctsum.LUConfig(
        spec.latent_dim,
        spec.num_intents,
        hidden=cfg.hidden,
        layers=cfg.layers,
        batch_size=cfg.batch_size,
        seed=_child_seed(seed, key),
        vocab_size=spec.vocab_size if system == "p1" else None,
        **overrides,
    )


def _roundtrip_problems(model, loaded) -> list:
    if loaded.config != model.config:
        return ["model config changed in the .ctsm round trip"]
    for a, b in zip(model.param_arrays(), loaded.param_arrays()):
        if not np.array_equal(a.astype(np.float32).astype(np.float64), b):
            return ["model parameters changed in the .ctsm round trip"]
    return []


def serve(system: str, seed: int, seconds: float, tracer, clock, workdir: Path) -> Outcome:
    sid = ctsum.SystemId[system.upper()]
    out = Outcome()
    build_corpus = tracer.wrap(ctsum.build_corpus, "synth.build_corpus")
    save_model = tracer.wrap(ctsum.save_model, "lu.save_model")
    load_model = tracer.wrap(ctsum.load_model, "lu.load_model")

    def setup(k):
        specs = _part_specs(seed)
        corpora = [build_corpus(spec) for spec in specs]
        model = ctsum.lu_init(_lu_config(specs[0], system, seed))
        path = workdir / f"{system}-{k}.ctsm"
        save_model(path, model)
        return corpora, model, load_model(path)

    corpora, model, loaded = _timed_setup(out, clock, setup)
    out.setup_problems += _roundtrip_problems(model, loaded)
    model = loaded

    probs_out, decode_out, summary_out = [], [], []
    patches = Patches()
    patches.patch(harness, "lu_forward", tap(probs_out))
    patches.patch(harness, "lu_forward", tracer.traced(f"lu.lu_forward.{system}"))
    if sid is ctsum.SystemId.P1:
        patches.patch(harness, "project_softmax", tracer.traced("seqcore.project_softmax.p1"))
        patches.patch(harness, "greedy_decode", tap(decode_out))
        patches.patch(harness, "greedy_decode", tracer.traced("ctc.greedy_decode.p1"))
        patches.patch(harness, "embed_labels", tracer.traced("lu.embed_labels"))
    if sid is ctsum.SystemId.E2:
        patches.patch(harness, "summarize", tap(summary_out))
        patches.patch(harness, "summarize", tracer.traced("cts.summarize"))
        _trace_summarize_steps(patches, tracer)
    run_system = tracer.wrap(ctsum.run_system, f"harness.run_system.{system}")

    expected = {}  # input index -> (Expected, reference probabilities)

    def reference(i, seq, proj, vocab):
        if i not in expected:
            exp = checks.Expected(seq.frames, proj.weights, proj.bias, vocab.blank_index)
            if sid is ctsum.SystemId.P1:
                x = ref.embed(model, exp.decode)
            elif sid is ctsum.SystemId.E1:
                x = seq.frames
            else:
                x = exp.summary_vectors
            expected[i] = exp, ref.bigru_probs(model, x)
        return expected[i]

    items = [(row, seq, c.projection, c.vocab) for c in corpora for row, seq in zip(c.rows, c.sequences)]
    measured = 0.0
    passes = 0
    try:
        while passes < MIN_PASSES or measured < seconds:
            for i, (row, seq, proj, vocab) in enumerate(items):
                del probs_out[:], decode_out[:], summary_out[:]
                result, wall, dt = clock.time(run_system, sid, model, [row], [seq], proj, vocab)
                measured += wall

                exp, want = reference(i, seq, proj, vocab)
                problems = []
                if len(probs_out) != 1 or list(result.predictions) != [row["id"]]:
                    problems.append("expected one classifier call and one prediction")
                else:
                    problems += checks.check_probs(probs_out[0], result.predictions[row["id"]], want)
                if sid is ctsum.SystemId.P1:
                    problems += checks.check_decode(decode_out[0].ids, exp)
                if sid is ctsum.SystemId.E2:
                    problems += checks.check_summary(summary_out[0], exp, proj.weights, proj.bias)
                    tracer.count("serve.segments", summary_out[0].num_segments)
                tracer.count("serve.frames", seq.num_frames)
                tracer.count("serve.labels", exp.decode.size)
                out.record(i, dt, 1, _audio_s(seq), problems)
            passes += 1
    finally:
        patches.restore()
    return out


# ---------------------------------------------------------------------------
# train

# Tiny shapes for the finite-difference gradient check: a frame input
# (E1/E2 flavour) and a label-id input through the embedding (P1 flavour).
_GRAD_SHAPES = dict(input_dim=3, num_intents=3, hidden=3, layers=2)


def gradient_errors() -> dict:
    rng = np.random.default_rng(0)
    frames = (rng.standard_normal((4, 3)), 1)
    ids = (np.array([1, 3, 2], dtype=np.int64), 2)
    return {
        "frames": ctsum.gradient_check(ctsum.LUConfig(**_GRAD_SHAPES, seed=1), frames),
        "ids": ctsum.gradient_check(ctsum.LUConfig(**_GRAD_SHAPES, seed=2, vocab_size=5), ids),
    }


def _accuracy(model, inputs, intents) -> float:
    hits = [int(np.argmax(ref.bigru_probs(model, x))) == y for x, y in zip(inputs, intents)]
    return float(np.mean(hits))


def _train_systems(fns, configs, items, clock):
    """E1 on frames, E2 fine-tuned from that E1 on summaries (summarizing
    counts toward E2), P1 on gold label ids. ``items`` are (sequence, row,
    projection) triples; returns {system: (model, wall s, reference s,
    inputs)} and the summaries."""
    latent = [(seq.frames, row["intent"]) for seq, row, _ in items]
    text = [(np.asarray(row["labels"], dtype=np.int64), row["intent"]) for _, row, _ in items]

    def e2(e1):
        summaries = [fns["summarize"](seq, proj) for seq, _, proj in items]
        inputs = [(s.vectors, row["intent"]) for s, (_, row, _) in zip(summaries, items)]
        return fns["e2"](configs["e2"], inputs, init_model=e1), inputs, summaries

    e1_model, *e1_time = clock.time(fns["e1"], configs["e1"], latent)
    (e2_model, summarized, summaries), *e2_time = clock.time(e2, e1_model)
    p1_model, *p1_time = clock.time(fns["p1"], configs["p1"], text)
    trained = {
        "e1": (e1_model, *e1_time, latent),
        "e2": (e2_model, *e2_time, summarized),
        "p1": (p1_model, *p1_time, text),
    }
    return trained, summaries


def _summary_problems(summaries, expected) -> list:
    return [
        p
        for s, exp in zip(summaries, expected)
        for p in checks.check_summary(s, exp, exp.weights, exp.bias)
    ]


def train(seed: int, seconds: float, tracer, clock) -> Outcome:
    """Timed calls train on a ``TRAIN_ROWS`` slice, so that a run holds
    dozens of repeats; one untimed training on a whole fold first checks
    that each system learns."""
    out = Outcome()
    cfg = ctsum.HarnessConfig()
    build_corpus = tracer.wrap(ctsum.build_corpus, "synth.build_corpus")

    def setup(_k):
        spec = ctsum.SynthSpec(seed=seed)
        corpus = build_corpus(spec)
        # the timed slice: evenly spaced length ranks among the fold-0
        # training rows of the part corpora, so that its mix of lengths
        # does not swing with the seed
        pool = [
            (c.sequences[i], c.rows[i], c.projection)
            for c in (build_corpus(s) for s in _part_specs(seed))
            for i in ctsum.kfold_split(c.rows, TRAIN_FOLDS)[0][0]
        ]
        pool.sort(key=lambda item: item[0].num_frames)
        step = len(pool) / TRAIN_ROWS
        return spec, corpus, [pool[int((k + 0.5) * step)] for k in range(TRAIN_ROWS)]

    spec, corpus, timed = _timed_setup(out, clock, setup)
    configs = {
        "e1": _lu_config(spec, "e1", seed, learning_rate=cfg.learning_rate, epochs=TRAIN_EPOCHS),
        "e2": _lu_config(spec, "e2", seed, learning_rate=cfg.fine_tune_lr, epochs=TRAIN_EPOCHS),
        "p1": _lu_config(spec, "p1", seed, learning_rate=cfg.learning_rate, epochs=TRAIN_EPOCHS),
    }
    expect = lambda seq, proj: checks.Expected(seq.frames, proj.weights, proj.bias, corpus.vocab.blank_index)

    # whole-fold training on the default corpus, untimed and untraced:
    # losses fall and held-out accuracy beats chance; the gradient check
    # covers both input kinds
    grad = gradient_errors()
    proj = corpus.projection
    train_idx, eval_idx = ctsum.kfold_split(corpus.rows, TRAIN_FOLDS)[0]
    plain = {"e1": ctsum.lu_train, "e2": ctsum.lu_train, "p1": ctsum.lu_train, "summarize": ctsum.summarize}
    fold = [(corpus.sequences[i], corpus.rows[i], proj) for i in train_idx]
    trained, summaries = _train_systems(plain, configs, fold, clock)
    eval_exp = [expect(corpus.sequences[i], proj) for i in eval_idx]
    eval_inputs = {
        "e1": [e.frames for e in eval_exp],
        "e2": [e.summary_vectors for e in eval_exp],
        "p1": [ref.embed(trained["p1"][0], e.decode) for e in eval_exp],
    }
    verdict = {}
    for system, (model, *_) in trained.items():
        acc = _accuracy(model, eval_inputs[system], [corpus.rows[i]["intent"] for i in eval_idx])
        err = grad["ids" if system == "p1" else "frames"]
        verdict[system] = checks.check_training(model, TRAIN_EPOCHS, acc, spec.num_intents, err)
    verdict["e2"] += _summary_problems(summaries, [expect(seq, p) for seq, _, p in fold])

    fns = {s: tracer.wrap(ctsum.lu_train, f"lu.lu_train.{s}") for s in configs}
    fns["summarize"] = tracer.wrap(ctsum.summarize, "cts.summarize.train")
    patches = Patches()
    _trace_summarize_steps(patches, tracer)
    timed_exp = [expect(seq, p) for seq, _, p in timed]
    audio = sum(_audio_s(seq) for seq, _, _ in timed) * TRAIN_EPOCHS
    steps = math.ceil(TRAIN_ROWS / cfg.batch_size) * TRAIN_EPOCHS
    measured = 0.0
    try:
        while out.attempted == 0 or measured < seconds:
            trained, summaries = _train_systems(fns, configs, timed, clock)
            measured += sum(wall for _, wall, _, _ in trained.values())
            for system, (model, _, dt, inputs) in trained.items():
                problems = verdict[system] + checks.check_losses(model, TRAIN_EPOCHS)
                # the trained model classifies its first input like the reference
                x = inputs[0][0]
                if system == "p1":
                    probs, want = ctsum.lu_forward(model, ctsum.embed_labels(x, model)), ref.bigru_probs(model, ref.embed(model, x))
                else:
                    probs, want = ctsum.lu_forward(model, x), ref.bigru_probs(model, x)
                problems += checks.check_probs(probs, int(np.argmax(probs)), want)
                if system == "e2":
                    problems += _summary_problems(summaries, timed_exp)
                tracer.count(f"lu.train_rows.{system}", sum(len(x) for x, _ in inputs) * TRAIN_EPOCHS)
                tracer.count(f"lu.adam_steps.{system}", steps)
                out.record(system, dt, TRAIN_ROWS * TRAIN_EPOCHS, audio, problems)
    finally:
        patches.restore()
    return out


# ---------------------------------------------------------------------------
# offline


def offline(seed: int, seconds: float, tracer, clock, workdir: Path) -> Outcome:
    out = Outcome()
    generate_corpus = tracer.wrap(ctsum.generate_corpus, "synth.generate_corpus")

    def setup(k):
        specs = _part_specs(seed, run_len_range=OFFLINE_RUN_LEN)
        dirs = [workdir / f"corpus-{k}-{part}" for part in range(len(specs))]
        return [(d, generate_corpus(spec, d)) for d, spec in zip(dirs, specs)]

    corpora = _timed_setup(out, clock, setup)
    sseq_dir = workdir / "sseq"
    sseq_dir.mkdir()

    read_lseq = tracer.wrap(ctsum.read_lseq, "seqcore.read_lseq")
    project_source = tracer.wrap(ctsum.project_softmax, "seqcore.project_softmax.source")
    decode_source = tracer.wrap(ctsum.greedy_decode, "ctc.greedy_decode.source")
    ctc_forward = tracer.wrap(ctsum.ctc_forward_logprob, "ctc.ctc_forward_logprob")
    summarize = tracer.wrap(ctsum.summarize, "cts.summarize")
    write_sseq = tracer.wrap(ctsum.write_sseq, "cts.write_sseq")
    read_sseq = tracer.wrap(ctsum.read_sseq, "cts.read_sseq")
    project_summary = tracer.wrap(ctsum.project_softmax, "seqcore.project_softmax.summary")
    decode_summary = tracer.wrap(ctsum.greedy_decode, "ctc.greedy_decode.summary")
    patches = Patches()
    _trace_summarize_steps(patches, tracer)

    items = [
        (
            corpus_dir / row["lseq"],
            sseq_dir / f"{part}-{row['id']}.sseq",
            ctsum.LabelSequence(row["labels"]),
            seq,
            corpus.projection,
            corpus.vocab,
        )
        for part, (corpus_dir, corpus) in enumerate(corpora)
        for row, seq in zip(corpus.rows, corpus.sequences)
    ]

    def process(lseq_path, sseq_path, gold, proj, vocab):
        seq = read_lseq(lseq_path)
        grid = project_source(seq, proj)
        decoded = decode_source(grid, vocab)
        logprob = ctc_forward(grid, gold, vocab)
        summ = summarize(seq, proj)
        write_sseq(sseq_path, summ)
        back = read_sseq(sseq_path)
        redecoded = decode_summary(project_summary(back.to_latent(), proj), vocab)
        return seq, decoded, logprob, summ, back, redecoded

    expected = {}
    measured = 0.0
    passes = 0
    try:
        while passes == 0 or measured < seconds:
            for i, (lseq_path, sseq_path, gold, source, proj, vocab) in enumerate(items):
                outputs, wall, dt = clock.time(process, lseq_path, sseq_path, gold, proj, vocab)
                seq, decoded, logprob, summ, back, redecoded = outputs
                measured += wall

                w, b = proj.weights, proj.bias
                exp = expected.get(i)
                if exp is None:
                    exp = expected[i] = checks.Expected(source.frames, w, b, vocab.blank_index)
                problems = checks.check_same_frames(seq, source.frames, source.frame_shift_ms)
                problems += checks.check_decode(decoded.ids, exp)
                problems += checks.check_ctc(logprob, exp, gold.ids, decoded.ids)
                problems += checks.check_summary(summ, exp, w, b)
                problems += checks.check_sseq_roundtrip(summ, back, source.num_frames)
                problems += checks.check_decode(redecoded.ids, exp)
                sseq_bytes = sseq_path.stat().st_size
                tracer.count("ctc.forward_cells", source.num_frames * (2 * len(gold) + 1))
                tracer.count("io.bytes_read", lseq_path.stat().st_size + sseq_bytes)
                tracer.count("io.bytes_written", sseq_bytes)
                out.record(i, dt, 1, _audio_s(source), problems)
            passes += 1
    finally:
        patches.restore()
        shutil.rmtree(sseq_dir, ignore_errors=True)
    return out

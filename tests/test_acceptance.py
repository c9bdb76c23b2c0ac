"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``ACCEPTANCE n <name>: PASS|FAIL`` line outside
pytest's capture, so a plain ``pytest -v`` transcript doubles as the
acceptance record. Assertions carry the measured numbers for diagnosis.

The default-corpus cross-validation (criteria 6 and 7) is the expensive
part; it runs once and both criteria read from the same report.
"""

import math
import time

import numpy as np
import pytest

from ctsum.ctc import (
    LabelSequence,
    ctc_forward_logprob,
    enumerate_alignments_logprob,
    greedy_decode,
)
from ctsum.cts import summarize
from ctsum.harness import HarnessConfig, run_crossval, strip_timing
from ctsum.lu import LUConfig, gradient_check
from ctsum.seqcore import (
    LatentSequence,
    PosteriorGrid,
    ProjectionMatrix,
    Vocabulary,
    frame_argmax,
    project_softmax,
)
from ctsum.synth import SynthSpec, build_corpus


def announce(capfd, num, name, ok):
    with capfd.disabled():
        print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    return ok


def random_case(seed):
    """A random latent sequence, projection and vocabulary (blank id 0)."""
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 61))
    d = int(rng.integers(2, 9))
    v = int(rng.integers(2, 11))
    seq = LatentSequence(rng.standard_normal((t, d)).astype(np.float32))
    proj = ProjectionMatrix((rng.standard_normal((v, d)) * 1.5).astype(np.float32))
    vocab = Vocabulary([f"l{i}" for i in range(v)], blank_index=0)
    return seq, proj, vocab


@pytest.fixture(scope="module")
def default_corpus():
    return build_corpus(SynthSpec())


@pytest.fixture(scope="module")
def default_crossval():
    start = time.perf_counter()
    report = run_crossval(SynthSpec(), k=5)
    return report, time.perf_counter() - start


def test_1_ctc_forward_matches_enumeration(capfd):
    rng = np.random.default_rng(2024)
    # one untimed call first, so first-use costs stay off the clock
    warm = PosteriorGrid(rng.dirichlet(np.ones(3), size=2))
    warm_vocab = Vocabulary(["0", "1", "2"])
    ctc_forward_logprob(warm, LabelSequence([1]), warm_vocab)

    start = time.perf_counter()
    worst = 0.0
    inf_mismatch = 0
    for _ in range(500):
        t = int(rng.integers(1, 9))
        v = int(rng.integers(2, 5))
        n_labels = int(rng.integers(0, 4))
        grid = PosteriorGrid(rng.dirichlet(np.ones(v), size=t))
        vocab = Vocabulary([str(i) for i in range(v)])
        target = LabelSequence(rng.integers(1, v, size=n_labels))
        got = ctc_forward_logprob(grid, target, vocab)
        want = enumerate_alignments_logprob(grid, target, vocab)
        if math.isinf(got) or math.isinf(want):
            inf_mismatch += got != want
        else:
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-6 and inf_mismatch == 0 and elapsed < 60.0
    assert announce(capfd, 1, "ctc-forward-oracle", ok), (
        f"worst |diff|={worst:.3g}, inf mismatches={inf_mismatch}, {elapsed:.1f}s"
    )


def test_2_decode_preservation(capfd, default_corpus):
    def preserved(seq, proj, vocab):
        before = greedy_decode(project_softmax(seq, proj), vocab)
        summ = summarize(seq, proj)
        after = greedy_decode(project_softmax(summ.to_latent(), proj), vocab)
        return list(before.ids) == list(after.ids)

    failures = 0
    checked = 0
    for seed in range(1000):
        failures += not preserved(*random_case(seed))
        checked += 1
    for seq in default_corpus.sequences:
        failures += not preserved(seq, default_corpus.projection, default_corpus.vocab)
        checked += 1

    ok = failures == 0 and checked >= 1600
    assert announce(capfd, 2, "decode-preservation", ok), (
        f"{failures} of {checked} cases changed their decode"
    )


def test_3_length_theorem_and_corpus_compression(capfd, default_corpus):
    violations = 0
    for seed in range(1000, 2000):
        seq, proj, vocab = random_case(seed)
        n_labels = len(greedy_decode(project_softmax(seq, proj), vocab))
        if summarize(seq, proj).num_segments > 2 * n_labels + 1:
            violations += 1

    frames_per_segment = []
    segments_per_label = []
    empty_decodes = 0
    for seq in default_corpus.sequences:
        summ = summarize(seq, default_corpus.projection)
        n_labels = len(
            greedy_decode(
                project_softmax(seq, default_corpus.projection), default_corpus.vocab
            )
        )
        frames_per_segment.append(seq.num_frames / summ.num_segments)
        if n_labels == 0:
            empty_decodes += 1
        else:
            segments_per_label.append(summ.num_segments / n_labels)
    mean_ts = float(np.mean(frames_per_segment))
    mean_sl = float(np.mean(segments_per_label))

    ok = violations == 0 and empty_decodes == 0 and mean_ts >= 3.0 and mean_sl <= 3.0
    assert announce(capfd, 3, "length-theorem", ok), (
        f"violations={violations}, empty decodes={empty_decodes}, "
        f"mean T/S={mean_ts:.3f} (need >= 3.0), mean S/L={mean_sl:.3f} (need <= 3.0)"
    )


def test_4_selection_bit_identity(capfd, default_corpus):
    bad = 0
    segments = 0

    def check(seq, proj):
        nonlocal bad, segments
        path = frame_argmax(project_softmax(seq, proj))
        summ = summarize(seq, proj)
        for i, seg in enumerate(summ.segments):
            segments += 1
            rep = seg.rep_frame
            good = (
                seg.start <= rep < seg.end
                and summ.vectors[i].tobytes() == seq.frames[rep].tobytes()
                and int(path.arg_labels[rep]) == seg.label
                and path.arg_scores[rep] == path.arg_scores[seg.start : seg.end].max()
            )
            bad += not good

    for seed in range(2000, 3000):
        seq, proj, _ = random_case(seed)
        check(seq, proj)
    for seq in default_corpus.sequences:
        check(seq, default_corpus.projection)

    ok = bad == 0 and segments > 0
    assert announce(capfd, 4, "selection-bit-identity", ok), (
        f"{bad} of {segments} segments had a non-source or non-maximal vector"
    )


def test_5_gradient_check(capfd):
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(20):
        hidden = int(rng.integers(2, 4))
        layers = int(rng.integers(1, 3))
        k = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        t = int(rng.integers(1, 5))
        if i % 4 == 3:  # exercise the label-embedding input route too
            cfg = LUConfig(d, k, hidden=hidden, layers=layers, seed=i, vocab_size=5)
            x = rng.integers(1, 5, size=t)
        else:
            cfg = LUConfig(d, k, hidden=hidden, layers=layers, seed=i)
            x = rng.standard_normal((t, d))
        worst = max(worst, gradient_check(cfg, (x, int(rng.integers(k)))))

    ok = worst < 1e-4
    assert announce(capfd, 5, "gradient-check", ok), (
        f"max relative error {worst:.3g} (need < 1e-4)"
    )


def test_6_default_corpus_accuracy(capfd, default_crossval):
    report, elapsed = default_crossval
    per = report["summary"]["per_system"]
    accs = {name: per[name]["accuracy_pct"] for name in ("P1", "E1", "E2")}

    ok = (
        all(a >= 90.0 for a in accs.values())
        and accs["E2"] >= accs["E1"] - 2.0
        and elapsed < 600.0
    )
    assert announce(capfd, 6, "end-to-end-accuracy", ok), (
        f"accuracies={accs}, E2-E1={accs['E2'] - accs['E1']:+.2f} "
        f"(need >= -2.0), elapsed {elapsed:.0f}s (need < 600)"
    )


def test_7_rtf_direction(capfd, default_crossval):
    report, _ = default_crossval
    per = report["summary"]["per_system"]
    e1_lu = per["E1"]["stage_ms"]["classify"]
    e2_lu = per["E2"]["stage_ms"]["classify"]
    e1_total = per["E1"]["total_ms"]
    e2_total = per["E2"]["total_ms"]
    compression = report["summary"]["compression_ratio_e2"]

    ok = compression >= 3.0 and e2_lu <= 0.5 * e1_lu and e2_total <= e1_total
    assert announce(capfd, 7, "rtf-direction", ok), (
        f"compression={compression:.3f} (need >= 3.0), "
        f"LU stage E2/E1={e2_lu / e1_lu:.3f} (need <= 0.5), "
        f"total E2={e2_total:.1f}ms vs E1={e1_total:.1f}ms (need E2 <= E1)"
    )


def test_8_determinism(capfd):
    spec = SynthSpec(
        num_intents=3,
        vocab_size=9,
        latent_dim=8,
        templates_per_intent=2,
        utterances_per_intent=10,
        seed=5,
    )
    cfg = HarnessConfig(hidden=8, epochs=2, fine_tune_epochs=2, text_epochs=2)
    first = run_crossval(spec, k=3, cfg=cfg)
    second = run_crossval(spec, k=3, cfg=cfg)

    ok = strip_timing(first) == strip_timing(second)
    assert announce(capfd, 8, "report-determinism", ok), (
        "reports differ outside timing fields"
    )

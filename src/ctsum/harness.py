"""Train and compare the three intent systems on one corpus.

The comparison is always three-way and nothing else:

  P1  project frames to posteriors, greedy-decode to label ids, embed the
      ids, classify (the explicit-transcription pipeline);
  E1  classify raw latent frames directly;
  E2  summarize frames first, then classify with a model fine-tuned from
      the matching E1 model.

All three share one classifier architecture and identical layer sizes so
accuracy and speed differences come from the inputs, not the capacity.

Accuracy comes from k-fold cross-validation; speed from a per-utterance
wall-clock benchmark, run in the caller's BLAS thread configuration and
expressed as a real-time factor (RTF): processing
seconds per nominal audio second. Latent frames stand for a frontend that
consumed four 10-ms audio frames per step, so one latent frame represents
40 ms of nominal audio.

Reports are JSON validated against the schema shipped with the package,
and are byte-reproducible for a fixed seed apart from timing fields.
"""

from __future__ import annotations

import copy
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

from ._version import __version__
from .cts import summarize
from .ctc import greedy_decode
from .lu import LUConfig, LUModel, embed_labels, lu_forward, lu_train
from .seqcore import LatentSequence, ProjectionMatrix, Vocabulary, project_softmax
from .synth import Corpus, SynthSpec, build_corpus, kfold_split

FRONTEND_FRAMES_PER_STEP = 4
TIMING_KEYS = frozenset({"rtf", "stage_ms", "total_ms"})
_SEED_KEY_FOLD_BASE = 1000


class SystemId(str, Enum):
    """The three comparable systems. An attention-rescoring variant is
    deliberately not defined and must never appear in reports."""

    P1 = "P1"
    E1 = "E1"
    E2 = "E2"


STAGES = {
    SystemId.P1: ("project", "decode", "embed", "classify"),
    SystemId.E1: ("classify",),
    SystemId.E2: ("summarize", "classify"),
}


@dataclass
class HarnessConfig:
    hidden: int = 32
    layers: int = 2
    learning_rate: float = 3e-3
    epochs: int = 15
    fine_tune_epochs: int = 10
    fine_tune_lr: float = 1e-3
    text_epochs: int = 15
    batch_size: int = 16
    bench_repeats: int = 3

    def __post_init__(self):
        if self.bench_repeats < 3:
            raise ValueError("bench_repeats must be >= 3")


@dataclass
class SystemRun:
    system: SystemId
    predictions: dict[str, int]
    stage_ms: dict[str, float]
    total_ms: float
    compression: float | None = None  # mean T/S, summarizing systems only


@dataclass
class BenchResult:
    system: SystemId
    rtf: float
    total_ms: float
    stage_ms: dict[str, float]
    nominal_audio_s: float


def _check_model(system: SystemId, model: LUModel, dim: int, vocab_size: int):
    if system is SystemId.P1:
        if model.embedding is None or model.config.vocab_size != vocab_size:
            raise ValueError("P1 needs a label-embedding model matching the vocabulary")
    else:
        if model.embedding is not None:
            raise ValueError(f"{system.value} model must not have an embedding table")
        if model.config.input_dim != dim:
            raise ValueError(
                f"{system.value} model input_dim {model.config.input_dim} != frame dim {dim}"
            )


def run_system(
    system: SystemId,
    model: LUModel,
    rows: list[dict],
    seqs: list[LatentSequence],
    proj: ProjectionMatrix,
    vocab: Vocabulary,
) -> SystemRun:
    """Predict an intent per utterance, accounting wall-clock to stages.

    Stage times cover all per-utterance compute, so their sum accounts
    for nearly all of the loop total; only iteration overhead is left.
    """
    if len(rows) != len(seqs):
        raise ValueError("rows and sequences are misaligned")
    if not rows:
        raise ValueError("empty corpus")
    _check_model(system, model, proj.dim, vocab.size)
    stage_ms = {name: 0.0 for name in STAGES[system]}
    predictions: dict[str, int] = {}
    ratios = []
    loop_start = time.perf_counter()
    if system is SystemId.P1:
        for row, seq in zip(rows, seqs):
            t0 = time.perf_counter()
            grid = project_softmax(seq, proj)
            t1 = time.perf_counter()
            decoded = greedy_decode(grid, vocab)
            t2 = time.perf_counter()
            x = embed_labels(decoded, model)
            t3 = time.perf_counter()
            probs = lu_forward(model, x)
            t4 = time.perf_counter()
            stage_ms["project"] += (t1 - t0) * 1e3
            stage_ms["decode"] += (t2 - t1) * 1e3
            stage_ms["embed"] += (t3 - t2) * 1e3
            stage_ms["classify"] += (t4 - t3) * 1e3
            predictions[row["id"]] = int(np.argmax(probs))
    elif system is SystemId.E1:
        for row, seq in zip(rows, seqs):
            t0 = time.perf_counter()
            probs = lu_forward(model, seq.frames)
            t1 = time.perf_counter()
            stage_ms["classify"] += (t1 - t0) * 1e3
            predictions[row["id"]] = int(np.argmax(probs))
    else:
        for row, seq in zip(rows, seqs):
            t0 = time.perf_counter()
            summ = summarize(seq, proj)
            t1 = time.perf_counter()
            probs = lu_forward(model, summ.vectors)
            t2 = time.perf_counter()
            stage_ms["summarize"] += (t1 - t0) * 1e3
            stage_ms["classify"] += (t2 - t1) * 1e3
            predictions[row["id"]] = int(np.argmax(probs))
            ratios.append(seq.num_frames / summ.num_segments)
    total_ms = (time.perf_counter() - loop_start) * 1e3
    compression = float(np.mean(ratios)) if ratios else None
    return SystemRun(system, predictions, stage_ms, total_ms, compression)


def evaluate(predictions: dict[str, int], rows: list[dict]) -> float:
    """Exact-match intent accuracy as a percentage."""
    if not rows:
        raise ValueError("empty manifest")
    correct = 0
    for row in rows:
        uid = row["id"]
        if uid not in predictions:
            raise ValueError(f"missing prediction for id {uid!r}")
        correct += int(predictions[uid]) == int(row["intent"])
    return 100.0 * correct / len(rows)


def nominal_audio_seconds(seqs: list[LatentSequence]) -> float:
    """Audio seconds the latent frames stand for: T per-frame shifts,
    each frame covering FRONTEND_FRAMES_PER_STEP raw frames."""
    return sum(
        seq.num_frames * seq.frame_shift_ms * FRONTEND_FRAMES_PER_STEP / 1e3 for seq in seqs
    )


def bench_rtf(
    system: SystemId,
    model: LUModel,
    rows: list[dict],
    seqs: list[LatentSequence],
    proj: ProjectionMatrix,
    vocab: Vocabulary,
    repeats: int = 3,
) -> BenchResult:
    """Median-of-repeats RTF, one utterance at a time, after one untimed
    warmup. Runs in the caller's BLAS configuration: nothing here sets the
    BLAS thread count."""
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    if not rows:
        raise ValueError("empty corpus")
    nominal = nominal_audio_seconds(seqs)
    run_system(system, model, rows, seqs, proj, vocab)  # warmup
    runs = [run_system(system, model, rows, seqs, proj, vocab) for _ in range(repeats)]
    runs.sort(key=lambda r: r.total_ms)
    median_total = statistics.median(r.total_ms for r in runs)
    middle = runs[len(runs) // 2]
    return BenchResult(system, median_total / 1e3 / nominal, median_total, middle.stage_ms, nominal)


def _train_seed(seed: int, fold: int, sys_index: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(_SEED_KEY_FOLD_BASE + fold, sys_index))
    return int(ss.generate_state(1)[0])


def train_fold_models(
    corpus: Corpus, train_idx: list[int], cfg: HarnessConfig, fold: int
) -> dict[SystemId, LUModel]:
    """Train E1 on raw frames, fine-tune E2 from it on summarized frames,
    and train P1's text classifier on gold label sequences."""
    spec = corpus.spec
    d, k, v = spec.latent_dim, spec.num_intents, spec.vocab_size
    base = dict(
        hidden=cfg.hidden,
        layers=cfg.layers,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
    )
    latent = [(corpus.sequences[i].frames, corpus.rows[i]["intent"]) for i in train_idx]
    e1 = lu_train(
        LUConfig(d, k, epochs=cfg.epochs, seed=_train_seed(spec.seed, fold, 0), **base), latent
    )

    summarized = [
        (summarize(corpus.sequences[i], corpus.projection).vectors, corpus.rows[i]["intent"])
        for i in train_idx
    ]
    ft = dict(base, learning_rate=cfg.fine_tune_lr)
    e2 = lu_train(
        LUConfig(d, k, epochs=cfg.fine_tune_epochs, seed=_train_seed(spec.seed, fold, 1), **ft),
        summarized,
        init_model=e1,
    )

    text = [(np.asarray(corpus.rows[i]["labels"], dtype=np.int64), corpus.rows[i]["intent"]) for i in train_idx]
    p1 = lu_train(
        LUConfig(
            d,
            k,
            epochs=cfg.text_epochs,
            seed=_train_seed(spec.seed, fold, 2),
            vocab_size=v,
            **base,
        ),
        text,
    )
    return {SystemId.P1: p1, SystemId.E1: e1, SystemId.E2: e2}


def run_crossval(spec: SynthSpec, k: int = 5, cfg: HarnessConfig | None = None) -> dict:
    """Full protocol: k-fold accuracy for every system, then one RTF
    benchmark over the whole corpus using the first fold's models.

    The returned report is schema-valid and, for a fixed seed, identical
    across runs except for timing fields.
    """
    cfg = cfg or HarnessConfig()
    corpus = build_corpus(spec)
    folds = kfold_split(corpus.rows, k)
    fold_entries = []
    accs = {sys: [] for sys in SystemId}
    compressions = []
    bench: dict[str, BenchResult] = {}
    for fold, (train_idx, eval_idx) in enumerate(folds):
        models = train_fold_models(corpus, train_idx, cfg, fold)
        eval_rows = [corpus.rows[i] for i in eval_idx]
        eval_seqs = [corpus.sequences[i] for i in eval_idx]
        per_system = {}
        for sys in SystemId:
            run = run_system(sys, models[sys], eval_rows, eval_seqs, corpus.projection, corpus.vocab)
            acc = evaluate(run.predictions, eval_rows)
            accs[sys].append(acc)
            per_system[sys.value] = {"accuracy_pct": acc}
            if run.compression is not None:
                compressions.append(run.compression)
        fold_entries.append({"fold": fold, "eval_size": len(eval_idx), "per_system": per_system})
        if fold == 0:
            for sys in SystemId:
                bench[sys.value] = bench_rtf(
                    sys,
                    models[sys],
                    corpus.rows,
                    corpus.sequences,
                    corpus.projection,
                    corpus.vocab,
                    repeats=cfg.bench_repeats,
                )
    summary = {
        "per_system": {
            sys.value: {
                "accuracy_pct": float(np.mean(accs[sys])),
                "rtf": bench[sys.value].rtf,
                "stage_ms": {k2: float(v) for k2, v in bench[sys.value].stage_ms.items()},
                "total_ms": bench[sys.value].total_ms,
            }
            for sys in SystemId
        },
        "compression_ratio_e2": float(np.mean(compressions)),
    }
    report = {
        "config": {"synth": asdict(spec), "harness": asdict(cfg), "k": k},
        "folds": fold_entries,
        "summary": summary,
        "seed": spec.seed,
        "version": __version__,
    }
    validate_report(report)
    return report


def _schema() -> dict:
    text = resources.files("ctsum").joinpath("report_schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def validate_report(report: dict):
    """Schema validation; rejects unknown systems by construction."""
    import jsonschema  # deferred: it adds about 5 MB and 50 ms to every import of ctsum

    jsonschema.validate(report, _schema())


def strip_timing(report: dict):
    """Copy of a report with every timing field removed, for determinism
    comparisons."""
    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in TIMING_KEYS}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(copy.deepcopy(report))

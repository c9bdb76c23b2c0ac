"""Train and compare the three intent systems on one corpus.

The comparison is always three-way and nothing else:

  P1  project frames to posteriors, greedy-decode to label ids, embed the
      ids, classify (the explicit-transcription pipeline);
  E1  classify raw latent frames directly;
  E2  summarize frames first, then classify with a model fine-tuned from
      the matching E1 model.

All three share one classifier architecture and identical layer sizes so
accuracy and speed differences come from the inputs, not the capacity.

``STAGES`` is the one definition of how an utterance becomes classifier
input: an ordered (name, fn) tuple per system. ``run_system`` threads
every utterance through its system's stages and times each one.
``training_items`` (E1 on frames, E2 through the summarize stage, P1 on
gold label ids rather than decodes) and ``system_config`` (each system's
classifier sizes, epochs and learning rate) are the one training recipe
that ``train_fold_models`` and ``ctsum train-lu`` share.

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

import json
import time
from dataclasses import asdict, dataclass
from enum import Enum
from importlib import resources

import numpy as np

from ._version import __version__
from .cts import summarize
from .ctc import greedy_decode
from .lu import LUConfig, LUModel, embed_labels, lu_forward, lu_train
from .seqcore import (
    LatentSequence,
    ProjectionMatrix,
    Vocabulary,
    _as_int,
    _as_rate,
    _label_ids,
    project_softmax,
)
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


# Each system's stages in order: (name, fn). A stage maps (input, model,
# projection, vocabulary) to the next stage's input, the utterance's
# LatentSequence going in first and class probabilities coming out of
# the last. The bodies look project_softmax, greedy_decode,
# embed_labels, summarize and lu_forward up in this module when called,
# so a patch of e.g. ``harness.lu_forward`` reaches every stage.
STAGES = {
    SystemId.P1: (
        ("project", lambda seq, model, proj, vocab: project_softmax(seq, proj)),
        ("decode", lambda grid, model, proj, vocab: greedy_decode(grid, vocab)),
        ("embed", lambda decoded, model, proj, vocab: embed_labels(decoded.ids, model)),
        ("classify", lambda x, model, proj, vocab: lu_forward(model, x)),
    ),
    SystemId.E1: (("classify", lambda seq, model, proj, vocab: lu_forward(model, seq.frames)),),
    SystemId.E2: (
        ("summarize", lambda seq, model, proj, vocab: summarize(seq, proj).vectors),
        ("classify", lambda x, model, proj, vocab: lu_forward(model, x)),
    ),
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
        for name in ("hidden", "layers", "epochs", "fine_tune_epochs", "text_epochs", "batch_size"):
            setattr(self, name, _as_int(name, getattr(self, name), 1))
        self.bench_repeats = _as_int("bench_repeats", self.bench_repeats, 3)
        self.learning_rate = _as_rate("learning_rate", self.learning_rate)
        self.fine_tune_lr = _as_rate("fine_tune_lr", self.fine_tune_lr)


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


def _check_model(system: SystemId, model: LUModel, vocab_size: int):
    """P1 needs an embedding table for the vocabulary, E1 and E2 none;
    ``lu_forward`` checks the input width."""
    if system is SystemId.P1:
        if model.embedding is None or model.config.vocab_size != vocab_size:
            raise ValueError("P1 needs a label-embedding model matching the vocabulary")
    elif model.embedding is not None:
        raise ValueError(f"{system.value} model must not have an embedding table")


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
    _check_model(system, model, vocab.size)
    stages = STAGES[system]
    stage_ms = {name: 0.0 for name, _ in stages}
    predictions: dict[str, int] = {}
    ratios = []
    loop_start = time.perf_counter()
    for row, seq in zip(rows, seqs):
        x = seq
        t0 = time.perf_counter()
        for name, fn in stages:
            x = fn(x, model, proj, vocab)
            t1 = time.perf_counter()
            stage_ms[name] += (t1 - t0) * 1e3
            t0 = t1
            if name == "summarize":
                ratios.append(seq.num_frames / len(x))
        predictions[row["id"]] = int(np.argmax(x))
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
        correct += _as_int("prediction", predictions[uid]) == _as_int("intent", row["intent"])
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
    warmup. Every figure comes from one run: the middle by total time,
    the upper middle at an even count. Runs in the caller's BLAS
    configuration: nothing here sets the BLAS thread count."""
    repeats = _as_int("repeats", repeats, 3)
    nominal = nominal_audio_seconds(seqs)
    run_system(system, model, rows, seqs, proj, vocab)  # warmup
    runs = [run_system(system, model, rows, seqs, proj, vocab) for _ in range(repeats)]
    middle = sorted(runs, key=lambda r: r.total_ms)[len(runs) // 2]
    total = middle.total_ms
    return BenchResult(system, total / 1e3 / nominal, total, middle.stage_ms, nominal)


def _train_seed(seed: int, fold: int, sys_index: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(_SEED_KEY_FOLD_BASE + fold, sys_index))
    return int(ss.generate_state(1)[0])


def training_items(system: SystemId, corpus: Corpus, idx) -> list[tuple]:
    """(classifier input, intent) of each row in idx: E1 trains on raw
    frames, E2 on the output of its summarize stage, and P1 on the gold
    label ids, which ``lu_train`` embeds."""
    rows = [corpus.rows[i] for i in idx]
    if system is SystemId.P1:
        inputs = [_label_ids(row["labels"]) for row in rows]
    elif system is SystemId.E1:
        inputs = [corpus.sequences[i].frames for i in idx]
    else:
        stage = dict(STAGES[SystemId.E2])["summarize"]
        inputs = [stage(corpus.sequences[i], None, corpus.projection, corpus.vocab) for i in idx]
    return [(x, row["intent"]) for x, row in zip(inputs, rows)]


def system_config(system: SystemId, spec: SynthSpec, cfg: HarnessConfig, seed: int) -> LUConfig:
    """A system's classifier config, the one recipe crossval and ``ctsum
    train-lu`` both train with: cfg's shared sizes; E1 for ``epochs``, E2
    for ``fine_tune_epochs`` at ``fine_tune_lr``, P1 for ``text_epochs``
    with a label-embedding table."""
    epochs, learning_rate = {
        SystemId.E1: (cfg.epochs, cfg.learning_rate),
        SystemId.E2: (cfg.fine_tune_epochs, cfg.fine_tune_lr),
        SystemId.P1: (cfg.text_epochs, cfg.learning_rate),
    }[system]
    return LUConfig(
        spec.latent_dim,
        spec.num_intents,
        hidden=cfg.hidden,
        layers=cfg.layers,
        learning_rate=learning_rate,
        epochs=epochs,
        batch_size=cfg.batch_size,
        seed=seed,
        vocab_size=spec.vocab_size if system is SystemId.P1 else None,
    )


def train_fold_models(
    corpus: Corpus, train_idx: list[int], cfg: HarnessConfig, fold: int
) -> dict[SystemId, LUModel]:
    """Train E1 on raw frames, fine-tune E2 from it on summarized frames,
    and train P1's text classifier on gold label sequences. A system's
    position in that order is its training-seed index."""
    models: dict[SystemId, LUModel] = {}
    for index, system in enumerate((SystemId.E1, SystemId.E2, SystemId.P1)):
        models[system] = lu_train(
            system_config(system, corpus.spec, cfg, _train_seed(corpus.spec.seed, fold, index)),
            training_items(system, corpus, train_idx),
            init_model=models[SystemId.E1] if system is SystemId.E2 else None,
        )
    return models


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
            data = (corpus.rows, corpus.sequences, corpus.projection, corpus.vocab)
            for sys in SystemId:
                bench[sys.value] = bench_rtf(sys, models[sys], *data, repeats=cfg.bench_repeats)
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
    text = resources.files(__package__).joinpath("report_schema.json").read_text(encoding="utf-8")
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

    return strip(report)

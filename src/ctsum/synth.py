"""Seeded synthetic corpus generator with planted label embeddings.

Real encoder activations are replaced by a planted-embedding model: every
vocabulary label owns a unit-norm vector, an utterance is a series of
noisy runs of those vectors with blank-vector gaps in between, and the
projection that recovers label posteriors is the scaled embedding table
itself. The Gaussian-around-embedding frame model is an assumption (no
claim about real encoder statistics); it exists so that decoding,
summarization and classification can be exercised end to end at desk
scale with known ground truth.

Intent classes are defined by disjoint label templates, so both the
decoded-text route and the latent-frame route are solvable.

Reproducibility: every consumer of randomness gets its own child stream
of the corpus seed (projection, templates, and one stream per utterance),
so corpora are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .seqcore import (
    FormatError,
    LatentSequence,
    ProjectionMatrix,
    Vocabulary,
    _as_float,
    _as_int,
    _decode_json,
    _parse,
    read_lseq,
    read_proj,
    read_vocab,
    write_lseq,
    write_proj,
    write_vocab,
)

MANIFEST_NAME = "manifest.jsonl"
PROJECTION_NAME = "projection.proj"
VOCAB_NAME = "vocab.json"
SPEC_NAME = "spec.json"

# child-stream keys off the corpus seed
_KEY_PROJECTION = 0
_KEY_TEMPLATES = 1
_KEY_UTTERANCE_BASE = 2

_MAX_DRAW_ATTEMPTS = 1000

# Upper bound on the numbers a spec may ask for: the projection, the
# longest possible utterance, the whole corpus's frames and the template
# table. 2**28 floats is 1 GiB as float32, far past desk scale; a spec
# beyond it is rejected up front instead of failing in an allocation or
# looping for hours.
MAX_SPEC_ELEMENTS = 2**28


@dataclass
class SynthSpec:
    num_intents: int = 6
    vocab_size: int = 41  # including blank at index 0
    latent_dim: int = 16
    templates_per_intent: int = 5
    template_len_range: tuple[int, int] = (3, 8)
    run_len_range: tuple[int, int] = (2, 6)
    gap_len_range: tuple[int, int] = (0, 3)
    logit_scale: float = 4.0
    noise_sigma: float = 0.4
    utterances_per_intent: int = 100
    seed: int = 42

    def __post_init__(self):
        self.num_intents = _as_int("num_intents", self.num_intents, 2)
        self.vocab_size = _as_int("vocab_size", self.vocab_size, self.num_intents)
        for name in ("latent_dim", "templates_per_intent", "utterances_per_intent"):
            setattr(self, name, _as_int(name, getattr(self, name), 1))
        self.seed = _as_int("seed", self.seed, 0)
        for name, lo_min in (
            ("template_len_range", 1),
            ("run_len_range", 1),
            ("gap_len_range", 0),
        ):
            pair = tuple(getattr(self, name))
            if len(pair) != 2:
                raise ValueError(f"{name} must be (lo, hi) with {lo_min} <= lo <= hi")
            lo = _as_int(name, pair[0], lo_min)
            setattr(self, name, (lo, _as_int(name, pair[1], lo)))
        self.logit_scale = _as_float("logit_scale", self.logit_scale)
        self.noise_sigma = _as_float("noise_sigma", self.noise_sigma)
        if self.logit_scale < 0 or self.noise_sigma < 0:
            raise ValueError("logit_scale and noise_sigma must be non-negative")
        len_hi = self.template_len_range[1]
        frames = len_hi * self.run_len_range[1] + (len_hi - 1) * self.gap_len_range[1]
        utterance = frames * self.latent_dim  # the longest possible one
        templates = self.num_intents * self.templates_per_intent * len_hi
        for fields, size in (
            ("vocab_size x latent_dim", self.vocab_size * self.latent_dim),
            ("longest utterance (template_len_range, run_len_range, gap_len_range)"
             " x latent_dim", utterance),
            ("num_intents x utterances_per_intent x longest utterance",
             self.num_utterances * utterance),
            ("num_intents x templates_per_intent x template_len_range", templates),
        ):
            if size > MAX_SPEC_ELEMENTS:
                raise ValueError(
                    f"spec too large: {fields} is {size} elements, above {MAX_SPEC_ELEMENTS}"
                )

    @property
    def num_utterances(self):
        return self.num_intents * self.utterances_per_intent


@dataclass
class Corpus:
    """A fully materialized corpus, in generation (manifest) order."""

    spec: SynthSpec
    rows: list[dict]
    projection: ProjectionMatrix
    vocab: Vocabulary
    sequences: list[LatentSequence]

    def __len__(self):
        return len(self.rows)


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def default_vocab(vocab_size: int) -> Vocabulary:
    return Vocabulary(["_"] + [f"w{v}" for v in range(1, vocab_size)], blank_index=0)


def plant_projection(spec: SynthSpec) -> tuple[ProjectionMatrix, np.ndarray]:
    """Draw unit-norm label embeddings and the projection that reads them.

    Projection row v is logit_scale * e_v with zero bias, so a clean frame
    e_v scores self-similarity 1 against every cross-similarity < 1 and
    its posterior argmax is v. Embedding sets whose pairwise dot products
    reach 1 are redrawn (bounded attempts).
    """
    rng = _stream(spec.seed, _KEY_PROJECTION)
    v, d = spec.vocab_size, spec.latent_dim
    for _ in range(_MAX_DRAW_ATTEMPTS):
        emb = rng.normal(size=(v, d))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        gram = emb @ emb.T
        np.fill_diagonal(gram, -1.0)
        if gram.max() < 1.0:
            break
    else:
        raise ValueError("could not draw separable label embeddings")
    return ProjectionMatrix(spec.logit_scale * emb), emb


def make_templates(spec: SynthSpec) -> list[list[tuple[int, ...]]]:
    """Per-intent label templates: non-blank ids, no immediate repeats,
    globally unique across all intents (hence disjoint between intents).

    Immediate repeats are excluded because a repeated label inside one
    frame run is indistinguishable from a single label after decode
    collapse when the gap between them happens to be zero.
    """
    lo, hi = spec.template_len_range
    if spec.vocab_size < 3 and hi > 1:
        raise ValueError("vocab too small for repeat-free multi-label templates")
    rng = _stream(spec.seed, _KEY_TEMPLATES)
    seen: set[tuple[int, ...]] = set()
    templates = []
    for _ in range(spec.num_intents):
        group = []
        for _ in range(spec.templates_per_intent):
            for _ in range(_MAX_DRAW_ATTEMPTS):
                n = int(rng.integers(lo, hi + 1))
                ids = [int(rng.integers(1, spec.vocab_size))]
                for _ in range(n - 1):
                    # uniform over non-blank labels excluding the previous one
                    v = int(rng.integers(1, spec.vocab_size - 1))
                    if v >= ids[-1]:
                        v += 1
                    ids.append(v)
                tpl = tuple(ids)
                if tpl not in seen:
                    seen.add(tpl)
                    group.append(tpl)
                    break
            else:
                raise ValueError("template space exhausted; loosen spec ranges")
        templates.append(group)
    return templates


def templates_disjoint(templates) -> bool:
    """Independent checker: no label sequence is shared by two intents."""
    total = sum(len(group) for group in templates)
    return len({tpl for group in templates for tpl in group}) == total


def generate_utterance(
    spec: SynthSpec, intent: int, rng: np.random.Generator, embeddings: np.ndarray, templates
) -> tuple[tuple[int, ...], LatentSequence]:
    """One utterance of an intent, as (template labels, frames): noisy
    frame runs per template label, blank-vector gap frames between
    labels. Noise is isotropic Gaussian scaled so the expected
    noise-vector norm is about noise_sigma, commensurate with the
    unit-norm embeddings."""
    group = templates[_as_int("intent", intent, 0, spec.num_intents)]
    labels = group[int(rng.integers(len(group)))]
    scale = spec.noise_sigma / math.sqrt(spec.latent_dim)
    gap_lo, gap_hi = spec.gap_len_range
    run_lo, run_hi = spec.run_len_range

    def emit(label, count):
        noise = rng.standard_normal((count, spec.latent_dim)) * scale
        return embeddings[label] + noise

    chunks = []
    for pos, label in enumerate(labels):
        if pos > 0:
            gap = int(rng.integers(gap_lo, gap_hi + 1))
            if gap:
                chunks.append(emit(0, gap))
        run = int(rng.integers(run_lo, run_hi + 1))
        chunks.append(emit(label, run))
    return labels, LatentSequence(np.concatenate(chunks, axis=0, dtype=np.float32))


def build_corpus(spec: SynthSpec) -> Corpus:
    """Materialize the whole corpus in memory, intents interleaved
    round-robin so any contiguous or strided split stays balanced."""
    proj, emb = plant_projection(spec)
    templates = make_templates(spec)
    assert templates_disjoint(templates)
    rows, seqs = [], []
    for i in range(spec.num_utterances):
        intent, uid = i % spec.num_intents, f"u{i:05d}"
        rng = _stream(spec.seed, _KEY_UTTERANCE_BASE + i)
        labels, seq = generate_utterance(spec, intent, rng, emb, templates)
        rows.append({"id": uid, "intent": intent, "labels": list(labels), "lseq": f"{uid}.lseq"})
        seqs.append(seq)
    return Corpus(spec, rows, proj, default_vocab(spec.vocab_size), seqs)


def generate_corpus(spec: SynthSpec, out_dir) -> Corpus:
    """Build and write a corpus directory: one .lseq per utterance plus
    manifest.jsonl, projection.proj, vocab.json and spec.json."""
    corpus = build_corpus(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for row, seq in zip(corpus.rows, corpus.sequences):
        write_lseq(out / row["lseq"], seq)
    with open(out / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        for row in corpus.rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    write_proj(out / PROJECTION_NAME, corpus.projection)
    write_vocab(out / VOCAB_NAME, corpus.vocab)
    save_spec(out / SPEC_NAME, spec)
    return corpus


def _manifest_row(row, ids, spec: SynthSpec, vocab: Vocabulary, inside: Path) -> dict:
    """A decoded manifest line as a corpus row (its new id added to ``ids``),
    with its labels non-blank and in range and its ``lseq`` inside ``inside``."""
    for key in ("id", "lseq"):
        if not isinstance(row[key], str) or not row[key]:
            raise ValueError(f"{key} must be a non-empty string, got {row[key]!r}")
    if row["id"] in ids:
        raise ValueError(f"duplicate id {row['id']!r}")
    intent = _as_int("intent", row["intent"], 0, spec.num_intents)
    labels = [_as_int("label", lab) for lab in row["labels"]]
    if not labels:
        raise ValueError("labels must be non-empty")
    vocab.check_transcript(labels)
    # realpath, not Path.resolve: a symlink loop must not raise RuntimeError
    if not Path(os.path.realpath(inside / row["lseq"])).is_relative_to(inside):
        raise ValueError(f"lseq {row['lseq']!r} lies outside the corpus directory")
    ids.add(row["id"])
    return {"id": row["id"], "intent": intent, "labels": labels, "lseq": row["lseq"]}


def load_corpus(corpus_dir) -> Corpus:
    """Read a corpus directory and check that its files agree with its
    spec: the projection is V x D, the vocabulary has V labels, every
    manifest row passes ``_manifest_row``, and every ``lseq`` holds
    D-dimensional frames."""
    root = Path(corpus_dir)
    spec = load_spec(root / SPEC_NAME)
    v, d = spec.vocab_size, spec.latent_dim
    proj_path, vocab_path = root / PROJECTION_NAME, root / VOCAB_NAME
    proj = read_proj(proj_path)
    if proj.weights.shape != (v, d):
        raise FormatError(
            f"{proj_path}: projection is {proj.num_labels} x {proj.dim}, "
            f"the spec's vocab_size x latent_dim is {v} x {d}"
        )
    vocab = read_vocab(vocab_path)
    if vocab.size != v:
        raise FormatError(f"{vocab_path}: {vocab.size} labels, the spec's vocab_size is {v}")
    inside = Path(os.path.realpath(root))
    rows, ids = [], set()
    manifest = root / MANIFEST_NAME
    for lineno, line in enumerate(manifest.read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        where = f"{manifest}: manifest line {lineno}"
        row = _decode_json(line, where)
        rows.append(_parse(where, None, _manifest_row, row, ids, spec, vocab, inside))
    seqs = []
    for row in rows:
        path = root / row["lseq"]
        seq = read_lseq(path)
        if seq.dim != d:
            raise FormatError(f"{path}: frames have D={seq.dim}, the spec's latent_dim is {d}")
        seqs.append(seq)
    return Corpus(spec, rows, proj, vocab, seqs)


def kfold_split(rows, k: int = 5) -> list[tuple[list[int], list[int]]]:
    """Round-robin folds: fold f evaluates on rows with index = f mod k
    and trains on the rest. Folds partition the row indices."""
    k = _as_int("k", k, 2)
    n = len(rows)
    if n < k:
        raise ValueError(f"need at least k={k} rows, got {n}")
    folds = []
    for f in range(k):
        eval_idx = list(range(f, n, k))
        train_idx = [i for i in range(n) if i % k != f]
        folds.append((train_idx, eval_idx))
    # Corpora interleave intents round-robin, so a k that shares a factor
    # with the intent count strands whole intents in eval-only folds and
    # silently drives fold accuracy to zero. Warn rather than reassign:
    # the index rule is part of the file-level contract.
    if rows and isinstance(rows[0], dict) and "intent" in rows[0]:
        intents = [r.get("intent") for r in rows]
        for f, (train_idx, eval_idx) in enumerate(folds):
            missing = sorted(
                {intents[i] for i in eval_idx} - {intents[i] for i in train_idx}
            )
            if missing:
                warnings.warn(
                    f"fold {f} evaluates intents {missing} that never occur "
                    f"in its training rows; pick a k coprime with the "
                    f"number of intents",
                    stacklevel=2,
                )
    return folds


def save_spec(path, spec: SynthSpec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(spec), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_spec(path) -> SynthSpec:
    data = _decode_json(Path(path).read_bytes(), path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: spec must be a JSON object")
    known = {f for f in SynthSpec.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise FormatError(f"{path}: unknown spec fields {sorted(unknown)}")
    return _parse(path, None, lambda: SynthSpec(**data))

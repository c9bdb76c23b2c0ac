"""Regenerate the committed numeric golden of the three systems.

Inputs: the corpus of ``test_harness.small_spec()``, one seeded,
untrained ``lu_init`` model per system, and the fold-0 models that
``train_fold_models`` trains for two epochs on every row. Stored, for
the untrained models: ``run_system`` predictions, the E2 compression
ratio, the class probabilities of every ``lu_forward`` call each system
makes, in row order, and the sha256 of each model's ``.ctsm`` bytes;
for the trained models (under ``trained``): each system's
``train_losses`` and ``lu_forward`` probabilities. Under ``formats``:
the sha256 of the corpus's ``.proj`` bytes and, per utterance, of its
``.lseq`` bytes and of its ``.sseq`` bytes with and without dropped
blanks, each summary's (start, end, label, rep_frame, rep_score) table,
and ``ctc_forward_logprob`` of the gold labels.

    PYTHONPATH=src python tests/make_golden.py            # rewrite tests/golden/systems.json
    PYTHONPATH=src python tests/make_golden.py --out FILE # write elsewhere

Set ``OPENBLAS_NUM_THREADS`` (or the BLAS's own variable) to pick the
BLAS thread count; ``test_golden.py`` runs this script at 1 and 2.
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from ctsum import harness
from ctsum.ctc import LabelSequence, ctc_forward_logprob
from ctsum.cts import summarize, write_sseq
from ctsum.harness import HarnessConfig, SystemId, run_system, train_fold_models
from ctsum.lu import LUConfig, lu_init, save_model
from ctsum.seqcore import project_softmax, write_lseq, write_proj
from ctsum.synth import build_corpus

from test_harness import small_spec

GOLDEN = Path(__file__).parent / "golden" / "systems.json"
# seeds whose untrained models predict more than one intent here
MODEL_SEEDS = {SystemId.P1: 39, SystemId.E1: 23, SystemId.E2: 15}
TRAINED = HarnessConfig(epochs=2, fine_tune_epochs=2, text_epochs=2)


def _run(system, model, corpus):
    """``run_system`` over the whole corpus, with the probabilities of
    every ``lu_forward`` call it makes, in call order."""
    calls = []
    forward = harness.lu_forward

    def recording(model, x):
        probs = forward(model, x)
        calls.append([float(p) for p in probs])
        return probs

    harness.lu_forward = recording
    try:
        run = run_system(
            system, model, corpus.rows, corpus.sequences, corpus.projection, corpus.vocab
        )
    finally:
        harness.lu_forward = forward
    return run, calls


def _sha256(write, obj, tmp):
    """sha256 of the bytes ``write(path, obj)`` puts in a file."""
    path = Path(tmp) / "artifact"
    write(path, obj)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _formats(corpus, tmp) -> dict:
    proj, vocab = corpus.projection, corpus.vocab
    utterances = []
    for row, seq in zip(corpus.rows, corpus.sequences):
        one = {"id": row["id"], "lseq_sha256": _sha256(write_lseq, seq, tmp)}
        for key, drop in (("sseq", False), ("sseq_drop_blank", True)):
            summ = summarize(seq, proj, drop_blank_segments=drop, blank_index=vocab.blank_index)
            one[f"{key}_sha256"] = _sha256(write_sseq, summ, tmp)
            one[f"{key}_segments"] = [
                [s.start, s.end, s.label, s.rep_frame, s.rep_score] for s in summ.segments
            ]
        grid = project_softmax(seq, proj)
        one["ctc_logprob"] = ctc_forward_logprob(grid, LabelSequence(row["labels"]), vocab)
        utterances.append(one)
    return {"proj_sha256": _sha256(write_proj, proj, tmp), "utterances": utterances}


def compute() -> dict:
    corpus = build_corpus(small_spec())
    spec, cfg = corpus.spec, HarnessConfig()
    out = {"ctsm_sha256": {}, "trained": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for system in SystemId:
            model = lu_init(
                LUConfig(
                    spec.latent_dim,
                    spec.num_intents,
                    hidden=cfg.hidden,
                    layers=cfg.layers,
                    seed=MODEL_SEEDS[system],
                    vocab_size=spec.vocab_size if system is SystemId.P1 else None,
                )
            )
            run, probs = _run(system, model, corpus)
            out[system.value] = {"predictions": run.predictions, "probs": probs}
            out["ctsm_sha256"][system.value] = _sha256(save_model, model, tmp)
            if run.compression is not None:
                out["compression_ratio_e2"] = run.compression
        out["formats"] = _formats(corpus, tmp)
    models = train_fold_models(corpus, list(range(len(corpus.rows))), TRAINED, 0)
    for system, model in models.items():
        out["trained"][system.value] = {
            "train_losses": list(model.train_losses),
            "probs": _run(system, model, corpus)[1],
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(GOLDEN), help="output JSON file")
    args = parser.parse_args()
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

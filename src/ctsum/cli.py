"""Command-line entry point binding the library into reproducible runs.

Conventions: long kebab-case flags only; seeds are mandatory wherever
randomness exists (generation, training) so no run depends on ambient
state; diagnostics go to stderr, results go to stdout or to files named
by --out. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .cts import read_sseq, summarize, write_sseq
from .ctc import greedy_decode
from .harness import (
    HarnessConfig,
    SystemId,
    bench_rtf,
    evaluate,
    run_crossval,
    run_system,
)
from .cts import SSEQ_MAGIC
from .lu import LUConfig, load_model, lu_train, save_model
from .seqcore import (
    LSEQ_MAGIC,
    FormatError,
    Vocabulary,
    project_softmax,
    read_lseq,
    read_proj,
    read_vocab,
)
from .synth import SynthSpec, generate_corpus, kfold_split, load_corpus, load_spec


class _Parser(argparse.ArgumentParser):
    """argparse flags usage problems with exit code 2 by default; remap
    them to 1 so 2 stays reserved for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctsum", description="Sequence summarization and intent benchmark tools.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    p.add_argument("--spec", help="corpus spec JSON; defaults apply when omitted")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--seed", type=int, required=True, help="corpus seed (overrides the spec file)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("summarize", help="shorten one .lseq into a .sseq")
    p.add_argument("--in", dest="inp", required=True, help="input .lseq file")
    p.add_argument("--proj", required=True, help="projection .proj file")
    p.add_argument("--out", required=True, help="output .sseq file")
    p.add_argument(
        "--drop-blank-segments",
        action="store_true",
        help="discard blank-labeled segments (ablation; breaks decode preservation)",
    )
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("decode", help="greedy-decode a .lseq or .sseq to label JSON")
    p.add_argument("--in", dest="inp", required=True, help="input .lseq or .sseq file")
    p.add_argument("--proj", required=True, help="projection .proj file")
    p.add_argument("--vocab", help="vocab JSON; adds label text to the output")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("train-lu", help="train an intent classifier on a corpus directory")
    p.add_argument("--corpus", required=True, help="corpus directory from `synth`")
    p.add_argument("--mode", required=True, choices=["p1", "e1", "e2"], help="input construction")
    p.add_argument("--out", required=True, help="output model file (.ctsm)")
    p.add_argument("--seed", type=int, required=True, help="training seed")
    p.add_argument("--epochs", type=int, default=15, help="training epochs (default 15)")
    p.add_argument("--hidden", type=int, default=32, help="hidden units per direction (default 32)")
    p.add_argument("--layers", type=int, default=2, help="recurrent layers (default 2)")
    p.add_argument("--learning-rate", type=float, default=3e-3, help="Adam step size (default 3e-3)")
    p.add_argument("--batch-size", type=int, default=16, help="mini-batch size (default 16)")
    p.add_argument("--init", help="warm-start model (.ctsm) to fine-tune, e.g. e1 weights for e2")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="accuracy of a trained model on a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--model", required=True, help="model file (.ctsm)")
    p.add_argument("--system", required=True, choices=["p1", "e1", "e2"], help="system to run")
    p.add_argument("--k", type=int, default=5, help="fold count when --fold is used (default 5)")
    p.add_argument("--fold", type=int, help="evaluate one round-robin fold instead of all rows")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="real-time factor of a system on a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--model", required=True, help="model file (.ctsm)")
    p.add_argument("--system", required=True, choices=["p1", "e1", "e2"], help="system to run")
    p.add_argument("--repeats", type=int, default=3, help="timing repeats, median reported (default 3)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("crossval", help="k-fold train/eval of all systems; writes a JSON report")
    p.add_argument("--spec", help="corpus spec JSON; defaults apply when omitted")
    p.add_argument("--seed", type=int, required=True, help="corpus and training seed")
    p.add_argument("--out", help="report file (default: stdout)")
    p.add_argument("--k", type=int, default=5, help="number of folds (default 5)")
    p.add_argument("--epochs", type=int, default=15, help="raw-frame training epochs (default 15)")
    p.add_argument(
        "--fine-tune-epochs", type=int, default=10, help="summarized fine-tune epochs (default 10)"
    )
    p.add_argument("--text-epochs", type=int, default=15, help="decoded-text training epochs (default 15)")
    p.add_argument("--bench-repeats", type=int, default=3, help="RTF timing repeats (default 3)")
    p.set_defaults(func=_cmd_crossval)
    return parser


def _load_synth_spec(path: str | None, seed: int) -> SynthSpec:
    spec = load_spec(path) if path else SynthSpec()
    return replace(spec, seed=seed)


def _cmd_synth(args) -> int:
    spec = _load_synth_spec(args.spec, args.seed)
    corpus = generate_corpus(spec, args.out)
    print(
        json.dumps(
            {"corpus": str(args.out), "utterances": len(corpus), "intents": spec.num_intents}
        )
    )
    return 0


def _cmd_summarize(args) -> int:
    seq = read_lseq(args.inp)
    proj = read_proj(args.proj)
    summ = summarize(seq, proj, drop_blank_segments=args.drop_blank_segments)
    write_sseq(args.out, summ)
    print(json.dumps({"out": args.out, "source_frames": summ.source_T, "segments": summ.num_segments}))
    return 0


def _read_any_sequence(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == LSEQ_MAGIC:
        return read_lseq(path)
    if magic == SSEQ_MAGIC:
        return read_sseq(path).to_latent()
    raise FormatError(f"{path}: unrecognized magic {magic!r}")


def _cmd_decode(args) -> int:
    seq = _read_any_sequence(args.inp)
    proj = read_proj(args.proj)
    vocab = (
        read_vocab(args.vocab)
        if args.vocab
        else Vocabulary([f"{i}" for i in range(proj.num_labels)], blank_index=0)
    )
    decoded = greedy_decode(project_softmax(seq, proj), vocab)
    row = {
        "id": Path(args.inp).stem,
        "ids": [int(v) for v in decoded.ids],
        "labels": [vocab.labels[int(v)] for v in decoded.ids],
        "logp": decoded.score,
    }
    line = json.dumps(row) + "\n"
    if args.out:
        Path(args.out).write_text(line, encoding="utf-8")
    else:
        sys.stdout.write(line)
    return 0


_MODE_TO_SYSTEM = {"p1": SystemId.P1, "e1": SystemId.E1, "e2": SystemId.E2}


def _corpus_items(mode: str, corpus):
    if mode == "p1":
        return [
            (np.asarray(row["labels"], dtype=np.int64), row["intent"]) for row in corpus.rows
        ]
    if mode == "e1":
        return [(seq.frames, row["intent"]) for row, seq in zip(corpus.rows, corpus.sequences)]
    return [
        (summarize(seq, corpus.projection).vectors, row["intent"])
        for row, seq in zip(corpus.rows, corpus.sequences)
    ]


def _cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    spec = corpus.spec
    config = LUConfig(
        input_dim=spec.latent_dim,
        num_intents=spec.num_intents,
        hidden=args.hidden,
        layers=args.layers,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        vocab_size=spec.vocab_size if args.mode == "p1" else None,
    )
    init_model = load_model(args.init) if args.init else None
    model = lu_train(config, _corpus_items(args.mode, corpus), init_model=init_model)
    save_model(args.out, model)
    print(json.dumps({"model": args.out, "epochs": args.epochs, "final_loss": model.train_losses[-1]}))
    return 0


def _eval_view(args, corpus):
    if args.fold is None:
        return corpus.rows, corpus.sequences
    folds = kfold_split(corpus.rows, args.k)
    if not 0 <= args.fold < args.k:
        raise ValueError(f"fold must be in [0, {args.k})")
    _, eval_idx = folds[args.fold]
    return [corpus.rows[i] for i in eval_idx], [corpus.sequences[i] for i in eval_idx]


def _cmd_eval(args) -> int:
    corpus = load_corpus(args.corpus)
    model = load_model(args.model)
    system = _MODE_TO_SYSTEM[args.system]
    rows, seqs = _eval_view(args, corpus)
    run = run_system(system, model, rows, seqs, corpus.projection, corpus.vocab)
    out = {
        "system": system.value,
        "accuracy_pct": evaluate(run.predictions, rows),
        "utterances": len(rows),
        "stage_ms": run.stage_ms,
        "total_ms": run.total_ms,
    }
    if run.compression is not None:
        out["compression_ratio"] = run.compression
    print(json.dumps(out))
    return 0


def _cmd_bench(args) -> int:
    corpus = load_corpus(args.corpus)
    model = load_model(args.model)
    system = _MODE_TO_SYSTEM[args.system]
    result = bench_rtf(
        system,
        model,
        corpus.rows,
        corpus.sequences,
        corpus.projection,
        corpus.vocab,
        repeats=args.repeats,
    )
    print(
        json.dumps(
            {
                "system": system.value,
                "rtf": result.rtf,
                "total_ms": result.total_ms,
                "stage_ms": result.stage_ms,
                "nominal_audio_s": result.nominal_audio_s,
            }
        )
    )
    return 0


def _cmd_crossval(args) -> int:
    spec = _load_synth_spec(args.spec, args.seed)
    cfg = HarnessConfig(
        epochs=args.epochs,
        fine_tune_epochs=args.fine_tune_epochs,
        text_epochs=args.text_epochs,
        bench_repeats=args.bench_repeats,
    )
    report = run_crossval(spec, k=args.k, cfg=cfg)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for name, entry in report["summary"]["per_system"].items():
        print(
            f"{name}: accuracy {entry['accuracy_pct']:.2f}% rtf {entry['rtf']:.5f}",
            file=sys.stderr,
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, ValueError) as exc:
        print(f"ctsum: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

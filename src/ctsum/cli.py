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
from dataclasses import asdict, replace
from pathlib import Path

from ._version import __version__
from .cts import SSEQ_MAGIC, read_sseq, summarize, write_sseq
from .ctc import greedy_decode
from .harness import (
    HarnessConfig,
    SystemId,
    bench_rtf,
    evaluate,
    run_crossval,
    run_system,
    system_config,
    training_items,
)
from .lu import LUConfig, load_model, lu_train, save_model
from .seqcore import (
    LSEQ_MAGIC,
    FormatError,
    Vocabulary,
    _as_int,
    project_softmax,
    read_lseq,
    read_proj,
    read_vocab,
)
from .synth import SynthSpec, generate_corpus, kfold_split, load_corpus, load_spec


# Each system by its command-line name: p1, e1, e2.
_SYSTEMS = {system.value.lower(): system for system in SystemId}

# train-lu's LUConfig override flags (field: help), typed like the field's
# default; unset, each follows crossval's recipe for --mode (harness.system_config).
_TRAIN_FIELDS = {
    "epochs": "training epochs (default: crossval's for --mode)",
    "hidden": "hidden units per direction (default: crossval's)",
    "layers": "recurrent layers (default: crossval's)",
    "learning_rate": "Adam step size (default: crossval's for --mode)",
    "batch_size": "mini-batch size (default: crossval's)",
}

# crossval's HarnessConfig flags (field: help); each defaults to its field.
_CROSSVAL_FIELDS = {
    "epochs": "raw-frame training epochs",
    "fine_tune_epochs": "summarized fine-tune epochs",
    "text_epochs": "decoded-text training epochs",
    "bench_repeats": "RTF timing repeats",
}


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
    p.add_argument("--vocab", help="vocab JSON; its blank is the one dropped (default: label 0)")
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
    p.add_argument("--mode", required=True, choices=_SYSTEMS, help="input construction")
    p.add_argument("--out", required=True, help="output model file (.ctsm)")
    p.add_argument("--seed", type=int, required=True, help="training seed")
    for name, what in _TRAIN_FIELDS.items():
        kind = type(getattr(LUConfig, name))
        p.add_argument("--" + name.replace("_", "-"), type=kind, help=what)
    p.add_argument(
        "--init",
        help="warm-start model (.ctsm) to fine-tune; required for e2, which crossval "
        "fine-tunes from e1 weights",
    )
    p.set_defaults(func=_cmd_train, usage_error=p.error)

    p = sub.add_parser("eval", help="accuracy of a trained model on a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--model", required=True, help="model file (.ctsm)")
    p.add_argument("--system", required=True, choices=_SYSTEMS, help="system to run")
    p.add_argument("--k", type=int, default=5, help="fold count when --fold is used (default 5)")
    p.add_argument("--fold", type=int, help="evaluate one round-robin fold instead of all rows")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="real-time factor of a system on a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--model", required=True, help="model file (.ctsm)")
    p.add_argument("--system", required=True, choices=_SYSTEMS, help="system to run")
    p.add_argument(
        "--repeats",
        type=int,
        default=HarnessConfig.bench_repeats,
        help="timing repeats, median reported (default %(default)s)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("crossval", help="k-fold train/eval of all systems; writes a JSON report")
    p.add_argument("--spec", help="corpus spec JSON; defaults apply when omitted")
    p.add_argument("--seed", type=int, required=True, help="corpus and training seed")
    p.add_argument("--out", help="report file (default: stdout)")
    p.add_argument("--k", type=int, default=5, help="number of folds (default 5)")
    for name, what in _CROSSVAL_FIELDS.items():
        flag, default = "--" + name.replace("_", "-"), getattr(HarnessConfig, name)
        p.add_argument(flag, type=int, default=default, help=f"{what} (default {default})")
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


def _read_vocab_or_indices(path, proj) -> Vocabulary:
    """The vocab at ``path``, sized to the projection; without one, labels
    are the projection's row indices and the blank is 0."""
    if not path:
        return Vocabulary([f"{i}" for i in range(proj.num_labels)], blank_index=0)
    vocab = read_vocab(path)
    if vocab.size != proj.num_labels:
        raise FormatError(
            f"{path}: vocabulary size {vocab.size} does not match projection V={proj.num_labels}"
        )
    return vocab


def _cmd_summarize(args) -> int:
    seq = read_lseq(args.inp)
    proj = read_proj(args.proj)
    vocab = _read_vocab_or_indices(args.vocab, proj)
    summ = summarize(
        seq, proj, drop_blank_segments=args.drop_blank_segments, blank_index=vocab.blank_index
    )
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
    vocab = _read_vocab_or_indices(args.vocab, proj)
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


def _cmd_train(args) -> int:
    system = _SYSTEMS[args.mode]
    if system is SystemId.E2 and args.init is None:
        args.usage_error("--mode e2 needs --init: E2 fine-tunes an E1 model, as in crossval")
    corpus = load_corpus(args.corpus)
    passed = {name: value for name in _TRAIN_FIELDS if (value := getattr(args, name)) is not None}
    config = replace(system_config(system, corpus.spec, HarnessConfig(), args.seed), **passed)
    init_model = load_model(args.init) if args.init else None
    items = training_items(system, corpus, range(len(corpus)))
    model = lu_train(config, items, init_model=init_model)
    save_model(args.out, model)
    print(json.dumps({"model": args.out, "epochs": config.epochs, "final_loss": model.train_losses[-1]}))
    return 0


def _eval_view(args, corpus):
    if args.fold is None:
        return corpus.rows, corpus.sequences
    fold = _as_int("fold", args.fold, 0, args.k)  # before kfold_split can warn
    _, eval_idx = kfold_split(corpus.rows, args.k)[fold]
    return [corpus.rows[i] for i in eval_idx], [corpus.sequences[i] for i in eval_idx]


def _cmd_eval(args) -> int:
    corpus = load_corpus(args.corpus)
    model = load_model(args.model)
    system = _SYSTEMS[args.system]
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
    system = _SYSTEMS[args.system]
    result = bench_rtf(
        system,
        model,
        corpus.rows,
        corpus.sequences,
        corpus.projection,
        corpus.vocab,
        repeats=args.repeats,
    )
    print(json.dumps({**asdict(result), "system": system.value}))
    return 0


def _cmd_crossval(args) -> int:
    spec = _load_synth_spec(args.spec, args.seed)
    cfg = HarnessConfig(**{name: getattr(args, name) for name in _CROSSVAL_FIELDS})
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

"""Regenerate the committed numeric golden of the three systems.

Inputs: the corpus of ``test_harness.small_spec()`` and one seeded,
untrained ``lu_init`` model per system. Stored: ``run_system``
predictions, the E2 compression ratio, and the class probabilities of
every ``lu_forward`` call each system makes, in row order.

    PYTHONPATH=src python tests/make_golden.py            # rewrite tests/golden/systems.json
    PYTHONPATH=src python tests/make_golden.py --out FILE # write elsewhere

Set ``OPENBLAS_NUM_THREADS`` (or the BLAS's own variable) to pick the
BLAS thread count; ``test_golden.py`` runs this script at 1 and 2.
"""

import argparse
import json
from pathlib import Path

from ctsum import harness
from ctsum.harness import HarnessConfig, SystemId, run_system
from ctsum.lu import LUConfig, lu_init
from ctsum.synth import build_corpus

from test_harness import small_spec

GOLDEN = Path(__file__).parent / "golden" / "systems.json"
# seeds whose untrained models predict more than one intent here
MODEL_SEEDS = {SystemId.P1: 39, SystemId.E1: 23, SystemId.E2: 15}


def compute() -> dict:
    corpus = build_corpus(small_spec())
    spec, cfg = corpus.spec, HarnessConfig()
    calls = []
    forward = harness.lu_forward

    def recording(model, x):
        probs = forward(model, x)
        calls.append([float(p) for p in probs])
        return probs

    out = {}
    harness.lu_forward = recording
    try:
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
            del calls[:]
            run = run_system(
                system, model, corpus.rows, corpus.sequences, corpus.projection, corpus.vocab
            )
            out[system.value] = {"predictions": run.predictions, "probs": list(calls)}
            if run.compression is not None:
                out["compression_ratio_e2"] = run.compression
    finally:
        harness.lu_forward = forward
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

"""The three systems against the committed golden (``make_golden.py``).

Predictions, file digests and ``.sseq`` segment tables must match
exactly, and every classifier probability, trained loss and CTC
log-probability to 1e-12 relative, at BLAS threads 1 and 2. Each
thread count runs the generator in a fresh interpreter, since BLAS
reads its thread count when numpy loads.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_lu import package_env

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden" / "systems.json").read_text(encoding="utf-8"))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("threads", [1, 2])
def test_systems_match_golden(tmp_path, threads):
    env = dict(package_env(), **{var: str(threads) for var in THREAD_VARS})
    out = tmp_path / "systems.json"
    subprocess.run(
        [sys.executable, str(HERE / "make_golden.py"), "--out", str(out)],
        env=env, check=True, capture_output=True,
    )
    got = json.loads(out.read_text(encoding="utf-8"))
    assert set(got) == set(GOLDEN)
    assert got["compression_ratio_e2"] == pytest.approx(GOLDEN["compression_ratio_e2"], rel=1e-12)
    for system in ("P1", "E1", "E2"):
        assert got[system]["predictions"] == GOLDEN[system]["predictions"], system
        np.testing.assert_allclose(
            got[system]["probs"], GOLDEN[system]["probs"], rtol=1e-12, atol=0, err_msg=system
        )
        assert got["ctsm_sha256"][system] == GOLDEN["ctsm_sha256"][system], system
        trained, want = got["trained"][system], GOLDEN["trained"][system]
        np.testing.assert_allclose(
            trained["train_losses"], want["train_losses"], rtol=1e-12, atol=0, err_msg=system
        )
        np.testing.assert_allclose(
            trained["probs"], want["probs"], rtol=1e-12, atol=0, err_msg=system
        )
    formats, want = got["formats"], GOLDEN["formats"]
    assert formats["proj_sha256"] == want["proj_sha256"]
    assert [u["id"] for u in formats["utterances"]] == [u["id"] for u in want["utterances"]]
    for one, ref in zip(formats["utterances"], want["utterances"]):
        for key in ("lseq_sha256", "sseq_sha256", "sseq_segments",
                    "sseq_drop_blank_sha256", "sseq_drop_blank_segments"):
            assert one[key] == ref[key], (one["id"], key)
        assert one["ctc_logprob"] == pytest.approx(ref["ctc_logprob"], rel=1e-12, abs=0), one["id"]

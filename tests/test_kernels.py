"""Hot kernels against their references.

The CTC recursion: within one process only one path executes (chosen at
import from the CTS_NO_NUMBA environment variable), so these tests
compare the active path against the ``ctc_forward_ll_py`` original
directly; it uses only scalar ops and must agree bit for bit.

The GRU kernels run a packed minibatch and go through matrix products
over many rows at once, so they are held to a tight allclose against the
per-sequence reference in ``gru_reference``.
"""

import numpy as np
import pytest

from ctsum import _kernels
from ctsum._kernels import (
    USE_NUMBA,
    ctc_forward_ll,
    ctc_forward_ll_py,
    gru_backward,
    gru_forward,
    pack_lengths,
)
from ctsum.ctc import _expanded_target
from gru_reference import gru_backward_py, gru_forward_py


def random_ctc_instance(seed, t=12, v=6, l=4):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(v), size=t)
    log_probs = np.ascontiguousarray(np.log(probs))
    target = rng.integers(1, v, size=l)  # repeats allowed
    ext = _expanded_target(np.asarray(target, dtype=np.int64), 0)
    return log_probs, ext


def random_gru_instance(seed, lengths=(7, 2, 7, 1, 5), din=5, h=4):
    """Ragged sequences (x_i per input order), shared weights, their packing
    and the packed input."""
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((t, din)) for t in lengths]
    w = rng.standard_normal((3 * h, din)) * 0.4
    u = rng.standard_normal((3 * h, h)) * 0.4
    b = rng.standard_normal(3 * h) * 0.1
    pk = pack_lengths(lengths)
    x = np.empty((pk.rows.size, din))
    x[pk.rows] = np.concatenate([xs[i] for i in pk.order])
    return xs, w, u, b, pk, x


def sequence_rows(pk):
    """Packed rows of each input sequence, indexed by input position."""
    ends = np.cumsum(pk.lengths)
    out = [None] * len(pk.order)
    for j, i in enumerate(pk.order):
        out[i] = pk.rows[ends[j] - pk.lengths[j] : ends[j]]
    return out


class TestFlag:
    def test_flag_is_consistent_with_bindings(self):
        if USE_NUMBA:
            assert ctc_forward_ll is not ctc_forward_ll_py
            assert hasattr(ctc_forward_ll, "py_func")
        else:
            assert ctc_forward_ll is ctc_forward_ll_py

    def test_numba_available(self):
        assert _kernels.HAVE_NUMBA


class TestCtcKernel:
    def test_bit_identical_to_python(self):
        for seed in range(30):
            log_probs, ext = random_ctc_instance(seed)
            assert ctc_forward_ll(log_probs, ext) == ctc_forward_ll_py(log_probs, ext)

    def test_single_frame_single_state(self):
        log_probs = np.log(np.array([[0.25, 0.75]]))
        ext = np.array([0], dtype=np.int64)
        assert ctc_forward_ll(log_probs, ext) == pytest.approx(np.log(0.25))

    def test_infeasible_returns_neg_inf(self):
        log_probs, _ = random_ctc_instance(0, t=2)
        ext = _expanded_target(np.array([1, 2, 3], dtype=np.int64), 0)
        assert ctc_forward_ll(log_probs, ext) == -np.inf


class TestPacking:
    def test_layout(self):
        pk = pack_lengths([2, 3, 1, 3])
        np.testing.assert_array_equal(pk.order, [1, 3, 0, 2])
        np.testing.assert_array_equal(pk.lengths, [3, 3, 2, 1])
        assert pk.active == [4, 3, 2]
        assert pk.offsets == [0, 4, 7]
        # ranks concatenated: rank 0 steps 0..2, rank 1 steps 0..2, ...
        np.testing.assert_array_equal(pk.rows, [0, 4, 7, 1, 5, 8, 2, 6, 3])

    @pytest.mark.parametrize("lengths", [(1,), (4,), (3, 3, 3), (5, 1, 2, 5, 4)])
    def test_rev_reverses_each_sequence_in_place(self, lengths):
        xs, *_, pk, x = random_gru_instance(0, lengths=lengths)
        xr = x[pk.rev]
        for xi, rows in zip(xs, sequence_rows(pk)):
            np.testing.assert_array_equal(xr[rows], xi[::-1])
        np.testing.assert_array_equal(pk.rev[pk.rev], np.arange(pk.rev.size))


class TestGruKernels:
    def test_forward_close_to_python(self):
        for seed in range(10):
            xs, w, u, b, pk, x = random_gru_instance(seed)
            h = gru_forward(x, w, u, b, pk)
            for xi, rows in zip(xs, sequence_rows(pk)):
                ref = gru_forward_py(xi, w, u, b)[0]
                np.testing.assert_allclose(h[rows], ref, rtol=1e-12, atol=1e-14)

    def test_backward_close_to_python(self):
        for seed in range(10):
            xs, w, u, b, pk, x = random_gru_instance(seed)
            h = gru_forward(x, w, u, b, pk)
            dh = np.random.default_rng(seed + 100).standard_normal(h.shape)
            dw, du, db, dx = gru_backward(x, h, w, u, b, pk, dh)
            sums = [np.zeros_like(w), np.zeros_like(u), np.zeros_like(b)]
            for xi, rows in zip(xs, sequence_rows(pk)):
                ref = gru_backward_py(xi, *gru_forward_py(xi, w, u, b), w, u, dh[rows])
                for acc, g in zip(sums, ref):
                    acc += g
                np.testing.assert_allclose(dx[rows], ref[3], rtol=1e-10, atol=1e-12)
            for got, want in zip((dw, du, db), sums):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_backward_grad_matches_finite_differences(self):
        _, w, u, b, pk, x = random_gru_instance(3, lengths=(4, 1, 3), din=3, h=2)

        def loss(wv, uv):
            return gru_forward(x, wv, uv, b, pk).sum()

        h = gru_forward(x, w, u, b, pk)
        dw, du, _, _ = gru_backward(x, h, w, u, b, pk, np.ones_like(h))
        step = 1e-6
        for grad, arg in ((dw, 0), (du, 1)):
            for idx in [(0, 0), (3, 1), (5, 1)]:
                plus, minus = [w.copy(), u.copy()], [w.copy(), u.copy()]
                plus[arg][idx] += step
                minus[arg][idx] -= step
                fd = (loss(*plus) - loss(*minus)) / (2 * step)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_state_start(self):
        _, w, u, b, pk, x = random_gru_instance(5, lengths=(1, 1, 1))
        h = gru_forward(x, w, u, b, pk)
        # every row is a first step and sees h_prev = 0: h = (1 - z) * n
        # with z = s(a_z) and n = tanh(a_n), free of u
        hidden = u.shape[1]
        a = x @ w.T + b
        z = 1.0 / (1.0 + np.exp(-a[:, :hidden]))
        np.testing.assert_allclose(h, (1 - z) * np.tanh(a[:, 2 * hidden :]), atol=1e-15)

"""Hot kernels against their references.

The CTC recursion is solved with two running scans per target label,
which subtract running emission sums and so round differently from the
scalar double loop in ``ctc_reference``: it is held to 1e-12 relative
to max(1, |ref|) there, and to exactly -inf where no alignment fits.
Every CTC case goes through ``ctc_kernel``, which hands the kernel the
reference's (T, V) grid and expanded target in its own layout.

The GRU kernels run a packed minibatch and go through matrix products
over many rows at once, so they are held to a tight allclose against the
per-sequence reference in ``gru_reference``. The forward kernel is one
recurrence of any width: single-direction tests run it at width H, and
``bigru_layer`` runs a bidirectional layer through it at width 2H. A
packing of one sequence is stepped over 1-d rows instead, and is held
to the exact bits of the batched loop's (1, K) blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsum._kernels import (
    _cell,
    bigru_layer,
    bigru_layer_backward,
    ctc_forward_ll,
    gru_backward,
    gru_forward,
    pack,
)
from ctc_reference import ctc_forward_ll_py, expanded_target
from gru_reference import gru_backward_py, gru_forward_py


def random_ctc_instance(seed, t=12, v=6, l=4):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(v), size=t)
    log_probs = np.ascontiguousarray(np.log(probs))
    target = rng.integers(1, v, size=l)  # repeats allowed
    ext = expanded_target(np.asarray(target, dtype=np.int64), 0)
    return log_probs, ext


def ctc_kernel(log_probs, ext):
    """``ctc_forward_ll`` on the reference's arguments: the blank's and
    the target labels' columns of the (T, V) grid, as contiguous rows."""
    ids = ext[1::2]
    return ctc_forward_ll(log_probs.T[np.concatenate((ext[:1], ids))], ids)


def random_gru_instance(seed, lengths=(7, 2, 7, 1, 5), din=5, h=4):
    """Ragged sequences (x_i per input order), shared weights, their packing
    and the packed input."""
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((t, din)) for t in lengths]
    w = rng.standard_normal((3 * h, din)) * 0.4
    u = rng.standard_normal((3 * h, h)) * 0.4
    b = rng.standard_normal(3 * h) * 0.1
    pk, x = pack(xs)
    return xs, w, u, b, pk, x


def packing(lengths):
    """The layout ``pack`` gives sequences of these lengths."""
    return pack([np.zeros(t) for t in lengths])[0]


def sequence_rows(pk):
    """Packed rows of each input sequence, indexed by input position."""
    ends = np.cumsum(pk.lengths)
    out = [None] * len(pk.order)
    for j, i in enumerate(pk.order):
        out[i] = pk.rows[ends[j] - pk.lengths[j] : ends[j]]
    return out


def ctc_reference_cases():
    """(log_probs, ext) pairs for the kernel-vs-reference check.

    Random T in 1..80, V in 2..7 and Dirichlet concentrations down to
    0.02 with entries floored at 1e-30 as ``PosteriorGrid`` floors them;
    targets drawn from few labels, so adjacent repeats (no skip) are
    common. Every fourth target is long enough that S often exceeds T
    and many are infeasible. Then the edge shapes: S = 1 and T = 1.
    """
    rng = np.random.default_rng(20261018)
    concentrations = (0.02, 0.1, 1.0, 10.0)
    for i in range(1200):
        t = int(rng.integers(1, 81))
        v = int(rng.integers(2, 8))
        n = int(rng.integers(0, t + 3)) if i % 4 == 0 else int(rng.integers(0, min(t, 15) + 1))
        probs = rng.dirichlet(np.full(v, concentrations[i % 4]), size=t)
        log_probs = np.log(np.maximum(probs, 1e-30))
        yield log_probs, expanded_target(rng.integers(1, v, size=n), 0)
    for t, n in ((1, 0), (1, 1), (7, 0), (1, 2)):
        log_probs = np.log(rng.dirichlet(np.ones(4), size=t))
        yield log_probs, expanded_target(rng.integers(1, 4, size=n), 0)


def assert_matches_reference(log_probs, ext):
    ref = ctc_forward_ll_py(log_probs, ext)
    got = ctc_kernel(log_probs, ext)
    if ref == -np.inf:
        assert got == -np.inf
    else:
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)
    return ref


class TestCtcKernel:
    def test_matches_reference(self):
        cases = list(ctc_reference_cases())
        assert len(cases) >= 1000
        refs = [assert_matches_reference(log_probs, ext) for log_probs, ext in cases]
        # the cases cover S = 1 at T = 1, S > T, infeasible targets and repeats
        shapes = [(lp.shape[0], ext.size) for lp, ext in cases]
        assert (1, 1) in shapes and any(s > t for t, s in shapes)
        assert refs.count(-np.inf) > 0
        assert any((ext[3::2] == ext[1:-2:2]).any() for _, ext in cases)

    def test_matches_reference_long_sparse(self):
        # T = 2000 at concentration 0.02: most entries sit on the 1e-30 floor
        rng = np.random.default_rng(5)
        for n in (0, 3, 12):
            probs = rng.dirichlet(np.full(6, 0.02), size=2000)
            log_probs = np.log(np.maximum(probs, 1e-30))
            ext = expanded_target(rng.integers(1, 6, size=n), 0)
            assert_matches_reference(log_probs, ext)

    @pytest.mark.parametrize("t, n, concentration", [(3000, 60, 0.02), (500, 200, 0.1)])
    def test_matches_reference_long_targets(self, t, n, concentration):
        # many labels over many frames: each label's scans start from the
        # previous label's, so rounding could build up label by label
        rng = np.random.default_rng(t + n)
        probs = rng.dirichlet(np.full(6, concentration), size=t)
        log_probs = np.log(np.maximum(probs, 1e-30))
        ext = expanded_target(rng.integers(1, 6, size=n), 0)
        assert assert_matches_reference(log_probs, ext) > -np.inf

    def test_single_frame_single_state(self):
        log_probs = np.log(np.array([[0.25, 0.75]]))
        ext = np.array([0], dtype=np.int64)
        assert ctc_kernel(log_probs, ext) == pytest.approx(np.log(0.25))

    def test_infeasible_returns_neg_inf(self):
        log_probs, _ = random_ctc_instance(0, t=2)
        ext = expanded_target(np.array([1, 2, 3], dtype=np.int64), 0)
        assert ctc_kernel(log_probs, ext) == -np.inf


class TestPacking:
    def test_layout(self):
        pk = packing([2, 3, 1, 3])
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

    @settings(deadline=None, max_examples=150)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=20))
    def test_starts_and_prev_follow_the_layout(self, lengths):
        # starts: the exclusive cumulative sum of the ranked lengths;
        # prev: each sequence's own rows, one step earlier
        pk = packing(lengths)
        assert pk.starts.dtype == pk.prev.dtype == np.int64
        np.testing.assert_array_equal(pk.starts, np.cumsum(pk.lengths) - pk.lengths)
        first = pk.active[0]
        assert pk.prev.shape == (pk.rows.size - first,)
        for rows in sequence_rows(pk):
            np.testing.assert_array_equal(pk.prev[rows[1:] - first], rows[:-1])

    @settings(deadline=None, max_examples=150)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=20),
        ids=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pack_scatters_ranked_rows(self, lengths, ids, seed):
        # (T, D) frames or (T,) int64 label ids: packed[rows] is the ranked
        # concatenation, in the input's row shape and dtype, and one
        # sequence is packed as it is
        rng = np.random.default_rng(seed)
        xs = [rng.integers(0, 50, t) if ids else rng.standard_normal((t, 3)) for t in lengths]
        pk, packed = pack(xs)
        assert packed.dtype == xs[0].dtype
        assert packed.shape == (sum(lengths), *xs[0].shape[1:])
        np.testing.assert_array_equal(packed[pk.rows], np.concatenate([xs[i] for i in pk.order]))
        assert (packed is xs[0]) == (len(xs) == 1)

    @pytest.mark.parametrize("t", [1, 2, 7, 54])
    def test_single_sequence_layout(self, t):
        # the general construction for B = 1: rank 0 owns the one row of
        # every step, so row t is step t and rev runs the steps backwards
        expected = {
            "order": np.zeros(1, dtype=np.int64),
            "lengths": np.array([t], dtype=np.int64),
            "offsets": list(range(t)),
            "active": [1] * t,
            "rows": np.arange(t, dtype=np.int64),
            "rev": np.arange(t - 1, -1, -1, dtype=np.int64),
            "starts": np.zeros(1, dtype=np.int64),
            "prev": np.arange(t - 1, dtype=np.int64),
        }
        pk = packing([t])
        for name, want in expected.items():
            got = getattr(pk, name)
            if isinstance(want, list):
                assert got == want and all(type(v) is int for v in got), name
            else:
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)


class TestGruKernels:
    def test_forward_close_to_python(self):
        for seed in range(10):
            xs, w, u, b, pk, x = random_gru_instance(seed)
            h = gru_forward(x @ w.T + b, u.T, pk)
            for xi, rows in zip(xs, sequence_rows(pk)):
                ref = gru_forward_py(xi, w, u, b)[0]
                np.testing.assert_allclose(h[rows], ref, rtol=1e-12, atol=1e-14)

    @staticmethod
    def two_directions(seed, lengths):
        """A ragged instance with own weights per direction, stacked as
        ``bigru_layer`` takes them, and each direction's (w, u, b)."""
        xs, w, u, b, pk, x = random_gru_instance(seed, lengths=lengths)
        _, wb, ub, bb, *_ = random_gru_instance(seed + 50, lengths=lengths)
        stacked = tuple(np.stack(pair) for pair in ((w, wb), (u, ub), (b, bb)))
        return xs, pk, x, stacked, ((w, u, b), (wb, ub, bb))

    def test_both_directions_close_to_python(self):
        # own weights per direction, the backward one fed every sequence
        # reversed; out holds [h_f | h_b] in packed row order
        shapes = [(7, 2, 7, 1, 5), (6,), (1, 1), (3, 9, 4, 9)]
        for seed, lengths in enumerate(shapes * 3):
            xs, pk, x, stacked, (fw, bw) = self.two_directions(seed, lengths)
            out, _ = bigru_layer(x, *stacked, pk, {})
            hidden = stacked[1].shape[2]
            assert out.shape == (x.shape[0], 2 * hidden)
            for xi, rows in zip(xs, sequence_rows(pk)):
                ref_f = gru_forward_py(xi, *fw)[0]
                ref_b = gru_forward_py(xi[::-1], *bw)[0][::-1]
                np.testing.assert_allclose(out[rows, :hidden], ref_f, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(out[rows, hidden:], ref_b, rtol=1e-12, atol=1e-14)

    def test_bidirectional_layout(self):
        # the cache holds the inputs (x, x[pk.rev]), the gate-major
        # projections [z_f z_b | r_f r_b | n_f n_b] and the states
        # [h_f | h_b], h_b in pk.rev row order; each direction's state
        # feeds only its own gates, so the other direction's weights leave
        # its half of out bit-identical
        hidden, din = 3, 5
        rng = np.random.default_rng(9)
        pk = packing([3, 1, 2])
        n = pk.rows.size
        x = rng.standard_normal((n, din))
        w = rng.standard_normal((2, 3 * hidden, din))
        u = rng.standard_normal((2, 3 * hidden, hidden))
        b = rng.standard_normal((2, 3 * hidden))
        out, (xs, ag, h) = bigru_layer(x, w, u, b, pk, {})
        np.testing.assert_array_equal(xs[0], x)
        np.testing.assert_array_equal(xs[1], x[pk.rev])
        ag = ag.reshape(n, 6 * hidden)
        blocks = [slice(i * hidden, (i + 1) * hidden) for i in range(6)]
        for d in range(2):
            a = xs[d] @ w[d].T + b[d]
            for gate in range(3):
                col = blocks[2 * gate + d]
                np.testing.assert_allclose(ag[:, col], a[:, blocks[gate]], rtol=1e-15, atol=1e-15)
        np.testing.assert_array_equal(out, np.concatenate((h[:, :hidden], h[pk.rev, hidden:]), axis=1))
        for d in range(2):
            other = [arr.copy() for arr in (w, u, b)]
            for arr in other:
                arr[1 - d] = rng.standard_normal(arr[1 - d].shape)
            own = slice(d * hidden, (d + 1) * hidden)
            np.testing.assert_array_equal(bigru_layer(x, *other, pk, {})[0][:, own], out[:, own])

    def test_layer_backward_close_to_python(self):
        # each direction against the per-sequence reference, the backward
        # one on the reversed sequence with its half of dout reversed;
        # dx sums both directions in packed row order
        shapes = [(7, 2, 7, 1, 5), (6,), (1, 1), (3, 9, 4, 9)]
        for seed, lengths in enumerate(shapes * 2):
            xs, pk, x, stacked, (fw, bw) = self.two_directions(seed, lengths)
            out, cache = bigru_layer(x, *stacked, pk, {})
            dout = np.random.default_rng(seed + 100).standard_normal(out.shape)
            dw, du, db, dx = bigru_layer_backward(cache, stacked[0], stacked[1], pk, dout)
            hidden = stacked[1].shape[2]
            sums = [np.zeros_like(arr) for arr in stacked]
            for xi, rows in zip(xs, sequence_rows(pk)):
                ref_f = gru_backward_py(xi, *gru_forward_py(xi, *fw), *fw[:2], dout[rows, :hidden])
                xr = xi[::-1]
                ref_b = gru_backward_py(xr, *gru_forward_py(xr, *bw), *bw[:2], dout[rows, hidden:][::-1])
                for d, ref in enumerate((ref_f, ref_b)):
                    for acc, g in zip(sums, ref):
                        acc[d] += g
                np.testing.assert_allclose(dx[rows], ref_f[3] + ref_b[3][::-1], rtol=1e-10, atol=1e-12)
            for got, want in zip((dw, du, db), sums):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_backward_close_to_python(self):
        for seed in range(10):
            xs, w, u, b, pk, x = random_gru_instance(seed)
            h = gru_forward(x @ w.T + b, u.T, pk)
            dh = np.random.default_rng(seed + 100).standard_normal(h.shape)
            dw, du, db, dx = gru_backward(x, x @ w.T + b, h, w, u, pk, dh)
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
            return gru_forward(x @ wv.T + b, uv.T, pk).sum()

        h = gru_forward(x @ w.T + b, u.T, pk)
        dw, du, _, _ = gru_backward(x, x @ w.T + b, h, w, u, pk, np.ones_like(h))
        step = 1e-6
        for grad, arg in ((dw, 0), (du, 1)):
            for idx in [(0, 0), (3, 1), (5, 1)]:
                plus, minus = [w.copy(), u.copy()], [w.copy(), u.copy()]
                plus[arg][idx] += step
                minus[arg][idx] -= step
                fd = (loss(*plus) - loss(*minus)) / (2 * step)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @settings(deadline=None, max_examples=60)
    @given(t=st.integers(1, 80), k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_one_sequence_equals_one_row_block_steps(self, t, k, seed):
        # a one-sequence packing is stepped over 1-d rows; it must give
        # the bits of the batched loop's (1, K) blocks, written out here
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((t, 3 * k))
        ut = rng.standard_normal((k, 3 * k)) / np.sqrt(k)
        nzr, an = -a[:, : 2 * k], a[:, 2 * k :]
        want = np.empty((t, k))
        hp = np.zeros((1, k))
        for s in range(t):
            z, _, n = _cell(nzr[s : s + 1], an[s : s + 1], hp.dot(ut))
            want[s] = (1.0 - z) * n + z * hp
            hp = want[s : s + 1]
        assert np.array_equal(gru_forward(a, ut, pack([a])[0]), want)

    @settings(deadline=None, max_examples=60)
    @given(k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_cell_on_a_row_equals_cell_on_a_one_row_block(self, k, seed):
        rng = np.random.default_rng(seed)
        nzr, an, v = rng.standard_normal(2 * k), rng.standard_normal(k), rng.standard_normal(3 * k)
        rows = _cell(nzr, an, v)
        blocks = _cell(nzr[None], an[None], v[None])
        for row, block in zip(rows, blocks):
            assert row.shape == (k,) and block.shape == (1, k)
            assert np.array_equal(row, block[0])

    def test_zero_state_start(self):
        _, w, u, b, pk, x = random_gru_instance(5, lengths=(1, 1, 1))
        h = gru_forward(x @ w.T + b, u.T, pk)
        # every row is a first step and sees h_prev = 0: h = (1 - z) * n
        # with z = s(a_z) and n = tanh(a_n), free of u
        hidden = u.shape[1]
        a = x @ w.T + b
        z = 1.0 / (1.0 + np.exp(-a[:, :hidden]))
        np.testing.assert_allclose(h, (1 - z) * np.tanh(a[:, 2 * hidden :]), atol=1e-15)

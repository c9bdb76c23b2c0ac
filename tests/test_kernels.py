"""Hot kernels against their references.

The CTC recursion is solved one state column at a time, which subtracts
running emission sums and so rounds differently from the scalar double
loop in ``ctc_reference``: it is held to 1e-12 relative to max(1, |ref|)
there, and to exactly -inf where no alignment fits.

The GRU kernels run a packed minibatch and go through matrix products
over many rows at once, so they are held to a tight allclose against the
per-sequence reference in ``gru_reference``. The forward kernel steps G
groups (the directions of a layer) at once; single-direction tests run
it with G = 1.
"""

import numpy as np
import pytest

from ctsum._kernels import (
    ctc_forward_ll,
    gru_backward,
    gru_forward,
    pack_lengths,
)
from ctsum.ctc import _expanded_target
from ctc_reference import ctc_forward_ll_py
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
        yield log_probs, _expanded_target(rng.integers(1, v, size=n), 0)
    for t, n in ((1, 0), (1, 1), (7, 0), (1, 2)):
        log_probs = np.log(rng.dirichlet(np.ones(4), size=t))
        yield log_probs, _expanded_target(rng.integers(1, 4, size=n), 0)


def assert_matches_reference(log_probs, ext):
    ref = ctc_forward_ll_py(log_probs, ext)
    got = ctc_forward_ll(log_probs, ext)
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
            ext = _expanded_target(rng.integers(1, 6, size=n), 0)
            assert_matches_reference(log_probs, ext)

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
        }
        pk = pack_lengths([t])
        for name, want in expected.items():
            got = getattr(pk, name)
            if isinstance(want, list):
                assert got == want and all(type(v) is int for v in got), name
            else:
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)


def forward(x, w, u, b, pk):
    """One direction through the grouped kernel: a group of one."""
    return gru_forward((x @ w.T + b)[None], u.T[None], pk)[0]


class TestGruKernels:
    def test_forward_close_to_python(self):
        for seed in range(10):
            xs, w, u, b, pk, x = random_gru_instance(seed)
            h = forward(x, w, u, b, pk)
            for xi, rows in zip(xs, sequence_rows(pk)):
                ref = gru_forward_py(xi, w, u, b)[0]
                np.testing.assert_allclose(h[rows], ref, rtol=1e-12, atol=1e-14)

    def test_two_groups_close_to_python(self):
        # both directions of a layer: own weights per group, group 1 runs
        # every sequence reversed through pk.rev
        for seed in range(10):
            xs, w, u, b, pk, x = random_gru_instance(seed)
            _, wb, ub, bb, *_ = random_gru_instance(seed + 50)
            a = np.stack((x @ w.T + b, x[pk.rev] @ wb.T + bb))
            h = gru_forward(a, np.stack((u.T, ub.T)), pk)
            assert h.shape == (2, x.shape[0], u.shape[1])
            for xi, rows in zip(xs, sequence_rows(pk)):
                ref_f = gru_forward_py(xi, w, u, b)[0]
                ref_b = gru_forward_py(xi[::-1], wb, ub, bb)[0]
                np.testing.assert_allclose(h[0][rows], ref_f, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(h[1][rows], ref_b, rtol=1e-12, atol=1e-14)

    def test_backward_close_to_python(self):
        for seed in range(10):
            xs, w, u, b, pk, x = random_gru_instance(seed)
            h = forward(x, w, u, b, pk)
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
            return forward(x, wv, uv, b, pk).sum()

        h = forward(x, w, u, b, pk)
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
        h = forward(x, w, u, b, pk)
        # every row is a first step and sees h_prev = 0: h = (1 - z) * n
        # with z = s(a_z) and n = tanh(a_n), free of u
        hidden = u.shape[1]
        a = x @ w.T + b
        z = 1.0 / (1.0 + np.exp(-a[:, :hidden]))
        np.testing.assert_allclose(h, (1 - z) * np.tanh(a[:, 2 * hidden :]), atol=1e-15)

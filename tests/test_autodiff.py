"""The differentiation engine against its finite-difference oracle."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from cvnet import autodiff as ad
from cvnet import nn  # registers the activation ops
from cvnet.complex_ops import make_rng, sample_circular_gaussian


def scalar(z):
    return np.asarray(z, dtype=complex)


class TestNumericOracle:
    def test_square_is_holomorphic(self):
        pair = ad.wirtinger_pair_numeric(lambda z: z * z, scalar(1 + 1j))
        assert pair.j.ravel()[0] == pytest.approx(2 + 2j, abs=1e-7)
        assert abs(pair.jc.ravel()[0]) < 1e-7

    def test_real_part(self):
        pair = ad.wirtinger_pair_numeric(lambda z: z.real.astype(complex), scalar(0.4 - 2j))
        assert pair.j.ravel()[0] == pytest.approx(0.5, abs=1e-9)
        assert pair.jc.ravel()[0] == pytest.approx(0.5, abs=1e-9)

    def test_squared_magnitude_pair(self):
        # d(z zbar)/dz = zbar and d(z zbar)/dzbar = z
        z0 = 2 + 3j
        pair = ad.wirtinger_pair_numeric(lambda z: z * np.conj(z), scalar(z0))
        assert pair.j.ravel()[0] == pytest.approx(np.conj(z0), abs=1e-6)
        assert pair.jc.ravel()[0] == pytest.approx(z0, abs=1e-6)

    def test_nonfinite_probe_reported(self):
        def f(z):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (z - (1 + 1j))

        with pytest.raises(ad.EvaluationError, match="probe"):
            ad.wirtinger_pair_numeric(f, scalar(1 + 1j))


class TestComposePairs:
    def test_holomorphic_composition_stays_holomorphic(self):
        inner = ad.JacobianPair(np.array([[2 + 1j]]), np.zeros((1, 1), dtype=complex))
        outer = ad.JacobianPair(np.array([[0.5 - 3j]]), np.zeros((1, 1), dtype=complex))
        composed = ad.compose_pairs(outer, inner)
        assert np.all(composed.jc == 0)

    def test_worked_example_matches_oracle(self):
        # outer w -> w conj(w) after inner z -> conj(z) is z -> z conj(z);
        # the oracle fixes (J, Jc) = (conj(z0), z0) at z0 = 2+3i.
        z0 = 2 + 3j
        w = np.conj(z0)
        outer = ad.JacobianPair(np.array([[np.conj(w)]]), np.array([[w]]))
        inner = ad.JacobianPair(np.array([[0j]]), np.array([[1 + 0j]]))
        composed = ad.compose_pairs(outer, inner)
        assert composed.j.ravel()[0] == pytest.approx(2 - 3j, abs=1e-12)
        assert composed.jc.ravel()[0] == pytest.approx(2 + 3j, abs=1e-12)
        oracle = ad.wirtinger_pair_numeric(lambda z: z * np.conj(z), scalar(z0))
        assert composed.j.ravel()[0] == pytest.approx(oracle.j.ravel()[0], rel=1e-5)
        assert composed.jc.ravel()[0] == pytest.approx(oracle.jc.ravel()[0], rel=1e-5)

    @pytest.mark.parametrize("case", range(10))
    def test_random_scalar_chains_match_oracle(self, case):
        # depth-3 chains over the registered ops vs the oracle of the
        # literal composition
        names = sorted(ad.REGISTRY)
        rng = make_rng(case, 31)
        chain = [names[int(rng.integers(len(names)))] for _ in range(3)]
        z0 = 0.7 * sample_circular_gaussian(rng, (), 1.0)

        def apply_chain(z):
            for name in chain:
                z = ad.REGISTRY[name].fn(z)
            return z

        z = scalar(z0)
        pair = ad.pair_at(chain[0], z)
        value = ad.REGISTRY[chain[0]].fn(z)
        for name in chain[1:]:
            pair = ad.compose_pairs(ad.pair_at(name, value), pair)
            value = ad.REGISTRY[name].fn(value)
        oracle = ad.wirtinger_pair_numeric(apply_chain, z)
        np.testing.assert_allclose(pair.j, oracle.j, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(pair.jc, oracle.jc, rtol=1e-5, atol=1e-6)

    def test_shape_mismatch(self):
        a = ad.JacobianPair(np.zeros((2, 3)), np.zeros((2, 3)))
        b = ad.JacobianPair(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ad.DimensionError):
            ad.compose_pairs(a, b)

    def test_pair_shapes_must_agree(self):
        with pytest.raises(ad.DimensionError):
            ad.JacobianPair(np.zeros((2, 2)), np.zeros((3, 3)))


class TestBackward:
    def test_squared_magnitude_gradient_is_exact(self):
        z = ad.Var(scalar(2 + 3j))
        store = ad.backward(ad.sum_abs2(z))
        assert store[z] == scalar(2 + 3j)  # machine exact

    def test_gradient_at_stationary_point_is_exactly_zero(self):
        z = ad.Var(scalar(0j))
        ad.backward(ad.sum_abs2(z))
        assert z.grad == 0

    def test_tanh_magnitude_loss_at_zero(self):
        z = ad.Var(scalar(0j))
        ad.backward(ad.sum_abs2(nn.ctanh(z)))
        assert z.grad == 0

    @pytest.mark.parametrize("part", [np.real, np.asarray], ids=["float64", "complex128"])
    @pytest.mark.parametrize("seed", [1.0, 2.5])
    @pytest.mark.parametrize("shape", [(), (7, 5)])
    def test_squared_error_emits_the_scaled_residual_bits(self, part, seed, shape):
        # The root's emission is seed * (e / n) to the last bit, whatever
        # path computes it.
        rng = make_rng(18)
        pred, target = (part(sample_circular_gaussian(rng, shape, 1.0)) for _ in range(2))
        p = ad.Var(pred)
        ad.backward(ad.mse(p, target, 3 * max(pred.size, 1)), seed=seed)
        want = seed * ((pred - target) / (3 * max(pred.size, 1)))
        assert p.grad.dtype == want.dtype and p.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("part", [np.real, np.asarray], ids=["float64", "complex128"])
    def test_squared_error_below_the_root(self, part):
        # Below the root a squared-error node gets gamma=None and takes
        # conj(delta) itself: d(L^2)/d(conj p) = 2 L e / n.
        rng = make_rng(19)
        p0, t = (part(sample_circular_gaussian(rng, (3, 2), 1.0)) for _ in range(2))
        n = 2 * p0.size

        def graph(u):
            p = ad.Var(u)
            return p, ad.sum_abs2(ad.mse(p, t, n))

        p, root = graph(p0)
        ad.backward(root)
        oracle = ad.wirtinger_pair_numeric(lambda u: graph(part(u))[1].value, p0)
        np.testing.assert_allclose(p.grad, oracle.jc.reshape(p0.shape), rtol=1e-6, atol=1e-9)
        loss = ad.mse(ad.Var(p0), t, n).value
        want = (2 * loss) * ((p0 - t) / n)
        assert p.grad.dtype == want.dtype and p.grad.tobytes() == want.tobytes()

    def test_seed_stored_at_root(self):
        z = ad.Var(scalar(1 + 1j))
        loss = ad.sum_abs2(z)
        store = ad.backward(loss)
        assert store[loss] == 1.0

    def test_two_layer_network_matches_oracle(self):
        rng = make_rng(17)
        arrays = {
            "w1": 0.6 * sample_circular_gaussian(rng, (3, 4), 1.0),
            "b1": 0.3 * sample_circular_gaussian(rng, (3, 1), 1.0),
            "w2": 0.6 * sample_circular_gaussian(rng, (2, 3), 1.0),
            "b2": 0.3 * sample_circular_gaussian(rng, (2, 1), 1.0),
        }
        x = sample_circular_gaussian(rng, (4, 1), 1.0)
        t = sample_circular_gaussian(rng, (2, 1), 1.0)

        def loss_of(params):
            pv = {k: ad.Var(v) for k, v in params.items()}
            h = nn.ctanh(pv["w1"] @ ad.Var(x) + pv["b1"])
            out = pv["w2"] @ h + pv["b2"]
            return ad.mse(out, t, 2 * t.size), pv

        loss, pv = loss_of(arrays)
        ad.backward(loss)
        for name in arrays:
            def f(tensor, _n=name):
                trial = dict(arrays)
                trial[_n] = tensor
                return loss_of(trial)[0].value

            oracle = ad.wirtinger_pair_numeric(f, arrays[name])
            got = pv[name].grad
            np.testing.assert_allclose(
                got, oracle.jc.reshape(got.shape), rtol=1e-5, atol=1e-8
            )

    def test_rejects_non_real_root(self):
        z = ad.Var(scalar(1 + 2j))
        with pytest.raises(ad.GradientContractError, match="real-valued"):
            ad.backward(ad.elementwise(z, "square"))

    def test_rejects_non_scalar_root(self):
        z = ad.Var(np.ones(3, dtype=complex))
        with pytest.raises(ad.GradientContractError, match="scalar"):
            ad.backward(z)

    def test_nan_gradient_names_node(self):
        with np.errstate(over="ignore", invalid="ignore"):
            z = ad.Var(scalar(1e200 + 0j))
            loss = ad.sum_abs2(ad.elementwise(z, "square"))  # overflows on the way down
            with pytest.raises(ad.NumericError, match="emitted by node 'sum_abs2'"):
                ad.backward(loss)

    def test_nan_mid_graph_names_first_emitter(self, monkeypatch):
        # A NaN derivative inside the graph: the matmul below ctanh emits
        # NaN as well, but ctanh emitted it first.
        original = ad.REGISTRY["ctanh"]

        def nan_pair(z, y):
            j, jc = original.pair(z, y)
            return np.full_like(j, np.nan), jc

        monkeypatch.setitem(ad.REGISTRY, "ctanh", ad.ElementwiseOp(
            "ctanh", original.fn, nan_pair, original.holomorphic, original.probe_radius
        ))
        rng = make_rng(24)
        w1 = ad.Var(0.5 * sample_circular_gaussian(rng, (3, 4), 1.0))
        w2 = ad.Var(0.5 * sample_circular_gaussian(rng, (2, 3), 1.0))
        x = sample_circular_gaussian(rng, (4, 5), 1.0)
        loss = ad.mse(w2 @ nn.ctanh(w1 @ x), np.zeros((2, 5)), 20)
        with pytest.raises(ad.NumericError, match="emitted by node 'ctanh'"):
            ad.backward(loss)
        assert np.all(np.isfinite(w2.grad)) and np.all(np.isnan(w1.grad))

    def test_overflowing_sum_names_node(self):
        # Each emission into x is 1e308, finite; their sum is not.
        x = ad.Var([[0.5]])
        c = [[1e154]]
        loss = ad.sum_abs2(c @ x + c @ x)
        with np.errstate(over="ignore"):
            with pytest.raises(ad.NumericError, match="accumulated at node 'leaf'"):
                ad.backward(loss)

    def test_only_leaves_and_root_keep_cogradients(self):
        # Interior cogradients are freed once their node has emitted.
        m = nn.init_model(4, 3, 4, field="complex", init_scale=0.7, seed=8)
        rng = make_rng(26)
        frames = [sample_circular_gaussian(rng, (4, 5), 1.0) for _ in range(2)]
        data = ad.Var(sample_circular_gaussian(rng, (4, 5), 1.0))  # a data leaf
        loss, pv = nn.forward_loss(m, frames + [data], np.zeros((4, 5)))
        store = ad.backward(loss)
        order = ad._toposort(loss)
        kept = [n for n in order if n.emit is None] + [loss]
        assert set(store) == set(kept) and len(store) == len(kept)
        assert set(pv.values()) | {data} <= set(store)
        assert all(n.grad is None for n in order if n not in store)
        assert len(order) > len(store)
        for node, grad in store.items():
            assert node.grad is grad and grad.shape == node.value.shape
        assert store[loss] == 1.0

    def test_peak_does_not_grow_with_chain_length(self):
        # A chain of k elementwise nodes over one (1000, 100) array: holding
        # every interior cogradient until the pass ends would add one array
        # per node to backward's peak.
        arr = 0.5 * sample_circular_gaussian(make_rng(27), (1000, 100), 1.0)
        peaks = {}
        for k in (4, 20):
            v = ad.Var(arr)
            for _ in range(k):
                v = ad.elementwise(v, "linear")
            loss = ad.sum_abs2(v)
            del v
            tracemalloc.start()
            try:
                ad.backward(loss)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20] < peaks[4] + arr.nbytes / 2, (peaks, arr.nbytes)

    def test_grad_shapes_match_values(self):
        rng = make_rng(21)
        w = ad.Var(sample_circular_gaussian(rng, (3, 5), 1.0))
        x = ad.Var(sample_circular_gaussian(rng, (5, 2), 1.0))
        b = ad.Var(sample_circular_gaussian(rng, (3, 1), 1.0))
        loss = ad.mse(w @ x + b, np.zeros((3, 2)), 12)
        store = ad.backward(loss)
        for var in (w, x, b):
            assert store[var].shape == var.value.shape


class TestWhatAGraphHolds:
    def test_a_dropped_interior_handle_frees_its_value(self):
        # Nothing reads w @ x once it is summed with b: with its handle
        # dropped, the graph must not keep its value.
        rng = make_rng(28)
        w = ad.Var(sample_circular_gaussian(rng, (3, 5), 1.0))
        b = ad.Var(sample_circular_gaussian(rng, (3, 1), 1.0))
        x = sample_circular_gaussian(rng, (5, 2), 1.0)
        target = sample_circular_gaussian(rng, (3, 2), 1.0)
        kept = w @ x
        want = ad.backward(ad.mse(kept + b, target, 12))
        want = {leaf: want[leaf].copy() for leaf in (w, b)}
        product = w @ x
        value = weakref.ref(product.value)
        s = product + b
        del product
        assert value() is None
        store = ad.backward(ad.mse(s, target, 12))
        for leaf in (w, b):
            assert store[leaf].tobytes() == want[leaf].tobytes()

    def test_forward_loss_holds_only_what_the_rules_read(self):
        # A step's graph keeps, per recurrent step, the activation's output
        # (its rule and the next W_rec product read it), plus the loss
        # residual. ctanh's input, every other intermediate sum and the
        # prediction are freed once consumed; keeping them all would hold
        # 16 hidden-sized arrays and three output-sized ones here.
        m = nn.init_model(32, 64, 32, field="complex", init_scale=0.5, seed=9)
        rng = make_rng(29)
        frames = [sample_circular_gaussian(rng, (32, 200), 1.0) for _ in range(3)]
        target = sample_circular_gaussian(rng, (32, 200), 1.0)
        hidden_mb = 64 * 200 * 16 / 2**20
        residual_mb = target.nbytes / 2**20
        gc.collect()
        tracemalloc.start()
        try:
            loss, pv = nn.forward_loss(m, frames, target)
            held_mb = tracemalloc.get_traced_memory()[0] / 2**20
        finally:
            tracemalloc.stop()
        # One more hidden-sized array of slack covers the graph's objects.
        bound = 3 * hidden_mb + residual_mb + hidden_mb
        assert held_mb < bound, (held_mb, bound)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_ctanh_drops_its_input(self, dtype):
        # ctanh's pair reads only its output t: with the pre-activation's
        # handle dropped, the graph must not keep z.
        rng = make_rng(30)
        w, x, target = (sample_circular_gaussian(rng, shape, 0.5) for shape in ((3, 5), (5, 2), (3, 2)))
        if dtype is np.float64:
            w, x, target = w.real.copy(), x.real.copy(), target.real.copy()
        w = ad.Var(w)
        want = ad.backward(ad.mse(nn.ctanh(w @ x), target, 12))[w].copy()
        pre = w @ x
        value = weakref.ref(pre.value)
        out = nn.ctanh(pre)
        del pre
        assert value() is None
        assert ad.backward(ad.mse(out, target, 12))[w].tobytes() == want.tobytes()


class TestResidualOfAView:
    """mse on a strided view of the samples gives a contiguous copy's bytes."""

    @staticmethod
    def case(name):
        # (prediction, target view); 131 and 70 are not multiples of the
        # 64-column copy tile.
        rng = make_rng(97)
        if name == "float64-view-of-complex":
            samples = sample_circular_gaussian(rng, (131, 100), 1.0)
            return rng.normal(size=(100, 131)), samples.view(np.float64)[:, 100:].T
        if name == "complex-minus-float64":
            pred = sample_circular_gaussian(rng, (40, 131), 1.0)
            pred.imag[:, ::3] = -0.0
            return pred, rng.normal(size=(131, 80))[:, 40:].T
        if name == "1-d":
            pred = sample_circular_gaussian(rng, 70, 1.0)
            pred.imag[::2] = -0.0
            return pred, rng.normal(size=140)[::2]
        return np.array(0.5 - 0.0j), np.array(-1.25)  # 0-d

    NAMES = ["float64-view-of-complex", "complex-minus-float64", "1-d", "0-d"]

    @pytest.mark.parametrize("name", NAMES)
    def test_residual_bytes_and_layout(self, name):
        pred, target = self.case(name)
        e = ad._residual(pred, target)
        want = pred - target.copy(order="C")
        assert e.flags.c_contiguous and e.dtype == want.dtype
        assert e.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", NAMES)
    def test_value_and_cogradient_equal_a_contiguous_copy(self, name):
        pred, target = self.case(name)
        got = []
        for t in (target, target.copy(order="C")):
            v = ad.Var(pred)
            loss = ad.mse(v, t, 2 * t.size)
            got.append((loss.value.tobytes(), ad.backward(loss)[v].tobytes()))
        assert got[0] == got[1]


class TestSquaredNormBits:
    """mse and sum_abs2 skip e.imag for float64 without moving a bit."""

    @staticmethod
    def arrays():
        rng = make_rng(95)
        x = rng.standard_normal((64, 33)) * np.exp(rng.uniform(-20, 20, (64, 33)))
        z = sample_circular_gaussian(rng, (64, 33), 1.0)
        return [x, x.T, np.asfortranarray(x), z, z.T, z[:, ::3]]

    def test_sum_abs2(self):
        for arr in self.arrays():
            assert ad.sum_abs2(ad.Var(arr)).value == np.sum(arr.real**2 + arr.imag**2)

    def test_mse(self):
        for arr in self.arrays():
            target = np.roll(arr, 1, axis=0)
            e = arr - target
            want = np.sum(e.real**2 + e.imag**2) / 7
            assert ad.mse(ad.Var(arr), target, 7).value == want


class TestConstants:
    def test_plain_array_operands_get_no_edge(self):
        rng = make_rng(22)
        w = ad.Var(sample_circular_gaussian(rng, (3, 5), 1.0))
        x = sample_circular_gaussian(rng, (5, 2), 1.0)
        c = sample_circular_gaussian(rng, (3, 2), 1.0)
        out = w @ x + c
        assert out.parents[0].parents == (w,)
        store = ad.backward(ad.mse(out, np.zeros((3, 2)), 12))
        assert [n for n in store if n.emit is None] == [w]
        np.testing.assert_allclose(store[w], out.value @ np.conj(x).T / 12, atol=1e-14)

    @pytest.mark.parametrize("op, left, explicit", [
        ("add", lambda a, v: a + v, lambda a, v: v + a),
        ("matmul", lambda a, v: a @ v, lambda a, v: ad.matmul(a, v)),
    ], ids=["add", "matmul"])
    def test_array_on_the_left_defers_to_var(self, op, left, explicit):
        rng = make_rng(23)
        a = sample_circular_gaussian(rng, (2, 2), 1.0)
        varr = sample_circular_gaussian(rng, (2, 2), 1.0)
        grads = []
        for build in (left, explicit):
            v = ad.Var(varr)
            out = build(a, v)
            assert isinstance(out, ad.Var)
            assert out.op == op and out.parents == (v,)
            grads.append(ad.backward(ad.mse(out, np.zeros((2, 2)), 8))[v])
        np.testing.assert_array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("build", [
        lambda v: v - v,
        lambda v: v * v,
        lambda v: -v,
        lambda v: np.ones(()) - v,
    ], ids=["sub", "mul", "neg", "array-sub"])
    def test_undefined_arithmetic_raises_type_error(self, build):
        # The engine defines + and @ only; anything else must not build an
        # object array around the Var.
        with pytest.raises(TypeError):
            build(ad.Var(np.ones((2, 2))))


class TestRealDataMatmul:
    """Complex parameters times float64 data: matmul's real-GEMM path."""

    @pytest.mark.parametrize("columns", [slice(None), slice(3, 9)], ids=["whole", "batch"])
    def test_value_and_cogradient_match_complex_product(self, columns):
        rng = make_rng(24)
        w = sample_circular_gaussian(rng, (7, 6), 1.0)
        # Column-major like build_views' frames; train passes column slices.
        x = np.asfortranarray(rng.normal(size=(6, 12)))[:, columns]
        target = sample_circular_gaussian(rng, (7, x.shape[1]), 1.0)
        outs, grads = [], []
        for data in (x, x + 0j):
            v = ad.Var(w)
            out = ad.matmul(v, data)
            grads.append(ad.backward(ad.mse(out, target, 2 * target.size))[v])
            outs.append(out.value)
        for got, want in (outs, grads):
            assert got.dtype == np.complex128
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestPromote:
    @pytest.mark.parametrize("value, want", [
        (np.array([1, 2]), np.float64),
        (np.array([True, False]), np.float64),
        (np.ones(2, dtype=np.float32), np.float64),
        (np.ones(2, dtype=np.complex64), np.complex128),
    ], ids=["int", "bool", "float32", "complex64"])
    def test_other_dtypes_widen(self, value, want):
        got = ad.promote(value)
        assert got.dtype == want
        np.testing.assert_array_equal(got, value)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_engine_dtypes_pass_without_copy(self, dtype):
        arr = np.ones((2, 3), dtype=dtype)[:, ::2]  # a non-contiguous view, too
        assert ad.promote(arr) is arr
        assert ad.Var(arr).value is arr


class TestDualChannel:
    """backward()'s one channel against both channels of the oracle."""

    def _graph(self, warr, x, t, act):
        w = ad.Var(warr)
        out = act(w @ ad.Var(x))
        return w, ad.mse(out, t, 2 * t.size)

    @pytest.mark.parametrize("act", [nn.ctanh, nn.split_magnitude, lambda v: ad.elementwise(v, "conj")])
    def test_single_channel_equals_dual(self, act):
        rng = make_rng(33)
        warr = 0.7 * sample_circular_gaussian(rng, (3, 4), 1.0)
        x = sample_circular_gaussian(rng, (4, 2), 1.0)
        t = sample_circular_gaussian(rng, (3, 2), 1.0)
        w, loss = self._graph(warr, x, t, act)
        single = ad.backward(loss)[w]
        oracle = ad.wirtinger_pair_numeric(lambda u: self._graph(u, x, t, act)[1].value, warr)
        # A real loss has dL/dz = conj(dL/d(conj z)), so one channel suffices.
        np.testing.assert_array_equal(oracle.j, np.conj(oracle.jc))
        np.testing.assert_allclose(single, oracle.jc.reshape(warr.shape), rtol=1e-6, atol=1e-9)

    def test_gradients_conjugate_pair_at_leaves(self):
        # dL/dz = conj(dL/dzbar) for a real loss; the dual path exposes both
        rng = make_rng(35)
        arr = sample_circular_gaussian(rng, 3, 1.0)
        z1 = ad.Var(arr)
        single = ad.backward(ad.sum_abs2(nn.ctanh(z1)))[z1]
        # oracle gamma channel: numeric J row of the scalar loss
        def f(u):
            return np.sum(np.abs(np.tanh(u)) ** 2).astype(complex)

        oracle = ad.wirtinger_pair_numeric(f, arr)
        np.testing.assert_allclose(np.conj(single), oracle.j.ravel(), rtol=1e-6, atol=1e-9)


class TestVjpAgainstMaterializedPairs:
    @pytest.mark.parametrize("chain", [
        ("ctanh", "split_magnitude"),
        ("square", "conj"),
        ("split_magnitude", "re", "ctanh"),
        ("linear", "abs2"),
    ])
    def test_backward_equals_composed_pairs_times_seed(self, chain):
        rng = make_rng(sum(map(len, chain)))
        z0 = 0.6 * sample_circular_gaussian(rng, 4, 1.0)

        # graph path
        z = ad.Var(z0)
        v = z
        for name in chain:
            v = ad.elementwise(v, name)
        loss = ad.sum_abs2(v)
        store = ad.backward(loss)

        # materialized path: compose analytic pairs, then the loss row
        pair = ad.pair_at(chain[0], z0)
        value = ad.REGISTRY[chain[0]].fn(z0)
        for name in chain[1:]:
            pair = ad.compose_pairs(ad.pair_at(name, value), pair)
            value = ad.REGISTRY[name].fn(value)
        loss_pair = ad.JacobianPair(
            np.conj(value)[None, :], value[None, :]
        )  # d(sum w conj w)/dw rows
        total = ad.compose_pairs(loss_pair, pair)
        np.testing.assert_allclose(
            store[z], total.jc.ravel(), rtol=1e-10, atol=1e-12
        )


class TestHolomorphyClassification:
    def probes(self, radius=0.8, count=100):
        rng = make_rng(55)
        return [radius * sample_circular_gaussian(rng, (), 1.0) for _ in range(count)]

    def test_tanh_holomorphic_inside_unit_disk(self):
        assert ad.is_holomorphic_numeric(nn.ctanh_values, self.probes())

    def test_magnitude_squasher_not_holomorphic(self):
        assert not ad.is_holomorphic_numeric(nn.split_magnitude_values, self.probes())

    def test_real_part_not_holomorphic(self):
        assert not ad.is_holomorphic_numeric(lambda z: z.real.astype(complex), self.probes())

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            ad.is_holomorphic_numeric(lambda z: z, [])


def test_unbroadcast_sums_broadcast_axes():
    arr = np.ones((3, 4), dtype=complex)
    out = ad._unbroadcast(arr, (3, 1))
    assert out.shape == (3, 1)
    assert np.all(out == 4)

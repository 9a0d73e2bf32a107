"""Activations, loss, the recurrent models, and the checkpoint format."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnet import autodiff as ad
from cvnet import datagen as dg
from cvnet import nn
from cvnet.complex_ops import FormatError, make_rng, sample_circular_gaussian

bounded_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero_complex = st.builds(complex, bounded_floats, bounded_floats).filter(
    lambda z: abs(z) > 1e-9
)


class TestComplexTanh:
    def test_zero(self):
        assert nn.ctanh_values(np.array(0j)) == 0

    def test_restriction_to_reals(self):
        x = np.linspace(-3, 3, 13).astype(complex)
        out = nn.ctanh_values(x)
        np.testing.assert_array_equal(out.imag, np.zeros(13))
        np.testing.assert_allclose(out.real, np.tanh(x.real), atol=0)

    def test_pair_matches_oracle_and_jc_vanishes(self):
        rng = make_rng(71)
        for _ in range(10):
            z = np.asarray(0.6 * sample_circular_gaussian(rng, (), 1.0))
            j, jc = nn._ctanh_pair(z, nn.ctanh_values(z))
            oracle = ad.wirtinger_pair_numeric(nn.ctanh_values, z)
            assert j == pytest.approx(oracle.j.ravel()[0], rel=1e-6, abs=1e-9)
            assert abs(jc) == 0
            assert abs(oracle.jc.ravel()[0]) < 1e-8

    def test_holomorphy_probe(self):
        rng = make_rng(72)
        probes = [0.8 * sample_circular_gaussian(rng, 3, 1.0) for _ in range(20)]
        assert ad.is_holomorphic_numeric(nn.ctanh_values, probes, tol=1e-8)

    # The kernel against np.tanh: |ctanh - np.tanh| <= 4e-15 |np.tanh|.
    @staticmethod
    def assert_matches_numpy(z):
        got, want = nn.ctanh_values(z), np.tanh(z)
        assert got.dtype == np.complex128 and got.shape == z.shape
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want)), np.max(
            np.abs(got - want) / np.abs(want)
        )

    @pytest.mark.parametrize("family", [
        "unit-circle", "radius-20", "near-first-pole", "imag-up-to-1e6", "radius-1e-200",
        "real-part-5-to-30",
    ])
    def test_agrees_with_numpy_on_input_family(self, family):
        rng = np.random.default_rng(81)
        n = 20_000
        phase = np.exp(2j * np.pi * rng.random(n))
        z = {
            "unit-circle": phase * (1 + 1e-3 * rng.standard_normal(n)),
            "radius-20": 20 * phase,
            "near-first-pole": 0.5j * np.pi + 1e-9 * rng.random(n) * phase,
            "imag-up-to-1e6": rng.standard_normal(n) + 1j * rng.uniform(-1e6, 1e6, n),
            "radius-1e-200": 1e-200 * phase,
            "real-part-5-to-30": (rng.choice([-1, 1], n) * rng.uniform(5, 30, n)
                                  + 1j * rng.uniform(-4, 4, n)),
        }[family]
        self.assert_matches_numpy(z)

    def test_agrees_with_numpy_on_axes_and_edge_grid(self):
        mags = np.array([0.0, 5e-324, 1e-300, 1e-10, 0.5, 1.0, np.pi / 2, 20.0, 710.0, 1e10,
                         1e300])
        axis = np.concatenate([-mags[::-1], mags])
        self.assert_matches_numpy(axis.astype(complex))
        self.assert_matches_numpy(1j * axis)
        self.assert_matches_numpy(axis[:, None] + 1j * axis[None, :])

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (8191,), (8192,), (8193,),
                                       (3 * 8192 + 5,), (7, 0, 3), (3, 5000)])
    def test_sizes_across_block_edges(self, shape):
        rng = np.random.default_rng(82)
        z = rng.standard_normal(shape) * 2 + 2j * rng.standard_normal(shape)
        self.assert_matches_numpy(np.asarray(z))

    @pytest.mark.parametrize("view", ["transpose", "every-other-column"])
    def test_non_contiguous_input(self, view):
        rng = np.random.default_rng(83)
        z = rng.standard_normal((300, 70)) + 1j * rng.standard_normal((300, 70))
        before = z.copy()
        zv = z.T if view == "transpose" else z[:, ::2]
        assert not zv.flags.c_contiguous
        self.assert_matches_numpy(zv)
        np.testing.assert_array_equal(z, before)

    def test_float64_input_is_numpy_tanh_bit_for_bit(self):
        x = np.concatenate([np.linspace(-30, 30, 1001), [0.0, -0.0, 1e-300, np.inf, -np.inf,
                                                         np.nan]])
        got = nn.ctanh_values(x)
        assert got.dtype == np.float64
        assert got.tobytes() == np.tanh(x).tobytes()

    def test_non_finite_input(self):
        nan, inf = np.nan, np.inf
        # A NaN in either part gives a non-finite output.
        for z in (complex(nan, 0.5), complex(0.5, nan), complex(nan, nan), complex(inf, nan)):
            assert not np.isfinite(nn.ctanh_values(np.array([z]))).all()
        # An infinite real part over a finite imaginary part gives +-1, as in C99.
        for x in (inf, -inf):
            got = nn.ctanh_values(np.array([complex(x, 0.5), complex(x, 1e300)]))
            np.testing.assert_array_equal(got, np.sign(x) + 0j)
        # An infinite imaginary part gives NaN, also where C99 gives +-1 (inf + i*inf).
        for z in (complex(0.5, inf), complex(inf, inf), complex(-inf, -inf)):
            assert np.isnan(nn.ctanh_values(np.array([z]))).all()

    def test_pole_magnitudes_match_numpy_and_docstring(self):
        # The float64 values nearest pi/2 + k*pi, rounded once from a 32-digit pi.
        pi = Fraction(np.pi) + Fraction(1.2246467991473532e-16)
        y = np.array([float((k + Fraction(1, 2)) * pi) for k in range(2000)])
        mag = np.abs(nn.ctanh_values(1j * y))
        want = np.abs(np.tanh(1j * y[:5]))
        assert np.all(np.abs(mag[:5] - want) <= 2 * np.spacing(want))
        assert 1.6e16 <= mag[0] < 1.7e16
        assert 1.6e18 <= mag.max() < 1.7e18

    @pytest.mark.parametrize("shape", [(), (3,), (64, 50), (128, 128), (256, 1000)])
    def test_emission_is_the_plain_formula_bit_for_bit(self, shape):
        # The pair builds 1 - t^2 in one buffer; the pair and the emitted
        # gradient must give the plain expression's bits at every size,
        # on either side of numpy's 256 KiB temporary-elision threshold
        # (128 x 128 sits on it). The reference names the conjugate, so
        # elision cannot turn delta * conj(j) into conj(j) * delta, which
        # rounds differently. Float64 input, a real-field model's, takes
        # the same path; at shape () np.tanh gives it a numpy scalar.
        rng = make_rng(44)
        z = sample_circular_gaussian(rng, shape, 1.0)
        delta = sample_circular_gaussian(rng, shape, 1.0)
        for z, delta in ((z, delta), (z.real.copy(), delta.real.copy())):
            node = nn.ctanh(ad.Var(z))
            t = node.value
            (got,) = node.emit(None, delta)
            cj = np.conj(1.0 - t * t)
            want = delta * cj
            assert np.asarray(got).dtype == z.dtype
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            j, jc = nn._ctanh_pair(z, t)
            assert np.asarray(j).tobytes() == np.asarray(1.0 - t * t).tobytes() and jc == 0


class TestSplitMagnitude:
    def test_zero_maps_to_zero_with_pair_one_zero(self):
        assert nn.split_magnitude_values(np.array(0j)) == 0
        z = np.array(0j)
        j, jc = nn._split_magnitude_pair(z, nn.split_magnitude_values(z))
        assert j == 1.0 and jc == 0.0

    def test_three_four_five_magnitude_and_phase(self):
        out = nn.split_magnitude_values(np.array(3 + 4j))
        assert abs(out) == pytest.approx(5 / 6, abs=1e-15)
        assert np.angle(out) == pytest.approx(np.arctan2(4, 3), abs=1e-15)

    def test_pair_matches_oracle_at_random_points(self):
        rng = make_rng(73)
        for _ in range(20):
            z = 2.0 * sample_circular_gaussian(rng, (), 1.0)
            if abs(z) < 1e-3:
                continue
            z = np.asarray(z)
            j, jc = nn._split_magnitude_pair(z, nn.split_magnitude_values(z))
            oracle = ad.wirtinger_pair_numeric(nn.split_magnitude_values, z)
            assert j == pytest.approx(oracle.j.ravel()[0], rel=1e-5)
            assert jc == pytest.approx(oracle.jc.ravel()[0], rel=1e-5)

    @settings(max_examples=200)
    @given(nonzero_complex)
    def test_bounded_below_one(self, z):
        assert abs(nn.split_magnitude_values(np.asarray(z))) < 1.0

    @settings(max_examples=200)
    @given(nonzero_complex)
    def test_phase_preserved(self, z):
        out = nn.split_magnitude_values(np.asarray(z))
        diff = np.angle(out) - np.angle(z)
        assert abs((diff + np.pi) % (2 * np.pi) - np.pi) < 1e-12

    def test_float64_input_gets_float64_cogradient(self):
        x = np.array([0.5, -1.0, 0.0, 3.0])
        real, cplx = ad.Var(x), ad.Var(x.astype(complex))
        for v in (real, cplx):
            ad.backward(ad.sum_abs2(nn.split_magnitude(v)))
        assert real.grad.dtype == np.float64
        np.testing.assert_allclose(real.grad, cplx.grad.real, rtol=1e-15, atol=0)
        assert np.all(cplx.grad.imag == 0)

    def test_not_holomorphic(self):
        rng = make_rng(74)
        probes = [sample_circular_gaussian(rng, 3, 1.0) for _ in range(10)]
        assert not ad.is_holomorphic_numeric(nn.split_magnitude_values, probes, tol=1e-8)


class TestMseLoss:
    def test_zero_for_equal(self):
        rng = make_rng(75)
        p = sample_circular_gaussian(rng, (4, 2), 1.0)
        loss = nn.mse_loss(ad.Var(p), p, "complex")
        assert loss.value == 0

    def test_single_element_three_four(self):
        loss = nn.mse_loss(ad.Var(np.array([3 + 4j])), np.array([0j]), "complex")
        assert loss.value.real == pytest.approx(12.5, abs=1e-15)

    def test_real_field_counts_real_dof(self):
        loss = nn.mse_loss(ad.Var(np.array([3.0 + 0j])), np.array([0j]), "real")
        assert loss.value.real == pytest.approx(9.0, abs=1e-15)

    def test_field_is_required(self):
        # A default field would silently count a float64 prediction twice.
        with pytest.raises(TypeError):
            nn.mse_loss(np.array([3.0]), np.array([0.0]))

    def test_gradient_matches_oracle(self):
        rng = make_rng(76)
        p = sample_circular_gaussian(rng, 5, 1.0)
        t = sample_circular_gaussian(rng, 5, 1.0)
        var = ad.Var(p)
        ad.backward(nn.mse_loss(var, t, "complex"))
        oracle = ad.wirtinger_pair_numeric(
            lambda u: nn.mse_loss(ad.Var(u), t, "complex").value, p
        )
        np.testing.assert_allclose(var.grad, oracle.jc.ravel(), rtol=1e-6, atol=1e-10)

    def test_backward_is_residual_over_dof(self):
        p = np.array([1 + 1j, 2 - 1j])
        t = np.array([0j, 1j])
        var = ad.Var(p)
        ad.backward(nn.mse_loss(var, t, "complex"))
        np.testing.assert_array_equal(var.grad, (p - t) / 4)

    def test_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            nn.mse_loss(ad.Var(np.zeros(3)), np.zeros(4), "complex")


class TestRecurrentModel:
    def test_complex_parameter_count(self):
        m = nn.init_model(256, 256, 256, field="complex", seed=0)
        assert m.param_count() == 197_376

    def test_real_parameter_count(self):
        m = nn.init_model(512, 256, 512, field="real", seed=0)
        assert m.param_count() == 328_704

    def test_zero_model_outputs_bias(self):
        m = nn.init_model(4, 3, 4, field="complex", init_scale=1.0, seed=1)
        for name, arr in m.params().items():
            arr[:] = 0
        m.b_out[:] = np.arange(4).reshape(4, 1)
        pv = nn.param_vars(m)
        frames = [np.zeros((4, 2), dtype=complex) for _ in range(3)]
        out = nn.predict_frame(pv, frames, m.activation)
        np.testing.assert_array_equal(out.value, np.broadcast_to(m.b_out, (4, 2)))

    def test_rnn_step_zero_everything(self):
        m = nn.init_model(4, 3, 4, field="complex", seed=2)
        for arr in m.params().values():
            arr[:] = 0
        pv = nn.param_vars(m)
        h = nn.rnn_step(pv, ad.Var(np.zeros((3, 1), dtype=complex)),
                        np.zeros((4, 1), dtype=complex), m.activation)
        np.testing.assert_array_equal(h.value, np.zeros((3, 1)))

    def test_frame_order_sensitivity(self):
        m = nn.init_model(4, 3, 4, field="complex", init_scale=1.0, seed=3)
        rng = make_rng(90)
        frames = [sample_circular_gaussian(rng, (4, 1), 1.0) for _ in range(3)]
        pv = nn.param_vars(m)
        a = nn.predict_frame(pv, frames, m.activation).value
        b = nn.predict_frame(pv, frames[::-1], m.activation).value
        assert np.max(np.abs(a - b)) > 1e-6

    def test_wrong_frame_count(self):
        m = nn.init_model(4, 3, 4, field="complex", seed=4)
        with pytest.raises(ValueError, match="3"):
            nn.predict_frame(nn.param_vars(m), [np.zeros((4, 1))] * 2, m.activation)

    @pytest.mark.parametrize("field, activation", [
        ("complex", "complex-tanh"), ("complex", "split-magnitude"), ("real", "real-tanh"),
    ])
    def test_activation_given_as_its_string(self, field, activation, tmp_path):
        # A command-line flag passes the activation as its value string.
        m = nn.init_model(4, 3, 4, field=field, seed=6, activation=activation)
        assert m.activation is nn.ActivationKind(activation)
        frames = [np.ones((4, 2)) for _ in range(3)]
        assert nn.predict_frame(nn.param_vars(m), frames, m.activation).value.shape == (4, 2)
        nn.save_model(m, tmp_path / "model.cvnn")
        assert nn.load_model(tmp_path / "model.cvnn").activation is m.activation

    def test_unknown_activation_string_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            nn.init_model(4, 3, 4, field="complex", seed=6, activation="bogus")

    def test_bptt_gradients_match_oracle(self):
        rng = make_rng(91)
        m = nn.init_model(4, 3, 4, field="complex", init_scale=0.7, seed=5)
        frames = [sample_circular_gaussian(rng, (4, 2), 1.0) for _ in range(3)]
        target = sample_circular_gaussian(rng, (4, 2), 1.0)
        loss, pv = nn.forward_loss(m, frames, target)
        ad.backward(loss)
        for name in nn.PARAM_ORDER:
            def f(tensor, _n=name):
                params = m.params()
                params[_n] = tensor
                pvars = {k: ad.Var(v) for k, v in params.items()}
                pred = nn.predict_frame(pvars, frames, m.activation)
                return nn.mse_loss(pred, target, m.field).value

            oracle = ad.wirtinger_pair_numeric(f, m.params()[name])
            got = pv[name].grad
            np.testing.assert_allclose(
                got, oracle.jc.reshape(got.shape), rtol=1e-5, atol=1e-8,
                err_msg=f"gradient mismatch for {name}",
            )

    def test_real_model_stays_exactly_real(self):
        rng = make_rng(92)
        m = nn.init_model(4, 3, 4, field="real", init_scale=0.8, seed=6)
        frames = [sample_circular_gaussian(rng, (4, 2), 1.0).real.astype(complex)
                  for _ in range(3)]
        target = sample_circular_gaussian(rng, (4, 2), 1.0).real.astype(complex)
        loss, pv = nn.forward_loss(m, frames, target)
        store = ad.backward(loss)
        assert np.all(loss.value.imag == 0)
        for var in pv.values():
            assert np.max(np.abs(store[var].imag)) < 1e-12

    def test_real_field_rejects_complex_weights(self):
        with pytest.raises(ValueError, match="imaginary"):
            nn.RecurrentModel(
                field="real",
                activation=nn.ActivationKind.REAL_TANH,
                w_in=np.full((2, 2), 1j),
                b_in=np.zeros((2, 1), dtype=complex),
                w_rec=np.zeros((2, 2), dtype=complex),
                b_rec=np.zeros((2, 1), dtype=complex),
                w_out=np.zeros((2, 2), dtype=complex),
                b_out=np.zeros((2, 1), dtype=complex),
            )

    def test_init_power_scales_with_init_scale(self):
        m = nn.init_model(64, 64, 64, field="complex", init_scale=2.0, seed=7)
        power = np.mean(np.abs(m.w_in) ** 2) * 64  # fan_in normalization
        assert power == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("name, shape", [
        ("w_rec", (3, 2)), ("b_in", (2, 1)), ("b_rec", (3, 2)), ("w_out", (4, 2)),
        ("b_out", (1, 4)),
    ])
    def test_wrong_shape_names_the_parameter(self, name, shape):
        expected = nn.param_shapes(4, 3, 4)
        params = {n: np.zeros(s, dtype=complex) for n, s in expected.items()}
        params[name] = np.zeros(shape, dtype=complex)
        message = f"{name} shape {shape}, expected {expected[name]}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nn.RecurrentModel("complex", nn.ActivationKind.COMPLEX_TANH, **params)

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("dims", [(5, 3, 7), (1, 1, 2)])
    def test_init_model_builds_param_shapes(self, field, dims):
        # At d_in = hidden = 1 every weight is a column too; only the biases start at zero.
        m = nn.init_model(*dims, field=field, seed=8)
        assert {n: a.shape for n, a in m.params().items()} == nn.param_shapes(*dims)
        assert list(nn.param_shapes(*dims)) == list(nn.PARAM_ORDER)
        for name, arr in m.params().items():
            assert np.any(arr != 0) == name.startswith("w_"), name


def _tiny_loss_graph(model, seed):
    """A predict_frame loss on plain-array data; returns (loss, param vars)."""
    rng = make_rng(seed)
    frames = [sample_circular_gaussian(rng, (model.d_in, 2), 1.0) for _ in range(3)]
    target = sample_circular_gaussian(rng, (model.d_out, 2), 1.0)
    pv = nn.param_vars(model)
    pred = nn.predict_frame(pv, frames, model.activation)
    return nn.mse_loss(pred, target, model.field), pv


class TestGraphUsesRegistry:
    def test_corrupted_registry_pair_reaches_training_graph(self, monkeypatch):
        # The ctanh node must differentiate through REGISTRY["ctanh"].pair,
        # the same pair gradcheck validates, and through nothing else.
        z0 = 0.5 * sample_circular_gaussian(make_rng(93), 4, 1.0)
        m = nn.init_model(4, 3, 4, field="complex", init_scale=0.7, seed=12)

        def grads():
            z = ad.Var(z0)
            ad.backward(ad.sum_abs2(nn.ctanh(z)))
            loss, pv = _tiny_loss_graph(m, 94)
            ad.backward(loss)
            # w_out and b_out sit after the last activation; the rest are upstream
            return [z.grad] + [pv[name].grad for name in ("w_in", "b_in", "w_rec", "b_rec")]

        clean = grads()
        original = ad.REGISTRY["ctanh"]

        def corrupt_pair(z, y):
            j, jc = original.pair(z, y)
            return 1.01 * j, jc

        monkeypatch.setitem(ad.REGISTRY, "ctanh", ad.ElementwiseOp(
            "ctanh", original.fn, corrupt_pair, original.holomorphic, original.probe_radius
        ))
        for got, want in zip(grads(), clean):
            assert np.max(np.abs(got - want)) > 1e-6


class TestDataIsConstant:
    def test_leaves_are_exactly_the_parameters(self):
        m = nn.init_model(5, 3, 4, field="complex", init_scale=0.7, seed=13)
        loss, pv = _tiny_loss_graph(m, 95)
        leaves = [n for n in ad._toposort(loss) if n.emit is None]
        assert sorted(map(id, leaves)) == sorted(map(id, pv.values()))

    def test_backward_emits_nothing_for_plain_arrays(self):
        # Each emission yields one contribution per Var parent. The first
        # step has no W_rec product, so 6 matmul nodes would emit 12
        # products with Var data; the 3 frames account for 3 and none of
        # those is computed.
        m = nn.init_model(5, 3, 4, field="complex", init_scale=0.7, seed=14)
        loss, pv = _tiny_loss_graph(m, 96)
        per_op = {}

        def counted(node):
            emit = node.emit

            def run(gamma, delta):
                out = emit(gamma, delta)
                assert len(out) == len(node.parents)
                per_op[node.op] = per_op.get(node.op, 0) + len(out)
                return out

            return run

        for node in ad._toposort(loss):
            if node.emit is not None:
                node.emit = counted(node)
        store = ad.backward(loss)
        assert per_op["matmul"] == 9
        assert all(store[v].shape == v.value.shape for v in pv.values())


def _explicit_zero_state_loss(model, frames, target):
    """predict_frame's loss built with the zero initial state as a constant.

    The first step keeps the W_rec @ zeros product and its add node.
    """
    pv = nn.param_vars(model)
    h = np.zeros((model.hidden, frames[0].shape[1]), dtype=model.w_in.dtype)
    for x in frames:
        pre = pv["w_in"] @ x + pv["b_in"] + pv["w_rec"] @ h + pv["b_rec"]
        h = nn.apply_activation(pre, model.activation)
    pred = pv["w_out"] @ h + pv["b_out"]
    return nn.mse_loss(pred, target, model.field), pv


class TestZeroInitialState:
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_same_bits_as_explicit_zero_product(self, field):
        m = nn.init_model(6, 5, 6, field=field, init_scale=0.9, seed=16)
        rng = make_rng(98)
        for name in ("b_in", "b_rec", "b_out"):
            b = 0.3 * sample_circular_gaussian(rng, getattr(m, name).shape, 1.0)
            getattr(m, name)[:] = b if field == "complex" else b.real
        data = [sample_circular_gaussian(rng, (6, 7), 1.0) for _ in range(4)]
        if field == "real":
            data = [d.real for d in data]
        frames, target = data[:3], data[3]
        loss, pv = nn.forward_loss(m, frames, target)
        ad.backward(loss)
        ref_loss, ref_pv = _explicit_zero_state_loss(m, frames, target)
        ad.backward(ref_loss)
        assert loss.value == ref_loss.value
        for name in nn.PARAM_ORDER:
            assert pv[name].grad.dtype == ref_pv[name].grad.dtype, name
            assert np.array_equal(pv[name].grad, ref_pv[name].grad), name


class TestRealDataInComplexModel:
    def test_float64_frames_give_the_zero_imaginary_step(self):
        # build_views feeds a complex model float64 frames and target on
        # real-valued kinds; the reference step gets the same data as
        # complex128 with a zero imaginary part.
        m = nn.init_model(6, 5, 6, field="complex", init_scale=0.9, seed=19)
        rng = make_rng(99)
        for name in ("b_in", "b_rec", "b_out"):
            getattr(m, name)[:] = 0.3 * sample_circular_gaussian(rng, getattr(m, name).shape, 1.0)
        data = [np.asfortranarray(rng.normal(size=(6, 9)))[:, 2:8] for _ in range(4)]
        steps = []
        for frames in (data, [d + 0j for d in data]):
            loss, pv = nn.forward_loss(m, frames[:3], frames[3])
            ad.backward(loss)
            steps.append((loss.value, {name: v.grad for name, v in pv.items()}))
        (loss, grads), (ref_loss, ref_grads) = steps
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        for name in nn.PARAM_ORDER:
            assert grads[name].dtype == np.complex128, name
            err = np.abs(grads[name] - ref_grads[name]).max()
            assert err <= 1e-12 * np.abs(ref_grads[name]).max(), name


def _real_tiny_graph(model, seed, dtype=np.float64):
    """Loss and param vars of a real model after backward, all arrays cast to dtype."""
    rng = make_rng(seed)
    frames = [rng.normal(size=(model.d_in, 2)).astype(dtype) for _ in range(3)]
    target = rng.normal(size=(model.d_out, 2)).astype(dtype)
    pv = {name: ad.Var(arr.astype(dtype, copy=False)) for name, arr in model.params().items()}
    loss = nn.mse_loss(nn.predict_frame(pv, frames, model.activation), target, model.field)
    ad.backward(loss)
    return loss, pv


class TestRealFieldIsFloat64:
    def test_every_node_and_cogradient_is_float64(self, monkeypatch):
        # Interior nodes hold no value, so each value's dtype is recorded as
        # _node builds it; the leaves are Vars and keep theirs.
        built = []
        node = ad._node

        def recording(value, *args, **kwargs):
            out = node(value, *args, **kwargs)
            built.append(out.value.dtype)
            return out

        monkeypatch.setattr(ad, "_node", recording)
        m = nn.init_model(5, 3, 4, field="real", init_scale=0.8, seed=15)
        loss, pv = _real_tiny_graph(m, 97)
        order = ad._toposort(loss)
        leaves = [n for n in order if n.emit is None]
        assert len(built) == len(order) - len(leaves) > 0
        assert set(built) | {n.value.dtype for n in leaves} == {np.dtype(np.float64)}
        for name, var in pv.items():
            assert var.value is m.params()[name]
            assert var.grad.dtype == np.float64, name

    def test_float64_run_equals_complex128_run(self):
        # The same model and data, once as float64 and once cast to
        # complex128, the way real-field models used to run.
        m = nn.init_model(5, 3, 4, field="real", init_scale=0.8, seed=16)
        loss, pv = _real_tiny_graph(m, 98)
        closs, cv = _real_tiny_graph(m, 98, np.complex128)
        assert closs.value == pytest.approx(float(loss.value), rel=1e-12)
        for name in nn.PARAM_ORDER:
            assert np.all(cv[name].grad.imag == 0), name
            np.testing.assert_allclose(pv[name].grad, cv[name].grad.real, rtol=1e-12,
                                       atol=0, err_msg=name)

    def test_complex_weights_with_zero_imag_are_stored_as_float64(self):
        arrays = {name: arr.astype(complex)
                  for name, arr in nn.init_model(4, 3, 4, field="real", seed=17).params().items()}
        m = nn.RecurrentModel(field="real", activation=nn.ActivationKind.REAL_TANH, **arrays)
        for name, arr in m.params().items():
            assert arr.dtype == np.float64 and arr.flags.c_contiguous, name
            np.testing.assert_array_equal(arr, arrays[name].real)


class TestCheckpoint:
    def roundtrip(self, model, tmp_path):
        path = tmp_path / "model.cvnn"
        nn.save_model(model, path)
        return nn.load_model(path), path

    @pytest.mark.parametrize("field,dims", [("complex", (8, 5, 8)), ("real", (16, 5, 16)),
                                            ("real", (512, 5, 512))])
    def test_bit_exact_roundtrip(self, field, dims, tmp_path):
        d_in, h, d_out = dims
        m = nn.init_model(d_in, h, d_out, field=field, init_scale=0.9, seed=8)
        loaded, path = self.roundtrip(m, tmp_path)
        assert loaded.field == m.field and loaded.activation == m.activation
        for name in nn.PARAM_ORDER:
            a, b = m.params()[name], loaded.params()[name]
            assert a.tobytes() == b.tobytes()
        nn.save_model(loaded, tmp_path / "again.cvnn")
        assert (tmp_path / "again.cvnn").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.cvnn"
        p.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(FormatError, match="magic"):
            nn.load_model(p)

    def test_truncation_reports_offset(self, tmp_path):
        m = nn.init_model(4, 3, 4, field="complex", seed=9)
        p = tmp_path / "m.cvnn"
        nn.save_model(m, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(FormatError, match="truncated"):
            nn.load_model(p)

    @pytest.mark.parametrize("field, act_tag, message", [
        ("real", 0, "real-field models use the real-tanh activation"),
        ("complex", 3, "complex-field models do not use the real-tanh activation"),
    ], ids=["real-field-complex-tanh", "complex-field-real-tanh"])
    def test_contradictory_tags_are_format_error(self, tmp_path, field, act_tag, message):
        # Byte 18 is the activation tag; real-tanh is the activation of
        # real-field models and of no other.
        p = tmp_path / "m.cvnn"
        nn.save_model(nn.init_model(4, 3, 4, field=field, seed=9), p)
        blob = bytearray(p.read_bytes())
        blob[18] = act_tag
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"^inconsistent checkpoint: {message}$"):
            nn.load_model(p)

    def test_complex_field_holds_complex128_through_a_roundtrip(self, tmp_path):
        # float64 weights in a complex field widen exactly, once, at construction.
        arrays = nn.init_model(4, 3, 4, field="real", seed=19).params()
        m = nn.RecurrentModel(field="complex", activation=nn.ActivationKind.COMPLEX_TANH,
                              **arrays)
        loaded, _ = self.roundtrip(m, tmp_path)
        for model in (m, loaded):
            for name, arr in model.params().items():
                assert arr.dtype == np.complex128, name
                np.testing.assert_array_equal(arr, arrays[name])

    def test_real_models_store_zero_imag_pairs(self, tmp_path):
        m = nn.init_model(8, 3, 8, field="real", init_scale=1.0, seed=10)
        loaded, _ = self.roundtrip(m, tmp_path)
        for arr in loaded.params().values():
            assert np.all(arr.imag == 0)

    def test_real_checkpoint_bytes_match_complex128_params(self, tmp_path):
        # float64 parameters write the same file as the same values held
        # as complex128, and load back as float64.
        m = nn.init_model(8, 3, 8, field="real", init_scale=1.0, seed=18)
        as_complex = m.copy()
        for name, arr in m.params().items():
            setattr(as_complex, name, arr.astype(np.complex128))
        nn.save_model(as_complex, tmp_path / "complex.cvnn")
        loaded, path = self.roundtrip(m, tmp_path)
        assert path.read_bytes() == (tmp_path / "complex.cvnn").read_bytes()
        for name, arr in loaded.params().items():
            assert arr.dtype == np.float64, name
            np.testing.assert_array_equal(arr, m.params()[name])

    def test_stacked_layout_file_predicts_the_same_on_interleaved_views(self, tmp_path):
        # A real 512-wide model written straight through the container, in the
        # files' stacked [re; im] order, loads with its frame axes interleaved:
        # on build_views' frames it predicts what it predicted on
        # concatenated [re; im] frames, and it saves back to the same bytes.
        rng = make_rng(21)
        old = nn.RecurrentModel("real", nn.ActivationKind.REAL_TANH, **{
            name: rng.normal(0.0, 0.05, shape) for name, shape in nn.param_shapes(512, 6, 512).items()
        })
        path = tmp_path / "stacked.cvnn"
        header = (nn._FIELD_TAGS["real"], 512, 6, 512, nn._ACTIVATION_TAGS[old.activation])
        nn._FORMAT.write(path, header, old.params().values())
        loaded = nn.load_model(path)

        kind = dg.DatasetKind.INHARMONIC_ANALYTIC
        samples = dg.generate_bundle(kind, 23, 5, 1, 1).train
        stacked = [np.concatenate([f.real, f.imag]) for f in
                   (samples[:, i * 256 : (i + 1) * 256].T for i in range(3))]
        want = nn.predict_frame(nn.param_vars(old), stacked, old.activation).value
        frames, _ = dg.build_views(samples, kind, "real")
        got = nn.predict_frame(nn.param_vars(loaded), frames, loaded.activation).value
        np.testing.assert_allclose(got[nn.STACKED], want)
        np.testing.assert_array_equal(loaded.w_in[:, nn.STACKED], old.w_in)
        np.testing.assert_array_equal(loaded.b_out[nn.STACKED], old.b_out)
        nn.save_model(loaded, tmp_path / "again.cvnn")
        assert (tmp_path / "again.cvnn").read_bytes() == path.read_bytes()

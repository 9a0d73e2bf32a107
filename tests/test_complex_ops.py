"""Complex array conventions, determinism, and the forward values of the
graph's conjugation and matrix-product nodes against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnet import autodiff as ad
from cvnet import complex_ops as co

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
complex_scalars = st.builds(complex, finite_floats, finite_floats)


def matmul_reference(a, b):
    """Naive triple loop, the independent oracle for the matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=complex)
    for i in range(m):
        for j in range(n):
            acc = 0j
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def conj(t):
    """Forward value of the graph's conjugation node."""
    return ad.elementwise(t, "conj").value


def matmul(a, b):
    """Forward value of the graph's matrix-product node."""
    return ad.matmul(a, b).value


class TestConj:
    def test_definition(self):
        assert conj(np.array(2 + 3j)) == 2 - 3j

    @given(complex_scalars)
    def test_involution(self, z):
        arr = np.array([z])
        assert np.array_equal(conj(conj(arr)), arr)

    def test_real_tensor_unchanged(self):
        arr = np.array([1.0, -2.5, 0.0], dtype=co.COMPLEX)
        assert np.array_equal(conj(arr), arr)

    def test_distributes_over_matmul(self):
        rng = co.make_rng(3)
        a = co.sample_circular_gaussian(rng, (4, 3), 1.0)
        b = co.sample_circular_gaussian(rng, (3, 5), 1.0)
        lhs = conj(matmul(a, b))
        rhs = matmul(conj(a), conj(b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_distributes_over_add(self):
        rng = co.make_rng(4)
        a = co.sample_circular_gaussian(rng, (6,), 1.0)
        b = co.sample_circular_gaussian(rng, (6,), 1.0)
        np.testing.assert_allclose(conj(a + b), conj(a) + conj(b), atol=0)


class TestMatmul:
    def test_identity(self):
        rng = co.make_rng(5)
        z = co.sample_circular_gaussian(rng, (4, 2), 1.0)
        np.testing.assert_array_equal(matmul(np.eye(4, dtype=co.COMPLEX), z), z)

    def test_i_squared(self):
        out = matmul(np.array([[1j]]), np.array([[1j]]))
        assert out[0, 0] == -1

    @pytest.mark.parametrize("seed", range(5))
    def test_against_triple_loop(self, seed):
        rng = co.make_rng(seed, 77)
        m, k, n = rng.integers(1, 9, size=3)
        a = co.sample_circular_gaussian(rng, (m, k), 1.0)
        b = co.sample_circular_gaussian(rng, (k, n), 1.0)
        np.testing.assert_allclose(matmul(a, b), matmul_reference(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(co.DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    @given(complex_scalars, complex_scalars)
    def test_scalar_product_rotates_and_scales(self, z, w):
        out = matmul(np.array([[z]]), np.array([[w]]))[0, 0]
        assert abs(abs(out) - abs(z) * abs(w)) <= 1e-12 * max(1.0, abs(z) * abs(w))
        if abs(z) > 1e-6 and abs(w) > 1e-6:
            want = (np.angle(z) + np.angle(w) + np.pi) % (2 * np.pi) - np.pi
            got = np.angle(out)
            diff = (got - want + np.pi) % (2 * np.pi) - np.pi
            assert abs(diff) < 1e-9


class TestCircularGaussian:
    def test_sigma_zero_gives_zeros(self):
        out = co.sample_circular_gaussian(co.make_rng(0), (3, 3), 0.0)
        assert np.all(out == 0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            co.sample_circular_gaussian(co.make_rng(0), (2,), -1.0)

    def test_mean_power_matches_sigma(self):
        # Monte-Carlo check of E|z|^2 = sigma^2 at sigma = 1
        draws = co.sample_circular_gaussian(co.make_rng(123), 100_000, 1.0)
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02

    def test_equal_seeds_equal_streams(self):
        a = co.sample_circular_gaussian(co.make_rng(9, 1), (5, 5), 2.0)
        b = co.sample_circular_gaussian(co.make_rng(9, 1), (5, 5), 2.0)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = co.sample_circular_gaussian(co.make_rng(9, 1), (5,), 1.0)
        b = co.sample_circular_gaussian(co.make_rng(9, 2), (5,), 1.0)
        assert not np.array_equal(a, b)


class TestFiniteness:
    def test_nan_rejected(self):
        with pytest.raises(ArithmeticError, match="weights"):
            co.ensure_finite(np.array([1.0, np.nan]), "weights")

    def test_inf_rejected(self):
        with pytest.raises(ArithmeticError):
            co.ensure_finite(np.array([np.inf + 0j]))


class TestBlockFormat:
    FMT = co.BlockFormat("thing", b"THNG", "<BB", 7)  # version, then a tag

    @staticmethod
    def layout(tag):
        if tag != 1:
            raise co.FormatError(f"unknown thing tag {tag} at byte 5")
        return [("a", (2, 3), co.COMPLEX), ("b", (1,), co.COMPLEX)]

    def written(self, tmp_path):
        path = tmp_path / "x.thng"
        a = np.arange(6).reshape(2, 3) * (1 + 2j)
        self.FMT.write(path, (1,), [a, np.array([0.5])])
        return path, a

    def test_roundtrip_and_layout(self, tmp_path):
        path, a = self.written(tmp_path)
        blob = path.read_bytes()
        assert blob[:6] == b"THNG\x07\x01" and len(blob) == 6 + 7 * 16
        fields, blocks = self.FMT.read(path, self.layout)
        assert fields == (1,)
        assert blocks["a"].dtype == co.COMPLEX and blocks["a"].tobytes() == a.tobytes()
        assert blocks["b"].tolist() == [0.5 + 0j]

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b[:5], "thing truncated in header at byte 5"),
        (lambda b: b"XXXX" + b[4:], "bad thing magic b'XXXX' at byte 0"),
        (lambda b: b[:4] + b"\x08" + b[5:], "unsupported thing version 8 at byte 4"),
        (lambda b: b[:5] + b"\x02" + b[6:], "unknown thing tag 2 at byte 5"),
        (lambda b: b[:40], "thing truncated in a at byte 40"),
        (lambda b: b[:-1], "thing truncated in b at byte 117"),
        (lambda b: b + b"\x00", "trailing bytes in thing at byte 118"),
        (lambda b: b[:6 + 16 * 4 + 8] + np.array([np.inf]).tobytes() + b[6 + 16 * 5:],
         "non-finite value in thing a at byte 70"),
        (lambda b: b[:-16] + np.array([np.nan, 0.0]).tobytes(),
         "non-finite value in thing b at byte 102"),
    ], ids=["header", "magic", "version", "tag", "block-a", "block-b", "trailing",
            "inf-imag", "nan-real"])
    def test_errors_name_the_byte(self, tmp_path, edit, message):
        path, _ = self.written(tmp_path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(co.FormatError) as exc:
            self.FMT.read(path, self.layout)
        assert str(exc.value) == message


@settings(max_examples=50)
@given(complex_scalars, complex_scalars)
def test_product_magnitude_and_phase(z, w):
    out = z * w
    assert abs(abs(out) - abs(z) * abs(w)) <= 1e-12 * max(1.0, abs(z) * abs(w))

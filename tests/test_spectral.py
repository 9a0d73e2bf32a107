"""DFT conventions, Parseval, and filter-response exports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnet import nn, spectral
from cvnet.complex_ops import make_rng, sample_circular_gaussian


class TestDft:
    def test_impulse_is_flat(self):
        np.testing.assert_allclose(
            spectral.dft(np.array([1, 0, 0, 0], dtype=complex)), np.ones(4), atol=1e-12
        )

    def test_complex_exponential_hits_single_bin(self):
        t = np.arange(8)
        x = np.exp(2j * np.pi * 3 * t / 8)
        spec = spectral.dft(x)
        want = np.zeros(8, dtype=complex)
        want[3] = 8
        np.testing.assert_allclose(spec, want, atol=1e-12)

    def test_matches_direct_summation(self):
        rng = make_rng(41)
        x = sample_circular_gaussian(rng, 16, 1.0)
        direct = np.array([
            np.sum(x * np.exp(-2j * np.pi * k * np.arange(16) / 16)) for k in range(16)
        ])
        np.testing.assert_allclose(spectral.dft(x), direct, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31))
    def test_parseval(self, n, seed):
        x = sample_circular_gaussian(make_rng(seed), n, 1.0)
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(spectral.dft(x)) ** 2) / n
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_negative_bins_layout(self):
        np.testing.assert_array_equal(spectral.negative_bins(8), [5, 6, 7])

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            spectral.dft_matrix(0)


class TestFilterResponse:
    def model_with_row(self, row_value, field="complex", d_in=256):
        m = nn.init_model(d_in, 4, d_in, field=field, init_scale=0.5, seed=1)
        m.w_in[0, :] = row_value
        return m

    def test_impulse_row_is_flat(self):
        row = np.zeros(256, dtype=complex)
        row[0] = 1
        mags = spectral.filter_response(self.model_with_row(row), 0)
        np.testing.assert_allclose(mags, np.ones(256), atol=1e-12)

    def test_complex_exponential_row_peaks_at_bin_ten(self):
        t = np.arange(256)
        row = np.exp(2j * np.pi * 10 * t / 256)
        mags = spectral.filter_response(self.model_with_row(row), 0)
        assert np.argmax(mags) == 10
        assert mags[10] == pytest.approx(256, rel=1e-12)

    def test_response_always_has_256_bins(self):
        for field, d in (("complex", 256), ("real", 512)):
            m = nn.init_model(d, 4, d, field=field, init_scale=0.5, seed=2)
            assert spectral.filter_response(m, 1).shape == (256,)

    def test_split_input_pairs_recombine(self):
        # Coordinates 2k and 2k + 1 of a 512-wide real row weigh re x_k and
        # im x_k: a row interleaving a complex filter's parts has its response.
        t = np.arange(256)
        c = np.exp(2j * np.pi * 10 * t / 256) * (1.0 + 0.5 * np.cos(2 * np.pi * t / 256))
        row = np.empty(512)
        row[0::2], row[1::2] = c.real, c.imag
        mags = spectral.filter_response(self.model_with_row(row, "real", 512), 0)
        np.testing.assert_allclose(mags, np.abs(spectral.dft(c)), atol=0)
        assert np.argmax(mags) == 10

    def test_row_out_of_range(self):
        m = nn.init_model(256, 4, 256, field="complex", seed=4)
        with pytest.raises(ValueError):
            spectral.filter_response(m, 4)


class TestFiltersCsv:
    def test_byte_stable_and_long_format(self, tmp_path):
        m = nn.init_model(256, 4, 256, field="complex", init_scale=0.5, seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spectral.write_filters_csv(m, 3, a)
        spectral.write_filters_csv(m, 3, b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert lines[0] == "filter,bin,magnitude"
        assert len(lines) == 1 + 3 * 256
        assert lines[1].startswith("0,0,")

    def test_rows_bounds(self, tmp_path):
        m = nn.init_model(256, 4, 256, field="complex", seed=6)
        with pytest.raises(ValueError):
            spectral.write_filters_csv(m, 0, tmp_path / "x.csv")
        with pytest.raises(ValueError):
            spectral.write_filters_csv(m, 5, tmp_path / "x.csv")

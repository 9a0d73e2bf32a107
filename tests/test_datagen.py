"""Waveform generators, frame handling, and the dataset file format."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from cvnet import datagen as dg
from cvnet import nn, trainer
from cvnet.complex_ops import Field, FormatError, make_rng
from cvnet.spectral import dft, negative_bins


def brute_force_dft(x):
    """Independent O(N^2) summation oracle."""
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / n)) for kk in k])


def spec_of(freqs, amps, phases=None):
    freqs, amps = np.asarray(freqs, dtype=float), np.asarray(amps, dtype=float)
    phases = np.zeros(len(freqs)) if phases is None else np.asarray(phases, dtype=float)
    return dg.WaveformSpec(freqs, amps, phases, analytic=False)


class TestWaveformSpecValidation:
    @pytest.mark.parametrize("freqs, amps", [
        ([0.0], [1.0]),
        ([0.3, np.nextafter(dg.NYQUIST, 0.0)], [1e-300, 2.0]),
        ([], []),
    ], ids=["zero-frequency", "just-below-nyquist", "empty"])
    def test_accepted(self, freqs, amps):
        assert len(spec_of(freqs, amps).freqs) == len(freqs)
        # Lists go straight in as float64 arrays; float64 arrays are held uncopied.
        phases = [0.5] * len(freqs)
        arrays = [np.array(x, dtype=np.float64) for x in (freqs, amps, phases)]
        listed = dg.WaveformSpec(freqs, amps, phases, analytic=False)
        held = dg.WaveformSpec(*arrays, analytic=False)
        for name, want in zip(("freqs", "amps", "phases"), arrays):
            got = getattr(listed, name)
            assert got.dtype == np.float64 and got.ndim == 1 and got.tobytes() == want.tobytes()
            assert getattr(held, name) is want

    @pytest.mark.parametrize("freqs, amps, phases, match", [
        ([0.1, dg.NYQUIST], [1.0, 1.0], None, "frequencies"),
        ([-1e-300, 0.1], [1.0, 1.0], None, "frequencies"),
        ([0.1, 0.2], [1.0, 0.0], None, "amplitudes"),
        ([0.1], [-1.0], None, "amplitudes"),
        ([0.1, 0.2], [1.0], None, "equal length"),
        ([0.1, np.nan], [1.0, 1.0], None, "frequencies"),
        ([np.nan, 0.1], [1.0, 1.0], None, "frequencies"),
        ([0.1, np.inf], [1.0, 1.0], None, "frequencies"),
        ([0.1, 0.2], [1.0, np.nan], None, "amplitudes"),
        ([0.1, 0.2], [np.nan, 1.0], None, "amplitudes"),
        ([0.1, 0.2], [1.0, np.inf], None, "amplitudes"),
        ([0.1, 0.2], [1.0, 1.0], [0.0, np.nan], "phases"),
        ([0.1, 0.2], [1.0, 1.0], [np.inf, 0.0], "phases"),
        ([0.1, 0.2], [1.0, 1.0], [0.0, -np.inf], "phases"),
        ([[0.1, 0.2]], [[1.0, 1.0]], None, "1-D"),
    ], ids=["nyquist", "negative-frequency", "zero-amplitude", "negative-amplitude", "lengths",
            "nan-frequency-last", "nan-frequency-first", "inf-frequency",
            "nan-amplitude-last", "nan-amplitude-first", "inf-amplitude",
            "nan-phase", "inf-phase", "negative-inf-phase", "two-dimensional"])
    def test_rejected(self, freqs, amps, phases, match):
        with pytest.raises(ValueError, match=match):
            spec_of(freqs, amps, phases)

    def test_complex_components_rejected(self):
        # A nonzero imaginary part is an error, not silently dropped.
        with pytest.raises(ValueError, match="component freqs must be real"):
            dg.WaveformSpec(np.array([0.1 + 0.3j]), [1.0], [0.0], analytic=False)
        spec = dg.WaveformSpec(np.array([0.1 + 0j]), [1.0], [0.0], analytic=False)
        assert spec.freqs.dtype == np.float64 and spec.freqs[0] == 0.1


class TestSawtoothSpec:
    def test_high_fundamental_forces_single_component(self):
        rng = make_rng(1)
        for _ in range(200):
            spec = dg.draw_sawtooth_spec(rng)
            if spec.fundamental >= 0.25:
                assert len(spec.freqs) == 1
                break
        else:
            pytest.fail("no draw with fundamental >= 0.25 in 200 tries")

    def test_harmonics_below_nyquist_with_one_over_n_amplitudes(self):
        rng = make_rng(2)
        for _ in range(50):
            spec = dg.draw_sawtooth_spec(rng)
            n = np.arange(1, len(spec.freqs) + 1)
            np.testing.assert_allclose(spec.freqs, spec.fundamental * n, rtol=1e-12)
            np.testing.assert_allclose(spec.amps, 1.0 / n, rtol=1e-12)
            assert np.all(spec.freqs < dg.NYQUIST)
            assert (len(spec.freqs) + 1) * spec.fundamental >= dg.NYQUIST

    def test_phases_in_unit_interval(self):
        rng = make_rng(3)
        spec = dg.draw_sawtooth_spec(rng)
        assert np.all(spec.phases >= 0) and np.all(spec.phases < 1)

    def test_draw_order_is_f0_then_all_phases(self):
        # Observation 130 of seed 7's train stream has 10,018 harmonics, three
        # blocks; its phases are drawn block by block and must equal one draw.
        spec = dg.draw_sawtooth_spec(make_rng(7, 0, 130))
        rng = make_rng(7, 0, 130)
        f0 = rng.uniform(0.0, dg.NYQUIST)
        n = np.arange(1, np.ceil(dg.NYQUIST / f0), dtype=np.float64)
        phases = rng.uniform(0.0, 1.0, len(n))
        assert len(n) == 10018
        assert spec.freqs.tobytes() == (f0 * n).tobytes()
        assert spec.amps.tobytes() == (1.0 / n).tobytes()
        assert spec.phases.tobytes() == phases.tobytes()

    def test_mean_periods_per_frame(self):
        rng_draws = [dg.draw_sawtooth_spec(make_rng(5, i)) for i in range(2000)]
        mean = np.mean([dg.periods_per_frame(s) for s in rng_draws])
        assert 62 <= mean <= 66

    def test_real_waveform_has_zero_imag(self):
        samples = dg.synthesize(dg.draw_spec(dg.DatasetKind.SAWTOOTH, make_rng(6)))
        assert np.all(samples.imag == 0)

    def test_harmonic_amplitude_law_integer_bin(self):
        # leakage-free fundamental: peak magnitudes follow 1/n within 20%
        f0_bin = 11
        n_max = int(np.ceil(0.5 * dg.N_SAMPLES / f0_bin)) - 1
        n = np.arange(1, n_max + 1)
        spec = dg.WaveformSpec(
            f0_bin * n / dg.N_SAMPLES, 1.0 / n,
            make_rng(60).uniform(0, 1, n_max), analytic=False,
        )
        mags = np.abs(brute_force_dft(dg.synthesize(spec)))
        peak1 = mags[f0_bin]
        for k in (2, 3, 5, 8):
            ratio = mags[k * f0_bin] / peak1
            assert abs(ratio - 1.0 / k) < 0.2 / k

    def test_dft_peaks_at_harmonics(self):
        # components must put local spectral peaks within 1 bin of n*f0*1024
        rng = make_rng(61)
        spec = dg.draw_sawtooth_spec(rng)
        while len(spec.freqs) < 3 or len(spec.freqs) > 12:
            spec = dg.draw_sawtooth_spec(rng)
        mags = np.abs(brute_force_dft(dg.synthesize(spec)))
        for f in spec.freqs[:3]:
            expect = f * dg.N_SAMPLES
            window = np.arange(max(0, int(expect) - 4), int(expect) + 5)
            local_peak = window[np.argmax(mags[window])]
            assert abs(local_peak - expect) <= 1.0


def direct_sum(spec, t=None):
    """The per-sample sum synthesize() replaced: one exp or cos per sample."""
    t = np.arange(dg.N_SAMPLES, dtype=np.float64) if t is None else t
    theta = 2.0 * np.pi * spec.freqs[:, None] * t[None, :] + spec.phases[:, None]
    if spec.analytic:
        return (spec.amps[:, None] * np.exp(1j * theta)).sum(axis=0)
    return (spec.amps[:, None] * np.cos(theta)).sum(axis=0) + 0j


def harmonic_spec(n_harmonics, analytic, seed):
    f0 = dg.NYQUIST / (n_harmonics + 0.5)
    n = np.arange(1, n_harmonics + 1, dtype=np.float64)
    phases = make_rng(seed).uniform(0.0, 2.0 * np.pi, n_harmonics)
    return dg.WaveformSpec(f0 * n, 1.0 / n, phases, analytic=analytic)


class TestFactoredSynthesis:
    """synthesize() against the direct per-sample sum."""

    @pytest.mark.parametrize("analytic", [True, False])
    def test_five_component_draws(self, analytic):
        for i in range(20):
            kind = dg.DatasetKind.INHARMONIC_ANALYTIC if analytic else dg.DatasetKind.INHARMONIC
            spec = dg.draw_spec(kind, make_rng(90, i))
            want = direct_sum(spec)
            got = dg.synthesize(spec)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("analytic", [True, False])
    @pytest.mark.parametrize("n_harmonics", [5000, 50000])
    def test_many_harmonics(self, n_harmonics, analytic):
        # At 50k the oracle sums every 16th sample and the last one.
        spec = harmonic_spec(n_harmonics, analytic, seed=n_harmonics)
        got = dg.synthesize(spec)
        t = np.arange(dg.N_SAMPLES) if n_harmonics <= 5000 else np.r_[0:dg.N_SAMPLES:16, 1023]
        want = direct_sum(spec, t.astype(np.float64))
        assert np.abs(got[t] - want).max() <= 1e-12 * np.abs(got).max()
        if not analytic:
            assert np.all(got.imag == 0)

    def test_spec_across_block_boundary(self):
        # One component more than a block: the second block holds one.
        k = dg._BLOCK + 1
        rng = make_rng(91)
        spec = dg.WaveformSpec(rng.uniform(0.0, dg.NYQUIST, k), rng.uniform(0.1, 1.0, k),
                               rng.uniform(0.0, 1.0, k), analytic=True)
        want = direct_sum(spec)
        assert np.abs(dg.synthesize(spec) - want).max() <= 1e-12 * np.abs(want).max()

    def test_long_observation_streams_in_bounded_memory(self):
        # Observation 67649 of seed 8's train stream has 411,771 harmonics.
        # Rendered as a partition renders it, its phases, frequencies and
        # amplitudes exist one block at a time; a drawn spec alone holds 9.4 MiB.
        kind = dg.DatasetKind.SAWTOOTH
        lengths = []

        def blocks():
            for block in dg._draw(kind, make_rng(8, 0, 67649)):
                lengths.append(len(block[0]))
                yield block

        tracemalloc.start()
        try:
            got = dg._render_rows([blocks()], 1, Field.REAL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(lengths) == 411771
        assert peak < 16 * 2**20, peak
        want = dg.synthesize(dg.draw_spec(kind, make_rng(8, 0, 67649)))
        assert got[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("bin_", [1, 10, 333, 511])
    def test_integer_bin_component(self, bin_):
        f = bin_ / dg.N_SAMPLES
        spec = dg.WaveformSpec(np.array([f]), np.array([1.0]), np.array([0.7]), analytic=True)
        t = np.arange(dg.N_SAMPLES)
        np.testing.assert_allclose(dg.synthesize(spec), np.exp(1j * (2 * np.pi * f * t + 0.7)),
                                   rtol=0, atol=1e-12)


class TestAnalytic:
    def test_single_component_is_complex_exponential(self):
        f = 10 / dg.N_SAMPLES
        spec = dg.WaveformSpec(np.array([f]), np.array([1.0]), np.array([0.0]), analytic=True)
        t = np.arange(dg.N_SAMPLES)
        np.testing.assert_allclose(dg.synthesize(spec), np.exp(2j * np.pi * f * t), atol=1e-12)

    def test_real_part_matches_real_waveform(self):
        rng = make_rng(7)
        spec = dg.draw_sawtooth_spec(rng)
        assert not spec.analytic
        real_obs = dg.synthesize(spec)
        analytic_obs = dg.synthesize(dataclasses.replace(spec, analytic=True))
        np.testing.assert_allclose(analytic_obs.real, real_obs.real, atol=1e-12)
        assert np.any(analytic_obs.imag != 0)

    def test_exact_bin_spectra_are_one_sided(self):
        # integer-bin components: negative-frequency bins below 1e-9 x peak
        freqs = np.array([12, 24, 36], dtype=float) / dg.N_SAMPLES
        spec = dg.WaveformSpec(freqs, np.array([1.0, 0.5, 0.33]),
                               np.array([0.3, 0.7, 0.1]), analytic=True)
        mags = np.abs(brute_force_dft(dg.synthesize(spec)))
        neg = negative_bins(dg.N_SAMPLES)
        assert mags[neg].max() < 1e-9 * mags.max()

    def test_real_spectrum_is_symmetrized_analytic_spectrum(self):
        # re(x) = (x + conj(x))/2 pointwise implies
        # X_real[k] = (X[k] + conj(X[(N-k) % N])) / 2 exactly
        rng = make_rng(8)
        spec = dg.draw_spec(dg.DatasetKind.INHARMONIC, rng)
        xa = dg.synthesize(dataclasses.replace(spec, analytic=True))
        xr = dg.synthesize(spec)
        sa, sr = dft(xa), dft(xr)
        folded = 0.5 * (sa + np.conj(sa[(-np.arange(dg.N_SAMPLES)) % dg.N_SAMPLES]))
        np.testing.assert_allclose(sr, folded, rtol=1e-9, atol=1e-6)

    def test_random_frequency_negative_bins_suppressed(self):
        # leakage keeps them nonzero, but far below the matched real
        # signal's mirrored peaks in total energy
        rng = make_rng(9)
        spec = dg.draw_spec(dg.DatasetKind.INHARMONIC, rng)
        xa = dg.synthesize(dataclasses.replace(spec, analytic=True))
        xr = dg.synthesize(spec)
        neg = negative_bins(dg.N_SAMPLES)
        ea = np.sum(np.abs(dft(xa)[neg]) ** 2)
        er = np.sum(np.abs(dft(xr)[neg]) ** 2)
        assert ea < 1e-2 * er


class TestInharmonic:
    def test_five_components_amplitude_fifth(self):
        spec = dg.draw_spec(dg.DatasetKind.INHARMONIC, make_rng(10))
        assert len(spec.freqs) == 5
        np.testing.assert_array_equal(spec.amps, np.full(5, 0.2))
        assert np.all(spec.phases >= 0) and np.all(spec.phases < 1)

    def test_amplitude_bounded_by_one(self):
        for i in range(20):
            samples = dg.synthesize(dg.draw_spec(dg.DatasetKind.INHARMONIC, make_rng(11, i)))
            assert np.max(np.abs(samples)) <= 1.0 + 1e-12

    def test_well_separated_draws_show_five_peaks(self):
        rng = make_rng(12)
        spec = dg.draw_spec(dg.DatasetKind.INHARMONIC, rng)
        while np.min(np.diff(np.sort(spec.freqs))) < 0.02:
            spec = dg.draw_spec(dg.DatasetKind.INHARMONIC, rng)
        mags = np.abs(brute_force_dft(dg.synthesize(spec)))
        pos = mags[: dg.N_SAMPLES // 2]
        found = 0
        for f in spec.freqs:
            b = int(round(f * dg.N_SAMPLES))
            lo, hi = max(0, b - 2), min(len(pos), b + 3)
            if pos[lo:hi].max() > 0.25 * pos.max():
                found += 1
        assert found == 5

    @pytest.mark.parametrize("kind", ["inharmonic", "inharmonic-analytic"])
    def test_draw_order_is_frequencies_then_phases(self, kind):
        for i in range(3):
            spec = dg.draw_spec(kind, make_rng(13, 0, i))
            rng = make_rng(13, 0, i)
            freqs = rng.uniform(0.0, 0.5, 5)
            phases = rng.uniform(0.0, 1.0, 5)
            assert spec.freqs.tobytes() == freqs.tobytes()
            assert spec.phases.tobytes() == phases.tobytes()
            assert spec.amps.tobytes() == np.full(5, 0.2).tobytes()


def complex_frames(samples):
    """One observation's four frames, as build_views' complex-field columns."""
    frames, target = dg.build_views(samples, dg.DatasetKind.SAWTOOTH, "complex")
    return [f[:, 0] for f in frames + [target]]


class TestFrames:
    def test_concat_roundtrip(self):
        samples = dg.synthesize(dg.draw_spec(dg.DatasetKind.SAWTOOTH, make_rng(13)))
        rebuilt = np.concatenate(complex_frames(samples))
        np.testing.assert_array_equal(rebuilt, samples)

    def test_partition_of_indices(self):
        frames = complex_frames(np.arange(1024).astype(complex))
        assert frames[0][0] == 0 and frames[1][0] == 256 and frames[2][0] == 512
        assert frames[3][0] == 768 and frames[3][-1] == 1023

    def test_integer_bin_sinusoid_frames_share_spectrum(self):
        f = 12 / dg.FRAME_LEN  # integer bin within each 256-frame too
        t = np.arange(dg.N_SAMPLES)
        x = np.cos(2 * np.pi * f * t).astype(complex)
        mags = [np.abs(brute_force_dft(fr)[:128]) for fr in complex_frames(x)]
        for m in mags[1:]:
            np.testing.assert_allclose(m, mags[0], atol=1e-8)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            complex_frames(np.zeros(1000))


def _spec_bytes(kind, x):
    spec = dg.draw_spec(kind, make_rng(3, 1))
    return [spec.freqs.tobytes(), spec.amps.tobytes(), spec.phases.tobytes(), spec.analytic]


def _views_bytes(kind, x):
    frames, target = dg.build_views(x, kind, "complex")
    return [v.tobytes() for v in (*frames, target)]


def _bundle_kind(kind, x):
    bundle = dg.DatasetBundle(kind, 1, x, x[:1], x[:1])
    return type(bundle.kind), bundle.kind, bundle.train.tobytes()


def _evaluate(kind, x):
    model = nn.init_model(256, 4, 256, field="complex", init_scale=0.5, seed=1)
    return trainer.evaluate(model, x, kind)


# Each public entry point that takes a dataset kind, called as f(kind, samples).
_KIND_ENTRY_POINTS = {
    "draw_spec": _spec_bytes,
    "model_dims": lambda kind, x: dg.model_dims(kind, "real"),
    "build_views": _views_bytes,
    "DatasetBundle": _bundle_kind,
    "evaluate": _evaluate,
    "zero_baseline_mse": lambda kind, x: trainer.zero_baseline_mse(x, kind, "complex"),
}


@pytest.mark.parametrize("entry", _KIND_ENTRY_POINTS)
def test_kind_given_as_its_string(entry):
    # generate_bundle's rule, DatasetKind(kind), at every entry point.
    call = _KIND_ENTRY_POINTS[entry]
    kind = dg.DatasetKind.SAWTOOTH_ANALYTIC
    x = dg.generate_bundle(kind, 5, 3, 1, 1).train
    assert call(kind.value, x) == call(kind, x)
    with pytest.raises(ValueError, match="bogus"):
        call("bogus", x)


@pytest.mark.parametrize("kind", list(dg.DatasetKind))
def test_kind_field_gives_the_samples_dtype(kind):
    assert kind.field is (Field.COMPLEX if kind.analytic else Field.REAL)
    bundle = dg.generate_bundle(kind, 2, 1, 1, 1)
    assert all(bundle.partition(name).dtype == kind.field.dtype for name in dg.PARTITIONS)


class TestBundleIO:
    def small_bundle(self, seed=21):
        return dg.generate_bundle(dg.DatasetKind.INHARMONIC_ANALYTIC, seed, 6, 3, 2)

    def test_roundtrip_bitwise(self, tmp_path):
        bundle = self.small_bundle()
        path = tmp_path / "data.cvds"
        dg.write_dataset(bundle, path)
        loaded = dg.read_dataset(path)
        assert dg.bundles_equal(bundle, loaded)
        dg.write_dataset(loaded, tmp_path / "again.cvds")
        assert (tmp_path / "again.cvds").read_bytes() == path.read_bytes()

    def test_file_size_formula(self, tmp_path):
        bundle = self.small_bundle()
        path = tmp_path / "data.cvds"
        dg.write_dataset(bundle, path)
        header = 4 + 1 + 1 + 8 + 12
        assert path.stat().st_size == header + (6 + 3 + 2) * 1024 * 16

    def test_truncation_is_format_error(self, tmp_path):
        bundle = self.small_bundle()
        path = tmp_path / "data.cvds"
        dg.write_dataset(bundle, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            dg.read_dataset(path)

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "data.cvds"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(FormatError, match="byte 0"):
            dg.read_dataset(path)

    def test_read_holds_one_copy_of_the_file(self, tmp_path):
        # Blocks are read straight into their arrays, so the traced peak of
        # a read stays near the file's size instead of twice it.
        rng = make_rng(5)
        parts = [rng.normal(size=(n, dg.N_SAMPLES)) + 0j for n in (200, 60, 60)]
        path = tmp_path / "data.cvds"
        dg.write_dataset(dg.DatasetBundle(dg.DatasetKind.SAWTOOTH, 5, *parts), path)
        size = path.stat().st_size  # about 5.2 MB
        tracemalloc.start()
        try:
            dg.read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size, (peak, size)

    @pytest.mark.parametrize("kind", list(dg.DatasetKind))
    def test_file_holds_complex_pairs_for_every_kind(self, tmp_path, kind):
        # The layout the file had when every kind was held as complex128:
        # float64 samples are written as (re, +0.0) pairs.
        bundle = dg.generate_bundle(kind, 41, 5, 3, 2)
        path = tmp_path / "data.cvds"
        dg.write_dataset(bundle, path)
        header = b"CVDS" + struct.pack("<BBQIII", 1, list(dg.DatasetKind).index(kind), 41, 5, 3, 2)
        body = b"".join(np.ascontiguousarray(bundle.partition(n), dtype="<c16").tobytes()
                        for n in ("train", "val", "test"))
        assert path.read_bytes() == header + body

    @pytest.mark.parametrize("part, index", [("train", 5), ("train", 66000), ("test", 0)])
    def test_nonzero_imaginary_part_in_a_real_kind_file(self, tmp_path, part, index):
        # Blocks of a real-valued kind are read in chunks of 65536 pairs; the
        # error names the imaginary part's byte, in any chunk of any block.
        bundle = dg.generate_bundle(dg.DatasetKind.INHARMONIC, 42, 70, 1, 2)
        path = tmp_path / "data.cvds"
        dg.write_dataset(bundle, path)
        start = 26 + 16 * dg.N_SAMPLES * {"train": 0, "test": 71}[part]
        byte = start + 16 * index + 8
        blob = bytearray(path.read_bytes())
        blob[byte : byte + 8] = np.array([0.25]).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            dg.read_dataset(path)
        assert str(exc.value) == f"nonzero imaginary part in dataset {part} at byte {byte}"

    @pytest.mark.parametrize("index", [5, 66000])
    @pytest.mark.parametrize("kind", ["inharmonic", "inharmonic-analytic"])
    def test_non_finite_pair_names_its_byte(self, tmp_path, kind, index):
        # Every block is read in chunks of 65536 pairs, whatever its dtype;
        # the error names the pair's byte in the first chunk and past it.
        bundle = dg.generate_bundle(kind, 42, 70, 1, 2)
        path = tmp_path / "data.cvds"
        dg.write_dataset(bundle, path)
        byte = 26 + 16 * index
        blob = bytearray(path.read_bytes())
        blob[byte : byte + 8] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            dg.read_dataset(path)
        assert str(exc.value) == f"non-finite value in dataset train at byte {byte}"

    def test_real_kind_io_holds_no_complex_copy(self, tmp_path):
        # Reading and writing a real-valued kind stage about 1 MiB of pairs
        # at a time, never a complex128 copy (twice the float64 bytes).
        parts = [make_rng(6, i).normal(size=(n, dg.N_SAMPLES)) for i, n in enumerate((1600, 200, 200))]
        bundle = dg.DatasetBundle(dg.DatasetKind.SAWTOOTH, 6, *parts)
        nbytes = sum(p.nbytes for p in parts)  # about 16.4 MB
        path = tmp_path / "data.cvds"
        peaks = []
        for step in (lambda: dg.write_dataset(bundle, path), lambda: dg.read_dataset(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.1 * nbytes and peaks[1] <= 1.1 * nbytes, (peaks, nbytes)
        assert dg.bundles_equal(dg.read_dataset(path), bundle)

    @pytest.mark.parametrize("kind", ["inharmonic", "inharmonic-analytic"])
    def test_read_partition_equals_read_dataset(self, tmp_path, kind):
        path = tmp_path / "data.cvds"
        dg.write_dataset(dg.generate_bundle(kind, 43, 5, 3, 2), path)
        bundle = dg.read_dataset(path)
        for name in ("train", "val", "test"):
            got_kind, samples = dg.read_partition(path, name)
            want = bundle.partition(name)
            assert got_kind == bundle.kind
            assert samples.dtype == want.dtype and samples.shape == want.shape
            assert samples.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="unknown partition"):
            dg.read_partition(path, "kind")

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_read_partition_checks_every_block(self, tmp_path, part):
        # A fault in a partition that is not kept is still found, with the
        # error and byte read_dataset reports.
        path = tmp_path / "data.cvds"
        dg.write_dataset(dg.generate_bundle("inharmonic", 44, 3, 2, 2), path)
        byte = 26 + 16 * dg.N_SAMPLES * {"train": 0, "val": 3, "test": 5}[part] + 16 * 7
        blob = bytearray(path.read_bytes())
        blob[byte : byte + 8] = np.array([np.inf]).tobytes()
        path.write_bytes(bytes(blob))
        want = f"non-finite value in dataset {part} at byte {byte}"
        with pytest.raises(FormatError) as exc:
            dg.read_dataset(path)
        assert str(exc.value) == want
        for name in ("train", "val", "test"):
            with pytest.raises(FormatError) as exc:
                dg.read_partition(path, name)
            assert str(exc.value) == want

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.cvds", tmp_path / "b.cvds"
        dg.write_dataset(self.small_bundle(), a)
        dg.write_dataset(self.small_bundle(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        assert not dg.bundles_equal(self.small_bundle(1), self.small_bundle(2))

    def test_partitions_disjoint_streams(self):
        bundle = self.small_bundle()
        assert not np.array_equal(bundle.train[0], bundle.val[0])
        assert not np.array_equal(bundle.val[0], bundle.test[0])

    def test_specs_regenerable(self):
        # Specs are not stored; the partition's stream and the index redraw
        # them, and synthesize renders every row's bytes. 70 train rows fill
        # more than one batch.
        for kind in dg.DatasetKind:
            bundle = dg.generate_bundle(kind, 21, 70, 9, 5)
            for name, stream in (("train", 0), ("val", 1), ("test", 2)):
                for i, row in enumerate(bundle.partition(name)):
                    got = dg.synthesize(dg.draw_spec(kind, make_rng(21, stream, i))).tobytes()
                    assert got == row.tobytes(), (kind, name, i)

    def test_long_observation_regenerable(self):
        # Train row 130 of seed 7 has 10,018 harmonics in three blocks. The
        # first two fill a batch each; the last, of 1,826 components, shares
        # a batch with the rows after it.
        train = dg.generate_bundle("sawtooth", 7, 140, 0, 0).train
        for i in range(125, 140):
            want = dg.synthesize(dg.draw_spec(dg.DatasetKind.SAWTOOTH, make_rng(7, 0, i)))
            assert want.tobytes() == train[i].tobytes(), i


class TestSampleDtype:
    def test_dtype_follows_the_kind(self):
        for kind in dg.DatasetKind:
            bundle = dg.generate_bundle(kind, 39, 2, 1, 1)
            want = np.complex128 if kind.analytic else np.float64
            assert all(bundle.partition(n).dtype == want for n in ("train", "val", "test"))
            spec = dg.draw_spec(kind, make_rng(39, 0, 0))
            assert dg.synthesize(spec).dtype == want

    def test_complex_samples_of_a_real_kind_are_taken_as_float64(self):
        parts = [make_rng(40, i).normal(size=(3, dg.N_SAMPLES)) for i in range(3)]
        bundle = dg.DatasetBundle(dg.DatasetKind.INHARMONIC, 40, *(p + 0j for p in parts))
        for got, want in zip((bundle.train, bundle.val, bundle.test), parts):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        frames, _ = dg.build_views(parts[0] + 0j, dg.DatasetKind.INHARMONIC, "complex")
        assert frames[0].dtype == np.float64

    def test_nonzero_imaginary_part_of_a_real_kind_is_value_error(self):
        parts = [np.zeros((2, dg.N_SAMPLES), dtype=complex) for _ in range(3)]
        parts[1][1, 7] = 1e-300j
        with pytest.raises(ValueError, match="sawtooth samples must have a zero imaginary part"):
            dg.DatasetBundle(dg.DatasetKind.SAWTOOTH, 1, *parts)
        with pytest.raises(ValueError, match="zero imaginary part"):
            dg.build_views(parts[1], dg.DatasetKind.SAWTOOTH, "real")

    def test_analytic_kinds_widen_float_samples(self):
        parts = [np.ones((2, dg.N_SAMPLES)) for _ in range(3)]
        bundle = dg.DatasetBundle(dg.DatasetKind.SAWTOOTH_ANALYTIC, 1, *parts)
        assert bundle.train.dtype == np.complex128


class TestModelViews:
    @pytest.mark.parametrize("kind", list(dg.DatasetKind))
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_target_view_is_build_views_target(self, kind, field):
        # The target is the model's view of the last frame, laid out like the
        # input frames: a view of the samples, not a copy.
        bundle = dg.generate_bundle(kind, 34, 3, 2, 2)
        frames, target = dg.build_views(bundle.train, kind, field)
        assert target.dtype == frames[0].dtype and target.shape == frames[0].shape
        assert target.strides == frames[0].strides
        assert np.shares_memory(target, bundle.train)

    @pytest.mark.parametrize("kind", list(dg.DatasetKind))
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_every_input_frame_is_a_view_of_the_samples(self, kind, field):
        # Nothing is copied: the target is a view as well, with the frames'
        # strides; autodiff.mse lays the residual out like the prediction.
        bundle = dg.generate_bundle(kind, 36, 3, 2, 2)
        frames, target = dg.build_views(bundle.train, kind, field)
        assert all(np.shares_memory(f, bundle.train) for f in frames)
        assert np.shares_memory(target, bundle.train) and target.strides == frames[0].strides

    @pytest.mark.parametrize("kind", list(dg.DatasetKind))
    def test_complex_field_is_float64_on_real_valued_kinds(self, kind):
        bundle = dg.generate_bundle(kind, 37, 3, 2, 2)
        frames, target = dg.build_views(bundle.train, kind, "complex")
        for i, got in enumerate(frames + [target]):
            frame = bundle.train[:, i * dg.FRAME_LEN : (i + 1) * dg.FRAME_LEN].T
            if kind.analytic:
                assert got.dtype == np.complex128
                np.testing.assert_array_equal(got, frame)
            else:
                assert got.dtype == np.float64 and np.all(frame.imag == 0)
                np.testing.assert_array_equal(got, frame.real)
        if not kind.analytic:  # views of the samples, one contiguous column per observation
            assert all(f.strides[0] == f.itemsize for f in frames)
            assert all(np.shares_memory(f, bundle.train) for f in frames)

    @pytest.mark.parametrize("kind", [dg.DatasetKind.SAWTOOTH, dg.DatasetKind.INHARMONIC])
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_real_kind_frames_are_views_of_float64_samples(self, kind, field):
        bundle = dg.generate_bundle(kind, 38, 5, 2, 2)
        frames, target = dg.build_views(bundle.train, kind, field)
        for i, frame in enumerate(frames):
            assert np.shares_memory(frame, bundle.train)
            assert frame.strides == (8, 8 * dg.N_SAMPLES)
            np.testing.assert_array_equal(frame, bundle.train[:, i * 256 : (i + 1) * 256].T)
        assert np.shares_memory(target, bundle.train)
        assert target.strides == (8, 8 * dg.N_SAMPLES)
        np.testing.assert_array_equal(target, bundle.train[:, 768:].T)

    def test_complex_views(self):
        bundle = dg.generate_bundle(dg.DatasetKind.SAWTOOTH, 31, 4, 2, 2)
        frames, target = dg.build_views(bundle.train, bundle.kind, "complex")
        assert len(frames) == 3 and frames[0].shape == (256, 4)
        np.testing.assert_array_equal(frames[0][:, 0], bundle.train[0, :256])
        np.testing.assert_array_equal(target[:, 0], bundle.train[0, 768:])

    def test_real_view_of_analytic_interleaves_re_im(self):
        # A complex frame read as float64: re x_k at row 2k, im x_k at 2k + 1.
        bundle = dg.generate_bundle(dg.DatasetKind.SAWTOOTH_ANALYTIC, 32, 2, 2, 2)
        frames, target = dg.build_views(bundle.train, bundle.kind, "real")
        assert frames[0].shape == (512, 2) and target.shape == (512, 2)
        assert frames[0].dtype == target.dtype == np.float64
        np.testing.assert_array_equal(frames[0][0::2, 0], bundle.train[0, :256].real)
        np.testing.assert_array_equal(frames[0][1::2, 0], bundle.train[0, :256].imag)
        np.testing.assert_array_equal(target[0::2, 1], bundle.train[1, 768:].real)
        np.testing.assert_array_equal(target[1::2, 1], bundle.train[1, 768:].imag)

    def test_real_view_of_analytic_samples_in_any_memory_order(self):
        # Column-major samples are copied once, into rows that can be read
        # as float64.
        bundle = dg.generate_bundle(dg.DatasetKind.INHARMONIC_ANALYTIC, 35, 4, 2, 2)
        frames, target = dg.build_views(np.asfortranarray(bundle.train), bundle.kind, "real")
        want_frames, want_target = dg.build_views(bundle.train, bundle.kind, "real")
        for got, want in zip(frames + [target], want_frames + [want_target]):
            np.testing.assert_array_equal(got, want)

    def test_real_view_of_real_kind_takes_real_part(self):
        bundle = dg.generate_bundle(dg.DatasetKind.SAWTOOTH, 33, 2, 2, 2)
        frames, target = dg.build_views(bundle.train, bundle.kind, "real")
        assert frames[0].shape == (256, 2)
        np.testing.assert_array_equal(frames[0][:, 1], bundle.train[1, :256].real)

    def test_model_dims(self):
        assert dg.model_dims(dg.DatasetKind.SAWTOOTH, "complex") == (256, 256)
        assert dg.model_dims(dg.DatasetKind.SAWTOOTH_ANALYTIC, "real") == (512, 512)
        assert dg.model_dims(dg.DatasetKind.INHARMONIC, "real") == (256, 256)

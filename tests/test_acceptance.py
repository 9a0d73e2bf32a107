"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The desk-scale protocol is pinned here: sawtooth data seed 42 with
500/200/200 observations, hidden size 32, 200 epochs, 10 search trials,
batch size 250 (two steps per epoch), search seed 7.

Criterion 7 is implemented faithfully and is expected to FAIL. Three
measured facts (ROADMAP.md, "Measured baseline") say why as far as is
known. At hidden size 32 the prediction is a fixed rank-32 linear
readout: projecting the val targets onto the top-32 subspace of the train
targets leaves about 0.87 of the zero-predictor error out of sample (the
"16 percent" is the in-sample top-32 second-moment mass, 0.163 over 8000
draws), so no training outcome at hidden 32 reaches 0.5. Desk-shaped
models at hidden 128, whose bound is 0.51, also sit at 1.005-1.009. And
the targets are predictable: one complex rotation per DFT bin, fitted to
each observation's own frames, predicts them to about 0.02, but that
rotation differs per observation, so no fixed map of the frames applies
it. The same machinery cuts the error to a third of baseline on a
fixed-fundamental control task (test_trainer.py).
"""

import time

import numpy as np
import pytest

from cvnet import autodiff as ad
from cvnet import datagen, gradcheck, nn, spectral, trainer
from cvnet.complex_ops import make_rng, sample_circular_gaussian

DATA_SEED = 42
SEARCH_SEED = 7
DIVERGE_SEED = 5
DESK = dict(hidden=32, n_trials=10, epochs=200, batch_size=250)


def report(cid: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {cid}: {status}  {detail}")


@pytest.fixture(scope="module")
def desk_data():
    return datagen.generate_bundle(
        datagen.DatasetKind.SAWTOOTH, DATA_SEED, n_train=500, n_val=200, n_test=200
    )


@pytest.fixture(scope="module")
def complex_search(desk_data):
    return trainer.random_search(desk_data, field="complex", seed=SEARCH_SEED, **DESK)


@pytest.fixture(scope="module")
def real_search(desk_data):
    return trainer.random_search(desk_data, field="real", seed=SEARCH_SEED, **DESK)


def test_c01_gradient_correctness():
    """Every registered derivative matches the finite-difference oracle."""
    start = time.time()
    entries = gradcheck.run_gradcheck(seed=2024, n_probes=10, rtol=1e-5)
    elapsed = time.time() - start
    names = {e.name for e in entries}
    for needed in ("op:ctanh", "op:split_magnitude", "op:linear", "loss:mse",
                   "layer:dense", "layer:recurrent-complex"):
        assert needed in names
    ok = gradcheck.all_passed(entries) and elapsed < 10.0
    report("1 gradient-correctness", ok,
           f"{len(entries)} checks, worst {max(e.max_err for e in entries):.2e}, {elapsed:.1f}s")
    assert gradcheck.all_passed(entries), gradcheck.format_report(entries)
    assert elapsed < 10.0


def test_c02_holomorphy_classification():
    rng = make_rng(909)
    probes = [0.9 * sample_circular_gaussian(rng, (), 1.0) for _ in range(100)]
    holomorphic = {
        "ctanh": nn.ctanh_values,
        "linear": lambda z: z,
        "square": lambda z: z * z,
    }
    non_holomorphic = {
        "split_magnitude": nn.split_magnitude_values,
        "re": lambda z: z.real.astype(complex),
        "conj": np.conj,
        "abs2": lambda z: (z * np.conj(z)),
    }
    ok = True
    for name, fn in holomorphic.items():
        ok &= ad.is_holomorphic_numeric(fn, probes, tol=1e-8)
    for name, fn in non_holomorphic.items():
        ok &= not ad.is_holomorphic_numeric(fn, probes, tol=1e-8)
    report("2 holomorphy-classification", ok, "3 holomorphic, 4 non-holomorphic, 100 probes")
    assert ok


def test_c03_chain_rule_equivalence():
    names = sorted(ad.REGISTRY)
    worst = 0.0
    for case in range(50):
        rng = make_rng(case, 313)
        chain = [names[int(rng.integers(len(names)))] for _ in range(3)]
        z0 = np.asarray(0.6 * sample_circular_gaussian(rng, (), 1.0))

        pair = ad.pair_at(chain[0], z0)
        value = ad.REGISTRY[chain[0]].fn(z0)
        for name in chain[1:]:
            pair = ad.compose_pairs(ad.pair_at(name, value), pair)
            value = ad.REGISTRY[name].fn(value)

        def composed(z, _chain=tuple(chain)):
            for name in _chain:
                z = ad.REGISTRY[name].fn(z)
            return z

        oracle = ad.wirtinger_pair_numeric(composed, z0)
        scale = 1e-3 + max(np.max(np.abs(oracle.j)), np.max(np.abs(oracle.jc)))
        err = max(np.max(np.abs(pair.j - oracle.j)), np.max(np.abs(pair.jc - oracle.jc)))
        worst = max(worst, err / scale)
    ok = worst < 1e-5
    report("3 chain-rule-equivalence", ok, f"50 depth-3 cases, worst scaled err {worst:.2e}")
    assert ok


def test_c04_loss_derivative_identity():
    z0 = 2 + 3j
    z = ad.Var(np.asarray(z0))
    store = ad.backward(ad.sum_abs2(z))
    exact = store[z] == np.asarray(z0)
    report("4 loss-derivative-identity", bool(exact), f"grad {store[z]} == {z0} (machine exact)")
    assert exact


def test_c05_parameter_counts():
    c = nn.init_model(256, 256, 256, field="complex", seed=0).param_count()
    r = nn.init_model(512, 256, 512, field="real", seed=0).param_count()
    ok = (c, r) == (197_376, 328_704)
    report("5 parameter-counts", ok, f"complex {c}, real {r}")
    assert ok


def test_c06a_analytic_one_sidedness():
    # exact-bin fixtures are leakage-free: negative bins below 1e-9 x peak.
    # Random draws leak into negative bins through their non-integer
    # frequencies, so those are measured against the matched real signal's
    # symmetric spectrum: the analytic negative-frequency energy must be a
    # small fraction of the real version's (observed max 2.6e-2 over 30
    # draws; asserted below 5e-2).
    neg = spectral.negative_bins(datagen.N_SAMPLES)
    worst_exact = 0.0
    for f0_bin in (3, 17, 40):
        n_max = int(np.ceil(0.5 * datagen.N_SAMPLES / f0_bin)) - 1
        n = np.arange(1, n_max + 1)
        spec = datagen.WaveformSpec(
            f0_bin * n / datagen.N_SAMPLES, 1.0 / n, 0.1 * np.ones(n_max), analytic=True
        )
        mags = np.abs(spectral.dft(datagen.synthesize(spec)))
        worst_exact = max(worst_exact, mags[neg].max() / mags.max())
    worst_leak = 0.0
    for i in range(10):
        spec = datagen.draw_spec(datagen.DatasetKind.SAWTOOTH_ANALYTIC, make_rng(606, i))
        xa = datagen.synthesize(spec)
        xr = datagen.synthesize(
            datagen.WaveformSpec(spec.freqs, spec.amps, spec.phases, analytic=False)
        )
        ea = np.sum(np.abs(spectral.dft(xa)[neg]) ** 2)
        er = np.sum(np.abs(spectral.dft(xr)[neg]) ** 2)
        worst_leak = max(worst_leak, ea / er)
    ok = worst_exact < 1e-9 and worst_leak < 5e-2
    report("6a analytic-one-sidedness", ok,
           f"exact-bin worst {worst_exact:.1e}, worst leakage energy ratio {worst_leak:.1e}")
    assert ok


def test_c06b_mean_periods_per_frame():
    draws = [
        datagen.draw_sawtooth_spec(make_rng(707, i)) for i in range(10_000)
    ]
    mean = float(np.mean([datagen.periods_per_frame(s) for s in draws]))
    ok = 62.0 <= mean <= 66.0
    report("6b mean-periods-per-frame", ok, f"mean {mean:.2f} over 10000 draws")
    assert ok


def test_c06c_bundle_roundtrip(tmp_path):
    bundle = datagen.generate_bundle(datagen.DatasetKind.SAWTOOTH_ANALYTIC, 11, 8, 4, 4)
    path = tmp_path / "bundle.cvds"
    datagen.write_dataset(bundle, path)
    loaded = datagen.read_dataset(path)
    datagen.write_dataset(loaded, tmp_path / "again.cvds")
    ok = datagen.bundles_equal(bundle, loaded) and (
        (tmp_path / "again.cvds").read_bytes() == path.read_bytes()
    )
    report("6c bundle-roundtrip", ok, "bitwise")
    assert ok


def test_c07_desk_scale_learning(desk_data, complex_search):
    baseline = trainer.zero_baseline_mse(desk_data.val, desk_data.kind, "complex")
    completed = [r for r in complex_search if not r.diverged]
    best = completed[0].best_val if completed else float("inf")
    ratio = best / baseline
    ok = ratio <= 0.5
    report("7 desk-scale-learning", ok,
           f"best val {best:.4f}, baseline {baseline:.4f}, ratio {ratio:.3f} (need <= 0.5); "
           "rank-32 bound ~0.87 out of sample, hidden 128 sits at 1.005-1.009, "
           "per-bin rotation reaches ~0.02")
    assert ok, (
        f"best/baseline = {ratio:.3f}; at hidden=32 a fixed rank-32 readout bounds the ratio "
        "at about 0.87 out of sample (16% is the in-sample top-32 mass), so 0.5 is unreachable; "
        "desk-shaped models at hidden 128 (bound 0.51) also sit at 1.005-1.009; a per-bin DFT "
        "rotation fitted to each observation's frames predicts the targets to about 0.02, "
        "so they are predictable, but not by a fixed map of the frames"
    )


def test_c08_real_complex_parity(complex_search, real_search):
    best_c = next((r.best_val for r in complex_search if not r.diverged), float("inf"))
    best_r = next((r.best_val for r in real_search if not r.diverged), float("inf"))
    factor = max(best_r / best_c, best_c / best_r)
    ok = factor <= 3.0
    report("8 real-complex-parity", ok, f"complex {best_c:.4f}, real {best_r:.4f}, factor {factor:.2f}")
    assert ok


def test_c09_real_degenerate_equivalence(desk_data):
    config = trainer.TrainConfig(lr0=2e-3, half_life=300.0, init_scale=0.3,
                                 momentum=0.9, epochs=DESK["epochs"],
                                 batch_size=DESK["batch_size"])
    model = nn.init_model(256, DESK["hidden"], 256, field="real",
                          init_scale=config.init_scale, seed=13)
    result = trainer.train(model, desk_data, config)
    worst = 0.0
    for snapshot in (model, result.model):
        for arr in snapshot.params().values():
            worst = max(worst, float(np.max(np.abs(arr.imag))))
    ok = result.status == "completed" and worst < 1e-12
    report("9 real-degenerate-equivalence", ok,
           f"status {result.status}, max |Im| over all parameters {worst:.1e}")
    assert ok


def test_c10_instability_surfacing(desk_data):
    space = trainer.SearchSpace(lr0=(1.0, 1.0))
    results = trainer.random_search(
        desk_data, field="complex", seed=DIVERGE_SEED, space=space, **DESK
    )
    diverged = [r for r in results if r.diverged]
    partial_ok = all(0 < len(r.history) < DESK["epochs"] for r in diverged)
    status_ok = all(r.status in ("completed", "diverged") for r in results)
    ok = len(diverged) >= 1 and partial_ok and status_ok
    report("10 instability-surfacing", ok,
           f"{len(diverged)}/10 diverged at lr0=1.0, partial histories "
           f"{[len(r.history) for r in diverged]}")
    assert ok


def test_c11_determinism(desk_data, complex_search, tmp_path):
    rerun = trainer.random_search(desk_data, field="complex", seed=SEARCH_SEED, **DESK)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    for results, out in ((complex_search, a_dir), (rerun, b_dir)):
        trainer.write_search_csv(results, out / "search.csv")
        for r in results:
            trainer.write_curves_csv(r, out / f"trial_{r.trial_id:03d}.csv")
    files = sorted(p.name for p in a_dir.iterdir())
    same = files == sorted(p.name for p in b_dir.iterdir()) and all(
        (a_dir / name).read_bytes() == (b_dir / name).read_bytes() for name in files
    )
    report("11 determinism", same, f"{len(files)} CSVs byte-identical across reruns")
    assert same

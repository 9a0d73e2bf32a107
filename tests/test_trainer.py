"""Schedule, optimizer, training loop, random search, and CSV exports."""

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

from cvnet import autodiff as ad
from cvnet import datagen as dg
from cvnet import nn, trainer
from cvnet.complex_ops import COMPLEX, Field, make_rng, sample_circular_gaussian


@pytest.fixture(scope="module")
def small_data():
    return dg.generate_bundle(dg.DatasetKind.SAWTOOTH, 2024, n_train=60, n_val=20, n_test=20)


def fixed_f0_bundle(f0=0.043, seed=1, n_train=200, n_val=80):
    """Shared fundamental, random phases: a learnable control task."""

    def gen(stream, count):
        out = np.empty((count, dg.N_SAMPLES), dtype=COMPLEX)
        n_max = int(np.ceil(dg.NYQUIST / f0)) - 1
        n = np.arange(1, n_max + 1)
        for i in range(count):
            rng = make_rng(seed, stream, i)
            spec = dg.WaveformSpec(
                f0 * n.astype(float), 1.0 / n, rng.uniform(0, 2 * np.pi, n_max), analytic=False
            )
            out[i] = dg.synthesize(spec)
        return out

    return dg.DatasetBundle(
        kind=dg.DatasetKind.SAWTOOTH, seed=seed,
        train=gen(0, n_train), val=gen(1, n_val), test=gen(2, n_val),
    )


class TestSchedule:
    def cfg(self, **kw):
        base = dict(lr0=0.4, half_life=50.0, init_scale=1.0, epochs=10, batch_size=10)
        base.update(kw)
        return trainer.TrainConfig(**base)

    def test_epoch_zero(self):
        assert trainer.lr_at(self.cfg(), 0) == 0.4

    def test_half_life(self):
        assert trainer.lr_at(self.cfg(), 50) == pytest.approx(0.2, abs=1e-15)

    def test_three_half_lives(self):
        assert trainer.lr_at(self.cfg(), 150) == pytest.approx(0.1, abs=1e-15)

    def test_strictly_decreasing(self):
        cfg = self.cfg()
        rates = [trainer.lr_at(cfg, e) for e in range(100)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("bad", [
        dict(lr0=-1.0), dict(momentum=1.0), dict(half_life=0.0),
        dict(init_scale=0.0), dict(epochs=0),
        dict(lr0=np.nan), dict(lr0=np.inf), dict(half_life=np.nan), dict(half_life=np.inf),
        dict(init_scale=np.nan), dict(init_scale=np.inf), dict(momentum=np.nan),
        dict(batch_size=0), dict(momentum=-0.1), dict(half_life=-1.0), dict(init_scale=-1.0),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(trainer.ConfigError):
            self.cfg(**bad)


def test_full_scale_batch_structure_is_ten_steps():
    assert len(trainer._batch_slices(10_000, 1_000)) == 10


class TestSgdMomentumStep:
    def test_zero_gradient_keeps_params(self):
        p = {"w": np.array([1 + 2j])}
        v = {"w": np.zeros(1, dtype=COMPLEX)}
        trainer.sgd_momentum_step(p, {"w": np.zeros(1, dtype=COMPLEX)}, v, 0.5, 0.9)
        assert p["w"][0] == 1 + 2j

    def test_zero_momentum_is_plain_descent(self):
        p = {"w": np.array([1 + 0j])}
        v = {"w": np.zeros(1, dtype=COMPLEX)}
        g = {"w": np.array([0.25 + 0.5j])}
        trainer.sgd_momentum_step(p, g, v, 0.1, 0.0)
        assert p["w"][0] == (1 + 0j) - 0.1 * (0.25 + 0.5j)

    def test_quadratic_iterates_follow_geometric_decay(self):
        # L(w) = w conj(w): cogradient is w, so with lr 0.1 and no momentum
        # the iterates are w_k = 0.9^k
        w = {"w": np.array([1 + 0j])}
        v = {"w": np.zeros(1, dtype=COMPLEX)}
        for k in range(1, 26):
            trainer.sgd_momentum_step(w, {"w": w["w"].copy()}, v, 0.1, 0.0)
            assert w["w"][0] == pytest.approx(0.9 ** k, abs=1e-14)

    def test_momentum_converges_on_quadratic(self):
        w = {"w": np.array([1 + 0j])}
        v = {"w": np.zeros(1, dtype=COMPLEX)}
        for _ in range(500):
            trainer.sgd_momentum_step(w, {"w": w["w"].copy()}, v, 0.05, 0.9)
        assert abs(w["w"][0]) < 1e-6

    def test_nonfinite_update_raises(self):
        p = {"w": np.array([1 + 0j])}
        v = {"w": np.zeros(1, dtype=COMPLEX)}
        with pytest.raises(Exception, match="w"):
            trainer.sgd_momentum_step(p, {"w": np.array([np.inf + 0j])}, v, 0.1, 0.0)


class TestTrain:
    def test_lr_zero_leaves_params_and_error_constant(self, small_data):
        cfg = trainer.TrainConfig(lr0=0.0, half_life=10.0, init_scale=0.5,
                                  epochs=4, batch_size=20)
        model = nn.init_model(256, 8, 256, field="complex", init_scale=0.5, seed=1)
        before = {k: v.copy() for k, v in model.params().items()}
        result = trainer.train(model, small_data, cfg)
        assert result.status == "completed"
        train_errors = {rec.train_mse for rec in result.history}
        assert len(train_errors) == 1
        for name, arr in model.params().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_same_seed_bitwise_identical_history(self, small_data):
        def run():
            cfg = trainer.TrainConfig(lr0=1e-3, half_life=20.0, init_scale=0.4,
                                      epochs=3, batch_size=20)
            model = nn.init_model(256, 8, 256, field="complex", init_scale=0.4, seed=5)
            return trainer.train(model, small_data, cfg).history

        a, b = run(), run()
        assert a == b

    @staticmethod
    def learns_control_task(activation):
        data = fixed_f0_bundle()
        base = trainer.zero_baseline_mse(data.val, data.kind, "complex")
        cfg = trainer.TrainConfig(lr0=2e-3, half_life=1000.0, init_scale=0.3,
                                  epochs=120, batch_size=50)
        model = nn.init_model(256, 32, 256, field="complex", init_scale=0.3, seed=3,
                              activation=activation)
        result = trainer.train(model, data, cfg)
        assert result.status == "completed"
        assert result.best_val < 0.6 * base

    def test_learns_fixed_frequency_control_task(self):
        self.learns_control_task(nn.ActivationKind.COMPLEX_TANH)

    def test_learns_fixed_frequency_control_task_split_magnitude(self):
        # The non-holomorphic activation: its backward rule takes conj(delta).
        self.learns_control_task(nn.ActivationKind.SPLIT_MAGNITUDE)

    def test_best_val_is_min_over_epochs(self, small_data):
        cfg = trainer.TrainConfig(lr0=1e-3, half_life=20.0, init_scale=0.4,
                                  epochs=5, batch_size=20)
        model = nn.init_model(256, 8, 256, field="complex", init_scale=0.4, seed=6)
        result = trainer.train(model, small_data, cfg)
        assert result.best_val == min(rec.val_mse for rec in result.history)
        assert result.history[result.best_epoch].val_mse == result.best_val

    def test_real_model_dimension_check(self, small_data):
        model = nn.init_model(512, 8, 512, field="real", seed=7)
        cfg = trainer.TrainConfig(lr0=1e-3, half_life=20.0, init_scale=0.4,
                                  epochs=1, batch_size=20)
        with pytest.raises(trainer.ConfigError, match="dims"):
            trainer.train(model, small_data, cfg)
        # The message names a kind given as its value string too.
        with pytest.raises(trainer.ConfigError, match="sawtooth/real data dims"):
            trainer.evaluate(model, small_data.val, "sawtooth")

    def test_empty_partition_is_config_error(self, small_data):
        cfg = trainer.TrainConfig(lr0=1e-3, half_life=20.0, init_scale=0.4,
                                  epochs=1, batch_size=20)
        model = nn.init_model(256, 4, 256, field="complex", seed=7)
        for partition in ("train", "val"):
            empty = dataclasses.replace(small_data, **{partition: small_data.train[:0]})
            with pytest.raises(trainer.ConfigError, match="no observations"):
                trainer.train(model, empty, cfg)
        with pytest.raises(trainer.ConfigError, match="no observations"):
            trainer.evaluate(model, small_data.test[:0], small_data.kind)
        for field in ("complex", "real"):
            with pytest.raises(trainer.ConfigError, match="no observations"):
                trainer.zero_baseline_mse(small_data.val[:0], small_data.kind, field)

    def test_real_model_keeps_zero_imag_throughout(self, small_data, monkeypatch):
        # Zero imaginary parts hold by construction: parameters, cogradients
        # and velocity are float64 at every step.
        seen = set()
        step = trainer.sgd_momentum_step

        def recording_step(params, grads, velocity, *args):
            for arrays in (params, grads, velocity):
                seen.update(arr.dtype for arr in arrays.values())
            return step(params, grads, velocity, *args)

        monkeypatch.setattr(trainer, "sgd_momentum_step", recording_step)
        cfg = trainer.TrainConfig(lr0=1e-3, half_life=20.0, init_scale=0.4,
                                  epochs=3, batch_size=20)
        model = nn.init_model(256, 8, 256, field="real", init_scale=0.4, seed=8)
        result = trainer.train(model, small_data, cfg)
        assert result.status == "completed"
        assert seen == {np.dtype(np.float64)}
        for arr in list(model.params().values()) + list(result.model.params().values()):
            assert arr.dtype == np.float64

    def test_no_graph_outlives_its_step(self, small_data, monkeypatch):
        # Each prediction (a training step's or a validation pass's) must be
        # freed, with its whole graph, before the next graph is built.
        preds = []
        mse, param_vars = ad.mse, nn.param_vars

        def recording_mse(pred, *args):
            preds.append(weakref.ref(pred.value))
            return mse(pred, *args)

        def checking_param_vars(model):
            alive = sum(ref() is not None for ref in preds)
            assert alive == 0, f"{alive} earlier predictions still alive"
            return param_vars(model)

        monkeypatch.setattr(ad, "mse", recording_mse)
        monkeypatch.setattr(nn, "param_vars", checking_param_vars)
        cfg = trainer.TrainConfig(lr0=1e-3, half_life=20.0, init_scale=0.4,
                                  epochs=2, batch_size=30)
        model = nn.init_model(256, 8, 256, field="complex", init_scale=0.4, seed=5)
        assert trainer.train(model, small_data, cfg).status == "completed"
        assert len(preds) == 6  # 2 epochs x (2 steps + 1 validation pass)

    def test_divergence_keeps_partial_history(self, small_data):
        cfg = trainer.TrainConfig(lr0=1e6, half_life=1000.0, init_scale=1.0,
                                  epochs=50, batch_size=60)
        model = nn.init_model(256, 8, 256, field="complex", init_scale=1.0, seed=9)
        result = trainer.train(model, small_data, cfg)
        assert result.status == "diverged"
        assert len(result.history) < 50


class TestNonFiniteData:
    def test_nan_sample_raises_in_train_and_evaluate(self, small_data):
        bad = small_data.train.copy()
        bad[3, 100] = np.nan
        cfg = trainer.TrainConfig(lr0=1e-3, half_life=20.0, init_scale=0.4,
                                  epochs=1, batch_size=20)
        model = nn.init_model(256, 4, 256, field="complex", init_scale=0.4, seed=15)
        with pytest.raises(ArithmeticError, match="samples"):
            trainer.train(model, dataclasses.replace(small_data, train=bad), cfg)
        with pytest.raises(ArithmeticError, match="samples"):
            trainer.evaluate(model, bad, small_data.kind)
        with pytest.raises(ArithmeticError, match="samples"):  # sample 100 is in an input frame
            trainer.zero_baseline_mse(bad, small_data.kind, "complex")


class TestEvaluate:
    def test_zero_model_on_unit_analytic_data(self):
        # single unit-amplitude complex exponential: |target| = 1 everywhere,
        # so the zero predictor scores 0.5 per real DOF
        t = np.arange(dg.N_SAMPLES)
        samples = np.exp(2j * np.pi * 50 / 1024 * t)[None, :]
        model = nn.init_model(256, 4, 256, field="complex", seed=0)
        for arr in model.params().values():
            arr[:] = 0
        mse = trainer.evaluate(model, samples, dg.DatasetKind.SAWTOOTH_ANALYTIC)
        assert mse == pytest.approx(0.5, abs=1e-12)

    def test_perfect_model_scores_zero(self, small_data):
        # identity fixture: targets fed straight back as the prediction
        _, target = dg.build_views(small_data.val, small_data.kind, "complex")
        loss = nn.mse_loss(ad.Var(target), target, "complex")
        assert loss.value.real == 0

    def test_order_invariance(self, small_data):
        model = nn.init_model(256, 8, 256, field="complex", init_scale=0.5, seed=11)
        a = trainer.evaluate(model, small_data.val, small_data.kind)
        b = trainer.evaluate(model, small_data.val[::-1].copy(), small_data.kind)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("kind", list(dg.DatasetKind))
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_zero_baseline_bits_unchanged(self, kind, field):
        # The value build_views' full widening gave, to the last bit.
        data = dg.generate_bundle(kind, 36, 2, 7, 2)
        _, target = dg.build_views(data.val, kind, field)
        want = float(np.sum(target.real**2 + target.imag**2)
                     / (Field(field).dof * target.size))
        assert trainer.zero_baseline_mse(data.val, kind, field) == want

    def test_zero_baseline_matches_direct_formula(self, small_data):
        base = trainer.zero_baseline_mse(small_data.val, small_data.kind, "complex")
        target = small_data.val[:, 768:]
        want = np.sum(np.abs(target) ** 2) / (2 * target.size)
        assert base == pytest.approx(want, rel=1e-12)


# (status, best_val, kept a model) of stand-in trials, ties included.
OUTCOMES = [("diverged", 2.0, True), ("completed", 0.5, True), ("diverged", np.inf, False),
            ("completed", 0.3, True), ("completed", 0.3, True), ("diverged", 1.0, True)]


class TestRandomSearch:
    def test_single_trial(self, small_data):
        res = trainer.random_search(small_data, field="complex", hidden=4, n_trials=1,
                                    seed=1, epochs=2, batch_size=30)
        assert len(res) == 1
        assert res[0].trial_id == 0

    def test_ranking_monotone_and_diverged_last(self, small_data):
        res = trainer.random_search(small_data, field="complex", hidden=4, n_trials=6,
                                    seed=2, epochs=2, batch_size=30)
        completed = [r for r in res if not r.diverged]
        vals = [r.best_val for r in completed]
        assert vals == sorted(vals)
        assert [r.diverged for r in res] == sorted(r.diverged for r in res)

    def test_huge_lr_range_produces_a_diverged_trial(self, small_data):
        space = trainer.SearchSpace(lr0=(1e4, 1e5))
        res = trainer.random_search(small_data, field="complex", hidden=8, n_trials=4,
                                    seed=3, epochs=60, batch_size=60, space=space)
        assert any(r.diverged for r in res)

    def test_deterministic_across_runs(self, small_data):
        kw = dict(field="complex", hidden=4, n_trials=3, seed=4, epochs=2, batch_size=30)
        a = trainer.random_search(small_data, **kw)
        b = trainer.random_search(small_data, **kw)
        assert [(r.trial_id, r.best_val, r.status) for r in a] == [
            (r.trial_id, r.best_val, r.status) for r in b
        ]

    def test_jobs_do_not_change_output_bytes(self, small_data, tmp_path):
        # The real field sends float64 models through the pool's pickling.
        # At hidden 4 BLAS starts no threads. At hidden 128 and batch 500 it
        # does, and one BLAS thread gives other bytes than two, so that case
        # fails if pool workers run another thread count than the in-process
        # path. On a 1-core host both run one thread, and it cannot fail.
        threaded = dg.generate_bundle(dg.DatasetKind.SAWTOOTH, 2024, n_train=1000, n_val=200,
                                      n_test=0)
        cases = [(small_data, field, dict(hidden=4, epochs=3, batch_size=30))
                 for field in ("complex", "real")]
        cases.append((threaded, "complex", dict(hidden=128, epochs=2, batch_size=500)))
        for i, (data, field, shape) in enumerate(cases):
            kw = dict(field=field, n_trials=2, seed=6, **shape)
            outputs = []
            for jobs in (1, 2):
                res = trainer.random_search(data, jobs=jobs, **kw)
                out = tmp_path / f"case{i}_jobs{jobs}"
                trainer.write_search_outputs(res, out)
                outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert len(outputs[0]) == 4, (field, shape)
            assert outputs[0] == outputs[1], (field, shape)

    @pytest.fixture
    def pool(self, monkeypatch):
        """A pool stand-in: it records its size and each work item's pickled
        bytes, and runs its initializer and the unpickled items in process."""
        seen = {"workers": [], "item_bytes": []}

        class Pool:
            def __init__(self, max_workers, initializer, initargs):
                seen["workers"].append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                for item in items:
                    blob = pickle.dumps(item, protocol=pickle.DEFAULT_PROTOCOL)
                    seen["item_bytes"].append(len(blob))
                    yield fn(pickle.loads(blob))

        monkeypatch.setattr(trainer, "ProcessPoolExecutor", Pool)
        return seen

    @pytest.mark.parametrize("n_trials, jobs, workers", [(1, 2, []), (2, 3, [2]), (3, 2, [2])])
    def test_pool_has_no_more_workers_than_trials(self, small_data, pool, n_trials, jobs,
                                                  workers):
        kw = dict(field="complex", hidden=4, n_trials=n_trials, seed=7, epochs=1, batch_size=30)
        want = trainer.random_search(small_data, **kw)
        got = trainer.random_search(small_data, jobs=jobs, **kw)
        assert pool["workers"] == workers
        assert [(r.trial_id, r.best_val) for r in got] == [(r.trial_id, r.best_val) for r in want]

    def test_work_items_do_not_carry_the_dataset(self, small_data, pool):
        trainer.random_search(small_data, field="complex", hidden=4, n_trials=3, seed=7,
                              epochs=1, batch_size=30, jobs=2)
        assert len(pool["item_bytes"]) == 3
        assert max(pool["item_bytes"]) < 1024, pool["item_bytes"]

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_search_does_not_keep_the_dataset(self, monkeypatch, fail):
        data = dg.generate_bundle(dg.DatasetKind.SAWTOOTH, 5, n_train=20, n_val=10, n_test=10)
        alive = weakref.ref(data.train)
        kw = dict(field="complex", hidden=4, n_trials=2, seed=1, epochs=1, batch_size=10)
        if fail:
            def train(model, data, config):
                raise RuntimeError("trial failed")

            monkeypatch.setattr(trainer, "train", train)
            with pytest.raises(RuntimeError, match="trial failed"):
                trainer.random_search(data, **kw)
        else:
            trainer.random_search(data, **kw)
        del data
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize("outcomes", [OUTCOMES[k:] + OUTCOMES[:k] for k in range(6)]
                             + [[o for o in OUTCOMES if o[0] == "diverged"]])
    def test_only_the_rank_first_trial_with_a_model_keeps_it(self, small_data, monkeypatch,
                                                              outcomes):
        # Trial t returns outcomes[t]; whatever order the results arrive in,
        # the one write_search_outputs saves keeps its model and no other does.
        cfg = trainer.TrainConfig(lr0=1e-3, half_life=10.0, init_scale=1.0, epochs=1)
        model = nn.init_model(2, 2, 2, seed=1)

        def outcome(t):
            status, best_val, kept = outcomes[t]
            return trainer.TrialResult(cfg, [], best_val, 0, status, model if kept else None, t)

        monkeypatch.setattr(trainer, "_run_trial", lambda args: outcome(args[-1]))
        want = next(r for r in trainer.rank_results([outcome(t) for t in range(len(outcomes))])
                    if r.model is not None)
        res = trainer.random_search(small_data, field="complex", hidden=4,
                                    n_trials=len(outcomes), seed=1, epochs=1, batch_size=30)
        assert [r.trial_id for r in res if r.model is not None] == [want.trial_id]
        assert [r.trial_id for r in res] == [r.trial_id for r in trainer.rank_results(res)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_search_holds_one_model_as_trials_finish(self, small_data, pool, monkeypatch, jobs):
        # Before each trial starts, at most one earlier trial's model is alive.
        models, alive_at_start = [], []
        run_trial = trainer._run_trial

        def counted(args):
            gc.collect()
            alive_at_start.append(sum(m() is not None for m in models))
            result = run_trial(args)
            models.append(weakref.ref(result.model))
            return result

        monkeypatch.setattr(trainer, "_run_trial", counted)
        res = trainer.random_search(small_data, field="complex", hidden=4, n_trials=4, seed=9,
                                    epochs=1, batch_size=30, space=trainer.SearchSpace(
                                        lr0=(1e-4, 1e-3)), jobs=jobs)
        assert alive_at_start == [0, 1, 1, 1]
        assert [r.model is not None for r in res] == [True, False, False, False]

    def test_invalid_space_rejected(self):
        for bad in (dict(lr0=(0.0, 1.0)), dict(lr0=(1e-3, np.inf)),
                    dict(half_life=(10.0, np.nan)), dict(init_scale=(np.nan, 1.0))):
            with pytest.raises(trainer.ConfigError):
                trainer.SearchSpace(**bad)

    def test_n_trials_must_be_positive(self, small_data):
        with pytest.raises(trainer.ConfigError):
            trainer.random_search(small_data, field="complex", hidden=4, n_trials=0,
                                  seed=1, epochs=1, batch_size=30)


class TestCsvExports:
    def test_curves_format_and_stability(self, small_data, tmp_path):
        cfg = trainer.TrainConfig(lr0=1e-3, half_life=20.0, init_scale=0.4,
                                  epochs=3, batch_size=20)
        model = nn.init_model(256, 8, 256, field="complex", init_scale=0.4, seed=12)
        result = trainer.train(model, small_data, cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        trainer.write_curves_csv(result, a)
        trainer.write_curves_csv(result, b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_mse,val_mse"
        assert len(lines) == 4
        assert "e" in lines[1].split(",")[1]  # scientific notation

    def test_search_summary_columns(self, small_data, tmp_path):
        res = trainer.random_search(small_data, field="complex", hidden=4, n_trials=2,
                                    seed=5, epochs=2, batch_size=30)
        path = tmp_path / "search.csv"
        trainer.write_search_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial_id,lr0,half_life,init_scale,best_val,status"
        assert len(lines) == 3

    def test_int_valued_settings_print_as_floats(self, small_data, tmp_path):
        space = trainer.SearchSpace(lr0=(1, 1), half_life=(10, 10), init_scale=(1, 1))
        res = trainer.random_search(small_data, field="complex", hidden=4, n_trials=1,
                                    seed=5, epochs=1, batch_size=30, space=space)
        path = tmp_path / "search.csv"
        trainer.write_search_csv(res, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[:4] == ["0", "1.0000000000000000e+00", "1.0000000000000000e+01",
                           "1.0000000000000000e+00"]


class TestWriteSearchOutputs:
    def test_files_and_best_trial(self, small_data, tmp_path):
        res = trainer.random_search(small_data, field="complex", hidden=4, n_trials=2,
                                    seed=5, epochs=2, batch_size=30)
        out = tmp_path / "nested" / "search"
        best = trainer.write_search_outputs(res, out)
        assert best is res[0]
        assert sorted(p.name for p in out.iterdir()) == [
            "best_model.cvnn", "search.csv", "trial_000.csv", "trial_001.csv"
        ]
        saved = nn.load_model(out / "best_model.cvnn")
        for name, arr in best.model.params().items():
            np.testing.assert_array_equal(saved.params()[name], arr)
        rows = (out / "search.csv").read_text().strip().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [r.trial_id for r in res]

    @staticmethod
    def diverged(trial_id, model):
        cfg = trainer.TrainConfig(lr0=1e6, half_life=10.0, init_scale=1.0, epochs=3)
        history = [trainer.EpochRecord(0, 1e6, 1.0, 2.0)] if model is not None else []
        return trainer.TrialResult(cfg, history, 2.0 if history else np.inf,
                                   len(history) - 1, "diverged", model, trial_id)

    def test_checkpoint_from_first_trial_that_kept_a_model(self, tmp_path):
        model = nn.init_model(256, 2, 256, field="complex", seed=1)
        res = [self.diverged(0, None), self.diverged(1, model)]
        best = trainer.write_search_outputs(res, tmp_path)
        assert best is res[1]
        assert (tmp_path / "best_model.cvnn").exists()

    def test_all_diverged_writes_no_checkpoint(self, tmp_path):
        res = [self.diverged(0, None), self.diverged(1, None)]
        assert trainer.write_search_outputs(res, tmp_path) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "search.csv", "trial_000.csv", "trial_001.csv"
        ]
        assert (tmp_path / "trial_000.csv").read_text().splitlines() == [
            "epoch,lr,train_mse,val_mse"
        ]

    def test_rerun_leaves_only_its_own_files(self, tmp_path):
        model = nn.init_model(256, 2, 256, field="complex", seed=1)
        trainer.write_search_outputs([self.diverged(i, model) for i in range(3)], tmp_path)
        assert trainer.write_search_outputs([self.diverged(0, None)], tmp_path) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["search.csv", "trial_000.csv"]


_ANALYTIC = dg.DatasetKind.INHARMONIC_ANALYTIC  # a real model splits its frames: 512 wide


def _checkpoint_bytes(field, tmp):
    tmp.mkdir()
    nn.save_model(nn.init_model(512, 2, 512, field, 0.5, seed=2), tmp / "m.cvnn")
    return (tmp / "m.cvnn").read_bytes()


def _model(field, tmp):
    act = {"real": nn.ActivationKind.REAL_TANH}.get(field, nn.ActivationKind.COMPLEX_TANH)
    params = {name: np.ones(shape) for name, shape in nn.param_shapes(4, 3, 4).items()}
    model = nn.RecurrentModel(field, act, **params)
    return type(model.field), model.field, [arr.tobytes() for arr in model.params().values()]


def _mse(field, tmp):
    pred = sample_circular_gaussian(make_rng(4), (3, 2), 1.0)
    return nn.mse_loss(pred, sample_circular_gaussian(make_rng(5), (3, 2), 1.0), field).value


def _views(field, tmp):
    samples = dg.generate_bundle(_ANALYTIC, 5, 2, 1, 1).train
    frames, target = dg.build_views(samples, _ANALYTIC, field)
    return [v.tobytes() for v in (*frames, target)]


def _baseline(field, tmp):
    data = dg.generate_bundle(_ANALYTIC, 5, 2, 2, 1)
    return trainer.zero_baseline_mse(data.val, data.kind, field)


def _search_bytes(field, tmp):
    data = dg.generate_bundle(_ANALYTIC, 5, 4, 2, 1)
    results = trainer.random_search(data, field, hidden=2, n_trials=2, seed=3, epochs=1,
                                    batch_size=2, jobs=2)
    trainer.write_search_outputs(results, tmp)
    return {p.name: p.read_bytes() for p in tmp.iterdir()}


# Each public entry point that takes a field, called as f(field, scratch directory).
_FIELD_ENTRY_POINTS = {
    "init_model": _checkpoint_bytes,
    "RecurrentModel": _model,
    "mse_loss": _mse,
    "model_dims": lambda field, tmp: dg.model_dims(_ANALYTIC, field),
    "build_views": _views,
    "zero_baseline_mse": _baseline,
    "random_search": _search_bytes,
}


@pytest.mark.parametrize("field", list(Field))
@pytest.mark.parametrize("entry", _FIELD_ENTRY_POINTS)
def test_field_given_as_its_string(entry, field, tmp_path):
    # Field(field) on entry, as DatasetKind(kind) is for a kind.
    call = _FIELD_ENTRY_POINTS[entry]
    assert call(field.value, tmp_path / "value") == call(field, tmp_path / "member")


def _no_pool(*args, **kwargs):
    raise AssertionError("random_search started a pool")


@pytest.mark.parametrize("entry", _FIELD_ENTRY_POINTS)
def test_unknown_field_is_refused_on_entry(entry, tmp_path, monkeypatch):
    # Before init_model draws a weight, and before random_search starts a pool.
    rngs = []
    monkeypatch.setattr(nn, "make_rng", lambda *args: rngs.append(args) or make_rng(*args))
    monkeypatch.setattr(trainer, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(ValueError, match="bogus"):
        _FIELD_ENTRY_POINTS[entry]("bogus", tmp_path / "out")
    assert rngs == []

"""The names the benchmark's tracer hooks into must exist in cvnet.

perfbench/tracing.py wraps cvnet functions by module attribute and reads
the op names of backward emissions; a rename on either side would only
show in a traced benchmark run. perfbench is not a package, so the
tracer is loaded by file path.
"""

import importlib.util
from pathlib import Path

from cvnet import autodiff as ad
from cvnet import cli, datagen, nn, trainer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OPS = {"matmul", "ctanh", "add", "mse"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_restores_and_sees_the_ops():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    targets = [(owner, attr) for owner, attr, _ in tracing._targets(tracer)]
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in targets}

    data = datagen.generate_bundle(datagen.DatasetKind.SAWTOOTH, 3, 4, 2, 2)
    frames, target = datagen.build_views(data.train, data.kind, "complex")
    model = nn.init_model(256, 4, 256, field="complex", init_scale=0.5, seed=3)
    with tracing.installed(tracer):
        assert all(owner.__dict__[attr] is not originals[owner, attr]
                   for owner, attr in targets)
        loss, _ = nn.forward_loss(model, frames, target)
        ad.backward(loss)

    for owner, attr in targets:
        assert owner.__dict__[attr] is originals[owner, attr], f"{attr} not restored"
    assert OPS <= {node.op for node in tracing._graph(loss)}
    names = {span[2] for span in tracer.spans}
    assert {"nn.forward_loss", "autodiff.backward"} <= names
    assert {f"autodiff.emit.{op}" for op in OPS} <= names


def test_train_spans_one_step_per_batch_and_one_validation_per_epoch():
    # tracing.py marks a step from nn.param_vars under trainer.train to
    # trainer.sgd_momentum_step, and layers.py reads nn.val_ms from the
    # nn.forward_loss spans directly under trainer.train. A training step
    # routed through forward_loss would break both.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    data = datagen.generate_bundle(datagen.DatasetKind.SAWTOOTH, 3, 4, 2, 2)
    model = nn.init_model(256, 4, 256, field="complex", init_scale=0.5, seed=3)
    config = trainer.TrainConfig(lr0=1e-3, half_life=10.0, init_scale=0.5, epochs=2,
                                 batch_size=2)
    with tracing.installed(tracer):
        result = trainer.train(model, data, config)
    assert result.status == "completed"

    (train,) = [s for s in tracer.spans if s[2] == "trainer.train"]
    steps = [s for s in tracer.spans if s[2] == "trainer.step"]
    assert len(steps) == 2 * 2 and all(s[1] == train[0] for s in steps)
    validations = [s for s in tracer.spans if s[2] == "nn.forward_loss"]
    assert [s[1] for s in validations] == [train[0]] * 2


def test_search_spans_its_trials_and_their_training():
    # tracing.py calls random_search with its positional signature and wraps
    # _run_trial(args); a change to either would only show in a traced run.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    data = datagen.generate_bundle(datagen.DatasetKind.SAWTOOTH, 3, 4, 2, 2)
    with tracing.installed(tracer):
        results = trainer.random_search(data, "complex", 4, 2, 7, 1, 2, jobs=1)
    assert len(results) == 2

    (search,) = [s for s in tracer.spans if s[2] == "trainer.random_search"]
    assert search[7]["trials"] == 2 and search[7]["jobs"] == 1
    trials = [s for s in tracer.spans if s[2] == "trainer.trial"]
    assert len(trials) == 2 and all(s[1] == search[0] for s in trials)
    trains = [s for s in tracer.spans if s[2] == "trainer.train"]
    assert sorted(s[1] for s in trains) == sorted(s[0] for s in trials)


def test_eval_through_the_cli_is_traced(tmp_path, capsys):
    # tracing.py wraps cli.cmd_eval, which the full-scale tail calls; a
    # change to eval's read path must not break a traced benchmark run.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    data = tmp_path / "data.cvds"
    datagen.write_dataset(datagen.generate_bundle(datagen.DatasetKind.SAWTOOTH, 3, 4, 2, 2), data)
    model = tmp_path / "m.cvnn"
    nn.save_model(nn.init_model(256, 4, 256, field="complex", init_scale=0.5, seed=3), model)
    with tracing.installed(tracer):
        rc = cli.main(["eval", "--model", str(model), "--data", str(data), "--partition", "test"])
    assert rc == 0 and capsys.readouterr().out.startswith("test_mse=")
    (span,) = [s for s in tracer.spans if s[2] == "cli.eval"]
    assert [s[1] for s in tracer.spans if s[2] == "nn.forward_loss"] == [span[0]]

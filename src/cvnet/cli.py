"""Command-line harness: generate data, train, search, evaluate, analyze.

Every command is deterministic: gen, train, search and gradcheck draw
from --seed, and eval and filters use no randomness. Outputs are binary
dataset/checkpoint files and CSVs meant for any plotting tool. Every
usage error, whether a bad flag or a setting the data rules out, is one
stderr line "cvnet <command>: error: ..." and exit code 2; so is a file
that cannot be read or written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import datagen, gradcheck, nn, spectral, trainer
from .complex_ops import Field, FormatError


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one line, like main()'s."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_type(lo: int, bits: int | None = None):
    """argparse type: an integer >= lo and, given bits, < 2**bits."""
    rule = f">= {lo}" + (f" and < 2**{bits}" if bits else "")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo or (bits and value >= 2**bits):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


SEED = _int_type(0, bits=64)  # seeds feed SeedSequence and the u64 dataset header
COUNT = _int_type(0)  # observations per partition
POSITIVE = _int_type(1)  # hidden width, epochs, batch size, trials, workers, filter rows


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=SEED, default=0, help="deterministic seed (default 0)")


def _add_training(p: argparse.ArgumentParser) -> None:
    """The flags that train and search share."""
    p.add_argument("--data", required=True)
    p.add_argument("--field", required=True, choices=[f.value for f in Field])
    p.add_argument("--hidden", type=POSITIVE, default=256)
    p.add_argument("--epochs", type=POSITIVE, default=1000)
    p.add_argument("--batch-size", type=POSITIVE, default=1000)
    p.add_argument("--out", required=True)
    _add_seed(p)


def cmd_gen(args) -> int:
    bundle = datagen.generate_bundle(
        args.kind,
        args.seed,
        n_train=args.train,
        n_val=args.val,
        n_test=args.test,
    )
    datagen.write_dataset(bundle, args.out)
    size = Path(args.out).stat().st_size
    print(f"wrote {args.kind} dataset ({args.train}/{args.val}/{args.test}) to {args.out} ({size} bytes)")
    return 0


def cmd_train(args) -> int:
    data = datagen.read_dataset(args.data)
    # The flags are validated before init_model draws weights with init_scale.
    config = trainer.TrainConfig(
        lr0=args.lr0,
        half_life=args.half_life,
        init_scale=args.init_scale,
        epochs=args.epochs,
        batch_size=args.batch_size,
    )
    d_in, d_out = datagen.model_dims(data.kind, args.field)
    model = nn.init_model(d_in, args.hidden, d_out, args.field, args.init_scale, args.seed)
    result = trainer.train(model, data, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trainer.write_curves_csv(result, out / "curves.csv")
    if result.model is not None:
        nn.save_model(result.model, out / "model.cvnn")
    else:  # an earlier run's checkpoint must not pass for this one's
        (out / "model.cvnn").unlink(missing_ok=True)
    print(f"status={result.status} epochs={len(result.history)} best_val={result.best_val:.6e}")
    return 0


def cmd_search(args) -> int:
    data = datagen.read_dataset(args.data)
    results = trainer.random_search(
        data,
        field=args.field,
        hidden=args.hidden,
        n_trials=args.trials,
        seed=args.seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        jobs=args.jobs,
    )
    out = Path(args.out)
    best = trainer.write_search_outputs(results, out)
    baseline = trainer.zero_baseline_mse(data.val, data.kind, args.field)
    if best is not None:
        print(f"best trial={best.trial_id} best_val={best.best_val:.6e} status={best.status} "
              f"baseline={baseline:.6e}")
    else:
        print(f"all trials diverged before completing an epoch; baseline={baseline:.6e}")
    n_div = sum(r.diverged for r in results)
    print(f"trials={len(results)} diverged={n_div} summary={out / 'search.csv'}")
    return 0


def cmd_eval(args) -> int:
    model = nn.load_model(args.model)
    kind, samples = datagen.read_partition(args.data, args.partition)
    mse = trainer.evaluate(model, samples, kind)
    print(f"{args.partition}_mse={mse:.16e}")
    return 0


def cmd_filters(args) -> int:
    model = nn.load_model(args.model)
    spectral.write_filters_csv(model, args.rows, args.out)
    print(f"wrote {args.rows} filter responses to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    entries = gradcheck.run_gradcheck(seed=args.seed)
    print(gradcheck.format_report(entries))
    return 0 if gradcheck.all_passed(entries) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvnet",
        description="complex-valued recurrent networks on synthetic wide-band frame prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset file")
    p.add_argument("--kind", required=True, choices=[k.value for k in datagen.DatasetKind])
    p.add_argument("--train", type=COUNT, default=10000)
    p.add_argument("--val", type=COUNT, default=1000)
    p.add_argument("--test", type=COUNT, default=1000)
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train one model")
    _add_training(p)
    p.add_argument("--lr0", type=float, required=True)
    p.add_argument("--half-life", type=float, required=True)
    p.add_argument("--init-scale", type=float, required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("search", help="seeded random hyperparameter search")
    _add_training(p)
    p.add_argument("--trials", type=POSITIVE, default=100)
    p.add_argument("--jobs", type=POSITIVE, default=1)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("eval", help="mean squared error of a checkpoint on a partition")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--partition", required=True, choices=datagen.PARTITIONS)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("filters", help="export filter magnitude responses as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--rows", type=POSITIVE, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_filters)

    p = sub.add_parser("gradcheck", help="check analytic derivatives against finite differences")
    _add_seed(p)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (trainer.ConfigError, FormatError, OSError) as exc:
        print(f"cvnet {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

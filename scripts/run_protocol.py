#!/usr/bin/env python3
"""The paper's experiment protocol, or its desk-scale cut, through the cvnet CLI.

For each dataset kind, `cvnet gen` writes OUT/<kind>/data.cvds. For each
field, `cvnet search` then writes OUT/<kind>/<field>/ (search.csv,
trial_NNN.csv, best_model.cvnn), `cvnet eval` scores the best model on the
test partition and `cvnet filters` writes OUT/<kind>/filters_<field>.csv.
A command's nonzero exit code ends the script with that code.

--protocol desk runs in minutes on one core. --protocol full is the
paper's: 8-second benchmark runs project 0.459 h per complex trial on
sawtooth on one core (BENCH_29.json; no 1000-epoch trial has run), and
each dataset file takes about 197 MB. The flags after --jobs override the
protocol's table entry, to carve out slices. All outputs are
deterministic in --seed; the search seed is the data seed + 1.

BLAS runs one thread per process: OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS default to 1, and a value the caller set wins. The
thread count changes output bits, so one fixed count keeps the outputs
the same for every --jobs and core count, and --jobs N runs N BLAS
threads, not N times the library's default. On a 2-core host a 4-trial
desk search at --jobs 2 took 8.6-9.4 s pinned against 55-70 s unpinned.
The cost is at --jobs 1, where BLAS could have used the idle core: a
2-trial desk search took 8.9-9.8 s pinned against 6.7-8.0 s unpinned.
"""

import os
import time
from pathlib import Path

# Before cvnet loads numpy, whose BLAS reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from cvnet import cli, datagen

KINDS = [k.value for k in datagen.DatasetKind]
FIELDS = ["complex", "real"]
PROTOCOLS = {
    "desk": dict(seed=42, kinds=["sawtooth"], train=500, val=200, test=200, hidden=32,
                 epochs=200, batch_size=250, trials=10),
    "full": dict(seed=1, kinds=KINDS, train=10000, val=1000, test=1000, hidden=256,
                 epochs=1000, batch_size=1000, trials=100),
}


def parse_args(argv=None):
    ap = cli._Parser(description=__doc__)
    ap.add_argument("--protocol", required=True, choices=PROTOCOLS)
    ap.add_argument("--out", type=Path, help="output directory (default <protocol>_scale_results)")
    ap.add_argument("--jobs", type=cli.POSITIVE, default=1)
    ap.add_argument("--seed", type=cli.SEED)
    ap.add_argument("--kinds", nargs="+", choices=KINDS)
    ap.add_argument("--fields", nargs="+", choices=FIELDS, default=FIELDS)
    for name in ("--train", "--val", "--test"):
        ap.add_argument(name, type=cli.COUNT)
    for name in ("--hidden", "--epochs", "--trials", "--batch-size"):
        ap.add_argument(name, type=cli.POSITIVE)
    args = ap.parse_args(argv)
    for key, value in PROTOCOLS[args.protocol].items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    args.out = args.out or Path(f"{args.protocol}_scale_results")
    # An output directory that cannot be made is a usage error, like a bad flag.
    for kind in args.kinds:
        try:
            (args.out / kind).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            ap.error(str(exc))
    return args


def _cli(*argv) -> None:
    """One cvnet command in process; a nonzero exit code ends the script with it."""
    if code := cli.main([str(a) for a in argv]):
        raise SystemExit(code)


def main(argv=None) -> int:
    args = parse_args(argv)
    for kind in args.kinds:
        out = args.out / kind
        data = out / "data.cvds"
        _cli("gen", "--kind", kind, "--train", args.train, "--val", args.val, "--test", args.test,
             "--seed", args.seed, "--out", data)
        for field in args.fields:
            t0 = time.time()
            _cli("search", "--data", data, "--field", field, "--trials", args.trials,
                 "--jobs", args.jobs, "--hidden", args.hidden, "--epochs", args.epochs,
                 "--batch-size", args.batch_size, "--seed", args.seed + 1, "--out", out / field)
            print(f"[{kind}/{field}] search took {time.time() - t0:.0f}s", flush=True)
            model = out / field / "best_model.cvnn"
            filters = out / f"filters_{field}.csv"
            if model.exists():
                _cli("eval", "--model", model, "--data", data, "--partition", "test")
                _cli("filters", "--model", model, "--rows", 3, "--out", filters)
            else:  # no earlier run's responses beside this run's search
                filters.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

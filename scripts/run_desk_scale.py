#!/usr/bin/env python3
"""Desk-scale experiment: data, searches, curve/filter exports in one go.

Generates a small sawtooth dataset, runs seeded random hyperparameter
searches for the complex- and real-valued recurrent models, and writes
everything a plotting tool needs: ranked search summaries (sorted
validation error), per-trial learning curves, and the magnitude frequency
responses of the best complex model's first input-to-hidden filters.

Runs in a few minutes on one core. All outputs are deterministic in
--seed; rerunning into a fresh directory reproduces identical bytes.
"""

import argparse
import time
from pathlib import Path

from cvnet import datagen, spectral, trainer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="desk_scale_results", help="output directory")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--kind", default="sawtooth",
                    choices=[k.value for k in datagen.DatasetKind])
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--train", type=int, default=500)
    ap.add_argument("--val", type=int, default=200)
    ap.add_argument("--test", type=int, default=200)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--batch-size", type=int, default=250)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    data = datagen.generate_bundle(
        args.kind, args.seed, n_train=args.train, n_val=args.val, n_test=args.test
    )
    datagen.write_dataset(data, out / "data.cvds")
    print(f"dataset: {args.kind} {args.train}/{args.val}/{args.test} ({time.time() - t0:.1f}s)")

    for field in ("complex", "real"):
        t0 = time.time()
        results = trainer.random_search(
            data, field=field, hidden=args.hidden, n_trials=args.trials,
            seed=args.seed + 1, epochs=args.epochs, batch_size=args.batch_size,
            jobs=args.jobs,
        )
        best = trainer.write_search_outputs(results, out / field)
        baseline = trainer.zero_baseline_mse(data.val, data.kind, field)
        if best is not None:
            test_mse = trainer.evaluate(best.model, data.test, data.kind)
            print(
                f"{field}: best val {best.best_val:.4f} "
                f"(zero-predictor {baseline:.4f}), test {test_mse:.4f}, "
                f"{sum(r.diverged for r in results)}/{len(results)} diverged "
                f"({time.time() - t0:.0f}s)"
            )
            if field == "complex":
                spectral.write_filters_csv(best.model, 3, out / "filters_complex.csv")
        else:
            print(f"{field}: every trial diverged")

    print(f"results in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

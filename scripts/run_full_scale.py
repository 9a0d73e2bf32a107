#!/usr/bin/env python3
"""Full-scale protocol: 10k observations, hidden 256, 1000 epochs, 100 trials.

The full-scale counterpart of run_desk_scale.py, for each of the four
dataset kinds and both model fields. A single trial at this scale takes on
the order of an hour on one core, so a full sweep is a multi-day CPU job;
use --kinds/--trials/--jobs to carve out slices.
"""

import argparse
import time
from pathlib import Path

from cvnet import datagen, trainer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="full_scale_results")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--kinds", nargs="+",
                    default=[k.value for k in datagen.DatasetKind],
                    choices=[k.value for k in datagen.DatasetKind])
    ap.add_argument("--fields", nargs="+", default=["complex", "real"],
                    choices=["complex", "real"])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for kind in args.kinds:
        t0 = time.time()
        data = datagen.generate_bundle(kind, args.seed)
        print(f"[{kind}] generated 10000/1000/1000 ({time.time() - t0:.0f}s)", flush=True)
        for field in args.fields:
            t0 = time.time()
            results = trainer.random_search(
                data, field=field, hidden=256, n_trials=args.trials,
                seed=args.seed + 1, epochs=1000, batch_size=1000, jobs=args.jobs,
            )
            best = trainer.write_search_outputs(results, out / kind / field)
            if best is None:
                print(f"[{kind}/{field}] every trial diverged", flush=True)
                continue
            test_mse = trainer.evaluate(best.model, data.test, data.kind)
            print(
                f"[{kind}/{field}] best val {best.best_val:.4f}, test {test_mse:.4f}, "
                f"{sum(r.diverged for r in results)}/{len(results)} diverged "
                f"({(time.time() - t0) / 3600:.1f}h)",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Grid-vs-baseline comparison on the planted synthetic corpus.

Trains the grid-conditioned variant and the no-grid baseline identically
over several seeds, then reports held-out loss and accuracy on the tokens
the grid determines. Mirrors the direction of the reference-metric table:
the coherence representation should win every seed. Beside the wall time
it reports the run's minor page faults and system CPU seconds (getrusage
deltas of this process) and the process's peak resident set size in MB
(``ru_maxrss``, which Linux gives in KiB). Exits 0 only when the run passes the acceptance
gate: the grid wins every seed, with accuracy at least 0.90 on each.
"""

import argparse
import json
import resource
import time

from vwpstory.training import run_grid_comparison

MIN_GRID_ACCURACY = 0.90


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sequences", type=int, default=560)
    parser.add_argument("--val-count", type=int, default=60)
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--epochs", type=int, default=14)
    parser.add_argument("--lr", type=float, default=2e-3)
    parser.add_argument("--d-model", type=int, default=64)
    parser.add_argument("--n-layers", type=int, default=1)
    parser.add_argument("--n-heads", type=int, default=4)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    seeds = tuple(int(s) for s in args.seeds.split(","))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    result = run_grid_comparison(
        n_sequences=args.sequences, val_count=args.val_count, seeds=seeds,
        epochs=args.epochs, lr=args.lr, d_model=args.d_model,
        n_layers=args.n_layers, n_heads=args.n_heads)
    elapsed = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    minor_faults = after.ru_minflt - usage.ru_minflt
    system_seconds = after.ru_stime - usage.ru_stime
    peak_rss_mb = after.ru_maxrss / 1024.0
    if args.json:
        payload = result.to_dict()
        payload.update(elapsed_seconds=elapsed, minor_faults=minor_faults,
                       system_seconds=system_seconds, peak_rss_mb=peak_rss_mb)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{'seed':>4}  {'grid loss':>10}  {'baseline loss':>14}  {'grid accuracy':>14}")
        for row in result.per_seed:
            print(f"{row['seed']:>4}  {row['grid_loss']:>10.4f}  "
                  f"{row['baseline_loss']:>14.4f}  {row['grid_accuracy']:>14.3f}")
        print(f"grid wins {result.grid_wins}/{len(result.per_seed)} seeds; "
              f"min accuracy {result.min_grid_accuracy:.3f}; {elapsed:.0f}s; "
              f"{minor_faults} minor faults; {system_seconds:.2f}s system; "
              f"{peak_rss_mb:.1f} MB peak RSS")
    passed = (result.grid_wins == len(result.per_seed)
              and result.min_grid_accuracy >= MIN_GRID_ACCURACY)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

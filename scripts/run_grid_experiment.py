"""Grid-vs-baseline comparison on the planted synthetic corpus.

Trains the grid-conditioned variant and the no-grid baseline identically
over several seeds, then reports each one's held-out loss and accuracy on
the tokens the grid determines. Mirrors the direction of the
reference-metric table: the coherence representation should win every
seed. Beside the wall time it reports the run's minor page faults and
system CPU seconds (getrusage deltas of this process) and the process's
peak resident set size in MB (``ru_maxrss``, which Linux gives in KiB).
Exits 0 only when the run passes the acceptance gate: the grid wins every
seed, with accuracy at least 0.90 on each.
"""

import argparse
import resource
import sys
import time
from dataclasses import asdict

from vwpstory.cli import Parser, parse_seeds, report_error
from vwpstory.corpus import json_text
from vwpstory.errors import VwpError
from vwpstory.training import run_grid_comparison

MIN_GRID_ACCURACY = 0.90


def main() -> int:
    # a flag left out is left out of the call too: the defaults are
    # run_grid_comparison's own
    parser = Parser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--sequences", dest="n_sequences", type=int)
    parser.add_argument("--val-count", type=int)
    parser.add_argument("--seeds", type=parse_seeds)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--json", action="store_true")
    try:
        options = vars(parser.parse_args())
        as_json = options.pop("json", False)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        result = run_grid_comparison(**options)
    except VwpError as exc:  # reported with vwp's message and exit code
        return report_error(exc)
    elapsed = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    minor_faults = after.ru_minflt - usage.ru_minflt
    system_seconds = after.ru_stime - usage.ru_stime
    peak_rss_mb = after.ru_maxrss / 1024.0
    if as_json:
        payload = asdict(result)
        payload.update(elapsed_seconds=elapsed, minor_faults=minor_faults,
                       system_seconds=system_seconds, peak_rss_mb=peak_rss_mb)
        sys.stdout.write(json_text(payload))
    else:
        print(f"{'seed':>4}  {'grid loss':>10}  {'baseline loss':>14}  {'grid accuracy':>14}  "
              f"{'baseline accuracy':>18}")
        for row in result.per_seed:
            print(f"{row['seed']:>4}  {row['grid_loss']:>10.4f}  "
                  f"{row['baseline_loss']:>14.4f}  {row['grid_accuracy']:>14.3f}  "
                  f"{row['baseline_accuracy']:>18.3f}")
        print(f"grid wins {result.grid_wins}/{len(result.per_seed)} seeds; "
              f"min grid accuracy {result.min_grid_accuracy:.3f}; {elapsed:.0f}s; "
              f"{minor_faults} minor faults; {system_seconds:.2f}s system; "
              f"{peak_rss_mb:.1f} MB peak RSS")
    passed = (result.grid_wins == len(result.per_seed)
              and result.min_grid_accuracy >= MIN_GRID_ACCURACY)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark for vwpstory: one workload per user step (fit, generate, evaluate).

    python3 perfbench/run.py --workload fit --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Run from the root of a checkout. The program is imported from ``src/`` in
process. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer metrics from a separately traced run. The last
line of standard output is the result object; the line before it gives the
machine, the sample counts and each workload's own metric names. ``--out``
appends both to a JSON-lines file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from pace import Pace, Stopwatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNTRACED_SHARE = 1 / 3   # of a traced run, spent on untraced ops for the overhead


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("fit", "generate", "evaluate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record to a JSON-lines file")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS",
                        help="one or two JSON-lines files written with --out")
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload is required unless --compare is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


# --- machine ------------------------------------------------------------------------

def _commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vwpstory").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_info(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# --- measuring ------------------------------------------------------------------------

def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Run:
    """Operations of one workload, each on a fresh set-up, until a deadline."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.results = []
        self.setups: list[Stopwatch] = []
        self.op_wall: list[float] = []
        self.attempted = 0
        self.failed = 0

    def ops_until(self, deadline: float, at_least: int, tracer=None) -> None:
        """Set up and run operations until ``deadline``; one is started only
        while at least half of the previous one still fits."""
        done, last = 0, 0.0
        while done < at_least or perf_counter() + last / 2 < deadline:
            index = len(self.results)
            directory = self.workdir / f"op{index}"
            directory.mkdir()
            began = perf_counter()
            try:
                with Stopwatch() as watch, \
                        tracer.setting_up(index) if tracer else nullcontext():
                    ctx = self.workload.setup(self.seed, directory)
                self.setups.append(watch)
                with Stopwatch() as watch, \
                        tracer.operation(index) if tracer else nullcontext():
                    result = self.workload.op(ctx, index)
                self.op_wall.append(watch.seconds)
            except Exception:
                self.attempted += 1
                self.failed += 1
                raise
            finally:
                ctx = None  # the next set-up must not overlap this one in memory
                shutil.rmtree(directory, ignore_errors=True)
            self.attempted += result.attempted
            self.results.append(result)
            done += 1
            last = perf_counter() - began


def _spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "best": min(values),
            "quartiles": quartiles(values), "samples": values}


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Medians over the run's samples, in nominal seconds (see pace.py); the
    detail adds the best sample, the quartiles, every sample, and the same
    in clock seconds."""
    rates = [r.items / (r.watch.seconds * r.watch.pace) for r in run.results]
    latencies_ms = [1000.0 * s * r.latency_watch.pace for r in run.results for s in r.latency_s]
    setups = [w.seconds * w.pace for w in run.setups]
    workload = run.workload
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_nominal_s": statistics.median(rates),
        "latency_nominal_ms": statistics.median(latencies_ms),
    }
    rate = _spread(rates)
    rate["best"] = max(rates)
    detail = {
        workload.rate_name: rate,
        workload.latency_name: _spread(latencies_ms),
        "setup_s": _spread(setups),
        "pace": {"setup": [w.pace for w in run.setups],
                 "rate": [r.watch.pace for r in run.results],
                 "latency": [r.latency_watch.pace for r in run.results]},
        "clock": {
            workload.rate_name: statistics.median(r.items / r.watch.seconds
                                                  for r in run.results),
            workload.latency_name: statistics.median(
                1000.0 * s for r in run.results for s in r.latency_s),
            "setup_s": statistics.median(w.seconds for w in run.setups),
        },
        "items": sum(r.items for r in run.results),
        "item_seconds": sum(r.watch.seconds for r in run.results),
    }
    return values, detail


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    with Pace().sampling():
        run.ops_until(perf_counter() + seconds, run.workload.min_ops)
    run.workload.check(run.results)
    return end_to_end(run)


def measure_traced(run: Run, seconds: float, modules: dict) -> tuple[dict, dict]:
    from tracing import Tracer

    tracer = Tracer()
    workload = run.workload
    start = perf_counter()
    run.ops_until(start + seconds * UNTRACED_SHARE, 1)
    untraced = len(run.op_wall)
    with tracer.installed(modules):
        run.ops_until(max(perf_counter(), start + seconds),
                      max(1, workload.min_ops - untraced), tracer)
    workload.check(run.results)
    plain = statistics.median(run.op_wall[:untraced])
    traced = statistics.median(run.op_wall[untraced:])
    n_traced = len(run.op_wall) - untraced
    values = tracer.layer_metrics(n_traced, sum(run.op_wall[untraced:]))
    values["trace.overhead_s"] = traced - plain
    values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    values["trace.spans_per_op"] = tracer.n_spans / n_traced
    span_file = run.workdir.parent / f"spans-{workload.name}.jsonl.gz"
    tracer.dump(span_file)
    detail = {"untraced_ops": untraced, "traced_ops": n_traced,
              "untraced_op_s": plain, "traced_op_s": traced,
              "spans": tracer.n_spans, "span_file": str(span_file.relative_to(ROOT))}
    return values, detail


def run_workload(args) -> int:
    if not (SRC / "vwpstory" / "__init__.py").is_file():
        print(f"perfbench: no vwpstory sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for name in BLAS_ENV:  # before numpy is imported anywhere
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import vwpstory
    if Path(vwpstory.__file__).resolve().parent != (SRC / "vwpstory").resolve():
        print(f"perfbench: imported vwpstory from {vwpstory.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from vwpstory import analytics, corpus, decoding, metrics, model, numerics, training

    declared = declared_metrics()
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    modules = {"analytics": analytics, "corpus": corpus, "decoding": decoding,
               "metrics": metrics, "model": model, "numerics": numerics,
               "training": training}
    run = Run(workload, args.seed, workdir)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(args.seed)}
    try:
        if args.trace:
            values, detail = measure_traced(run, args.seconds, modules)
        else:
            values, detail = measure(run, args.seconds)
        if set(values) != set(wanted):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(wanted))} "
                               "differ from BENCHMARK.json")
        correct = True
    except workloads.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct, values, detail = False, {}, {"check_failed": str(exc)}
    except Exception:
        traceback.print_exc()
        correct, values, detail = False, {}, {"error": traceback.format_exc(limit=3)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["detail"] = detail
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": wanted[name]["unit"]}
                    for name in sorted(values)},
    }
    record["result"] = result
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "machine", "detail")},
                     sort_keys=True))
    print(json.dumps(result))
    return 0 if correct and result["failed"] == 0 else 1


# --- compare -------------------------------------------------------------------------

def load_results(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0 and record["result"]["correct"]:
                    by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _summary(records: list[dict], metric: str) -> tuple[float, list[float]] | None:
    values = [r["result"]["metrics"][metric]["value"] for r in records
              if metric in r["result"]["metrics"]]
    if not values:
        return None
    return statistics.median(values), quartiles(values)


def compare(paths: list[str]) -> int:
    """One row per workload: median [q1, q3] of each end-to-end metric for
    each file, the spread (q3 - q1) / median, and with two files the change
    of the median."""
    if len(paths) > 2:
        print("--compare takes one or two files", file=sys.stderr)
        return 2
    declared = declared_metrics()["end_to_end"]
    sides = [load_results(p) for p in paths]
    names = list(declared)
    header = ["workload", "runs"] + [f"{n} ({declared[n]['unit']}, {declared[n]['better']})"
                                     for n in names]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for workload in sorted(set().union(*sides)):
        cells = [workload, " / ".join(str(len(side.get(workload, []))) for side in sides)]
        for name in names:
            parts, medians = [], []
            for side in sides:
                summary = _summary(side.get(workload, []), name)
                if summary is None:
                    parts.append("-")
                    continue
                median, (q1, _, q3) = summary
                medians.append(median)
                parts.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] ±{(q3 - q1) / median:.1%}")
            cell = " → ".join(parts)
            if len(medians) == 2:
                cell += f" ({medians[1] / medians[0] - 1:+.1%})"
            cells.append(cell)
        print("| " + " | ".join(cells) + " |")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(args.compare)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

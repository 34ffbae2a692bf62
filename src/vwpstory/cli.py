"""Command line entry point: prepare, grid, train, generate, evaluate,
analyze, plan.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error. A
config file of key=value lines can pre-set any flag; explicit flags win.
VWP_LOG={error,info,debug} controls stderr logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import analytics, chargrid, metrics as metrics_mod
from .corpus import (
    Vocabulary,
    json_text,
    load_dataset,
    load_gender_table,
    prepare_records,
    read_csv,
    read_json,
    read_jsonl,
    save_dataset,
    text_field,
    token_list,
    write_jsonl,
)
from .decoding import DecodingConfig, GeneratedStory, generate_batch, name_pools, realize
from .errors import DataError, NumericError, UsageError, VwpError
from .metrics import EvalPair, aggregate_runs, compute_metrics, load_eval_pairs
from .model import GRID_MODES, ModelConfig, load_checkpoint
from .training import TrainConfig, fit, metric_tokens, references

log = logging.getLogger("vwpstory.cli")


class Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("VWP_LOG", "error").lower())
    if level is None:
        raise UsageError(f"VWP_LOG must be error, info, or debug, got {os.environ['VWP_LOG']!r}")
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def parse_seed(text: str) -> int:
    """A seed flag's value: a non-negative integer, as numpy's seeding takes."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def parse_seeds(text: str) -> tuple[int, ...]:
    """Comma-separated seeds, each as ``parse_seed`` takes it."""
    return tuple(parse_seed(part) for part in text.split(",") if part != "")


def _csv_strs(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> tuple[Parser, dict[str, argparse.ArgumentParser]]:
    # no abbreviated --config: run finds the file by the flag's full name
    parser = Parser(prog="vwp", description=__doc__, allow_abbrev=False)
    parser.add_argument("--config", help="key=value file of flag defaults")
    sub = parser.add_subparsers(dest="command")
    commands: dict[str, argparse.ArgumentParser] = {}

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        commands[name] = sub.add_parser(name, **kwargs)
        return commands[name]

    p = add_parser("prepare", help="ingest, anonymize, tokenize, split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gender-table")
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--val-count", type=int, default=0)
    p.add_argument("--test-count", type=int, default=0)
    p.add_argument("--min-freq", type=int, default=1)

    p = add_parser("grid", help="emit the similarity grid for a sequence")
    p.add_argument("--dataset", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--grid-mode", choices=tuple(chargrid.GRID_COLUMNS), default="char")
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.add_argument("--out")

    # train and generate read their defaults from the configs they fill;
    # --grid-mode, --features and generate's --p differ from them on purpose
    defaults = TrainConfig()
    p = add_parser("train", help="fit models over seeds on a prepared dataset")
    p.add_argument("--dataset", required=True, help="directory written by prepare")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=parse_seeds, default=defaults.seeds)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--grid-mode", choices=GRID_MODES, default="char")
    p.add_argument("--features", type=_csv_strs, default=("global", "char"))
    p.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    p.add_argument("--n-layers", type=int, default=ModelConfig.n_layers)
    p.add_argument("--n-heads", type=int, default=ModelConfig.n_heads)
    p.add_argument("--d-ff", type=int, default=ModelConfig.d_ff)
    p.add_argument("--t-max", type=int, default=ModelConfig.t_max)
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    p.add_argument("--max-new", type=int, default=defaults.val_decoding.max_new_tokens)
    p.add_argument("--p", type=float, default=defaults.val_decoding.p,
                   help="validation nucleus mass")

    p = add_parser("generate", help="decode stories with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--decoding", choices=("greedy", "nucleus"), default=DecodingConfig.mode)
    p.add_argument("--p", type=float, default=0.9)
    p.add_argument("--seed", type=parse_seed, default=DecodingConfig.seed)
    p.add_argument("--max-new", type=int, default=DecodingConfig.max_new_tokens)
    p.add_argument("--names", help="JSON name pools; adds realized text")

    p = add_parser("evaluate", help="reference metrics or multi-seed bands")
    p.add_argument("--pairs", help="JSON lines of {id, hypothesis, references}")
    p.add_argument("--hyp", help="generated stories (JSON lines)")
    p.add_argument("--dataset", help="records supplying references for --hyp")
    p.add_argument("--scores", help="per-seed scores JSON for band aggregation")
    p.add_argument("--reference", help="reference system name for --scores")
    p.add_argument("--metrics", type=_csv_strs, default=tuple(metrics_mod.METRIC_NAMES))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")

    p = add_parser("analyze", help="corpus analytics")
    p.add_argument("what", choices=("coherence", "jaccard", "diversity",
                                    "groundedness", "stats"))
    p.add_argument("--annotations", required=True)
    p.add_argument("--history", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")

    p = add_parser("plan", help="review sampling and worker qualification")
    p.add_argument("--workers", required=True,
                   help="CSV: worker_id,acceptance_rate,avg_quality,accepted,n_w")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    return parser, commands


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_prepare(args) -> int:
    records = load_dataset(args.dataset)
    gender_table = load_gender_table(args.gender_table) if args.gender_table else None
    prepared = prepare_records(records, gender_table, seed=args.seed,
                               val_count=args.val_count, test_count=args.test_count,
                               min_freq=args.min_freq)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split, recs in prepared.splits.items():
        save_dataset(recs, out / f"{split}.jsonl")
    (out / "vocab.json").write_text(json_text(prepared.vocab.to_dict()), encoding="utf-8")
    (out / "names.json").write_text(json_text(prepared.name_pools), encoding="utf-8")
    summary = {split: len(recs) for split, recs in prepared.splits.items()}
    summary["vocab_size"] = len(prepared.vocab)
    _emit(json_text(summary), None)
    return 0


def cmd_grid(args) -> int:
    records = load_dataset(args.dataset)
    matches = [r for r in records if r.id == args.sequence]
    if not matches:
        raise DataError(f"sequence {args.sequence!r} not found in {args.dataset}")
    grid = chargrid.grid_for_mode(matches[0], args.grid_mode)
    text = chargrid.grid_csv(grid) if args.format == "csv" else chargrid.grid_heat_table(grid)
    _emit(text, args.out)
    return 0


def _load_prepared(directory: str):
    base = Path(directory)
    vocab_file = base / "vocab.json"
    if not vocab_file.exists():
        raise DataError(f"{directory}: not a prepared dataset (missing vocab.json)")
    vocab = read_json(vocab_file, Vocabulary.from_dict, "vocabulary")
    splits = {}
    for split in ("train", "val", "test"):
        path = base / f"{split}.jsonl"
        splits[split] = load_dataset(path) if path.exists() and path.stat().st_size else []
        for rec in splits[split]:
            for story in rec.stories:
                if story.tokens and max(story.tokens) >= len(vocab):
                    raise DataError(f"{path}: sequence {rec.id}: token id {max(story.tokens)} "
                                    f"outside the {len(vocab)}-token vocabulary")
    return vocab, splits


def cmd_train(args) -> int:
    vocab, splits = _load_prepared(args.dataset)
    if not splits["train"]:
        raise DataError(f"{args.dataset}: empty train split")
    feat_dim = splits["train"][0].feat_dim
    model_cfg = ModelConfig(
        vocab_size=len(vocab), feat_dim=feat_dim, d_model=args.d_model,
        n_layers=args.n_layers, n_heads=args.n_heads, d_ff=args.d_ff,
        t_max=args.t_max, feature_set=args.features, grid_mode=args.grid_mode,
        dropout=args.dropout)
    defaults = TrainConfig()
    train_cfg = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        seeds=args.seeds, checkpoint_dir=Path(args.out) / "checkpoints",
        val_decoding=replace(defaults.val_decoding, p=args.p, max_new_tokens=args.max_new),
        test_decoding=replace(defaults.test_decoding, max_new_tokens=args.max_new))
    result = fit(train_cfg, splits, model_cfg, vocab)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = result.to_dict()
    (out / "runlog.json").write_text(json_text(payload), encoding="utf-8")
    _emit(json_text(payload["aggregate"]), None)
    return 0


def cmd_generate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    vocab = read_json(args.vocab, Vocabulary.from_dict, "vocabulary")
    if len(vocab) != model.config.vocab_size:
        raise DataError(f"vocab size {len(vocab)} does not match checkpoint "
                        f"({model.config.vocab_size})")
    records = load_dataset(args.dataset)
    config = DecodingConfig(mode=args.decoding, p=args.p,
                            max_new_tokens=args.max_new, seed=args.seed)
    pools = None
    if args.names:
        pools = read_json(args.names, name_pools, "name pools")
    stories = generate_batch(model, records, vocab, config)
    if pools:
        realize_rng = np.random.default_rng(args.seed)
        for story in stories:
            story.text = realize(story.tokens, pools, realize_rng)
    write_jsonl(args.out, stories, GeneratedStory.to_dict)
    log.info("wrote %d stories to %s", len(stories), args.out)
    return 0


def _pairs_from_hyp(hyp_path: str, dataset_path: str) -> list[EvalPair]:
    records = {rec.id: rec for rec in load_dataset(dataset_path)}

    def pair(payload: dict) -> EvalPair:
        seq_id = text_field(payload.get("sequence_id"), "sequence_id")
        tokens = token_list(payload["tokens"], "tokens")
        rec = records.get(seq_id)
        if rec is None:
            raise DataError(f"unknown sequence {seq_id!r}")
        refs = references(rec)
        if not refs:
            raise DataError(f"sequence {seq_id!r} has no references")
        return EvalPair(hypothesis=metric_tokens(tokens), references=refs)
    return read_jsonl(hyp_path, pair, "hypothesis line")


def cmd_evaluate(args) -> int:
    if args.scores:
        if not args.reference:
            raise UsageError("--scores needs --reference")
        report = read_json(args.scores, lambda scores: aggregate_runs(scores, args.reference),
                           "scores")
        text = json_text(asdict(report)) if args.format == "json" \
            else metrics_mod.report_text(report)
        _emit(text, args.out)
        return 0
    if args.pairs:
        pairs = load_eval_pairs(args.pairs)
    elif args.hyp and args.dataset:
        pairs = _pairs_from_hyp(args.hyp, args.dataset)
    else:
        raise UsageError("evaluate needs --pairs, or --hyp with --dataset, or --scores")
    names = list(args.metrics)
    values = compute_metrics(pairs, names)
    if "CIDEr" in names and "CIDEr" not in values:
        print(f"note: CIDEr left out: its IDF needs at least 2 pairs, got {len(pairs)}",
              file=sys.stderr)
    if args.format == "json":
        scaled = {name: values[name] * metrics_mod.REPORT_SCALE.get(name, 1.0)
                  for name in values}
        _emit(json_text(scaled), args.out)
    else:
        _emit(metrics_mod.scores_text(values), args.out)
    return 0


def cmd_analyze(args) -> int:
    stories = analytics.load_annotated(args.annotations)
    if args.what == "coherence":
        grids = [s.entity_grid for s in stories if s.entity_grid is not None]
        if not grids:
            raise DataError(f"{args.annotations}: no entity grids to score")
        model = analytics.train_entity_grid(grids, history=args.history, alpha=args.alpha)
        scores = [analytics.score_coherence(model, g) for g in grids]
        total_ll = sum(s.ll for s in scores)
        cells = sum(s.cells for s in scores)
        payload = {
            "stories": len(grids),
            "history": args.history,
            "alpha": args.alpha,
            "ll": total_ll,
            "avg_ll": total_ll / cells if cells else 0.0,
            "mean_story_ll": total_ll / len(grids),
        }
    elif args.what == "jaccard":
        payload = asdict(analytics.jaccard_similarity(analytics.group_by_sequence(stories)))
    elif args.what == "diversity":
        event = analytics.event_diversity([s.srl for s in stories],
                                          [s.tokens for s in stories])
        ngram = analytics.predicate_ngram_diversity([s.srl for s in stories])
        payload = {
            "vocab_size": event.vocab_size,
            "unique_verbs": event.unique_verbs,
            "verb_vocab_pct": 100.0 * event.verb_vocab_ratio,
            "verb_token_pct": 100.0 * event.verb_token_ratio,
            "diverse_verb_pct": 100.0 * event.diverse_verb_ratio,
            "predicate_ngram_unique_total": {str(n): r for n, r in ngram.items()},
        }
    elif args.what == "groundedness":
        annotations = [g for s in stories for g in s.groundedness]
        payload = analytics.groundedness_table(annotations)
    else:
        payload = analytics.corpus_stats(stories)
    if args.format == "json":
        _emit(json_text(payload), args.out)
    else:
        _emit(_flatten_report(payload), args.out)
    return 0


def _flatten_report(payload: dict, indent: int = 0) -> str:
    lines = []
    for key, value in sorted(payload.items()):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_flatten_report(value, indent + 1).rstrip("\n"))
        elif isinstance(value, float):
            lines.append(f"{pad}{key}: {value:.6g}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines) + "\n"


def cmd_plan(args) -> int:
    def row(fields: list[str]) -> dict:
        stats = analytics.WorkerStats(
            worker_id=fields[0], acceptance_rate=float(fields[1]),
            avg_quality=float(fields[2]), accepted=int(fields[3]), n_w=int(fields[4]))
        return {"worker_id": stats.worker_id,
                "qualified": analytics.qualify(stats),
                "review_sample": analytics.plan_review_sample(stats)}
    rows = read_csv(args.workers, "worker_id,acceptance_rate,avg_quality,accepted,n_w",
                    row, "worker row")
    if args.format == "json":
        _emit(json_text(rows), args.out)
    else:
        out = ["worker_id  qualified  review_sample"]
        out += [f"{r['worker_id']:>9}  {str(r['qualified']):>9}  {r['review_sample']:>13}"
                for r in rows]
        _emit("\n".join(out) + "\n", args.out)
    return 0


COMMANDS = {
    "prepare": cmd_prepare,
    "grid": cmd_grid,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
    "plan": cmd_plan,
}


def run(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # config file defaults: find --config in either form the parser takes,
    # coerce each value through its flag's type, then let explicit flags win
    finder = Parser(add_help=False, allow_abbrev=False)
    finder.add_argument("--config")
    config = finder.parse_known_args(argv)[0].config
    raw_defaults = {} if config is None else _read_config_file(config)
    unknown = set(raw_defaults).difference(
        action.dest for command in commands.values() for action in command._actions)
    if unknown:
        raise UsageError(f"{config}: no command has a flag named "
                         f"{', '.join(map(repr, sorted(unknown)))}")
    for command in commands.values():
        coerced = {}
        for action in command._actions:
            if action.dest in raw_defaults:
                value = raw_defaults[action.dest]
                try:
                    value = action.type(value) if action.type else value
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise UsageError(f"{config}: bad {action.dest} {value!r} ({exc})") from exc
                coerced[action.dest] = value
                action.required = False  # the config file satisfied it
        command.set_defaults(**coerced)
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        raise UsageError("a subcommand is required")
    # argparse checks the choices of a command-line value only, and every
    # default is one of its choices: a value outside them is the config file's
    for action in commands[args.command]._actions:
        value = getattr(args, action.dest, None)
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{config}: bad {action.dest} {value!r} "
                             f"(choose from {', '.join(map(repr, action.choices))})")
    return COMMANDS[args.command](args)


# each error kind's stderr label and exit code; the first match wins, and
# any remaining package error counts as usage
ERROR_EXITS = ((UsageError, "usage error", 1), ((DataError, OSError), "data error", 2),
               (NumericError, "numeric error", 3), (VwpError, "error", 1))


def report_error(exc: VwpError | OSError) -> int:
    """Print ``exc`` to stderr as vwp does and return its exit code."""
    for kinds, label, code in ERROR_EXITS:
        if isinstance(exc, kinds):
            print(f"{label}: {exc}", file=sys.stderr)
            return code
    raise exc


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        return run(argv)
    except (VwpError, OSError) as exc:
        return report_error(exc)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

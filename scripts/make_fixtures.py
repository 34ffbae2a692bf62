"""Emit the bundled fixture dataset plus side files for the CLI pipeline.

Writes dataset.jsonl, annotations.jsonl, gender_table.csv, names.json, and
workers.csv into the output directory.
"""

from pathlib import Path

from vwpstory.cli import Parser, parse_seed, report_error
from vwpstory.corpus import json_text, save_dataset
from vwpstory.errors import VwpError
from vwpstory.synth import (
    FILLER_NAMES,
    FILLER_PLACES,
    fixture_annotations,
    fixture_dataset,
    write_annotations,
    write_gender_table,
)


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--out", default="fixtures")
    parser.add_argument("--sequences", type=int, default=24)
    parser.add_argument("--seed", type=parse_seed, default=7)
    try:
        args = parser.parse_args()
        if args.sequences < 1:
            parser.error(f"argument --sequences: expected a positive integer, "
                         f"got {args.sequences}")
    except VwpError as exc:  # reported with vwp's message and exit code
        return report_error(exc)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = fixture_dataset(args.sequences, seed=args.seed)
    save_dataset(records, out / "dataset.jsonl")
    write_annotations(fixture_annotations(records, seed=args.seed), out / "annotations.jsonl")
    write_gender_table(out / "gender_table.csv")
    (out / "names.json").write_text(json_text(
        {"male": FILLER_NAMES["male"], "female": FILLER_NAMES["female"],
         "location": FILLER_PLACES}), encoding="utf-8")
    (out / "workers.csv").write_text(
        "worker_id,acceptance_rate,avg_quality,accepted,n_w\n"
        "w1,0.95,3.5,6,5\n"
        "w2,0.90,3.1,5,10\n"
        "w3,0.89,5.0,100,1000\n"
        "w4,0.97,4.2,40,120\n", encoding="utf-8")
    print(f"wrote fixture files under {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line entry point.

Subcommands mirror the pipeline stages: `weigh` ranks attributes, `ablate`
runs the with/without-feature experiment, `groups` produces per-stratum
rankings and winning classifiers, `synth` writes a synthetic cohort, and
`report` re-renders an emitted CSV as Markdown. One global seed drives the
folds, SMOTE and the classifiers through derived sub-seeds; the attribute
weights do not depend on it, and no stage reads the clock. Exit codes: 0
success, 1 configuration problem, 2 data ingestion problem, 3 computation
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import classifiers, synth
from .classifiers import CLASSIFIERS, default_specs, model_to_json
from .dataio import load_csv, load_schema_json, schema_to_json, stratified_folds
from .evaluation import METRIC_NAMES, ablation, best_classifier_per_group, per_group_rankings
from .reporting import (
    delta_rows,
    eval_report_rows,
    group_ranking_rows,
    group_winner_rows,
    read_csv_rows,
    rows_to_markdown,
    table_to_csv_text,
    weight_matrix_rows,
    write_rows,
)
from .seeding import derive_seed
from .smote import SmoteConfig
from .weighting import weigh_all

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_COMPUTE = 3


class ConfigError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_io_flags(p):
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--schema", required=True, help="schema JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="global seed (default 0)")


def _add_eval_flags(p):
    p.add_argument("--folds", type=int, default=10, help="cross-validation folds (default 10)")
    p.add_argument("--smote-k", type=int, default=5, help="SMOTE neighbor count (default 5)")
    p.add_argument(
        "--smote-ratio",
        type=float,
        default=1.0,
        help="target minority/majority ratio; 0 disables SMOTE (default 1.0)",
    )
    p.add_argument(
        "--classifiers",
        default="all",
        help="comma-separated classifier kinds or 'all'",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="featrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    weigh = sub.add_parser("weigh", help="rank attributes under six weighting algorithms")
    _add_io_flags(weigh)
    weigh.add_argument("--bins", type=int, default=10, help="bins for numeric attributes")
    weigh.add_argument("--relief-k", type=int, default=10, help="Relief neighbor count")

    ablate = sub.add_parser("ablate", help="with/without-feature paired evaluation")
    _add_io_flags(ablate)
    _add_eval_flags(ablate)
    ablate.add_argument("--feature", required=True, help="feature to ablate (e.g. ethnicity)")
    ablate.add_argument(
        "--save-model",
        action="store_true",
        help="also fit each classifier on the full table and write JSON models",
    )

    groups = sub.add_parser("groups", help="per-group rankings and winning classifiers")
    _add_io_flags(groups)
    _add_eval_flags(groups)
    groups.add_argument("--bins", type=int, default=10, help="bins for numeric attributes")
    groups.add_argument("--relief-k", type=int, default=10, help="Relief neighbor count")

    synth_p = sub.add_parser("synth", help="generate a synthetic cohort")
    synth_p.add_argument("--spec", help="SynthSpec JSON path (omit for the default cohort)")
    synth_p.add_argument("--rows", type=int, default=1000, help="rows of the default cohort (default 1000)")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.add_argument(
        "--seed", type=int, default=0, help="generation seed (overrides a spec file's when nonzero)"
    )

    report = sub.add_parser("report", help="re-render an emitted CSV report as Markdown")
    report.add_argument("--data", required=True, help="CSV report to convert")
    report.add_argument("--out", required=True, help="output directory")
    return parser


def _validate_common(args) -> None:
    if getattr(args, "folds", 2) < 2:
        raise ConfigError("--folds must be at least 2")
    if getattr(args, "bins", 1) < 1:
        raise ConfigError("--bins must be at least 1")
    if getattr(args, "relief_k", 1) < 1:
        raise ConfigError("--relief-k must be at least 1")
    if getattr(args, "smote_k", 1) < 1:
        raise ConfigError("--smote-k must be at least 1")
    ratio = getattr(args, "smote_ratio", 1.0)
    if not 0 <= ratio <= 1:
        raise ConfigError("--smote-ratio must be within [0, 1]")
    for attr in ("data", "schema", "spec"):
        path = getattr(args, attr, None)
        if path is not None and not Path(path).exists():
            raise ConfigError(f"--{attr} path does not exist: {path}")
    _check_out(args.out)


def _selected_specs(args):
    names = [s.strip() for s in args.classifiers.split(",")] if args.classifiers != "all" else list(CLASSIFIERS)
    bad = [n for n in names if n not in CLASSIFIERS]
    if bad:
        raise ConfigError(f"unknown classifiers: {', '.join(bad)} (choose from {', '.join(CLASSIFIERS)})")
    specs = default_specs(args.seed)
    chosen = set(names)
    return [s for s in specs if s.kind in chosen]


def _load_table(args):
    """The input table; a schema or CSV that cannot be read is a data error."""
    try:
        return load_csv(args.data, load_schema_json(args.schema))
    except (OSError, ValueError, KeyError, csv.Error) as exc:
        raise _DataError(str(exc)) from exc


def _smote_config(args) -> SmoteConfig | None:
    if args.smote_ratio == 0:
        return None
    return SmoteConfig(
        k_neighbors=args.smote_k,
        target_ratio=args.smote_ratio,
        seed=derive_seed(args.seed, "smote"),
    )


def _features(table, drop, error) -> list[str]:
    """The table's feature columns minus `drop`, checked before any work is
    done; a refused selection raises `error`."""
    try:
        return table.features(drop=drop)
    except ValueError as exc:
        raise error(str(exc)) from exc


def cmd_weigh(args) -> int:
    table = _load_table(args)
    attributes = _features(table, (), _DataError)
    matrix = weigh_all(table, n_bins=args.bins, relief_k=args.relief_k)
    out_dir = _ensure_out(args.out)
    write_rows(out_dir / "weights.csv", weight_matrix_rows(matrix))
    print(f"wrote weight report for {len(attributes)} attributes to {out_dir}")
    return 0


def cmd_ablate(args) -> int:
    table = _load_table(args)
    specs = _selected_specs(args)
    _features(table, (args.feature,), ConfigError)
    plan = stratified_folds(table, args.folds, derive_seed(args.seed, "folds"))
    report = ablation(table, args.feature, specs, plan, _smote_config(args))
    models = [model_to_json(classifiers.fit(spec, table)) for spec in specs] if args.save_model else []
    out_dir = _ensure_out(args.out)
    write_rows(out_dir / "without.csv", eval_report_rows(report.without_report))
    write_rows(out_dir / "with.csv", eval_report_rows(report.with_report))
    write_rows(out_dir / "delta.csv", delta_rows(report))
    if models:
        model_dir = _ensure_out(out_dir / "models")
        for doc in models:
            _write_json(model_dir / f"{doc['kind']}.json", doc)
    deltas = ", ".join(f"{m} {report.delta.get(m):+.4f}" for m in METRIC_NAMES)
    print(f"ablation of {args.feature!r} complete ({deltas}); reports in {out_dir}")
    return 0


def cmd_groups(args) -> int:
    table = _load_table(args)
    if table.group_column is None:
        raise _DataError("the schema has no column with role 'group'")
    _features(table, (table.group_column.name,), _DataError)
    specs = _selected_specs(args)
    rankings = per_group_rankings(table, top_n=5, n_bins=args.bins, relief_k=args.relief_k)
    winners = best_classifier_per_group(
        table,
        specs,
        k=args.folds,
        seed=derive_seed(args.seed, "groups-best"),
        smote_cfg=_smote_config(args),
    )
    out_dir = _ensure_out(args.out)
    write_rows(out_dir / "group_rankings.csv", group_ranking_rows(rankings))
    write_rows(out_dir / "group_winners.csv", group_winner_rows(winners))
    ranked = sum(top is not None for top in rankings.values())
    won = sum(winner is not None for winner in winners.values())
    print(f"ranked {ranked} groups, selected winners for {won}; reports in {out_dir}")
    return 0


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if args.spec is not None:
        try:
            spec = synth.load_spec_json(args.spec)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"invalid synth spec: {exc}") from exc
        if args.seed:
            spec = synth.with_seed(spec, args.seed)
    else:
        try:
            spec = synth.default_cohort_spec(n_rows=args.rows, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--rows {args.rows}: {exc}") from exc
    table, truth = synth.generate_with_truth(spec)
    out_dir = _ensure_out(args.out)
    with open(out_dir / "cohort.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(table_to_csv_text(table))
    _write_json(out_dir / "schema.json", schema_to_json(table.schema), sort_keys=False)
    _write_json(out_dir / "truth.json", truth)
    counts = ", ".join(f"{g}={c}" for g, c in truth["group_counts"].items())
    print(
        f"generated {table.n_rows} rows, prevalence {truth['realized_prevalence']:.4f}; "
        f"groups: {counts}"
    )
    return 0


def cmd_report(args) -> int:
    src = Path(args.data)
    try:
        rows = read_csv_rows(src)
    except (OSError, ValueError, csv.Error) as exc:
        raise _DataError(str(exc)) from exc
    if not rows:
        raise _DataError(f"{src} is empty")
    out_dir = _ensure_out(args.out)
    out_path = out_dir / (src.stem + ".md")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_markdown(rows))
    print(f"rendered {src} to {out_path}")
    return 0


def _write_json(path, doc, sort_keys=True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _check_out(out) -> None:
    """Refuse, before any work, an --out that could not be made a directory:
    one that is, or lies below, an existing non-directory. Creates nothing, so
    a refused run leaves no directory behind."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {out} is not a usable directory: {path} is not a directory")
            return


def _ensure_out(out) -> Path:
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out} is not a usable directory: {exc.strerror}") from exc
    return out_dir


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_common(args)
        handler = {
            "weigh": cmd_weigh,
            "ablate": cmd_ablate,
            "groups": cmd_groups,
            "synth": cmd_synth,
            "report": cmd_report,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # anything else failed while computing
        print(f"compute error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())

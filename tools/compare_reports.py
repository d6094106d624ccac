#!/usr/bin/env python3
"""Diff what two featrank source trees write for the benchmark's cohorts.

    python3 tools/compare_reports.py OLD_SRC NEW_SRC [--workloads rank ablate groups]
        [--seeds 1 7919] [--cohorts N] [--rows N] [--work DIR]

OLD_SRC and NEW_SRC are `src/` directories. For every workload and seed, each
tree generates the benchmark's cohorts with `featrank synth --spec` (the recipe,
seeds and sizes are read from perfbench/workloads.py) and runs the workload's
command on each of them, in a fresh process per tree. Each CSV report is then
rendered with `featrank report` into the same directory, so the Markdown files
are compared too. Each timed `rank` cohort also yields two derived shapes,
which both trees run `weigh` on (see SHAPES). `--rows N` generates the
timed cohorts at N rows instead of the workload's own size (the warm-up cohort
keeps its size), for example so that SMOTE's and the per-stratum Relief
searches of `ablate` and `groups` span several blocks. What each command prints
is kept as `console/<cohort>-<command>.txt`, with the output directory's path
written as `OUT`. The `ablate` warm-up cohort also runs with `--save-model`, so
the six saved model documents are compared too, and NEW_SRC's
`model_from_json` loads each tree's documents. The script then lists every
cohort, report or console file whose bytes differ between the trees, and every
model document that NEW_SRC refuses or does not write back equal. Exit code 0
means every file matched and loaded, 1 that some differ or a command failed.

A change that claims the same results runs this against the tree it started
from, for example a `git archive` of the parent commit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# Shapes derived from each timed `rank` cohort, by how many of its categorical
# feature and group columns each keeps (the first ones; the label stays): with
# none, Relief's neighbour search has no bucket pass and runs the search over
# all candidates alone, over many blocks; with one, it has a bucket pass but no
# near pass, which needs two categoricals.
SHAPES = {"numeric": 0, "one-categorical": 1}


def _workloads():
    sys.dont_write_bytecode = True  # leave no bytecode cache inside perfbench/
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    return workloads


def _quiet_main(cli, argv) -> tuple[int, str]:
    """Exit code and console text (stdout, then stderr) of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, f"stdout:\n{stdout.getvalue()}stderr:\n{stderr.getvalue()}"


def derive_shape(cohort: Path, derived: Path, keep: int) -> None:
    """Write into `derived` the cohort at `cohort` (its cohort.csv and
    schema.json) without its categorical feature and group columns after the
    first `keep`."""
    schema = json.loads((cohort / "schema.json").read_text(encoding="utf-8"))
    categoricals = [c["name"] for c in schema["columns"]
                    if c["kind"] == "categorical" and c["role"] != "label"]
    dropped = set(categoricals[keep:])
    schema["columns"] = [c for c in schema["columns"] if c["name"] not in dropped]
    with open(cohort / "cohort.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    kept = [i for i, name in enumerate(rows[0]) if name not in dropped]
    derived.mkdir(parents=True)
    (derived / "schema.json").write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    with open(derived / "cohort.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([row[i] for i in kept] for row in rows)


def run_tree(src: Path, out: Path, workload_name: str, seed: int, count: int | None,
             rows: int | None) -> int:
    """Generate one workload's cohorts (the timed ones at `rows` rows, when given)
    and run its command on each, and `weigh` on each derived shape of a timed
    `rank` cohort, with the program at src."""
    sys.path.insert(0, str(src))
    import featrank
    import featrank.cli as cli

    wl = _workloads()
    workload = wl.WORKLOADS[workload_name]
    timed_rows = workload.rows if rows is None else rows
    jobs = [("warmup", wl.WARMUP_ROWS)] + [(i, timed_rows) for i in range(workload.pool)]
    failed = 0
    (out / "console").mkdir(parents=True)
    for index, n_rows in jobs[: None if count is None else count + 1]:
        name = index if index == "warmup" else f"{index:03d}"
        cohort = out / "cohorts" / name
        cohort.mkdir(parents=True)
        spec = wl.spec_json(featrank, workload, n_rows, wl.cohort_seed(seed, workload.name, index))
        (cohort / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        job = workload.job_args(cohort, out / "reports" / name)
        if workload_name == "ablate" and index == "warmup":
            job.append("--save-model")
        synth = ["synth", "--spec", str(cohort / "spec.json"), "--out", str(cohort)]
        if _run(cli, src, out, name, [synth, job]):
            failed += 1
        elif workload_name == "rank" and index != "warmup":
            for shape, keep in SHAPES.items():
                derived = f"{name}-{shape}"
                derive_shape(cohort, out / "cohorts" / derived, keep)
                job = workload.job_args(out / "cohorts" / derived, out / "reports" / derived)
                failed += _run(cli, src, out, derived, [job])
    return 1 if failed else 0


def _run(cli, src: Path, out: Path, name: str, commands) -> int:
    """Run each command in turn on cohort `name`, keeping what it prints, then
    render each CSV report it wrote with `featrank report`. Returns the number
    of failed commands; the first failure stops the rest."""
    for argv in commands:
        rc, console = _quiet_main(cli, argv)
        console_file = out / "console" / f"{name}-{argv[0]}.txt"
        console_file.write_text(console.replace(str(out), "OUT"), encoding="utf-8")
        if rc != 0:
            print(f"{src}: featrank {argv[0]} exited with code {rc} on cohort {name}")
            return 1
    failed = 0
    reports = out / "reports" / name
    for report in sorted(reports.glob("*.csv")):
        rc, _ = _quiet_main(cli, ["report", "--data", str(report), "--out", str(reports)])
        if rc != 0:
            print(f"{src}: featrank report exited with code {rc} on {report.relative_to(out)}")
            failed += 1
    return failed


def unloadable_models(src: Path, outs) -> list[str]:
    """Each model document under the `outs` directories that the program at src
    refuses, or does not write back equal."""
    sys.path.insert(0, str(src))
    from featrank.classifiers import model_from_json, model_to_json

    problems = []
    for out in outs:
        for path in sorted(out.rglob("models/*.json")):
            name = f"under {out.name}: {path.relative_to(out)}"
            doc = json.loads(path.read_text(encoding="utf-8"))
            try:
                if model_to_json(model_from_json(doc)) != doc:
                    problems.append(f"not written back equal {name}")
            except ValueError as exc:
                problems.append(f"refused {name}: {exc}")
    return problems


def differing_files(a: Path, b: Path) -> list[str]:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = [f"only under {a.name}: {p}" for p in sorted(files_a - files_b)]
    out += [f"only under {b.name}: {p}" for p in sorted(files_b - files_a)]
    out += [
        f"differs: {p}"
        for p in sorted(files_a & files_b)
        if (a / p).read_bytes() != (b / p).read_bytes()
    ]
    return out


def compare(args, work: Path) -> int:
    status = 0
    for workload in args.workloads:
        for seed in args.seeds:
            dirs = []
            for tag, src in (("old", args.old_src), ("new", args.new_src)):
                out = work / f"{workload}-seed{seed}" / tag
                shutil.rmtree(out, ignore_errors=True)
                cmd = [sys.executable, __file__, "--run", str(src), str(out), workload, str(seed),
                       _optional(args.cohorts), _optional(args.rows)]
                if subprocess.run(cmd).returncode != 0:
                    status = 1
                dirs.append(out)
            diffs = differing_files(*dirs)
            loaded = subprocess.run(
                [sys.executable, __file__, "--load", str(args.new_src), *map(str, dirs)],
                capture_output=True, text=True,
            )
            if loaded.returncode != 0:
                print(loaded.stderr, end="")
                status = 1
            diffs += loaded.stdout.splitlines()
            n_files = sum(1 for p in dirs[0].rglob("*") if p.is_file())
            verdict = "identical" if not diffs else f"{len(diffs)} differ"
            print(f"{workload} seed {seed}: {n_files} files, {verdict}")
            for line in diffs:
                print(f"  {line}")
            status |= bool(diffs)
    return status


def _optional(value: int | None) -> str:
    return "-" if value is None else str(value)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run"]:
        src, out, workload, seed, count, rows = argv[1:]
        count, rows = (None if v == "-" else int(v) for v in (count, rows))
        return run_tree(Path(src), Path(out), workload, int(seed), count, rows)
    if argv[:1] == ["--load"]:
        for line in unloadable_models(Path(argv[1]), map(Path, argv[2:])):
            print(line)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path, help="src/ directory of the reference tree")
    parser.add_argument("new_src", type=Path, help="src/ directory of the changed tree")
    parser.add_argument("--workloads", nargs="+", default=["rank", "ablate", "groups"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 7919])
    parser.add_argument(
        "--cohorts", type=int, help="timed cohorts per workload and seed (default: the whole pool)"
    )
    parser.add_argument(
        "--rows", type=int, help="rows of every timed cohort (default: the workload's own size)"
    )
    parser.add_argument("--work", type=Path, help="keep the outputs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "featrank" / "__init__.py").is_file():
            parser.error(f"{src} is not a src/ directory holding the featrank package")
    args.old_src, args.new_src = args.old_src.resolve(), args.new_src.resolve()
    if args.work is not None:
        return compare(args, args.work.resolve())
    with tempfile.TemporaryDirectory(prefix="compare_reports-") as tmp:
        return compare(args, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())

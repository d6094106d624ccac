"""The tools that back "same results" and performance claims: the report diff,
the alternating-pairs judge, the mutant list and the benchmark's tracer."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from featrank import cli, evaluation, neighbors, synth
from featrank.dataio import load_csv, load_schema_json
from featrank.weighting import weight_relief

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_reports.py"


def compare(old_src, new_src, tmp_path):
    # the warm-up cohort alone: one 100-row ablate job per tree
    return subprocess.run(
        [sys.executable, str(TOOL), str(old_src), str(new_src), "--workloads", "ablate",
         "--seeds", "1", "--cohorts", "0", "--work", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300,
    )


def test_same_tree_reports_identical(tmp_path):
    result = compare(ROOT / "src", ROOT / "src", tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "ablate seed 1:" in result.stdout and "identical" in result.stdout


def test_changed_report_bytes_are_listed(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "featrank" / "reporting.py", "a", encoding="utf-8") as fh:
        fh.write("\n_plain_csv = rows_to_csv\nrows_to_csv = lambda rows: _plain_csv(rows) + '\\n'\n")
    result = compare(ROOT / "src", changed, tmp_path)
    assert result.returncode == 1
    assert "differs: reports/warmup/delta.csv" in result.stdout
    assert "differs: cohorts/warmup/cohort.csv" not in result.stdout


def test_changed_markdown_is_listed(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "featrank" / "reporting.py", "a", encoding="utf-8") as fh:
        fh.write("\n_plain_markdown = rows_to_markdown\nrows_to_markdown = lambda rows: _plain_markdown(rows) + '\\n'\n")
    result = compare(ROOT / "src", changed, tmp_path)
    assert result.returncode == 1
    stems = ("delta", "with", "without")
    assert sorted(line.strip() for line in result.stdout.splitlines() if "differs:" in line) == [
        f"differs: reports/warmup/{stem}.md" for stem in stems
    ], result.stdout
    old = tmp_path / "work" / "ablate-seed1" / "old" / "reports" / "warmup"
    assert sorted(p.name for p in old.glob("*.md")) == [f"{stem}.md" for stem in stems]


def test_changed_model_document_is_listed(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "featrank" / "classifiers" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_plain_json = model_to_json\n"
            "model_to_json = lambda m: _plain_json(m) | ({'seed': -1} if m.spec.kind == 'glm' else {})\n"
        )
    result = compare(ROOT / "src", changed, tmp_path)
    assert result.returncode == 1
    assert result.stdout.count("differs:") == 1, result.stdout
    assert "differs: reports/warmup/models/glm.json" in result.stdout


def test_changed_schema_document_is_listed(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "featrank" / "dataio.py", "a", encoding="utf-8") as fh:
        fh.write(  # the same columns, each entry's keys in reverse order
            "\n_plain_schema = schema_to_json\n"
            "schema_to_json = lambda cols: {'columns': [dict(reversed(e.items())) for e in "
            "_plain_schema(cols)['columns']]}\n"
        )
    result = compare(ROOT / "src", changed, tmp_path)
    assert result.returncode == 1
    assert result.stdout.count("differs:") == 1, result.stdout
    assert "differs: cohorts/warmup/schema.json" in result.stdout


def test_refused_model_document_is_listed(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "featrank" / "classifiers" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_plain_from_json = model_from_json\n"
            "def model_from_json(doc):\n"
            "    if doc['kind'] == 'glm':\n"
            "        raise ValueError('glm refused')\n"
            "    return _plain_from_json(doc)\n"
        )
    result = compare(ROOT / "src", changed, tmp_path)
    assert result.returncode == 1
    assert "differs:" not in result.stdout, result.stdout
    for tree in ("old", "new"):
        assert f"refused under {tree}: reports/warmup/models/glm.json: glm refused" in result.stdout
    assert result.stdout.count("refused under") == 2, result.stdout


def test_changed_console_output_is_listed(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "featrank" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_plain_main = main\n"
            "def main(argv=None):\n"
            "    code = _plain_main(argv)\n"
            "    if argv[0] == 'ablate':\n"
            "        print('note', file=sys.stderr)\n"
            "    return code\n"
        )
    result = compare(ROOT / "src", changed, tmp_path)
    assert result.returncode == 1
    assert result.stdout.count("differs:") == 1, result.stdout
    assert "differs: console/warmup-ablate.txt" in result.stdout
    old = tmp_path / "work" / "ablate-seed1" / "old"
    console = (old / "console" / "warmup-ablate.txt").read_text(encoding="utf-8")
    assert console.startswith("stdout:\nablation of 'ethnicity' complete") and "OUT/reports" in console
    assert str(old) not in console and console.endswith("stderr:\n")


def test_rows_option_resizes_the_timed_cohorts(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT / "src"), str(ROOT / "src"), "--workloads", "rank",
         "--seeds", "1", "--cohorts", "1", "--rows", "150", "--work", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "rank seed 1:" in result.stdout and "identical" in result.stdout
    for tree in ("old", "new"):
        cohorts = tmp_path / "work" / "rank-seed1" / tree / "cohorts"
        with open(cohorts / "000" / "cohort.csv", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 1 + 150  # header and 150 rows
        with open(cohorts / "warmup" / "cohort.csv", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) != 1 + 150  # the warm-up cohort keeps its size
        assert not (cohorts / "001").exists()


def load_tool(name, directory="tools"):
    spec = importlib.util.spec_from_file_location(name, ROOT / directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # where `dataclass` looks its module up
    spec.loader.exec_module(module)
    return module


def test_derived_shapes_take_their_search_paths(tmp_path, monkeypatch):
    # Relief on each shape, in blocks of one anchor, records which passes of
    # the neighbour search run.
    tool = load_tool("compare_reports")
    cohort = tmp_path / "cohort"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(synth.spec_to_json(synth.default_cohort_spec(n_rows=300, seed=5))))
    assert cli.main(["synth", "--spec", str(spec), "--out", str(cohort)]) == 0
    runs = []
    for name in ("_bucket_pass", "_near_pass", "_full_search"):
        real = getattr(neighbors, name)
        monkeypatch.setattr(neighbors, name,
                            lambda *args, real=real, name=name: runs.append(name) or real(*args))
    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 300)

    def passes(path):
        table = load_csv(path / "cohort.csv", load_schema_json(path / "schema.json"))
        categoricals = [n for n in table.feature_names() if table.encoded(n)[1] is not None]
        runs.clear()
        weight_relief(table, k_neighbors=10)
        return len(categoricals), set(runs)

    assert passes(cohort) == (5, {"_bucket_pass", "_near_pass", "_full_search"})
    expected = {"numeric": (0, {"_full_search"}),
                "one-categorical": (1, {"_bucket_pass", "_full_search"})}
    assert set(tool.SHAPES) == set(expected)
    for shape, keep in tool.SHAPES.items():
        tool.derive_shape(cohort, tmp_path / shape, keep)
        assert passes(tmp_path / shape) == expected[shape], shape


def test_every_benchmark_call_site_is_traced(tmp_path, monkeypatch):
    # The benchmark's tracer rebinds the names that featrank's modules look up;
    # a renamed or bypassed call site records no span. The CLI never calls
    # `cross_validate`, so its span is the one never recorded.
    tracing = load_tool("tracing", "perfbench")
    monkeypatch.setattr(evaluation, "_cpus", lambda: 1)  # every fit in this process
    assert cli.main(["synth", "--rows", "200", "--seed", "3", "--out", str(tmp_path / "c")]) == 0
    data = ["--data", str(tmp_path / "c" / "cohort.csv"), "--schema", str(tmp_path / "c" / "schema.json")]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, tracing.JOB_POINTS):
        for argv in (["weigh"], ["ablate", "--feature", "ethnicity", "--folds", "2", "--save-model"],
                     ["groups", "--folds", "2"]):
            assert cli.main([*argv, *data, "--out", str(tmp_path / argv[0])]) == 0
    names = {name for _, _, name, _ in tracing.JOB_POINTS}
    assert {span.name for span in tracer.spans} == names - {"evaluation.cross_validate"}
    assert (tmp_path / "ablate" / "models" / "glm.json").exists()


def test_pair_summary_applies_the_gain_rule_and_the_bound():
    ab = load_tool("ab_pairs")
    parent = [0.170, 0.172, 0.173, 0.174, 0.174, 0.175, 0.176, 0.177, 0.178, 0.180]

    held = ab.summarize(parent, [p - 0.012 for p in parent], "lower", 0.25)
    assert held["wins"] == 10 and held["pairs"] == 10
    assert held["gain"] and held["within_bound"]
    assert held["parent"][1] == pytest.approx(0.1745)

    # the same gap, but two pairs lost: 8/10 is short of 9/10
    missed = ab.summarize(parent, [p - 0.012 for p in parent[:8]] + [0.2, 0.2], "lower", 0.25)
    assert missed["wins"] == 8 and not missed["gain"] and missed["within_bound"]

    # every pair won by less than the parent's interquartile range
    narrow = ab.summarize(parent, [p - 0.001 for p in parent], "lower", 0.25)
    assert narrow["wins"] == 10 and not narrow["gain"]

    # a higher-is-better metric that fell by 30%, past its 25% bound
    rows = [2000.0 + 10 * i for i in range(10)]
    regressed = ab.summarize(rows, [0.7 * r for r in rows], "higher", 0.25)
    assert regressed["wins"] == 0 and not regressed["gain"] and not regressed["within_bound"]
    assert "PAST BOUND" in ab.report("rows_per_s", regressed)


def test_every_mutant_original_occurs_once():
    # a refactor that moves a guarded text fails here, not only in the tool's own run
    for mutant in load_tool("mutants").MUTANTS:
        text = (ROOT / "src" / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.original) == 1, mutant.name


def test_mutants_report_killed_surviving_and_missing(capsys):
    mutants = load_tool("mutants")
    killed = next(m for m in mutants.MUTANTS if m.name == "sigmoid clipped from below only")
    no_op = killed._replace(name="no-op", replacement=killed.original)
    missing = killed._replace(name="moved", original="text that no source file holds")
    assert mutants.check([killed]) == 0
    assert mutants.check([killed, no_op]) == 1
    assert mutants.check([missing]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("killed: sigmoid clipped from below only")
    assert lines[2].startswith("survived: no-op")
    assert lines[3].startswith("missing: moved (original text not found once in")

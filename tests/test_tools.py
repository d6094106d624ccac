"""The report-diff tool that backs "same results" claims."""

import shutil
import subprocess
import sys
from pathlib import Path

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

#!/usr/bin/env python3
"""Apply each listed mutant to a copy of src/ and check that its tests fail.

    python3 tools/mutants.py [NAME ...]

A mutant names a file under src/, an exact original text that occurs there
once, its replacement, and the pytest node ids that must fail once the text
is replaced. For each mutant (all of them, or those named), the tool copies
src/ into a temporary directory, replaces the text there, and runs the
mutant's tests with that copy first on PYTHONPATH. The mutant is killed if
the tests fail and survives if they pass. Exit code 0 means every mutant was
killed; 1 that some mutant survived, that its tests could not run (pytest
exited with neither 0 nor 1), or that its original text does not occur
exactly once, so a refactor that moves the text must update the list.

Each entry guards an invariant that a "same results" claim rests on: a
stable sort, a summation order, a row order. A new invariant adds its
mutant here together with the test that kills it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CLASSIFIER_TESTS = "tests/test_classifiers.py"
CLI_TESTS = "tests/test_cli.py"
NEIGHBOR_TESTS = "tests/test_neighbors.py"
SMOTE_TESTS = "tests/test_smote.py"
EVALUATION_TESTS = "tests/test_evaluation.py"
DATAIO_TESTS = "tests/test_dataio.py"
RANDOM_MIXED = f"{NEIGHBOR_TESTS}::test_k_nearest_equals_full_matrix_argsort_on_random_mixed_tables"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    original: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "mlp batches sliced from the unshuffled rows",
        "featrank/classifiers/mlp.py",
        "x_perm, y_perm = x_mat[perm], y[perm]",
        "x_perm, y_perm = x_mat, y[perm]",
        (f"{CLASSIFIER_TESTS}::test_mlp_matches_written_out_loop",),
    ),
    Mutant(
        "sigmoid clipped from below only",
        "featrank/classifiers/linear.py",
        "np.minimum(np.maximum(z, -36.0), 36.0)",
        "np.maximum(z, -36.0)",
        (f"{CLASSIFIER_TESTS}::test_sigmoid_is_the_clipped_logistic",),
    ),
    Mutant(
        "gbt tree terms summed in reverse",
        "featrank/classifiers/trees.py",
        "for leaf in leaves:  # in tree order, as the fit added them",
        "for leaf in leaves[::-1]:",
        (f"{CLASSIFIER_TESTS}::TestFlatScoring",),
    ),
    Mutant(
        "root presort not stable",
        "featrank/classifiers/trees.py",
        'order = data.codes.argsort(axis=1, kind="stable")',
        'order = data.codes.argsort(axis=1, kind="quicksort")',
        (f"{CLASSIFIER_TESTS}::TestGrowerMatchesReference::test_gbt_many_rounds",),
    ),
    Mutant(
        "root cuts of a fit smaller than min_leaf not clamped",
        "featrank/classifiers/trees.py",
        "width = max(codes.shape[1] - self.min_leaf, 0)",
        "width = codes.shape[1] - self.min_leaf",
        (f"{CLASSIFIER_TESTS}::TestGrowerMatchesReference::test_min_leaf_near_the_row_count",),
    ),
    Mutant(
        "child order re-sorted by value instead of filtered",
        "featrank/classifiers/trees.py",
        "kept = np.flatnonzero(goes[order])  # the same number in each feature row",
        "kept = np.flatnonzero(goes[order])\n"
        "        order = rows[self.data.codes[:, rows].argsort(axis=1)]\n"
        "        codes = np.take_along_axis(self.data.codes, order, axis=1)\n"
        "        kept = np.arange(order.size)",
        (f"{CLASSIFIER_TESTS}::TestGrowerMatchesReference::test_gbt_many_rounds",),
    ),
    Mutant(
        "forest bootstrap draws one word too many per round",
        "featrank/classifiers/trees.py",
        'rng.getrandbits(32 * need).to_bytes(4 * need, "little")',
        'rng.getrandbits(32 * (need + 1)).to_bytes(4 * (need + 1), "little")',
        (f"{CLASSIFIER_TESTS}::TestForestDraws::test_randbelow_many_is_randrange",),
    ),
    Mutant(
        "forest children's row slices swapped",
        "featrank/classifiers/trees.py",
        "children.append((lefts[l0:l1], rights[r0:r1]))",
        "children.append((rights[r0:r1], lefts[l0:l1]))",
        (f"{CLASSIFIER_TESTS}::TestGrowerMatchesReference::test_random_forest",),
    ),
    Mutant(
        "feature sampler's pool swap left out",
        "featrank/classifiers/trees.py",
        "pool[j] = pool[p - i - 1]",
        "pass",
        (
            f"{CLASSIFIER_TESTS}::TestForestDraws::test_feature_sampler_is_sorted_sample",
            f"{CLASSIFIER_TESTS}::TestGrowerMatchesReference::test_random_forest",
        ),
    ),
    Mutant(
        "mlp gradient views of b1 and w2 swapped",
        "featrank/classifiers/mlp.py",
        "g_w1, g_b1, g_w2 = out",
        "g_w1, g_w2, g_b1 = out",
        (f"{CLASSIFIER_TESTS}::test_mlp_matches_written_out_loop",),
    ),
    Mutant(
        "bucket pass settles an anchor at k-th distance 1.0",
        "featrank/neighbors.py",
        "settled = kth < 1.0",
        "settled = kth <= 1.0",
        (
            f"{NEIGHBOR_TESTS}::test_bucket_kth_distance_of_one_takes_the_search_over_all_candidates",
            f"{NEIGHBOR_TESTS}::test_k_nearest_equals_full_matrix_argsort_on_random_mixed_tables",
        ),
    ),
    Mutant(
        "first feature added through the scratch onto an unfilled block",
        "featrank/neighbors.py",
        "diff(arrays[0][block, None], cand[0], out=dist)",
        "dist += diff(arrays[0][block, None], cand[0], out=diffs)",
        (
            f"{NEIGHBOR_TESTS}::test_k_nearest_matches_stable_argsort_on_integer_distances",
            f"{NEIGHBOR_TESTS}::test_relief_equals_per_anchor_argsort",
        ),
    ),
    Mutant(
        "parallel results gathered in dispatch order",
        "featrank/evaluation.py",
        "per_task = [outcomes[i] for i in range(len(tasks))]",
        "per_task = [outcomes[i] for i in order]",
        (f"{EVALUATION_TESTS}::TestTaskRunner::test_workers_give_the_results_of_one",),
    ),
    Mutant(
        "the last failing task raised instead of the first",
        "featrank/evaluation.py",
        "raise errors[0]",
        "raise errors[-1]",
        (f"{EVALUATION_TESTS}::TestTaskRunner::test_first_failing_task_in_list_order_raises",),
    ),
    Mutant(
        "thread errors dropped after the join",
        "featrank/neighbors.py",
        "raise errors[0]",
        "pass",
        (
            f"{NEIGHBOR_TESTS}::test_worker_exception_is_reraised",
            f"{NEIGHBOR_TESTS}::test_search_thread_error_raises_its_type_and_leaves_no_thread",
        ),
    ),
    Mutant(
        "smote anchors left unshuffled",
        "featrank/smote.py",
        "rng.shuffle(order)",
        "pass",
        (f"{SMOTE_TESTS}::test_smote_equals_written_out_loop",),
    ),
    Mutant(
        "smote fed the whole table",
        "featrank/evaluation.py",
        "train = smote(train, fold_cfg)",
        "train = smote(table, fold_cfg)",
        (f"{EVALUATION_TESTS}::TestCrossValidate::test_smote_sources_never_touch_test_rows",),
    ),
    Mutant(
        "one smote seed for every fold",
        "featrank/evaluation.py",
        'derive_seed(cfg.seed, "fold", fold)',
        'derive_seed(cfg.seed, "fold", 0)',
        (f"{EVALUATION_TESTS}::TestCrossValidate::test_each_fold_oversampled_with_its_own_seed",),
    ),
    Mutant(
        "one classifier seed for every fold",
        "featrank/evaluation.py",
        'derive_seed(spec.seed, "fold", audit.fold)',
        'derive_seed(spec.seed, "fold", 0)',
        (f"{EVALUATION_TESTS}::TestCrossValidate::test_each_fold_fits_with_its_own_seed",),
    ),
    Mutant(
        "stratum of exactly min_rows rows skipped",
        "featrank/evaluation.py",
        "sub.n_rows >= min_rows",
        "sub.n_rows > min_rows",
        (f"{EVALUATION_TESTS}::TestStratumThresholds",),
    ),
    Mutant(
        "stratum of exactly min_class rows in its smaller class skipped",
        "featrank/evaluation.py",
        "smaller >= min_class",
        "smaller > min_class",
        (f"{EVALUATION_TESTS}::TestStratumThresholds",),
    ),
    Mutant(
        "forest votes counted at leaf fractions above 0.5 only",
        "featrank/classifiers/trees.py",
        "np.count_nonzero(leaves >= 0.5, axis=0)",
        "np.count_nonzero(leaves > 0.5, axis=0)",
        (f"{CLASSIFIER_TESTS}::TestFlatScoring",),
    ),
    Mutant(
        "midpoint kept where it rounds onto the upper value",
        "featrank/classifiers/trees.py",
        "mid if lo <= mid < hi else lo",
        "mid if lo <= mid <= hi else lo",
        (f"{CLASSIFIER_TESTS}::TestGrowerMatchesReference::test_threshold_rounding_onto_next_value",),
    ),
    Mutant(
        "loaded split's children linked swapped",
        "featrank/classifiers/trees.py",
        'stack += [(node["r"], right, at + ".r"), (node["l"], left, at + ".l")]',
        'stack += [(node["r"], left, at + ".r"), (node["l"], right, at + ".l")]',
        (
            f"{CLASSIFIER_TESTS}::TestFlatScoring::test_loaded_models",
            f"{CLI_TESTS}::TestAblate::test_saved_trees_load_and_write_back_equal",
        ),
    ),
    Mutant(
        "saved tree writes the right child under l",
        "featrank/classifiers/trees.py",
        '"l": saved(left[i]), "r": saved(right[i])',
        '"l": saved(right[i]), "r": saved(right[i])',
        (
            f"{CLI_TESTS}::TestAblate::test_saved_trees_load_and_write_back_equal",
            f"{CLASSIFIER_TESTS}::TestGrowerMatchesReference::test_decision_tree",
        ),
    ),
    Mutant(
        "sorted grower's new children taken in swapped order",
        "featrank/classifiers/trees.py",
        "left, right = table.split(out, j, thr)",
        "right, left = table.split(out, j, thr)",
        (f"{CLASSIFIER_TESTS}::TestGrowerMatchesReference::test_decision_tree",),
    ),
    Mutant(
        "neighbour search's tie fix left out",
        "featrank/neighbors.py",
        "if flat.size > rows * k:",
        "if False:",
        (
            f"{NEIGHBOR_TESTS}::test_k_nearest_matches_stable_argsort_on_integer_distances",
            f"{NEIGHBOR_TESTS}::test_relief_equals_per_anchor_argsort",
        ),
    ),
    Mutant(
        "neighbour search's self mask left out",
        "featrank/neighbors.py",
        "dist[own, pos[own]] = np.inf",
        "pass",
        (f"{NEIGHBOR_TESTS}::test_relief_equals_per_anchor_argsort",),
    ),
    Mutant(
        "relief terms summed in reverse anchor order",
        "featrank/weighting.py",
        "np.cumsum(terms, axis=0)[-1]",
        "np.cumsum(terms[::-1], axis=0)[-1]",
        (f"{NEIGHBOR_TESTS}::test_relief_adds_terms_in_anchor_order",),
    ),
    Mutant(
        "bucket candidates in descending row order",
        "featrank/neighbors.py",
        'c_order = np.argsort(c_ids, kind="stable")',
        'c_order = len(c_ids) - 1 - np.argsort(c_ids[::-1], kind="stable")',
        (RANDOM_MIXED,),
    ),
    Mutant(
        "bucket signature from the first categorical only",
        "featrank/neighbors.py",
        "ids = _signatures(codes, np.concatenate([anchors, candidates]))",
        "ids = _signatures(codes[:1], np.concatenate([anchors, candidates]))",
        (RANDOM_MIXED,),
    ),
    Mutant(
        "settled rows written without the a_order mapping",
        "featrank/neighbors.py",
        "out[a_order[settled]] = found[settled]",
        "out[settled] = found[settled]",
        (RANDOM_MIXED,),
    ),
    Mutant(
        "bucket pass settles an anchor at k-th distance below 2.0",
        "featrank/neighbors.py",
        "settled = kth < 1.0",
        "settled = kth < 2.0",
        (RANDOM_MIXED,),
    ),
    Mutant(
        "first numeric dropped from bucket blocks",
        "featrank/neighbors.py",
        "_search(numerics, [c[c0:c1] for c in cand],",
        "_search(numerics[1:], [c[c0:c1] for c in cand[1:]],",
        (RANDOM_MIXED,),
    ),
    Mutant(
        "feature selection in the caller's order",
        "featrank/dataio.py",
        "chosen = [f for f in available if f in chosen and f not in drop]",
        "chosen = [f for f in chosen if f not in drop]",
        (
            f"{CLASSIFIER_TESTS}::TestFitValidation::test_features_are_taken_in_schema_order",
            f"{DATAIO_TESTS}::TestTable::test_features_select_in_schema_order",
        ),
    ),
)


def run(mutant: Mutant, src: Path) -> str:
    """'killed', 'survived', 'missing' or 'error ...' for one mutant of the tree `src`."""
    with tempfile.TemporaryDirectory(prefix="featrank-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / mutant.file
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        if text.count(mutant.original) != 1:
            return "missing"
        path.write_text(text.replace(mutant.original, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when a test failed; other codes mean it could not run them
    outcomes = {0: "survived", 1: "killed"}
    return outcomes.get(proc.returncode, f"error (pytest exit {proc.returncode})")


def check(mutants, src: Path = ROOT / "src") -> int:
    """Run every mutant, print one line each, and return the exit code."""
    status = 0
    for mutant in mutants:
        outcome = run(mutant, src)
        if outcome == "missing":
            note = f"original text not found once in {mutant.file}"
        else:
            note = f"{len(mutant.tests)} test id(s)"
        print(f"{outcome}: {mutant.name} ({note})", flush=True)
        status |= outcome != "killed"
    return status


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    return check([m for m in MUTANTS if not names or m.name in names])


if __name__ == "__main__":
    sys.exit(main())

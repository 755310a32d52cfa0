import ast
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontograft.metrics import (
    AVERAGINGS,
    MetricsError,
    binarize,
    compute_report,
    per_class_f1_rows,
    per_molecule_f1_rows,
    prf,
    roc_auc_detail,
    write_report,
)
from ontograft.dataset import LabelIndex


# ---------------------------------------------------------------------------
# brute-force oracles, written from the definitions with plain loops


def brute_prf_binary(true_pairs, pred_pairs):
    tp = sum(1 for t, p in zip(true_pairs, pred_pairs) if t and p)
    fp = sum(1 for t, p in zip(true_pairs, pred_pairs) if not t and p)
    fn = sum(1 for t, p in zip(true_pairs, pred_pairs) if t and not p)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def brute_prf(y_true, y_pred, averaging):
    n, k = len(y_true), len(y_true[0])
    if averaging == "micro":
        flat_t = [v for row in y_true for v in row]
        flat_p = [v for row in y_pred for v in row]
        return brute_prf_binary(flat_t, flat_p)
    if averaging == "samples":
        triples = [brute_prf_binary(y_true[i], y_pred[i]) for i in range(n)]
    else:
        triples = [
            brute_prf_binary([y_true[i][j] for i in range(n)],
                             [y_pred[i][j] for i in range(n)])
            for j in range(k)
        ]
        if averaging == "weighted":
            support = [sum(y_true[i][j] for i in range(n)) for j in range(k)]
            total = sum(support)
            if total == 0:
                return 0.0, 0.0, 0.0
            return tuple(
                sum(triples[j][m] * support[j] for j in range(k)) / total
                for m in range(3)
            )
    return tuple(sum(t[m] for t in triples) / len(triples) for m in range(3))


def brute_auc(y, s):
    """Exhaustive pair enumeration, ties counted half."""
    pos = [s[i] for i in range(len(y)) if y[i]]
    neg = [s[i] for i in range(len(y)) if not y[i]]
    if not pos or not neg:
        return None
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


# the per-element loop implementation that the array form replaced, kept
# verbatim as the bit-for-bit reference


def loop_midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def loop_binary_auc(y, s):
    y = np.asarray(y).astype(bool)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = loop_midranks(np.asarray(s, dtype=np.float64))
    rank_sum = ranks[y].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def loop_roc_auc_detail(y_true, y_score, averaging):
    if averaging == "micro":
        auc = loop_binary_auc(y_true.reshape(-1), y_score.reshape(-1))
        return (auc if auc is not None else 0.0), (0 if auc is not None else 1)
    if averaging == "samples":
        per_row = [loop_binary_auc(y_true[i], y_score[i]) for i in range(y_true.shape[0])]
        valid = [a for a in per_row if a is not None]
        excluded = len(per_row) - len(valid)
        return (float(np.mean(valid)) if valid else 0.0), excluded
    per_col = [loop_binary_auc(y_true[:, j], y_score[:, j]) for j in range(y_true.shape[1])]
    valid_idx = [j for j, a in enumerate(per_col) if a is not None]
    excluded = y_true.shape[1] - len(valid_idx)
    if not valid_idx:
        return 0.0, excluded
    if averaging == "macro":
        return float(np.mean([per_col[j] for j in valid_idx])), excluded
    support = y_true.astype(bool).sum(axis=0).astype(np.float64)
    total = support[valid_idx].sum()
    return float(sum(per_col[j] * support[j] for j in valid_idx) / total), excluded


@st.composite
def label_score_matrices(draw):
    """(y_true, y_score): scores rounded to force ties, some rows and columns
    single-class, up to three NaN scores and up to three of +inf, -inf and
    -0.0 (which ties with the 0.0 that rounding makes)."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    y = (rng.random((n, k)) < draw(st.floats(0.0, 1.0))).astype(np.int8)
    if draw(st.booleans()):
        y[:, rng.integers(k)] = rng.integers(2)
    if draw(st.booleans()):
        y[rng.integers(n), :] = rng.integers(2)
    s = np.round(rng.random((n, k)), draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 3))):
        s[rng.integers(n), rng.integers(k)] = np.nan
    for _ in range(draw(st.integers(0, 3))):
        s[rng.integers(n), rng.integers(k)] = rng.choice([np.inf, -np.inf, -0.0])
    return y, s


def special_score_matrix(rng, shape, prevalence):
    """Rounded scores with ties, a sprinkle of NaN, +inf, -inf and -0.0
    next to 0.0, and truth at the given prevalence."""
    y = (rng.random(shape) < prevalence).astype(np.int8)
    s = np.round(rng.random(shape), 2)
    cells = rng.choice(s.size, size=40, replace=False)
    s.flat[cells] = np.repeat([np.nan, np.inf, -np.inf, -0.0, 0.0], 8)
    return y, s


class TestBinarize:
    def test_boundary_is_positive(self):
        assert binarize(np.array([[0.5]]), 0.5)[0, 0] == 1

    def test_all_zero(self):
        npt.assert_array_equal(binarize(np.zeros((2, 3)), 0.5), 0)

    def test_simple(self):
        npt.assert_array_equal(binarize(np.array([[0.3, 0.7]]), 0.5), [[0, 1]])


class TestPrf:
    def test_perfect_prediction_all_averagings(self):
        rng = np.random.default_rng(0)
        y = (rng.random((6, 4)) < 0.5).astype(np.int8)
        # nontrivial: every row and every column carries a positive, so no
        # zero-division case can force a 0 into the averages
        y[np.arange(6), np.arange(6) % 4] = 1
        for averaging in AVERAGINGS:
            assert prf(y, y.copy(), averaging) == (1.0, 1.0, 1.0)

    def test_worked_micro_example(self):
        y_true = np.array([[1, 0], [1, 1]])
        y_pred = np.array([[1, 0], [0, 1]])
        precision, recall, f1 = prf(y_true, y_pred, "micro")
        assert precision == 1.0
        assert abs(recall - 2 / 3) < 1e-12
        assert abs(f1 - 0.8) < 1e-12

    def test_worked_macro_example(self):
        y_true = np.array([[1, 0], [1, 1]])
        y_pred = np.array([[1, 0], [0, 1]])
        _, _, f1 = prf(y_true, y_pred, "macro")
        assert abs(f1 - 5 / 6) < 1e-12

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 21))
            k = int(rng.integers(1, 11))
            y_true = (rng.random((n, k)) < 0.4).astype(np.int8)
            y_pred = (rng.random((n, k)) < 0.4).astype(np.int8)
            for averaging in AVERAGINGS:
                got = prf(y_true, y_pred, averaging)
                want = brute_prf(y_true.tolist(), y_pred.tolist(), averaging)
                npt.assert_allclose(got, want, atol=0, rtol=0)

    def test_micro_invariant_under_permutations(self):
        rng = np.random.default_rng(7)
        y_true = (rng.random((8, 5)) < 0.5).astype(np.int8)
        y_pred = (rng.random((8, 5)) < 0.5).astype(np.int8)
        rows = rng.permutation(8)
        cols = rng.permutation(5)
        assert prf(y_true, y_pred, "micro") == prf(
            y_true[rows][:, cols], y_pred[rows][:, cols], "micro"
        )

    def test_weighted_equals_macro_for_equal_support(self):
        y_true = np.array([[1, 1], [0, 0], [1, 1]])
        y_pred = np.array([[1, 0], [0, 1], [1, 1]])
        npt.assert_allclose(
            prf(y_true, y_pred, "weighted"), prf(y_true, y_pred, "macro")
        )

    def test_micro_f1_harmonic_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            y_true = (rng.random((10, 6)) < 0.5).astype(np.int8)
            y_pred = (rng.random((10, 6)) < 0.5).astype(np.int8)
            p, r, f1 = prf(y_true, y_pred, "micro")
            if p + r > 0:
                assert abs(f1 - 2 * p * r / (p + r)) < 1e-12

    def test_zero_division_convention(self):
        y_true = np.array([[0, 1]])
        y_pred = np.array([[0, 0]])
        precision, recall, f1 = prf(y_true, y_pred, "micro")
        assert precision == 0.0 and recall == 0.0 and f1 == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(MetricsError):
            prf(np.zeros((2, 2)), np.zeros((2, 3)), "micro")

    def test_unknown_averaging(self):
        with pytest.raises(MetricsError):
            prf(np.zeros((2, 2)), np.zeros((2, 2)), "median")


class TestRocAuc:
    def test_perfect_ranking(self):
        y = np.array([[1], [0], [1], [0]])
        s = np.array([[0.9], [0.1], [0.8], [0.2]])
        assert roc_auc_detail(y, s, "micro")[0] == 1.0

    def test_all_ties_give_half(self):
        y = np.array([[1], [0], [1]])
        s = np.full((3, 1), 0.5)
        assert roc_auc_detail(y, s, "micro")[0] == 0.5

    def test_worked_example(self):
        # pairs: 4 total, 3 wins, 1 loss -> 0.75
        y = np.array([[1], [0], [1], [0]])
        s = np.array([[0.9], [0.8], [0.7], [0.1]])
        assert abs(roc_auc_detail(y, s, "macro")[0] - 0.75) < 1e-12
        assert brute_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == 0.75

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 21))
            k = int(rng.integers(1, 8))
            y = (rng.random((n, k)) < 0.5).astype(np.int8)
            s = np.round(rng.random((n, k)), 2)  # rounded to force ties
            want = brute_auc(y.reshape(-1).tolist(), s.reshape(-1).tolist())
            if want is not None:
                assert abs(roc_auc_detail(y, s, "micro")[0] - want) < 1e-12
            cols = [brute_auc(y[:, j].tolist(), s[:, j].tolist()) for j in range(k)]
            valid = [a for a in cols if a is not None]
            if valid:
                got, excluded = roc_auc_detail(y, s, "macro")
                assert excluded == k - len(valid)
                assert abs(got - sum(valid) / len(valid)) < 1e-12
                support = [int(y[:, j].sum()) for j in range(k) if cols[j] is not None]
                got, excluded = roc_auc_detail(y, s, "weighted")
                assert excluded == k - len(valid)
                want = sum(a * w for a, w in zip(valid, support)) / sum(support)
                assert abs(got - want) < 1e-12
            rows = [brute_auc(y[i].tolist(), s[i].tolist()) for i in range(n)]
            valid = [a for a in rows if a is not None]
            got, excluded = roc_auc_detail(y, s, "samples")
            assert excluded == n - len(valid)
            assert abs(got - (sum(valid) / len(valid) if valid else 0.0)) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(label_score_matrices())
    def test_equals_loop_implementation(self, matrices):
        y, s = matrices
        for averaging in AVERAGINGS:
            want = loop_roc_auc_detail(y, s, averaging)
            # each NaN score ranks as a tie run of its own, so every AUC stays
            # a number
            assert roc_auc_detail(y, s, averaging) == want, averaging

    @pytest.mark.parametrize(
        "shape, prevalence, matrices",
        # (84, 18) at 27% is the toy test split, (600, 500) at 1.8% the paper
        # benchmark's score matrix
        [((100, 60), 0.02, 3), ((100, 60), 0.3, 3), ((84, 18), 0.27, 3), ((600, 500), 0.018, 1)],
        ids=["100x60-sparse", "100x60-dense", "toy", "paper"],
    )
    def test_equals_loop_implementation_at_shape(self, shape, prevalence, matrices):
        rng = np.random.default_rng(17)
        for _ in range(matrices):
            y, s = special_score_matrix(rng, shape, prevalence)
            for averaging in AVERAGINGS:
                got = roc_auc_detail(y, s, averaging)
                assert got == loop_roc_auc_detail(y, s, averaging), averaging

    def test_signed_zeros_tie(self):
        y = np.array([[1, 0], [0, 1]])
        s = np.array([[-0.0, 0.0], [0.0, -0.0]])
        for averaging in AVERAGINGS:
            assert roc_auc_detail(y, s, averaging) == (0.5, 0), averaging

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2)])
    def test_degenerate_shapes_equal_loop_implementation(self, shape):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = (rng.random(shape) < 0.5).astype(np.int8)
            s = np.round(rng.random(shape), 1)
            for averaging in AVERAGINGS:
                assert roc_auc_detail(y, s, averaging) == loop_roc_auc_detail(y, s, averaging)

    @staticmethod
    def report_matrix(prevalence, n_nan):
        rng = np.random.default_rng(11)
        y = (rng.random((60, 40)) < prevalence).astype(np.int8)
        y[:, 0] = 0  # a column with no positives
        s = np.round(rng.random((60, 40)), 2)
        s.flat[rng.choice(s.size, size=n_nan, replace=False)] = np.nan
        return y, s

    def check_report_equals_loop_implementation(self, y, s):
        report = compute_report(y, s)
        for averaging in AVERAGINGS:
            want_auc, want_excluded = loop_roc_auc_detail(y, s, averaging)
            assert report.values[averaging]["roc_auc"] == want_auc
            assert report.auc_excluded[averaging] == want_excluded

    def test_report_equals_loop_implementation(self):
        self.check_report_equals_loop_implementation(*self.report_matrix(0.1, 0))

    def test_sparse_report_with_nan_equals_loop_implementation(self):
        self.check_report_equals_loop_implementation(*self.report_matrix(0.02, 30))

    def test_samples_averaging(self):
        y = np.array([[1, 0], [1, 1]])  # second row has one class only
        s = np.array([[0.8, 0.2], [0.5, 0.5]])
        got, excluded = roc_auc_detail(y, s, "samples")
        assert got == 1.0
        assert excluded == 1

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        y = (rng.random((12, 4)) < 0.5).astype(np.int8)
        s = rng.random((12, 4))
        for averaging in AVERAGINGS:
            a = roc_auc_detail(y, s, averaging)[0]
            b = roc_auc_detail(y, np.exp(3 * s), averaging)[0]
            assert abs(a - b) < 1e-12

    def test_single_class_column_excluded_with_count(self):
        y = np.array([[1, 1], [0, 1]])  # column 2 has no negatives
        s = np.array([[0.9, 0.3], [0.2, 0.6]])
        auc, excluded = roc_auc_detail(y, s, "macro")
        assert excluded == 1
        assert auc == 1.0


class TestReports:
    def test_report_structure_and_ranges(self):
        rng = np.random.default_rng(3)
        y = (rng.random((20, 6)) < 0.5).astype(np.int8)
        s = rng.random((20, 6))
        report = compute_report(y, s, threshold=0.5)
        for averaging in AVERAGINGS:
            for metric in ("f1", "precision", "recall", "roc_auc"):
                value = report.values[averaging][metric]
                assert 0.0 <= value <= 1.0
        doc = json.loads(report.to_json())
        assert set(doc["metrics"]) == set(AVERAGINGS)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_report_scores_equal_prf(self, n, k, seed):
        """compute_report counts each axis once; its scores are prf's."""
        rng = np.random.default_rng(seed)
        y = (rng.random((n, k)) < 0.4).astype(np.int8)
        s = np.round(rng.random((n, k)), 1)
        report = compute_report(y, s, 0.5)
        for averaging in AVERAGINGS:
            got = report.values[averaging]
            want = prf(y, binarize(s, 0.5), averaging)
            assert (got["precision"], got["recall"], got["f1"]) == want

    def test_random_scores_near_half_auc(self):
        rng = np.random.default_rng(8)
        y = (rng.random((400, 10)) < 0.5).astype(np.int8)
        s = rng.random((400, 10))
        assert abs(roc_auc_detail(y, s, "micro")[0] - 0.5) < 0.05

    def test_per_class_and_per_molecule_rows(self):
        y_true = np.array([[1, 0], [1, 1]])
        y_pred = np.array([[1, 0], [0, 1]])
        labels = LabelIndex(("A", "B"))
        class_rows = per_class_f1_rows(y_true, y_pred, labels)
        assert class_rows[0] == ("A", 2, pytest.approx(2 / 3))
        assert class_rows[1] == ("B", 1, 1.0)
        mol_rows = per_molecule_f1_rows(y_true, y_pred)
        assert mol_rows[0] == (0, 1.0)

    @pytest.mark.parametrize("pred_shape", [(1, 3), (3,), (3, 1)])
    def test_per_molecule_rows_need_equal_shapes(self, pred_shape):
        # a prediction that numpy would broadcast over the 3 x 3 truth
        y_true = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        y_pred = np.ones(pred_shape, dtype=np.int8)
        with pytest.raises(MetricsError, match="shape mismatch"):
            per_molecule_f1_rows(y_true, y_pred)
        with pytest.raises(MetricsError, match="shape mismatch"):
            per_class_f1_rows(y_true, y_pred, LabelIndex(("A", "B", "C")))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrix_is_a_metrics_error(self, shape):
        with pytest.raises(MetricsError, match="empty"):
            compute_report(np.zeros(shape), np.zeros(shape))
        with pytest.raises(MetricsError, match="empty"):
            prf(np.zeros(shape), np.zeros(shape), "samples")
        with pytest.raises(MetricsError, match="empty"):
            per_molecule_f1_rows(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("classes", [("A", "B"), ("A", "B", "C", "D")])
    def test_per_class_rows_need_one_label_per_column(self, classes):
        y = np.array([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(MetricsError, match="labels for 3 columns"):
            per_class_f1_rows(y, y, LabelIndex(classes))

    def test_write_report_files(self, tmp_path):
        y = np.array([[1, 0], [0, 1]])
        s = np.array([[0.9, 0.1], [0.2, 0.8]])
        report = compute_report(y, s, 0.5)
        class_rows = per_class_f1_rows(y, binarize(s, 0.5), LabelIndex(("A", "B")))
        mol_rows = per_molecule_f1_rows(y, binarize(s, 0.5))
        write_report(report, class_rows, mol_rows, str(tmp_path))
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "per_class_f1.csv").read_text().startswith("class_id,support,f1")
        assert (tmp_path / "per_molecule_f1.csv").read_text().startswith("row_index,f1")


def test_metrics_does_not_import_the_model():
    """metrics scores arrays; the model runs in extension.score_molecules."""
    source = Path(__file__).resolve().parents[1] / "src" / "ontograft" / "metrics.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            if node.module is None:  # from . import model
                imported.update(base + alias.name for alias in node.names)
    assert ".dataset" in imported  # the walk sees the relative imports
    assert imported.isdisjoint({".model", ".tokenizer", "ontograft.model", "ontograft.tokenizer"})

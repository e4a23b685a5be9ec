import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serlab import dataio, metrics
from serlab.metrics import (
    AttributeReport,
    MetricsReport,
    attribute_metrics,
    binned_ccc,
    classification_metrics,
    compare_models,
    format_mean_std,
    prediction_stats,
)

CODES = metrics.EMOTION_CODES


class TestClassificationMetrics:
    def test_perfect_prediction(self):
        labels = list(CODES) * 3
        rep = classification_metrics(labels, labels)
        assert rep.accuracy == 1.0
        assert rep.f1_macro == 1.0
        assert all(v == 1.0 for v in rep.per_class_f1.values())

    def test_hand_confusion_case(self):
        truth = ["A", "A", "C", "C"]
        pred = ["A", "C", "C", "C"]
        rep = classification_metrics(pred, truth)
        assert rep.accuracy == 0.75
        assert abs(rep.per_class_f1["A"] - 2 / 3) < 1e-12
        assert abs(rep.per_class_f1["C"] - 0.8) < 1e-12
        # macro over classes present in truth or predictions only
        assert rep.classes_scored == ("A", "C")
        assert abs(rep.f1_macro - (2 / 3 + 0.8) / 2) < 1e-12

    def test_micro_equals_accuracy_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            pred = [CODES[i] for i in rng.integers(0, 8, size=n)]
            truth = [CODES[i] for i in rng.integers(0, 8, size=n)]
            rep = classification_metrics(pred, truth)
            assert rep.f1_micro == rep.accuracy

    def test_confusion_row_sums_match_truth_counts(self):
        rng = np.random.default_rng(1)
        pred = [CODES[i] for i in rng.integers(0, 8, size=60)]
        truth = [CODES[i] for i in rng.integers(0, 8, size=60)]
        rep = classification_metrics(pred, truth)
        for i, code in enumerate(CODES):
            assert rep.confusion[i].sum() == truth.count(code)
        assert rep.confusion.sum() == 60

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            classification_metrics(["A"], ["A", "C"])

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown emotion code"):
            classification_metrics(["X"], ["A"])

    def test_micro_accuracy_mismatch_raises_value_error(self):
        # an explicit check, not an assert that ``python -O`` strips
        rep = classification_metrics(["A", "C"], ["A", "A"])
        with pytest.raises(ValueError, match="F1-micro must equal accuracy"):
            metrics.ClassificationReport(
                confusion=rep.confusion, per_class_f1=rep.per_class_f1, f1_macro=rep.f1_macro,
                f1_micro=0.5, accuracy=0.25, classes_scored=rep.classes_scored,
            )


class TestAttributeMetrics:
    def test_perfect(self):
        rng = np.random.default_rng(2)
        truth = rng.uniform(1, 7, size=(10, 3))
        rep = attribute_metrics(truth, truth)
        assert abs(rep.ccc_arousal - 1.0) < 1e-12
        assert abs(rep.ccc_valence - 1.0) < 1e-12
        assert abs(rep.ccc_dominance - 1.0) < 1e-12
        assert abs(rep.ccc_avg - 1.0) < 1e-12

    def test_constant_at_means_gives_zero(self):
        rng = np.random.default_rng(3)
        truth = rng.uniform(1, 7, size=(10, 3))
        pred = np.tile(truth.mean(axis=0), (10, 1))
        rep = attribute_metrics(pred, truth)
        for v in (rep.ccc_arousal, rep.ccc_valence, rep.ccc_dominance):
            assert abs(v) < 1e-12

    def test_reference_row_average_and_rounding(self):
        # averaging/format check: mean(0.653, 0.670, 0.604) renders as 0.642
        rep = AttributeReport(ccc_arousal=0.670, ccc_valence=0.653, ccc_dominance=0.604)
        assert abs(rep.ccc_avg - 0.6423333333333333) < 1e-12
        row = MetricsReport(attributes=rep).csv_row("baseline")
        assert row == "baseline,,,,0.653,0.670,0.604,0.642"


class TestCsvAndJson:
    def test_header_order(self):
        assert metrics.csv_header() == "method,f1_macro,f1_micro,acc,val,aro,dom,avg"

    def test_full_row_shape(self):
        truth = ["A", "C", "D", "F"]
        rep = classification_metrics(truth, truth)
        att = AttributeReport(1.0, 1.0, 1.0)
        row = MetricsReport(classification=rep, attributes=att).csv_row("m")
        assert row == "m,1.000,1.000,1.000,1.000,1.000,1.000,1.000"

    def test_json_round_trip(self, tmp_path):
        import json

        truth = ["A", "C"] * 3
        rep = MetricsReport(classification=classification_metrics(truth, truth))
        dataio.write_json(tmp_path / "report.json", rep.to_dict())
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["classification"]["accuracy"] == 1.0


class TestBinnedCcc:
    def test_single_full_range_bin_equals_global(self):
        rng = np.random.default_rng(4)
        truth = rng.uniform(1, 7, size=200)
        pred = truth + rng.normal(scale=0.4, size=200)
        bins = binned_ccc(pred, truth, [1.0, 7.0])
        assert len(bins) == 1
        assert bins[0].count == 200
        assert bins[0].ccc == metrics.ccc(pred, truth)

    def test_perfect_prediction_per_bin(self):
        rng = np.random.default_rng(5)
        truth = rng.uniform(1, 7, size=300)
        bins = binned_ccc(truth, truth, [1, 3, 5, 7])
        for b in bins:
            assert b.count >= 2
            assert abs(b.ccc - 1.0) < 1e-12

    def test_underfilled_bin_reports_insufficient(self):
        truth = [1.5, 1.6, 1.7, 6.5]
        pred = [1.4, 1.7, 1.6, 6.0]
        bins = binned_ccc(pred, truth, [1, 3, 5, 7])
        assert bins[0].ccc is not None
        assert bins[1].count == 0 and bins[1].ccc is None
        assert bins[2].count == 1 and bins[2].ccc is None
        assert bins[2].to_dict()["ccc"] == "insufficient"

    def test_last_bin_right_closed(self):
        truth = [6.0, 7.0, 6.5]
        pred = [6.1, 6.9, 6.6]
        bins = binned_ccc(pred, truth, [5, 7])
        assert bins[0].count == 3  # value 7.0 lands in the final bin
        assert bins[0].label == "[5, 7]"

    def test_range_restriction_attenuates_ccc(self):
        rng = np.random.default_rng(42)
        truth = rng.uniform(1, 7, size=10_000)
        pred = truth + rng.normal(scale=0.5, size=10_000)
        overall = metrics.ccc(pred, truth)
        for b in binned_ccc(pred, truth, [1, 3, 5, 7]):
            assert b.count >= 2
            assert b.ccc < overall

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            binned_ccc([1.0, 2.0], [1.0, 2.0], [3, 3])

    @pytest.mark.parametrize("edges", [[float("nan"), 3, 5, 7], [1, 3, 5, float("inf")],
                                       [float("-inf"), 3, 5, 7]])
    def test_non_finite_edges_rejected(self, edges):
        with pytest.raises(ValueError, match="finite"):
            binned_ccc([1.0, 2.0], [1.0, 2.0], edges)


class TestPredictionStats:
    def test_constant(self):
        assert prediction_stats([2.0, 2.0, 2.0]) == (2.0, 0.0)

    def test_two_points(self):
        assert prediction_stats([1.0, 3.0]) == (2.0, 1.0)

    def test_format_two_decimals(self):
        assert format_mean_std(3.78, 1.0) == "3.78±1.00"
        assert format_mean_std(3.827, 0.916) == "3.83±0.92"

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
        st.floats(min_value=-10, max_value=10),
    )
    def test_translation_behavior(self, values, shift):
        m1, s1 = prediction_stats(values)
        m2, s2 = prediction_stats([v + shift for v in values])
        assert abs(m2 - (m1 + shift)) < 1e-9
        assert abs(s2 - s1) < 1e-9


class TestCompareModels:
    def test_identical_predictions_empty_improved_set(self):
        pred = [1.0, 2.0, 3.0]
        rep = compare_models(pred, pred, [1.5, 2.5, 3.5], ["A", "C", "D"])
        assert rep.improved_count == 0
        assert all(v == 0.0 for v in rep.improved_shares.values())
        assert rep.full_shares["A"] == pytest.approx(1 / 3)

    def test_all_improved_when_a_is_exact(self):
        truth = [1.0, 2.0, 3.0, 4.0]
        pred_b = [2.0, 3.0, 4.0, 5.0]
        emotions = ["A", "A", "C", "D"]
        rep = compare_models(truth, pred_b, truth, emotions)
        assert rep.improved_count == 4
        assert rep.improved_shares == rep.full_shares

    def test_four_sample_hand_case(self):
        truth = [2.0, 2.0, 2.0, 2.0]
        pred_a = [2.1, 2.5, 1.0, 2.0]  # SE: .01, .25, 1.0, 0.0
        pred_b = [2.3, 2.4, 1.5, 2.0]  # SE: .09, .16, .25, 0.0
        rep = compare_models(pred_a, pred_b, truth, ["A", "C", "D", "F"])
        assert rep.improved_ids == (0,)  # only sample 0 strictly better; tie excluded
        assert rep.improved_shares["A"] == 1.0
        assert rep.improved_shares["C"] == 0.0

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(6)
        truth = rng.uniform(1, 7, size=40)
        a = truth + rng.normal(scale=0.5, size=40)
        b = truth + rng.normal(scale=0.5, size=40)
        emotions = [CODES[i] for i in rng.integers(0, 8, size=40)]
        fwd = set(compare_models(a, b, truth, emotions).improved_ids)
        rev = set(compare_models(b, a, truth, emotions).improved_ids)
        ties = {i for i in range(40) if (a[i] - truth[i]) ** 2 == (b[i] - truth[i]) ** 2}
        assert fwd | rev | ties == set(range(40))
        assert fwd & rev == set()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            compare_models([1.0], [1.0, 2.0], [1.0, 2.0], ["A", "C"])


class TestValidation:
    def test_attribute_range(self):
        with pytest.raises(ValueError, match="out of range"):
            metrics.validate_attributes([1.0, 7.5, 3.0])
        assert metrics.validate_attributes([1, 7, 4.2]) == (1.0, 7.0, 4.2)

    def test_clamp(self):
        clamped, changed = metrics.clamp_attributes([0.5, 3.0, 9.9])
        assert clamped == (1.0, 3.0, 7.0)
        assert changed
        same, changed = metrics.clamp_attributes([2.0, 3.0, 4.0])
        assert same == (2.0, 3.0, 4.0)
        assert not changed

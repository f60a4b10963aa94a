"""The pair runner's verdicts, on synthetic perfbench result lines."""

from ab import compare, judge

END_TO_END = [
    {"name": "decisions_per_s", "better": "higher", "bound": 0.25},
    {"name": "decision_ms_p50", "better": "lower", "bound": 0.25},
]
PARENT_RATE = [100.0, 101.0, 99.0]
PARENT_MS = [50.0, 50.5, 49.5]


def result(rate, ms, correct=True, failed=0, attempted=2):
    """One ``perfbench/run.py --trace 0`` result line."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "decisions_per_s": {"value": rate, "unit": "decisions/s"},
            "decision_ms_p50": {"value": ms, "unit": "ms"},
        },
    }


def runs(rates, ms, **fields):
    return [result(r, m, **fields) for r, m in zip(rates, ms)]


def verdicts(rows):
    return {name: row["verdict"] for name, row in rows}


PARENT = runs(PARENT_RATE, PARENT_MS)


class TestRegression:
    def test_higher_metric_drifting_down_past_its_bound(self):
        rows, failures = compare(
            END_TO_END, PARENT, runs([r * 0.7 for r in PARENT_RATE], PARENT_MS)
        )
        assert verdicts(rows) == {"decisions_per_s": "regression", "decision_ms_p50": "ok"}
        assert failures == ["decisions_per_s regressed past its bound 0.25"]

    def test_lower_metric_drifting_up_past_its_bound(self):
        rows, failures = compare(
            END_TO_END, PARENT, runs(PARENT_RATE, [m * 1.3 for m in PARENT_MS])
        )
        assert verdicts(rows) == {"decisions_per_s": "ok", "decision_ms_p50": "regression"}
        assert failures == ["decision_ms_p50 regressed past its bound 0.25"]

    def test_drift_inside_the_bound_is_ok(self):
        change = runs([r * 0.9 for r in PARENT_RATE], [m * 1.1 for m in PARENT_MS])
        rows, failures = compare(END_TO_END, PARENT, change)
        assert verdicts(rows) == {"decisions_per_s": "ok", "decision_ms_p50": "ok"}
        assert failures == []
        assert [row["wins"] for _, row in rows] == [0, 0]

    def test_gain_past_the_bound_is_not_a_regression(self):
        rows, failures = compare(
            END_TO_END, PARENT, runs([r * 2 for r in PARENT_RATE], [m / 2 for m in PARENT_MS])
        )
        assert verdicts(rows) == {"decisions_per_s": "ok", "decision_ms_p50": "ok"}
        assert failures == []

    def test_deterministic_sim_metric_moving_at_all_regresses(self):
        same = [218.5485] * 3
        assert judge(same, same, "lower", 1e-06)["verdict"] == "ok"
        assert judge(same, [218.55] * 3, "lower", 1e-06)["verdict"] == "regression"


class TestUnresolved:
    def test_parent_spread_wider_than_the_bound(self):
        row = judge([60.0, 80.0, 120.0, 140.0], [90.0, 95.0, 150.0, 100.0], "higher", 0.25)
        assert row["verdict"] == "unresolved"

    def test_wide_spread_but_every_change_run_better(self):
        row = judge([60.0, 80.0, 120.0, 140.0], [150.0, 160.0, 170.0, 155.0], "higher", 0.25)
        assert row["verdict"] == "ok"

    def test_unresolved_does_not_fail_the_run(self):
        wide = runs([60.0, 100.0, 140.0], PARENT_MS)  # IQR ÷ median = 0.4
        rows, failures = compare(END_TO_END, wide, runs([90.0, 95.0, 150.0], PARENT_MS))
        assert verdicts(rows)["decisions_per_s"] == "unresolved"
        assert failures == []


class TestClaimRule:
    PARENT = [100.0 + 0.1 * i for i in range(10)]

    def change(self, losses):
        return [p - 5.0 if i < losses else p + 5.0 for i, p in enumerate(self.PARENT)]

    def test_nine_of_ten_wins_hold(self):
        row = judge(self.PARENT, self.change(losses=1), "higher", 0.25)
        assert (row["wins"], row["claim"]) == (9, True)

    def test_eight_of_ten_wins_do_not(self):
        row = judge(self.PARENT, self.change(losses=2), "higher", 0.25)
        assert (row["wins"], row["claim"]) == (8, False)

    def test_gap_inside_the_parent_iqr_does_not(self):
        row = judge(self.PARENT, [p + 0.01 for p in self.PARENT], "higher", 0.25)
        assert (row["wins"], row["claim"]) == (10, False)

    def test_lower_is_better_direction(self):
        row = judge(self.PARENT, [p - 5.0 for p in self.PARENT], "lower", 0.25)
        assert (row["wins"], row["claim"]) == (10, True)

    def test_three_pairs_never_claim(self):
        row = judge(PARENT_RATE, [r * 2 for r in PARENT_RATE], "higher", 0.25)
        assert (row["wins"], row["claim"]) == (3, False)


class TestFailedRuns:
    def test_an_incorrect_run_fails(self):
        change = runs(PARENT_RATE, PARENT_MS)
        change[1]["correct"] = False
        rows, failures = compare(END_TO_END, PARENT, change)
        assert verdicts(rows) == {"decisions_per_s": "ok", "decision_ms_p50": "ok"}
        assert failures == ["1 incorrect run(s)"]

    def test_a_larger_failed_share_fails(self):
        rows, failures = compare(END_TO_END, PARENT, runs(PARENT_RATE, PARENT_MS, failed=1))
        assert failures == ["failed share 0.5000 > parent's 0.0000"]

    def test_an_equal_failed_share_passes(self):
        both = runs(PARENT_RATE, PARENT_MS, failed=1)
        assert compare(END_TO_END, both, both)[1] == []

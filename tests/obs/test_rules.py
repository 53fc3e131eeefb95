"""Unit tests for declarative alert rules (repro.obs.rules)."""

import json

import pytest

from repro.exceptions import ValidationError
from repro.obs.rules import AlertRule, RuleState
from repro.obs.windows import SeriesWindows


def _series_with(values, width=1.0, history=4):
    """One closed window per value, at consecutive virtual times."""
    series = SeriesWindows("sig", width=width, history=history)
    for index, value in enumerate(values):
        if value is not None:
            series.observe(index * width, value)
        series.close_window()
    return series


class TestAlertRuleValidation:
    def test_defaults_build(self):
        rule = AlertRule(name="r", signal="sig")
        assert rule.kind == "threshold"
        assert rule.stat == "count"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"signal": ""},
            {"kind": "bogus"},
            {"stat": "median"},
            {"op": "=="},
            {"severity": "catastrophic"},
            {"window": 0},
            {"for_windows": 0},
            {"clear_windows": 0},
            {"kind": "absence", "stale_after": 0.0},
            {"kind": "mean_shift", "warmup": 1},
            {"kind": "mean_shift", "drift_h": 0.0},
            {"kind": "mean_shift", "drift_k": -0.1},
        ],
    )
    def test_invalid_declarations_rejected(self, kwargs):
        base = {"name": "r", "signal": "sig"}
        base.update(kwargs)
        with pytest.raises(ValidationError):
            AlertRule(**base)

    def test_dict_round_trip(self):
        # to_dict is the health.json rule table: JSON-safe, and every
        # field a constructor argument.
        rule = AlertRule(
            name="r",
            signal="sig",
            kind="rate_of_change",
            stat="sum",
            op=">",
            value=2.0,
            window=3,
            severity="critical",
        )
        clone = AlertRule(**json.loads(json.dumps(rule.to_dict())))
        assert clone == rule

    def test_quantile_stats_flagged(self):
        assert AlertRule(name="r", signal="s", stat="p95").needs_quantiles
        assert not AlertRule(name="r", signal="s").needs_quantiles


class TestThreshold:
    def test_breaches_on_count(self):
        series = _series_with([1.0])
        state = RuleState(AlertRule(name="r", signal="sig"))
        result = state.evaluate(series.view(1), 1.0, series.last_sample_t)
        assert result.breached
        assert result.value == 1.0

    def test_value_stat_none_cannot_breach(self):
        # An empty window yields mean=None: "no data" is not "breach".
        series = _series_with([None])
        rule = AlertRule(
            name="r", signal="sig", stat="mean", op=">", value=0.0
        )
        state = RuleState(rule)
        result = state.evaluate(series.view(1), 1.0, series.last_sample_t)
        assert not result.breached
        assert result.value is None

    def test_sliding_window_accumulates(self):
        rule = AlertRule(
            name="r", signal="sig", stat="count", op=">=", value=3.0,
            window=2,
        )
        series = SeriesWindows("sig", width=1.0, history=2)
        state = RuleState(rule)
        series.observe(0.1, 1.0)
        series.observe(0.2, 1.0)
        series.close_window()
        assert not state.evaluate(series.view(2), 1.0, 0.2).breached
        series.observe(1.1, 1.0)
        series.close_window()
        assert state.evaluate(series.view(2), 2.0, 1.1).breached


class TestRateOfChange:
    def test_first_observation_never_breaches(self):
        rule = AlertRule(
            name="r", signal="sig", kind="rate_of_change",
            stat="sum", op=">=", value=1.0,
        )
        state = RuleState(rule)
        series = _series_with([5.0])
        result = state.evaluate(series.view(1), 1.0, series.last_sample_t)
        assert not result.breached

    def test_delta_between_closes(self):
        rule = AlertRule(
            name="r", signal="sig", kind="rate_of_change",
            stat="sum", op=">=", value=3.0,
        )
        state = RuleState(rule)
        series = SeriesWindows("sig", width=1.0, history=1)
        series.observe(0.5, 1.0)
        series.close_window()
        state.evaluate(series.view(1), 1.0, 0.5)
        series.observe(1.5, 5.0)
        series.close_window()
        result = state.evaluate(series.view(1), 2.0, 1.5)
        assert result.breached
        assert result.value == pytest.approx(4.0)


class TestAbsence:
    def _rule(self):
        return AlertRule(
            name="r", signal="sig", kind="absence", stale_after=2.0
        )

    def test_never_seen_signal_never_breaches(self):
        state = RuleState(self._rule())
        series = _series_with([None, None])
        assert not state.evaluate(series.view(1), 2.0, None).breached

    def test_fires_after_silence_budget(self):
        state = RuleState(self._rule())
        assert not state.evaluate(
            _series_with([1.0]).view(1), 2.0, 0.0
        ).breached
        result = state.evaluate(_series_with([1.0]).view(1), 3.5, 0.0)
        assert result.breached
        assert result.value == pytest.approx(3.5)


class TestMeanShift:
    def _rule(self, warmup=3, h=3.0, k=0.5):
        return AlertRule(
            name="r", signal="sig", kind="mean_shift", stat="mean",
            warmup=warmup, drift_h=h, drift_k=k,
        )

    def _drive(self, state, values):
        results = []
        for index, value in enumerate(values):
            series = _series_with([value])
            results.append(
                state.evaluate(series.view(1), index + 1.0, float(index))
            )
        return results

    def test_warmup_never_breaches(self):
        state = RuleState(self._rule(warmup=3))
        results = self._drive(state, [1.0, 100.0, -50.0])
        assert not any(r.breached for r in results)

    def test_shift_accumulates_and_decays(self):
        state = RuleState(self._rule(warmup=3, h=3.0, k=0.5))
        # Stable reference, then a sustained upward shift.
        self._drive(state, [1.0, 1.1, 0.9])
        (shifted,) = self._drive(state, [5.0])
        assert shifted.breached
        # Back to the reference level: the CUSUM decays by k per
        # window and the rule stops breaching.
        recovered = self._drive(state, [1.0] * 80)
        assert not recovered[-1].breached

    def test_constant_warmup_sigma_floored(self):
        state = RuleState(self._rule(warmup=3, h=3.0))
        self._drive(state, [2.0, 2.0, 2.0])
        result = self._drive(state, [2.0])[0]
        assert not result.breached


class TestRuleStateCheckpoint:
    def test_state_round_trip_resumes_cusum(self):
        rule = AlertRule(
            name="r", signal="sig", kind="mean_shift", stat="mean",
            warmup=2, drift_h=2.0,
        )
        state = RuleState(rule)
        for index, value in enumerate([1.0, 1.2, 4.0]):
            series = _series_with([value])
            state.evaluate(series.view(1), index + 1.0, float(index))
        saved = json.loads(json.dumps(state.state_dict()))
        clone = RuleState(rule)
        clone.load_state_dict(saved)
        assert clone.state_dict() == state.state_dict()
        series = _series_with([4.0])
        left = state.evaluate(series.view(1), 5.0, 4.0)
        right = clone.evaluate(series.view(1), 5.0, 4.0)
        assert left == right

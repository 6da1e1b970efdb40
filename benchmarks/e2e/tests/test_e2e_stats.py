"""The measuring rules: percentile guard, spread, verdicts."""

import pytest

from stats import TooFewSamples, percentile, summarize, verdict, worsening


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 0.50) == 500
    assert percentile(values, 0.99) == 990


def test_percentile_refuses_a_tail_of_fewer_than_ten_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)   # 9 beyond
    assert percentile(list(range(1000)), 0.99) == 989  # exactly 10 beyond
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 15, 0.50)         # 7 beyond the median


def test_summarize_reports_iqr_over_median():
    summary = summarize([10.0, 10.0, 10.0, 10.0, 12.0, 8.0, 10.0, 10.0])
    assert summary["median"] == 10.0
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / 10.0
    )


def test_a_single_run_has_unknown_spread_and_resolves_nothing():
    single = summarize([3.0])
    assert single["spread"] is None
    assert verdict(single, summarize([3.0, 3.0, 3.0]), "lower", 0.05) == "unresolved"


def test_worsening_respects_direction():
    assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)


def _side(median, spread=0.0):
    return {"median": median, "spread": spread}


def test_verdicts():
    assert verdict(_side(100), _side(103), "lower", 0.05) == "within-bound"
    assert verdict(_side(100), _side(110), "lower", 0.05) == "regressed"
    assert verdict(_side(100), _side(90), "lower", 0.05) == "improved"
    assert verdict(_side(100), _side(90), "higher", 0.05) == "regressed"


def test_spread_wider_than_bound_is_unresolved_never_unchanged():
    assert verdict(_side(100, 0.08), _side(100), "lower", 0.05) == "unresolved"
    assert verdict(_side(100), _side(150, 0.06), "lower", 0.05) == "unresolved"


def test_per_op_median_votes_out_what_hit_an_op_in_one_round_only():
    from stats import per_op_median

    clean = [10, 20, 30, 40]
    burst_early = [10, 900, 30, 40]     # a pause landed on op 1 ...
    burst_late = [10, 20, 30, 700]      # ... and on op 3 in another round
    assert per_op_median([clean, burst_early, burst_late]) == clean
    assert per_op_median([clean]) == clean
    assert per_op_median([[1, 2], [3, 4]]) == [2.0, 3.0]   # even: mean of the middle two
    with pytest.raises(ValueError):
        per_op_median([[1, 2], [1]])

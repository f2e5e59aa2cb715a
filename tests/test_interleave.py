"""The statistics of tools/interleave.py; no benchmark runs."""

import pytest

import interleave
from interleave import ratio_stats


def test_percentiles_are_in_microseconds_per_side():
    base = [1000.0 * (k + 1) for k in range(100)]  # 1 to 100 us
    s = ratio_stats(base, [2.0 * b for b in base])
    assert s["base"] == pytest.approx((50.5, 95.05))
    assert s["change"] == pytest.approx((101.0, 190.1))
    assert s["ratio"] == 2.0


def test_ratio_is_the_median_of_per_input_ratios():
    # the sides' medians give 1.0, but three of five inputs got 20% faster
    base = [100.0, 200.0, 300.0, 400.0, 500.0]
    change = [80.0, 160.0, 300.0, 500.0, 400.0]
    s = ratio_stats(base, change)
    assert s["base"][0] == s["change"][0] == 0.3
    assert s["ratio"] == 0.8


def test_won_is_the_share_of_inputs_the_change_made_faster():
    # a tie is not a win; the ratio median alone cannot tell 3 wins of 5 from 5 of 5
    base = [100.0, 200.0, 300.0, 400.0, 500.0]
    s = ratio_stats(base, [80.0, 160.0, 300.0, 500.0, 400.0])
    assert s["won"] == 0.6
    assert ratio_stats(base, [0.5 * b for b in base])["won"] == 1.0
    assert ratio_stats(base, base)["won"] == 0.0


def test_pairs_stay_with_their_input():
    s = ratio_stats([100.0, 1000.0, 100.0], [50.0, 500.0, 50.0])
    assert s["ratio"] == 0.5


@pytest.mark.parametrize("base, change", [([], []), ([1.0], [1.0, 2.0]), ([0.0], [1.0]), ([1.0], [-1.0])])
def test_rejects_malformed_input(base, change):
    with pytest.raises(ValueError):
        ratio_stats(base, change)


def test_one_result_per_workload_and_seed_in_order():
    import cubicmoment

    pools = {("a", 1): [[1, 0, 0, 1, 0, 1, 0, 0, 0, 0]] * 2, ("a", 2): [[1, 0, 0, 1, 0, 1, 0, 1, 1, 0]] * 3}
    pools[("b", 1)] = [[1, 0, 0, 0, 0, 1, 0, 0, 0, 0]]  # a singular M(1): a typed rejection is timed too
    generate = lambda workload, seed: pools[workload, seed]  # noqa: E731
    pairs = [("a", 1), ("a", 2), ("b", 1)]
    results = interleave.time_pairs((cubicmoment, cubicmoment), pairs, generate, 0.0)
    assert [(w, s, n) for w, s, n, _ in results] == [("a", 1, 2), ("a", 2, 3), ("b", 1, 1)]
    assert all(stats["ratio"] > 0 for *_, stats in results)

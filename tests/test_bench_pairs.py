"""The statistics of tools/bench_pairs.py; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
pair_stats = bench_pairs.pair_stats

BASE = [330.0, 340.0, 310.0, 335.0, 345.0, 320.0, 338.0, 332.0, 328.0, 336.0]


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_holds():
    change = [b - 50.0 for b in BASE]
    s = pair_stats(BASE, change, "lower")
    assert (s["wins"], s["ties"], s["losses"]) == (10, 0, 0)
    assert s["gain_holds"]


def test_direction_higher():
    s = pair_stats([1.0] * 10, [2.0] * 10, "higher")
    assert s["wins"] == 10 and s["gain_holds"]
    s = pair_stats([1.0] * 10, [2.0] * 10, "lower")
    assert s["losses"] == 10 and not s["gain_holds"]


def test_ties_count_for_neither_side():
    # 8 wins and 2 ties of 10 pairs is below nine tenths
    change = [b - 50.0 for b in BASE[:8]] + BASE[8:]
    s = pair_stats(BASE, change, "lower")
    assert (s["wins"], s["ties"], s["losses"]) == (8, 2, 0)
    assert not s["gain_holds"]


def test_nine_of_ten_wins_suffices():
    change = [b - 50.0 for b in BASE[:9]] + [BASE[9] + 1.0]
    s = pair_stats(BASE, change, "lower")
    assert (s["wins"], s["losses"]) == (9, 1)
    assert s["gain_holds"]


def test_fewer_than_ten_pairs_never_hold():
    s = pair_stats(BASE[:9], [b - 50.0 for b in BASE[:9]], "lower")
    assert s["wins"] == 9
    assert not s["gain_holds"]


def test_gap_must_exceed_base_spread():
    # every pair wins, but by less than the base's interquartile distance
    q1, _, q3 = bench_pairs.quartiles(BASE)
    change = [b - 0.5 * (q3 - q1) for b in BASE]
    s = pair_stats(BASE, change, "lower")
    assert s["wins"] == 10
    assert not s["gain_holds"]


@pytest.mark.parametrize("base, change, better", [([], [], "lower"), ([1.0], [1.0, 2.0], "lower"), ([1.0], [2.0], "up")])
def test_rejects_malformed_input(base, change, better):
    with pytest.raises(ValueError):
        pair_stats(base, change, better)

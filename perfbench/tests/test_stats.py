"""The reporting rules: tail percentile, self time, span coverage."""

import pytest

from perfbench import stats


class TestTailRule:
    def test_needs_ten_samples_beyond(self):
        # 100 samples: p90 leaves exactly 10 beyond; 99 leave only 9.
        assert stats.beyond(100, 90.0) == 10
        assert stats.beyond(99, 90.0) == 9
        assert stats.tail_percentile(100) == 90.0
        assert stats.tail_percentile(99) == 50.0

    def test_highest_ladder_rung_wins(self):
        assert stats.tail_percentile(100_000) == 90.0
        assert stats.tail_percentile(20) == 50.0

    def test_too_few_samples(self):
        assert stats.tail_percentile(10) is None
        summary = stats.summarize([3.0, 1.0, 2.0])
        assert summary["tail"] == 3.0
        assert summary["tail_pct"] == 100.0

    def test_summary_counts_and_values(self):
        values = [float(i) for i in range(1, 1001)]
        summary = stats.summarize(reversed(values))
        assert summary["n"] == 1000
        assert summary["p50"] == 500.0
        assert summary["tail_pct"] == 90.0
        assert summary["tail"] == 900.0
        assert summary["tail_beyond"] == 100
        assert sum(1 for v in values if v > summary["tail"]) == 100
        # p99 has 10 samples beyond it, p99.9 only one.
        assert summary["higher"] == {"p95": 950.0, "p99": 990.0}

    def test_nearest_rank(self):
        assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
        assert stats.nearest_rank([5.0], 99.0) == 5.0
        with pytest.raises(ValueError):
            stats.nearest_rank([], 50.0)


class TestSelfTime:
    def test_leaf_self_time_is_duration(self):
        assert stats.self_times([(1, 0, 0.0, 2.0)]) == {1: 2.0}

    def test_children_are_subtracted(self):
        spans = [(1, 0, 0.0, 10.0),
                 (2, 1, 1.0, 3.0),
                 (3, 1, 5.0, 6.0),
                 (4, 2, 1.5, 2.0)]          # grandchild: only 2 loses it
        selfs = stats.self_times(spans)
        assert selfs[1] == pytest.approx(7.0)
        assert selfs[2] == pytest.approx(1.5)
        assert selfs[3] == pytest.approx(1.0)
        assert selfs[4] == pytest.approx(0.5)

    def test_overlapping_children_counted_once(self):
        # Children on other threads may overlap each other and run past
        # the parent's end; only the covered part of the parent counts.
        spans = [(1, 0, 0.0, 10.0),
                 (2, 1, 2.0, 6.0),
                 (3, 1, 4.0, 8.0),
                 (4, 1, 9.0, 12.0)]
        assert stats.self_times(spans)[1] == pytest.approx(3.0)

    def test_sum_of_self_times_is_root_duration(self):
        spans = [(1, 0, 0.0, 8.0), (2, 1, 1.0, 5.0), (3, 2, 2.0, 3.0),
                 (4, 1, 6.0, 7.0)]
        assert sum(stats.self_times(spans).values()) == pytest.approx(8.0)


class TestCoverage:
    def test_merge_and_cover(self):
        merged = stats.merge_intervals([(5, 6), (0, 2), (1, 3), (4, 4)])
        assert merged == [(0, 3), (5, 6)]
        assert stats.covered([(0, 10)], merged) == 4
        assert stats.covered([(2, 5.5), (5.5, 7)], merged) == 2

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifimob.coverage_metrics import (
    CoverageContractError,
    CoverageSeries,
    coverage_histogram,
    entropy_bits,
    time_coverage,
)


def test_worked_example():
    assert time_coverage(100, 80) == 0.80


def test_no_known_routers():
    assert time_coverage(50, 0) == 0.0


def test_full_coverage():
    assert time_coverage(50, 50) == 1.0


def test_no_data_is_undefined():
    assert time_coverage(0, 0) is None


def test_covered_exceeding_data_is_contract_violation():
    with pytest.raises(CoverageContractError):
        time_coverage(10, 11)
    with pytest.raises(CoverageContractError):
        time_coverage(-1, 0)


def test_daily_mean_two_users():
    series = CoverageSeries()
    series.add("a", 3, 10, 5)
    series.add("b", 3, 10, 10)
    assert series.daily_means() == {3: pytest.approx(0.75)}


def test_daily_mean_single_user():
    series = CoverageSeries()
    series.add("a", 0, 10, 8)
    assert series.daily_means() == {0: pytest.approx(0.8)}


def test_daily_mean_absent_without_contributors():
    series = CoverageSeries()
    series.add("a", 0, 0, 0)  # no data, excluded
    assert series.daily_means() == {}
    assert series.per_user_day == {}


def test_entropy_degenerate():
    assert entropy_bits(["home"] * 7) == 0.0


def test_entropy_uniform_four():
    assert entropy_bits(["a", "b", "c", "d"]) == pytest.approx(2.0, abs=1e-12)


def test_entropy_half_quarter_quarter():
    labels = ["a", "a", "b", "c"]
    assert entropy_bits(labels) == pytest.approx(1.5, abs=1e-12)


def test_entropy_empty_absent():
    assert entropy_bits([]) is None


@pytest.mark.parametrize("k", [2, 3, 7, 16, 100, 1024])
def test_entropy_uniform_k(k):
    labels = list(range(k))
    assert entropy_bits(labels) == pytest.approx(math.log2(k), abs=1e-12)


@given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=200), st.randoms())
@settings(max_examples=80, deadline=None)
def test_entropy_permutation_invariant_and_bounded(labels, rnd):
    h = entropy_bits(labels)
    shuffled = list(labels)
    rnd.shuffle(shuffled)
    assert entropy_bits(shuffled) == pytest.approx(h, abs=1e-12)
    k = len(set(labels))
    assert -1e-12 <= h <= math.log2(k) + 1e-12


@given(st.integers(0, 144), st.integers(0, 144))
def test_coverage_always_in_unit_interval(with_data, covered):
    if covered > with_data:
        with pytest.raises(CoverageContractError):
            time_coverage(with_data, covered)
    else:
        cov = time_coverage(with_data, covered)
        if with_data == 0:
            assert cov is None
        else:
            assert 0.0 <= cov <= 1.0


def test_histogram_bins_and_top_edge():
    counts = coverage_histogram([0.0, 0.05, 0.1, 0.95, 1.0])
    assert len(counts) == 10
    assert counts[0] == 2  # 0.0 and 0.05
    assert counts[1] == 1  # 0.1 lands in its own bin
    assert counts[9] == 2  # 0.95 and the inclusive 1.0
    with pytest.raises(ValueError):
        coverage_histogram([1.2])

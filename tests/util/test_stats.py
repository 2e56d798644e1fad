"""Statistics helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import geometric_mean, percentile, summarize


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_single_sample(self):
        s = summarize([7.0])
        assert s.mean == s.median == s.minimum == s.maximum == 7.0
        assert s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_bounds_invariant(self, samples):
        s = summarize(samples)
        eps = 1e-6  # float accumulation slack in the mean
        assert s.minimum <= s.median <= s.maximum
        assert s.minimum - eps <= s.mean <= s.maximum + eps
        assert s.minimum <= s.p95 <= s.maximum


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_linear_interpolation(self):
        # NumPy's default: midway between the two order statistics.
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
        assert percentile([float(i) for i in range(1, 11)], 50) == pytest.approx(5.5)
        assert percentile([float(i) for i in range(1, 11)], 95) == pytest.approx(9.55)

    def test_single_sample_every_q(self):
        for q in (0, 25, 50, 95, 100):
            assert percentile([42.0], q) == 42.0

    def test_extremes_are_min_and_max(self):
        samples = [5.0, 1.0, 9.0, 3.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 9.0

    def test_q_out_of_range_rejected(self):
        for q in (-0.1, 100.1, 200):
            with pytest.raises(ValueError, match=r"\[0, 100\]"):
                percentile([1.0, 2.0], q)

    def test_nan_samples_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            percentile([1.0, float("nan")], 50)

    def test_order_invariant(self):
        assert percentile([3.0, 1.0, 2.0], 95) == percentile([1.0, 2.0, 3.0], 95)

    def test_any_iterable(self):
        assert percentile((x for x in [3.0, 1.0, 2.0]), 50) == 2.0
        assert percentile(range(1, 6), 50) == 3.0

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_within_bounds(self, samples, q):
        assert min(samples) <= percentile(samples, q) <= max(samples)


class TestSummarizeNaN:
    def test_nan_samples_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            summarize([1.0, float("nan"), 3.0])


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, samples):
        g = geometric_mean(samples)
        assert min(samples) - 1e-9 <= g <= max(samples) + 1e-9


# A sample with many repeated values, to exercise ties at the
# interpolation neighbours.
_FINITE = st.floats(min_value=-1e6, max_value=1e6)
_SAMPLES = st.one_of(
    st.lists(_FINITE, min_size=1, max_size=60),
    st.lists(_FINITE, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
    ),
    _FINITE.map(lambda x: [x]),
)
_Q = st.one_of(
    st.sampled_from([0, 100, 0.0, 50.0, 95.0, 99.0, 100.0]),
    st.floats(min_value=0.0, max_value=100.0),
)


class TestAgainstNumpy:
    """The pure-Python helpers reproduce NumPy's defaults (the test may
    import NumPy; the library does not)."""

    @given(_SAMPLES, _Q)
    def test_percentile_is_numpys_bit_for_bit(self, samples, q):
        assert percentile(samples, q) == float(np.percentile(samples, q))

    @given(_SAMPLES)
    def test_summarize_matches_numpy(self, samples):
        s = summarize(samples)
        arr = np.asarray(samples, dtype=float)
        assert s.count == arr.size
        assert s.minimum == float(arr.min())
        assert s.maximum == float(arr.max())
        assert s.median == float(np.median(arr))
        assert s.p95 == float(np.percentile(arr, 95))
        # The mean is an exactly rounded fsum where NumPy sums pairwise;
        # they may part in the last ulp, or by more where NumPy itself
        # loses digits to cancellation — hence the slack of the scale.
        slack = 1e-12 * float(np.abs(arr).max())
        assert s.mean == pytest.approx(float(arr.mean()), rel=1e-12, abs=slack)
        assert s.std == pytest.approx(float(arr.std()), rel=1e-12, abs=slack)

    def test_lerp_from_the_upper_neighbour(self):
        # t >= 0.5 interpolates down from b, as NumPy's _lerp does; the
        # naive a + (b - a) * t is one ulp off for this sample.
        a, b = 0.1, 0.7
        assert a + (b - a) * 0.5 == 0.4
        assert percentile([a, b], 50) == float(np.percentile([a, b], 50))
        assert percentile([a, b], 50) == 0.39999999999999997

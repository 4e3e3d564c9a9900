"""Property tests of the CSV formats: a path/observation table of any
non-NaN floats and a spike bundle of any 0/1 array read back bit for bit.
No solver runs here."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from viterbipar import io as vio


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 5)),
              elements=st.floats(allow_nan=False)))
def test_table_csv_roundtrip_bit_for_bit(arr):
    # the elements include +-0.0, subnormals and +-inf
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        vio.write_table_csv(path, arr, "x")
        back = vio.read_table_csv(path, "x")
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([np.float64, np.int64, np.bool_]).flatmap(
    lambda dtype: arrays(dtype, st.tuples(st.integers(1, 30), st.integers(1, 4), st.integers(1, 6)),
                         elements=st.sampled_from([0, 1]).map(dtype))))
def test_spike_bundle_roundtrip(spikes):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = vio.write_spike_bundle(Path(tmp) / "bundle", spikes, bin_width=0.02)
        back, rates, width = vio.read_spike_bundle(manifest)
    assert back.dtype == np.float64 and back.shape == spikes.shape
    assert np.array_equal(back, spikes.astype(np.float64))
    np.testing.assert_array_equal(rates, back.mean(axis=(0, 1)))
    assert width == 0.02

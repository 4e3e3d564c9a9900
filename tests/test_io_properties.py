"""Property tests of the CSV formats: a path/observation table of any
non-NaN floats and a spike bundle of any 0/1 array read back bit for bit,
and the bulk writers and readers match the csv-module references in
``conftest`` byte for byte. No solver runs here."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from viterbipar import io as vio

from conftest import (
    reference_read_spike_bundle,
    reference_read_table_csv,
    reference_write_spike_bundle,
    reference_write_table_csv,
)

# any float64: NaN, +-inf, +-0.0 and subnormals included
ANY_TABLE = arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(0, 5)), elements=st.floats())


def spike_arrays(shape):
    return st.sampled_from([np.float64, np.int64, np.bool_]).flatmap(
        lambda dtype: arrays(dtype, shape, elements=st.sampled_from([0, 1]).map(dtype)))


def _files(directory):
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous


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
@given(spike_arrays(st.tuples(st.integers(1, 30), st.integers(1, 4), st.integers(1, 6))))
def test_spike_bundle_roundtrip(spikes):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = vio.write_spike_bundle(Path(tmp) / "bundle", spikes)
        back = vio.read_spike_bundle(manifest)
    assert back.dtype == np.float64 and back.shape == spikes.shape
    assert np.array_equal(back, spikes.astype(np.float64))


@settings(max_examples=200, deadline=None)
@given(ANY_TABLE)
def test_table_writer_bytes_match_reference(arr):
    with tempfile.TemporaryDirectory() as tmp:
        vio.write_table_csv(Path(tmp) / "bulk.csv", arr, "y")
        reference_write_table_csv(Path(tmp) / "ref.csv", arr, "y")
        assert (Path(tmp) / "bulk.csv").read_bytes() == (Path(tmp) / "ref.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(spike_arrays(st.tuples(st.integers(0, 30), st.integers(0, 4), st.integers(0, 6))))
def test_spike_writer_bytes_match_reference(spikes):
    with tempfile.TemporaryDirectory() as tmp:
        vio.write_spike_bundle(Path(tmp) / "bulk", spikes)
        reference_write_spike_bundle(Path(tmp) / "ref", spikes)
        assert _files(Path(tmp) / "bulk") == _files(Path(tmp) / "ref")


@settings(max_examples=200, deadline=None)
@given(ANY_TABLE)
def test_table_reader_matches_reference(arr):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        reference_write_table_csv(path, arr, "x")
        _same_array(vio.read_table_csv(path, "x"), reference_read_table_csv(path, "x"))


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 10), st.integers(1, 4)), elements=st.floats()),
       st.data())
def test_table_reader_matches_reference_on_hand_formatted_rows(arr, data):
    # quoted numbers, spaces around values and blank lines, as csv.reader
    # and float() accept them
    fields = st.sampled_from(["{}", " {} ", '"{}"', "\t{}"])
    lines = ["t," + ",".join(f"x{i}" for i in range(arr.shape[1]))]
    for t, row in enumerate(arr.tolist()):
        lines.append(",".join([str(t)] + [data.draw(fields).format(repr(v)) for v in row]))
        lines += [""] * data.draw(st.integers(0, 2))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        _same_array(vio.read_table_csv(path, "x"), reference_read_table_csv(path, "x"))


@settings(max_examples=100, deadline=None)
@given(spike_arrays(st.tuples(st.integers(1, 30), st.integers(1, 4), st.integers(1, 6))))
def test_spike_reader_matches_reference(spikes):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = reference_write_spike_bundle(Path(tmp) / "bundle", spikes)
        _same_array(vio.read_spike_bundle(manifest), reference_read_spike_bundle(manifest))

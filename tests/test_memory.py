"""Memory bounds of the tag path, as traced peaks above what the caller holds.

tracemalloc counts numpy's buffers, so each bound is the peak of the traced
allocations a call makes, measured with its inputs already built. The bounds
are the peaks measured on the slice-by-slice writers and the channel-selecting
reader, with headroom; the one-shot merge and whole-column reader they
replaced peaked at 11.6 MB (write_tags), 47.5 MB (write_tags_csv), 11.4 MB
(generate_timetags) and the file plus 9 bytes per record (read_tags). The
pair histogram's bound is set by its anchors, cells and bincount batch: the
pair-expanding kernel it replaced held several arrays of 8 bytes per pair.
"""
import tracemalloc

import numpy as np
import pytest

from sqcorr import (HyperParams, OpticsConfig, TagStream, coincidence_histogram_2,
                    generate_timetags, histograms, parallel, read_tags)
from sqcorr.tags import _SLICE_RECORDS, TAG_DTYPE, write_tags, write_tags_csv

MB = 2**20


def _traced_peak(fn) -> float:
    """Peak traced bytes above the start of the call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


@pytest.fixture
def three_channels():
    """3 x 162k sorted stamps: the records of an h4_chain-sized acquisition."""
    rng = np.random.default_rng(5)
    return [np.sort(rng.integers(0, 5 * 10**11, 162_000)) for _ in range(3)]


def test_write_tags_peak(tmp_path, three_channels):
    # measured 3.1 MB; the records alone take 5.6 MB
    assert _traced_peak(lambda: write_tags(tmp_path / "t.bin", three_channels)) < 4.5


def test_write_tags_csv_peak(tmp_path, three_channels):
    # measured 7.1 MB; the file is 9.9 MB
    assert _traced_peak(lambda: write_tags_csv(tmp_path / "t.csv", three_channels)) < 10.0


def test_generate_timetags_peak(tmp_path, monkeypatch):
    # one core, so the peak does not depend on how the blocks interleave;
    # measured 5.3 MB for 6M pulses, 0.29M clicks (2.2 MB of stamps)
    monkeypatch.setattr(parallel, "_CORES", 1)
    h4 = HyperParams(B=0.471, mu=0.4226, alpha=0.127, n_th=0.001, d=50)
    optics = OpticsConfig(eta=0.045, n_pulses=6_000_000, splitter=(1 / 3,) * 3,
                          jitter_sigma_ps=100.0)
    peak = _traced_peak(lambda: generate_timetags(h4, optics, 3, tmp_path / "t.bin"))
    assert peak < 7.5


def test_read_two_of_nine_channels_peak(tmp_path, monkeypatch):
    # two cores, each with its own slice in flight: a reader that held the
    # file, 15.5 MB here, would pass no bound that the slices set
    monkeypatch.setattr(parallel, "_CORES", 2)
    rng = np.random.default_rng(6)
    channels = [np.sort(rng.integers(0, 10**11, 150_000)) for _ in range(9)]
    path = tmp_path / "t.bin"
    write_tags(path, channels)
    kept_mb = (channels[2].size + channels[7].size) * 8 / MB
    slices_mb = 2 * 3 * _SLICE_RECORDS * TAG_DTYPE.itemsize / MB

    def read():
        tags = read_tags(path, (2, 7))
        np.testing.assert_array_equal(tags.channel(7), channels[7])

    # the two channels and, per core, one slice's record buffer, stamps and
    # indices; measured 3.0 MB above the channels
    assert path.stat().st_size / MB > kept_mb + slices_mb + 5.0
    assert _traced_peak(read) < kept_mb + slices_mb


def test_sliced_read_peak_is_independent_of_the_file_size(tmp_path, monkeypatch):
    # one core, so one slice is read at a time
    monkeypatch.setattr(parallel, "_CORES", 1)
    rng = np.random.default_rng(6)
    channels = [np.sort(rng.integers(0, 10**11, 100_000)) for _ in range(9)]
    path = tmp_path / "t.bin"
    write_tags(path, channels)
    kept_mb = (channels[2].size + channels[7].size) * 8 / MB
    slice_mb = _SLICE_RECORDS * TAG_DTYPE.itemsize / MB

    def read():
        tags = read_tags(path, (2, 7))
        np.testing.assert_array_equal(tags.channel(2), channels[2])

    # the two channels and one slice's record buffer, stamps and indices;
    # measured 1.5 MB above the channels, with a 10.3 MB file
    assert path.stat().st_size / MB > kept_mb + 3 * slice_mb + 5.0
    assert _traced_peak(read) < kept_mb + 3 * slice_mb


def test_wide_window_pair_histogram_peak_is_set_by_anchors_not_pairs(monkeypatch):
    monkeypatch.setattr(parallel, "_CORES", 1)
    rng = np.random.default_rng(7)
    n = 10_000
    ta, tb = (np.sort(rng.integers(0, 10**9, n)) for _ in range(2))
    tags = TagStream(2, np.repeat([0, 1], n), np.concatenate([ta, tb]))
    hist = []
    # +-5e7 ps windows at 1e4 ps bins: 10001 bins, about 1000 partners per anchor
    peak = _traced_peak(lambda: hist.append(
        coincidence_histogram_2(tags, 0, 1, 10_000, 5 * 10**7, period_ps=10**5)))
    pairs = int(hist[0].counts.sum())
    cells = hist[0].nbins
    batch = histograms._batch_size(cells)
    assert pairs > 900 * n
    # measured 1.4 MB; 8 bytes per pair would be 74 MB
    bound = 8 * (8 * n + 4 * cells + 2 * (batch + n)) / MB
    assert peak < bound < pairs * 8 / MB / 20

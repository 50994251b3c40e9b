"""Coincidence histogramming: brute-force parity, binning convention, defaults."""
import numpy as np
import pytest

from sqcorr import (
    DataFormatError,
    EmptyChannelError,
    InvalidParameterError,
    LASER_PERIOD_PS,
    TagStream,
    coincidence_histogram_2,
    coincidence_histogram_3,
    histograms,
)
from sqcorr.histograms import histogram2d_to_csv, histogram_to_csv


def _stream(*channels):
    arrs = [np.asarray(c, dtype=np.int64) for c in channels]
    index = np.repeat(np.arange(len(arrs)), [a.size for a in arrs])
    return TagStream(len(arrs), index, np.concatenate(arrs))


def _bin_index(delays, bin_ps, nbins):
    """Bin of each delay under the documented contract, -1 outside the window."""
    lo_edge = -((nbins // 2) * bin_ps + bin_ps // 2)
    inside = (delays >= lo_edge) & (delays < lo_edge + nbins * bin_ps)
    return np.where(inside, (delays - lo_edge) // bin_ps, -1)


def _brute_hist1d(ta, tb, bin_ps, nbins):
    k = _bin_index(tb[None, :] - ta[:, None], bin_ps, nbins).ravel()
    return np.bincount(k[k >= 0], minlength=nbins)


def _brute_hist2d(t0, t1, t2, bin_ps, nbins):
    counts = np.zeros((nbins, nbins), dtype=np.int64)
    for t in t0:
        k1 = _bin_index(t1 - t, bin_ps, nbins)
        k2 = _bin_index(t2 - t, bin_ps, nbins)
        np.add.at(counts, (k1[k1 >= 0][:, None], k2[k2 >= 0][None, :]), 1)
    return counts


def _hist2(ta, tb, bin_ps, nbins):
    # range (nbins//2)*bin + bin//2 gives exactly nbins bins; the period is any
    # multiple of the bin, which only the divisibility check reads
    return coincidence_histogram_2(_stream(ta, tb), 0, 1, bin_ps,
                                   (nbins // 2) * bin_ps + bin_ps // 2,
                                   period_ps=10.0 * bin_ps).counts


def _hist3(t0, t1, t2, bin_ps, nbins):
    return coincidence_histogram_3(_stream(t0, t1, t2), 0, 1, 2, bin_ps,
                                   (nbins // 2) * bin_ps + bin_ps // 2,
                                   period_ps=10.0 * bin_ps).counts


def _grid_times(rng, n, step):
    """Sorted times on a grid of half a bin, so delays often sit on bin edges."""
    return np.sort(rng.integers(0, 4 * 10**4, n)) * step


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("nbins", [1, 3, 51, 501])
def test_hist1d_matches_brute_force(seed, nbins):
    rng = np.random.default_rng(seed)
    ta = _grid_times(rng, 2000, 50)
    tb = _grid_times(rng, 2500, 50)
    np.testing.assert_array_equal(_hist2(ta, tb, 100, nbins),
                                  _brute_hist1d(ta, tb, 100, nbins))


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("nbins", [1, 5, 27])
def test_hist2d_matches_brute_force(seed, nbins):
    rng = np.random.default_rng(seed)
    t0 = _grid_times(rng, 600, 500)
    t1 = _grid_times(rng, 800, 500)
    t2 = _grid_times(rng, 500, 500)
    np.testing.assert_array_equal(_hist3(t0, t1, t2, 1000, nbins),
                                  _brute_hist2d(t0, t1, t2, 1000, nbins))


def test_window_edges_and_empty_windows():
    """Delays at lo_edge and hi_excl - 1 count, lo_edge - 1 and hi_excl do not."""
    # 3 bins of 100 ps: lo_edge = -150, hi_excl = 150
    edges = np.array([-151, -150, 149, 150], dtype=np.int64)
    # the middle anchor has no partner in its window, the last one has no t2 partner
    t0 = np.array([0, 10**6, 2 * 10**6], dtype=np.int64)
    t1 = np.concatenate([edges, 2 * 10**6 + edges])
    t2 = edges
    expected_1d = np.array([2, 0, 2])
    np.testing.assert_array_equal(_hist2(t0, t1, 100, 3), expected_1d)
    np.testing.assert_array_equal(_brute_hist1d(t0, t1, 100, 3), expected_1d)
    expected_2d = np.outer([1, 0, 1], [1, 0, 1])
    np.testing.assert_array_equal(_hist3(t0, t1, t2, 100, 3), expected_2d)
    np.testing.assert_array_equal(_brute_hist2d(t0, t1, t2, 100, 3), expected_2d)


def test_anchor_chunking_invariance(rng, monkeypatch):
    ta, tb, tc = (np.sort(rng.integers(0, 10**8, n)).astype(np.int64)
                  for n in (3000, 3000, 2000))
    tags = _stream(ta, tb, tc)
    full = coincidence_histogram_2(tags, 0, 1, 100, 300_000.0)
    full3 = coincidence_histogram_3(tags, 0, 1, 2, range_ps=300_000.0)
    assert full3.counts.sum() > 0
    monkeypatch.setattr(histograms, "_CHUNK_ANCHORS", 137)
    chunked = coincidence_histogram_2(tags, 0, 1, 100, 300_000.0)
    np.testing.assert_array_equal(full.counts, chunked.counts)
    # small bincount batches flush inside each anchor chunk as well
    monkeypatch.setattr(histograms, "_batch_size", lambda cells: 1000)
    chunked3 = coincidence_histogram_3(tags, 0, 1, 2, range_ps=300_000.0)
    np.testing.assert_array_equal(full3.counts, chunked3.counts)


@pytest.mark.parametrize("channels", [(0, 0), (1, 1, 2), (0, 2, 2), (2, 1, 2)])
def test_repeated_channel_rejected(channels):
    """A channel binned against itself would pair each tag with itself."""
    t = np.arange(0, 10**6, 1000, dtype=np.int64)
    hist = coincidence_histogram_2 if len(channels) == 2 else coincidence_histogram_3
    with pytest.raises(InvalidParameterError, match="repeat"):
        hist(_stream(t, t, t), *channels)


def test_identical_streams_fill_central_bin():
    t = np.arange(0, 10**6, 1000, dtype=np.int64)
    h = coincidence_histogram_2(_stream(t, t), 0, 1, 100, 550.0)
    assert h.nbins == 11
    assert h.counts[5] == t.size
    assert h.counts.sum() == t.size


def test_binning_convention_half_open_edges():
    """Bin k covers [k*w - w/2, k*w + w/2): delay -50 lands in the zero bin."""
    ta = np.zeros(1, dtype=np.int64)
    tb = np.array([-51, -50, 49, 50], dtype=np.int64)
    h = coincidence_histogram_2(_stream(ta, tb), 0, 1, 100, 150.0)
    # window [-150, 150) -> 3 bins centered -100, 0, 100
    np.testing.assert_array_equal(h.counts, [1, 2, 1])


def test_delays_outside_window_dropped():
    ta = np.zeros(2, dtype=np.int64)
    tb = np.array([-10**6, 10**6], dtype=np.int64)
    h = coincidence_histogram_2(_stream(ta, tb), 0, 1, 100, 500.0)
    assert h.counts.sum() == 0


def test_peak_spacing_matches_period(rng):
    period = round(LASER_PERIOD_PS)
    pulses = np.arange(0, 4000, dtype=np.int64) * period
    keep_a = rng.random(4000) < 0.5
    keep_b = rng.random(4000) < 0.5
    tags = _stream(pulses[keep_a], pulses[keep_b])
    h = coincidence_histogram_2(tags, 0, 1)
    centers = h.bin_centers()
    occupied = np.sort(centers[h.counts > 0])
    spacing = np.diff(occupied)
    assert np.all(np.abs(spacing - period) <= h.bin_width_ps)


def test_default_window_covers_25_periods():
    t = np.array([0], dtype=np.int64)
    h = coincidence_histogram_2(_stream(t, t), 0, 1)
    assert h.range_ps >= 25.0 * LASER_PERIOD_PS
    m = int(h.range_ps // LASER_PERIOD_PS)
    assert m == 25


def test_bin_width_must_divide_period():
    t = np.array([0, 10], dtype=np.int64)
    with pytest.raises(InvalidParameterError):
        coincidence_histogram_2(_stream(t, t), 0, 1, bin_width_ps=10_000)


@pytest.mark.parametrize("period_ps", [float("nan"), float("inf"), 0.0, -53590.0])
def test_bad_period_rejected(period_ps):
    t = np.arange(0, 10**6, 1000, dtype=np.int64)
    tags = _stream(t, t + 50, t + 90)
    with pytest.raises(InvalidParameterError, match="period"):
        coincidence_histogram_2(tags, 0, 1, 100, 5000.0, period_ps=period_ps)
    for bin_ps in (None, 100):
        with pytest.raises(InvalidParameterError, match="period"):
            coincidence_histogram_3(tags, 0, 1, 2, bin_ps, 5000.0, period_ps=period_ps)


def test_empty_channel_rejected():
    tags = _stream(np.array([1, 2], dtype=np.int64), np.empty(0, dtype=np.int64))
    with pytest.raises(EmptyChannelError):
        coincidence_histogram_2(tags, 0, 1)


def test_hist2d_counts_triples():
    period = round(LASER_PERIOD_PS)
    t = np.arange(0, 50, dtype=np.int64) * period
    h = coincidence_histogram_3(_stream(t, t, t), 0, 1, 2)
    half = h.nbins // 2
    assert h.counts[half, half] == 50
    # off-diagonal satellite (t1 ahead by one period, t2 on time)
    k = half + int(round(period / h.bin_width_ps))
    assert h.counts[k, half] == 49


def test_hist2d_default_bin_follows_period():
    period = 40_000
    t = np.arange(0, 50, dtype=np.int64) * period
    h = coincidence_histogram_3(_stream(t, t, t), 0, 1, 2, period_ps=period)
    assert h.bin_width_ps == 1538  # int(period / histograms.BIN2D_PER_PERIOD)
    assert h.counts[h.nbins // 2, h.nbins // 2] == 50


def test_histogram_csv_round_trip(tmp_path):
    t = np.arange(0, 10**5, 1000, dtype=np.int64)
    h = coincidence_histogram_2(_stream(t, t), 0, 1, 100, 550.0)
    out = tmp_path / "h.csv"
    histogram_to_csv(h, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "delay_ps,counts"
    assert len(lines) == h.nbins + 1
    data = np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64)
    np.testing.assert_array_equal(data[:, 1], h.counts)


def test_histogram2d_csv_sparse(tmp_path):
    period = round(LASER_PERIOD_PS)
    t = np.arange(0, 20, dtype=np.int64) * period
    h = coincidence_histogram_3(_stream(t, t, t), 0, 1, 2)
    out = tmp_path / "h2.csv"
    histogram2d_to_csv(h, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "delay1_ps,delay2_ps,counts"
    total = sum(int(l.split(",")[2]) for l in lines[1:])
    assert total == h.counts.sum()


def _csv_loop(hist, path):
    """Reference 1D writer: one formatted numpy-scalar row at a time."""
    with open(path, "w") as f:
        f.write("delay_ps,counts\n")
        for c, n in zip(hist.bin_centers(), hist.counts):
            f.write(f"{c},{n}\n")


def _csv2d_loop(hist, path):
    """Reference 2D writer: the nonzero cells row by row."""
    centers = hist.bin_centers()
    with open(path, "w") as f:
        f.write("delay1_ps,delay2_ps,counts\n")
        for i, c1 in enumerate(centers):
            row = hist.counts[i]
            for j in np.flatnonzero(row):
                f.write(f"{c1},{centers[j]},{row[j]}\n")


def test_csv_writers_match_row_loops(tmp_path, rng):
    t0, t1, t2 = (np.sort(rng.integers(-10**6, 10**7, n)).astype(np.int64)
                  for n in (800, 700, 600))
    tags = _stream(t0, t1, t2)
    h1 = coincidence_histogram_2(tags, 0, 1, 100, 300_000.0, period_ps=1000.0)
    h2 = coincidence_histogram_3(tags, 0, 1, 2, 100, 30_000.0, period_ps=1000.0)
    empty = histograms.Histogram2D(100, np.zeros((5, 5), dtype=np.int64), 1.0)
    for hist, write, ref in ((h1, histogram_to_csv, _csv_loop),
                             (h2, histogram2d_to_csv, _csv2d_loop),
                             (empty, histogram2d_to_csv, _csv2d_loop)):
        write(hist, tmp_path / "a.csv")
        ref(hist, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert 0 < h2.counts.sum() and (h2.counts == 0).any()


@pytest.mark.parametrize("chunk", [histograms._CHUNK_ANCHORS, 137])
def test_histograms_independent_of_core_count(rng, monkeypatch, chunk):
    ta, tb, tc = (np.sort(rng.integers(0, 10**8, n)).astype(np.int64)
                  for n in (3000, 3000, 2000))
    tags = _stream(ta, tb, tc)
    monkeypatch.setattr(histograms, "_CHUNK_ANCHORS", chunk)
    results = []
    for cores in (1, 2, 3):
        monkeypatch.setattr("sqcorr.parallel._CORES", cores)
        h1 = coincidence_histogram_2(tags, 0, 1, 100, 300_000.0)
        h2 = coincidence_histogram_3(tags, 0, 1, 2, range_ps=300_000.0)
        results.append((h1.counts, h2.counts))
    assert results[0][0].sum() > 0 and results[0][1].sum() > 0
    for counts1, counts2 in results[1:]:
        np.testing.assert_array_equal(counts1, results[0][0])
        np.testing.assert_array_equal(counts2, results[0][1])


@pytest.mark.parametrize("block", [1, 7, 137])
@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("batch", [None, 5])
def test_blocked_kernels_match_brute_force(monkeypatch, block, cores, batch):
    """Each share steps its anchors in blocks into one tally; a batch of 5
    indices flushes inside every block."""
    monkeypatch.setattr(histograms, "_BLOCK_ANCHORS", block)
    monkeypatch.setattr("sqcorr.parallel._CORES", cores)
    if batch is not None:
        monkeypatch.setattr(histograms, "_batch_size", lambda cells: batch)
    rng = np.random.default_rng(block)
    t0 = _grid_times(rng, 600, 500)
    t1 = _grid_times(rng, 800, 500)
    t2 = _grid_times(rng, 500, 500)
    counts1 = _hist2(t0, t1, 1000, 27)
    counts2 = _hist3(t0, t1, t2, 1000, 9)
    assert counts1.sum() > 0 and counts2.sum() > 0
    np.testing.assert_array_equal(counts1, _brute_hist1d(t0, t1, 1000, 27))
    np.testing.assert_array_equal(counts2, _brute_hist2d(t0, t1, t2, 1000, 9))


@pytest.mark.parametrize("n_anchors", [1, 2])
def test_fewer_anchors_than_cores(monkeypatch, n_anchors):
    monkeypatch.setattr("sqcorr.parallel._CORES", 3)
    t = np.arange(n_anchors, dtype=np.int64) * 1000
    np.testing.assert_array_equal(_hist2(t, t, 100, 3), [0, n_anchors, 0])
    np.testing.assert_array_equal(_hist3(t, t, t, 100, 3)[1], [0, n_anchors, 0])


def test_error_in_one_share_reaches_caller(rng, monkeypatch):
    ta, tb = (np.sort(rng.integers(0, 10**8, 3000)).astype(np.int64) for _ in range(2))
    real = histograms._hist1d

    def failing(anchors, *args):
        if anchors[0] == ta[3 * 137]:  # the fourth of 22 shares
            raise MemoryError("share 3")
        return real(anchors, *args)

    monkeypatch.setattr("sqcorr.parallel._CORES", 2)
    monkeypatch.setattr(histograms, "_hist1d", failing)
    monkeypatch.setattr(histograms, "_CHUNK_ANCHORS", 137)
    with pytest.raises(MemoryError, match="share 3"):
        coincidence_histogram_2(_stream(ta, tb), 0, 1, 100, 300_000.0)


def test_anchors_without_a_third_partner_give_no_triples():
    t = np.arange(0, 10**5, 1000, dtype=np.int64)
    counts = _hist3(t, t, t + 10**7, 100, 5)
    assert counts.shape == (5, 5) and counts.sum() == 0


_INT64 = np.iinfo(np.int64)


def _edge_case_channels(case, rng):
    """Three sorted channels that exercise one corner of the offset stepping."""
    if case == "equal_across":
        # every stamp is drawn from one small pool, so channels share stamps
        pool = np.arange(0, 3 * 10**4, 100)
        return [np.sort(rng.choice(pool, n)) for n in (120, 150, 110)]
    if case == "repeated":
        # runs of up to 4 equal stamps within each channel
        return [np.repeat(np.sort(rng.choice(10**4, n, replace=False)) * 7,
                          rng.integers(1, 5, n)) for n in (60, 70, 50)]
    if case == "negative":
        return [np.sort(rng.integers(-3 * 10**4, -10**3, n)) for n in (120, 150, 110)]
    # run_to_end: anchors go on past the partners' last stamps, so partner
    # runs reach the end of the partner arrays
    return [np.sort(rng.integers(lo, hi, n))
            for lo, hi, n in ((10**4, 4 * 10**4, 150), (0, 2 * 10**4, 160),
                              (0, 2.5 * 10**4, 120))]


@pytest.mark.parametrize("case", ["equal_across", "repeated", "negative", "run_to_end"])
@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("batch", [None, 5])
def test_kernels_match_brute_force_on_edge_cases(monkeypatch, case, cores, batch):
    monkeypatch.setattr("sqcorr.parallel._CORES", cores)
    if batch is not None:
        # a bincount batch of 5 indices flushes in the middle of every share
        monkeypatch.setattr(histograms, "_batch_size", lambda cells: batch)
    t0, t1, t2 = _edge_case_channels(case, np.random.default_rng(len(case)))
    np.testing.assert_array_equal(_hist2(t0, t1, 100, 41), _brute_hist1d(t0, t1, 100, 41))
    np.testing.assert_array_equal(_hist3(t0, t1, t2, 100, 15),
                                  _brute_hist2d(t0, t1, t2, 100, 15))
    assert _hist2(t0, t1, 100, 41).sum() > 0 and _hist3(t0, t1, t2, 100, 15).sum() > 0


@pytest.mark.parametrize("at", ["max", "min"])
def test_stamps_at_the_int64_limits(at):
    """Stamps up to int64 max, and down to the lowest one whose window start
    still fits in int64, are binned like any others."""
    rng = np.random.default_rng(8)
    lo_edge = -(20 * 100 + 50)  # 41 bins of 100 ps
    offsets = [np.sort(rng.choice(5000, n, replace=False)) for n in (40, 50, 30)]
    if at == "max":
        t0, t1, t2 = (_INT64.max - 4999 + o for o in offsets)
        t1[-1] = _INT64.max
    else:
        t0, t1, t2 = (_INT64.min - lo_edge + o for o in offsets)
        t0[0] = _INT64.min - lo_edge
    np.testing.assert_array_equal(_hist2(t0, t1, 100, 41), _brute_hist1d(t0, t1, 100, 41))
    np.testing.assert_array_equal(_hist3(t0, t1, t2, 100, 41),
                                  _brute_hist2d(t0, t1, t2, 100, 41))


@pytest.mark.parametrize("stamps", [
    [_INT64.min, _INT64.min + 10],        # window starts below int64 min
    [_INT64.min + 10**6, _INT64.max],     # delays span more than int64 max
])
def test_stamps_without_window_headroom_rejected(stamps):
    t = np.array(stamps, dtype=np.int64)
    with pytest.raises(DataFormatError, match="no room"):
        _hist2(t, t, 100, 41)
    with pytest.raises(DataFormatError, match="no room"):
        _hist3(t, t, t, 100, 41)


@pytest.mark.parametrize("range_ps", [-500.0, -0.5, float("nan"), float("inf"),
                                      float("-inf"), 1e30])
def test_bad_range_rejected(range_ps):
    t = np.arange(0, 10**5, 1000, dtype=np.int64)
    tags = _stream(t, t, t)
    with pytest.raises(InvalidParameterError, match="range"):
        coincidence_histogram_2(tags, 0, 1, 100, range_ps)
    with pytest.raises(InvalidParameterError, match="range"):
        coincidence_histogram_3(tags, 0, 1, 2, range_ps=range_ps)


def test_window_ceilings():
    ceiling = histograms.MAX_CELLS
    half = ceiling // 2  # 2 * half + 1 bins is one above the ceiling
    assert histograms._nbins((half - 1) * 100 + 99.0, 100, 1) == ceiling - 1
    with pytest.raises(InvalidParameterError, match="ceiling"):
        histograms._nbins(half * 100.0, 100, 1)
    side = int(np.sqrt(ceiling)) - 1  # the largest odd side within the ceiling
    assert histograms._nbins(side // 2 * 100.0, 100, 2) == side
    with pytest.raises(InvalidParameterError, match="ceiling"):
        histograms._nbins((side // 2 + 1) * 100.0, 100, 2)
    with pytest.raises(InvalidParameterError, match="exceeds"):
        histograms._nbins(10**19, 10**18, 1)

"""Binary and CSV time-tag round trips."""
import hashlib

import numpy as np
import pytest

from sqcorr import DataFormatError, InvalidParameterError, load_tags, read_tags, write_tags
from sqcorr import tags as tagmod
from sqcorr.tags import (
    FORMAT_VERSION,
    HEADER,
    MAGIC,
    TAG_DTYPE,
    read_tags_csv,
    write_tags_csv,
)


def _write_records(path, channels, stamps, channel_count):
    """An HHGT file holding the records in the order given, not sorted."""
    rec = np.zeros(len(stamps), dtype=TAG_DTYPE)
    rec["channel"] = channels
    rec["timestamp_ps"] = stamps
    path.write_bytes(HEADER.pack(MAGIC, FORMAT_VERSION, channel_count, 0) + rec.tobytes())


def _write_rows(path, channels, stamps):
    """A CSV tag file holding the rows in the order given, not sorted."""
    path.write_text("channel,timestamp_ps\n"
                    + "".join(f"{c},{t}\n" for c, t in zip(channels, stamps)))


def _brute_channels(channels, stamps, channel_count):
    return [np.sort(np.asarray(stamps)[np.asarray(channels) == c]) for c in range(channel_count)]


def _random_streams(rng, n_channels=3, size=400):
    return [
        np.sort(rng.integers(0, 10**9, rng.integers(0, size))).astype(np.int64)
        for _ in range(n_channels)
    ]


def test_binary_round_trip(tmp_path, rng):
    streams = _random_streams(rng)
    path = tmp_path / "t.bin"
    write_tags(path, streams, channel_count=3)
    back = read_tags(path)
    assert back.channel_count == 3
    for i, s in enumerate(streams):
        np.testing.assert_array_equal(back.channel(i), s)


def test_write_is_deterministic(tmp_path, rng):
    streams = _random_streams(rng)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_tags(a, streams, channel_count=3)
    write_tags(b, streams, channel_count=3)
    assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()


def test_unsorted_input_is_sorted_on_write(tmp_path):
    path = tmp_path / "t.bin"
    write_tags(path, [np.array([30, 10, 20], dtype=np.int64)], channel_count=1)
    np.testing.assert_array_equal(read_tags(path).channel(0), [10, 20, 30])


def test_negative_timestamps_survive(tmp_path):
    path = tmp_path / "t.bin"
    write_tags(path, [np.array([-500, -1, 7], dtype=np.int64)], channel_count=1)
    np.testing.assert_array_equal(read_tags(path).channel(0), [-500, -1, 7])


def test_csv_round_trip(tmp_path, rng):
    streams = _random_streams(rng, n_channels=2)
    path = tmp_path / "t.csv"
    write_tags_csv(path, streams, channel_count=2)
    assert path.read_text().splitlines()[0] == "channel,timestamp_ps"
    back = read_tags_csv(path)
    for i, s in enumerate(streams):
        np.testing.assert_array_equal(back.channel(i), s)


def test_load_dispatches_on_extension(tmp_path):
    streams = [np.array([1, 2], dtype=np.int64)]
    write_tags(tmp_path / "t.bin", streams, channel_count=1)
    write_tags_csv(tmp_path / "t.csv", streams, channel_count=1)
    assert load_tags(tmp_path / "t.bin").n_records == 2
    assert load_tags(tmp_path / "t.csv").n_records == 2


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"NOPE" + bytes(HEADER.size - 4))
    with pytest.raises(DataFormatError):
        read_tags(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(HEADER.pack(MAGIC, FORMAT_VERSION + 1, 1, 0))
    with pytest.raises(DataFormatError):
        read_tags(path)


def test_truncated_record_rejected(tmp_path):
    path = tmp_path / "t.bin"
    write_tags(path, [np.array([5, 6], dtype=np.int64)], channel_count=1)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataFormatError):
        read_tags(path)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("chan,ts\n0,1\n")
    with pytest.raises(DataFormatError):
        read_tags_csv(path)


def test_channel_out_of_range(tmp_path):
    path = tmp_path / "t.bin"
    write_tags(path, [np.array([1], dtype=np.int64)], channel_count=1)
    tags = read_tags(path)
    with pytest.raises(DataFormatError):
        tags.channel(1)


def test_record_channel_above_count_rejected(tmp_path):
    path = tmp_path / "t.bin"
    write_tags(path, [np.array([1], dtype=np.int64), np.array([2], dtype=np.int64)],
               channel_count=2)
    raw = bytearray(path.read_bytes())
    raw[HEADER.size] = 7  # channel byte of the first record
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        read_tags(path)


def test_channel_out_of_range_negative(tmp_path):
    path = tmp_path / "t.bin"
    write_tags(path, [np.array([1], dtype=np.int64)], channel_count=1)
    with pytest.raises(DataFormatError):
        read_tags(path).channel(-1)


def test_csv_record_channel_above_count_rejected(tmp_path):
    path = tmp_path / "t.csv"
    _write_rows(path, [0, 5], [10, 20])
    with pytest.raises(DataFormatError):
        read_tags_csv(path, channel_count=2)


def test_csv_negative_record_channel_rejected(tmp_path):
    path = tmp_path / "t.csv"
    _write_rows(path, [0, -1], [10, 20])
    with pytest.raises(DataFormatError):
        read_tags_csv(path, channel_count=2)


def test_records_out_of_time_order_read_sorted(tmp_path):
    path = tmp_path / "t.bin"
    _write_records(path, [1, 0, 1, 0, 1, 0], [500, 40, -3, 40, 200, 7], channel_count=2)
    tags = read_tags(path)
    np.testing.assert_array_equal(tags.channel(0), [7, 40, 40])
    np.testing.assert_array_equal(tags.channel(1), [-3, 200, 500])
    assert tags.n_records == 6


def test_declared_channel_without_records_is_empty(tmp_path):
    path = tmp_path / "t.bin"
    _write_records(path, [0, 2, 0], [1, 2, 3], channel_count=4)
    tags = read_tags(path)
    for c in (1, 3):
        assert tags.channel(c).size == 0
        assert tags.channel(c).dtype == np.int64
    assert [ch.size for ch in tags.by_channel] == [2, 0, 1, 0]


@pytest.mark.parametrize("form", ["bin", "csv"])
def test_channels_match_mask_and_sort(tmp_path, rng, form):
    for trial in range(5):
        n, count = int(rng.integers(0, 300)), int(rng.integers(1, 9))
        channels = rng.integers(0, count, n)
        # a narrow range repeats timestamps; unsorted records exercise the sort
        stamps = rng.integers(-50, 50 if trial % 2 else 10**12, n)
        if trial == 0:
            order = np.lexsort((channels, stamps))
            channels, stamps = channels[order], stamps[order]
        path = tmp_path / f"t{trial}.{form}"
        if form == "bin":
            _write_records(path, channels, stamps, count)
            tags = read_tags(path)
        else:
            _write_rows(path, channels, stamps)
            tags = read_tags_csv(path, channel_count=count)
        want = _brute_channels(channels, stamps, count)
        for c in rng.permutation(count):
            np.testing.assert_array_equal(tags.channel(int(c)), want[c])
        assert len(tags.by_channel) == count
        for got, w in zip(tags.by_channel, want):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, w)



def _lexsort_write(path, by_channel, channel_count):
    """Reference writer: every record laid out, then sorted by (timestamp, channel)."""
    by_channel = [np.asarray(ch, dtype=np.int64) for ch in by_channel]
    n = sum(ch.size for ch in by_channel)
    rec = np.zeros(n, dtype=TAG_DTYPE)
    pos = 0
    for c, ch in enumerate(by_channel):
        rec["channel"][pos : pos + ch.size] = c
        rec["timestamp_ps"][pos : pos + ch.size] = ch
        pos += ch.size
    rec = rec[np.lexsort((rec["channel"], rec["timestamp_ps"]))]
    path.write_bytes(HEADER.pack(MAGIC, FORMAT_VERSION, channel_count, 0) + rec.tobytes())


def _lexsort_write_csv(path, by_channel):
    """Reference CSV writer: every (channel, timestamp) row laid out, sorted by
    (timestamp, channel) and formatted one numpy-scalar row at a time."""
    rows = [np.stack([np.full(len(ch), c, dtype=np.int64), np.asarray(ch, dtype=np.int64)],
                     axis=1) for c, ch in enumerate(by_channel)]
    allrows = np.concatenate(rows) if rows else np.empty((0, 2), dtype=np.int64)
    allrows = allrows[np.lexsort((allrows[:, 0], allrows[:, 1]))]
    with open(path, "w") as f:
        f.write("channel,timestamp_ps\n")
        for c, t in allrows:
            f.write(f"{c},{t}\n")


@pytest.mark.parametrize("case", [
    # equal timestamps on different channels, in both channel orders
    ([[5, 10, 10, 20], [10, 20], [0, 10]], 3),
    # unsorted and negative stamps, repeated within a channel
    ([[30, -10, 20, -10], [-500, 7, -1], [7]], 3),
    # an empty channel, first, middle and last
    ([[], [3, 1], [], [2, 2]], 4),
    # channel_count larger than the list
    ([[4, 2], [2, 9]], 7),
    ([], 2),
])
def test_write_matches_lexsort_writer(tmp_path, case):
    by_channel, count = case
    write_tags(tmp_path / "a.bin", by_channel, channel_count=count)
    _lexsort_write(tmp_path / "b.bin", by_channel, count)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    write_tags_csv(tmp_path / "a.csv", by_channel, channel_count=count)
    _lexsort_write_csv(tmp_path / "b.csv", by_channel)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_write_matches_lexsort_writer_random(tmp_path, rng):
    for trial in range(20):
        count = int(rng.integers(1, 12))
        # a narrow range repeats timestamps across and within channels
        hi = 40 if trial % 2 else 10**15
        by_channel = [rng.integers(-hi, hi, rng.integers(0, 200)) for _ in range(count)]
        write_tags(tmp_path / "a.bin", by_channel, channel_count=count + trial % 3)
        _lexsort_write(tmp_path / "b.bin", by_channel, count + trial % 3)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        write_tags_csv(tmp_path / "a.csv", by_channel)
        _lexsort_write_csv(tmp_path / "b.csv", by_channel)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_write_rejects_more_channels_than_a_record_holds(tmp_path):
    with pytest.raises(DataFormatError):
        write_tags(tmp_path / "t.bin", [[1]] * 257, channel_count=257)


def test_writers_reject_a_channel_count_below_the_list(tmp_path):
    for write, name in ((write_tags, "t.bin"), (write_tags_csv, "t.csv")):
        with pytest.raises(DataFormatError):
            write(tmp_path / name, [[1], [2], [3]], channel_count=2)


# cases for slice-by-slice writing with slices of a few records: cuts fall
# between, on and inside runs of equal stamps
_SLICED_CASES = [
    # equal stamps on different channels at and around every cut
    ([[1, 2, 3, 3, 4, 5, 6], [2, 3, 3, 5, 6, 6], [0, 3, 4, 6, 9]], 3),
    # one run of equal stamps longer than a slice, across and within channels
    ([[7] * 11 + [8], [1, 7, 7, 7], [7, 9]], 3),
    ([[5] * 20], 1),
    # an empty channel first, middle and last
    ([[], [3, 1, 4, 1, 5], [], [9, 2, 6, 5, 3, 5], []], 5),
    # channel_count above the list
    ([[4, 2, 8, 8], [2, 9, 1]], 7),
    # no channels, no records
    ([], 2),
    ([[], []], 2),
    # unsorted, negative and repeated stamps
    ([[30, -10, 20, -10, 5, 5, 5], [-500, 7, -1, 5], [7, 5]], 3),
]


@pytest.mark.parametrize("slice_records", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("case", _SLICED_CASES)
def test_sliced_writers_match_one_shot_writers(tmp_path, monkeypatch, slice_records, case):
    by_channel, count = case
    monkeypatch.setattr(tagmod, "_SLICE_RECORDS", slice_records)
    write_tags(tmp_path / "a.bin", by_channel, channel_count=count)
    _lexsort_write(tmp_path / "b.bin", by_channel, count)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    write_tags_csv(tmp_path / "a.csv", by_channel, channel_count=count)
    _lexsort_write_csv(tmp_path / "b.csv", by_channel)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sliced_writers_match_one_shot_writers_random(tmp_path, monkeypatch, rng):
    monkeypatch.setattr(tagmod, "_SLICE_RECORDS", 3)
    for trial in range(30):
        count = int(rng.integers(1, 9))
        # narrow ranges give long runs of equal stamps, across and within channels
        hi = (2, 30, 10**15)[trial % 3]
        by_channel = [rng.integers(-hi, hi, rng.integers(0, 80)) for _ in range(count)]
        write_tags(tmp_path / "a.bin", by_channel, channel_count=count + trial % 2)
        _lexsort_write(tmp_path / "b.bin", by_channel, count + trial % 2)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        write_tags_csv(tmp_path / "a.csv", by_channel)
        _lexsort_write_csv(tmp_path / "b.csv", by_channel)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("slice_records", [16, 1000, 1 << 16])
def test_slices_are_bounded_and_in_time_order(rng, monkeypatch, slice_records):
    """Distinct stamps: no slice holds more than _SLICE_RECORDS + n_channels * step."""
    monkeypatch.setattr(tagmod, "_SLICE_RECORDS", slice_records)
    # uneven channel sizes; distinct stamps across every channel
    stamps = rng.permutation(10**7)[:150_000]
    cuts = [0, 5_000, 80_000, 80_001, 150_000]
    by_channel = [np.sort(stamps[a:b]).astype(np.int64) for a, b in zip(cuts[:-1], cuts[1:])]
    step = max(1, slice_records // (4 * len(by_channel)))
    slices = list(tagmod._merged_slices(by_channel))
    assert max(ts.size for _, ts in slices) <= slice_records + len(by_channel) * step
    channel = np.concatenate([c for c, _ in slices])
    ts = np.concatenate([t for _, t in slices])
    np.testing.assert_array_equal(ts, np.sort(stamps))
    for c, ch in enumerate(by_channel):
        np.testing.assert_array_equal(ts[channel == c], ch)


@pytest.mark.parametrize("form", ["bin", "csv"])
@pytest.mark.parametrize("slice_records", [1, 7, 1 << 16])
def test_every_channel_subset_matches_the_full_read(tmp_path, rng, monkeypatch, form,
                                                    slice_records):
    monkeypatch.setattr(tagmod, "_SLICE_RECORDS", slice_records)
    count = 5
    channels = rng.integers(0, count, 300)
    stamps = rng.integers(-40, 40, 300)  # unsorted records with repeated stamps
    path = tmp_path / f"t.{form}"
    if form == "bin":
        _write_records(path, channels, stamps, count)
    else:
        _write_rows(path, channels, stamps)
    want = _brute_channels(channels, stamps, count)
    for mask in range(1 << count):
        keep = [c for c in range(count) if mask >> c & 1]
        tags = load_tags(path, keep[::-1] + keep)  # order and repeats do not matter
        assert tags.n_records == 300
        assert tags.channel_count == count
        for c in range(count):
            if c in keep:
                assert tags.channel(c).dtype == np.int64
                np.testing.assert_array_equal(tags.channel(c), want[c])
            else:
                with pytest.raises(InvalidParameterError):
                    tags.channel(c)


@pytest.mark.parametrize("keep", [[3], [-1], [0, 4]])
def test_reading_a_channel_outside_the_declared_set_raises(tmp_path, keep):
    path = tmp_path / "t.bin"
    write_tags(path, [[1], [2], [3]], channel_count=3)
    with pytest.raises(DataFormatError, match="outside declared set"):
        read_tags(path, keep)


@pytest.mark.parametrize("keep", [None, [0], [1]])
def test_record_channel_above_count_rejected_whatever_is_read(tmp_path, keep):
    path = tmp_path / "t.bin"
    _write_records(path, [0, 1, 0, 2], [1, 2, 3, 4], channel_count=2)
    with pytest.raises(DataFormatError, match="declared count"):
        read_tags(path, keep)
    _write_rows(tmp_path / "t.csv", [0, 1, -1, 0], [1, 2, 3, 4])
    with pytest.raises(DataFormatError, match="negative"):
        read_tags_csv(tmp_path / "t.csv", channel_count=2, channels=keep)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("share_slices", [1, 3, 8])
def test_sliced_read_is_independent_of_cores(tmp_path, rng, monkeypatch, cores, share_slices):
    """Runs of slices read on several cores fill each channel in record order."""
    monkeypatch.setattr("sqcorr.parallel._CORES", cores)
    monkeypatch.setattr(tagmod, "_SLICE_RECORDS", 7)
    monkeypatch.setattr(tagmod, "_SHARE_SLICES", share_slices)
    channels = rng.integers(0, 4, 500)
    stamps = rng.integers(-10**6, 10**6, 500)  # unsorted, so every channel is sorted
    path = tmp_path / "t.bin"
    _write_records(path, channels, stamps, 4)
    want = _brute_channels(channels, stamps, 4)
    tags = read_tags(path, [0, 2, 3])
    for c in (0, 2, 3):
        np.testing.assert_array_equal(tags.channel(c), want[c])
    # a bad channel in the last record is found whichever core reads it
    _write_records(path, np.append(channels[:-1], 4), stamps, 4)
    with pytest.raises(DataFormatError, match="declared count"):
        read_tags(path, [0])

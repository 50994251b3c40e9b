"""Time-tag stream I/O.

Binary format (little endian):
  header, 16 bytes: magic b"HHGT", format version u16 = 1, channel count u16,
  reserved u64 = 0; then packed 12-byte records {channel u8, pad u8[3],
  timestamp_ps i64}.

CSV alternative: header line ``channel,timestamp_ps`` then one record per row.

Both writers lay the records out by one merge, sorted by (timestamp, channel),
so identical inputs give identical bytes in either format. They merge and
write one time slice of about _SLICE_RECORDS records at a time, so a writer
holds its input channels plus one slice. Both readers take only the channels
a caller asks for out of the records, in slices of _SLICE_RECORDS records.
The binary reader reads the file itself slice by slice, into one reused
buffer per core at work: reading two channels of a nine-channel file holds
those two channels and a slice per core, whatever the file's size. The CSV
reader parses the whole file first. Within a channel the timestamps come
back sorted, whatever the record order of the file.
"""
from __future__ import annotations

import itertools
import os
import struct

import numpy as np

from .exceptions import DataFormatError, InvalidParameterError
from .parallel import parallel_map, shares

MAGIC = b"HHGT"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sHHQ")

TAG_DTYPE = np.dtype(
    [("channel", "u1"), ("pad", "u1", (3,)), ("timestamp_ps", "<i8")]
)
assert TAG_DTYPE.itemsize == 12

# records the writers merge, and the reader takes channels from, per slice
_SLICE_RECORDS = 1 << 16
# the fewest consecutive slices a reader's core works through
_SHARE_SLICES = 8


def _column_slices(channels: np.ndarray, timestamps: np.ndarray):
    """slices(starts): the (channel, timestamp) columns of the in-memory
    records from each start in starts, _SLICE_RECORDS records at a time."""
    def slices(starts):
        for s in starts:
            yield channels[s : s + _SLICE_RECORDS], timestamps[s : s + _SLICE_RECORDS]
    return slices


def _count_slices(slices, starts: range, channel_count: int, keep,
                  counts: np.ndarray) -> None:
    """counts[i, j] = the records of channel keep[j] in slice starts[i],
    checking every record's channel against the declared count."""
    for i, (channels, _) in enumerate(slices(starts)):
        ch = np.ascontiguousarray(channels)
        if int(ch.min()) < 0:
            raise DataFormatError(f"negative record channel {int(ch.min())}")
        if int(ch.max()) >= channel_count:
            raise DataFormatError(
                f"record channel {int(ch.max())} >= declared count {channel_count}"
            )
        for j, c in enumerate(keep):
            counts[i, j] = np.count_nonzero(ch == c)


def _fill_slices(slices, starts: range, kept: dict, ends: np.ndarray) -> None:
    """Copy the stamps of kept channel c_j in slice starts[i] into the end of
    kept[c_j][:ends[i, j]]."""
    # each slice's stamps are copied into one contiguous buffer: taking a
    # channel from it is faster than indexing the strided column, from one
    # channel up
    stamps = None
    for (channels, timestamps), end in zip(slices(starts), ends):
        ch = np.ascontiguousarray(channels)
        if stamps is None:  # the first slice is the longest
            stamps = np.empty(ch.size, dtype=np.int64)
        ts = stamps[: ch.size]
        ts[:] = timestamps
        for (c, out), e in zip(kept.items(), end.tolist()):
            # flatnonzero + take copies about 3x faster than boolean-mask indexing
            t = ts.take(np.flatnonzero(ch == c))
            out[e - t.size : e] = t


def _take_channels(channel_count: int, n: int, slices, keep) -> dict[int, np.ndarray]:
    """{c: sorted int64 timestamps of channel c} for c in keep, taken out of
    n records that ``slices(starts)`` yields as (channel, timestamp) columns,
    _SLICE_RECORDS records from each start.

    A first pass checks every record's channel against the declared count and
    counts the kept channels' records in each slice, so the second pass fills
    arrays of the final size and no channel is ever held twice. Each pass
    takes runs of at least _SHARE_SLICES consecutive slices, one run per core
    or more, and works the runs in parallel (sqcorr.parallel); every slice
    has its own place in the output, so the result does not depend on the
    cores.
    """
    starts = range(0, n, _SLICE_RECORDS)
    runs = shares(len(starts), len(starts), _SHARE_SLICES)
    counts = np.zeros((len(starts), len(keep)), dtype=np.int64)
    parallel_map(lambda r: _count_slices(slices, starts[r], channel_count, keep, counts[r]),
                 runs)
    kept = {c: np.empty(int(size), dtype=np.int64)
            for c, size in zip(keep, counts.sum(axis=0))}
    # ends[i, j]: where slice i's stamps of channel keep[j] end in its array
    ends = np.cumsum(counts, axis=0)
    parallel_map(lambda r: _fill_slices(slices, starts[r], kept, ends[r]), runs)
    for t in kept.values():
        if t.size > 1 and bool(np.any(t[1:] < t[:-1])):
            t.sort()
    return kept


class TagStream:
    """The sorted timestamps of the channels read from a stream of records.

    ``TagStream(channel_count, channels, timestamps, keep)`` takes the
    channels in ``keep`` (default: every declared channel) out of the record
    columns and keeps neither column: a command that reads two of nine
    channels holds only those two. Every record's channel is checked against
    the declared count, whether it is kept or not. A channel is sorted only
    if its timestamps are out of order, which files written by ``write_tags``
    never are.
    """

    def __init__(self, channel_count: int, channels: np.ndarray,
                 timestamps: np.ndarray, keep=None):
        self._take(channel_count, int(timestamps.size),
                   _column_slices(channels, timestamps), keep)

    @classmethod
    def _from_slices(cls, channel_count: int, n_records: int, slices, keep=None):
        """The stream of n_records records that ``slices(starts)`` yields as
        (channel, timestamp) columns, as ``_take_channels`` reads them."""
        stream = cls.__new__(cls)
        stream._take(channel_count, n_records, slices, keep)
        return stream

    def _take(self, channel_count: int, n_records: int, slices, keep) -> None:
        self.channel_count = channel_count
        self.n_records = n_records
        keep = range(channel_count) if keep is None else sorted({int(c) for c in keep})
        for c in keep:
            self._check_declared(c)
        self._kept = _take_channels(channel_count, n_records, slices, keep)

    def _check_declared(self, index: int) -> None:
        if not (0 <= index < self.channel_count):
            raise DataFormatError(
                f"channel {index} outside declared set 0..{self.channel_count - 1}"
            )

    def channel(self, index: int) -> np.ndarray:
        """Sorted int64 timestamps of channel ``index``."""
        self._check_declared(index)
        if index not in self._kept:
            raise InvalidParameterError(
                f"channel {index} was not read (read: {sorted(self._kept)})"
            )
        return self._kept[index]

    @property
    def by_channel(self) -> tuple[np.ndarray, ...]:
        """Every channel's sorted timestamps, in channel order."""
        return tuple(self.channel(c) for c in range(self.channel_count))


def _sorted_channels(by_channel, channel_count: int | None):
    """(channel count, each channel as sorted int64) of a writer's input."""
    by_channel = [np.asarray(ch, dtype=np.int64) for ch in by_channel]
    if channel_count is None:
        channel_count = len(by_channel)
    if channel_count < len(by_channel):
        raise DataFormatError("channel_count smaller than supplied channel list")
    by_channel = [np.sort(ch) if ch.size > 1 and bool(np.any(ch[1:] < ch[:-1])) else ch
                  for ch in by_channel]
    return channel_count, by_channel


def _merged_slices(by_channel):
    """(channel column, timestamp column) of the records, in (timestamp,
    channel) order, one time slice of about _SLICE_RECORDS records at a time.

    Every sorted channel is cut at the same timestamps with
    ``searchsorted(side="left")``, so equal stamps of different channels land
    in one slice and the slices follow each other in time. The cuts are taken
    from every ``step``-th stamp of each channel, which puts at most
    _SLICE_RECORDS + n_channels * step records between two distinct cuts;
    only a run of equal stamps makes a slice longer. In a slice, a stable
    sort of the channel-major concatenation keeps equal stamps in channel
    order.
    """
    n = len(by_channel)
    if sum(ch.size for ch in by_channel) == 0:
        return
    step = max(1, _SLICE_RECORDS // (4 * n))
    pilot = np.sort(np.concatenate([ch[step - 1 :: step] for ch in by_channel]))
    cuts = np.unique(pilot[_SLICE_RECORDS // step - 1 :: _SLICE_RECORDS // step])
    ends = [np.append(np.searchsorted(ch, cuts, side="left"), ch.size) for ch in by_channel]
    label = np.arange(n, dtype=np.min_scalar_type(n))
    lo = [0] * n
    for hi in zip(*ends):
        parts = [ch[a:b] for ch, a, b in zip(by_channel, lo, hi)]
        ts = np.concatenate(parts)
        order = np.argsort(ts, kind="stable")
        yield np.repeat(label, [p.size for p in parts])[order], ts[order]
        lo = hi


def write_tags(path, by_channel, channel_count: int | None = None) -> None:
    """Write per-channel timestamp arrays as a binary tag file, slice by slice."""
    if len(by_channel) > 256:
        raise DataFormatError("a record holds a u8 channel: at most 256 channels")
    channel_count, by_channel = _sorted_channels(by_channel, channel_count)
    with open(path, "wb") as f:
        f.write(HEADER.pack(MAGIC, FORMAT_VERSION, channel_count, 0))
        for channel, ts in _merged_slices(by_channel):
            rec = np.zeros(ts.size, dtype=TAG_DTYPE)
            rec["timestamp_ps"] = ts
            rec["channel"] = channel
            f.write(rec.data)


def read_tags(path, channels=None) -> TagStream:
    """Read the channels in ``channels`` (default: all) of a binary tag file.

    The records are read twice, _SLICE_RECORDS at a time into a reused
    buffer: once to check and count them, once to fill the kept channels. So
    the read holds the kept channels and one slice per core at work, whatever
    the file's size.
    """
    with open(path, "rb") as f:
        head = f.read(HEADER.size)
        body = os.fstat(f.fileno()).st_size - HEADER.size
    if len(head) < HEADER.size:
        raise DataFormatError(f"{path}: shorter than the 16-byte header")
    magic, version, channel_count, _ = HEADER.unpack(head)
    if magic != MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    if body % TAG_DTYPE.itemsize:
        raise DataFormatError(f"{path}: truncated record ({body} bytes of body)")
    n = body // TAG_DTYPE.itemsize

    def slices(starts):
        # one record buffer for each run of consecutive slices
        buffer = np.empty(min(_SLICE_RECORDS, n - starts[0]), dtype=TAG_DTYPE)
        raw = buffer.view(np.uint8)
        with open(path, "rb") as f:
            f.seek(HEADER.size + starts[0] * TAG_DTYPE.itemsize)
            for s in starts:
                m = min(_SLICE_RECORDS, n - s)
                if f.readinto(raw[: m * TAG_DTYPE.itemsize]) != m * TAG_DTYPE.itemsize:
                    raise DataFormatError(f"{path}: file shrank while it was read")
                rec = buffer[:m]
                yield rec["channel"], rec["timestamp_ps"]

    return TagStream._from_slices(channel_count, n, slices, channels)


def _csv_rows(row: str, *columns) -> str:
    """The line ``row % (c0[i], c1[i], ...)`` for each i.

    Each column goes through ``tolist()``, so ``%d`` prints an int64 exactly
    and ``%r`` prints a float as Python does.
    """
    values = [np.asarray(c).tolist() for c in columns]
    cells = tuple(itertools.chain.from_iterable(zip(*values)))
    return (row + "\n") * len(values[0]) % cells


def write_csv(path, header: str, row: str, *columns) -> None:
    """The header line, then the line ``row % (c0[i], c1[i], ...)`` for each i."""
    with open(path, "w") as f:
        f.write(header + "\n" + _csv_rows(row, *columns))


def write_tags_csv(path, by_channel, channel_count: int | None = None) -> None:
    """Write per-channel timestamp arrays as a CSV tag file, slice by slice."""
    _, by_channel = _sorted_channels(by_channel, channel_count)
    with open(path, "w") as f:
        f.write("channel,timestamp_ps\n")
        for channel, ts in _merged_slices(by_channel):
            f.write(_csv_rows("%d,%d", channel, ts))


def read_tags_csv(path, channel_count: int | None = None, channels=None) -> TagStream:
    """Read the channels in ``channels`` (default: all) of a CSV tag file."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    with open(path) as f:
        header = f.readline().strip()
    if header != "channel,timestamp_ps":
        raise DataFormatError(f"{path}: expected header 'channel,timestamp_ps'")
    if data.size == 0:
        data = np.empty((0, 2), dtype=np.int64)
    if channel_count is None:
        channel_count = int(data[:, 0].max()) + 1 if data.size else 0
    return TagStream(channel_count, data[:, 0], data[:, 1], channels)


def load_tags(path, channels=None) -> TagStream:
    """Read the channels in ``channels`` (default: all) of a tag file.

    Dispatch on extension: .csv reads the CSV variant, anything else binary.
    """
    if str(path).endswith(".csv"):
        return read_tags_csv(path, channels=channels)
    return read_tags(path, channels)

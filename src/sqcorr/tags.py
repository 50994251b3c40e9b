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
a caller asks for out of the file's records, in slices of _SLICE_RECORDS
records, and drop the file's buffer before returning: reading two channels
of a nine-channel file holds those two channels and, while reading, the
file's bytes. Within a channel the timestamps come back sorted, whatever the
record order of the file.
"""
from __future__ import annotations

import itertools
import struct
from pathlib import Path

import numpy as np

from .exceptions import DataFormatError, InvalidParameterError

MAGIC = b"HHGT"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sHHQ")

TAG_DTYPE = np.dtype(
    [("channel", "u1"), ("pad", "u1", (3,)), ("timestamp_ps", "<i8")]
)
assert TAG_DTYPE.itemsize == 12

# records the writers merge, and the reader takes channels from, per slice
_SLICE_RECORDS = 1 << 16


def _take_channels(channel_count: int, channels: np.ndarray, timestamps: np.ndarray,
                   keep) -> dict[int, np.ndarray]:
    """{c: sorted int64 timestamps of channel c} for c in keep, taken out of
    the record columns _SLICE_RECORDS records at a time.

    A first pass checks every record's channel against the declared count and
    counts the kept channels' records, so the second pass fills arrays of the
    final size and no channel is ever held twice.
    """
    n = timestamps.size
    counts = dict.fromkeys(keep, 0)
    for s in range(0, n, _SLICE_RECORDS):
        ch = np.ascontiguousarray(channels[s : s + _SLICE_RECORDS])
        if int(ch.min()) < 0:
            raise DataFormatError(f"negative record channel {int(ch.min())}")
        if int(ch.max()) >= channel_count:
            raise DataFormatError(
                f"record channel {int(ch.max())} >= declared count {channel_count}"
            )
        for c in keep:
            counts[c] += int(np.count_nonzero(ch == c))
    kept = {c: np.empty(size, dtype=np.int64) for c, size in counts.items()}
    filled = dict.fromkeys(keep, 0)
    # each slice's stamps are copied into one contiguous buffer: taking a
    # channel from it is faster than indexing the strided column, from one
    # channel up
    stamps = np.empty(min(n, _SLICE_RECORDS), dtype=np.int64)
    for s in range(0, n, _SLICE_RECORDS):
        ch = np.ascontiguousarray(channels[s : s + _SLICE_RECORDS])
        ts = stamps[: ch.size]
        ts[:] = timestamps[s : s + _SLICE_RECORDS]
        for c, out in kept.items():
            # flatnonzero + take copies about 3x faster than boolean-mask indexing
            t = ts.take(np.flatnonzero(ch == c))
            out[filled[c] : filled[c] + t.size] = t
            filled[c] += t.size
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
        self.channel_count = channel_count
        self.n_records = int(timestamps.size)
        keep = range(channel_count) if keep is None else sorted({int(c) for c in keep})
        for c in keep:
            self._check_declared(c)
        self._kept = _take_channels(channel_count, channels, timestamps, keep)

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

    The file is read into one buffer, which is dropped once the channels are
    taken out of it.
    """
    raw = Path(path).read_bytes()
    if len(raw) < HEADER.size:
        raise DataFormatError(f"{path}: shorter than the 16-byte header")
    magic, version, channel_count, _ = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    body = len(raw) - HEADER.size
    if body % TAG_DTYPE.itemsize:
        raise DataFormatError(f"{path}: truncated record ({body} bytes of body)")
    rec = np.frombuffer(raw, dtype=TAG_DTYPE, offset=HEADER.size)
    return TagStream(channel_count, rec["channel"], rec["timestamp_ps"], channels)


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

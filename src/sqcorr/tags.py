"""Time-tag stream I/O.

Binary format (little endian):
  header, 16 bytes: magic b"HHGT", format version u16 = 1, channel count u16,
  reserved u64 = 0; then packed 12-byte records {channel u8, pad u8[3],
  timestamp_ps i64}.

CSV alternative: header line ``channel,timestamp_ps`` then one record per row.

Both writers lay the records out by one merge, sorted by (timestamp, channel),
so identical inputs give identical bytes in either format. Both readers keep
the record columns as they are in the file and split a channel out only when
it is first asked for, so a command pays for the channels it reads. Within a
channel the timestamps come back sorted, whatever the record order of the
file.
"""
from __future__ import annotations

import itertools
import struct
from pathlib import Path

import numpy as np

from .exceptions import DataFormatError

MAGIC = b"HHGT"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sHHQ")

TAG_DTYPE = np.dtype(
    [("channel", "u1"), ("pad", "u1", (3,)), ("timestamp_ps", "<i8")]
)
assert TAG_DTYPE.itemsize == 12


class TagStream:
    """A parsed tag stream: the record columns, split into channels on demand.

    ``channel(i)`` selects channel i's timestamps on first use and keeps them;
    a command that reads two of nine channels never splits the other seven.
    A channel is sorted only if its timestamps are out of order, which files
    written by ``write_tags`` never are.
    """

    def __init__(self, channel_count: int, channels: np.ndarray,
                 timestamps: np.ndarray):
        if channels.size and int(channels.max()) >= channel_count:
            raise DataFormatError(
                f"record channel {int(channels.max())} >= declared count {channel_count}"
            )
        if channels.size and int(channels.min()) < 0:
            raise DataFormatError(f"negative record channel {int(channels.min())}")
        self.channel_count = channel_count
        self._channels = channels
        self._timestamps = timestamps
        self._split: dict[int, np.ndarray] = {}

    @property
    def n_records(self) -> int:
        return int(self._timestamps.size)

    def channel(self, index: int) -> np.ndarray:
        """Sorted int64 timestamps of channel ``index``."""
        if not (0 <= index < self.channel_count):
            raise DataFormatError(
                f"channel {index} outside declared set 0..{self.channel_count - 1}"
            )
        if index not in self._split:
            # flatnonzero + take copies about 3x faster than boolean-mask indexing
            t = self._timestamps.take(np.flatnonzero(self._channels == index))
            if t.size > 1 and bool(np.any(t[1:] < t[:-1])):
                t.sort()
            self._split[index] = t
        return self._split[index]

    @property
    def by_channel(self) -> tuple[np.ndarray, ...]:
        """Every channel's sorted timestamps, in channel order."""
        return tuple(self.channel(c) for c in range(self.channel_count))


def _merge(by_channel, channel_count: int | None):
    """(channel count, channel column, timestamp column) of the records in
    (timestamp, channel) order.

    A stable sort of the channel-major concatenation keeps equal timestamps in
    channel order.
    """
    by_channel = [np.asarray(ch, dtype=np.int64) for ch in by_channel]
    if channel_count is None:
        channel_count = len(by_channel)
    if channel_count < len(by_channel):
        raise DataFormatError("channel_count smaller than supplied channel list")
    ts = np.concatenate(by_channel or [np.empty(0, dtype=np.int64)])
    order = np.argsort(ts, kind="stable")
    n = len(by_channel)
    channel = np.repeat(np.arange(n, dtype=np.min_scalar_type(n)),
                        [ch.size for ch in by_channel])[order]
    return channel_count, channel, ts[order]


def write_tags(path, by_channel, channel_count: int | None = None) -> None:
    """Write per-channel timestamp arrays as a binary tag file."""
    if len(by_channel) > 256:
        raise DataFormatError("a record holds a u8 channel: at most 256 channels")
    channel_count, channel, ts = _merge(by_channel, channel_count)
    rec = np.zeros(ts.size, dtype=TAG_DTYPE)
    rec["timestamp_ps"] = ts
    rec["channel"] = channel
    with open(path, "wb") as f:
        f.write(HEADER.pack(MAGIC, FORMAT_VERSION, channel_count, 0))
        f.write(rec.data)


def read_tags(path) -> TagStream:
    """Read a binary tag file; channels are split and sorted when first read."""
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
    return TagStream(channel_count, np.ascontiguousarray(rec["channel"]),
                     np.ascontiguousarray(rec["timestamp_ps"], dtype=np.int64))


def write_csv(path, header: str, row: str, *columns) -> None:
    """The header line, then the line ``row % (c0[i], c1[i], ...)`` for each i.

    Each column goes through ``tolist()``, so ``%d`` prints an int64 exactly
    and ``%r`` prints a float as Python does.
    """
    values = [np.asarray(c).tolist() for c in columns]
    cells = tuple(itertools.chain.from_iterable(zip(*values)))
    with open(path, "w") as f:
        f.write(header + "\n" + (row + "\n") * len(values[0]) % cells)


def write_tags_csv(path, by_channel, channel_count: int | None = None) -> None:
    """Write per-channel timestamp arrays as a CSV tag file."""
    _, channel, ts = _merge(by_channel, channel_count)
    write_csv(path, "channel,timestamp_ps", "%d,%d", channel, ts)


def read_tags_csv(path, channel_count: int | None = None) -> TagStream:
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
    channels = np.ascontiguousarray(data[:, 0])
    if channel_count is None:
        channel_count = int(channels.max()) + 1 if channels.size else 0
    return TagStream(channel_count, channels, np.ascontiguousarray(data[:, 1]))


def load_tags(path) -> TagStream:
    """Dispatch on extension: .csv reads the CSV variant, anything else binary."""
    if str(path).endswith(".csv"):
        return read_tags_csv(path)
    return read_tags(path)

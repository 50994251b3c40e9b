"""The `dense_analysis` input: three beams fed the same geometric photon number.

Written without sqcorr. The tag file follows the HHGT layout that
`sqcorr.tags` documents: a 16-byte little-endian header (magic b"HHGT",
version u16 = 1, channel count u16, reserved u64 = 0), then packed 12-byte
records {channel u8, pad u8[3], timestamp_ps i64} sorted by
(timestamp, channel).
"""
from __future__ import annotations

import struct

import numpy as np

HEADER = struct.Struct("<4sHHQ")
RECORD = np.dtype([("channel", "u1"), ("pad", "u1", (3,)), ("timestamp_ps", "<i8")])


def generate(seed: int, n_pulses: int, *, n_bar: float, eta: float, beams: int,
             arms: int, period_ps: float, jitter_ps: float) -> list[np.ndarray]:
    """Sorted int64 click times per channel, channels numbered beam-major.

    Per pulse one photon number n ~ geometric(mean n_bar) enters every beam;
    each beam sends each photon to one of its arms with probability eta/arms
    (lost otherwise). An arm clicks when it receives at least one photon, at
    the pulse time plus Gaussian jitter.
    """
    rng = np.random.default_rng(seed)
    n = rng.geometric(1.0 / (1.0 + n_bar), n_pulses) - 1
    live = np.flatnonzero(n)
    share = eta / arms
    pvals = [share] * arms + [1.0 - eta]
    channels = []
    for _ in range(beams):
        split = rng.multinomial(n[live], pvals)
        for a in range(arms):
            pulse = live[split[:, a] > 0]
            jitter = np.round(rng.normal(0.0, jitter_ps, pulse.size)).astype(np.int64)
            channels.append(np.sort(np.round(pulse * period_ps).astype(np.int64) + jitter))
    return channels


def write_hhgt(path, channels: list[np.ndarray]) -> int:
    """Write the channels as one HHGT file; returns the record count."""
    chan = np.concatenate([np.full(t.size, c, dtype=np.uint8) for c, t in enumerate(channels)])
    stamp = np.concatenate(channels)
    order = np.lexsort((chan, stamp))
    rec = np.zeros(stamp.size, dtype=RECORD)
    rec["channel"] = chan[order]
    rec["timestamp_ps"] = stamp[order]
    with open(path, "wb") as f:
        f.write(HEADER.pack(b"HHGT", 1, len(channels), 0))
        f.write(rec.tobytes())
    return int(stamp.size)


def read_hhgt_counts(path) -> tuple[int, np.ndarray]:
    """Channel count from the header and the number of records per channel."""
    with open(path, "rb") as f:
        raw = f.read()
    _, _, n_channels, _ = HEADER.unpack_from(raw)
    rec = np.frombuffer(raw, dtype=RECORD, offset=HEADER.size)
    return n_channels, np.bincount(rec["channel"], minlength=n_channels)

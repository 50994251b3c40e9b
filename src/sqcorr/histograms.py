"""Coincidence histograms over time-tag streams.

Delays are binned into an odd number of bins centered on integer multiples of
the bin width, so the zero-delay peak and every satellite peak sit on a bin
center: the window lower edge is lo_edge = -(nbins//2 * bin + bin//2), and a
delay d in [lo_edge, lo_edge + nbins*bin) falls in bin (d - lo_edge) // bin.
Anchors are processed in chunks, and triples in batches of anchors, to bound
memory; partial histograms add, so the result is independent of either size.
The anchors are split into at least one share per core in the process's
affinity mask and the shares are binned in parallel (sqcorr.parallel); the
counts do not depend on how many cores, and `taskset` limits them.
Streams too large for memory would chunk both channels with overlap equal to
the window; the reader here holds channels in memory, so anchor chunking alone
is exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import LASER_PERIOD_PS
from .exceptions import EmptyChannelError, InvalidParameterError
from .parallel import parallel_map, shares
from .tags import TagStream, write_csv

DEFAULT_BIN_PS = 100
DEFAULT_WINDOW_PERIODS = 25
BIN2D_PER_PERIOD = 26
DEFAULT_BIN2D_PS = int(LASER_PERIOD_PS / BIN2D_PER_PERIOD)
DEFAULT_WINDOW2D_PERIODS = 4
_CHUNK_ANCHORS = 1 << 20
_CHUNK_TRIPLES = 1 << 20


@dataclass
class Histogram1D:
    """Delay histogram: counts per bin, bins centered on multiples of bin_width_ps."""

    bin_width_ps: int
    counts: np.ndarray
    acquisition_s: float

    @property
    def nbins(self) -> int:
        return int(self.counts.size)

    def bin_centers(self) -> np.ndarray:
        half = self.nbins // 2
        return (np.arange(self.nbins, dtype=np.int64) - half) * self.bin_width_ps

    @property
    def range_ps(self) -> int:
        # covered range is +-(half*bin + bin//2)
        return (self.nbins // 2) * self.bin_width_ps + self.bin_width_ps // 2


@dataclass
class Histogram2D:
    """Pair-delay histogram: counts[k1, k2] over (t1-t0, t2-t0)."""

    bin_width_ps: int
    counts: np.ndarray
    acquisition_s: float

    @property
    def nbins(self) -> int:
        return int(self.counts.shape[0])

    def bin_centers(self) -> np.ndarray:
        half = self.nbins // 2
        return (np.arange(self.nbins, dtype=np.int64) - half) * self.bin_width_ps


def _lo_edge(bin_ps: int, nbins: int) -> int:
    return -((nbins // 2) * bin_ps + bin_ps // 2)


def _windows(anchors: np.ndarray, partners: np.ndarray, lo_edge: int, hi_excl: int):
    """First partner index and partner count in each anchor's window [lo_edge, hi_excl)."""
    lo = np.searchsorted(partners, anchors + lo_edge, side="left")
    hi = np.searchsorted(partners, anchors + hi_excl, side="left")
    return lo, hi - lo


def _expand(lo: np.ndarray, m: np.ndarray):
    """Flatten windows [lo[i], lo[i] + m[i]) into (window i, member index) pairs."""
    owner = np.repeat(np.arange(lo.size), m)
    member = np.arange(owner.size) - np.repeat(np.cumsum(m) - m - lo, m)
    return owner, member


def _hist1d(ta: np.ndarray, tb: np.ndarray, bin_ps: int, nbins: int) -> np.ndarray:
    """Counts of delays tb - ta per bin, over every (anchor, partner) pair in the window."""
    lo_edge = _lo_edge(bin_ps, nbins)
    anchor, partner = _expand(*_windows(ta, tb, lo_edge, lo_edge + nbins * bin_ps))
    k = (tb[partner] - ta[anchor] - lo_edge) // bin_ps
    return np.bincount(k, minlength=nbins)


def _hist2d(t0: np.ndarray, t1: np.ndarray, t2: np.ndarray, bin_ps: int,
            nbins: int) -> np.ndarray:
    """Counts of (t1 - t0, t2 - t0) per 2D bin, over every triple in the window."""
    lo_edge = _lo_edge(bin_ps, nbins)
    hi_excl = lo_edge + nbins * bin_ps
    lo2, m2 = _windows(t0, t2, lo_edge, hi_excl)
    # anchors with no t2 partner form no triple, so their t1 windows are never searched
    busy = np.flatnonzero(m2)
    if busy.size == 0:
        return np.zeros((nbins, nbins), dtype=np.int64)
    t0, lo2, m2 = t0[busy], lo2[busy], m2[busy]
    lo1, m1 = _windows(t0, t1, lo_edge, hi_excl)
    # the expanded arrays grow with the triple count, not the anchor count, so
    # anchors go in batches of about _CHUNK_TRIPLES triples each
    ends = np.cumsum(m1 * m2)
    cuts = np.searchsorted(ends, np.arange(_CHUNK_TRIPLES, ends[-1], _CHUNK_TRIPLES),
                           side="right").tolist()
    counts = np.zeros(nbins * nbins, dtype=np.int64)
    for s, e in zip([0, *cuts], [*cuts, t0.size]):
        anchor, j1 = _expand(lo1[s:e], m1[s:e])
        anchor += s
        k1 = (t1[j1] - t0[anchor] - lo_edge) // bin_ps
        pair, j2 = _expand(lo2[anchor], m2[anchor])
        k2 = (t2[j2] - t0[anchor[pair]] - lo_edge) // bin_ps
        counts += np.bincount(k1[pair] * nbins + k2, minlength=nbins * nbins)
    return counts.reshape(nbins, nbins)


def _check_bin(bin_width_ps: int, period_ps: float) -> None:
    if bin_width_ps < 1:
        raise InvalidParameterError(f"bin width must be >= 1 ps, got {bin_width_ps}")
    ratio = period_ps / bin_width_ps
    if abs(ratio - round(ratio)) / ratio > 1e-3:
        raise InvalidParameterError(
            f"bin width {bin_width_ps} ps does not divide the period "
            f"{period_ps:.2f} ps within 0.1%"
        )


def _nbins(range_ps: float, bin_width_ps: int) -> int:
    return 2 * int(range_ps // bin_width_ps) + 1


def _acquisition_s(channels) -> float:
    lo = min(int(ch[0]) for ch in channels if ch.size)
    hi = max(int(ch[-1]) for ch in channels if ch.size)
    return (hi - lo) / 1e12


def _get_channel(tags: TagStream, index: int) -> np.ndarray:
    ch = tags.channel(index)
    if ch.size == 0:
        raise EmptyChannelError(f"channel {index} has no tags")
    return np.ascontiguousarray(ch, dtype=np.int64)


def coincidence_histogram_2(
    tags: TagStream,
    ch_a: int,
    ch_b: int,
    bin_width_ps: int = DEFAULT_BIN_PS,
    range_ps: float | None = None,
    *,
    period_ps: float = LASER_PERIOD_PS,
    chunk_anchors: int = _CHUNK_ANCHORS,
) -> Histogram1D:
    """Histogram of delays t_b - t_a within +-range_ps (default 25.5 periods)."""
    _check_bin(bin_width_ps, period_ps)
    if range_ps is None:
        range_ps = (DEFAULT_WINDOW_PERIODS + 0.5) * period_ps
    ta = _get_channel(tags, ch_a)
    tb = _get_channel(tags, ch_b)
    nbins = _nbins(range_ps, bin_width_ps)
    parts = parallel_map(lambda s: _hist1d(ta[s], tb, bin_width_ps, nbins),
                         shares(ta.size, chunk_anchors))
    return Histogram1D(bin_width_ps, sum(parts), _acquisition_s((ta, tb)))


def coincidence_histogram_3(
    tags: TagStream,
    ch_a: int,
    ch_b: int,
    ch_c: int,
    bin_width_ps: int = DEFAULT_BIN2D_PS,
    range_ps: float | None = None,
    *,
    period_ps: float = LASER_PERIOD_PS,
    chunk_anchors: int = _CHUNK_ANCHORS,
) -> Histogram2D:
    """2D histogram of (t_b - t_a, t_c - t_a) within +-range_ps (default 4.5 periods)."""
    _check_bin(bin_width_ps, period_ps)
    if range_ps is None:
        range_ps = (DEFAULT_WINDOW2D_PERIODS + 0.5) * period_ps
    t0 = _get_channel(tags, ch_a)
    t1 = _get_channel(tags, ch_b)
    t2 = _get_channel(tags, ch_c)
    nbins = _nbins(range_ps, bin_width_ps)
    parts = parallel_map(lambda s: _hist2d(t0[s], t1, t2, bin_width_ps, nbins),
                         shares(t0.size, chunk_anchors))
    return Histogram2D(bin_width_ps, sum(parts), _acquisition_s((t0, t1, t2)))


def histogram_to_csv(hist: Histogram1D, path) -> None:
    write_csv(path, "delay_ps,counts", "%d,%d", hist.bin_centers(), hist.counts)


def histogram2d_to_csv(hist: Histogram2D, path) -> None:
    centers = hist.bin_centers()
    i, j = np.nonzero(hist.counts)  # row-major, the order the rows are written in
    write_csv(path, "delay1_ps,delay2_ps,counts", "%d,%d,%d", centers[i], centers[j],
              hist.counts[i, j])

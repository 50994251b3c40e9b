"""Coincidence histograms over time-tag streams.

Delays are binned into an odd number of bins centered on integer multiples of
the bin width, so the zero-delay peak and every satellite peak sit on a bin
center: the window lower edge is lo_edge = -(nbins//2 * bin + bin//2), and a
delay d in [lo_edge, lo_edge + nbins*bin) falls in bin (d - lo_edge) // bin.
A window holds at most MAX_CELLS bins (1D) or cells (2D); a range that is
negative, not finite or wider than that is rejected.

The kernels never list the pairs or triples. One searchsorted finds each
anchor's first partner at or after t + lo_edge; the kernel then steps
through partner offsets 0, 1, 2, ..., keeping at each step the anchors whose
partner at that offset is still in the window (2D: over t1 offsets, and
inside each over t2 offsets). Anchors are split into at least one share per
core in the process's affinity mask, each at most _CHUNK_ANCHORS long, and
the shares are binned in parallel (sqcorr.parallel). A share steps its
anchors in blocks of _BLOCK_ANCHORS into one tally, so working arrays are
the size of a block of anchors, and the bin indices of the steps are counted
by one bincount per batch of at least max(cells, _BATCH_INDICES) indices.
So memory is bounded by the block, the cells and the batch per core,
whatever the number of anchors, pairs or triples. Partial histograms add, so
the counts do not depend on the share, block or batch size or how many
cores, and `taskset` limits them. The reader holds channels in memory, so
anchor chunking alone is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import LASER_PERIOD_PS
from .exceptions import DataFormatError, EmptyChannelError, InvalidParameterError
from .parallel import parallel_map, shares
from .tags import TagStream, write_csv

DEFAULT_BIN_PS = 100
DEFAULT_WINDOW_PERIODS = 25
BIN2D_PER_PERIOD = 26
DEFAULT_WINDOW2D_PERIODS = 4
_CHUNK_ANCHORS = 1 << 20
_BLOCK_ANCHORS = 1 << 17
_BATCH_INDICES = 1 << 16
# bins of a 1D histogram and cells of a 2D one, and the window's extent
MAX_CELLS = 1 << 24
MAX_WINDOW_PS = 1 << 62
_INT64 = np.iinfo(np.int64)


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


def _offsets(base: np.ndarray, first: np.ndarray, partners: np.ndarray, last: int,
             *carried: np.ndarray, exact: bool = False):
    """Step j = 0, 1, 2, ... through each anchor's partners from index first.

    Anchor i's window is [base[i], base[i] + last] and partners[first[i]] is
    its first partner at or after base[i]. At step j, yields (rel, base,
    *carried) in anchor order, with rel = partners[first + j] - base, a fresh
    array the caller may overwrite. An anchor whose partner j is out of the
    window is dead: the partners are sorted, so its later partners are out
    too. Dead anchors are dropped once they are half of those left (at once
    if ``exact``); until then they stay in, with rel > last, which costs less
    than dropping them at every step. Anchors are in time order, so first
    never decreases along the ones left, and those whose partner j would lie
    past the last partner form a suffix that is cut off without a sentinel.
    """
    n = partners.size
    j = 0
    while base.size:
        if first[-1] + j >= n:
            cut = int(np.searchsorted(first, n - j))
            first, base = first[:cut], base[:cut]
            carried = tuple(c[:cut] for c in carried)
        rel = partners[j:].take(first)
        rel -= base
        inside = rel <= last
        alive = int(np.count_nonzero(inside))
        if alive == 0:
            return
        if alive < rel.size if exact else 2 * alive < rel.size:
            keep = np.flatnonzero(inside)
            first, base, rel = first.take(keep), base.take(keep), rel.take(keep)
            carried = tuple(c.take(keep) for c in carried)
        yield (rel, base, *carried)
        j += 1


def _batch_size(cells: int) -> int:
    """Bin indices collected before one bincount: at least the cell count, so
    the bincount's O(cells) cost is spread over as many indices."""
    return max(cells, _BATCH_INDICES)


class _Tally:
    """Counts per cell, from bin indices added in arrays and binned in batches."""

    def __init__(self, cells: int):
        self.cells = cells
        self.counts = np.zeros(cells, dtype=np.int64)
        self.flush_at = _batch_size(cells)
        self.parts: list[np.ndarray] = []
        self.held = 0

    def add(self, k: np.ndarray) -> None:
        self.parts.append(k)
        self.held += k.size
        if self.held >= self.flush_at:
            self.flush()

    def flush(self) -> np.ndarray:
        if self.parts:
            k = self.parts[0] if len(self.parts) == 1 else np.concatenate(self.parts)
            self.counts += np.bincount(k, minlength=self.cells)
            self.parts, self.held = [], 0
        return self.counts


def _bins(rel: np.ndarray, bin_ps: int, nbins: int) -> np.ndarray:
    """Bin of each rel = delay - lo_edge >= 0, in place; nbins past the window."""
    np.minimum(rel, nbins * bin_ps, out=rel)
    rel //= bin_ps
    return rel


def _blocks(anchors: np.ndarray, lo_edge: int):
    """Window starts of the anchors, _BLOCK_ANCHORS at a time."""
    for s in range(0, anchors.size, _BLOCK_ANCHORS):
        yield anchors[s:s + _BLOCK_ANCHORS] + lo_edge


def _hist1d(ta: np.ndarray, tb: np.ndarray, bin_ps: int, nbins: int) -> np.ndarray:
    """Counts of delays tb - ta per bin, over every (anchor, partner) pair in the window."""
    last = nbins * bin_ps - 1
    # one extra bin takes the dead anchors' partners
    tally = _Tally(nbins + 1)
    for base in _blocks(ta, _lo_edge(bin_ps, nbins)):
        for rel, _ in _offsets(base, np.searchsorted(tb, base), tb, last):
            tally.add(_bins(rel, bin_ps, nbins))
    return tally.flush()[:nbins]


def _hist2d(t0: np.ndarray, t1: np.ndarray, t2: np.ndarray, bin_ps: int,
            nbins: int) -> np.ndarray:
    """Counts of (t1 - t0, t2 - t0) per 2D bin, over every triple in the window."""
    last = nbins * bin_ps - 1
    # rows of nbins + 1 cells: the last takes the dead anchors' t2 partners
    row_cells = nbins + 1
    tally = _Tally(nbins * row_cells)
    for base in _blocks(t0, _lo_edge(bin_ps, nbins)):
        first2 = np.searchsorted(t2, base)
        # anchors with no t2 partner form no triple, so their t1 windows are never searched
        cut = int(np.searchsorted(first2, t2.size))
        busy = np.flatnonzero(t2.take(first2[:cut]) - base[:cut] <= last)
        base, first2 = base.take(busy), first2.take(busy)
        for rel1, base1, first21 in _offsets(base, np.searchsorted(t1, base), t1, last,
                                             first2, exact=True):
            rel1 //= bin_ps
            rel1 *= row_cells
            for rel2, _, row in _offsets(base1, first21, t2, last, rel1):
                k = _bins(rel2, bin_ps, nbins)
                k += row
                tally.add(k)
    return tally.flush().reshape(nbins, row_cells)[:, :nbins]


def _check_period(period_ps: float) -> None:
    if not (math.isfinite(period_ps) and period_ps > 0):
        raise InvalidParameterError(f"period must be finite and > 0 ps, got {period_ps}")


def _check_args(channels, bin_width_ps: int, period_ps: float) -> None:
    _check_period(period_ps)
    if len(set(channels)) < len(channels):
        raise InvalidParameterError(f"channels {channels} repeat: a tag would pair with itself")
    if bin_width_ps < 1:
        raise InvalidParameterError(f"bin width must be >= 1 ps, got {bin_width_ps}")
    ratio = period_ps / bin_width_ps
    if abs(ratio - round(ratio)) / ratio > 1e-3:
        raise InvalidParameterError(
            f"bin width {bin_width_ps} ps does not divide the period "
            f"{period_ps:.2f} ps within 0.1%"
        )


def _nbins(range_ps: float, bin_width_ps: int, dims: int) -> int:
    """Bins per axis of a window of half-width range_ps, within the ceilings."""
    if not (math.isfinite(range_ps) and range_ps >= 0):
        raise InvalidParameterError(f"range must be finite and >= 0 ps, got {range_ps}")
    nbins = 2 * (range_ps // bin_width_ps) + 1
    if nbins**dims > MAX_CELLS:
        raise InvalidParameterError(
            f"range {range_ps} ps at {bin_width_ps} ps bins gives {nbins:.0f}^{dims} "
            f"cells, more than the ceiling of {MAX_CELLS}"
        )
    nbins = int(nbins)
    if nbins * bin_width_ps > MAX_WINDOW_PS:
        raise InvalidParameterError(
            f"window of {nbins} bins of {bin_width_ps} ps exceeds {MAX_WINDOW_PS} ps"
        )
    return nbins


def _span(channels, nbins: int, bin_ps: int) -> tuple[int, int]:
    """(earliest, latest) stamp of the channels, checked to leave the window's
    headroom: every anchor's window start and every delay from it fit in int64."""
    lo = min(int(ch[0]) for ch in channels)
    hi = max(int(ch[-1]) for ch in channels)
    start = lo + _lo_edge(bin_ps, nbins)
    if start < _INT64.min or hi - start > _INT64.max:
        raise DataFormatError(
            f"stamps from {lo} to {hi} ps leave no room for a window of "
            f"{nbins * bin_ps} ps in int64"
        )
    return lo, hi


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
) -> Histogram1D:
    """Histogram of delays t_b - t_a within +-range_ps (default 25.5 periods)."""
    _check_args((ch_a, ch_b), bin_width_ps, period_ps)
    if range_ps is None:
        range_ps = (DEFAULT_WINDOW_PERIODS + 0.5) * period_ps
    nbins = _nbins(range_ps, bin_width_ps, 1)
    ta = _get_channel(tags, ch_a)
    tb = _get_channel(tags, ch_b)
    lo, hi = _span((ta, tb), nbins, bin_width_ps)
    parts = parallel_map(lambda s: _hist1d(ta[s], tb, bin_width_ps, nbins),
                         shares(ta.size, _CHUNK_ANCHORS))
    return Histogram1D(bin_width_ps, sum(parts), (hi - lo) / 1e12)


def coincidence_histogram_3(
    tags: TagStream,
    ch_a: int,
    ch_b: int,
    ch_c: int,
    bin_width_ps: int | None = None,
    range_ps: float | None = None,
    *,
    period_ps: float = LASER_PERIOD_PS,
) -> Histogram2D:
    """2D histogram of (t_b - t_a, t_c - t_a) within +-range_ps (default 4.5 periods).

    The bin width defaults to int(period_ps / BIN2D_PER_PERIOD).
    """
    if bin_width_ps is None:
        _check_period(period_ps)
        bin_width_ps = int(period_ps / BIN2D_PER_PERIOD)
    _check_args((ch_a, ch_b, ch_c), bin_width_ps, period_ps)
    if range_ps is None:
        range_ps = (DEFAULT_WINDOW2D_PERIODS + 0.5) * period_ps
    nbins = _nbins(range_ps, bin_width_ps, 2)
    t0 = _get_channel(tags, ch_a)
    t1 = _get_channel(tags, ch_b)
    t2 = _get_channel(tags, ch_c)
    lo, hi = _span((t0, t1, t2), nbins, bin_width_ps)
    parts = parallel_map(lambda s: _hist2d(t0[s], t1, t2, bin_width_ps, nbins),
                         shares(t0.size, _CHUNK_ANCHORS))
    return Histogram2D(bin_width_ps, sum(parts), (hi - lo) / 1e12)


def histogram_to_csv(hist: Histogram1D, path) -> None:
    write_csv(path, "delay_ps,counts", "%d,%d", hist.bin_centers(), hist.counts)


def histogram2d_to_csv(hist: Histogram2D, path) -> None:
    centers = hist.bin_centers()
    i, j = np.nonzero(hist.counts)  # row-major, the order the rows are written in
    write_csv(path, "delay1_ps,delay2_ps,counts", "%d,%d,%d", centers[i], centers[j],
              hist.counts[i, j])

"""parallel_map and shares: item order, the caller's share, error propagation."""
import sys
import threading
import time

import pytest

from sqcorr.parallel import parallel_map, shares


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_results_in_item_order(monkeypatch, cores):
    monkeypatch.setattr("sqcorr.parallel._CORES", cores)
    assert parallel_map(lambda x: x * x, range(50)) == [x * x for x in range(50)]
    assert parallel_map(lambda x: x, []) == []
    assert parallel_map(lambda x: -x, [4]) == [-4]


def test_caller_takes_a_share_and_threads_never_exceed_cores(monkeypatch):
    monkeypatch.setattr("sqcorr.parallel._CORES", 3)
    barrier = threading.Barrier(3, timeout=10)
    idents = []

    def fn(x):
        if x < 3:
            barrier.wait()  # each of the first three items holds a thread until all three run
        idents.append(threading.get_ident())
        return x

    assert parallel_map(fn, range(12)) == list(range(12))
    assert threading.get_ident() in idents
    assert len(set(idents)) == 3


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_error_of_lowest_item_is_raised(monkeypatch, cores):
    monkeypatch.setattr("sqcorr.parallel._CORES", cores)

    def fn(x):
        if x in (5, 9):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 5"):
        parallel_map(fn, range(20))


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("n, max_size", [(0, 10), (1, 10), (2, 10), (7, 3), (10, 100), (1000, 137)])
def test_shares_cover_range(monkeypatch, cores, n, max_size):
    monkeypatch.setattr("sqcorr.parallel._CORES", cores)
    parts = shares(n, max_size)
    assert [i for s in parts for i in range(n)[s]] == list(range(n))
    assert all(0 < len(range(n)[s]) <= max_size for s in parts)
    assert len(parts) >= min(n, cores)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("n, min_size", [(0, 8), (7, 8), (16, 8), (33, 8), (100, 1)])
def test_shares_no_shorter_than_min_size(monkeypatch, cores, n, min_size):
    monkeypatch.setattr("sqcorr.parallel._CORES", cores)
    parts = shares(n, n, min_size)
    sizes = [len(range(n)[s]) for s in parts]
    assert sum(sizes) == n and [i for s in parts for i in range(n)[s]] == list(range(n))
    assert all(size >= min_size for size in sizes[:-1])
    assert len(parts) >= min(cores, n // min_size)


def test_each_item_runs_once_under_frequent_switches(monkeypatch):
    """More threads than cores and a tiny switch interval: no item is lost or repeated."""
    monkeypatch.setattr("sqcorr.parallel._CORES", 8)
    calls = [0] * 3000

    def fn(x):
        calls[x] += 1  # each index is written by the one thread that claimed it
        return sum(range(x % 50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        out = parallel_map(fn, range(3000))
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - start < 60
    assert out == [sum(range(x % 50)) for x in range(3000)]
    assert calls == [1] * 3000

"""The CLI's allocator policy: glibc keeps freed memory in the process.

Only a command run through the CLI sets it; importing sqcorr or sqcorr.cli
leaves the allocator alone, and without mallopt the policy does nothing.
"""
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from sqcorr import cli, load_tags
from sqcorr.cli import main

SRC = str(Path(cli.__file__).resolve().parents[1])
# M_MMAP_THRESHOLD = 32 MB, M_TRIM_THRESHOLD = 1 GB
POLICY = [(-3, 32 << 20), (-1, 1 << 30)]


def _run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return res.stdout


def _crossover_args(tmp_path) -> list[str]:
    """A quick command: crossover on a single power law."""
    data = tmp_path / "c.csv"
    data.write_text("intensity,yield\n" + "".join(f"{x},{2 * x**2}\n" for x in range(1, 9)))
    return ["--out", str(tmp_path / "x"), "crossover", str(data)]


def _crossover(tmp_path):
    res = CliRunner().invoke(main, _crossover_args(tmp_path))
    assert res.exit_code == 0, res.output
    return res


class _Libc:
    """A C library whose mallopt, a plain function as ctypes' are, records its calls."""

    def __init__(self, calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1
        self.mallopt = mallopt


def test_a_command_sets_the_policy(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _Libc(calls))
    _crossover(tmp_path)
    assert calls == POLICY


def test_importing_does_not_set_the_policy(tmp_path):
    out = _run_python(f"""
import ctypes, json
calls = []
class Libc:
    def __init__(self):
        self.mallopt = lambda param, value: calls.append((param, value))
ctypes.CDLL = lambda name: Libc()
import sqcorr, sqcorr.cli
on_import = list(calls)
sqcorr.cli.main({_crossover_args(tmp_path)!r}, standalone_mode=False)
print(json.dumps([on_import, calls]))
""")
    on_import, after_command = json.loads(out.splitlines()[-1])
    assert on_import == []
    assert [tuple(c) for c in after_command] == POLICY


class _NoMallopt:
    pass


def _raise_oserror(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: _NoMallopt(), _raise_oserror],
                         ids=["no-mallopt", "cdll-raises"])
def test_policy_is_a_no_op_without_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert "p = 2.0000" in _crossover(tmp_path).output


GLIBC = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory):
    """A simulated 2-beam, 2-arm pair file and its channels' pages."""
    tmp = tmp_path_factory.mktemp("pair")
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "source": {"kind": "pair", "n_bar": 0.3, "n_beams": 2},
        "optics": {"eta": 0.9, "n_pulses": 2_000_000, "splitter": [0.5, 0.5]},
    }))
    res = CliRunner().invoke(main, ["--config", str(config), "--seed", "3",
                                    "--out", str(tmp), "simulate"])
    assert res.exit_code == 0, res.output
    tags = tmp / "tags.bin"
    loaded = load_tags(tags)
    pages = sum(loaded.channel(c).nbytes for c in range(4)) / os.sysconf("SC_PAGE_SIZE")
    assert pages > 1000
    return tags, pages


def _csi_faults(tags, runs: int, policy: bool = True) -> list[int]:
    """Minor faults of each csi run in one fresh process, which like the
    sqcorr command starts no thread before its first command."""
    out = _run_python(f"""
import resource
from sqcorr import cli
if not {policy!r}:
    cli._keep_freed_memory = lambda: None
args = ["--out", {str(tags.parent / "x")!r}, "csi", {str(tags)!r}]
for _ in range({runs}):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.main(args, standalone_mode=False)
    print("faults", resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")
    return [int(line.split()[1]) for line in out.splitlines() if line.startswith("faults")]


@GLIBC
def test_one_csi_faults_fewer_pages(pair_file):
    """The sqcorr command runs one command per process: within it, each
    histogram reuses the temporaries the last one freed."""
    tags, _ = pair_file
    kept = [_csi_faults(tags, 1)[0] for _ in range(3)]
    freed = [_csi_faults(tags, 1, policy=False)[0] for _ in range(3)]
    assert max(kept) < 0.6 * min(freed), (kept, freed)


@GLIBC
def test_later_csi_keeps_its_pages(pair_file):
    tags, pages = pair_file
    faults = _csi_faults(tags, 4)[1:]
    # without the policy every csi faults its channels and temporaries in
    # again. With it, which core bins which share still decides where the
    # main heap's free blocks fall, so one run in a few grows that heap by
    # a few MB: the fewest of the three runs is the bound's test.
    assert len(faults) == 3
    assert min(faults) < pages / 10, faults

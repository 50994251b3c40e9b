"""Runs one workload's CLI commands in-process and records what they did.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the sqcorr source directory, the warm-up and per-pass
commands, the run length and whether to trace. Only the standard library is
imported before `sqcorr.cli`, so the recorded ready time marks the end of the
program's own set-up. Each command is one operation: `sqcorr.cli.main` with
`standalone_mode=False`, timed alone; the outputs it names are removed before
and summarised after it, outside the timed span.

The host's speed swings by tens of percent within seconds. So while an
untraced pass's commands, or the import of `sqcorr.cli`, are timed, a
`HostClock` times a short fixed kernel every 0.1 s in between the program's
own work. The kernel's mean time lets the caller express the work at one
reference speed (see README.md); the kernel's own seconds are taken out of
the work's. A plan with "probe" set only imports `sqcorr.cli` and stops.
"""
import json
import os
import signal
import statistics
import sys
import time

SAMPLE_PERIOD_S = 0.1


class HostClock:
    """Times a stretch of work and samples the host's speed through it.

    Every SAMPLE_PERIOD_S of wall time a SIGALRM handler times a short fixed
    kernel: interpreter work, followed by small complex matrix products when
    a matrix is given. Python runs the handler in between the bytecodes of
    the work itself, so the samples fall evenly through it (a long C call
    delays one until it returns). `seconds` is the stretch without the
    samples; a stretch shorter than one period is sampled once after it.
    """

    def __init__(self, matrix=None):
        self.matrix = matrix
        self.ticks: list[float] = []

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        table, total = {}, 0
        for i in range(4_000):
            table[i & 255] = table.get(i & 1023, 0) + len(str(i))
        for i in range(15_000):
            total += i * i
        if self.matrix is not None:
            x = self.matrix
            for _ in range(30):
                x = self.matrix @ x
        self.ticks.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = time.monotonic()
        self.spent = sum(self.ticks)
        self.seconds = time.perf_counter() - self.start - self.spent
        if not self.ticks:
            self._tick()


with open(sys.argv[1]) as _f:
    PLAN = json.load(_f)
sys.path.insert(0, PLAN["src"])

with HostClock() as IMPORT_CLOCK:
    import sqcorr.cli  # noqa: E402

# the import's end, less the samples taken during it, on the caller's clock
READY = IMPORT_CLOCK.end - IMPORT_CLOCK.spent
IMPORT_TICK_S = statistics.fmean(IMPORT_CLOCK.ticks)
if PLAN.get("probe"):
    with open(sys.argv[2], "w") as _f:
        json.dump({"ready": READY, "import_tick_s": IMPORT_TICK_S}, _f)
    sys.exit(0)

import hashlib  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import click  # noqa: E402
import numpy as np  # noqa: E402

import dense_tags  # noqa: E402
import tracing  # noqa: E402

_TICK_MATRIX = (np.eye(48) + 1j * np.ones((48, 48)) / 48.0) / 1.5


def invoke(argv: list[str]) -> int:
    """Exit code of one CLI command run in this process."""
    try:
        sqcorr.cli.main(args=argv, standalone_mode=False)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    except click.exceptions.ClickException as e:
        e.show()
        return e.exit_code
    except Exception:  # any crash is one failed operation; the run goes on
        traceback.print_exc()
        return 1
    return 0


def summarise(path: str, kind: str):
    if not os.path.exists(path):
        return None
    if kind == "json":
        with open(path) as f:
            return json.load(f)
    if kind == "csv_total":
        with open(path) as f:
            next(f)
            return sum(int(line.rsplit(",", 1)[1]) for line in f)
    if kind == "hhgt":
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        n_channels, counts = dense_tags.read_hhgt_counts(path)
        return {"sha256": digest, "channels": n_channels, "counts": counts.tolist()}
    raise ValueError(f"unknown summary kind {kind!r}")


def run_op(op: dict, tracer, sampled: bool = False) -> dict:
    outputs = [(os.path.join(op["out"], name), kind) for name, kind in op["capture"]]
    for path, _ in outputs:
        if os.path.exists(path):
            os.remove(path)
    if sampled:
        with HostClock(_TICK_MATRIX) as clock:
            code = invoke(op["argv"])
        seconds, ticks = clock.seconds, clock.ticks
    else:
        t0 = time.perf_counter()
        code = invoke(op["argv"])
        seconds, ticks = time.perf_counter() - t0, []
    if tracer is not None and tracer.active:
        tracer.total["cli." + op["command"]] += seconds
    return {"name": op["name"], "code": code, "seconds": seconds, "ticks": ticks,
            "outputs": {name: summarise(path, kind)
                        for (name, _), (path, kind) in zip(op["capture"], outputs)}}


def run_pass(ops: list[dict], tracer, traced: bool) -> dict:
    """One pass; an untraced one is sampled by a HostClock, a traced one is not."""
    if tracer is not None:
        tracer.active = traced
    records = [run_op(op, tracer, sampled=not traced) for op in ops]
    if tracer is not None:
        tracer.active = False
    ticks = [t for r in records for t in r.pop("ticks")]
    return {"traced": traced, "seconds": sum(r["seconds"] for r in records), "ops": records,
            "tick_s": statistics.fmean(ticks) if ticks else None}


def environment() -> dict:
    try:
        from sqcorr._backend import BACKEND as backend
    except ImportError:
        backend = "absent"
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": click.__version__,
        "sqcorr_file": sqcorr.cli.__file__,
        "backend": backend,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> None:
    trace = PLAN["trace"]
    tracer = absent = None
    if trace:
        tracer = tracing.Tracer()
        absent = tracing.install(tracer)
    warmup = [run_op(op, None) for op in PLAN["warmup"]]
    # timed rounds go on while one more is expected to end within the run length;
    # a traced run alternates an untraced and a traced pass
    round_kinds = (False, True) if trace else (False,)
    passes, round_times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for traced in round_kinds:
            passes.append(run_pass(PLAN["pass"], tracer, traced))
        round_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(round_times) > PLAN["seconds"]:
            break
    result = {
        "ready": READY,
        "import_tick_s": IMPORT_TICK_S,
        "environment": environment(),
        "warmup": warmup,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        n_traced = sum(p["traced"] for p in passes)
        layers = tracing.layer_metrics(tracer, n_traced)
        for command in ("simulate", "analyze_g2", "analyze_g3", "csi", "fit"):
            layers[f"cli.{command}_s"] = tracer.total["cli." + command] / n_traced
        result["layers"] = layers
        result["absent"] = absent
    with open(sys.argv[2], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()

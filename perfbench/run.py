"""sqcorr benchmark: one named workload through the CLI, checked against physics.

    python3 perfbench/run.py --workload h4_chain --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's `src`. Inputs are made from --seed in this process, the commands
run in a fresh worker interpreter (perfbench/worker.py), and every output is
checked here against computations in perfbench/reference.py. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1). `--size smoke` shrinks the generated tag inputs so that
every workload and its checks run in seconds.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# must precede the numpy import: OpenBLAS sizes its thread pool when it loads
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0
# the sampled kernel's times at the reference host speed (worker.HostClock),
# near their medians on the machine of README.md. Each set-up sample is its
# seconds times IMPORT_TICK_REFERENCE_S over its import's mean tick (that
# kernel has no matrix part, as numpy is not loaded yet). wall_s is a pass's
# seconds times (TICK_REFERENCE_S over the pass's mean tick) to the power of
# the workload's HOST_SENSITIVITY
TICK_REFERENCE_S = 0.0028
IMPORT_TICK_REFERENCE_S = 0.0019
# set-up is timed in this many fresh interpreters (probes, then the worker)
SETUP_SAMPLES = 5


class BenchError(Exception):
    """The run cannot produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def run_worker(plan: dict, work: Path, trace: bool, deadline: float) -> tuple[dict, str]:
    """Run the worker; returns its result, with its set-up seconds, and its stderr."""
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), str(plan_path), str(result_path)]
    with open(work / "worker.out", "wb") as out, open(work / "worker.err", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker exceeded the run time limit") from None
    stderr = (work / "worker.err").read_text(errors="replace")
    if code != 0:
        raise BenchError(f"worker exited {code}:\n{stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    return result, stderr


def import_times(stderr: str) -> dict:
    """import.sqcorr_cli_s and import.scipy_s from `python -X importtime` lines.

    The lines come children first; reversed, each line's ancestors are the
    open entries of smaller depth. sqcorr's total is that of its top-level
    entries; scipy's is that of every scipy entry with no scipy ancestor.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    sqcorr_s = scipy_s = 0.0
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top == "sqcorr" and depth == 0:
            sqcorr_s += cumulative
        if top == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            scipy_s += cumulative
        stack.append((depth, name))
    return {"import.sqcorr_cli_s": sqcorr_s, "import.scipy_s": scipy_s}


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (SRC / "sqcorr" / "cli.py").is_file():
        print(f"error: no sqcorr source under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed, args.size, SRC)
        deadline = started + RUN_LIMIT_S
        n_probes = 0 if args.trace else SETUP_SAMPLES - 1
        probes = [run_worker({"src": str(SRC), "probe": True}, work, False, deadline)[0]
                  for _ in range(n_probes)]
        plan = {"src": str(SRC), "seconds": args.seconds, "trace": bool(args.trace),
                "warmup": wl.warmup, "pass": wl.ops}
        res, stderr = run_worker(plan, work, bool(args.trace), deadline)
        setups = [(r["setup_s"], r["import_tick_s"]) for r in probes + [res]]
        if not res["environment"]["sqcorr_file"].startswith(str(SRC)):
            raise BenchError(f"sqcorr imported from {res['environment']['sqcorr_file']}")
        records = res["warmup"] + [r for p in res["passes"] for r in p["ops"]]
        failures = [f"{r['name']}: {msg}" for r in records
                    if (msg := wl.check_op(r)) is not None]
        run_errors = wl.check_run()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [p for p in res["passes"] if not p["traced"]]
    raw_wall = statistics.median(p["seconds"] for p in timed)
    kernel_s = statistics.median(p["tick_s"] for p in timed)
    if args.trace:
        traced = [p for p in res["passes"] if p["traced"]]
        values = dict(res["layers"])
        values.update(import_times(stderr))
        values["estimation.fits_recovering_truth"] = wl.fits_recovering_truth(
            [r for p in traced for r in p["ops"]]) / len(traced)
        values["trace.overhead_s"] = statistics.median(p["seconds"] for p in traced) - raw_wall
        values["machine.kernel_s"] = kernel_s
        names = workloads.PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(
                p["seconds"] * (TICK_REFERENCE_S / p["tick_s"]) ** wl.HOST_SENSITIVITY
                for p in timed),
            "setup_s": IMPORT_TICK_REFERENCE_S * statistics.median(s / k for s, k in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        names = workloads.END_TO_END
    for failure in failures + run_errors:
        print(f"check failed: {failure}", file=sys.stderr)
    env = dict(res["environment"], workload=args.workload, seed=args.seed, size=args.size,
               timed_passes=len(timed), raw_wall_s=raw_wall, kernel_s=kernel_s,
               pass_seconds=[p["seconds"] for p in timed],
               pass_tick_s=[p["tick_s"] for p in timed],
               setup_samples_s=[s for s, _ in setups], setup_tick_s=[k for _, k in setups],
               absent=res.get("absent", []))
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not run_errors,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

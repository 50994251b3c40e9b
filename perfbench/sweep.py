"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload h4_chain --seeds 1-10 --seconds 20

Each run is an untraced `run.py` (`--trace 0`) in its own process, one after
another: a sweep measures the spread of the end-to-end metrics. For every
metric the sweep prints the median, the quartiles (statistics.quantiles,
n=4) and the quartile distance as a share of the median, then the shares of
failed operations. Raw result lines are appended to .bench_results/<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", default="20")
    args = p.parse_args()
    log = HERE.parent / ".bench_results" / f"{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        *_, env_line, last = proc.stdout.splitlines()
        res, env = json.loads(last), json.loads(env_line)["environment"]
        results.append(res)
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **res, "environment": env}) + "\n")
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4f}" for k, v in res["metrics"].items())
            + f" (raw wall {env['raw_wall_s']:.4f}, kernel {env['kernel_s']:.4f})", flush=True)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name}: median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"spread {(q3 - q1) / med:.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"correct {all(r['correct'] for r in results)}, failed shares {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure the z-scores behind K_SIGMA: estimate minus reference, over reported error.

    python3 perfbench/zscores.py --seeds 1-30

For each seed it makes the h4_chain and dense_analysis inputs at full size,
runs the same library calls the CLI commands make, and prints per-quantity
z-scores, their mean and their standard deviation. A standard deviation
above 1 means the reported error understates the seed-to-seed scatter.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as W  # noqa: E402
from sweep import seeds  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sqcorr import (HyperParams, OpticsConfig, coincidence_histogram_2,  # noqa: E402
                    coincidence_histogram_3, csi_r, extract_g2, extract_g3,
                    generate_timetags, load_tags)


def z(est, ref):
    return (est.value - ref) / est.std_error


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-30")
    args = p.parse_args()
    scores: dict[str, list[float]] = {}
    h4 = HyperParams(**W.H4Chain.HYPER)
    optics = OpticsConfig(eta=W.H4Chain.ETA, n_pulses=W.H4Chain.PULSES["full"],
                          splitter=(1 / 3, 1 / 3, 1 / 3))
    click = W.reference.click_statistics(
        W.reference.hyper_modes(h4.B, h4.mu, h4.alpha, h4.n_th, h4.d), W.H4Chain.ETA / 3)
    dense = W.reference.geometric_beams(W.DenseAnalysis.N_BAR, W.DenseAnalysis.ETA / 3)
    period = W.PERIOD_PS

    def g2(tags, a, b):
        return extract_g2(coincidence_histogram_2(tags, a, b, W.BIN2_PS, W.RANGE2_PS,
                                                  period_ps=period), period_ps=period)

    def g3(tags, a, b, c):
        return extract_g3(coincidence_histogram_3(tags, a, b, c, W.BIN3_PS, W.RANGE3_PS,
                                                  period_ps=period), period_ps=period)

    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        path = Path(tmp) / "tags.bin"
        for seed in seeds(args.seeds):
            generate_timetags(h4, optics, seed, path)
            tags = load_tags(path)
            row = {"h4.g2": z(g2(tags, 0, 1), click["g2"]),
                   "h4.g3": z(g3(tags, 0, 1, 2), click["g3"])}
            channels = W.dense_tags.generate(
                seed, W.DenseAnalysis.PULSES["full"], n_bar=W.DenseAnalysis.N_BAR,
                eta=W.DenseAnalysis.ETA, beams=3, arms=3, period_ps=period, jitter_ps=100.0)
            W.dense_tags.write_hhgt(path, channels)
            tags = load_tags(path)
            row["dense.g2"] = z(g2(tags, 0, 1), dense["g2_auto"])
            row["dense.g3"] = z(g3(tags, 0, 1, 2), dense["g3_auto"])
            for i, j in ((0, 1), (0, 2), (1, 2)):
                ci, cj = 3 * i, 3 * j
                res = csi_r(g2(tags, ci, ci + 1), g2(tags, cj, cj + 1), g2(tags, ci, cj))
                row[f"dense.R{i}{j}"] = (res.R - dense["R"]) / res.std_error
            for k, v in row.items():
                scores.setdefault(k, []).append(v)
            print(f"seed {seed}: " + " ".join(f"{k} {v:+.2f}" for k, v in row.items()), flush=True)
    for k, v in scores.items():
        print(f"{k}: n {len(v)} mean {statistics.mean(v):+.3f} sd {statistics.stdev(v):.3f} "
              f"max |z| {max(map(abs, v)):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: their inputs, their commands and the checks on each output.

A workload object is built from (work directory, seed, size, sqcorr source
directory). It writes its inputs, lists the warm-up and per-pass commands as
plain data for the worker, checks each command's recorded outputs
(`check_op`, which returns an error or None) and checks the run as a whole
(`check_run`, which returns a list of errors).
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import dense_tags
import reference

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("import.sqcorr_cli_s", "s"), ("import.scipy_s", "s"),
    ("cli.simulate_s", "s"), ("cli.analyze_g2_s", "s"), ("cli.analyze_g3_s", "s"),
    ("cli.csi_s", "s"), ("cli.fit_s", "s"),
    ("simulate.generate_timetags_self_s", "s"), ("simulate.optics_chain_s", "s"),
    ("simulate.pulses", "count"), ("simulate.clicking_pulses", "count"),
    ("simulate.state_photon_pmf_s", "s"), ("fock.photon_number_pmf_s", "s"),
    ("fock.photon_number_pmf_calls", "count"), ("states.broadband_moments_s", "s"),
    ("states.wick_moments_self_s", "s"), ("states.wick_moments_calls", "count"),
    ("fock.oracle_moments_s", "s"), ("fock.oracle_moments_calls", "count"),
    ("tags.write_tags_s", "s"), ("tags.records_written", "count"),
    ("tags.load_tags_s", "s"), ("tags.load_tags_calls", "count"), ("tags.bytes_read", "bytes"),
    ("histograms.coincidence_histogram_2_s", "s"), ("histograms.pairs_binned", "count"),
    ("histograms.coincidence_histogram_3_s", "s"), ("histograms.triples_binned", "count"),
    ("histograms.anchors", "count"), ("histograms.csv_write_s", "s"),
    ("analysis.extract_g2_s", "s"), ("analysis.extract_g2_calls", "count"),
    ("analysis.extract_g3_s", "s"), ("analysis.satellites_used", "count"),
    ("analysis.satellites_rejected", "count"),
    ("estimation.fit_parameters_self_s", "s"), ("estimation.objective_self_s", "s"),
    ("estimation.model_curve_self_s", "s"), ("estimation.objective_calls", "count"),
    ("estimation.starts", "count"), ("estimation.starts_converged", "count"),
    ("estimation.fits_recovering_truth", "count"),
    ("trace.overhead_s", "s"), ("machine.kernel_s", "s"),
]

# the CLI's default repetition rate (18.66 MHz) and the histogram windows of
# the README: 100 ps pair bins over 25 periods, 2061 ps triple bins over 4
PERIOD_PS = 1e12 / 1.866e7
BIN2_PS, RANGE2_PS = 100, 25.5 * PERIOD_PS
BIN3_PS, RANGE3_PS = 2061, 4.5 * PERIOD_PS

# an estimate passes within K_SIGMA of its reported error of the reference;
# the measured z-score spreads that size it are in README.md
K_SIGMA = 6.0
# tag counts pass within BINOMIAL_K binomial standard deviations of N p
BINOMIAL_K = 5.0


def _op(name, command, argv, out, capture):
    return {"name": name, "command": command, "argv": argv, "out": str(out),
            "capture": capture}


def _within(est: dict, ref: float, key: str = "value") -> str | None:
    z = (est[key] - ref) / est["std_error"]
    if abs(z) > K_SIGMA:
        return f"{key} {est[key]:.5f} +- {est['std_error']:.5f} is {z:+.1f} sigma from {ref:.5f}"
    return None


def _failed(rec) -> str | None:
    if rec["code"] != 0:
        return f"exit code {rec['code']}"
    missing = [name for name, v in rec["outputs"].items() if v is None]
    if missing:
        return f"missing outputs {missing}"
    return None


def _import_sqcorr(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


class Workload:
    warmup: list[dict]
    ops: list[dict]
    # how a pass's seconds follow the sampled kernel's as the host's speed
    # swings: the log-log slope of one on the other (README.md, noise sources)
    HOST_SENSITIVITY = 1.0

    def check_op(self, rec: dict) -> str | None:
        return _failed(rec) or self.checks[rec["name"]](rec["outputs"])

    def check_run(self) -> list[str]:
        return []

    def fits_recovering_truth(self, records) -> int:
        return 0


class H4Chain(Workload):
    """simulate -> analyze-g2 -> analyze-g3 at the criterion-06 operating point."""

    HYPER = {"B": 0.471, "mu": 0.4226, "alpha": 0.127, "n_th": 0.001, "d": 50}
    ETA = 0.045
    PULSES = {"full": 10_000_000, "smoke": 4_000_000}
    # generation streams arrays of 10M pulses, far beyond the caches, and
    # slows by less than the kernel when the host slows
    HOST_SENSITIVITY = 0.8

    def __init__(self, work: Path, seed: int, size: str, src: Path):
        self.n_pulses = self.PULSES[size]
        config = work / "h4.json"
        config.write_text(json.dumps({
            "source": {"kind": "hyper", **self.HYPER},
            "optics": {"eta": self.ETA, "n_pulses": self.n_pulses,
                       "splitter": [1.0 / 3.0] * 3, "jitter_sigma_ps": 100.0},
        }))
        out = work / "out"
        tags = str(out / "tags.bin")
        base = ["--config", str(config), "--out", str(out)]
        self.ops = [
            _op("simulate", "simulate", ["--seed", str(seed)] + base + ["simulate"], out,
                [["tags.bin", "hhgt"]]),
            _op("analyze-g2", "analyze_g2", base + [
                "analyze-g2", tags, "--channel-a", "0", "--channel-b", "1",
                "--bin-ps", str(BIN2_PS), "--range-ps", repr(RANGE2_PS)], out,
                [["g2_estimate.json", "json"]]),
            _op("analyze-g3", "analyze_g3", base + [
                "analyze-g3", tags, "--channel-a", "0", "--channel-b", "1", "--channel-c", "2",
                "--bin-ps", str(BIN3_PS), "--range-ps", repr(RANGE3_PS)], out,
                [["g3_estimate.json", "json"]]),
        ]
        self.warmup = self.ops
        h = self.HYPER
        modes = reference.hyper_modes(h["B"], h["mu"], h["alpha"], h["n_th"], h["d"])
        self.click = reference.click_statistics(modes, self.ETA / 3.0)
        self.first_sha = None
        self.checks = {"simulate": self._simulate,
                       "analyze-g2": lambda o: _within(o["g2_estimate.json"], self.click["g2"]),
                       "analyze-g3": lambda o: _within(o["g3_estimate.json"], self.click["g3"])}

    def _simulate(self, outputs) -> str | None:
        tags = outputs["tags.bin"]
        if self.first_sha is None:
            self.first_sha = tags["sha256"]
        elif tags["sha256"] != self.first_sha:
            return "tags.bin differs from the first pass's for the same seed"
        if tags["channels"] != 3:
            return f"{tags['channels']} channels, expected 3"
        p = self.click["single"]
        mean, sd = self.n_pulses * p, math.sqrt(self.n_pulses * p * (1.0 - p))
        for ch, n in enumerate(tags["counts"]):
            if abs(n - mean) > BINOMIAL_K * sd:
                return f"channel {ch} has {n} tags, expected {mean:.0f} +- {sd:.0f}"
        return None


class DenseAnalysis(Workload):
    """g2, g3 and three-partition CSI on a benchmark-made 9-channel tag file."""

    N_BAR, ETA, BEAMS, ARMS = 0.3, 0.9, 3, 3
    PULSES = {"full": 3_000_000, "smoke": 600_000}

    def __init__(self, work: Path, seed: int, size: str, src: Path):
        self.src = src
        self.tags_path = work / "dense.bin"
        self.channels = dense_tags.generate(
            seed, self.PULSES[size], n_bar=self.N_BAR, eta=self.ETA, beams=self.BEAMS,
            arms=self.ARMS, period_ps=PERIOD_PS, jitter_ps=100.0)
        dense_tags.write_hhgt(self.tags_path, self.channels)
        out = work / "out"
        tags = str(self.tags_path)
        base = ["--out", str(out)]
        hist2 = ["--bin-ps", str(BIN2_PS), "--range-ps", repr(RANGE2_PS)]
        self.ops = [
            _op("analyze-g2", "analyze_g2", base + [
                "analyze-g2", tags, "--channel-a", "0", "--channel-b", "1"] + hist2, out,
                [["g2_estimate.json", "json"], ["g2_histogram.csv", "csv_total"]]),
            _op("analyze-g3", "analyze_g3", base + [
                "analyze-g3", tags, "--channel-a", "0", "--channel-b", "1", "--channel-c", "2",
                "--bin-ps", str(BIN3_PS), "--range-ps", repr(RANGE3_PS)], out,
                [["g3_estimate.json", "json"], ["g3_histogram.csv", "csv_total"]]),
        ] + [
            _op(f"csi-{i}{j}", "csi", base + [
                "csi", tags, "--beam-i", str(i), "--beam-j", str(j),
                "--arms", str(self.ARMS)] + hist2, out, [["csi.json", "json"]])
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        self.warmup = self.ops
        self.ref = reference.geometric_beams(self.N_BAR, self.ETA / self.ARMS)
        c = self.channels
        lo2, hi2 = reference.window_edges(BIN2_PS, RANGE2_PS)
        lo3, hi3 = reference.window_edges(BIN3_PS, RANGE3_PS)
        self.pairs = reference.pair_total(c[0], c[1], lo2, hi2)
        self.triples = reference.triple_total(c[0], c[1], c[2], lo3, hi3)
        self.checks = {"analyze-g2": self._g2, "analyze-g3": self._g3,
                       **{op["name"]: self._csi for op in self.ops[2:]}}

    def _g2(self, outputs):
        if outputs["g2_histogram.csv"] != self.pairs:
            return f"{outputs['g2_histogram.csv']} pairs binned, {self.pairs} in the window"
        return _within(outputs["g2_estimate.json"], self.ref["g2_auto"])

    def _g3(self, outputs):
        if outputs["g3_histogram.csv"] != self.triples:
            return f"{outputs['g3_histogram.csv']} triples binned, {self.triples} in the window"
        return _within(outputs["g3_estimate.json"], self.ref["g3_auto"])

    def _csi(self, outputs):
        res = outputs["csi.json"]
        if (res["R"] - 1.0) / res["std_error"] < 5.0:
            return f"R {res['R']:.4f} +- {res['std_error']:.4f} is not 5 sigma above 1"
        return (_within(res, self.ref["R"], "R")
                or _within(res["g2_ii"], self.ref["g2_auto"])
                or _within(res["g2_jj"], self.ref["g2_auto"])
                or _within(res["g2_ij"], self.ref["g2_cross"]))

    def check_run(self):
        _import_sqcorr(self.src)
        from sqcorr.tags import load_tags

        read = load_tags(self.tags_path).by_channel
        same = len(read) == len(self.channels) and all(
            np.array_equal(a, b) for a, b in zip(read, self.channels))
        return [] if same else ["load_tags does not read back the generated channels"]


class H4H5Fit(Workload):
    """fit on 12-point H4 and H5 curves computed from closed-form moments.

    The bound box spans the region around the paper's two operating points;
    the fit makes one Latin-hypercube start with the CLI's default seed, 0.
    There H5 converges to the truth in 906 evaluations, while H4 spends its
    2000 evaluations and exits 4 (NoConvergenceError), a fault of the
    multistart. That H4 fit is kept: its inputs never depend on --seed, so it
    fails in every pass and the failed share is exactly one half. The CLI's
    default box needs two starts and 3100 evaluations for H4.
    """

    TRUTH = {"h4": (0.471, 0.4226, 0.127, 0.001), "h5": (0.397, 0.32, 0.161, 0.001)}
    BOUNDS = ((0.2, 0.8), (0.1, 0.7), (0.0, 0.4), (0.0, 0.05))
    POINTS, STARTS, FIT_SEED = 12, 1, 0

    def __init__(self, work: Path, seed: int, size: str, src: Path):
        # the datasets are the paper's two operating points, so --seed does not
        # enter them and --size does not shrink them: every run has the same inputs
        self.src = src
        self.datasets, self.ops, self.checks = {}, [], {}
        for label, truth in self.TRUTH.items():
            curve = reference.cumulative_curve(reference.hyper_modes(*truth, self.POINTS))
            path = work / f"{label}.csv"
            with open(path, "w") as f:
                f.write("mean_n,g2,g2_err,g3,g3_err\n")
                for n, g2, g3 in curve.tolist():
                    f.write(f"{n!r},{g2!r},0.01,{g3!r},0.05\n")
            self.datasets[label] = path
            config = work / f"{label}.json"
            config.write_text(json.dumps({"fit": {"bounds": [list(b) for b in self.BOUNDS]}}))
            out = work / label
            self.ops.append(_op(f"fit-{label}", "fit", [
                "--config", str(config), "--seed", str(self.FIT_SEED), "--out", str(out),
                "fit", str(path), "--n-starts", str(self.STARTS)], out, [["fit.json", "json"]]))
            self.checks[f"fit-{label}"] = self._fit(curve)
        self.warmup = self.ops

    def _fit(self, curve):
        def check(outputs):
            fit = outputs["fit.json"]
            p = fit["params"]
            x = (p["B"], p["mu"], p["alpha"], p["n_th"])
            if not all(lo <= v <= hi for v, (lo, hi) in zip(x, self.BOUNDS)):
                return f"fitted {x} outside the bounds {self.BOUNDS}"
            ours = reference.shape_objective(
                reference.cumulative_curve(reference.hyper_modes(*x, len(curve))), curve)
            if abs(fit["objective_value"] - ours) > 1e-8 * ours + 1e-15:
                return f"reported objective {fit['objective_value']:.6e}, recomputed {ours:.6e}"
            return None
        return check

    def check_run(self):
        _import_sqcorr(self.src)
        from sqcorr import HyperParams
        from sqcorr.estimation import objective, read_dataset_csv

        errors = []
        for label, path in self.datasets.items():
            value = objective(read_dataset_csv(path), HyperParams(*self.TRUTH[label], d=self.POINTS))
            if value > 1e-20:
                errors.append(f"objective at the {label} truth is {value:.3e} > 1e-20")
        return errors

    def fits_recovering_truth(self, records) -> int:
        """Fits within 1% (or 1e-4) of every true parameter, as in criterion 08."""
        hits = 0
        for rec in records:
            fit = rec["outputs"].get("fit.json")
            if rec["code"] != 0 or fit is None:
                continue
            truth = self.TRUTH[rec["name"].split("-")[1]]
            p = fit["params"]
            got = (p["B"], p["mu"], p["alpha"], p["n_th"])
            hits += all(abs(g - w) <= max(0.01 * abs(w), 1e-4) for g, w in zip(got, truth))
        return hits


WORKLOADS = {"h4_chain": H4Chain, "dense_analysis": DenseAnalysis, "h4h5_fit": H4H5Fit}

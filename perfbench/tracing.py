"""Spans and counters around sqcorr's public functions, for the traced run.

Each wrapper replaces a function where its caller looks it up (the module
attribute named in WRAPS), records its inclusive time, its self time (the
span minus the wrapped spans inside it) and its calls, and feeds counters
computed from its arguments and result. Counter work is charged to no span's
self time. A function that the program no longer has is listed as absent.
"""
from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter totals; `active` turns recording on."""

    def __init__(self):
        self.active = False
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._stack: list[list] = []  # [span name, start, time in children]

    def wrap(self, fn, span: str | None, count=None):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if span is not None:
                self._stack.append([span, time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    name, start, children = self._stack.pop()
                    dur = time.perf_counter() - start
                    self.total[name] += dur
                    self.self_time[name] += dur - children
                    self.calls[name] += 1
                    if self._stack:
                        self._stack[-1][2] += dur
            if count is not None:
                t0 = time.perf_counter()
                for key, value in count(args, kwargs, result).items():
                    self.counters[key] += value
                if self._stack:
                    self._stack[-1][2] += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _optics(args, kwargs, result):
    clicks = result[0]
    return {"simulate.pulses": len(args[0]),
            "simulate.clicking_pulses": int(clicks.any(axis=1).sum())}


def _records(args, kwargs, result):
    return {"tags.records_written": sum(len(ch) for ch in args[1])}


def _bytes(args, kwargs, result):
    return {"tags.bytes_read": os.path.getsize(args[0])}


def _pairs(args, kwargs, result):
    return {"histograms.pairs_binned": int(result.counts.sum())}


def _triples(args, kwargs, result):
    return {"histograms.triples_binned": int(result.counts.sum()),
            "histograms.anchors": int(args[0].channel(args[1]).size)}


def _satellites_g2(fit_window_frac, default_period):
    def count(args, kwargs, result):
        h = args[0]
        period = _arg(args, kwargs, 1, "period_ps", default_period)
        candidates = 2 * int((h.range_ps - fit_window_frac * period) // period)
        used = result.n_satellites_used
        return {"analysis.satellites_used": used,
                "analysis.satellites_rejected": candidates - used}
    return count


def _satellites_g3(default_period):
    def count(args, kwargs, result):
        h = args[0]
        period = _arg(args, kwargs, 1, "period_ps", default_period)
        reach = (h.nbins // 2) * h.bin_width_ps + h.bin_width_ps / 2.0 - period / 2.0
        m = int(reach // period)
        # every cell except the centre, the diagonal and the first row and column
        candidates = (2 * m + 1) ** 2 - 1 - 6 * m
        used = result.n_satellites_used
        return {"analysis.satellites_used": used,
                "analysis.satellites_rejected": candidates - used}
    return count


def _starts(args, kwargs, result):
    return {"estimation.starts": _arg(args, kwargs, 2, "n_starts", 16)}


def _converged(args, kwargs, result):
    return {"estimation.starts_converged": int(bool(result.success))}


def wraps_table():
    """(module, attribute, span name or None, counter) for every wrapped function."""
    try:
        from sqcorr.constants import LASER_PERIOD_PS as period
        from sqcorr.analysis import AnalysisConfig
        frac = AnalysisConfig().fit_window_frac
    except (ImportError, AttributeError):
        period, frac = 1e12 / 1.866e7, 0.25
    return [
        ("sqcorr.cli", "generate_timetags", "simulate.generate_timetags", None),
        ("sqcorr.simulate", "optics_chain", "simulate.optics_chain", _optics),
        ("sqcorr.simulate", "state_photon_pmf", "simulate.state_photon_pmf", None),
        ("sqcorr.simulate", "photon_number_pmf", "fock.photon_number_pmf", None),
        ("sqcorr.simulate", "broadband_moments", "states.broadband_moments", None),
        ("sqcorr.simulate", "write_tags", "tags.write_tags", _records),
        ("sqcorr.states", "wick_moments", "states.wick_moments", None),
        ("sqcorr.fock", "oracle_moments", "fock.oracle_moments", None),
        ("sqcorr.cli", "load_tags", "tags.load_tags", _bytes),
        ("sqcorr.cli", "coincidence_histogram_2", "histograms.coincidence_histogram_2", _pairs),
        ("sqcorr.cli", "coincidence_histogram_3", "histograms.coincidence_histogram_3", _triples),
        ("sqcorr.cli", "histogram_to_csv", "histograms.csv_write", None),
        ("sqcorr.cli", "histogram2d_to_csv", "histograms.csv_write", None),
        ("sqcorr.cli", "extract_g2", "analysis.extract_g2", _satellites_g2(frac, period)),
        ("sqcorr.cli", "extract_g3", "analysis.extract_g3", _satellites_g3(period)),
        ("sqcorr.cli", "fit_parameters", "estimation.fit_parameters", _starts),
        ("sqcorr.estimation", "objective", "estimation.objective", None),
        ("sqcorr.estimation", "model_curve", "estimation.model_curve", None),
        # counts converged starts only: the optimizer's own time stays in
        # fit_parameters' self time
        ("sqcorr.estimation", "minimize", None, _converged),
    ]


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in the table; returns the names found absent."""
    absent = []
    for module_name, attr, span, count in wraps_table():
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, span, count))
    return absent


def layer_metrics(tracer: Tracer, n_passes: int) -> dict:
    """Per-pass layer numbers from the traced passes."""
    def per_pass(v):
        return v / n_passes

    t, s, c, k = tracer.total, tracer.self_time, tracer.calls, tracer.counters
    return {
        "simulate.generate_timetags_self_s": per_pass(s["simulate.generate_timetags"]),
        "simulate.optics_chain_s": per_pass(t["simulate.optics_chain"]),
        "simulate.pulses": per_pass(k["simulate.pulses"]),
        "simulate.clicking_pulses": per_pass(k["simulate.clicking_pulses"]),
        "simulate.state_photon_pmf_s": per_pass(t["simulate.state_photon_pmf"]),
        "fock.photon_number_pmf_s": per_pass(t["fock.photon_number_pmf"]),
        "fock.photon_number_pmf_calls": per_pass(c["fock.photon_number_pmf"]),
        "states.broadband_moments_s": per_pass(t["states.broadband_moments"]),
        "states.wick_moments_self_s": per_pass(s["states.wick_moments"]),
        "states.wick_moments_calls": per_pass(c["states.wick_moments"]),
        "fock.oracle_moments_s": per_pass(t["fock.oracle_moments"]),
        "fock.oracle_moments_calls": per_pass(c["fock.oracle_moments"]),
        "tags.write_tags_s": per_pass(t["tags.write_tags"]),
        "tags.records_written": per_pass(k["tags.records_written"]),
        "tags.load_tags_s": per_pass(t["tags.load_tags"]),
        "tags.load_tags_calls": per_pass(c["tags.load_tags"]),
        "tags.bytes_read": per_pass(k["tags.bytes_read"]),
        "histograms.coincidence_histogram_2_s": per_pass(t["histograms.coincidence_histogram_2"]),
        "histograms.pairs_binned": per_pass(k["histograms.pairs_binned"]),
        "histograms.coincidence_histogram_3_s": per_pass(t["histograms.coincidence_histogram_3"]),
        "histograms.triples_binned": per_pass(k["histograms.triples_binned"]),
        "histograms.anchors": per_pass(k["histograms.anchors"]),
        "histograms.csv_write_s": per_pass(t["histograms.csv_write"]),
        "analysis.extract_g2_s": per_pass(t["analysis.extract_g2"]),
        "analysis.extract_g2_calls": per_pass(c["analysis.extract_g2"]),
        "analysis.extract_g3_s": per_pass(t["analysis.extract_g3"]),
        "analysis.satellites_used": per_pass(k["analysis.satellites_used"]),
        "analysis.satellites_rejected": per_pass(k["analysis.satellites_rejected"]),
        "estimation.fit_parameters_self_s": per_pass(s["estimation.fit_parameters"]),
        "estimation.objective_self_s": per_pass(s["estimation.objective"]),
        "estimation.model_curve_self_s": per_pass(s["estimation.model_curve"]),
        "estimation.objective_calls": per_pass(c["estimation.objective"]),
        "estimation.starts": per_pass(k["estimation.starts"]),
        "estimation.starts_converged": per_pass(k["estimation.starts_converged"]),
    }

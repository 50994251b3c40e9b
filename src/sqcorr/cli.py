"""Command-line interface.

Every subcommand writes its outputs plus a provenance.json (config hash,
seed, and the sqcorr, numpy and Python versions) into the --out directory,
so a result can always be traced back to the exact inputs that produced it. No
timestamps go into outputs: rerunning with the same config and seed must
give byte-identical files.

Config sections are passed straight to the library's dataclasses, whose
validate() decides what is valid. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 convergence or truncation error. Each library exception
class carries its code as ``exit_code`` (sqcorr.exceptions), and one guard,
the group class _Guarded, maps every error of the group callback and of each
subcommand onto it (an OSError onto 3).
"""
from __future__ import annotations

import ctypes
import hashlib
import inspect
import json
import math
import sys
import typing
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import csi_r, extract_g2, extract_g3
from .constants import DEFAULT_REP_RATE_HZ
from .estimation import (
    DEFAULT_BOUNDS,
    crossover_fit,
    fit_parameters,
    model_curve,
    read_crossover_csv,
    read_dataset_csv,
)
from .exceptions import DataFormatError, InvalidParameterError, NoConvergenceError, SqcorrError
from .histograms import (
    BIN2D_PER_PERIOD,
    DEFAULT_BIN_PS,
    coincidence_histogram_2,
    coincidence_histogram_3,
    histogram_to_csv,
    histogram2d_to_csv,
)
from .simulate import OpticsConfig, PairSourceConfig, generate_timetags
from .states import (
    HyperParams,
    ModeParams,
    MultimodeState,
    broadband_moments,
    expand_hyperparams,
    mode_weights,
    schmidt_number_mu,
    squeezing_db,
)
from .tags import load_tags, write_csv

EXIT_CONFIG = InvalidParameterError.exit_code
EXIT_DATA = SqcorrError.exit_code
EXIT_CONVERGENCE = NoConvergenceError.exit_code


class _Guarded(click.Group):
    """The CLI's one error path: a library error exits with its class's
    exit_code, an OSError with EXIT_DATA, each after an 'error: ' line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SqcorrError, OSError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(e.exit_code if isinstance(e, SqcorrError) else EXIT_DATA)


# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Keep freed memory in the process, for reuse by the rest of the command.

    glibc hands every freed array above its mmap threshold, and a free heap
    top above its trim threshold, back to the kernel, so each histogram would
    fault its temporaries in again. This serves arrays up to 32 MB from the
    heap and keeps up to 1 GB of freed heap. Both are set: setting either
    one turns off glibc's dynamic mmap threshold. Only a
    command run through main calls this, and the process keeps the policy
    after it; it does nothing where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _load_config(path: str | None) -> tuple[dict, str | None]:
    """The config and the SHA-256 of its bytes; ({}, None) without a config."""
    if path is None:
        return {}, None
    try:
        raw = Path(path).read_bytes()
        cfg = json.loads(raw)
    except (OSError, ValueError) as e:
        raise InvalidParameterError(f"cannot read config: {e}") from None
    if not isinstance(cfg, dict):
        raise InvalidParameterError("config root must be a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


def _write_results(ctx: click.Context, command: str, payloads: dict,
                   written: tuple[str, ...] = ()) -> None:
    """Write each JSON payload into --out, then a provenance.json that names
    them and the files the command has already written there."""
    obj = ctx.obj
    provenance = {
        "command": command,
        "config_sha256": obj["config_sha256"],
        "seed": obj["seed"],
        "outputs": sorted([*written, *payloads]),
        "versions": {
            "sqcorr": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    for name, payload in [*payloads.items(), ("provenance.json", provenance)]:
        with open(obj["out"] / name, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)


def _field(hint, value):
    """A config value as the dataclass field typed hint takes it. A string that
    holds a number is converted and a JSON number is kept as given, so outputs
    record it unchanged; splitter ratios are floats, an alpha [re, im] is
    complex, and each mode is a section of its own."""
    if hint == tuple[ModeParams, ...]:
        return tuple(_section(ModeParams, mode, "mode") for mode in value)
    if hint == tuple[float, ...]:
        return tuple(float(p) for p in value)
    if hint is complex and isinstance(value, list):
        return complex(*value)
    if hint in (int, float, complex) and isinstance(value, str):
        return hint(value)
    return value


def _section(cls, section, where: str):
    """cls built from a config section's keys and validated; an unknown key,
    or a value that is not a number where one is needed, is a config error."""
    try:
        hints = typing.get_type_hints(cls)
        obj = cls(**{key: _field(hints.get(key), value)
                     for key, value in dict(section).items()})
        obj.validate()
    except (TypeError, ValueError) as e:
        raise InvalidParameterError(f"bad {where} config: {e}") from None
    return obj


_SOURCES = {"hyper": HyperParams, "pair": PairSourceConfig, "state": MultimodeState}


def _source_from_config(cfg: dict):
    src = cfg["source"]
    kind = src.get("kind") if isinstance(src, dict) else None
    if not isinstance(kind, str) or kind not in _SOURCES:
        raise InvalidParameterError(f"unknown source kind {kind!r}")
    return _section(_SOURCES[kind], {k: v for k, v in src.items() if k != "kind"}, "source")


@click.group(cls=_Guarded)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON configuration file.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for all stochastic steps.")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Output directory.")
@click.version_option(version=__version__)
@click.pass_context
def main(ctx, config_path, seed, out):
    """Broadband photon-correlation simulator and analysis pipeline."""
    _keep_freed_memory()
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config, config_sha256 = _load_config(config_path)
    ctx.obj = {"config": config, "config_sha256": config_sha256, "seed": seed,
               "out": out_dir}


@main.command()
@click.option("--n-pulses", type=int, default=None,
              help="Override the pulse count from the config.")
@click.option("--csv", "as_csv", is_flag=True, help="Write CSV instead of binary tags.")
@click.pass_context
def simulate(ctx, n_pulses, as_csv):
    """Generate a time-tag stream for the configured source and optics."""
    cfg = ctx.obj["config"]
    if "source" not in cfg or "optics" not in cfg:
        raise InvalidParameterError("config must define 'source' and 'optics' sections")
    source = _source_from_config(cfg)
    optics = cfg["optics"]
    if n_pulses is not None and isinstance(optics, dict):
        optics = {**optics, "n_pulses": n_pulses}
    optics = _section(OpticsConfig, optics, "optics")
    out = ctx.obj["out"]
    tag_path = out / ("tags.csv" if as_csv else "tags.bin")
    sidecar_path = out / "tags.json"
    sidecar = generate_timetags(source, optics, ctx.obj["seed"], tag_path,
                                sidecar_path=sidecar_path)
    worst = max(sidecar["clicks_per_pulse_per_channel"], default=0.0)
    if worst >= 0.1:
        click.echo(
            f"warning: {worst:.3f} clicks/pulse on the busiest detector; "
            "binary-detector bias will be significant", err=True)
    _write_results(ctx, "simulate", {}, (tag_path.name, sidecar_path.name))
    click.echo(f"wrote {tag_path} ({sidecar['n_channels']} channels, "
               f"{sidecar['n_pulses']} pulses)")


_REP_RATE_FALLBACK = (
    "optics.rep_rate_hz in the config, else optics.rep_rate_hz in the tags.json "
    f"next to the tag file, else {DEFAULT_REP_RATE_HZ:g}"
)


def _optics_entry(cfg, key: str, where: str):
    """(optics[key], where) of a config or sidecar dict, or None if absent."""
    try:
        value = cfg.get("optics", {}).get(key)
    except AttributeError as e:
        raise InvalidParameterError(f"bad optics in {where}: {e!r}") from None
    return None if value is None else (value, where)


def _recorded_optics(ctx: click.Context, tagfile: str, key: str):
    """(optics[key], where) from the config, else from the tags.json next to
    the tag file, else None."""
    found = _optics_entry(ctx.obj["config"], key, "config")
    sidecar = Path(tagfile).parent / "tags.json"
    if found is None and sidecar.exists():
        try:
            found = _optics_entry(json.loads(sidecar.read_bytes()), key, str(sidecar))
        except (OSError, json.JSONDecodeError) as e:
            raise DataFormatError(f"cannot read {sidecar}: {e}") from None
    return found


def _period_ps(ctx: click.Context, rep_rate_hz: float | None, tagfile: str) -> float:
    """Pulse period from --rep-rate-hz, else from _REP_RATE_FALLBACK in order."""
    if rep_rate_hz is None:
        found = _recorded_optics(ctx, tagfile, "rep_rate_hz")
        try:
            rep_rate_hz = DEFAULT_REP_RATE_HZ if found is None else float(found[0])
        except (TypeError, ValueError) as e:
            raise InvalidParameterError(f"bad optics in {found[1]}: {e!r}") from None
    if not (math.isfinite(rep_rate_hz) and rep_rate_hz > 0.0):
        raise InvalidParameterError(f"rep_rate_hz must be > 0, got {rep_rate_hz}")
    return 1e12 / rep_rate_hz


def _arms(ctx: click.Context, arms: int | None, tagfile: str) -> int:
    """Detectors per beam, at least 2: the length of the recorded
    optics.splitter, which --arms must match if both are given; else --arms,
    else the arms of the default splitter."""
    found = _recorded_optics(ctx, tagfile, "splitter")
    if found is not None:
        splitter, where = found
        if not isinstance(splitter, list):
            raise InvalidParameterError(
                f"bad optics in {where}: splitter {splitter!r} is not a list")
        if arms is not None and arms != len(splitter):
            raise InvalidParameterError(f"--arms {arms} disagrees with the {len(splitter)} "
                                        f"arms of optics.splitter in {where}")
        arms = len(splitter)
    elif arms is None:
        arms = len(OpticsConfig.splitter)
    if arms < 2:
        raise InvalidParameterError(f"csi needs at least 2 arms per beam, got {arms}")
    return arms


def _hist_options(fn):
    fn = click.option("--rep-rate-hz", type=float, default=None,
                      help=f"Pulse repetition rate [default: {_REP_RATE_FALLBACK}].")(fn)
    fn = click.option("--range-ps", type=float, default=None,
                      help="Half-width of the delay window.")(fn)
    return fn


@main.command("analyze-g2")
@click.argument("tagfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--channel-a", type=int, default=0, show_default=True)
@click.option("--channel-b", type=int, default=1, show_default=True)
@click.option("--bin-ps", type=int, default=DEFAULT_BIN_PS, show_default=True)
@_hist_options
@click.pass_context
def analyze_g2(ctx, tagfile, channel_a, channel_b, bin_ps, range_ps, rep_rate_hz):
    """Histogram two channels and extract satellite-normalized g2(0)."""
    period = _period_ps(ctx, rep_rate_hz, tagfile)
    tags = load_tags(tagfile, channels=(channel_a, channel_b))
    hist = coincidence_histogram_2(tags, channel_a, channel_b, bin_ps, range_ps,
                                   period_ps=period)
    est = extract_g2(hist, period_ps=period)
    histogram_to_csv(hist, ctx.obj["out"] / "g2_histogram.csv")
    result = {"channels": [channel_a, channel_b], "bin_ps": bin_ps, **est.as_dict()}
    _write_results(ctx, "analyze-g2", {"g2_estimate.json": result}, ("g2_histogram.csv",))
    click.echo(f"g2(0) = {est.value:.4f} +- {est.std_error:.4f} "
               f"({est.n_satellites_used} satellites)")


@main.command("analyze-g3")
@click.argument("tagfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--channel-a", type=int, default=0, show_default=True)
@click.option("--channel-b", type=int, default=1, show_default=True)
@click.option("--channel-c", type=int, default=2, show_default=True)
@click.option("--bin-ps", type=int, default=None,
              help=f"Bin width [default: pulse period / {BIN2D_PER_PERIOD}].")
@_hist_options
@click.pass_context
def analyze_g3(ctx, tagfile, channel_a, channel_b, channel_c, bin_ps, range_ps,
               rep_rate_hz):
    """2D-histogram three channels and extract g3(0)."""
    period = _period_ps(ctx, rep_rate_hz, tagfile)
    tags = load_tags(tagfile, channels=(channel_a, channel_b, channel_c))
    hist = coincidence_histogram_3(tags, channel_a, channel_b, channel_c, bin_ps,
                                   range_ps, period_ps=period)
    est = extract_g3(hist, period_ps=period)
    histogram2d_to_csv(hist, ctx.obj["out"] / "g3_histogram.csv")
    result = {"channels": [channel_a, channel_b, channel_c], "bin_ps": hist.bin_width_ps,
              **est.as_dict()}
    _write_results(ctx, "analyze-g3", {"g3_estimate.json": result}, ("g3_histogram.csv",))
    click.echo(f"g3(0) = {est.value:.4f} +- {est.std_error:.4f} "
               f"({est.n_satellites_used} satellites)")


@main.command()
@click.argument("tagfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--beam-i", type=int, default=0, show_default=True)
@click.option("--beam-j", type=int, default=1, show_default=True)
@click.option("--arms", type=int, default=None,
              help="Detectors per beam, at least 2 (beam-major channel layout) "
                   "[default: the length of optics.splitter in the config, else "
                   "in the tags.json next to the tag file, else 2].")
@click.option("--bin-ps", type=int, default=DEFAULT_BIN_PS, show_default=True)
@_hist_options
@click.pass_context
def csi(ctx, tagfile, beam_i, beam_j, arms, bin_ps, range_ps, rep_rate_hz):
    """Cauchy-Schwarz test R = g2_ij^2 / (g2_ii g2_jj) between two beams."""
    if beam_i == beam_j:
        raise InvalidParameterError(f"--beam-i and --beam-j must differ, both are {beam_i}")
    period = _period_ps(ctx, rep_rate_hz, tagfile)
    arms = _arms(ctx, arms, tagfile)
    ci, cj = beam_i * arms, beam_j * arms
    tags = load_tags(tagfile, channels=(ci, ci + 1, cj, cj + 1))

    def g2_between(a, b):
        hist = coincidence_histogram_2(tags, a, b, bin_ps, range_ps, period_ps=period)
        return extract_g2(hist, period_ps=period)

    est_ii = g2_between(ci, ci + 1)
    est_jj = g2_between(cj, cj + 1)
    est_ij = g2_between(ci, cj)
    res = csi_r(est_ii, est_jj, est_ij)
    _write_results(ctx, "csi", {"csi.json": res.as_dict()})
    verdict = "violated" if res.R > 1.0 + res.std_error else "not violated"
    click.echo(f"R = {res.R:.4f} +- {res.std_error:.4f} (classical bound {verdict})")


# fit_parameters holds the one copy of the fit's defaults; fit passes on only
# the options given
_FIT_DEFAULTS = inspect.signature(fit_parameters).parameters


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-starts", type=int, default=None,
              help="Grid cells polished, lowest grid-local minima first "
                   f"[default: {_FIT_DEFAULTS['n_starts'].default}].")
@click.option("--max-evaluations", type=int, default=None,
              help="Model evaluations each polished start may use "
                   f"[default: {_FIT_DEFAULTS['max_evaluations'].default}].")
@click.option("--d", "d_modes", type=int, default=None,
              help="Mode count of the model curve (default: dataset length).")
@click.pass_context
def fit(ctx, dataset, n_starts, max_evaluations, d_modes):
    """Fit hyperparameters (B, mu, alpha, n_th) to a correlation dataset."""
    data = read_dataset_csv(dataset)
    try:
        bounds = ctx.obj["config"].get("fit", {}).get("bounds", DEFAULT_BOUNDS)
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    except (AttributeError, TypeError, ValueError) as e:
        raise InvalidParameterError(f"bad fit bounds: {e}") from None
    given = {"n_starts": n_starts, "max_evaluations": max_evaluations}
    result = fit_parameters(data, bounds=bounds, d=d_modes,
                            **{k: v for k, v in given.items() if v is not None})
    p = result.params
    payload = {
        "params": {"B": p.B, "mu": p.mu, "alpha": p.alpha, "n_th": p.n_th, "d": p.d},
        "objective_value": result.objective_value,
        "n_evaluations": result.n_evaluations,
        "start_index": result.start_index,
        "converged": result.converged,
        "bounds": [list(b) for b in bounds],
    }
    _write_results(ctx, "fit", {"fit.json": payload})
    click.echo(f"B={p.B:.4f} mu={p.mu:.4f} alpha={p.alpha:.4f} n_th={p.n_th:.4f} "
               f"(objective {result.objective_value:.3e}, "
               f"{result.n_evaluations} evaluations)")


@main.command()
@click.argument("datafile", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def crossover(ctx, datafile):
    """Fit the perturbative-to-nonperturbative yield crossover."""
    x, y = read_crossover_csv(datafile)
    res = crossover_fit(x, y)
    payload = {
        "p_low": res.p_low,
        "p_high": res.p_high,
        "break_intensity": None if res.degenerate else res.break_intensity,
        "degenerate": res.degenerate,
    }
    _write_results(ctx, "crossover", {"crossover.json": payload})
    if res.degenerate:
        click.echo(f"single power law, p = {res.p_low:.4f}")
    else:
        click.echo(f"p_low = {res.p_low:.4f}, p_high = {res.p_high:.4f}, "
                   f"break at {res.break_intensity:.4g}")


@main.command()
@click.pass_context
def report(ctx):
    """Summarize the configured hyperparametrized source.

    Writes the per-mode squeezer distribution, the cumulative model curve and
    a JSON summary with the effective mode number and broadband correlations.
    """
    cfg = ctx.obj["config"]
    if "source" not in cfg:
        raise InvalidParameterError("config must define a 'source' section")
    source = _source_from_config(cfg)
    if not isinstance(source, HyperParams):
        raise InvalidParameterError("report requires a source of kind 'hyper'")
    out = ctx.obj["out"]

    lam = mode_weights(source.mu, source.d)
    rks = source.B * lam
    write_csv(out / "modes.csv", "k,weight,r,squeezing_db", "%d,%r,%r,%r",
              np.arange(source.d), lam, rks, squeezing_db(rks))
    curve = model_curve(source)
    write_csv(out / "model_curve.csv", "k,mean_n,g2,g3", "%d,%r,%r,%r",
              np.arange(1, source.d + 1), *curve.T)

    s1, g2, g3 = broadband_moments(expand_hyperparams(source))
    summary = {
        "schmidt_number": schmidt_number_mu(source.mu),
        "max_squeezing_db": squeezing_db(float(rks[0])),
        "mean_photon": s1,
        "g2": g2,
        "g3": g3,
        "params": {"B": source.B, "mu": source.mu, "alpha": source.alpha,
                   "n_th": source.n_th, "d": source.d},
    }
    _write_results(ctx, "report", {"report.json": summary}, ("modes.csv", "model_curve.csv"))
    click.echo(f"K = {summary['schmidt_number']:.4f}, "
               f"mean_n = {s1:.4f}, g2 = {g2:.4f}, g3 = {g3:.4f}")


if __name__ == "__main__":
    main()

"""Command-line interface.

Every subcommand writes its outputs plus a provenance.json (config hash,
seed, and the sqcorr, numpy and Python versions) into the --out directory,
so a result can always be traced back to the exact inputs that produced it. No
timestamps go into outputs: rerunning with the same config and seed must
give byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 convergence
or truncation error. Each library exception class carries its code as
``exit_code`` (sqcorr.exceptions).
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
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
from .exceptions import InvalidParameterError, NoConvergenceError, SqcorrError
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


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map library exceptions onto the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SqcorrError as e:
            _fail(e.exit_code, str(e))
        except OSError as e:
            _fail(EXIT_DATA, str(e))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _load_config(path: str | None) -> tuple[dict, str | None]:
    """The config and the SHA-256 of its bytes; ({}, None) without a config."""
    if path is None:
        return {}, None
    try:
        raw = Path(path).read_bytes()
        cfg = json.loads(raw)
    except OSError as e:
        _fail(EXIT_CONFIG, f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        _fail(EXIT_CONFIG, f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        _fail(EXIT_CONFIG, "config root must be a JSON object")
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


def _source_from_config(cfg: dict):
    try:
        src = cfg["source"]
        kind = src["kind"]
        if kind == "hyper":
            return HyperParams(
                B=float(src["B"]),
                mu=float(src["mu"]),
                alpha=float(src.get("alpha", 0.0)),
                n_th=float(src.get("n_th", 0.0)),
                d=int(src.get("d", 50)),
            )
        if kind == "pair":
            return PairSourceConfig(
                n_bar=float(src["n_bar"]), n_beams=int(src.get("n_beams", 2))
            )
        if kind == "state":
            modes = tuple(
                ModeParams(
                    r=float(m.get("r", 0.0)),
                    theta=float(m.get("theta", 0.0)),
                    alpha=complex(*m["alpha"]) if isinstance(m.get("alpha"), list)
                    else complex(m.get("alpha", 0.0)),
                    n_th=float(m.get("n_th", 0.0)),
                )
                for m in src["modes"]
            )
            return MultimodeState(modes)
    except (KeyError, TypeError, ValueError) as e:
        _fail(EXIT_CONFIG, f"bad source config: {e!r}")
    _fail(EXIT_CONFIG, f"unknown source kind {src.get('kind')!r}")


def _optics_from_config(cfg: dict, n_pulses: int | None) -> OpticsConfig:
    try:
        opt = dict(cfg["optics"])
        if n_pulses is not None:
            opt["n_pulses"] = n_pulses
        if "splitter" in opt:
            opt["splitter"] = tuple(float(p) for p in opt["splitter"])
        return OpticsConfig(**{k: v for k, v in opt.items()})
    except (KeyError, TypeError, ValueError) as e:
        _fail(EXIT_CONFIG, f"bad optics config: {e!r}")


@click.group()
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
@_guarded
def simulate(ctx, n_pulses, as_csv):
    """Generate a time-tag stream for the configured source and optics."""
    cfg = ctx.obj["config"]
    if "source" not in cfg or "optics" not in cfg:
        _fail(EXIT_CONFIG, "config must define 'source' and 'optics' sections")
    source = _source_from_config(cfg)
    optics = _optics_from_config(cfg, n_pulses)
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
        _fail(EXIT_CONFIG, f"bad optics in {where}: {e!r}")
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
            _fail(EXIT_DATA, f"cannot read {sidecar}: {e}")
    return found


def _period_ps(ctx: click.Context, rep_rate_hz: float | None, tagfile: str) -> float:
    """Pulse period from --rep-rate-hz, else from _REP_RATE_FALLBACK in order."""
    if rep_rate_hz is None:
        found = _recorded_optics(ctx, tagfile, "rep_rate_hz")
        try:
            rep_rate_hz = DEFAULT_REP_RATE_HZ if found is None else float(found[0])
        except (TypeError, ValueError) as e:
            _fail(EXIT_CONFIG, f"bad optics in {found[1]}: {e!r}")
    if not (math.isfinite(rep_rate_hz) and rep_rate_hz > 0.0):
        _fail(EXIT_CONFIG, f"rep_rate_hz must be > 0, got {rep_rate_hz}")
    return 1e12 / rep_rate_hz


def _arms(ctx: click.Context, arms: int | None, tagfile: str) -> int:
    """Detectors per beam: the length of the recorded optics.splitter, which
    --arms must match if both are given; 2 if neither is."""
    found = _recorded_optics(ctx, tagfile, "splitter")
    if found is None:
        return 2 if arms is None else arms
    splitter, where = found
    if not isinstance(splitter, list):
        _fail(EXIT_CONFIG, f"bad optics in {where}: splitter {splitter!r} is not a list")
    if arms is not None and arms != len(splitter):
        _fail(EXIT_CONFIG, f"--arms {arms} disagrees with the {len(splitter)} arms "
                           f"of optics.splitter in {where}")
    if len(splitter) < 2:
        _fail(EXIT_CONFIG, f"csi needs at least 2 arms per beam; optics.splitter in "
                           f"{where} has {len(splitter)}")
    return len(splitter)


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
@_guarded
def analyze_g2(ctx, tagfile, channel_a, channel_b, bin_ps, range_ps, rep_rate_hz):
    """Histogram two channels and extract satellite-normalized g2(0)."""
    period = _period_ps(ctx, rep_rate_hz, tagfile)
    tags = load_tags(tagfile)
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
@_guarded
def analyze_g3(ctx, tagfile, channel_a, channel_b, channel_c, bin_ps, range_ps,
               rep_rate_hz):
    """2D-histogram three channels and extract g3(0)."""
    period = _period_ps(ctx, rep_rate_hz, tagfile)
    if bin_ps is None:
        bin_ps = int(period / BIN2D_PER_PERIOD)
    tags = load_tags(tagfile)
    hist = coincidence_histogram_3(tags, channel_a, channel_b, channel_c, bin_ps,
                                   range_ps, period_ps=period)
    est = extract_g3(hist, period_ps=period)
    histogram2d_to_csv(hist, ctx.obj["out"] / "g3_histogram.csv")
    result = {"channels": [channel_a, channel_b, channel_c], "bin_ps": bin_ps,
              **est.as_dict()}
    _write_results(ctx, "analyze-g3", {"g3_estimate.json": result}, ("g3_histogram.csv",))
    click.echo(f"g3(0) = {est.value:.4f} +- {est.std_error:.4f} "
               f"({est.n_satellites_used} satellites)")


@main.command()
@click.argument("tagfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--beam-i", type=int, default=0, show_default=True)
@click.option("--beam-j", type=int, default=1, show_default=True)
@click.option("--arms", type=click.IntRange(min=2), default=None,
              help="Detectors per beam, at least 2 (beam-major channel layout) "
                   "[default: the length of optics.splitter in the config, else "
                   "in the tags.json next to the tag file, else 2].")
@click.option("--bin-ps", type=int, default=DEFAULT_BIN_PS, show_default=True)
@_hist_options
@click.pass_context
@_guarded
def csi(ctx, tagfile, beam_i, beam_j, arms, bin_ps, range_ps, rep_rate_hz):
    """Cauchy-Schwarz test R = g2_ij^2 / (g2_ii g2_jj) between two beams."""
    if beam_i == beam_j:
        _fail(EXIT_CONFIG, f"--beam-i and --beam-j must differ, both are {beam_i}")
    period = _period_ps(ctx, rep_rate_hz, tagfile)
    arms = _arms(ctx, arms, tagfile)
    tags = load_tags(tagfile)
    ci, cj = beam_i * arms, beam_j * arms

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


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-starts", type=int, default=16, show_default=True,
              help="Grid cells polished, lowest grid-local minima first.")
@click.option("--max-evaluations", type=int, default=2000, show_default=True,
              help="Model evaluations each polished start may use.")
@click.option("--d", "d_modes", type=int, default=None,
              help="Mode count of the model curve (default: dataset length).")
@click.pass_context
@_guarded
def fit(ctx, dataset, n_starts, max_evaluations, d_modes):
    """Fit hyperparameters (B, mu, alpha, n_th) to a correlation dataset."""
    data = read_dataset_csv(dataset)
    cfg = ctx.obj["config"].get("fit", {})
    bounds = cfg.get("bounds", DEFAULT_BOUNDS)
    try:
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if len(bounds) != 4:
            raise ValueError(f"need 4 bound pairs, got {len(bounds)}")
    except (TypeError, ValueError) as e:
        _fail(EXIT_CONFIG, f"bad fit bounds: {e}")
    result = fit_parameters(data, bounds=bounds, n_starts=n_starts,
                            max_evaluations=max_evaluations, d=d_modes)
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
@_guarded
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
@_guarded
def report(ctx):
    """Summarize the configured hyperparametrized source.

    Writes the per-mode squeezer distribution, the cumulative model curve and
    a JSON summary with the effective mode number and broadband correlations.
    """
    cfg = ctx.obj["config"]
    if "source" not in cfg:
        _fail(EXIT_CONFIG, "config must define a 'source' section")
    source = _source_from_config(cfg)
    if not isinstance(source, HyperParams):
        _fail(EXIT_CONFIG, "report requires a source of kind 'hyper'")
    source.validate()
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

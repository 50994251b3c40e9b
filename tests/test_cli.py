"""CLI subcommands: outputs, provenance, exit codes."""
import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

import sqcorr
from sqcorr import exceptions
from sqcorr.cli import EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_DATA, _guarded, main

THERMAL_CONFIG = {
    "source": {"kind": "state", "modes": [{"n_th": 0.15}]},
    "optics": {"eta": 0.9, "n_pulses": 400_000, "splitter": [0.34, 0.33, 0.33]},
}


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _simulate(runner, tmp_path, cfg=THERMAL_CONFIG, seed="11", out="run"):
    res = runner.invoke(
        main,
        ["--config", _write_config(tmp_path, cfg), "--seed", seed,
         "--out", str(tmp_path / out), "simulate"],
    )
    assert res.exit_code == 0, res.output
    return tmp_path / out


def test_simulate_writes_tags_and_provenance(runner, tmp_path):
    out = _simulate(runner, tmp_path)
    assert (out / "tags.bin").exists()
    sidecar = json.loads((out / "tags.json").read_text())
    assert sidecar["n_channels"] == 3
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["command"] == "simulate"
    assert prov["seed"] == 11
    assert "backend" not in prov and "threads" not in prov
    assert set(prov["versions"]) == {"sqcorr", "numpy", "python"}
    assert len(prov["config_sha256"]) == 64


def test_simulate_deterministic_across_runs(runner, tmp_path):
    a = _simulate(runner, tmp_path, out="a")
    b = _simulate(runner, tmp_path, out="b")
    ha = hashlib.sha256((a / "tags.bin").read_bytes()).hexdigest()
    hb = hashlib.sha256((b / "tags.bin").read_bytes()).hexdigest()
    assert ha == hb
    assert (a / "provenance.json").read_text() != ""


def test_simulate_csv_output(runner, tmp_path):
    cfg = {
        "source": {"kind": "state", "modes": [{"n_th": 0.1}]},
        "optics": {"eta": 0.5, "n_pulses": 10_000},
    }
    res = runner.invoke(
        main,
        ["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
         "simulate", "--csv"],
    )
    assert res.exit_code == 0, res.output
    head = (tmp_path / "o" / "tags.csv").read_text().splitlines()[0]
    assert head == "channel,timestamp_ps"


def test_analyze_g2_pipeline(runner, tmp_path):
    out = _simulate(runner, tmp_path)
    res = runner.invoke(
        main,
        ["--out", str(out), "analyze-g2", str(out / "tags.bin"),
         "--channel-a", "0", "--channel-b", "1"],
    )
    assert res.exit_code == 0, res.output
    est = json.loads((out / "g2_estimate.json").read_text())
    assert est["value"] == pytest.approx(2.0, abs=0.4)
    assert est["n_satellites_used"] >= 10
    assert (out / "g2_histogram.csv").exists()


def test_analysis_takes_rep_rate_from_config(runner, tmp_path):
    cfg = dict(THERMAL_CONFIG, optics=dict(THERMAL_CONFIG["optics"], rep_rate_hz=25e6))
    out = _simulate(runner, tmp_path, cfg=cfg)
    config = _write_config(tmp_path, cfg)
    estimates = []
    for flag in ([], ["--rep-rate-hz", "25e6"]):
        res = runner.invoke(
            main,
            ["--config", config, "--out", str(out), "analyze-g2", str(out / "tags.bin")]
            + flag,
        )
        assert res.exit_code == 0, res.output
        estimates.append((out / "g2_estimate.json").read_bytes())
    assert estimates[0] == estimates[1]


def test_analysis_takes_rep_rate_from_sidecar(runner, tmp_path):
    cfg = dict(THERMAL_CONFIG, optics=dict(THERMAL_CONFIG["optics"], rep_rate_hz=25e6))
    out = _simulate(runner, tmp_path, cfg=cfg)
    estimates = []
    for flag in ([], ["--rep-rate-hz", "25e6"]):
        res = runner.invoke(
            main, ["--out", str(out), "analyze-g2", str(out / "tags.bin")] + flag)
        assert res.exit_code == 0, res.output
        estimates.append((out / "g2_estimate.json").read_bytes())
    assert estimates[0] == estimates[1]
    assert json.loads(estimates[0])["n_satellites_used"] == 50


@pytest.mark.parametrize("rate, flag", [(0.0, []), (25e6, ["--rep-rate-hz", "-1"])])
def test_nonpositive_rep_rate_exits_2(runner, tmp_path, rate, flag):
    out = _simulate(runner, tmp_path)
    cfg = dict(THERMAL_CONFIG, optics=dict(THERMAL_CONFIG["optics"], rep_rate_hz=rate))
    res = runner.invoke(
        main,
        ["--config", _write_config(tmp_path, cfg), "--out", str(out), "csi",
         str(out / "tags.bin")] + flag,
    )
    assert res.exit_code == EXIT_CONFIG


def test_analyze_g3_pipeline(runner, tmp_path):
    cfg = dict(THERMAL_CONFIG)
    cfg["source"] = {"kind": "state", "modes": [{"n_th": 0.5}]}
    cfg["optics"] = dict(cfg["optics"], n_pulses=3_000_000, eta=0.9)
    out = _simulate(runner, tmp_path, cfg=cfg)
    res = runner.invoke(
        main,
        ["--out", str(out), "analyze-g3", str(out / "tags.bin")],
    )
    assert res.exit_code == 0, res.output
    est = json.loads((out / "g3_estimate.json").read_text())
    assert est["value"] > 2.0  # single thermal mode: true g3 = 6


def test_csi_command(runner, tmp_path):
    cfg = {
        "source": {"kind": "pair", "n_bar": 1.0, "n_beams": 2},
        "optics": {"eta": 0.25, "n_pulses": 2_000_000},
    }
    out = _simulate(runner, tmp_path, cfg=cfg)
    res = runner.invoke(main, ["--out", str(out), "csi", str(out / "tags.bin")])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "csi.json").read_text())
    assert payload["R"] > 1.0
    assert payload["g2_ij"]["value"] > payload["g2_ii"]["value"]


@pytest.mark.parametrize("arms", ["1", "0"])
def test_csi_fewer_than_two_arms_exits_2(runner, tmp_path, arms):
    """Below 2 arms the auto-correlation pairs would cross beams or repeat a channel."""
    cfg = {
        "source": {"kind": "pair", "n_bar": 0.5, "n_beams": 3},
        "optics": {"eta": 0.3, "n_pulses": 20_000},
    }
    out = _simulate(runner, tmp_path, cfg=cfg)
    res = runner.invoke(main, ["--out", str(out), "csi", str(out / "tags.bin"),
                               "--arms", arms])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert not (out / "csi.json").exists()


PAIR3_CONFIG = {
    "source": {"kind": "pair", "n_bar": 0.5, "n_beams": 3},
    "optics": {"eta": 0.3, "n_pulses": 60_000},
}


def test_csi_same_beam_exits_2(runner, tmp_path):
    """A beam against itself would histogram one channel against itself."""
    out = _simulate(runner, tmp_path, cfg=PAIR3_CONFIG)
    res = runner.invoke(main, ["--out", str(out), "csi", str(out / "tags.bin"),
                               "--beam-i", "0", "--beam-j", "0"])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert not (out / "csi.json").exists()


def _csi(runner, out, *args, config=None):
    (out / "csi.json").unlink(missing_ok=True)
    head = ["--config", config] if config else []
    res = runner.invoke(main, head + ["--out", str(out), "csi", str(out / "tags.bin"),
                                      "--beam-j", "2", *args])
    payload = (out / "csi.json").read_bytes() if (out / "csi.json").exists() else None
    return res.exit_code, payload


def test_csi_arms_follow_recorded_layout(runner, tmp_path):
    cfg = dict(PAIR3_CONFIG, optics=dict(PAIR3_CONFIG["optics"], splitter=[0.4, 0.3, 0.3]))
    out = _simulate(runner, tmp_path, cfg=cfg)
    config = _write_config(tmp_path, cfg)
    # the sidecar records three arms: the default follows it, --arms 2 contradicts it
    code, three = _csi(runner, out, "--arms", "3")
    assert code == 0 and three is not None
    assert _csi(runner, out) == (0, three)
    assert _csi(runner, out, "--arms", "2") == (EXIT_CONFIG, None)
    # without the sidecar the config records the layout
    (out / "tags.json").unlink()
    assert _csi(runner, out, config=config) == (0, three)
    assert _csi(runner, out, "--arms", "2", config=config) == (EXIT_CONFIG, None)
    # with neither, --arms is taken as given and defaults to 2
    assert _csi(runner, out, "--arms", "3") == (0, three)
    code, two = _csi(runner, out)
    assert code == 0 and two != three


def test_csi_one_arm_layout_exits_2(runner, tmp_path):
    cfg = dict(PAIR3_CONFIG, optics=dict(PAIR3_CONFIG["optics"], splitter=[1.0]))
    out = _simulate(runner, tmp_path, cfg=cfg)
    assert _csi(runner, out) == (EXIT_CONFIG, None)


def test_fit_command(runner, tmp_path):
    from sqcorr import HyperParams, model_curve

    truth = HyperParams(B=0.5, mu=0.4, alpha=0.15, n_th=0.01, d=6)
    rows = model_curve(truth)
    data = tmp_path / "data.csv"
    lines = ["mean_n,g2,g2_err,g3,g3_err"]
    lines += [f"{float(r[0])!r},{float(r[1])!r},0.01,{float(r[2])!r},0.05" for r in rows]
    data.write_text("\n".join(lines) + "\n")
    cfg = {"fit": {"bounds": [[0.35, 0.65], [0.25, 0.55], [0.05, 0.25], [0.0, 0.05]]}}
    res = runner.invoke(
        main,
        ["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "f"),
         "fit", str(data), "--n-starts", "1"],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads((tmp_path / "f" / "fit.json").read_text())
    assert payload["converged"]
    assert payload["params"]["B"] == pytest.approx(0.5, abs=2e-3)


def test_crossover_command(runner, tmp_path):
    x = np.geomspace(0.1, 10, 30)
    y = np.where(x <= 1.0, 2 * x**2, 2 * x**5)
    data = tmp_path / "c.csv"
    data.write_text(
        "intensity,yield\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n"
    )
    res = runner.invoke(main, ["--out", str(tmp_path / "x"), "crossover", str(data)])
    assert res.exit_code == 0, res.output
    payload = json.loads((tmp_path / "x" / "crossover.json").read_text())
    assert payload["p_low"] == pytest.approx(2.0, abs=1e-3)
    assert payload["p_high"] == pytest.approx(5.0, abs=1e-3)
    assert not payload["degenerate"]


def test_report_command(runner, tmp_path):
    cfg = {"source": {"kind": "hyper", "B": 0.471, "mu": 0.4226,
                      "alpha": 0.127, "n_th": 0.001, "d": 50}}
    res = runner.invoke(
        main,
        ["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "r"),
         "report"],
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "r" / "report.json").read_text())
    assert summary["schmidt_number"] == pytest.approx(1.4349, abs=1e-3)
    assert summary["g2"] == pytest.approx(1.2922, abs=1e-3)
    modes = np.loadtxt(tmp_path / "r" / "modes.csv", delimiter=",", skiprows=1)
    assert modes.shape == (50, 4)
    assert modes[0, 2] == pytest.approx(0.471 * np.sqrt(1 - 0.4226**2), rel=1e-9)
    curve = np.loadtxt(tmp_path / "r" / "model_curve.csv", delimiter=",", skiprows=1)
    assert curve.shape == (50, 4)
    assert curve[-1, 2] == pytest.approx(summary["g2"], rel=1e-12)


def _report_row_loops(h, out):
    """Reference modes.csv and model_curve.csv writers: one formatted row at a time."""
    from sqcorr import model_curve, mode_weights, squeezing_db

    lam = mode_weights(h.mu, h.d)
    rks = h.B * lam
    with open(out / "modes.csv", "w") as f:
        f.write("k,weight,r,squeezing_db\n")
        for k, (w, r) in enumerate(zip(lam, rks)):
            f.write(f"{k},{float(w)!r},{float(r)!r},{squeezing_db(float(r))!r}\n")
    with open(out / "model_curve.csv", "w") as f:
        f.write("k,mean_n,g2,g3\n")
        for k, row in enumerate(model_curve(h), start=1):
            f.write(f"{k},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}\n")


@pytest.mark.parametrize("params", [
    dict(B=0.471, mu=0.4226, alpha=0.127, n_th=0.001, d=50),
    dict(B=0.397, mu=0.32, alpha=0.161, n_th=0.001, d=50),
    dict(B=1.3, mu=0.9, alpha=0.0, n_th=0.2, d=7),
    dict(B=0.2, mu=0.0, alpha=1.5, n_th=0.0, d=1),
])
def test_report_csvs_match_row_loops(runner, tmp_path, params):
    from sqcorr import HyperParams

    cfg = {"source": {"kind": "hyper", **params}}
    res = runner.invoke(main, ["--config", _write_config(tmp_path, cfg),
                               "--out", str(tmp_path / "r"), "report"])
    assert res.exit_code == 0, res.output
    ref = tmp_path / "ref"
    ref.mkdir()
    _report_row_loops(HyperParams(**params), ref)
    for name in ("modes.csv", "model_curve.csv"):
        assert (tmp_path / "r" / name).read_bytes() == (ref / name).read_bytes()


def test_bad_json_config_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    res = runner.invoke(main, ["--config", str(path), "--out", str(tmp_path), "report"])
    assert res.exit_code == EXIT_CONFIG


def test_missing_source_exits_2(runner, tmp_path):
    res = runner.invoke(
        main,
        ["--config", _write_config(tmp_path, {"optics": {"eta": 1, "n_pulses": 1}}),
         "--out", str(tmp_path), "simulate"],
    )
    assert res.exit_code == EXIT_CONFIG


def test_invalid_optics_exits_2(runner, tmp_path):
    cfg = {"source": {"kind": "state", "modes": [{"n_th": 0.1}]},
           "optics": {"eta": 1.7, "n_pulses": 100}}
    res = runner.invoke(
        main,
        ["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path), "simulate"],
    )
    assert res.exit_code == EXIT_CONFIG


@pytest.mark.parametrize("source, splitter", [
    ({"kind": "pair", "n_bar": 0.1, "n_beams": 17}, [1.0]),
    ({"kind": "pair", "n_bar": 0.1, "n_beams": 3}, [1 / 6] * 6),
    ({"kind": "state", "modes": [{"n_th": 0.1}]}, [1 / 17] * 17),
], ids=["17x1", "3x6", "1x17"])
def test_more_than_16_channels_exits_2(runner, tmp_path, source, splitter):
    cfg = {"source": source, "optics": {"eta": 0.5, "n_pulses": 1000, "splitter": splitter}}
    res = runner.invoke(main, ["--config", _write_config(tmp_path, cfg),
                               "--out", str(tmp_path / "s"), "simulate"])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "at most 16" in res.output
    assert not (tmp_path / "s" / "tags.bin").exists()


def test_16_channels_simulate(runner, tmp_path):
    cfg = {"source": {"kind": "pair", "n_bar": 0.1, "n_beams": 4},
           "optics": {"eta": 0.5, "n_pulses": 1000, "splitter": [0.25] * 4}}
    out = _simulate(runner, tmp_path, cfg)
    assert json.loads((out / "tags.json").read_text())["n_channels"] == 16


@pytest.mark.parametrize("source, optics", [
    ({}, {"rep_rate_hz": float("nan")}),
    ({}, {"rep_rate_hz": float("inf")}),
    ({}, {"splitter": [float("nan"), float("nan")]}),
    ({}, {"n_pulses": 20000.5}),
    ({"kind": "pair", "n_bar": float("inf")}, {}),
])
def test_non_finite_optics_or_source_exits_2(runner, tmp_path, source, optics):
    cfg = {"source": {"kind": "state", "modes": [{"n_th": 0.1}], **source},
           "optics": {"eta": 0.5, "n_pulses": 20000, **optics}}
    res = runner.invoke(main, ["--config", _write_config(tmp_path, cfg),
                               "--out", str(tmp_path / "s"), "simulate"])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert not (tmp_path / "s" / "tags.bin").exists()


def test_optics_given_as_strings_are_converted(runner, tmp_path):
    numeric = {"source": {"kind": "state", "modes": [{"n_th": 0.1}]},
               "optics": {"eta": 0.5, "n_pulses": 2000, "jitter_sigma_ps": 40.0,
                          "dead_time_ps": 5000.0, "rep_rate_hz": 2e7}}
    strings = dict(numeric, optics={key: str(value)
                                    for key, value in numeric["optics"].items()})
    a = _simulate(runner, tmp_path, cfg=numeric, out="a")
    b = _simulate(runner, tmp_path, cfg=strings, out="b")
    assert (a / "tags.bin").read_bytes() == (b / "tags.bin").read_bytes()
    assert (a / "tags.json").read_bytes() == (b / "tags.json").read_bytes()


def test_optics_numbers_are_recorded_as_given(runner, tmp_path):
    cfg = {"source": {"kind": "state", "modes": [{"n_th": 0.1}]},
           "optics": {"eta": 1, "n_pulses": 2000, "dead_time_ps": 60000}}
    out = _simulate(runner, tmp_path, cfg=cfg)
    text = (out / "tags.json").read_text()
    assert '"dead_time_ps": 60000,' in text and '"eta": 1,' in text


@pytest.mark.parametrize("optics", [
    {"eta": "half"},
    {"eta": ""},
    {"eta": None},
    {"eta": [0.5]},
    {"n_pulses": "2000.5"},
    {"n_pulses": "many"},
    {"jitter_sigma_ps": "wide"},
    {"dead_time_ps": {"ps": 1}},
    {"rep_rate_hz": "fast"},
])
def test_optics_not_a_number_exits_2(runner, tmp_path, optics):
    cfg = {"source": {"kind": "state", "modes": [{"n_th": 0.1}]},
           "optics": {"eta": 0.5, "n_pulses": 2000, **optics}}
    res = runner.invoke(main, ["--config", _write_config(tmp_path, cfg),
                               "--out", str(tmp_path / "s"), "simulate"])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert not (tmp_path / "s" / "tags.bin").exists()


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_crossover_non_finite_exits_2(runner, tmp_path, column, value):
    rows = [[1.0, 1.0], [2.0, 4.0], [3.0, 9.0], [4.0, 16.0], [5.0, 25.0]]
    rows[2][column] = value
    data = tmp_path / "c.csv"
    data.write_text("intensity,yield\n" + "".join(f"{a},{b}\n" for a, b in rows))
    res = runner.invoke(main, ["--out", str(tmp_path / "x"), "crossover", str(data)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert not (tmp_path / "x" / "crossover.json").exists()


def _record_loads(monkeypatch):
    """The channels argument of every load_tags call the CLI makes."""
    requested = []

    def load(path, channels=None):
        requested.append(sorted(channels))
        return sqcorr.load_tags(path, channels)

    monkeypatch.setattr("sqcorr.cli.load_tags", load)
    return requested


def test_analysis_reads_only_the_channels_it_bins(runner, tmp_path, monkeypatch):
    cfg = {"source": {"kind": "pair", "n_bar": 0.5, "n_beams": 3},
           "optics": {"eta": 0.3, "n_pulses": 60_000, "splitter": [0.4, 0.3, 0.3]}}
    out = _simulate(runner, tmp_path, cfg=cfg)
    tags = str(out / "tags.bin")
    requested = _record_loads(monkeypatch)
    for args, channels in [
        (["analyze-g2", tags, "--channel-a", "4", "--channel-b", "7"], [4, 7]),
        (["analyze-g3", tags, "--channel-a", "8", "--channel-b", "0", "--channel-c", "3"],
         [0, 3, 8]),
        (["csi", tags, "--beam-i", "2", "--beam-j", "1"], [3, 4, 6, 7]),
        (["csi", tags, "--beam-i", "0", "--beam-j", "2"], [0, 1, 6, 7]),
    ]:
        requested.clear()
        res = runner.invoke(main, ["--out", str(out)] + args)
        assert res.exit_code == 0, res.output
        assert requested == [channels]


@pytest.mark.parametrize("args", [
    ["analyze-g2", "--channel-a", "0", "--channel-b", "3"],
    ["analyze-g2", "--channel-a", "-1", "--channel-b", "1"],
    ["analyze-g3", "--channel-c", "9"],
    ["csi", "--beam-j", "2"],
])
def test_channel_outside_the_file_exits_3(runner, tmp_path, args):
    out = _simulate(runner, tmp_path)
    command, *options = args
    res = runner.invoke(main, ["--out", str(out), command, str(out / "tags.bin"), *options])
    assert res.exit_code == EXIT_DATA, res.output
    assert "outside declared set" in res.output


# README, "Exit codes": 2 configuration error, 3 data error, 4 convergence or
# truncation failure
_README_EXIT_CODES = {
    "InvalidParameterError": 2,
    "TruncationError": 4,
    "NoConvergenceError": 4,
}
_EXPORTED_ERRORS = sorted(
    name for name in sqcorr.__all__
    if isinstance(getattr(sqcorr, name), type)
    and issubclass(getattr(sqcorr, name), exceptions.SqcorrError)
)


def test_every_exception_class_is_exported():
    defined = {name for name, obj in vars(exceptions).items()
               if isinstance(obj, type) and issubclass(obj, exceptions.SqcorrError)}
    assert defined == set(_EXPORTED_ERRORS)


@pytest.mark.parametrize("name", _EXPORTED_ERRORS)
def test_exception_exit_code_matches_readme(name):
    want = _README_EXIT_CODES.get(name, 3)

    @_guarded
    def command():
        raise getattr(sqcorr, name)("boom")

    assert getattr(sqcorr, name).exit_code == want
    with pytest.raises(SystemExit) as exc:
        command()
    assert exc.value.code == want


def test_short_dataset_exits_3(runner, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("mean_n,g2,g2_err,g3,g3_err\n0.5,1.8,0.02,4.1,0.3\n")
    res = runner.invoke(main, ["--out", str(tmp_path), "fit", str(data)])
    assert res.exit_code == EXIT_DATA


def test_crossover_row_with_extra_field_exits_3(runner, tmp_path):
    data = tmp_path / "c.csv"
    data.write_text("intensity,yield\n0.5,1.0\n1.0,8.0,99\n2.0,64.0\n")
    res = runner.invoke(main, ["--out", str(tmp_path / "x"), "crossover", str(data)])
    assert res.exit_code == EXIT_DATA, res.output
    assert f"{data}:3: expected 2 fields, got 3" in res.output
    assert not (tmp_path / "x" / "crossover.json").exists()


@pytest.mark.parametrize("command, header", [
    ("fit", "mean_n,g2,g2_err,g3,g3_err"),
    ("crossover", "intensity,yield"),
])
def test_non_utf8_input_exits_3(runner, tmp_path, command, header):
    data = tmp_path / "junk.csv"
    data.write_bytes(header.encode() + b"\n0.5,1\xff\xfe\n")
    res = runner.invoke(main, ["--out", str(tmp_path / "x"), command, str(data)])
    assert res.exit_code == EXIT_DATA, res.output
    assert f"{data}:2: not UTF-8 text" in res.output
    assert not (tmp_path / "x" / f"{command}.json").exists()
    assert not (tmp_path / "x" / "provenance.json").exists()


def test_bad_crossover_header_exits_3(runner, tmp_path):
    data = tmp_path / "c.csv"
    data.write_text("x,y\n1,2\n")
    res = runner.invoke(main, ["--out", str(tmp_path), "crossover", str(data)])
    assert res.exit_code == EXIT_DATA


def test_empty_channel_exits_3(runner, tmp_path):
    from sqcorr import write_tags

    path = tmp_path / "t.bin"
    write_tags(path, [np.array([1000, 2000], dtype=np.int64)], channel_count=2)
    res = runner.invoke(main, ["--out", str(tmp_path), "analyze-g2", str(path)])
    assert res.exit_code == EXIT_DATA


def test_fit_budget_exhaustion_exits_4(runner, tmp_path):
    from sqcorr import HyperParams, model_curve

    rows = model_curve(HyperParams(B=0.5, mu=0.4, alpha=0.15, n_th=0.01, d=4))
    data = tmp_path / "d.csv"
    lines = ["mean_n,g2,g2_err,g3,g3_err"]
    lines += [f"{float(r[0])!r},{float(r[1])!r},0.01,{float(r[2])!r},0.05" for r in rows]
    data.write_text("\n".join(lines) + "\n")
    res = runner.invoke(
        main,
        ["--out", str(tmp_path), "fit", str(data), "--n-starts", "2",
         "--max-evaluations", "10"],
    )
    assert res.exit_code == EXIT_CONVERGENCE


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "0.1.0" in res.output

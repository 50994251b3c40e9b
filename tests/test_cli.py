"""CLI subcommands: outputs, provenance, exit codes."""
import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from sqcorr.cli import EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_DATA, main

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


def test_short_dataset_exits_3(runner, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("mean_n,g2,g2_err,g3,g3_err\n0.5,1.8,0.02,4.1,0.3\n")
    res = runner.invoke(main, ["--out", str(tmp_path), "fit", str(data)])
    assert res.exit_code == EXIT_DATA


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

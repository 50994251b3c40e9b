"""scipy stays off the import path of the package, the CLI, `simulate`, analysis and `fit`.

Each check runs in a fresh interpreter, since this test process may already
have imported scipy.
"""
import json
import subprocess
import sys

import pytest


def _loads_scipy(code: str) -> bool:
    probe = code + "\nimport sys\nprint('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ["sqcorr", "sqcorr.cli"])
def test_import_does_not_load_scipy(module):
    assert not _loads_scipy(f"import {module}")


@pytest.mark.parametrize(
    "source",
    [
        {"kind": "hyper", "B": 0.471, "mu": 0.4226, "alpha": 0.127, "n_th": 0.001, "d": 50},
        {"kind": "pair", "n_bar": 0.5, "n_beams": 3},
    ],
    ids=["hyper", "pair"],
)
def test_simulate_does_not_load_scipy(tmp_path, source):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"source": source,
                                  "optics": {"eta": 0.045, "n_pulses": 50_000}}))
    args = ["--config", str(config), "--seed", "1", "--out", str(tmp_path / "out"),
            "simulate"]
    assert not _loads_scipy(
        "from sqcorr.cli import main\n"
        f"main({args!r}, standalone_mode=False)")
    assert (tmp_path / "out" / "tags.bin").stat().st_size > 16


@pytest.fixture(scope="module")
def pair_tags(tmp_path_factory):
    """A small two-beam pair-source tag file, enough for g2, g3 and R."""
    from sqcorr.cli import main

    tmp = tmp_path_factory.mktemp("pair")
    config = tmp / "config.json"
    config.write_text(json.dumps({"source": {"kind": "pair", "n_bar": 1.0, "n_beams": 2},
                                  "optics": {"eta": 0.25, "n_pulses": 1_000_000}}))
    main(["--config", str(config), "--seed", "3", "--out", str(tmp), "simulate"],
         standalone_mode=False)
    return tmp / "tags.bin"


@pytest.mark.parametrize(
    "command",
    [["analyze-g2"], ["analyze-g3"], ["csi", "--arms", "2"]],
    ids=["analyze-g2", "analyze-g3", "csi"],
)
def test_analysis_does_not_load_scipy(tmp_path, pair_tags, command):
    args = ["--out", str(tmp_path), command[0], str(pair_tags), *command[1:]]
    assert not _loads_scipy(
        "from sqcorr.cli import main\n"
        f"main({args!r}, standalone_mode=False)")
    assert any(p.suffix == ".json" and p.name != "provenance.json"
               for p in tmp_path.iterdir())


def test_fit_does_not_load_scipy(tmp_path):
    from sqcorr import HyperParams, model_curve

    data = tmp_path / "d.csv"
    rows = model_curve(HyperParams(B=0.5, mu=0.4, alpha=0.15, n_th=0.01, d=6))
    data.write_text("mean_n,g2,g2_err,g3,g3_err\n" + "".join(
        f"{float(r[0])!r},{float(r[1])!r},0.01,{float(r[2])!r},0.05\n" for r in rows))
    args = ["--out", str(tmp_path), "fit", str(data), "--n-starts", "2"]
    assert not _loads_scipy(
        "from sqcorr.cli import main\n"
        f"main({args!r}, standalone_mode=False)")
    assert json.loads((tmp_path / "fit.json").read_text())["converged"]


def test_fit_still_finds_scipy():
    """The probe itself can see scipy being loaded, by the crossover fit."""
    assert _loads_scipy("import sqcorr.estimation as e\n"
                        "e.crossover_fit([1, 2, 3, 4, 5], [1, 2, 3, 5, 8])")

"""scipy stays off the runtime: the package, the CLI and all seven commands run without it.

Each check runs in a fresh interpreter whose import system refuses scipy, since
this test process may already have imported it. A command that reaches for
scipy fails there instead of loading it.
"""
import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_BLOCK_SCIPY = """\
import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("scipy is blocked")


sys.meta_path.insert(0, _NoScipy())
"""


def _loads_scipy(code: str) -> bool:
    """Whether code, run with scipy blocked, tries to import it; any other failure raises."""
    proc = subprocess.run([sys.executable, "-c", _BLOCK_SCIPY + code], capture_output=True,
                          text=True, timeout=120)
    if proc.returncode == 0:
        return False
    assert "scipy is blocked" in proc.stderr, proc.stderr
    return True


def _runs_without_scipy(args: list[str]) -> bool:
    """Whether `sqcorr args` exits 0 with scipy blocked."""
    return not _loads_scipy(
        "from sqcorr.cli import main\n"
        f"main({args!r}, standalone_mode=False)")


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
    assert _runs_without_scipy(["--config", str(config), "--seed", "1",
                                "--out", str(tmp_path / "out"), "simulate"])
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
    assert _runs_without_scipy(["--out", str(tmp_path), command[0], str(pair_tags),
                                *command[1:]])
    assert any(p.suffix == ".json" and p.name != "provenance.json"
               for p in tmp_path.iterdir())


def test_fit_does_not_load_scipy(tmp_path):
    from sqcorr import HyperParams, model_curve

    data = tmp_path / "d.csv"
    rows = model_curve(HyperParams(B=0.5, mu=0.4, alpha=0.15, n_th=0.01, d=6))
    data.write_text("mean_n,g2,g2_err,g3,g3_err\n" + "".join(
        f"{float(r[0])!r},{float(r[1])!r},0.01,{float(r[2])!r},0.05\n" for r in rows))
    assert _runs_without_scipy(["--out", str(tmp_path), "fit", str(data), "--n-starts", "2"])
    assert json.loads((tmp_path / "fit.json").read_text())["converged"]


def test_crossover_does_not_load_scipy(tmp_path):
    data = tmp_path / "c.csv"
    data.write_text("intensity,yield\n1,1\n2,2\n3,3\n4,5\n5,8\n")
    assert _runs_without_scipy(["--out", str(tmp_path), "crossover", str(data)])
    assert json.loads((tmp_path / "crossover.json").read_text())["p_high"] > 1.0


def test_report_does_not_load_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"source": {"kind": "hyper", "B": 0.471, "mu": 0.4226,
                                             "alpha": 0.127, "n_th": 0.001, "d": 50}}))
    assert _runs_without_scipy(["--config", str(config), "--out", str(tmp_path), "report"])
    assert (tmp_path / "report.json").exists()


def test_fit_still_finds_scipy():
    """The probe itself sees an import of scipy, by the test-only Fock oracle."""
    assert _loads_scipy("from sqcorr import ModeParams, oracle_moments\n"
                        "oracle_moments(ModeParams(r=0.3))")


@pytest.mark.parametrize("module", ["sqcorr", "sqcorr.cli"])
def test_import_does_not_run_fock(module):
    """The oracle module loads only when one of its names is first asked for."""
    code = (f"import sys, {module}\n"
            "assert 'sqcorr.fock' not in sys.modules, 'imported'\n"
            "from sqcorr import oracle_moments, tensor_broadband_moments\n"
            "import sqcorr.fock\n"
            "assert oracle_moments is sqcorr.fock.oracle_moments\n"
            "assert tensor_broadband_moments is sqcorr.fock.tensor_broadband_moments\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _catches_import_error(node: ast.Try) -> bool:
    types = [t for h in node.handlers if h.type is not None
             for t in (h.type.elts if isinstance(h.type, ast.Tuple) else [h.type])]
    return any(isinstance(t, ast.Name) and t.id in ("ImportError", "ModuleNotFoundError")
               for t in types)


def _sqcorr_imports(path: Path):
    """(module, name, guarded) for every `from sqcorr... import name` in a file;
    guarded if the import sits in a try whose handlers catch ImportError."""
    tree = ast.parse(path.read_text(), filename=str(path))
    guarded = {id(n) for t in ast.walk(tree) if isinstance(t, ast.Try) and _catches_import_error(t)
               for stmt in t.body for n in ast.walk(stmt)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "sqcorr":
            for alias in node.names:
                yield node.module, alias.name, id(node) in guarded


def test_benchmark_imports_resolve():
    """Every name the benchmark's scripts and tests import from sqcorr exists.

    A guarded import may probe for a module that is gone, and the benchmark
    falls back; a name taken from a module that exists must be there.
    """
    files, missing = set(), []
    for path in sorted(_PERFBENCH.glob("*.py")):
        for module, name, guarded in _sqcorr_imports(path):
            files.add(path.name)
            if importlib.util.find_spec(module) is None:
                if not guarded:
                    missing.append(f"{path.name}: module {module}")
            elif not (hasattr(importlib.import_module(module), name)
                      or importlib.util.find_spec(f"{module}.{name}") is not None):
                missing.append(f"{path.name}: from {module} import {name}")
    assert {"test_reference.py", "tracing.py", "workloads.py", "zscores.py"} <= files
    assert not missing, missing

"""Cold start: which scipy modules importing steinchaos and each command load,
and a run of the library and every command with scipy blocked.

Each case runs in a fresh interpreter, because scipy modules loaded by
other tests stay in this process's sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steinchaos
from steinchaos.pearson import gamma_spec
from steinchaos.tensors import GramSpace, SymKernel

SRC = str(Path(steinchaos.__file__).resolve().parents[1])

# prints the scipy modules loaded after the script's own statements run
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules(script: str) -> set[str]:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script + REPORT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def cli_script(tmp_path: Path, config: dict) -> str:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    return f"from steinchaos import cli\nassert cli.main({argv!r}) == 0\n"


def test_import_loads_no_scipy():
    assert scipy_modules("import steinchaos, steinchaos.cli\n") == set()


def command_configs(tmp_path: Path) -> dict:
    """A small config of every CLI command."""
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(4, 4))
    kernel = tmp_path / "kernel.json"
    kernel.write_text(SymKernel.from_dense(GramSpace.standard(4), matrix + matrix.T).to_json())
    parameters = {
        "chi2-example": {"ns": [4, 8]},
        "bound": {"kernel": str(kernel)},
        "gamma": {"kernel": str(kernel), "nu": 2.0},
        "pearson": dict(gamma_spec(1.0).to_json_obj(), grid=21),
        "breuer-major": {"H": 0.7, "q": 2, "ns": [8, 16]},
        "simulate": {"H": 0.6, "q": 2, "n": 8, "count": 100},
    }
    return {command: {"command": command, "parameters": p} for command, p in parameters.items()}


@pytest.mark.parametrize(
    "command", ["chi2-example", "bound", "gamma", "pearson", "breuer-major", "simulate"]
)
def test_commands_without_scipy_calls_load_no_scipy(command, tmp_path):
    config = command_configs(tmp_path)[command]
    assert scipy_modules(cli_script(tmp_path, config)) == set()


def test_runtime_runs_with_scipy_blocked(tmp_path):
    # None in sys.modules makes every import of scipy raise ImportError
    script = """
import sys
sys.modules["scipy"] = None
import math
from steinchaos.pearson import DensityModel, density_from_tau, stein_bound_check, stein_solve
d = density_from_tau(lambda x: (1.0 - x * x) / 2.0, -1.0, 1.0)
step = lambda x: 1.0 if x <= 0.25 else 0.0
assert stein_bound_check(stein_solve(d, step, (0.25,)), 101).passK
DensityModel.from_pdf(lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
                      -math.inf, math.inf)
"""
    for name, config in command_configs(tmp_path).items():
        (tmp_path / name).mkdir()
        script += cli_script(tmp_path / name, config)
    assert scipy_modules(script) == {"scipy"}  # the blocking entry only


def test_pearson_command_and_stein_check_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma (several ms); the quadrature needs neither
    script = cli_script(tmp_path, command_configs(tmp_path)["pearson"]) + """
import math, sys
from steinchaos.pearson import gaussian_spec, stein_bound_check, stein_solve
step = lambda x: 1.0 if x <= 0.5 else 0.0
assert stein_bound_check(stein_solve(gaussian_spec(), step, (0.5,)), 101).passK
print(json.dumps("numpy.ma" in sys.modules))
"""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import json\n" + script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) is False

"""``tools/same_bits.py`` backs every claim that a change keeps a run's bits.

Its ``Recorder`` wraps ``evolution.run``, ``evolution._theta_pde_residual`` (binding
``alpha0_new`` and ``dt`` by name) and ``_SingularSystem.energy``, so a refactor that
renames one of them breaks the tool.  The tool pins the BLAS thread variables when it
is imported, so the test runs it in a subprocess, away from this process's BLAS.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import same_bits
from kwcflow import Forcings, Parameters, build_grid, elliptic, evolution, random_smooth_field
import numpy as np

recorder = same_bits.Recorder(evolution, elliptic)
grid = build_grid(1, [16], [1.0])
rng = np.random.default_rng(7)
eta = random_smooth_field(grid, rng, 1.0, 0.25)
theta = random_smooth_field(grid, rng, 0.0, 0.5)
params = Parameters(kappa=0.5, epsilon=0.1, T=2e-3, dt=1e-3, mu=0.1, nu=0.1)
out = same_bits.march(recorder, grid, eta, theta, params, Forcings(grid))
runs = recorder.runs
print(json.dumps({"failure": out["failure"], "residuals": len(out["residuals"]),
                  "digest": same_bits.digest(out), "newton": runs["newton"], "cg": runs["cg"],
                  "theta_residuals": runs["theta_residuals"], "m_min": runs["m_min"]}))
"""


def test_the_bits_tool_records_a_damped_run():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "tools"), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["failure"] is None and out["residuals"] == 2
    assert len(out["digest"]) == 64
    assert out["newton"] >= 2 and out["cg"] == 0      # 1D Newton systems are solved directly
    assert len(out["theta_residuals"]) == 2 and all(r <= 1e-9 for r in out["theta_residuals"])
    # min m = min alpha0(eta_new)/dt, and alpha0 >= 1 on the reference model
    assert len(out["m_min"]) == 2 and all(m >= 1e3 for m in out["m_min"])

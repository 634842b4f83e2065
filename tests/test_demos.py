import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


# the demos that call the stick and many-molecule API; the two RK4 demos
# (classical_vs_quantum_spectra, vacuum_field_observables) take seconds each
@pytest.mark.parametrize("demo", ["hcl_cavity_spectrum.py", "many_molecule_fate.py",
                                  "splitting_scaling.py", "three_level_sticks.py"])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr

import os

import numpy as np
import pytest

from helpers import traced_peak
from twinpol import (CavityParams, KickPulse, MorseParams, build_morse_rovib,
                     build_three_level, propagate_classical, propagate_quantum)


def pytest_report_header(config):
    """numpy, its BLAS and the thread settings, so a suite's timing carries them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # an older numpy only prints its config
        blas = {"name": "unknown", "version": "unknown"}
    return (f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
            f"cpu_count {os.cpu_count()}")


THREE_LEVEL = dict(e0=0.0, e1=2e-3, e2=10e-3, mu02=1.0, mu12=1.0)
OMEGA_C = 1e-2
G = 2e-4


@pytest.fixture(scope="session")
def model3():
    return build_three_level(**THREE_LEVEL)


@pytest.fixture(scope="session")
def cav():
    # self-energy off throughout the 3-level protocol for comparability with
    # the degenerate-block values
    return CavityParams(omega_c=OMEGA_C, g=G, include_dse=False, n_fock_max=2)


@pytest.fixture(scope="session")
def pulse():
    return KickPulse()


@pytest.fixture(scope="session")
def hcl_model():
    return build_morse_rovib(MorseParams())


@pytest.fixture(scope="session")
def hcl_jmax30_build():
    """HCl at j_max = 30 (1,922 states) and the traced peak of its build."""
    return traced_peak(lambda: build_morse_rovib(MorseParams(j_max=30)))


@pytest.fixture(scope="session")
def classical_r_traj(model3, cav, pulse):
    """Resonant-branch classical run, resolution adequate for module tests."""
    return propagate_classical(model3, cav, pulse, 0, t_end=1.6e5, dt=1.0,
                               record_stride=8)


@pytest.fixture(scope="session")
def classical_p_traj(model3, cav, pulse):
    return propagate_classical(model3, cav, pulse, 1, t_end=1.6e5, dt=1.0,
                               record_stride=8)


@pytest.fixture(scope="session")
def quantum_p_traj(model3, cav, pulse):
    return propagate_quantum(model3, cav, pulse, (1, 0), t_end=1.6e5, dt=1.0,
                             record_stride=8)

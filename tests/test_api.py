"""The public API: the names twinpol exports and the PolaritonSolution
attributes its consumers read."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import twinpol

PUBLIC_NAMES = [
    "AmbiguousPeaksError", "BasisSizeError", "CM1_PER_HARTREE", "CavityParams",
    "ClassicalState", "ConfigError", "ConvergenceError", "IntegrationError",
    "KB_HARTREE_PER_K", "KickPulse", "ManifoldBasis", "ManyMolConfig", "ModelError",
    "MolecularModel", "MorseParams", "PeakSet", "PolaritonSolution", "ProductBasis",
    "QuantumState", "RadialGrid", "Spectrum", "ThermalWeights", "Trajectory",
    "TwinpolError", "analytic_nonsymmetric_spectrum", "analytic_symmetric_spectrum",
    "assemble_hamiltonian", "au_to_cm1", "boltzmann_weights", "broaden_sticks",
    "brute_force_spectrum", "build_many_molecule_hamiltonian", "build_morse_rovib",
    "build_three_level", "cavity", "classical", "classical_total_energy", "cm1_to_au",
    "detect_peaks", "diagonalize_polaritons", "dipole_spectrum", "dominant_eigenstate",
    "errors", "fit_through_origin", "integrators", "load_model_config", "manymol",
    "measure_splitting", "model", "mu_squared_matrix", "peaks_from_sticks",
    "photon_observables", "propagate_classical", "propagate_quantum", "quantum",
    "solve_polaritons", "spectra", "spectrum_from_state", "static_stick_spectrum",
    "thermal_average_spectra",
    "thermal_initial_states", "thermodynamic_limit_spectrum", "units",
]


def test_public_names_are_stable():
    assert sorted(twinpol.__all__) == PUBLIC_NAMES


def test_polariton_solution_attributes():
    sol = twinpol.diagonalize_polaritons(np.diag([2.0, 1.0]))
    for name in ("eigenvalues", "blocks", "eigenvectors", "size", "block_sizes"):
        assert hasattr(sol, name)
    assert sol.size == 2
    assert sol.block_sizes() == {"n_blocks": 2, "max_block_dim": 1}


def test_cli_import_loads_no_scipy():
    """Every CLI process pays its imports: scipy.linalg alone takes about
    0.3 s to import, more than a whole bench worker's setup."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, twinpol.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

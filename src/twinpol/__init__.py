"""Polaritonic absorption spectra of quantum emitters in a single-mode cavity.

A molecule (3-level Lambda system or Morse rovibrational diatomic) couples to
one cavity mode treated either as a classical oscillator driven by the mean
dipole, or as a quantized field in a Fock basis.  Both frameworks share the
kick-and-Fourier-transform route to absorption spectra; the quantized one
additionally provides static polariton stick spectra, many-emitter physics
(bright/dark manifolds), and vacuum-field observables.
"""

from .cavity import CavityParams, KickPulse, Trajectory
from .classical import ClassicalState, classical_total_energy, propagate_classical
from .errors import (AmbiguousPeaksError, BasisSizeError, ConfigError,
                     ConvergenceError, IntegrationError, ModelError, TwinpolError)
from .manymol import (ManifoldBasis, ManyMolConfig, analytic_nonsymmetric_spectrum,
                      analytic_symmetric_spectrum, brute_force_spectrum,
                      build_many_molecule_hamiltonian, spectrum_from_state,
                      thermodynamic_limit_spectrum)
from .model import (MolecularModel, MorseParams, RadialGrid, ThermalWeights,
                    boltzmann_weights, build_morse_rovib, build_three_level,
                    load_model_config, mu_squared_matrix)
from .quantum import (PolaritonSolution, ProductBasis, QuantumState,
                      assemble_hamiltonian, diagonalize_polaritons,
                      dominant_eigenstate, photon_observables, propagate_quantum,
                      solve_polaritons, static_stick_spectrum, thermal_initial_states)
from .spectra import (PeakSet, Spectrum, broaden_sticks, detect_peaks,
                      dipole_spectrum, fit_through_origin, measure_splitting,
                      peaks_from_sticks, thermal_average_spectra)
from .units import CM1_PER_HARTREE, KB_HARTREE_PER_K, au_to_cm1, cm1_to_au

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

#!/usr/bin/env python3
"""Thermal rovibrational spectrum of HCl in and out of a cavity.

Builds the Morse rovibrational model on the radial grid, weights the v = 0
rotational states at 300 K, and computes thermally averaged stick spectra
from the static quantized-light framework.  The cavity is tuned to the
(0,0,0) -> (1,1,0) transition: that line and the twin line (0,2,0) -> (1,1,0)
split, while the rest of the band barely moves.

The dipole curve about R_e is a placeholder.  It sets the absolute
intensities and, through g mu_01, the splittings: the R(0) doublet splits by
7.73 cm^-1 at the slope used here (0.10 au) and by 20.33 cm^-1 at 0.30 au.
"""

import numpy as np

from twinpol import (CavityParams, MorseParams, ProductBasis, boltzmann_weights,
                     broaden_sticks, build_morse_rovib, cm1_to_au, solve_polaritons,
                     static_stick_spectrum, thermal_average_spectra,
                     thermal_initial_states)
from twinpol.units import au_to_cm1

params = MorseParams(dipole_curve=(0.43, 0.10))
model = build_morse_rovib(params)
print(f"rovibrational model: {model.n_states} states "
      f"(v <= {params.v_max}, J <= {params.j_max})")
i00 = model.state_index(v=0, J=0, M=0)
i11 = model.state_index(v=1, J=1, M=0)
nu0 = au_to_cm1(model.energies[i11] - model.energies[i00])
print(f"cavity-tuned transition (0,0,0)->(1,1,0): {nu0:.2f} cm^-1")

weights = boltzmann_weights(
    model, 300.0, [k for k, lab in enumerate(model.labels) if lab["v"] == 0])


def thermal_sticks(g_cm1):
    cav = CavityParams(omega_c=cm1_to_au(2906.46), g=cm1_to_au(g_cm1),
                       include_dse=True, n_fock_max=2)
    basis = ProductBasis.full(model, 2)
    sol = solve_polaritons(model, cav, basis)
    initial = thermal_initial_states(sol, basis, weights, weight_cutoff=1e-3)
    per_state = [(static_stick_spectrum(sol, model, basis, [(i, 1.0)]), w)
                 for i, w in initial]
    return thermal_average_spectra(per_state)


free = thermal_sticks(0.0)
coupled = thermal_sticks(400.0)
print(f"free spectrum: {free.omega.size} sticks; "
      f"coupled: {coupled.omega.size} sticks")

band = lambda s: s.in_window(cm1_to_au(2500.0), cm1_to_au(3300.0))
free_band, coupled_band = band(free), band(coupled)
print("\nstrongest vibrational-band lines (cm^-1, normalized intensity):")
fn = free_band.normalized()
order = np.argsort(fn.intensity)[::-1][:8]
for i in sorted(order, key=lambda j: fn.omega[j]):
    print(f"  {fn.omega_cm1[i]:8.2f}  {fn.intensity[i]:.3f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 3.2))
    for spec, color, label in ((free_band, "gray", "cavity-free"),
                               (coupled_band, "tab:pink", "g = 400 cm^-1")):
        broad = broaden_sticks(spec.normalized(), "lorentzian",
                               width=cm1_to_au(1.5))
        ax.plot(broad.omega_cm1, broad.intensity / broad.intensity.max(),
                color=color, label=label)
    ax.axvline(2906.46, color="k", lw=0.6, ls=":")
    ax.set_xlim(2550, 3250)
    ax.set_xlabel("frequency (cm^-1)")
    ax.set_ylabel("normalized intensity")
    ax.legend()
    fig.tight_layout()
    fig.savefig("hcl_cavity_spectrum.png", dpi=150)
    print("wrote hcl_cavity_spectrum.png")
except ImportError:
    print("matplotlib not available; skipped the figure")

#!/usr/bin/env python3
"""Primary and twin splittings grow linearly with the coupling strength.

Because both transitions terminate on the same polariton doublet, their
splittings coincide and share the slope 2 mu — the quantum twin feature is
tuned by the same knob as the classical primary splitting.
"""

import numpy as np

from twinpol import (CavityParams, ProductBasis, assemble_hamiltonian,
                     build_three_level, diagonalize_polaritons,
                     dominant_eigenstate, fit_through_origin, measure_splitting,
                     peaks_from_sticks, static_stick_spectrum)

model = build_three_level(0.0, 2e-3, 10e-3, 1.0, 1.0)
windows = {"R": (9.5e-3, 10.5e-3), "P": (7.5e-3, 8.5e-3)}
inits = {"R": (0, 0), "P": (1, 0)}

g_values = np.linspace(0.25e-4, 2.5e-4, 10)
table = {"R": [], "P": []}
for g in g_values:
    cav = CavityParams(omega_c=1e-2, g=float(g), include_dse=False, n_fock_max=2)
    basis = ProductBasis.full(model, 2)
    sol = diagonalize_polaritons(assemble_hamiltonian(model, cav, basis))
    for branch in ("R", "P"):
        spec = static_stick_spectrum(
            sol, model, basis,
            [(dominant_eigenstate(sol, basis, inits[branch]), 1.0)])
        sticks = spec.select(spec.intensity > 0.01 * spec.intensity.max())
        table[branch].append(measure_splitting(peaks_from_sticks(sticks),
                                               windows[branch]))

print(" g (au)      R splitting   P splitting")
for g, r, p in zip(g_values, table["R"], table["P"]):
    print(f" {g:.2e}  {r:.6e}  {p:.6e}")

for branch in ("R", "P"):
    slope, r2 = fit_through_origin(g_values, np.array(table[branch]))
    print(f"{branch}: slope = {slope:.4f} (2 mu = 2), R^2 = {r2:.6f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 3.5))
    ax.plot(g_values, table["R"], "s", color="tab:purple", label="primary (R)")
    ax.plot(g_values, table["P"], "-", color="tab:green", label="twin (P)")
    ax.plot(g_values, 2 * g_values, "k--", lw=0.8, label="2 g mu")
    ax.set_xlabel("coupling g (au)")
    ax.set_ylabel("splitting (au)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("splitting_scaling.png", dpi=150)
    print("wrote splitting_scaling.png")
except ImportError:
    print("matplotlib not available; skipped the figure")

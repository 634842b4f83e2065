#!/usr/bin/env python3
"""Static polariton sticks of the 3-level Lambda system.

Walks through the quantized-light static framework: solve the product-basis
Hamiltonian block by block from its tensor factors, and read stick spectra off
the eigenvectors for both initial states.  The resonant transition splits into the primary polariton
doublet; the off-resonant transition, sharing the same final state, splits by
the same gap: the twin polariton.
"""

from twinpol import (CavityParams, ProductBasis, build_three_level,
                     dominant_eigenstate, solve_polaritons, static_stick_spectrum)

model = build_three_level(0.0, 2e-3, 10e-3, 1.0, 1.0)
cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=False, n_fock_max=2)

basis = ProductBasis.full(model, cav.n_fock_max)
print(f"product basis: {basis.size} states (3 molecular x {cav.n_fock_max + 1} Fock)")
sol = solve_polaritons(model, cav, basis)

print("\nlowest polariton levels (hartree):")
for e in sol.eigenvalues[:5]:
    print(f"  {e: .8f}")

for name, init in (("R branch (psi0 -> psi2, resonant)", (0, 0)),
                   ("P branch (psi1 -> psi2, twin)", (1, 0))):
    ground = dominant_eigenstate(sol, basis, init)
    spec = static_stick_spectrum(sol, model, basis, [(ground, 1.0)],
                                 min_intensity=1e-6)
    print(f"\n{name}:")
    for w, i, li, lf in zip(spec.omega, spec.intensity,
                            spec.meta["labels_i"], spec.meta["labels_f"]):
        print(f"  omega = {w:.7f}  I = {i:.4f}   {li} -> {lf}")

# the doublet gap equals 2 g mu for both branches
r = static_stick_spectrum(sol, model, basis,
                          [(dominant_eigenstate(sol, basis, (0, 0)), 1.0)],
                          min_intensity=1e-2)
print(f"\nprimary splitting: {r.omega[1] - r.omega[0]:.6e} au "
      f"(2 g mu = {2 * cav.g:.6e})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 3))
    for init, color, label in (((0, 0), "tab:purple", "from psi0 (R)"),
                               ((1, 0), "tab:green", "from psi1 (P, twin)")):
        spec = static_stick_spectrum(
            sol, model, basis,
            [(dominant_eigenstate(sol, basis, init), 1.0)], min_intensity=1e-4)
        ax.vlines(spec.omega, 0, spec.intensity, color=color, label=label, lw=2)
    ax.set_xlabel("frequency (hartree)")
    ax.set_ylabel("stick intensity")
    ax.legend()
    fig.tight_layout()
    fig.savefig("three_level_sticks.png", dpi=150)
    print("wrote three_level_sticks.png")
except ImportError:
    print("matplotlib not available; skipped the figure")

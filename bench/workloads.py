"""The four workloads: config files made from a seed, and the check of each
operation's artifacts.

The seed draws only continuous physical inputs (couplings, temperature, the
off-resonant level) from ranges where every check holds.  Basis sizes, step
counts and the number of initial strings are fixed, so every seed does the
same amount of work.  This module imports no twinpol code; the exported
model the HCl checks need is produced by the export_model callable the
worker passes in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

CM1 = checks.CM1_PER_HARTREE

# -- parameter ranges drawn from the seed (README: "Seeds") ------------------

KICK_G = (5e-4, 6e-4)                 # au
KICK_E1 = (3.8e-3, 4.2e-3)            # au, the off-resonant level psi_1
HCL_G_CM1 = (360.0, 440.0)
HCL_T_K = (280.0, 340.0)
MANYMOL_G = (1.5e-4, 2.0e-4)          # au
MANYMOL_E1 = (1.9e-3, 2.1e-3)         # au

# -- fixed inputs -------------------------------------------------------------

E2, OMEGA_C, MU = 10e-3, 1e-2, 1.0    # 3-level upper level, cavity, both dipoles
KICK_GRID = dict(t_end=6e4, dt=1.0, record_stride=8, damping_tau=1.5e4, threshold=0.02)
HCL_OMEGA_C_CM1 = 2906.46
HCL_VACUUM_GRID = dict(t_end=400.0, dt=1.0, record_stride=4)
MORSE = dict(d_e_cm1=37209.369, alpha=0.993099, r_e=2.40855,
             m1=1837.1522, m2=63744.3019, mu0=0.43, mu1=0.10)
THERMAL_N, THERMAL_N0, SYMMETRIC_N = 5, 2, 6

MORSE_SECTION = f"""[morse]
d_e = {MORSE['d_e_cm1']} cm-1
alpha = {MORSE['alpha']} 1/bohr
r_e = {MORSE['r_e']} bohr
m1 = {MORSE['m1']} au
m2 = {MORSE['m2']} au
v_max = 1
j_max = 10
dipole_mu0 = {MORSE['mu0']} au
dipole_mu1 = {MORSE['mu1']} au
"""


@dataclass
class Operation:
    """One `twinpol run` of one config, and the check of what it wrote."""

    name: str
    config: str
    check: Callable[[object], dict]     # called with the run's output directory


@dataclass
class Workload:
    name: str
    params: dict
    operations: list[Operation] = field(default_factory=list)


def _draw(rng: random.Random, bounds) -> float:
    return rng.uniform(*bounds)


def _three_level(e1, g) -> str:
    return (f"[three_level]\ne1 = {e1!r} au\ne2 = {E2!r} au\nmu02 = {MU} au\nmu12 = {MU} au\n\n"
            f"[cavity]\nomega_c = {OMEGA_C!r} au\ng = {g!r} au\ndse = off\n"
            f"n_fock_max = 2\n\n")


def kick_td(seed: int, export_model) -> Workload:
    rng = random.Random(seed)
    g, e1 = _draw(rng, KICK_G), _draw(rng, KICK_E1)
    w12, half = E2 - e1, 0.25 * e1          # P window: a quarter of |w02 - w12|
    grid = KICK_GRID
    wl = Workload("kick_td", {"g_au": g, "e1_au": e1})
    for framework, name in (("quantum_td", "quantum_P"), ("classical", "classical_P")):
        cfg = (_three_level(e1, g)
               + f"[protocol]\nframework = {framework}\ninitial = psi_1\n"
               f"t_end = {grid['t_end']} au\ndt = {grid['dt']} au\n"
               f"record_stride = {grid['record_stride']}\n"
               f"damping_tau = {grid['damping_tau']} au\n"
               f"peak_threshold = {grid['threshold']}\n")
        if framework == "quantum_td":
            def check(out):
                return checks.check_quantum_doublet(
                    checks.read_csv(out / "spectrum.csv"), w12, half, g, MU,
                    grid["threshold"])
        else:
            def check(out):
                return checks.check_classical_line(
                    checks.read_csv(out / "spectrum.csv"), w12, half, g, MU, OMEGA_C,
                    grid["threshold"])
        wl.operations.append(Operation(name, cfg, check))
    return wl


def _hcl_cavity(g_cm1) -> str:
    return (f"[cavity]\nomega_c = {HCL_OMEGA_C_CM1} cm-1\ng = {g_cm1!r} cm-1\n"
            f"dse = on\nn_fock_max = 2\n\n")


def hcl_static(seed: int, export_model) -> Workload:
    rng = random.Random(seed)
    g_cm1, temp = _draw(rng, HCL_G_CM1), _draw(rng, HCL_T_K)
    cfg = (MORSE_SECTION + f"\n[thermal]\ntemperature = {temp!r} K\nv = 0\n\n"
           + _hcl_cavity(g_cm1)
           + "[protocol]\nframework = quantum_static\ninitial = thermal\n")

    def check(out):
        model = export_model(cfg)
        mass = MORSE["m1"] * MORSE["m2"] / (MORSE["m1"] + MORSE["m2"])
        res = checks.check_morse_fundamental(model, MORSE["d_e_cm1"] / CM1,
                                             MORSE["alpha"], mass)
        res.update(checks.check_r0_doublet(checks.read_csv(out / "sticks.csv"), model,
                                           HCL_OMEGA_C_CM1 / CM1, g_cm1 / CM1, temp))
        return res

    wl = Workload("hcl_static", {"g_cm1": g_cm1, "temperature_K": temp})
    wl.operations.append(Operation("hcl_thermal", cfg, check))
    return wl


def manymol_bruteforce(seed: int, export_model) -> Workload:
    rng = random.Random(seed)
    g, e1 = _draw(rng, MANYMOL_G), _draw(rng, MANYMOL_E1)
    w02, w12 = E2, E2 - e1
    wl = Workload("manymol_bruteforce", {"g_au": g, "e1_au": e1})
    thermal = (_three_level(e1, g) + "[protocol]\nframework = manymol_bruteforce\n"
               f"initial = thermal\nn_mol = {THERMAL_N}\nn0 = {THERMAL_N0}\n")
    symmetric = (_three_level(e1, g) + "[protocol]\nframework = manymol_bruteforce\n"
                 f"initial = symmetric\nn_mol = {SYMMETRIC_N}\n")
    wl.operations.append(Operation(
        "thermal_N5_n0_2", thermal,
        lambda out: checks.check_manymol_thermal(
            checks.read_csv(out / "sticks.csv"), THERMAL_N, THERMAL_N0, g, MU, w02, w12)))
    wl.operations.append(Operation(
        "symmetric_N6", symmetric,
        lambda out: checks.check_manymol_symmetric(
            checks.read_csv(out / "sticks.csv"), SYMMETRIC_N, g, MU, w02, w12)))
    return wl


def hcl_vacuum_td(seed: int, export_model) -> Workload:
    rng = random.Random(seed)
    g_cm1 = _draw(rng, HCL_G_CM1)
    grid = HCL_VACUUM_GRID
    cfg = (MORSE_SECTION + "\n" + _hcl_cavity(g_cm1)
           + "[protocol]\nframework = quantum_td\ninitial = v0J2M0\n"
           f"t_end = {grid['t_end']} au\ndt = {grid['dt']} au\n"
           f"record_stride = {grid['record_stride']}\npulse_amplitude = 0 au\n")
    n_rec = int(round(grid["t_end"] / grid["dt"])) // grid["record_stride"] + 1
    times = np.arange(n_rec) * grid["record_stride"] * grid["dt"]

    def check(out):
        checks.check_unit_columns(checks.read_csv(out / "spectrum.csv"))
        return checks.check_vacuum_trajectory(
            out / "trajectory.csv", export_model(cfg), HCL_OMEGA_C_CM1 / CM1,
            g_cm1 / CM1, 2, True, (0, 2, 0), times)

    wl = Workload("hcl_vacuum_td", {"g_cm1": g_cm1})
    wl.operations.append(Operation("vacuum_v0J2M0", cfg, check))
    return wl


WORKLOADS = {f.__name__: f for f in (kick_td, hcl_static, manymol_bruteforce, hcl_vacuum_td)}

"""Quantum molecule coupled to a classical cavity mode (mean-field dynamics).

The molecular state is expanded over cavity-free eigenstates with
interaction-picture coefficients, |Psi(t)> = sum_k C_k(t) e^{-i E_k t} |k>,
propagated jointly with the scalar field variables (q, p):

    dC_n/dt = -i sum_k e^{-i(E_k - E_n) t}
              [ (g sqrt(2 w_c) q + f(t)) mu_nk + (g^2/w_c) (mu^2)_nk ] C_k
    dp/dt   = -w_c^2 q - g sqrt(2 w_c) <mu(t)>
    dq/dt   = p

from C_k(0) = delta_{k,init} and the field vacuum p(0) = q(0) = 0.

The RK4 state is the tuple (C, q, p): the complex coefficient array and the
two field variables as Python floats.  The integrator tables the phases
-i e^{i E_k t}, e^{-i E_k t} and the pulse f(t) per stage time, so one rhs
evaluation is five numpy calls (two more with the self-energy term), with mu
and mu^2 cast to complex once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, KickPulse, Trajectory
from .integrators import check_step, propagate
from .model import MolecularModel, mu_squared_matrix


@dataclass
class ClassicalState:
    """Interaction-picture coefficients plus the scalar field pair."""

    coeffs: np.ndarray
    q: float
    p: float
    t: float

    @property
    def norm(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)

    def schroedinger_coeffs(self, energies: np.ndarray) -> np.ndarray:
        return np.exp(-1j * energies * self.t) * self.coeffs


def _expectation(psi: np.ndarray, op: np.ndarray) -> float:
    return float(np.vdot(psi, op @ psi).real)


def classical_total_energy(state: ClassicalState, model: MolecularModel,
                           cav: CavityParams) -> float:
    """<H_mol + g sqrt(2 w_c) q mu + (g^2/w_c) mu^2> + (p^2 + w_c^2 q^2)/2."""
    mu2 = mu_squared_matrix(model) if cav.include_dse else None
    return _total_energy(state.schroedinger_coeffs(model.energies), state.q, state.p,
                         model, mu2, cav)


def _total_energy(psi: np.ndarray, q: float, p: float, model: MolecularModel,
                  mu2: np.ndarray | None, cav: CavityParams) -> float:
    e = float(np.sum(model.energies * np.abs(psi) ** 2))
    e += cav.g * math.sqrt(2.0 * cav.omega_c) * q * _expectation(psi, model.dipole)
    if cav.include_dse:
        e += cav.dse_prefactor * _expectation(psi, mu2)
    e += 0.5 * (p**2 + cav.omega_c**2 * q**2)
    return e


def propagate_classical(model: MolecularModel, cav: CavityParams, pulse: KickPulse,
                        init_state: int, t_end: float, dt: float,
                        record_stride: int = 1) -> Trajectory:
    """Kick the molecule out of equilibrium and record the joint dynamics.

    Raises IntegrationError when the coefficient norm drifts beyond 1e-6
    (reduce dt) or when the kick exceeds the pulse's linear-response bound.
    """
    mu = model.dipole
    mu2 = mu_squared_matrix(model) if cav.include_dse else None
    mu_c = mu.astype(complex)
    mu2_c = None if mu2 is None else mu2.astype(complex)
    g_fac = cav.g * math.sqrt(2.0 * cav.omega_c)
    dse = cav.dse_prefactor
    wc2 = cav.omega_c**2

    def rhs(entry, y):
        a, b, f = entry           # -i e^{iEt}, e^{-iEt}, f(t)
        c, q, p = y
        psi = b * c
        mu_psi = mu_c @ psi
        w_psi = (g_fac * q + f) * mu_psi
        if dse:
            w_psi = w_psi + dse * (mu2_c @ psi)
        return a * w_psi, p, -wc2 * q - g_fac * float(np.vdot(psi, mu_psi).real)

    def observe(_, psi, y):
        c, q, p = y
        return np.abs(c) ** 2, (np.vdot(psi, mu @ psi).real,
                                _total_energy(psi, q, p, model, mu2, cav), q, p)

    check_step(dt, model.energies, cav.omega_c)
    return propagate(
        rhs, (0.0, 0.0), observe, ("dipole", "energy", "q_series", "p_series"),
        kind="classical", phase_freqs=model.energies,
        pop_labels=[model.label_str(k) for k in range(model.n_states)],
        init_col=init_state, pulse=pulse, cav=cav, t_end=t_end, dt=dt,
        record_stride=record_stride, meta={"init_state": init_state},
    )

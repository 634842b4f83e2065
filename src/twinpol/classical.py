"""Quantum molecule coupled to a classical cavity mode (mean-field dynamics).

The molecular state is expanded over cavity-free eigenstates with
interaction-picture coefficients, |Psi(t)> = sum_k C_k(t) e^{-i E_k t} |k>,
propagated jointly with the scalar field variables (q, p):

    dC_n/dt = -i sum_k e^{-i(E_k - E_n) t}
              [ (g sqrt(2 w_c) q + f(t)) mu_nk + (g^2/w_c) (mu^2)_nk ] C_k
    dp/dt   = -w_c^2 q - g sqrt(2 w_c) <mu(t)>
    dq/dt   = p

from C_k(0) = delta_{k,init} and the field vacuum p(0) = q(0) = 0.

Only the start's connected component under mu's nonzeros is stepped: mu^2
and the kick act within it, so every other C_k stays exactly 0.0 (HCl from
v0J2M0 steps its 22 M = 0 states of 242).  The RK4 state is the tuple
(C, q, p), the field variables as Python floats.  The integrator tables
f(t) and the phased dipole D = -i e^{i E t} mu e^{-i E t} (and the same of
(g^2/w_c) mu^2) per stage time, so one rhs evaluation is v = D C, the drive
times v and <mu> = -Im <C|v>: three numpy calls (five with the self-energy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, KickPulse, Trajectory
from .integrators import check_step, propagate
from .model import MolecularModel, mu_squared_matrix
from .quantum import _coupled_blocks, _expectations


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


def classical_total_energy(state: ClassicalState, model: MolecularModel,
                           cav: CavityParams) -> float:
    """<H_mol + g sqrt(2 w_c) q mu + (g^2/w_c) mu^2> + (p^2 + w_c^2 q^2)/2."""
    mu2 = mu_squared_matrix(model) if cav.include_dse else None
    psi = state.schroedinger_coeffs(model.energies)[:, None]
    return float(_total_energy(psi, state.q, state.p, model.energies,
                               _expectations(model.dipole, psi), mu2, cav)[0])


def _total_energy(psi: np.ndarray, q, p, energies: np.ndarray, dipole,
                  mu2: np.ndarray | None, cav: CavityParams) -> np.ndarray:
    """The total energy of each column of psi, given the columns' <mu>
    (dipole), q and p."""
    e = np.sum(energies[:, None] * np.abs(psi) ** 2, axis=0)
    e += cav.g * math.sqrt(2.0 * cav.omega_c) * q * dipole
    if cav.include_dse:
        e += cav.dse_prefactor * _expectations(mu2, psi)
    e += 0.5 * (p**2 + cav.omega_c**2 * q**2)
    return e


def propagate_classical(model: MolecularModel, cav: CavityParams, pulse: KickPulse,
                        init_state: int, t_end: float, dt: float,
                        record_stride: int = 1) -> Trajectory:
    """Kick the molecule out of equilibrium and record the joint dynamics.

    Raises IntegrationError when the coefficient norm drifts beyond 1e-6
    (reduce dt) or when the kick exceeds the pulse's linear-response bound.
    """
    check_step(dt, model.energies, cav.omega_c)
    # the start's component; none for a start outside the model, which propagate refuses
    idx = next((b for b in _coupled_blocks(model.n_states, *np.nonzero(model.dipole))
                if init_state in b), np.arange(0))
    sub = np.ix_(idx, idx)
    energies, mu = model.energies[idx], model.dipole[sub]
    mu2 = mu_squared_matrix(model)[sub] if cav.include_dse else None
    g_fac = cav.g * math.sqrt(2.0 * cav.omega_c)
    wc2 = cav.omega_c**2

    def rhs(entry, y):
        f, d = entry[2:4]          # f(t), -i e^{iEt} mu e^{-iEt}
        c, q, p = y
        v = d.dot(c)
        im_mu = float(np.vdot(c, v).imag)      # <mu> = -Im <c|v>
        v *= g_fac * q + f
        if mu2 is not None:
            v += entry[4].dot(c)   # -i e^{iEt} (g^2/w_c) mu^2 e^{-iEt}
        return v, p, -wc2 * q + g_fac * im_mu

    def observe(_, psi, y):
        c, q, p = y
        pops = np.zeros((q.size, model.n_states))
        pops[:, idx] = (np.abs(c) ** 2).T
        dipole = _expectations(mu, psi)
        return pops, (dipole, _total_energy(psi, q, p, energies, dipole, mu2, cav), q, p)

    return propagate(
        rhs, (0.0, 0.0), observe, ("dipole", "energy", "q_series", "p_series"),
        kind="classical", phase_freqs=energies,
        pop_labels=[model.label_str(k) for k in range(model.n_states)],
        init_col=init_state, pulse=pulse, cav=cav, t_end=t_end, dt=dt,
        record_stride=record_stride, start=(idx == init_state).astype(complex),
        operators=(mu,) if mu2 is None else (mu, cav.dse_prefactor * mu2),
        meta={"init_state": init_state, "coupled_states": idx.size},
    )

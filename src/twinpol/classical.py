"""Quantum molecule coupled to a classical cavity mode (mean-field dynamics).

The molecular state is expanded over cavity-free eigenstates with
interaction-picture coefficients, |Psi(t)> = sum_k C_k(t) e^{-i E_k t} |k>,
propagated jointly with the scalar field variables (q, p):

    dC_n/dt = -i sum_k e^{-i(E_k - E_n) t}
              [ (g sqrt(2 w_c) q + f(t)) mu_nk + (g^2/w_c) (mu^2)_nk ] C_k
    dp/dt   = -w_c^2 q - g sqrt(2 w_c) <mu(t)>
    dq/dt   = p

from C_k(0) = delta_{k,init} and the field vacuum p(0) = q(0) = 0.

Only the start's mu-component (quantum._restrict) is stepped, with its own
mu^2 and size charge: mu^2 and the kick act within it, so every other C_k
stays exactly 0.0 (HCl from v0J2M0 steps its 22 M = 0 states of 242).  The
RK4 state is one complex array, C followed by q and p with zero imaginary
parts: complex arithmetic keeps those exactly +0.0, so q and p get the bits
of float arithmetic.  The integrator tables f(t) and the phased dipole
D = -i e^{i E t} mu e^{-i E t} (and the same of (g^2/w_c) mu^2) per stage
time and hands the rhs only those, so one rhs evaluation is v = D C, the
drive times v and <mu> = -Im <C|v>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, KickPulse, Trajectory
from .integrators import check_step, propagate, record_grid
from .model import MolecularModel, mu_squared_matrix
from .quantum import _check_memory, _re_inner, _restrict, real_matmul


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
                               _re_inner(psi, real_matmul(model.dipole, psi)), mu2, cav)[0])


def _total_energy(psi: np.ndarray, q, p, energies: np.ndarray, dipole,
                  mu2: np.ndarray | None, cav: CavityParams) -> np.ndarray:
    """The total energy of each column of psi, given the columns' <mu>
    (dipole), q and p."""
    # each column summed as one contiguous row: its bits do not depend on psi's layout
    e = np.sum(energies * np.abs(np.ascontiguousarray(psi.T)) ** 2, axis=1)
    e += cav.g * math.sqrt(2.0 * cav.omega_c) * q * dipole
    if cav.include_dse:
        e += cav.dse_prefactor * _re_inner(psi, real_matmul(mu2, psi))
    e += 0.5 * (p**2 + cav.omega_c**2 * q**2)
    return e


def propagate_classical(model: MolecularModel, cav: CavityParams, pulse: KickPulse,
                        init_state: int, t_end: float, dt: float,
                        record_stride: int = 1) -> Trajectory:
    """Kick the molecule out of equilibrium and record the joint dynamics.

    Raises IntegrationError when the coefficient norm drifts beyond 1e-6
    (reduce dt) or when the kick exceeds the pulse's linear-response bound;
    BasisSizeError, before anything is allocated, when its component's
    dense matrices and its population records would not fit in the memory
    budget; ModelError for a start outside the model.
    """
    check_step(dt, model.energies, cav.omega_c)
    n_rec = record_grid(t_end, dt, record_stride)[1].size
    part, idx, ((j, _),) = _restrict(model, [(init_state, 1.0)])
    _check_memory(part.n_states, cav.include_dse, n_rec, model.n_states)
    energies, mu, n = part.energies, part.dipole, part.n_states
    mu2 = mu_squared_matrix(part) if cav.include_dse else None
    g_fac = cav.g * math.sqrt(2.0 * cav.omega_c)
    wc2 = cav.omega_c**2

    def rhs(entry, y):
        f, d = entry[:2]           # f(t), -i e^{iEt} mu e^{-iEt}
        c, q = y[:n], y.item(n).real
        dy = np.empty(n + 2, complex)
        v = d.dot(c, out=dy[:n])
        im_mu = float(np.vdot(c, v).imag)      # <mu> = -Im <c|v>
        v *= g_fac * q + f
        if mu2 is not None:
            v += entry[2].dot(c)   # -i e^{iEt} (g^2/w_c) mu^2 e^{-iEt}
        dy[n] = y.item(n + 1)                  # dq/dt = p
        dy[n + 1] = -wc2 * q + g_fac * im_mu   # dp/dt
        return dy

    def observe(_, psi, y):
        q, p = y[n:].real
        dipole = _re_inner(psi, real_matmul(mu, psi))
        return ((np.abs(y[:n]) ** 2).T,
                (dipole, _total_energy(psi, q, p, energies, dipole, mu2, cav), q, p))

    return propagate(
        rhs, observe, ("dipole", "energy", "q_series", "p_series"),
        kind="classical", phase_freqs=energies,
        pop_labels=[model.label_str(k) for k in range(model.n_states)],
        init_col=init_state, pulse=pulse, cav=cav, t_end=t_end, dt=dt,
        record_stride=record_stride, pop_columns=idx,
        start=np.concatenate([np.arange(n) == j, (0.0, 0.0)]).astype(complex),  # C, q, p
        operators=(mu,) if mu2 is None else (mu, cav.dse_prefactor * mu2),
        meta={"init_state": init_state, "coupled_states": n},
    )

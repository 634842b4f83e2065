"""Many-emitter engine for the 3-level system.

Two routes to the same physics: a brute-force product-basis Hamiltonian
(all matrix elements kept) for small molecule counts, and closed-form stick
spectra derived from the degenerate first-excited-manifold blocks, where the
bright symmetric combination of singly-excited strings couples to the photon
while the orthogonal dark combinations do not.  The coupling is scaled as
g / sqrt(n_mol) throughout.  H and mu commute with molecule permutations, so
the brute-force route needs one initial vector per run: a representative
occupation string stands for all C(n_mol, n0) of them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams
from .errors import BasisSizeError, ModelError
from .model import MolecularModel
from .quantum import PolaritonSolution, diagonalize_polaritons, product_hamiltonian
from .spectra import Spectrum, make_stick_spectrum


@dataclass(frozen=True)
class ManyMolConfig:
    """Molecule count, initial occupation, and the shared 3-level constants.

    Thermal case: n0 molecules in psi_0 and n_mol - n0 in psi_1, nonsymmetric
    product initial states.  Symmetric case: every molecule in
    (psi_0 + psi_1)/sqrt(2).  g is the bare coupling, applied as g/sqrt(n_mol).
    """

    n_mol: int
    g: float
    mu: float
    omega02: float
    omega12: float
    n0: int | None = None
    symmetric: bool = False

    def __post_init__(self):
        if self.n_mol < 1:
            raise ModelError("n_mol must be at least 1")
        if self.symmetric == (self.n0 is not None):
            raise ModelError("specify exactly one of n0 (thermal) or symmetric")
        if self.n0 is not None and not 0 <= self.n0 <= self.n_mol:
            raise ModelError(f"n0 must lie in 0..{self.n_mol}")

    @property
    def n1(self) -> int:
        return self.n_mol - (self.n0 or 0)

    @classmethod
    def from_model(cls, model: MolecularModel, g: float, n_mol: int,
                   n0: int | None = None, symmetric: bool = False) -> "ManyMolConfig":
        if model.n_states != 3:
            raise ModelError("many-molecule engine expects a 3-level model")
        return cls(
            n_mol=n_mol, g=g, mu=float(model.dipole[0, 2]),
            omega02=model.transition_frequency(0, 2),
            omega12=model.transition_frequency(1, 2),
            n0=n0, symmetric=symmetric,
        )


def helmert_rows(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of the zero-sum complement in R^n."""
    rows = np.zeros((max(n - 1, 0), n))
    for k in range(1, n):
        rows[k - 1, :k] = 1.0
        rows[k - 1, k] = -float(k)
        rows[k - 1] /= math.sqrt(k * (k + 1))
    return rows


@dataclass(frozen=True)
class ManifoldBasis:
    """Bright/dark structure of one singly-excited manifold.

    For n0 ground-state molecules, the symmetric excited row is uniform with
    weight 1/sqrt(n0); the n0 - 1 dark rows are orthonormal, orthogonal to it,
    and each sums to zero.
    """

    n_mol: int
    n0: int

    @property
    def symmetric_row(self) -> np.ndarray:
        if self.n0 < 1:
            return np.zeros(0)
        return np.full(self.n0, 1.0 / math.sqrt(self.n0))

    @property
    def dark_rows(self) -> np.ndarray:
        return helmert_rows(self.n0)

    @property
    def n_ground_states(self) -> int:
        return math.comb(self.n_mol, self.n0)


def analytic_nonsymmetric_spectrum(cfg: ManyMolConfig) -> Spectrum:
    """Stick spectrum for nonsymmetric (thermal-type) initial product states.

    Counts every distinguishable occupation once (weight 1 per initial
    string): resonant polaritons split by 2 g sqrt(n0/N) mu; twin peaks split
    by 2 g sqrt((n0+1)/N) mu; dark peak at omega12 carrying 2 n0 times the
    intensity of each twin stick.
    """
    if cfg.n0 is None:
        raise ModelError("nonsymmetric spectrum needs an occupation n0")
    n, n0, g, mu = cfg.n_mol, cfg.n0, cfg.g, cfg.mu
    pos, inten, branch, mech = [], [], [], []
    r_off = g * math.sqrt(n0 / n) * mu
    for sign in (-1.0, 1.0):
        pos.append(cfg.omega02 + sign * r_off)
        inten.append(n0 * mu**2 / 2.0 * math.comb(n, n0))
        branch.append("R")
        mech.append("polariton")
    tp_off = g * math.sqrt((n0 + 1) / n) * mu
    for sign in (-1.0, 1.0):
        pos.append(cfg.omega12 + sign * tp_off)
        inten.append(mu**2 / 2.0 * math.comb(n, n0 + 1))
        branch.append("P")
        mech.append("twin")
    pos.append(cfg.omega12)
    inten.append(n0 * mu**2 * math.comb(n, n0 + 1))
    branch.append("P")
    mech.append("dark")
    keep = [i for i, x in enumerate(inten) if x > 0]
    return make_stick_spectrum(
        [pos[i] for i in keep], [inten[i] for i in keep],
        branch=[branch[i] for i in keep], mechanism=[mech[i] for i in keep],
        meta={"framework": "manymol_analytic", "n_mol": n, "n0": n0},
    )


def analytic_symmetric_spectrum(cfg: ManyMolConfig) -> Spectrum:
    """Binomially weighted sticks for the permutationally symmetric initial
    state ((psi_0 + psi_1)/sqrt(2))^(x n_mol).

    Each occupation sector n0 contributes resonant sticks offset by
    +- g mu sqrt(n0/N) and twin sticks offset by +- g mu sqrt((n0+1)/N); dark
    transitions carry zero intensity by symmetry.
    """
    if not cfg.symmetric:
        raise ModelError("symmetric spectrum needs the symmetric flag")
    n, g, mu = cfg.n_mol, cfg.g, cfg.mu
    pos, inten, branch, mech = [], [], [], []
    norm = mu**2 / 2.0**n
    for n0 in range(n + 1):
        c = math.comb(n, n0)
        for sign in (-1.0, 1.0):
            if n0 > 0:
                pos.append(cfg.omega02 + sign * g * mu * math.sqrt(n0 / n))
                inten.append(norm * c * n0)
                branch.append("R")
                mech.append("polariton")
            if n - n0 > 0:
                pos.append(cfg.omega12 + sign * g * mu * math.sqrt((n0 + 1) / n))
                inten.append(norm * c * (n - n0))
                branch.append("P")
                mech.append("twin")
    return make_stick_spectrum(
        pos, inten, branch=branch, mechanism=mech,
        meta={"framework": "manymol_analytic", "n_mol": n, "symmetric": True},
    )


def thermodynamic_limit_spectrum(r0: float, branch: str, g: float, mu: float,
                                 omega02: float, omega12: float) -> Spectrum:
    """Closed-form large-count sticks.

    thermal: resonant polaritons at omega02 +- g sqrt(r0) mu (mu^2/2 each)
    plus the dark peak at omega12 (mu^2); the twin feature is fully
    suppressed.  symmetric: four sticks at omega02 +- g sqrt(1/2) mu and
    omega12 +- g sqrt(1/2) mu, mu^2/2 each.  This is the large-count limit of
    analytic_symmetric_spectrum: its binomial sector weights concentrate
    n0/N on 1/2 with relative width 1/(2 sqrt(N)), so both branches land on
    the thermal r0 = 1/2 offset.  Every molecule of the symmetric state is
    half in psi_0, so that case uses and records r0 = 1/2 whatever r0 is passed.
    """
    if not 0.0 <= r0 <= 1.0:
        raise ModelError("r0 must lie in [0, 1]")
    pos, inten, br, mech = [], [], [], []
    if branch == "thermal":
        off = g * math.sqrt(r0) * mu
        for sign in (-1.0, 1.0):
            pos.append(omega02 + sign * off)
            inten.append(mu**2 / 2.0)
            br.append("R")
            mech.append("polariton")
        pos.append(omega12)
        inten.append(mu**2)
        br.append("P")
        mech.append("dark")
    elif branch == "symmetric":
        r0 = 0.5
        off = g * math.sqrt(r0) * mu
        for center, b in ((omega02, "R"), (omega12, "P")):
            for sign in (-1.0, 1.0):
                pos.append(center + sign * off)
                inten.append(mu**2 / 2.0)
                br.append(b)
                mech.append("polariton" if b == "R" else "twin")
    else:
        raise ModelError(f"branch must be 'thermal' or 'symmetric', got {branch!r}")
    return make_stick_spectrum(
        pos, inten, branch=br, mechanism=mech,
        meta={"framework": "thermo_limit", "r0": r0, "case": branch},
    )


# -- brute-force product basis ---------------------------------------------

MAX_N_MOL = 8


def _site_sum(op: np.ndarray, n_mol: int) -> np.ndarray:
    """Sum over sites of op acting on one molecule of the n_mol-fold product space."""
    n = op.shape[0]
    return sum(np.kron(np.kron(np.eye(n**site), op), np.eye(n**(n_mol - 1 - site)))
               for site in range(n_mol))


def many_molecule_labels(model: MolecularModel, n_mol: int,
                         n_fock_max: int) -> list[tuple[tuple[int, ...], int]]:
    """(occupation string, photon number) per basis column, N-major."""
    strings = list(itertools.product(range(model.n_states), repeat=n_mol))
    return [(occ, n_ph) for n_ph in range(n_fock_max + 1) for occ in strings]


def build_many_molecule_hamiltonian(model: MolecularModel, cav: CavityParams,
                                    n_mol: int, n_fock_max: int | None = None
                                    ) -> tuple[np.ndarray, list[tuple[tuple[int, ...], int]]]:
    """Full product-basis Hamiltonian with coupling g/sqrt(n_mol).

    All dipole matrix elements are kept (no degenerate-block approximation);
    the optional self-energy acts on the total dipole.  Raises BasisSizeError
    beyond n_mol = 8.
    """
    if n_mol > MAX_N_MOL:
        raise BasisSizeError(f"n_mol={n_mol} exceeds the product-basis limit {MAX_N_MOL}")
    n_fock = cav.n_fock_max if n_fock_max is None else n_fock_max
    mu_tot = _site_sum(model.dipole, n_mol)
    h = product_hamiltonian(_site_sum(np.diag(model.energies), n_mol), mu_tot,
                            mu_tot @ mu_tot if cav.include_dse else None,
                            cav.omega_c, cav.g / math.sqrt(n_mol), n_fock)
    return h, many_molecule_labels(model, n_mol, n_fock)


def spectrum_from_state(sol: PolaritonSolution, mu_op: np.ndarray, chi: np.ndarray,
                        degeneracy_tol: float = 1e-7,
                        min_rel_intensity: float = 1e-9) -> Spectrum:
    """Stick spectrum of an arbitrary initial vector chi.

    Eigenstates are grouped into degenerate manifolds; within each initial
    manifold the projection of chi interferes coherently, across manifolds
    incoherently:  I(E_F - E_I) = sum_{f in F} |<f| mu |P_I chi>|^2.
    Reduces to the usual |<i|mu|f>|^2 sticks when chi is an eigenstate.
    """
    evals, vecs = sol.eigenvalues, sol.eigenvectors
    coeffs = vecs.T @ chi
    starts = np.flatnonzero(np.r_[True, np.diff(evals) > degeneracy_tol])
    ends = np.r_[starts[1:], evals.size]
    mean_e = np.add.reduceat(evals, starts) / (ends - starts)
    weights = np.add.reduceat(coeffs**2, starts)
    pos, inten = [np.zeros(0)], [np.zeros(0)]     # a zero chi gives no sticks
    for mi in np.flatnonzero(weights >= 1e-14):
        idx_i = slice(starts[mi], ends[mi])
        amps = vecs.T @ (mu_op @ (vecs[:, idx_i] @ coeffs[idx_i]))
        strength = np.add.reduceat(amps**2, starts)
        final = (mean_e > mean_e[mi] + degeneracy_tol) & (strength > 0.0)
        pos.append(mean_e[final] - mean_e[mi])
        inten.append(strength[final])
    spec = make_stick_spectrum(np.concatenate(pos), np.concatenate(inten),
                               merge_tol=degeneracy_tol,
                               meta={"framework": "manymol_bruteforce"})
    if spec.intensity.size:
        floor = min_rel_intensity * spec.intensity.max()
        keep = spec.intensity > floor
        spec = Spectrum("sticks", spec.omega[keep], spec.intensity[keep], spec.meta)
    return spec


def brute_force_spectrum(model: MolecularModel, cav: CavityParams, n_mol: int,
                         n0: int | None = None, symmetric: bool = False,
                         n_fock_max: int | None = None,
                         degeneracy_tol: float = 1e-7) -> Spectrum:
    """Stick spectrum from full diagonalization of the product-basis H.

    Thermal case (n0 given): the incoherent sum over every occupation string
    with n0 ground-state molecules, weight 1 per string, matching the
    counting of analytic_nonsymmetric_spectrum.  H and mu commute with
    molecule permutations, so every string gives the same sticks; the sum is
    computed exactly as the representative string psi_0^(x n0) x
    psi_1^(x (n_mol - n0)) x |0> times C(n_mol, n0).  Symmetric case: the
    coherent ((psi_0 + psi_1)/sqrt(2))^(x n_mol) x |0> initial vector.
    """
    cfg = ManyMolConfig.from_model(model, cav.g, n_mol, n0=n0, symmetric=symmetric)
    h, _ = build_many_molecule_hamiltonian(model, cav, n_mol, n_fock_max)
    sol = diagonalize_polaritons(h)
    n_fock = cav.n_fock_max if n_fock_max is None else n_fock_max
    mu_op = np.kron(np.eye(n_fock + 1), _site_sum(model.dipole, n_mol))

    psi = np.eye(model.n_states)
    if symmetric:
        sites, n_strings = [(psi[0] + psi[1]) / math.sqrt(2.0)] * n_mol, 1
    else:
        sites, n_strings = [psi[0]] * n0 + [psi[1]] * (n_mol - n0), math.comb(n_mol, n0)
    chi_mol = functools.reduce(np.kron, sites)
    chi = np.zeros(h.shape[0])
    chi[: chi_mol.size] = chi_mol              # photon vacuum block comes first
    spec = spectrum_from_state(sol, mu_op, chi, degeneracy_tol)
    spec.intensity *= n_strings
    spec.meta.update({"n_mol": n_mol, "n0": n0, "symmetric": symmetric,
                      "g": cav.g, "include_dse": cav.include_dse})
    return classify_sticks(spec, cfg)


def classify_sticks(spec: Spectrum, cfg: ManyMolConfig) -> Spectrum:
    """Attach branch (R/P) and mechanism (polariton/twin/dark) labels by
    position relative to the cavity-free transition frequencies."""
    branch, mech = [], []
    dark_window = 0.25 * cfg.g * cfg.mu / math.sqrt(cfg.n_mol)
    for w in spec.omega:
        if abs(w - cfg.omega02) <= abs(w - cfg.omega12):
            branch.append("R")
            mech.append("polariton")
        else:
            branch.append("P")
            mech.append("dark" if abs(w - cfg.omega12) < dark_window else "twin")
    spec.meta["branch"] = branch
    spec.meta["mechanism"] = mech
    return spec

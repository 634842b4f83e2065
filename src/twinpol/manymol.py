"""Many-emitter engine for the 3-level system.

Two routes to the same physics: a brute-force Hamiltonian (all matrix
elements kept), and closed-form stick spectra derived from the degenerate
first-excited-manifold blocks, where the bright symmetric combination of
singly-excited strings couples to the photon while the orthogonal dark
combinations do not.  The coupling is scaled as g / sqrt(n_mol) throughout.

H and mu commute with molecule permutations, so the brute-force route needs
one initial vector per run (a representative occupation string stands for
all C(n_mol, n0) of them), and that vector never leaves the symmetric
subspace of the permutations that fix it.  The engine diagonalizes H there,
on one bosonic occupation basis per group of interchangeable molecules
(collective_operator; Shammah et al., Phys. Rev. A 98, 063815 (2018)):
C(n0+2, 2) C(n_mol-n0+2, 2) (n_fock+1) states for a thermal string and
C(n_mol+2, 2) (n_fock+1) for the symmetric state, against 3^n_mol (n_fock+1)
in the product basis, which stays as the test oracle (collective_operator
with one molecule per group).  spectrum_from_state forms the sticks by the
one stick engine, quantum._stick_lines, as static_stick_spectrum does.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams
from .errors import ModelError
from .model import MolecularModel, _symmetric_square
from .quantum import (PolaritonSolution, ProductBasis, _check_memory, _solve_factors,
                      _stick_lines, product_hamiltonian)
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


def _doublet(center: float, offset: float, intensity: float, branch: str,
             mechanism: str) -> list[tuple]:
    """The (position, intensity, branch, mechanism) rows of a line split by
    +-offset about center, the lower one first."""
    return [(center + sign * offset, intensity, branch, mechanism) for sign in (-1.0, 1.0)]


def _line_spectrum(rows: list[tuple], meta: dict) -> Spectrum:
    """make_stick_spectrum of (position, intensity, branch, mechanism) rows,
    in their order: the stable sort and the label tie rule read it."""
    pos, inten, branch, mech = zip(*rows) if rows else ((),) * 4
    return make_stick_spectrum(pos, inten, branch=branch, mechanism=mech, meta=meta)


def analytic_nonsymmetric_spectrum(cfg: ManyMolConfig) -> Spectrum:
    """Stick spectrum for nonsymmetric (thermal-type) initial product states.

    Counts every distinguishable occupation once (weight 1 per initial
    string): resonant polaritons split by 2 g sqrt(n0/N) mu; twin peaks split
    by 2 g sqrt((n0+1)/N) mu; dark peak at omega12 carrying 2 n0 times the
    intensity of each twin stick.  Lines of zero intensity are left out.
    """
    if cfg.n0 is None:
        raise ModelError("nonsymmetric spectrum needs an occupation n0")
    n, n0, g, mu = cfg.n_mol, cfg.n0, cfg.g, cfg.mu
    rows = (_doublet(cfg.omega02, g * math.sqrt(n0 / n) * mu,
                     n0 * mu**2 / 2.0 * math.comb(n, n0), "R", "polariton")
            + _doublet(cfg.omega12, g * math.sqrt((n0 + 1) / n) * mu,
                       mu**2 / 2.0 * math.comb(n, n0 + 1), "P", "twin")
            + [(cfg.omega12, n0 * mu**2 * math.comb(n, n0 + 1), "P", "dark")])
    return _line_spectrum([r for r in rows if r[1] > 0],
                          {"framework": "manymol_analytic", "n_mol": n, "n0": n0})


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
    norm = mu**2 / 2.0**n
    rows = []
    for n0 in range(n + 1):
        c, lines = math.comb(n, n0), []
        if n0 > 0:
            lines.append(_doublet(cfg.omega02, g * mu * math.sqrt(n0 / n), norm * c * n0,
                                  "R", "polariton"))
        if n0 < n:
            lines.append(_doublet(cfg.omega12, g * mu * math.sqrt((n0 + 1) / n),
                                  norm * c * (n - n0), "P", "twin"))
        rows += itertools.chain.from_iterable(zip(*lines))    # R-, P-, R+, P+
    return _line_spectrum(rows, {"framework": "manymol_analytic", "n_mol": n,
                                 "symmetric": True})


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
    if branch == "thermal":
        rows = (_doublet(omega02, g * math.sqrt(r0) * mu, mu**2 / 2.0, "R", "polariton")
                + [(omega12, mu**2, "P", "dark")])
    elif branch == "symmetric":
        r0 = 0.5
        off = g * math.sqrt(r0) * mu
        rows = (_doublet(omega02, off, mu**2 / 2.0, "R", "polariton")
                + _doublet(omega12, off, mu**2 / 2.0, "P", "twin"))
    else:
        raise ModelError(f"branch must be 'thermal' or 'symmetric', got {branch!r}")
    return _line_spectrum(rows, {"framework": "thermo_limit", "r0": r0, "case": branch})


# -- brute force on permutation-symmetric occupation bases -----------------

def occupation_basis(m: int, n_levels: int) -> list[tuple[int, ...]]:
    """Occupation vectors (n_0, ..., n_{L-1}) of m molecules over n_levels
    levels in descending lexicographic order: one molecule lists its levels
    in order, so a one-molecule group is the molecule's own basis."""
    if n_levels == 1:
        return [(m,)]
    return [(k,) + rest for k in range(m, -1, -1)
            for rest in occupation_basis(m - k, n_levels - 1)]


def _group_operator(op: np.ndarray, m: int) -> np.ndarray:
    """sum_kl op_kl b_k^dag b_l on the occupation basis of m molecules."""
    occ = occupation_basis(m, op.shape[0])
    index = {o: i for i, o in enumerate(occ)}
    out = np.zeros((len(occ), len(occ)))
    entries = list(zip(*np.nonzero(op)))
    for i, o in enumerate(occ):
        for k, l in entries:
            if k == l:
                out[i, i] += op[k, k] * o[k]
            elif o[l]:
                moved = list(o)
                moved[l] -= 1
                moved[k] += 1
                out[index[tuple(moved)], i] = op[k, l] * math.sqrt(o[l] * (o[k] + 1))
    return out


def collective_operator(op: np.ndarray, groups) -> np.ndarray:
    """Sum over molecules of the one-molecule operator op, on the Kronecker
    product of one occupation basis per group of interchangeable molecules.

    A group of m molecules with L levels spans C(m + L - 1, L - 1) occupation
    vectors, where the site sum acts as sum_kl op_kl b_k^dag b_l: n_k on the
    diagonal and sqrt(n_l (n_k + 1)) for k != l.  groups = [1] * N is the
    N-molecule product basis, molecule 0 most significant.
    """
    blocks = [_group_operator(op, m) for m in groups]
    dims = [b.shape[0] for b in blocks]
    return sum(np.kron(np.kron(np.eye(math.prod(dims[:i])), b),
                       np.eye(math.prod(dims[i + 1:])))
               for i, b in enumerate(blocks))


def _collective_factors(model: MolecularModel, cav: CavityParams, groups,
                        n_fock: int) -> tuple:
    """product_hamiltonian's arguments (coupling g/sqrt(N), mu_tot second) on
    the occupation bases of groups and Fock states 0..n_fock, memory checked.
    The energies are the Kronecker sum of each group's sum_k E_k n_k, each
    summed in _group_operator's order."""
    n = model.n_states
    dim_mol = math.prod(math.comb(m + n - 1, n - 1) for m in groups)
    _check_memory(dim_mol * (n_fock + 1), cav.include_dse)
    occ = [np.array(occupation_basis(m, n)) for m in groups]
    energies = functools.reduce(lambda a, b: np.add.outer(a, b).ravel(),
                                [sum(o[:, k] * model.energies[k] for k in range(n)) for o in occ])
    mu_tot, g = collective_operator(model.dipole, groups), cav.g / math.sqrt(sum(groups))
    within = _symmetric_square(mu_tot) if cav.include_dse else None
    if within is not None:
        within *= g**2 / cav.omega_c      # in place, as _model_factors scales mu^2
    ns, ks = np.divmod(np.arange(dim_mol * (n_fock + 1)), dim_mol)
    return energies, mu_tot, within, cav.omega_c, g, ks, ns


def build_many_molecule_hamiltonian(model: MolecularModel, cav: CavityParams,
                                    n_mol: int, n_fock_max: int | None = None
                                    ) -> tuple[np.ndarray, list[tuple[tuple[int, ...], int]]]:
    """Full product-basis Hamiltonian with coupling g/sqrt(n_mol), and the
    (occupation string, photon number) of each basis column, N-major.

    All dipole matrix elements are kept (no degenerate-block approximation);
    the optional self-energy acts on the total dipole.  This is the oracle
    for brute_force_spectrum's occupation bases.  Raises BasisSizeError when
    _check_memory refuses the 3^n_mol (n_fock + 1) states, from n_mol = 8
    on with two or more photon states.
    """
    n_fock = cav.n_fock_max if n_fock_max is None else n_fock_max
    h = product_hamiltonian(*_collective_factors(model, cav, [1] * n_mol, n_fock))
    strings = list(itertools.product(range(model.n_states), repeat=n_mol))
    return h, [(occ, n_ph) for n_ph in range(n_fock + 1) for occ in strings]


def _lower_pair_vector(m: int, amplitudes, n_levels: int) -> np.ndarray:
    """sum_k amplitudes[k] |k, m - k, 0, ...> on the occupation basis of m
    molecules: k of them in psi_0 and the other m - k in psi_1."""
    occ = occupation_basis(m, n_levels)
    vec = np.zeros(len(occ))
    for k, amp in enumerate(amplitudes):
        vec[occ.index((k, m - k) + (0,) * (n_levels - 2))] = amp
    return vec


def spectrum_from_state(sol: PolaritonSolution, mu_op: np.ndarray, chi: np.ndarray,
                        degeneracy_tol: float = 1e-7,
                        min_rel_intensity: float = 1e-9) -> Spectrum:
    """Stick spectrum of an arbitrary initial vector chi.

    I(E_F - E_I) = sum_{f in F} |<f| mu |P_I chi>|^2 over degenerate
    manifolds: quantum._stick_lines on the one column V^T chi, merged within
    degeneracy_tol, minus sticks at or below min_rel_intensity of the
    strongest.  No result depends on the basis LAPACK picks inside a
    manifold, and c chi gives c^2 times the intensities.  mu_op, the
    dipole's molecular factor, acts on each of the sol.size // len(mu_op)
    photon slabs (a product-space mu is one slab).
    """
    n_mol = len(mu_op)
    if np.shape(chi) != (sol.size,) or sol.size % n_mol:
        raise ModelError(f"chi of shape {np.shape(chi)} and an order-{n_mol} mu_op do not "
                         f"fit a {sol.size}-state solution")
    slabs = ProductBasis(tuple((k, n) for n in range(sol.size // n_mol) for k in range(n_mol)))
    omega, inten = _stick_lines(sol, mu_op, slabs, sol.to_eigenbasis(chi)[:, None], [1.0],
                                degeneracy_tol)[:2]
    spec = make_stick_spectrum(omega, inten, merge_tol=degeneracy_tol,
                               meta={"framework": "manymol_bruteforce"})
    if spec.intensity.size:
        spec = spec.select(spec.intensity > min_rel_intensity * spec.intensity.max())
    return spec


def brute_force_spectrum(model: MolecularModel, cav: CavityParams, n_mol: int,
                         n0: int | None = None, symmetric: bool = False,
                         n_fock_max: int | None = None,
                         degeneracy_tol: float = 1e-7) -> Spectrum:
    """spectrum_from_state of the initial vector, every matrix element of H
    kept, on the occupation bases of its exact symmetric subspace (see the
    module docstring).  Thermal case (n0 given): the incoherent sum over the
    C(n_mol, n0) strings with n0 ground-state molecules, weight 1 each, as
    analytic_nonsymmetric_spectrum counts; all give the same sticks, so the
    representative |n0, 0, 0> x |0, n_mol - n0, 0> x |0> on groups
    [n0, n_mol - n0] is taken C(n_mol, n0) times.  Symmetric case:
    ((psi_0 + psi_1)/sqrt(2))^(x n_mol) x |0>, which is sum_k
    sqrt(C(n_mol, k)) 2^(-n_mol/2) |k, n_mol - k, 0> x |0> on group [n_mol].
    """
    cfg = ManyMolConfig.from_model(model, cav.g, n_mol, n0=n0, symmetric=symmetric)
    n_fock = cav.n_fock_max if n_fock_max is None else n_fock_max
    groups = [n_mol] if symmetric else [m for m in (n0, n_mol - n0) if m]
    factors = _collective_factors(model, cav, groups, n_fock)
    sol, mu_tot = _solve_factors(*factors), factors[1]
    levels = model.n_states
    if symmetric:
        n_strings = 1
        parts = [_lower_pair_vector(n_mol, [math.sqrt(math.comb(n_mol, k) / 2.0**n_mol)
                                            for k in range(n_mol + 1)], levels)]
    else:
        # all n0 of the first group in psi_0, all of the second in psi_1
        n_strings = math.comb(n_mol, n0)
        parts = [_lower_pair_vector(m, amps, levels)
                 for m, amps in ((n0, [0.0] * n0 + [1.0]), (n_mol - n0, [1.0])) if m]
    chi_mol = functools.reduce(np.kron, parts)
    chi = np.zeros(sol.size)
    chi[: chi_mol.size] = chi_mol              # photon vacuum block comes first
    spec = spectrum_from_state(sol, mu_tot, chi, degeneracy_tol)
    spec.intensity *= n_strings
    spec.meta.update({"n_mol": n_mol, "n0": n0, "symmetric": symmetric,
                      "g": cav.g, "include_dse": cav.include_dse,
                      "basis_size": sol.size,
                      "product_basis_size": levels**n_mol * (n_fock + 1)})
    return classify_sticks(spec, cfg)


def classify_sticks(spec: Spectrum, cfg: ManyMolConfig) -> Spectrum:
    """Attach branch (R/P) and mechanism (polariton/twin/dark) labels by
    position relative to the cavity-free transition frequencies."""
    dark_window = 0.25 * cfg.g * cfg.mu / math.sqrt(cfg.n_mol)
    to12 = np.abs(spec.omega - cfg.omega12)
    resonant = np.abs(spec.omega - cfg.omega02) <= to12
    spec.meta["branch"] = np.where(resonant, "R", "P").tolist()
    spec.meta["mechanism"] = np.where(resonant, "polariton",
                                      np.where(to12 < dark_window, "dark", "twin")).tolist()
    return spec

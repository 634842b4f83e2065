"""Cavity-free molecular models.

Two model families are supported: a 3-level Lambda system defined directly by
its energies and transition dipoles, and a rovibrational diatomic built from a
Morse potential curve solved on a radial grid.  Both produce the same
MolecularModel container (eigenenergies, dipole matrix, state labels) that
every solver in the package consumes.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ConvergenceError, ModelError
from .units import CM1_PER_HARTREE, KB_HARTREE_PER_K, cm1_to_au


def _freeze(a) -> np.ndarray:
    """A read-only float copy of a; the caller's own array stays writeable."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MolecularModel:
    """Cavity-free eigenstates of one emitter.

    energies are in hartree, referenced to the ground state; dipole is the
    real symmetric matrix of <k|mu_Z|l> in atomic units; labels carries one
    quantum-number dict per state ({"index": k} for level models,
    {"v": v, "J": J, "M": M} for rovibrational ones).
    """

    energies: np.ndarray
    dipole: np.ndarray
    labels: tuple[dict, ...]

    def __post_init__(self):
        object.__setattr__(self, "energies", _freeze(self.energies))
        object.__setattr__(self, "dipole", _freeze(self.dipole))
        object.__setattr__(self, "labels", tuple(dict(l) for l in self.labels))
        self.validate()

    @property
    def n_states(self) -> int:
        return self.energies.size

    def validate(self):
        n = self.n_states
        if self.dipole.shape != (n, n):
            raise ModelError(f"dipole matrix shape {self.dipole.shape} does not match {n} states")
        if len(self.labels) != n:
            raise ModelError("one label per state required")
        if not np.all(np.isfinite(self.energies)) or not np.all(np.isfinite(self.dipole)):
            raise ModelError("energies and dipoles must be finite")
        if not np.allclose(self.dipole, self.dipole.T, atol=1e-12):
            raise ModelError("dipole matrix must be symmetric")
        if self.is_rovib():
            j = np.array([lab["J"] for lab in self.labels])
            m = np.array([lab["M"] for lab in self.labels])
            allowed = (np.abs(j[:, None] - j[None, :]) == 1) & (m[:, None] == m[None, :])
            rows, cols = np.nonzero((self.dipole != 0.0) & ~allowed)
            if rows.size:
                li, lj = self.labels[rows[0]], self.labels[cols[0]]
                raise ModelError(
                    f"dipole entry between {li} and {lj} violates the "
                    "dJ = +-1, dM = 0 selection rule"
                )

    def is_rovib(self) -> bool:
        return bool(self.labels) and "v" in self.labels[0]

    def label_str(self, k: int) -> str:
        lab = self.labels[k]
        if "v" in lab:
            return f"v{lab['v']}J{lab['J']}M{lab['M']}"
        return f"psi{lab['index']}"

    def state_index(self, **quantum_numbers) -> int:
        """Index of the unique state whose label matches the given numbers."""
        hits = [
            k for k, lab in enumerate(self.labels)
            if all(lab.get(key) == val for key, val in quantum_numbers.items())
        ]
        if len(hits) != 1:
            raise ModelError(f"{quantum_numbers} matches {len(hits)} states")
        return hits[0]

    def transition_frequency(self, i: int, f: int) -> float:
        return float(self.energies[f] - self.energies[i])

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "energies": self.energies.tolist(),
            "dipole": self.dipole.tolist(),
            "labels": list(self.labels),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MolecularModel":
        return cls(
            energies=np.array(doc["energies"], float),
            dipole=np.array(doc["dipole"], float),
            labels=tuple(doc["labels"]),
        )

    def save_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load_json(cls, path) -> "MolecularModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def content_hash(self) -> str:
        """Deterministic sha1 of the canonical JSON form, for run manifests."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()


@dataclass(frozen=True)
class MorseParams:
    """Morse curve V(R) = D_e (exp(-2a(R-R_e)) - 2 exp(-a(R-R_e)) + 1).

    d_e_cm1 is the dissociation energy in cm^-1; alpha in bohr^-1; r_e and the
    atomic masses in atomic units.  dipole_curve holds polynomial coefficients
    of mu(R) about R_e, lowest order first; the defaults are placeholders with
    realistic magnitudes (they rescale intensities, not positions).
    """

    d_e_cm1: float = 37209.369
    alpha: float = 0.993099
    r_e: float = 2.40855
    m1: float = 1837.1522
    m2: float = 63744.3019
    v_max: int = 1
    j_max: int = 10
    dipole_curve: tuple[float, ...] = (0.43, 0.30)

    def __post_init__(self):
        if min(self.d_e_cm1, self.alpha, self.r_e, self.m1, self.m2) <= 0:
            raise ModelError("Morse parameters must be positive")
        if self.v_max < 0 or self.j_max < 0:
            raise ModelError("v_max and j_max must be nonnegative")

    @property
    def d_e(self) -> float:
        return cm1_to_au(self.d_e_cm1)

    @property
    def reduced_mass(self) -> float:
        return self.m1 * self.m2 / (self.m1 + self.m2)

    def potential(self, r: np.ndarray) -> np.ndarray:
        x = np.exp(-self.alpha * (np.asarray(r, float) - self.r_e))
        return self.d_e * (x * x - 2.0 * x + 1.0)

    def dipole_function(self, r: np.ndarray) -> np.ndarray:
        dr = np.asarray(r, float) - self.r_e
        out = np.zeros_like(dr)
        for n, c in enumerate(self.dipole_curve):
            out += c * dr**n
        return out

    # Closed-form anharmonic constants used as an independent cross-check of
    # the grid eigensolver (valid for the pure J = 0 Morse problem).
    @property
    def omega_e(self) -> float:
        return self.alpha * math.sqrt(2.0 * self.d_e / self.reduced_mass)

    @property
    def omega_e_xe(self) -> float:
        return self.omega_e**2 / (4.0 * self.d_e)

    def analytic_level(self, v: int) -> float:
        """Morse eigenvalue above the well minimum for J = 0."""
        return self.omega_e * (v + 0.5) - self.omega_e_xe * (v + 0.5) ** 2

    @property
    def rotational_constant(self) -> float:
        return 1.0 / (2.0 * self.reduced_mass * self.r_e**2)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform sine-basis DVR grid on [r_min, r_max] (endpoints excluded)."""

    r_min: float = 1.2
    r_max: float = 6.0
    n_points: int = 400
    convergence_tol_cm1: float = 1e-3

    def __post_init__(self):
        if self.r_max <= self.r_min:
            raise ModelError("r_max must exceed r_min")
        if self.n_points < 8:
            raise ModelError("grid needs at least 8 points")

    def points(self, n_points: int | None = None) -> np.ndarray:
        p = self.n_points if n_points is None else n_points
        edges = np.linspace(self.r_min, self.r_max, p + 2)
        return edges[1:-1]


@dataclass(frozen=True)
class ThermalWeights:
    """Boltzmann populations over the states of one model."""

    temperature: float
    weights: np.ndarray
    subset: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights))
        if np.any(self.weights < 0):
            raise ModelError("weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ModelError("weights must sum to one")


def build_three_level(e0: float, e1: float, e2: float,
                      mu02: float, mu12: float) -> MolecularModel:
    """Lambda-type 3-level model: two lower states coupled to one upper state.

    The 0->1 transition is dipole-dark; couplings are mu02 on 0<->2 and mu12
    on 1<->2.  Energies are referenced so the ground state sits at zero.
    """
    if not (e0 < e1 < e2):
        raise ModelError(f"energies must be strictly ordered, got {(e0, e1, e2)}")
    energies = np.array([e0, e1, e2], float) - e0
    dipole = np.zeros((3, 3))
    dipole[0, 2] = dipole[2, 0] = mu02
    dipole[1, 2] = dipole[2, 1] = mu12
    labels = tuple({"index": k} for k in range(3))
    return MolecularModel(energies=energies, dipole=dipole, labels=labels)


def _sine_dvr_kinetic(n_points: int, length: float, mass: float) -> np.ndarray:
    """Particle-in-a-box (sine basis) DVR kinetic-energy matrix.

    Grid points are x_i = a + i*(b-a)/N for i = 1..N-1 with N = n_points + 1
    intervals; spectrally convergent for bound states vanishing at the walls.
    Off the diagonal an entry depends on i - j and i + j only, so the matrix
    is a Toeplitz minus a Hankel matrix read from two 1-D tables.
    """
    n_box = n_points + 1
    i = np.arange(1, n_points + 1)
    pref = math.pi**2 / (4.0 * mass * length**2)
    diff = np.arange(1 - n_points, n_points)
    summ = np.arange(2, 2 * n_points + 1)
    with np.errstate(divide="ignore"):
        by_diff = (-1.0) ** diff / np.sin(math.pi * diff / (2 * n_box)) ** 2
        by_summ = (-1.0) ** summ / np.sin(math.pi * summ / (2 * n_box)) ** 2
    # row i of a window view starts at table entry i: reversing the diff table
    # and the rows gives entry (i, j) = by_diff[i - j], the sum view by_summ[i + j]
    t = (sliding_window_view(by_diff[::-1], n_points)[::-1]
         - sliding_window_view(by_summ, n_points))
    np.fill_diagonal(
        t, (2.0 * n_box**2 + 1.0) / 3.0 - 1.0 / np.sin(math.pi * i / n_box) ** 2
    )
    t *= pref
    return t


def _dst1(x: np.ndarray) -> np.ndarray:
    """Type-I sine transform along axis 0: X_k = sum_j x_j sin(pi j k / (n + 1))."""
    zero = np.zeros((1,) + x.shape[1:])
    odd = np.concatenate([zero, x, zero, -x[::-1]])
    return -0.5 * np.fft.rfft(odd, axis=0).imag[1:x.shape[0] + 1]


def _sine_interpolate(u: np.ndarray, n_fine: int) -> tuple[np.ndarray, np.ndarray]:
    """DVR columns u carried to the n_fine-point grid of the same box, and
    their coefficients c in the box's orthonormal sine basis.

    Each column is expanded in that basis and the series is sampled on the
    finer grid, so a normalized column stays normalized.
    """
    n = u.shape[0]
    coeffs = np.zeros((n_fine,) + u.shape[1:])
    coeffs[:n] = math.sqrt(2.0 / (n + 1)) * _dst1(u)
    return math.sqrt(2.0 / (n_fine + 1)) * _dst1(coeffs), coeffs[:n]


def _box_levels(n_points: int, length: float, mass: float) -> np.ndarray:
    """(k pi / length)^2 / (2 mass), k = 1 .. n_points: the eigenvalues of
    _sine_dvr_kinetic, whose eigenvectors are the box's sine basis."""
    return (math.pi * np.arange(1, n_points + 1) / length) ** 2 / (2.0 * mass)


def _sine_ritz(u: np.ndarray, v: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ritz pairs (theta, y), y with unit columns, of T + diag(v) on the
    v.size-point grid, on the sine series of the coarse DVR columns u.

    T is the sine-DVR kinetic matrix of the fine grid and levels its
    eigenvalues (_box_levels).  The sine basis diagonalizes T, so the
    projection of T is c^T diag(levels) c from the coefficients c alone, and
    T itself is applied only to certify the pairs (_certify).
    """
    trial, coeffs = _sine_interpolate(u, v.size)
    theta, z = np.linalg.eigh((coeffs.T * levels[:coeffs.shape[0]]) @ coeffs
                              + trial.T @ (v[:, None] * trial))
    y = trial @ z
    y /= np.linalg.norm(y, axis=0)
    return theta, y


# eigenpairs an anchor J keeps from its full eigh: the Ritz basis of the J above it
_ANCHOR_PAIRS = 64


def _effective_potential(params: MorseParams, j: int, r: np.ndarray) -> np.ndarray:
    """Morse potential plus the centrifugal term of one J on the grid r."""
    return params.potential(r) + j * (j + 1) / (2.0 * params.reduced_mass * r**2)


def _with_diagonal(kinetic: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrix kinetic + diag(v)."""
    h = kinetic.copy()
    h[np.diag_indices_from(h)] += v
    return h


def _abs_norm(kinetic: np.ndarray):
    """The map v -> || |kinetic| + diag(|v|) ||_F, an upper bound on
    ||kinetic + diag(v)||_2; the part no J changes is summed here, once."""
    t = np.abs(kinetic.diagonal())
    off = np.vdot(kinetic, kinetic) - t @ t

    def norm(v: np.ndarray) -> float:
        d = t + np.abs(v)
        return math.sqrt(float(off + d @ d))

    return norm


def _check_bound(evals: np.ndarray, v_eff: np.ndarray, grid: RadialGrid, j: int):
    """Classically forbidden walls: retained states must live below the edges."""
    if np.any(evals >= min(v_eff[0], v_eff[-1])):
        raise ConvergenceError(
            f"grid [{grid.r_min}, {grid.r_max}] does not bound the requested "
            f"levels for J={j}; raise r_max or lower v_max"
        )


def _certify(kinetic: np.ndarray, v: np.ndarray, norm: float, theta: np.ndarray,
             y: np.ndarray, rho: float, anchor: tuple[float, np.ndarray] | None,
             ) -> tuple[np.ndarray | None, tuple[float, np.ndarray] | None]:
    """(radii, anchor): radii r such that theta_i +- r_i hold exactly the lowest
    k = len(theta) eigenvalues of h = kinetic + diag(v), one each in order,
    below the wall min(v[0], v[-1]); None when that is not proven.

    y holds unit columns and norm is || |kinetic| + diag(|v|) ||_F (_abs_norm).
    Applied as kinetic @ y + v y - theta y, the residual of a unit column
    rounds by at most (n + 4) u norm (u = eps / 2, |theta| <= ||h||_2), so
    r = residual + n eps norm bounds the exact one and theta_i +- r_i holds an
    eigenvalue of h.  Disjoint intervals hold k distinct ones; below a proven
    floor on lambda_k(h) they are lambda_0 .. lambda_{k-1}.  The floor is the
    anchor (floor, v_0)'s carried to h (_carried_floor), or else one Cholesky
    at rho (_count_floor), and h becomes the returned anchor.
    """
    radii = (np.linalg.norm(kinetic @ y + v[:, None] * y - y * theta, axis=0)
             + v.size * np.finfo(float).eps * norm)
    top = theta[-1] + radii[-1]
    if np.any(theta[1:] - radii[1:] <= (theta + radii)[:-1]) or top >= min(v[0], v[-1]):
        return None, anchor
    if top >= _carried_floor(anchor, v):
        if top >= rho:      # a factorization with rho proves a floor below rho
            return None, anchor
        anchor = (_count_floor(kinetic, v, norm, theta, y, rho), v)
        if top >= anchor[0]:
            return None, anchor
    return radii, anchor


def _radial_chain(params: MorseParams, grid: RadialGrid, kinetic: np.ndarray):
    """Yields (evals, evecs, next_level) for J = 0 .. j_max in turn: the
    lowest v_max + 1 eigenpairs of each J's radial Hamiltonian, bound by the
    walls and signed, and the next eigenvalue (inf when there is none).

    A full eigh at an anchor J keeps its lowest _ANCHOR_PAIRS eigenpairs
    (lam, U) and G = U^T D U, and a later J takes its lowest v_max + 2 Ritz
    pairs on U from the eigh of diag(lam) + [J(J+1) - J0(J0+1)] G.  They are
    kept when _certify proves them to eigh's own accuracy; otherwise eigh
    decides that J, which becomes the anchor.  Nothing of an anchor outlives
    the chain.
    """
    r = grid.points()
    n_keep = params.v_max + 1
    n_pairs = min(max(_ANCHOR_PAIRS, n_keep + 1), r.size)
    d = 1.0 / (2.0 * params.reduced_mass * r**2)
    abs_norm = _abs_norm(kinetic)
    basis = anchor = None
    for j in range(params.j_max + 1):
        v = _effective_potential(params, j, r)
        norm = abs_norm(v)
        allowance = r.size * np.finfo(float).eps * norm
        radii = None
        if basis is not None:
            c0, lam, u, g = basis
            small = (j * (j + 1) - c0) * g
            small[np.diag_indices_from(small)] += lam
            theta, z = np.linalg.eigh(small)
            y = u @ z[:, :n_keep + 1]
            y /= np.linalg.norm(y, axis=0)
            radii, anchor = _certify(kinetic, v, norm, theta[:n_keep + 1], y,
                                     0.5 * (theta[n_keep] + theta[n_keep + 1]), anchor)
        if radii is None or np.any(radii > 2.0 * allowance):
            theta, y = np.linalg.eigh(_with_diagonal(kinetic, v))
            # copies, so no J keeps the full eigenvector matrix alive
            theta, y = theta[:n_pairs].copy(), y[:, :n_pairs].copy()
            if n_keep + 1 < n_pairs:        # theta[n_keep + 1] floors the later pairs
                basis = (j * (j + 1), theta, y, y.T @ (d[:, None] * y))
                anchor = (theta[n_keep + 1] - allowance, v)
        evals, evecs = theta[:n_keep], y[:, :n_keep].copy()
        _check_bound(evals, v, grid, j)
        # deterministic sign: positive lobe at the outermost maximum
        for k in range(n_keep):
            peak = np.argmax(np.abs(evecs[:, k]))
            if evecs[peak, k] < 0:
                evecs[:, k] = -evecs[:, k]
        yield evals, evecs, theta[n_keep] if n_keep < theta.size else math.inf


def _count_floor(kinetic: np.ndarray, v: np.ndarray, norm: float, theta: np.ndarray,
                 y: np.ndarray, rho: float) -> float:
    """Proven lower bound on lambda_k(h), h = kinetic + diag(v) and k =
    len(theta) (0-based), by one Cholesky factorization; -inf when it proves
    nothing.

    If h + c Y Y^T - rho I (c > 0) has a Cholesky factor, h + c Y Y^T has no
    eigenvalue below rho, and Weyl's inequality for that rank-k term leaves
    at most k eigenvalues of h below rho.  That matrix is the only one of h's
    size this check forms.
    """
    if not math.isfinite(rho):
        return -math.inf
    n, eps = v.size, np.finfo(float).eps
    a = (2.0 * (rho - theta[0]) * y) @ y.T
    a += kinetic
    a[np.diag_indices_from(a)] += v - rho
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return -math.inf
    # the factor is exact for a perturbation of a no larger than
    # (n + 1) eps trace(a) (Demmel), widened for forming a itself
    return float(rho - (n + 1) * eps * (np.trace(a) + 2.0 * norm))


def _carried_floor(anchor: tuple[float, np.ndarray] | None, diag: np.ndarray) -> float:
    """anchor = (floor, diagonal) of a matrix h_0 whose lambda_k is proven to
    be at least floor, carried to h = h_0 + diag(diag - diagonal): by Weyl,
    lambda_k(h) >= lambda_k(h_0) + min(diag - diagonal).  -inf without an
    anchor or when an increment is negative."""
    if anchor is None:
        return -math.inf
    floor, diag_anchor = anchor
    step = float(np.min(diag - diag_anchor))
    if step < 0.0:
        return -math.inf
    # each difference is within one rounding of the exact one, so (1 - eps) step
    # is below the exact smallest increment; the sum is stepped down one ulp
    return float(np.nextafter(floor + (1.0 - np.finfo(float).eps) * step, -math.inf))


def _check_doubling(kinetic: np.ndarray, v: np.ndarray, evals: np.ndarray,
                    grid: RadialGrid, j: int):
    """Full-spectrum grid-doubling check: the lowest levels of the doubled
    grid's kinetic + diag(v) must be bound and lie within
    grid.convergence_tol_cm1 of evals."""
    evals_fine = np.linalg.eigvalsh(_with_diagonal(kinetic, v))[:evals.size]
    _check_bound(evals_fine, v, grid, j)
    drift = np.max(np.abs(evals - evals_fine)) * CM1_PER_HARTREE
    if drift > grid.convergence_tol_cm1:
        raise ConvergenceError(
            f"radial eigenvalues drift {drift:.2e} cm^-1 on grid "
            f"doubling (tol {grid.convergence_tol_cm1}); refine the grid"
        )


def z_direction_cosine(j: int, jp: int, m: int) -> float:
    """<J', M| cos(theta) |J, M> for a linear rotor (Z polarization)."""
    if jp == j + 1:
        return math.sqrt(((j + 1) ** 2 - m**2) / ((2 * j + 1) * (2 * j + 3)))
    if jp == j - 1 and j > 0:
        return math.sqrt((j**2 - m**2) / ((2 * j - 1) * (2 * j + 1)))
    return 0.0


def build_morse_rovib(params: MorseParams,
                      grid: RadialGrid | None = None,
                      check_convergence: bool = True) -> MolecularModel:
    """Rovibrational model |v, J, M> from the Morse curve.

    Solves the radial equation with the J-dependent centrifugal term on the
    DVR grid, assembles Z-polarized dipole entries
    <v'J'M|mu|vJM> = <v'J'|mu(R)|vJ> * A(J, J', M), and shifts energies so
    E(v=0, J=0) = 0.  A grid-doubling check guards convergence: the lowest
    v_max + 1 levels of each J on a grid of 2 * n_points points must lie
    below the wall potential and within grid.convergence_tol_cm1 of the
    coarse levels, else ConvergenceError.

    Both grids take their levels from one certificate (_certify).  The radial
    matrices h_J = T + diag(v_J) of one grid share T, so h_J - h_J0 is the
    centrifugal increment, >= 0 for J > J0, and by Weyl lambda_k(h_J) >=
    lambda_k(h_J0) + its smallest entry (_carried_floor).  Ritz pairs
    (theta_i, y_i) of h_J hold exactly its lowest k levels when the intervals
    theta_i +- r_i, r_i = |h_J y_i - theta_i y_i| + n eps || |h_J| ||_F, are
    disjoint, lie below the wall, and lie below a proven floor on lambda_k:
    an anchor's carried up in J or, failing that, one Cholesky
    (_count_floor), which makes J the anchor.  The coarse grid takes the
    lowest v_max + 2 Ritz pairs on the lowest 64 eigenvectors of an anchor
    J's full eigh and keeps them when every r_i is within 2 n eps
    || |h_J| ||_F, eigh's own accuracy; otherwise a full eigh decides, and
    its lambda_k less n eps || |h_J| ||_F is the floor.  The doubled grid
    takes the Ritz pairs of the coarse vectors' sine series (_sine_ritz: the
    kinetic part projected in the sine basis that diagonalizes it, so the
    doubled-grid T is applied once per J, for the residual) and passes when
    max_i |evals_i - theta_i| + r_i is within grid.convergence_tol_cm1;
    otherwise eigvalsh decides (_check_doubling).  The default model takes
    one full eigh and one Cholesky of the doubled grid, and J <= 30 still
    one full eigh; the model comes from the coarse grid alone.
    """
    grid = grid or RadialGrid()
    if params.j_max < 1:
        raise ModelError("j_max must be at least 1 for a dipole-active model")

    # the kinetic matrix does not depend on J: one build per grid size
    length, mass = grid.r_max - grid.r_min, params.reduced_mass
    kinetic = _sine_dvr_kinetic(grid.n_points, length, mass)
    n_fine = 2 * grid.n_points
    if check_convergence:
        r_fine = grid.points(n_fine)
        kinetic_fine = _sine_dvr_kinetic(n_fine, length, mass)
        levels_fine = _box_levels(n_fine, length, mass)
        abs_norm = _abs_norm(kinetic_fine)
    radial = []
    anchor = None
    for j, (evals, evecs, next_level) in enumerate(_radial_chain(params, grid, kinetic)):
        if check_convergence:
            v = _effective_potential(params, j, r_fine)
            theta, y = _sine_ritz(evecs, v, levels_fine)
            radii, anchor = _certify(kinetic_fine, v, abs_norm(v), theta, y,
                                     0.5 * (evals[-1] + next_level), anchor)
            if (radii is None or np.max(np.abs(evals - theta) + radii) * CM1_PER_HARTREE
                    > grid.convergence_tol_cm1):
                _check_doubling(kinetic_fine, v, evals, grid, j)
        radial.append((evals, evecs))
    return _rovib_model(params, grid, radial)


def _rovib_model(params: MorseParams, grid: RadialGrid,
                 radial: Sequence[tuple[np.ndarray, np.ndarray]]) -> MolecularModel:
    """The |v, J, M> model from the radial levels and eigenvectors of each J."""
    levels = [evals for evals, _ in radial]
    vectors = [evecs for _, evecs in radial]
    mu_r = params.dipole_function(grid.points())

    # radial dipole integrals <v' J'| mu(R) |v J> via DVR quadrature
    def radial_dipole(vp, jp, v, j):
        return float(vectors[jp][:, vp] @ (mu_r * vectors[j][:, v]))

    states = [
        (v, j, m)
        for v in range(params.v_max + 1)
        for j in range(params.j_max + 1)
        for m in range(-j, j + 1)
    ]
    index = {s: k for k, s in enumerate(states)}
    n = len(states)
    energies = np.array([levels[j][v] for (v, j, m) in states])
    energies -= levels[0][0]

    dipole = np.zeros((n, n))
    for (v, j, m), k in index.items():
        for vp in range(params.v_max + 1):
            for jp in (j - 1, j + 1):
                if jp < 0 or jp > params.j_max or abs(m) > jp:
                    continue
                kp = index[(vp, jp, m)]
                dipole[kp, k] = radial_dipole(vp, jp, v, j) * z_direction_cosine(j, jp, m)
    dipole = 0.5 * (dipole + dipole.T)

    labels = tuple({"v": v, "J": j, "M": m} for (v, j, m) in states)
    return MolecularModel(energies=energies, dipole=dipole, labels=labels)


def mu_squared_matrix(model: MolecularModel) -> np.ndarray:
    """Matrix of mu^2 via resolution of identity over the model basis.

    Equivalent to the matrix square of the dipole matrix; exact only to the
    extent the retained basis saturates the sum over intermediate states.
    """
    m2 = model.dipole @ model.dipole
    return 0.5 * (m2 + m2.T)


def boltzmann_weights(model: MolecularModel, temperature: float,
                      subset: Sequence[int] | None = None) -> ThermalWeights:
    """Normalized Boltzmann weights over a state subset.

    Each |v, J, M> state counts individually; M degeneracy enters through the
    enumeration rather than an explicit 2J+1 factor.
    """
    if not 0 < temperature < math.inf:
        raise ModelError("temperature must be positive and finite")
    idx = np.arange(model.n_states) if subset is None else np.asarray(list(subset), int)
    if idx.size == 0:
        raise ModelError("state subset is empty")
    e = model.energies[idx]
    w = np.exp(-(e - e.min()) / (KB_HARTREE_PER_K * temperature))
    w /= w.sum()
    weights = np.zeros(model.n_states)
    weights[idx] = w
    return ThermalWeights(temperature=temperature, weights=weights,
                          subset=tuple(int(i) for i in idx))


# -- model config files ---------------------------------------------------

_UNIT_FACTORS = {
    "au": 1.0,
    "hartree": 1.0,
    "bohr": 1.0,
    "1/bohr": 1.0,
    "cm-1": 1.0 / CM1_PER_HARTREE,
    "k": 1.0,  # kelvin values stay in kelvin
}


def parse_quantity(raw: str, key: str = "?") -> float:
    """Parse 'value [unit]' with unit suffixes au, hartree, cm-1, bohr, K."""
    parts = raw.split()
    try:
        value = float(parts[0])
    except (ValueError, IndexError):
        raise ConfigError(f"{key}: cannot parse number from {raw!r}") from None
    if len(parts) == 1:
        return value
    if len(parts) > 2:
        raise ConfigError(f"{key}: expected 'value unit', got {raw!r}")
    unit = parts[1].lower()
    if unit not in _UNIT_FACTORS:
        raise ConfigError(f"{key}: unknown unit {parts[1]!r} "
                          f"(known: {', '.join(sorted(_UNIT_FACTORS))})")
    return value * _UNIT_FACTORS[unit]


def parse_int(raw: str, key: str = "?") -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def parse_float(raw: str, key: str = "?") -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


# section -> {key: (parser, default text)}; the model sections of a config
MODEL_SECTIONS = {
    "three_level": {"e0": (parse_quantity, "0 au"), "e1": (parse_quantity, "2e-3 au"),
                    "e2": (parse_quantity, "10e-3 au"), "mu02": (parse_quantity, "1.0 au"),
                    "mu12": (parse_quantity, "1.0 au")},
    "morse": {
        "d_e": (parse_quantity, "37209.369 cm-1"), "alpha": (parse_quantity, "0.993099 1/bohr"),
        "r_e": (parse_quantity, "2.40855 bohr"),
        "m1": (parse_quantity, "1837.1522 au"), "m2": (parse_quantity, "63744.3019 au"),
        "v_max": (parse_int, "1"), "j_max": (parse_int, "10"),
        "dipole_mu0": (parse_quantity, "0.43 au"), "dipole_mu1": (parse_quantity, "0.30 au"),
        "r_min": (parse_quantity, "1.2 bohr"), "r_max": (parse_quantity, "6.0 bohr"),
        "n_points": (parse_int, "400"),
    },
}


def read_section(sections, name: str, schema: dict) -> dict:
    """Parse section name of a config by its schema {key: (parser, default)}.

    sections is a ConfigParser or a {section: {key: text}} mapping such as a
    run manifest's.  Unknown keys and malformed values raise ConfigError; an
    absent section or key takes the default text, and a None default gives
    None.  A None parser keeps the text.
    """
    given = sections[name] if name in sections else {}
    _reject_unknown(given, schema, name)
    return {key: text if text is None or parse is None else parse(text, key)
            for key, (parse, default) in schema.items()
            for text in [given.get(key, default)]}


def model_from_config(sections) -> MolecularModel:
    """Build a model from the [three_level] or [morse] section of a config, a
    ConfigParser or a {section: {key: text}} mapping (see read_section)."""
    kinds = [kind for kind in MODEL_SECTIONS if kind in sections]
    if len(kinds) != 1:
        raise ConfigError("config needs exactly one of [three_level] or [morse]")
    sec = read_section(sections, kinds[0], MODEL_SECTIONS[kinds[0]])
    if kinds == ["three_level"]:
        return build_three_level(**sec)
    params = MorseParams(
        d_e_cm1=sec["d_e"] * CM1_PER_HARTREE, alpha=sec["alpha"], r_e=sec["r_e"],
        m1=sec["m1"], m2=sec["m2"], v_max=sec["v_max"], j_max=sec["j_max"],
        dipole_curve=(sec["dipole_mu0"], sec["dipole_mu1"]),
    )
    grid = RadialGrid(r_min=sec["r_min"], r_max=sec["r_max"], n_points=sec["n_points"])
    return build_morse_rovib(params, grid)


def _reject_unknown(section, known, name: str):
    for key in section:
        if key not in known:
            raise ConfigError(f"[{name}] has unknown key {key!r} "
                              f"(known: {', '.join(sorted(known))})")


def load_model_config(path) -> MolecularModel:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return model_from_config(parser)

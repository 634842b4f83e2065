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
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ConvergenceError, ModelError
from .units import CM1_PER_HARTREE, KB_HARTREE_PER_K, cm1_to_au


def _nonzero(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.nonzero(a) of a 2-D array, row-major, from the flat indices of a != 0
    in row strips of 2^14 entries or one row: no a-sized bool copy.  numpy 2.4's
    2-D nonzero took 0.37 and 196 ms at n = 242 and 5,202, this 0.06 and 43 ms."""
    n = a.shape[1]
    step = max(1, 2**14 // max(n, 1))
    flat = [np.flatnonzero(a[i:i + step] != 0) + i * n for i in range(0, len(a), step)]
    return np.divmod(np.concatenate(flat) if flat else np.zeros(0, int), n)


def _coupled_blocks(n: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the n states that the
    nonzero entries at (rows, cols) couple, in order of their smallest index.

    Label propagation: every state takes the smallest label among itself and
    the states it couples to, then the label of its label, until nothing
    moves; each component ends up labelled by its smallest index.
    """
    rows, cols = np.r_[rows, cols], np.r_[cols, rows]   # either triangle couples
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(label[order]) != 0])
    return np.split(order, starts[1:])


def _freeze(a) -> np.ndarray:
    """A read-only float copy of a; the caller's own array stays writeable.
    A read-only float64 C array owning its data is taken as it is."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.base is None
            and a.flags.c_contiguous and not a.flags.writeable):
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
        # every check reads the nonzero entries alone, in row-major order; the
        # symmetry verdict is np.allclose(dipole, dipole.T, atol=1e-12)'s (see
        # quantum.diagonalize_polaritons)
        rows, cols = _nonzero(self.dipole)
        values = self.dipole[rows, cols]
        if not np.all(np.isfinite(self.energies)) or not np.all(np.isfinite(values)):
            raise ModelError("energies and dipoles must be finite")
        if not np.allclose(values, self.dipole[cols, rows], atol=1e-12):
            raise ModelError("dipole matrix must be symmetric")
        if self.is_rovib():
            j = np.array([lab["J"] for lab in self.labels])
            m = np.array([lab["M"] for lab in self.labels])
            bad = np.flatnonzero((np.abs(j[rows] - j[cols]) != 1) | (m[rows] != m[cols]))
            if bad.size:
                li, lj = self.labels[rows[bad[0]]], self.labels[cols[bad[0]]]
                raise ModelError(
                    f"dipole entry between {li} and {lj} violates the "
                    "dJ = +-1, dM = 0 selection rule"
                )

    @cached_property
    def _components(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Each state's mu-component and each component's states, ascending,
        formed on first use.  A mu-component is a connected component of the
        dipole's nonzeros; H, mu^2 and a Z-polarized kick act within one, so
        a run leaves every amplitude outside its start's exactly 0.0."""
        blocks = _coupled_blocks(self.n_states, *_nonzero(self.dipole))
        of = np.empty(self.n_states, int)
        for c, block in enumerate(blocks):
            of[block] = c
        return of, blocks

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
        """sha1 of b"%d;" % n_states, the energies' and the dipole's
        little-endian float64 bytes (hashed in place: no number is formatted)
        and json.dumps(list(labels), sort_keys=True), for run manifests."""
        sha = hashlib.sha1(b"%d;" % self.n_states)
        for a in (self.energies, self.dipole):
            sha.update(np.asarray(a, "<f8"))
        sha.update(json.dumps(list(self.labels), sort_keys=True).encode())
        return sha.hexdigest()


@dataclass(frozen=True)
class MorseParams:
    """Morse curve V(R) = D_e (exp(-2a(R-R_e)) - 2 exp(-a(R-R_e)) + 1).

    d_e_cm1 is the dissociation energy in cm^-1; alpha in bohr^-1; r_e and the
    atomic masses in atomic units.  dipole_curve holds polynomial coefficients
    of mu(R) about R_e, lowest order first; the defaults are placeholders with
    realistic magnitudes.  The curve sets the intensities and, through
    g mu_01 once a cavity couples, the splittings: at g = 400 cm^-1 with the
    self-energy, the R(0) doublet splits by 7.73 cm^-1 at (0.43, 0.10) au and
    by 20.33 cm^-1 at (0.43, 0.30) au.
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
        for name in ("d_e_cm1", "alpha", "r_e", "m1", "m2"):
            if not 0 < getattr(self, name) < math.inf:
                raise ModelError(f"Morse parameter {name} must be positive and finite")
        if not all(map(math.isfinite, self.dipole_curve)):
            raise ModelError("dipole_curve must be finite")
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
        if not -math.inf < self.r_min < self.r_max < math.inf:
            raise ModelError(f"grid needs finite r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if not 0 < self.convergence_tol_cm1 < math.inf:
            raise ModelError("convergence_tol_cm1 must be positive and finite")
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


def _sine_dvr_diagonal(n_points: int, length: float, mass: float) -> np.ndarray:
    """The diagonal of _sine_dvr_kinetic, from its closed form."""
    n_box = n_points + 1
    i = np.arange(1, n_points + 1)
    pref = math.pi**2 / (4.0 * mass * length**2)
    return pref * ((2.0 * n_box**2 + 1.0) / 3.0 - 1.0 / np.sin(math.pi * i / n_box) ** 2)


def _sine_dvr_kinetic(n_points: int, length: float, mass: float) -> np.ndarray:
    """Particle-in-a-box (sine basis) DVR kinetic-energy matrix.

    Grid points are x_i = a + i*(b-a)/N for i = 1..N-1 with N = n_points + 1
    intervals; spectrally convergent for bound states vanishing at the walls.
    Off the diagonal an entry depends on i - j and i + j only, so the matrix
    is a Toeplitz minus a Hankel matrix read from two 1-D tables.
    """
    n_box = n_points + 1
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
    t *= pref
    np.fill_diagonal(t, _sine_dvr_diagonal(n_points, length, mass))
    return t


def _dst1(x: np.ndarray) -> np.ndarray:
    """Type-I sine transform along axis 0: X_k = sum_j x_j sin(pi j k / (n + 1))."""
    zero = np.zeros((1,) + x.shape[1:])
    odd = np.concatenate([zero, x, zero, -x[::-1]])
    return -0.5 * np.fft.rfft(odd, axis=0).imag[1:x.shape[0] + 1]


def _sine_coefficients(u: np.ndarray) -> np.ndarray:
    """Coefficients of the DVR columns u in the box's orthonormal sine basis
    S_ik = sqrt(2 / (n + 1)) sin(pi i k / (n + 1)), lowest mode first."""
    return math.sqrt(2.0 / (u.shape[0] + 1)) * _dst1(u)


def _sine_samples(coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """The sine series with coefficients coeffs (one column each) sampled on
    the n_points-point grid of the same box; a unit column stays a unit
    column, and n_points = coeffs.shape[0] inverts _sine_coefficients."""
    padded = np.zeros((n_points,) + coeffs.shape[1:])
    padded[:coeffs.shape[0]] = coeffs
    return _sine_coefficients(padded)


def _sine_modes(n_points: int, n_modes: int) -> np.ndarray:
    """The box's lowest n_modes sine modes on the n_points-point grid,
    S_ik = sqrt(2 / (n + 1)) sin(pi i k / (n + 1)): _sine_samples of the
    identity's first n_modes columns, from closed form.  sin(pi m / (n + 1))
    has period 2 (n + 1) in m, so entry (i, k) is read from one table of the
    angles m = 0 .. 2n + 1 at m = i k mod 2 (n + 1), with no transform."""
    period = 2 * (n_points + 1)
    table = math.sqrt(2.0 / (n_points + 1)) * np.sin(math.pi * np.arange(period) / (n_points + 1))
    return table[np.outer(np.arange(1, n_points + 1), np.arange(1, n_modes + 1)) % period]


def _box_levels(n_points: int, length: float, mass: float) -> np.ndarray:
    """(k pi / length)^2 / (2 mass), k = 1 .. n_points: the eigenvalues of
    _sine_dvr_kinetic, whose eigenvectors are the box's sine basis."""
    return (math.pi * np.arange(1, n_points + 1) / length) ** 2 / (2.0 * mass)


def _sine_kinetic(levels: np.ndarray):
    """y -> K y for the sine-DVR kinetic matrix K = S diag(levels) S of the
    levels.size-point grid, by two type-I sine transforms; K is never formed.
    For a unit y the product lies within n eps norm / 8 of the tabled
    matrix's (_sine_dvr_kinetic), an eighth of _certify's allowance, with
    norm = || |K| + diag(|v|) ||_F: tested for n = 8 to 800 with v the
    grid's Morse potential, and with v = 0 for n >= 16, the smallest doubled
    grid (at n = 8, v = 0 takes 0.15 of the allowance)."""
    def apply(y: np.ndarray) -> np.ndarray:
        return _sine_samples(levels[:, None] * _sine_coefficients(y), levels.size)

    return apply


def _sine_ritz(coeffs: np.ndarray, v: np.ndarray, levels: np.ndarray,
               trial: np.ndarray | None = None, *, projection: np.ndarray | None = None,
               n_vectors: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ritz pairs (theta, y), y with unit columns, of T + diag(v) on the
    v.size-point grid, on the sine series with coefficients coeffs, whose
    samples on that grid are trial (by default _sine_samples of coeffs).
    Every theta comes back; y only for the lowest n_vectors (all by default).

    T is the sine-DVR kinetic matrix of that grid and levels its eigenvalues
    (_box_levels).  The sine basis diagonalizes T, so the projection of T is
    c^T diag(levels) c from the coefficients c alone (or projection, when
    the caller has it), and T itself is applied only to certify the pairs
    (_certify).  The coarse grid's first anchor takes the identity's
    columns, the box's lowest modes (_sine_modes), whose projection is
    diag(levels) itself; the doubled grid takes the coarse vectors'
    coefficients.
    """
    if trial is None:
        trial = _sine_samples(coeffs, v.size)
    if projection is None:
        projection = (coeffs.T * levels[:coeffs.shape[0]]) @ coeffs
    theta, z = np.linalg.eigh(projection + trial.T @ (v[:, None] * trial))
    y = trial @ z[:, :n_vectors]
    y /= np.linalg.norm(y, axis=0)
    return theta, y


# eigenpairs an anchor J keeps: the Ritz basis of the J above it; J = 0 takes
# its own Ritz pairs on twice as many of the box's sine modes
_ANCHOR_PAIRS = 64


def _effective_potential(params: MorseParams, j: int, r: np.ndarray) -> np.ndarray:
    """Morse potential plus the centrifugal term of one J on the grid r."""
    return params.potential(r) + j * (j + 1) / (2.0 * params.reduced_mass * r**2)


def _with_diagonal(kinetic: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrix kinetic + diag(v)."""
    h = kinetic.copy()
    h[np.diag_indices_from(h)] += v
    return h


def _abs_norm(n_points: int, length: float, mass: float):
    """The map v -> || |K| + diag(|v|) ||_F, an upper bound on ||K + diag(v)||_2,
    for the sine-DVR kinetic matrix K of the n_points-point grid, formed from
    closed forms alone.  K = S diag(levels) S with S orthogonal, so its
    off-diagonal squares sum to sum(levels^2) - sum(K_ii^2), the part no J
    changes; its diagonal is positive."""
    levels = _box_levels(n_points, length, mass)
    t = _sine_dvr_diagonal(n_points, length, mass)
    off = levels @ levels - t @ t

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


def _fd_hop(n_points: int, length: float, mass: float) -> float:
    """1 / (2 mass step^2), the 3-point finite-difference coupling of the DVR grid."""
    return (n_points + 1) ** 2 / (2.0 * mass * (length * length))


def _sturm_count(diag: np.ndarray, off: float, shift: float) -> int:
    """The eigenvalues below shift of the tridiagonal matrix with diagonal diag
    and off-diagonal entries off != 0, counted as the negative pivots of its
    LDL^T less shift (Sylvester).  The rounded count is exact for that matrix
    with each off-diagonal entry moved by at most 2.5 u (u = eps / 2; Kahan
    1966).  A zero pivot counts as positive, raised by less than any
    rounding, so the next is -inf."""
    off2 = off * off
    count, d = 0, math.inf
    for x in (diag - shift).tolist():
        d = x - off2 / d if d else -math.inf
        if d < 0.0:
            count += 1
    return count


def _fd_floor(v: np.ndarray, hop: float, norm: float, rho: float, k: int) -> float:
    """rho less an allowance when one Sturm count proves it a floor on
    lambda_k(h) (k 0-based), else -inf; h = kinetic + diag(v) on hop's grid
    (_fd_hop), norm = || |kinetic| + diag(|v|) ||_F (_abs_norm) and u = eps / 2.

    T_FD = tridiag(-hop, 2 hop, -hop) shares the eigenvectors of the exact
    sine-DVR matrix K, and its eigenvalues 4 hop sin^2(pi m / 2(n + 1)) are
    at most K's, hop (pi m / (n + 1))^2.  So if at most k eigenvalues of
    T_FD + diag(v) <= K + diag(v) lie below rho, lambda_k(K + diag(v)) >= rho.
    The allowance covers E = kinetic - K: its entries are tabled 1/sin^2
    values a few roundings off, save that a Hankel sine's argument near pi
    scales its rounding by up to n by the last corner, so ||E||_F ~ sqrt(n)
    u ||K||_F, below n eps norm / 8 against K in extended precision for
    n = 8 to 800 (tested for n <= 64); the doubled grid applies K by sine
    transforms (_sine_kinetic) but certifies the tabled matrix, which its
    eigvalsh fallback forms.  It also covers hop's 3 roundings
    (12 u hop on T_FD), the shift's u (|rho| + 2 hop), the count's 2.5 u per
    off-diagonal (5 u hop) and the subtraction's u |rho|: eps (|rho| + 10 hop).
    """
    if not math.isfinite(rho) or _sturm_count(v, hop, rho - 2.0 * hop) > k:
        return -math.inf
    return rho - np.finfo(float).eps * (v.size * norm + abs(rho) + 10.0 * hop)


def _certify(kinetic, hop: float, v: np.ndarray, norm: float,
             theta: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray | None:
    """Radii r such that theta_i +- r_i hold exactly the lowest k = len(theta)
    eigenvalues of h = T + diag(v), one each in order, below the wall
    min(v[0], v[-1]); None when that is not proven.

    T is the tabled sine-DVR kinetic matrix (_sine_dvr_kinetic), kinetic
    maps y to T y, y holds unit columns and norm is || |T| + diag(|v|) ||_F
    (_abs_norm).  Applied as kinetic(y) + v y - theta y, the residual of a
    unit column rounds by at most (n + 4) u norm when kinetic is the dense
    product T @ y (u = eps / 2, |theta| <= ||h||_2); two sine transforms
    (_sine_kinetic) land within n eps norm / 8 of T y, so (n / 4 + 4) u norm
    covers them, as n >= 8.  So r = residual + n eps norm bounds the exact
    residual and theta_i +- r_i holds an eigenvalue of h.  Disjoint
    intervals hold k distinct ones; below a proven floor on lambda_k(h) they
    are lambda_0 .. lambda_{k-1}.  The floor is a Sturm count at rho on h's
    finite-difference minorant, the tridiagonal matrix with the sine-DVR
    eigenvectors and smaller eigenvalues, less its rounding allowance
    (_fd_floor).
    """
    radii = (np.linalg.norm(kinetic(y) + v[:, None] * y - y * theta, axis=0)
             + v.size * np.finfo(float).eps * norm)
    top = theta[-1] + radii[-1]
    if (np.any(theta[1:] - radii[1:] <= (theta + radii)[:-1]) or top >= min(v[0], v[-1])
            or top >= _fd_floor(v, hop, norm, rho, theta.size)):
        return None
    return radii


def _radial_chain(params: MorseParams, grid: RadialGrid, kinetic: np.ndarray):
    """Yields (evals, evecs, next_level) for J = 0 .. j_max in turn: the
    lowest v_max + 1 eigenpairs of each J's radial Hamiltonian, bound by the
    walls and signed, and the next eigenvalue (inf when there is none).

    Each J takes its lowest v_max + 2 Ritz pairs and keeps them when _certify
    proves them, against the dense kinetic matrix, to eigh's own accuracy;
    otherwise a full eigh decides that J.  J = 0 takes them on the box's
    lowest 2 _ANCHOR_PAIRS sine modes, which diagonalize the kinetic matrix
    (_sine_ritz), sampled on the grid from closed form (_sine_modes).  An
    anchor J, J = 0 or one that eigh decides, keeps its lowest
    _ANCHOR_PAIRS pairs (lam, U) and G = U^T D U, and a later J takes
    its Ritz pairs on U from the eigh of diag(lam) + [J(J+1) - J0(J0+1)] G.
    Nothing of an anchor outlives the chain.
    """
    r = grid.points()
    length, mass = grid.r_max - grid.r_min, params.reduced_mass
    n_keep = params.v_max + 1
    n_pairs = min(max(_ANCHOR_PAIRS, n_keep + 1), r.size)
    n_modes = min(2 * n_pairs, r.size)
    d = 1.0 / (2.0 * mass * r**2)
    abs_norm = _abs_norm(r.size, length, mass)
    hop = _fd_hop(r.size, length, mass)
    levels = _box_levels(r.size, length, mass)
    basis = None
    for j in range(params.j_max + 1):
        v = _effective_potential(params, j, r)
        norm = abs_norm(v)
        anchor, theta, radii = basis is None, None, None
        if basis is not None:
            c0, lam, u, g = basis
            small = (j * (j + 1) - c0) * g
            small[np.diag_indices_from(small)] += lam
            theta, z = np.linalg.eigh(small)
            y = u @ z[:, :n_keep + 1]
            y /= np.linalg.norm(y, axis=0)
        elif j == 0 and n_modes > n_keep + 1:      # rho reads theta[n_keep + 1]
            theta, y = _sine_ritz(np.eye(n_modes), v, levels, _sine_modes(r.size, n_modes),
                                  projection=np.diag(levels[:n_modes]), n_vectors=n_pairs)
        if theta is not None:
            radii = _certify(kinetic.__matmul__, hop, v, norm, theta[:n_keep + 1],
                             y[:, :n_keep + 1], 0.5 * (theta[n_keep] + theta[n_keep + 1]))
        if radii is None or np.any(radii > 2.0 * r.size * np.finfo(float).eps * norm):
            theta, y = np.linalg.eigh(_with_diagonal(kinetic, v))
            anchor = True
        if anchor:
            # copies, so no J keeps the full eigenvector matrix alive
            theta, y = theta[:n_pairs].copy(), y[:, :n_pairs].copy()
            if n_keep + 1 < n_pairs:        # a later J's rho reads theta[n_keep + 1]
                basis = (j * (j + 1), theta, y, y.T @ (d[:, None] * y))
        evals, evecs = theta[:n_keep], y[:, :n_keep].copy()
        _check_bound(evals, v, grid, j)
        # deterministic sign: positive lobe at the outermost maximum
        peak = np.argmax(np.abs(evecs), axis=0)
        evecs *= np.where(evecs[peak, np.arange(n_keep)] < 0, -1.0, 1.0)
        yield evals, evecs, theta[n_keep] if n_keep < theta.size else math.inf


def _check_doubling(v: np.ndarray, evals: np.ndarray, grid: RadialGrid, mass: float, j: int):
    """Full-spectrum grid-doubling check: the lowest levels of the doubled
    grid's T + diag(v), its dense kinetic matrix formed here alone, must be
    bound and lie within grid.convergence_tol_cm1 of evals."""
    kinetic = _sine_dvr_kinetic(v.size, grid.r_max - grid.r_min, mass)
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

    Both grids take their levels from one certificate (_certify): Ritz pairs
    (theta_i, y_i) of h_J = T + diag(v_J) hold exactly its lowest k levels
    when the intervals theta_i +- r_i, r_i = |h_J y_i - theta_i y_i| +
    n eps || |h_J| ||_F, are disjoint, lie below the wall, and lie below a
    floor on lambda_k proven by one Sturm count on the finite-difference
    minorant T_FD + diag(v_J) <= h_J (_fd_floor).  The coarse grid keeps
    the lowest v_max + 2 Ritz pairs of each J when every r_i is within
    2 n eps || |h_J| ||_F, eigh's own accuracy; otherwise a full eigh
    decides that J (_radial_chain).  J = 0 takes them on the box's lowest
    128 sine modes, sampled from closed form, and a later J on the lowest 64
    pairs of the last anchor.  The doubled grid takes the Ritz pairs of the
    coarse vectors' sine series (_sine_ritz: the kinetic part projected in
    the sine basis that diagonalizes it) with T applied by two sine
    transforms for the residual (_sine_kinetic).  It checks every J in one
    batch: one sine series of all the coarse vectors, sampled once on the
    doubled grid, a small Ritz step per J, and one kinetic product over
    every Ritz vector; then one certificate per J, each with its own Sturm
    count.  A J passes when max_i |evals_i - theta_i| + r_i is within
    grid.convergence_tol_cm1; otherwise eigvalsh decides that J alone, and
    only it forms the doubled grid's T (_check_doubling).  The default
    model, and J <= 30 too, takes no eigh larger than 128 x 128 and no
    factorization; the model comes from the coarse grid alone.
    """
    grid = grid or RadialGrid()
    if params.j_max < 1:
        raise ModelError("j_max must be at least 1 for a dipole-active model")

    # the kinetic matrix does not depend on J: one build for the coarse grid
    length, mass = grid.r_max - grid.r_min, params.reduced_mass
    radial = list(_radial_chain(params, grid, _sine_dvr_kinetic(grid.n_points, length, mass)))
    if check_convergence:
        # every J's coarse vectors at once: one sine series, sampled once on
        # the doubled grid, and one kinetic product over every Ritz vector
        r_fine = grid.points(2 * grid.n_points)
        levels = _box_levels(r_fine.size, length, mass)
        abs_norm = _abs_norm(r_fine.size, length, mass)
        hop = _fd_hop(r_fine.size, length, mass)
        coeffs = _sine_coefficients(np.hstack([evecs for _, evecs, _ in radial]))
        trial = _sine_samples(coeffs, r_fine.size)
        k = params.v_max + 1
        cols = [slice(j * k, (j + 1) * k) for j in range(len(radial))]
        pots = [_effective_potential(params, j, r_fine) for j in range(len(radial))]
        ritz = [_sine_ritz(coeffs[:, c], v, levels, trial[:, c]) for c, v in zip(cols, pots)]
        ky = _sine_kinetic(levels)(np.hstack([y for _, y in ritz]))
        for j, ((evals, _, next_level), v, (theta, y), c) in enumerate(zip(radial, pots, ritz, cols)):
            radii = _certify(lambda _, c=c: ky[:, c], hop, v, abs_norm(v), theta, y,
                             0.5 * (evals[-1] + next_level))
            if (radii is None or np.max(np.abs(evals - theta) + radii) * CM1_PER_HARTREE
                    > grid.convergence_tol_cm1):
                _check_doubling(v, evals, grid, mass, j)
    return _rovib_model(params, grid, [(evals, evecs) for evals, evecs, _ in radial])


def _rovib_model(params: MorseParams, grid: RadialGrid,
                 radial: Sequence[tuple[np.ndarray, np.ndarray]]) -> MolecularModel:
    """The |v, J, M> model from the radial levels and eigenvectors of each J."""
    levels = [evals for evals, _ in radial]
    vectors = [evecs for _, evecs in radial]
    mu_r = params.dipole_function(grid.points())

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
    for j, jp in zip(range(params.j_max), range(1, params.j_max + 1)):
        ms = range(-j, j + 1)
        up = np.array([z_direction_cosine(j, jp, m) for m in ms])
        down = np.array([z_direction_cosine(jp, j, m) for m in ms])
        for v in range(params.v_max + 1):
            for vp in range(params.v_max + 1):
                # <v' J+1| mu(R) |v J> and its transpose by DVR quadrature, once for
                # all M; an entry and its transpose hold the bits of 0.5 (d + d^T)
                up_radial = float(vectors[jp][:, vp] @ (mu_r * vectors[j][:, v]))
                down_radial = float(vectors[j][:, v] @ (mu_r * vectors[jp][:, vp]))
                k = [index[(v, j, m)] for m in ms]
                kp = [index[(vp, jp, m)] for m in ms]
                dipole[kp, k] = dipole[k, kp] = 0.5 * (up_radial * up + down_radial * down)
    dipole.flags.writeable = False      # handed over to the model, not copied

    labels = tuple({"v": v, "J": j, "M": m} for (v, j, m) in states)
    return MolecularModel(energies=energies, dipole=dipole, labels=labels)


def mu_squared_matrix(model: MolecularModel) -> np.ndarray:
    """Matrix of mu^2 via resolution of identity over the model basis.

    Equivalent to the matrix square of the dipole matrix; exact only to the
    extent the retained basis saturates the sum over intermediate states.
    """
    return _symmetric_square(model.dipole)


def _symmetric_square(mu: np.ndarray) -> np.ndarray:
    """0.5 (m + m^T) of m = mu @ mu in m's own array, 64 rows and the matching
    columns at a time: the bits of 0.5 * (m + m.T) with no second n x n array."""
    m = mu @ mu
    for i in range(0, len(m), 64):
        strip = 0.5 * (m[i:i + 64, i:] + m[i:, i:i + 64].T)
        m[i:i + 64, i:] = strip
        m[i:, i:i + 64] = strip.T
    return m


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


def read_config(path) -> dict:
    """{section: {key: text}} of a UTF-8 config file, every value read (so
    interpolated) here; any failure to read or parse it raises ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        return {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as err:
        key = (f"[{err.section}] {err.option}: "
               if isinstance(err, configparser.InterpolationError) else "")
        raise ConfigError(f"cannot read {path}: {key}{' '.join(str(err).split())}") from None


def read_section(sections, name: str, schema: dict) -> dict:
    """Parse section name of a config by its schema {key: (parser, default)}.

    sections is a {section: {key: text}} mapping: read_config's, or a run
    manifest's.  Unknown keys and malformed values raise ConfigError; an
    absent section or key takes the default text, and a None default gives
    None.  A None parser keeps the text.
    """
    given = sections[name] if name in sections else {}
    for key in given:
        if key not in schema:
            raise ConfigError(f"[{name}] has unknown key {key!r} "
                              f"(known: {', '.join(sorted(schema))})")
    return {key: text if text is None or parse is None else parse(text, key)
            for key, (parse, default) in schema.items()
            for text in [given.get(key, default)]}


def model_from_config(sections) -> MolecularModel:
    """Build a model from the [three_level] or [morse] section of a config's
    {section: {key: text}} mapping (see read_section)."""
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


def load_model_config(path) -> MolecularModel:
    return model_from_config(read_config(path))

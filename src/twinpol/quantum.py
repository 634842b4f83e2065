"""Quantized cavity mode: product-basis Hamiltonian, static polariton spectra,
and time-dependent kick propagation with photonic observables.

States live in the |molecular eigenstate k> x |Fock N> product basis.  The
static route diagonalizes H and forms its sticks |<f|mu|i>|^2 in
_stick_lines, the one stick engine (manymol.spectrum_from_state wraps it
too); the time-dependent route works in the eigenbasis of H: the shared RK4
engine steps the eigenbasis coefficients b(t) (phases e^{-i L t}) while the
kick lasts, b is constant after it, each record maps back to the product
basis, and <mu(t)> is Fourier-transformed.  The product-basis RK4 under the
dense H (method = "rk4") is the oracle.

Product-space operators act through their two tensor factors on the
(N_max + 1, n_mol) grid of a state's photon slabs psi_N (a restricted basis
scatters its rows into it): 1 x mu is one product of the molecular dipole
with the grid, and <q>, <q^2> contract the photon ladders with the slabs'
Gram matrix Re <psi_N|psi_N'>.  H is gathered at any entries
(product_hamiltonian) from its factors: the energies as a vector, mu, and the
self-energy scaled once where they are made.  The solver forms H block by
block, and only the RK4 oracle and assemble_hamiltonian form it dense.

H conserves more than energy: the Z-polarized field conserves M, and the
dipole flips the parity of J (of the 3-level upper state, or of the number
of molecules in it) together with that of N.  The solver finds these
sectors itself, as the connected components of H's nonzero pattern read
off the factors.  H is exactly 0.0 between them, so each spans an exact
invariant subspace, with no tolerance or labels: every eigenvector is
exactly zero outside its component, amplitudes between components mu does
not couple are exactly 0.0, and a block a state never reaches keeps its
amplitudes exactly 0.0.  PolaritonSolution keeps only the blocks, read
through its block-wise to_eigenbasis (V^T x) and from_eigenbasis (V c),
which skip a block whose part of the input is 0.0; no route forms the dense
eigenvector matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cavity import CavityParams, KickPulse, Trajectory
from .errors import BasisSizeError, ConvergenceError, ModelError
from .integrators import check_step, propagate, record_grid
from .model import MolecularModel, ThermalWeights, mu_squared_matrix
from .spectra import Spectrum, make_stick_spectrum


@dataclass(frozen=True)
class ProductBasis:
    """Ordered list of (molecular index k, photon number N) entries.

    The full basis is N-major ((k=0..n-1, N=0), (k=0..n-1, N=1), ...);
    restricted bases (any unique subset) are allowed, which is how block
    Hamiltonians over a chosen manifold are assembled.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.entries or not all(isinstance(e, tuple) and len(e) == 2 and all(
                isinstance(i, (int, np.integer)) and i >= 0 for i in e) for e in self.entries):
            raise ModelError("a basis needs entries, each with k >= 0 and N >= 0, as (k, N) int pairs")
        if len(set(self.entries)) != len(self.entries):
            raise ModelError("basis entries must be unique")

    @classmethod
    def full(cls, model: MolecularModel, n_fock_max: int) -> "ProductBasis":
        return cls(tuple((k, n) for n in range(n_fock_max + 1)
                         for k in range(model.n_states)))

    @property
    def size(self) -> int:
        return len(self.entries)

    def index(self, k: int, n: int) -> int:
        try:
            return self.entries.index((k, n))
        except ValueError:
            raise ModelError(f"entry {(k, n)} not in the basis") from None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ks = np.array([k for k, _ in self.entries])
        ns = np.array([n for _, n in self.entries])
        return ks, ns

    @property
    def n_fock_max(self) -> int:
        return max(n for _, n in self.entries)

    @cached_property
    def _grid(self) -> tuple[tuple[int, int], np.ndarray | None]:
        """(N_max + 1, max k + 1), the shape of the photon-major grid the
        basis lives on, and the flat grid index of each entry: None when the
        basis is that whole grid in order."""
        ks, ns = self.arrays()
        shape = (self.n_fock_max + 1, int(ks.max()) + 1)
        rows = ns * shape[1] + ks
        if rows.size == shape[0] * shape[1] and np.array_equal(rows, np.arange(rows.size)):
            rows = None
        return shape, rows

    def to_grid(self, psi: np.ndarray) -> np.ndarray:
        """psi, one row per entry, as photon slabs: (N_max + 1, max k + 1)
        plus psi's trailing axes.  A view on the full basis; a restricted
        basis scatters its rows into zeros."""
        shape, rows = self._grid
        if rows is None:
            return psi.reshape(shape + psi.shape[1:])
        grid = np.zeros((shape[0] * shape[1],) + psi.shape[1:], psi.dtype)
        grid[rows] = psi
        return grid.reshape(shape + psi.shape[1:])

    def from_grid(self, grid: np.ndarray) -> np.ndarray:
        """The basis rows of photon slabs, the inverse of to_grid."""
        flat = grid.reshape((-1,) + grid.shape[2:])
        rows = self._grid[1]
        return flat if rows is None else flat[rows]

    def label(self, i: int, model: MolecularModel) -> str:
        k, n = self.entries[i]
        return f"{model.label_str(k)};N{n}"


def photon_ladder(n_fock_max: int) -> np.ndarray:
    """a + a^dag on the Fock states 0..n_fock_max."""
    op = np.zeros((n_fock_max + 1, n_fock_max + 1))
    n = np.arange(n_fock_max)
    op[n, n + 1] = op[n + 1, n] = np.sqrt(n + 1.0)
    return op


def photon_ladder_squared(n_fock_max: int) -> np.ndarray:
    """(a + a^dag)^2 = a^dag a^dag + a a + 2 a^dag a + 1 with exact matrix
    elements, not the square of the truncated ladder."""
    op = np.diag(2.0 * np.arange(n_fock_max + 1) + 1.0)
    n = np.arange(n_fock_max - 1)
    op[n, n + 2] = op[n + 2, n] = np.sqrt((n + 1.0) * (n + 2.0))
    return op


MEMORY_BUDGET = 4 * 2**30


def _check_memory(dim: int, include_dse: bool, records: int = 0):
    """Refuse, before anything is allocated, a run whose dense matrices on a
    dim-state product basis, and the populations of its records on a
    time-dependent run, would not fit in MEMORY_BUDGET bytes.

    Every quantum route holds the solver's factors (beside mu, the
    self-energy's molecular-size mu^2, one while it is formed), its block
    eigenvectors, at most dim x largest block, and, while one block's eigh
    runs, the block's H, its copy and LAPACK syevd's workspace of
    1 + 6 b + 2 b^2 doubles.  Only propagate_quantum's method = "rk4",
    assemble_hamiltonian and build_many_molecule_hamiltonian hold a dense H;
    its gather peaks below four dim^2 arrays.  No route forms the dense
    eigenvectors or a product-space mu.  The stick engine (_stick_lines)
    holds about three dim x L arrays for its L <= dim pieces (the K unit
    columns on the static route; those of one column in
    spectrum_from_state), then 5 doubles per stick, 13 in the merge.  So
    (6 + dse) dim^2 + 6 dim + 1 doubles is an upper bound, not an estimate,
    for fewer than dim^2 / 3 sticks (thermal N = 12: 0.3 M on 2352 states).
    The 4 GiB budget admits thermal N = 12 (about 0.3 GB) and symmetric
    N = 50 (3978 states, about 0.9 GB) on the occupation bases, keeps the
    product basis as the oracle up to N = 7 (6561 states, 2.4 GB), and
    refuses it at N = 8 (19,683 states, 19 GB).  One molecule passes up to
    about 8,750 product states with the self-energy; HCl at j_max = 50
    (15,606 states, 13.6 GB) is refused.  A trajectory adds records x dim doubles.
    """
    need = 8 * ((6 + include_dse) * dim**2 + (6 + records) * dim + 1)
    if need > MEMORY_BUDGET:
        held = "dense matrices" + (f" and {records} population records" if records else "")
        raise BasisSizeError(
            f"{dim}-state product basis needs about {need / 2**30:.3g} GiB of "
            f"{held}, over the {MEMORY_BUDGET / 2**30:g} GiB budget")


def product_hamiltonian(energies: np.ndarray, mu: np.ndarray | None, within: np.ndarray | None,
                        omega_c: float, g: float, ks: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """H = 1 x diag(E) + w_c N x 1 + g (a + a^dag) x mu + 1 x W at the entries
    |ks[i], ns[i]>, gathered from the factors: the energies E as a vector, and
    the within-slab W, the self-energy (g^2/w_c) mu^2 as its maker scaled it.

    mu = None leaves out the coupling, within = None the self-energy.  Each
    element adds its terms in the Kronecker sum's order (E_k + N w_c, then W;
    g sqrt(N + 1) mu between N and N + 1), so bit for bit.
    """
    ix, same = np.ix_(ks, ks), ns[:, None] == ns
    h = np.zeros(same.shape)
    h[np.diag_indices_from(h)] = energies[ks] + ns * omega_c
    if within is not None:
        np.add(h, within[ix], out=h, where=same)
    if mu is not None:
        ladder = photon_ladder(int(ns.max()))[ns[:, None], ns]   # nonzero at |N - M| = 1
        adjacent = ladder != 0.0
        ladder *= g
        ladder *= mu[ix]
        np.copyto(h, ladder, where=adjacent)
    return h


def _model_factors(model: MolecularModel, cav: CavityParams, basis: ProductBasis) -> tuple:
    """product_hamiltonian's arguments for the basis, after the range and size checks."""
    n_ph, dim = basis._grid[0]
    if dim > model.n_states:
        raise ModelError("basis references molecular states outside the model")
    _check_memory(n_ph * dim, cav.include_dse)
    within = mu_squared_matrix(model)[:dim, :dim] if cav.include_dse else None
    if within is not None:
        within *= cav.g**2 / cav.omega_c      # in place, in mu_squared_matrix's own array
    return (model.energies[:dim], model.dipole[:dim, :dim], within,
            cav.omega_c, cav.g) + basis.arrays()


def assemble_hamiltonian(model: MolecularModel, cav: CavityParams,
                         basis: ProductBasis) -> np.ndarray:
    """The dense H of product_hamiltonian on the basis; the self-energy
    only when cav.include_dse."""
    return product_hamiltonian(*_model_factors(model, cav, basis))


def solve_polaritons(model: MolecularModel, cav: CavityParams,
                     basis: ProductBasis) -> PolaritonSolution:
    """The eigensystem of assemble_hamiltonian's H, solved block by block
    from its tensor factors: no dense product-space H is formed."""
    return _solve_factors(*_model_factors(model, cav, basis))


def apply_dipole(dipole: np.ndarray, basis: ProductBasis, psi: np.ndarray) -> np.ndarray:
    """(1 x mu) psi for psi real or complex, one row per basis entry: one
    product of the molecular dipole with the photon slabs."""
    mu_x = _dipole_slabs(dipole, basis.to_grid(psi))[1]
    return basis.from_grid(np.moveaxis(mu_x, 0, 1))


def _dipole_slabs(dipole: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, (1 x mu) x) for the grid x with its molecular axis first: each
    (dim_mol, N_max + 1[, T]) and contiguous."""
    x = np.ascontiguousarray(np.moveaxis(grid, 1, 0))
    dim = x.shape[0]
    return x, real_matmul(dipole[:dim, :dim], x)


def _re_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re sum conj(x) y over the first two axes of contiguous complex x and y
    of one shape: a 0-d array, or one value per trailing column."""
    n = x.shape[0] * x.shape[1]
    sums = np.einsum("ij,ij->j", x.view(np.float64).reshape(n, -1),
                     y.view(np.float64).reshape(n, -1))
    return (sums[0::2] + sums[1::2]).reshape(x.shape[2:])


@lru_cache
def _photon_factors(n_fock_max: int) -> np.ndarray:
    """a + a^dag and (a + a^dag)^2, the photon factors of q and q^2 up to
    their 1 / sqrt(2 w_c) and 1 / (2 w_c), stacked; read-only, as it is shared."""
    factors = np.stack([photon_ladder(n_fock_max), photon_ladder_squared(n_fock_max)])
    factors.flags.writeable = False
    return factors


def _photon_moments(cav: CavityParams, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(<q>, <q^2>) of complex photon slabs: the photon factors of q and q^2
    contracted with the slabs' Gram matrix Re <psi_N|psi_N'>."""
    x = np.ascontiguousarray(grid)
    parts = x.view(np.float64).reshape(x.shape[0], x.shape[1], -1)
    gram = np.einsum("nkj,mkj->nmj", parts, parts)
    gram = (gram[..., 0::2] + gram[..., 1::2]).reshape(gram.shape[:2] + x.shape[2:])
    # einsum, not a BLAS product: a column's sum must not depend on the column
    # count; einsum sums a lone column in another order, so it is summed as two
    lone = gram.shape[2:] == (1,)
    q, q2 = np.einsum("fnm,nm...->f...", _photon_factors(x.shape[0] - 1),
                      np.repeat(gram, 2, axis=-1) if lone else gram)[..., :1 if lone else None]
    return q / math.sqrt(2.0 * cav.omega_c), q2 / (2.0 * cav.omega_c)


def factored_expectations(model: MolecularModel, cav: CavityParams, basis: ProductBasis,
                          psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<1 x mu>, <q>, <q^2>) of complex psi, one row per basis entry:
    numbers for a state vector, one per column for a matrix of states."""
    grid = basis.to_grid(psi)
    return (_re_inner(*_dipole_slabs(model.dipole, grid)),) + _photon_moments(cav, grid)


@dataclass(frozen=True)
class PolaritonSolution:
    """Eigenvalues (ascending) and eigenvectors of the polariton H, by block.

    blocks holds (rows, columns, vectors) per block: the block's basis rows,
    the columns its eigenvectors take, and those eigenvectors restricted to
    its rows.  A dense eigh is one block, ((arange(n), arange(n), V),).
    """

    eigenvalues: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V^T x, one product per block, for real or complex x (rows: basis
        entries); a block whose part of x is exactly 0.0 costs no product."""
        out = np.zeros(x.shape, np.result_type(x, self.blocks[0][2]))
        for rows, cols, v in self.blocks:
            part = x[rows]
            if part.any():
                out[cols] = real_matmul(v.T, part)
        return out

    def from_eigenbasis(self, c: np.ndarray) -> np.ndarray:
        """V c, one product per block, for real or complex c (rows:
        eigenstates); a block whose part of c is exactly 0.0 costs no product."""
        out = np.zeros(c.shape, np.result_type(c, self.blocks[0][2]))
        for rows, cols, v in self.blocks:
            part = c[cols]
            if part.any():
                out[rows] = real_matmul(v, part)
        return out

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Eigenvector columns, V times the identity, as a read-only matrix."""
        evecs = self.from_eigenbasis(np.eye(self.size))
        evecs.flags.writeable = False
        return evecs

    def block_sizes(self) -> dict:
        """{"n_blocks", "max_block_dim"}: the number of blocks and the largest."""
        sizes = [rows.size for rows, _, _ in self.blocks]
        return {"n_blocks": len(sizes), "max_block_dim": max(sizes)}


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


def diagonalize_polaritons(h: np.ndarray) -> PolaritonSolution:
    """Eigenpairs of a non-empty, square, symmetric, finite H, solved as one
    photon slab: zero energies, H as the within-slab operator, every N = 0.
    Both are checked on H's nonzero entries alone: where h_ij is 0.0,
    allclose's |h_ji| <= atol + rtol |h_ji| follows from |h_ji| <= atol,
    checked at (j, i), so the symmetry verdict is np.allclose(h, h.T,
    atol=1e-12)'s, NaN included; allclose takes inf == inf, so infinite
    entries are refused after it."""
    if np.ndim(h) != 2 or not 0 < len(h) == np.shape(h)[1]:
        raise ModelError(f"Hamiltonian must be a non-empty square matrix, got shape {np.shape(h)}")
    rows, cols = np.nonzero(h)
    values = h[rows, cols]
    if not np.allclose(values, h[cols, rows], atol=1e-12):
        raise ModelError("Hamiltonian must be symmetric")
    if not np.isfinite(values).all():
        raise ModelError("Hamiltonian entries must be finite")
    ks = np.arange(len(h))
    return _solve_factors(np.zeros(ks.size), None, h, 1.0, 0.0, ks, np.zeros_like(ks))


def _solve_factors(energies, mu, within, omega_c, g, ks, ns) -> PolaritonSolution:
    """Eigenpairs of product_hamiltonian's H at the entries |ks[i], ns[i]>,
    one eigh per block of the entries it couples: edges within N from the
    nonzeros of the within-slab operator (of the diagonal without one),
    between N and N + 1 from mu's nonzeros where g mu is not 0.0, so no
    dense g mu is formed.
    H is exactly zero between blocks, so no eigenvector leaves its block or
    mixes conserved quantum numbers (M, parity), as one eigh over a
    degenerate pair of blocks would.  Eigenvalues ascend (a stable sort
    over the blocks in order of their smallest index)."""
    pos = np.full((int(ns.max()) + 1, energies.size), -1)   # entry index at (N, k)
    pos[ns, ks] = np.arange(ks.size)
    k, l = np.nonzero(within) if within is not None else np.diag_indices(energies.size)
    pairs = [(pos[:, k], pos[:, l])]
    if mu is not None:
        k, l = np.nonzero(mu)
        coupled = g * mu[k, l] != 0.0
        pairs.append((pos[1:, k[coupled]], pos[:-1, l[coupled]]))
    rows, cols = (np.concatenate([p.ravel() for p in side]) for side in zip(*pairs))
    live = (rows >= 0) & (cols >= 0)
    parts = []
    for idx in _coupled_blocks(ks.size, rows[live], cols[live]):
        h = product_hamiltonian(energies, mu, within, omega_c, g, ks[idx], ns[idx])
        try:
            parts.append((idx, *np.linalg.eigh(h)))
        except np.linalg.LinAlgError as err:
            # cond of a non-finite block would fail in its own SVD
            cond = (f"condition ~ {np.linalg.cond(h):.3e}" if np.isfinite(h).all()
                    else "the block has non-finite entries")
            raise ConvergenceError(f"eigensolver failed on a {idx.size}-state block: "
                                   f"{err}; {cond}") from err
    blocks, values, vecs = zip(*parts)
    evals = np.concatenate(values)
    order = np.argsort(evals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    columns = np.split(column, np.cumsum([w.size for w in values])[:-1])
    return PolaritonSolution(eigenvalues=evals[order], blocks=tuple(zip(blocks, columns, vecs)))


def _unit_columns(size: int, rows) -> np.ndarray:
    """The columns of the size x size identity at rows."""
    return (np.arange(size)[:, None] == np.asarray(rows, dtype=int)).astype(float)


def _dominant_eigenstates(sol: PolaritonSolution, basis: ProductBasis,
                          entries: list[tuple[int, int]], min_overlap: float = 0.5) -> list[int]:
    """dominant_eigenstate of each entry, in one pass over the blocks."""
    unit = _unit_columns(sol.size, [basis.index(*entry) for entry in entries])
    overlaps = np.abs(sol.to_eigenbasis(unit)) ** 2     # row entry of V, per column
    best = np.argmax(overlaps, axis=0)
    for entry, i, column in zip(entries, best, overlaps.T):
        if column[i] <= min_overlap:
            raise ModelError(f"no eigenstate has > {min_overlap} overlap with basis entry "
                             f"{entry} (best {column[i]:.3f}); states too strongly mixed")
    return [int(i) for i in best]


def dominant_eigenstate(sol: PolaritonSolution, basis: ProductBasis,
                        entry: tuple[int, int], min_overlap: float = 0.5) -> int:
    """Eigenstate with dominant squared overlap on one basis entry."""
    return _dominant_eigenstates(sol, basis, [entry], min_overlap)[0]


def thermal_initial_states(sol: PolaritonSolution, basis: ProductBasis,
                           weights: ThermalWeights,
                           weight_cutoff: float = 0.0) -> list[tuple[int, float]]:
    """(eigenstate, weight) pairs for a thermal ensemble in the vacuum.

    Each thermally populated molecular state |k> maps to the eigenstate with
    dominant overlap on |k, N=0>; weights are renormalized after the cutoff.
    """
    kept = [(k, float(weights.weights[k])) for k in weights.subset
            if float(weights.weights[k]) > weight_cutoff]
    states = _dominant_eigenstates(sol, basis, [(k, 0) for k, _ in kept])
    total = sum(w for _, w in kept)
    return [(i, w / total) for i, (_, w) in zip(states, kept)]


def _stick_lines(sol: PolaritonSolution, dipole: np.ndarray, basis: ProductBasis,
                 coeffs: np.ndarray, weights, tol: float) -> tuple:
    """(omega, intensity, column, final) per stick of the weighted initial
    vectors whose eigenbasis coefficients are coeffs's columns (handed over).

    A column c splits over manifolds I, eigenvalues chained by gaps <= tol.
    A piece P_I c holding over 1e-14 of |c|^2 sits at E_I = sum_I c^2 lambda
    / sum_I c^2 (a unit column at its eigenvalue exactly); all pass at once
    through from_eigenbasis, apply_dipole and to_eigenbasis.
    Final eigenstate f gives a stick at lambda_f - E_I > tol of intensity
    w |<f|mu|P_I c>|^2 != 0, in (column, manifold, final) order.
    """
    evals = sol.eigenvalues
    opens = np.r_[True, np.diff(evals) > tol]
    starts, manifold = np.flatnonzero(opens), np.cumsum(opens) - 1
    piece = np.add.reduceat(coeffs * coeffs, starts)    # (manifold, column)
    col, man = np.nonzero((piece > 1e-14 * piece.sum(axis=0)).T)
    piece = piece[man, col]
    x = np.where(manifold[:, None] == man, coeffs[:, col], 0.0)   # P_I c, one per piece
    del coeffs
    e_init = np.einsum("il,il,i->l", x, x, evals) / piece
    x = sol.from_eigenbasis(x)
    x = apply_dipole(dipole, basis, x)
    inten = sol.to_eigenbasis(x).T ** 2                 # row j: piece j's amplitudes
    del x
    inten *= np.asarray(weights, float)[col, None]
    row, final = np.nonzero((evals - e_init[:, None] > tol) & (inten != 0.0))
    return evals[final] - e_init[row], inten[row, final], col[row], final


def static_stick_spectrum(sol: PolaritonSolution, model: MolecularModel,
                          basis: ProductBasis,
                          initial: list[tuple[int, float]],
                          merge_tol: float = 1e-10,
                          min_intensity: float = 0.0) -> Spectrum:
    """Sticks at w = E_f - E_i > 0 with intensity sum_i w_i |<i|mu x 1|f>|^2.

    initial lists (eigenstate index, weight) with weights summing to one;
    each enters _stick_lines as its unit column.  Sticks are merged within
    merge_tol and labelled by the largest entries of |i> and |f>.
    """
    wsum = sum(w for _, w in initial)
    if abs(wsum - 1.0) > 1e-8:
        raise ModelError(f"initial-state weights must sum to 1, got {wsum}")
    if not all(0 <= i < sol.size for i, _ in initial):
        raise ModelError(f"initial eigenstates must lie in 0..{sol.size - 1}")
    start = np.array([i for i, _ in initial], dtype=int)
    omega, inten, col, final = _stick_lines(
        sol, model.dipole, basis, _unit_columns(sol.size, start),
        [w for _, w in initial], merge_tol)
    # each eigenstate is labelled by its largest entry, found in its block
    largest = np.empty(sol.size, dtype=int)
    for rows, cols, v in sol.blocks:
        largest[cols] = rows[np.argmax(np.abs(v), axis=0)]
    labels = [basis.label(int(k), model) for k in largest]
    return make_stick_spectrum(
        omega, inten, merge_tol=merge_tol, min_intensity=min_intensity,
        labels_i=[labels[i] for i in start[col]], labels_f=[labels[f] for f in final],
        meta={"framework": "quantum_static"},
    )


@dataclass
class QuantumState:
    """Interaction-picture coefficients over a product basis at one time."""

    coeffs: np.ndarray
    t: float
    basis: ProductBasis

    def schroedinger_coeffs(self, model: MolecularModel, cav: CavityParams) -> np.ndarray:
        ks, ns = self.basis.arrays()
        eps = model.energies[ks] + ns * cav.omega_c
        return np.exp(-1j * eps * self.t) * self.coeffs


def photon_observables(state: QuantumState, cav: CavityParams,
                       model: MolecularModel | None = None) -> tuple[float, float]:
    """(<q>, <q^2>) via ladder-operator matrix elements.

    The interaction-picture phases matter whenever t != 0, in which case the
    model is needed to restore the Schroedinger-picture coefficients.
    """
    if state.t != 0.0:
        if model is None:
            raise ModelError("photon_observables needs the model when t != 0")
        psi = state.schroedinger_coeffs(model, cav)
    else:
        psi = state.coeffs
    q, q2 = _photon_moments(cav, state.basis.to_grid(np.asarray(psi, dtype=complex)))
    return float(q), float(q2)


def real_matmul(op: np.ndarray, z: np.ndarray) -> np.ndarray:
    """op @ z for a real square matrix op and a real or complex array z,
    op acting on z's first axis.

    A mixed product makes numpy copy op as complex; here the real and
    imaginary parts of z, viewed as interleaved real columns, meet op in one
    real product, and op is not copied.
    """
    z = np.ascontiguousarray(z)
    parts = z.view(np.float64).reshape(z.shape[0], -1)
    return (op @ parts).view(z.dtype).reshape(z.shape)


def _expectations(op: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<psi|op|psi> for a real symmetric op: a number for a state vector,
    one per column for a matrix of states."""
    op_psi = real_matmul(op, psi)
    return (np.einsum("i...,i...->...", psi.real, op_psi.real)
            + np.einsum("i...,i...->...", psi.imag, op_psi.imag))


def propagate_quantum(model: MolecularModel, cav: CavityParams, pulse: KickPulse,
                      init: tuple[int, int], t_end: float, dt: float,
                      record_stride: int = 1,
                      basis: ProductBasis | None = None, *,
                      method: str = "exact") -> Trajectory:
    """Integrate d|Psi>/dt = -i (H + f(t) mu) |Psi> from |psi_init, N_init>.

    Returns the trajectory of <mu(t)>, per-product-state populations, total
    energy <H>, and the photon observables <q>, <q^2>.  method = "exact"
    steps the eigenbasis coefficients b of Psi = V e^{-i L t} b, H = V L V^T
    solved block by block: RK4 integrates only the kick,
    db/dt = -i f(t) e^{i L t} V^T (1 x mu) V e^{-i L t} b, to the first record
    at or after pulse.support_end, and b is constant after it.  Records map
    back through from_eigenbasis, the t = 0 record being the start itself.
    Its meta records the block sizes (PolaritonSolution.block_sizes) and
    min_dominant_overlap, max |b(0)|^2.  method = "rk4" steps the
    product-basis coefficients under the dense H to t_end: the oracle.
    """
    if method not in ("exact", "rk4"):
        raise ModelError(f"method must be 'exact' or 'rk4', got {method!r}")
    basis = basis or ProductBasis.full(model, cav.n_fock_max)
    i0 = basis.index(*init)
    ks, ns = basis.arrays()
    eps = model.energies[ks] + ns * cav.omega_c
    # before the solve, on the product-basis frequencies for both methods
    check_step(dt, eps, cav.omega_c)
    _check_memory(math.prod(basis._grid[0]), cav.include_dse,
                  record_grid(t_end, dt, record_stride)[1].size)
    meta = {"init": init, "n_fock_max": cav.n_fock_max}

    if method == "rk4":
        v_int = assemble_hamiltonian(model, cav, basis)
        v_int[np.diag_indices_from(v_int)] -= eps
        freqs, start = eps, None

        def rhs(entry, c):
            a, b, f = entry       # -i e^{i eps t}, e^{-i eps t}, f(t)
            psi = b * c
            w_psi = real_matmul(v_int, psi)
            if f != 0.0:
                w_psi = w_psi + f * apply_dipole(model.dipole, basis, psi)
            return a * w_psi

        def observe(_, psi, c):
            energy = np.sum(eps[:, None] * np.abs(psi) ** 2, axis=0) + _expectations(v_int, psi)
            mu, q, q2 = factored_expectations(model, cav, basis, psi)
            return (np.abs(c) ** 2).T, (mu, energy, q, q2)
    else:
        sol = solve_polaritons(model, cav, basis)
        c0 = (np.arange(basis.size) == i0).astype(complex)
        freqs, start = sol.eigenvalues, sol.to_eigenbasis(c0)
        meta.update(sol.block_sizes(), min_dominant_overlap=float(np.max(np.abs(start) ** 2)))

        def rhs(entry, b):
            a, e, f = entry       # -i e^{i L t}, e^{-i L t}, f(t)
            if f == 0.0:
                return np.zeros_like(b)
            mu_psi = apply_dipole(model.dipole, basis, sol.from_eigenbasis(e * b))
            return a * (f * sol.to_eigenbasis(mu_psi))

        def observe(t, psi, b):
            psi[...] = sol.from_eigenbasis(psi)    # in place: one chunk-sized array fewer
            psi[..., np.asarray(t) == 0.0] = c0[:, None]   # c0 itself, not V V^T c0
            mu, q, q2 = factored_expectations(model, cav, basis, psi)
            pops = psi.real ** 2
            pops += psi.imag ** 2
            energy = np.sum(sol.eigenvalues[:, None] * np.abs(b) ** 2, axis=0)
            return pops.T, (mu, np.broadcast_to(energy, mu.shape), q, q2)

    return propagate(
        rhs, (), observe, ("dipole", "energy", "q_expect", "q2_expect"),
        kind="quantum", phase_freqs=freqs,
        pop_labels=[basis.label(i, model) for i in range(basis.size)],
        init_col=i0, pulse=pulse, cav=cav, t_end=t_end, dt=dt,
        record_stride=record_stride, meta=meta, start=start, method=method,
    )

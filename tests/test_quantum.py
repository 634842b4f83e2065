import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twinpol.integrators
import twinpol.manymol
import twinpol.quantum
from helpers import (coupled_states, kron_hamiltonian, kron_sum, mu_operator, q2_operator,
                     q_operator, stick_inputs_per_state, traced_peak)
from twinpol import (BasisSizeError, CavityParams, ConvergenceError, KickPulse, ModelError,
                     MorseParams, PolaritonSolution, ProductBasis, assemble_hamiltonian,
                     boltzmann_weights, build_many_molecule_hamiltonian, build_morse_rovib,
                     cm1_to_au, diagonalize_polaritons, detect_peaks, dipole_spectrum,
                     dominant_eigenstate, photon_observables, propagate_quantum,
                     static_stick_spectrum, thermal_initial_states)
from twinpol.model import MolecularModel, _coupled_blocks, mu_squared_matrix
from twinpol.quantum import (QuantumState, _check_memory, _restrict, _solve_factors,
                             apply_dipole, factored_expectations, photon_ladder,
                             photon_ladder_squared, product_hamiltonian, real_matmul,
                             solve_polaritons)

RESONANT_BLOCK = ((0, 0), (2, 0), (0, 1))


def test_basis_ordering(model3):
    basis = ProductBasis.full(model3, 1)
    assert basis.entries == ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
    with pytest.raises(ModelError):
        ProductBasis(((0, 0), (0, 0)))


@pytest.mark.parametrize("case, match", [
    ("negative_k", "each with k >= 0 and N >= 0"), ("negative_N", "each with k >= 0 and N >= 0"),
    ("empty", "needs entries"), ("triple", r"\(k, N\) int pairs"),
    ("float_k", r"\(k, N\) int pairs"), ("absent_index", r"entry \(5, 0\) not in the basis"),
    ("absent_dominant", r"entry \(5, 0\) not in the basis")])
def test_basis_rejects_malformed_entries(model3, cav, case, match):
    """A negative k or N wrapped into the grid (k = -1 gave a wrong 2 x 2 H),
    an empty basis or an absent entry failed with a bare ValueError, and an
    entry that is not a (k, N) pair of integers was taken until arrays()
    unpacked it."""
    basis = ProductBasis.full(model3, 1)
    calls = {
        "negative_k": lambda: ProductBasis(((0, 0), (-1, 1))),
        "negative_N": lambda: ProductBasis(((0, 0), (1, -1))),
        "empty": lambda: ProductBasis(()),
        "triple": lambda: ProductBasis(((0, 0, 1),)),
        "float_k": lambda: ProductBasis(((0, 0), (1.0, 1))),
        "absent_index": lambda: basis.index(5, 0),
        "absent_dominant": lambda: dominant_eigenstate(
            solve_polaritons(model3, cav, basis), basis, (5, 0)),
    }
    with pytest.raises(ModelError, match=match):
        calls[case]()


def test_hamiltonian_decoupled_is_diagonal(model3):
    cav = CavityParams(omega_c=1e-2, g=0.0, include_dse=False, n_fock_max=2)
    basis = ProductBasis.full(model3, 2)
    h = assemble_hamiltonian(model3, cav, basis)
    ks, ns = basis.arrays()
    assert np.allclose(h, np.diag(model3.energies[ks] + ns * cav.omega_c))


def test_hamiltonian_ladder_elements(model3, cav):
    basis = ProductBasis.full(model3, 2)
    h = assemble_hamiltonian(model3, cav, basis)
    assert np.array_equal(h, h.T)
    # creation: sqrt(N+1) between (2,0) and (0,1); annihilation symmetric
    assert h[basis.index(0, 1), basis.index(2, 0)] == pytest.approx(cav.g)
    # sqrt(2) ladder factor between N=1 and N=2
    assert h[basis.index(0, 2), basis.index(2, 1)] == pytest.approx(
        cav.g * math.sqrt(2))
    assert h[basis.index(1, 1), basis.index(2, 0)] == pytest.approx(cav.g)
    # no direct molecular coupling at fixed N without dse
    assert h[basis.index(0, 0), basis.index(1, 0)] == 0.0


def test_hamiltonian_dse_elements(model3):
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=True, n_fock_max=1)
    basis = ProductBasis.full(model3, 1)
    h = assemble_hamiltonian(model3, cav, basis)
    pref = cav.g**2 / cav.omega_c
    assert h[basis.index(0, 0), basis.index(1, 0)] == pytest.approx(pref * 1.0)
    assert h[basis.index(0, 0), basis.index(0, 0)] == pytest.approx(pref * 1.0)
    assert h[basis.index(2, 0), basis.index(2, 0)] == pytest.approx(
        10e-3 + pref * 2.0)


@pytest.mark.parametrize("dse", [False, True])
@pytest.mark.parametrize("entries", [RESONANT_BLOCK, ((2, 1), (0, 0), (1, 2), (0, 2))],
                         ids=["resonant_block", "non_contiguous"])
def test_restricted_operators_are_full_sub_blocks(model3, entries, dse):
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=dse, n_fock_max=2)
    full = ProductBasis.full(model3, cav.n_fock_max)
    sub = ProductBasis(entries)
    rows = [full.index(k, n) for k, n in entries]
    idx = np.ix_(rows, rows)
    assert np.array_equal(assemble_hamiltonian(model3, cav, sub),
                          assemble_hamiltonian(model3, cav, full)[idx])
    assert np.array_equal(mu_operator(model3, sub), mu_operator(model3, full)[idx])
    assert np.array_equal(q_operator(cav, sub), q_operator(cav, full)[idx])
    assert np.array_equal(q2_operator(cav, sub), q2_operator(cav, full)[idx])


def _spectral_norm(op):
    return float(np.max(np.abs(np.linalg.eigvalsh(op))))


@pytest.mark.parametrize("dse", [False, True], ids=["dse_off", "dse_on"])
@pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
@pytest.mark.parametrize("name", ["three_level", "hcl"])
def test_factored_operators_match_dense_oracles(model3, hcl_model, name, restricted, dse):
    if name == "hcl":
        model, cav = hcl_model, CavityParams(**{**HCL_CAVITY, "include_dse": dse})
    else:
        model, cav = model3, CavityParams(omega_c=1e-2, g=2e-4, include_dse=dse, n_fock_max=2)
    full = ProductBasis.full(model, cav.n_fock_max)
    rng = np.random.default_rng(7)
    # a restricted basis: a shuffled third of the full one
    third = rng.permutation(full.size)[:full.size // 3]
    basis = ProductBasis(tuple(full.entries[i] for i in third)) if restricted else full
    assert np.array_equal(assemble_hamiltonian(model, cav, basis),
                          kron_hamiltonian(model, cav, basis))
    psi = rng.normal(size=(basis.size, 5)) + 1j * rng.normal(size=(basis.size, 5))
    psi /= np.linalg.norm(psi, axis=0)
    dense = (mu_operator(model, basis), q_operator(cav, basis), q2_operator(cav, basis))
    columns = factored_expectations(model, cav, basis, psi)
    vector = factored_expectations(model, cav, basis, psi[:, 0])
    for got, one, op in zip(columns, vector, dense):
        expected = np.einsum("ij,ij->j", psi.conj(), op @ psi).real
        tol = 1e-14 * _spectral_norm(op)
        assert got.shape == (5,) and np.ndim(one) == 0
        assert np.max(np.abs(got - expected)) <= tol
        assert abs(one - expected[0]) <= tol
    tol = 1e-14 * _spectral_norm(dense[0])
    for z in (psi, psi[:, 0], psi.real.copy()):
        mu_z = apply_dipole(model.dipole, basis, z)
        assert mu_z.dtype == z.dtype and mu_z.shape == z.shape
        assert np.max(np.abs(mu_z - dense[0] @ z)) <= tol


def test_state_vector_is_a_one_column_chunk(model3):
    # a vector's <mu>, <q> and <q^2> are summed as column j of a 50-column
    # chunk sums them, in factored_expectations and in photon_observables
    cav = CavityParams(omega_c=1e-2, g=2e-4, n_fock_max=2)
    basis = ProductBasis.full(model3, cav.n_fock_max)
    rng = np.random.default_rng(50)
    psi = rng.normal(size=(basis.size, 50)) + 1j * rng.normal(size=(basis.size, 50))
    psi /= np.linalg.norm(psi, axis=0)
    chunk = factored_expectations(model3, cav, basis, psi)
    for j in range(50):
        column = [float(values[j]) for values in chunk]
        vector = psi[:, j].copy()
        assert [float(v) for v in factored_expectations(model3, cav, basis, vector)] == column
        assert photon_observables(QuantumState(vector, t=0.0, basis=basis), cav) == (
            column[1], column[2])


@pytest.mark.parametrize("spread", ["every_block", "three_blocks"])
def test_transforms_skip_blocks_the_state_never_reaches(hcl_model, monkeypatch, spread):
    """to_eigenbasis and from_eigenbasis match the dense V^T x and V c, and a
    block whose part of the input is exactly 0.0 keeps its output 0.0 at the
    cost of no product: the exact route's records of a kick-free HCl start
    touch one of the 50 blocks."""
    basis = ProductBasis.full(hcl_model, 2)
    sol = diagonalize_polaritons(assemble_hamiltonian(hcl_model, CavityParams(**HCL_CAVITY),
                                                      basis))
    rng = np.random.default_rng(9)
    x, c = rng.normal(size=(2, basis.size, 3)) + 1j * rng.normal(size=(2, basis.size, 3))
    n_reached = len(sol.blocks)
    if spread == "three_blocks":
        entries = [basis.index(hcl_model.state_index(v=v, J=j, M=m), n)
                   for v, j, m, n in ((0, 2, 0, 0), (0, 1, 1, 0), (1, 3, -2, 1))]
        reached = [(rows, cols) for rows, cols, _ in sol.blocks if np.isin(entries, rows).any()]
        n_reached = len(reached)
        assert n_reached == 3
        x[~np.isin(np.arange(basis.size), np.concatenate([r for r, _ in reached]))] = 0.0
        c[~np.isin(np.arange(basis.size), np.concatenate([k for _, k in reached]))] = 0.0
    products = []
    matmul = twinpol.quantum.real_matmul
    monkeypatch.setattr(twinpol.quantum, "real_matmul",
                        lambda op, z: products.append(1) or matmul(op, z))
    v = sol.eigenvectors
    products.clear()
    to_eig, from_eig = sol.to_eigenbasis(x), sol.from_eigenbasis(c)
    assert len(products) == 2 * n_reached
    assert np.max(np.abs(to_eig - v.T @ x)) <= 1e-13
    assert np.max(np.abs(from_eig - v @ c)) <= 1e-13
    assert not to_eig[~(v.T @ x).astype(bool)].any()
    assert not from_eig[~(v @ c).astype(bool)].any()


def test_resonant_block_eigenpairs(model3, cav):
    basis = ProductBasis(RESONANT_BLOCK)
    h = assemble_hamiltonian(model3, cav, basis)
    sol = diagonalize_polaritons(h)
    assert sol.eigenvalues[0] == pytest.approx(0.0, abs=1e-15)
    assert sol.eigenvalues[1] == pytest.approx(10e-3 - 2e-4, abs=1e-12)
    assert sol.eigenvalues[2] == pytest.approx(10e-3 + 2e-4, abs=1e-12)
    for idx in (1, 2):
        vec = sol.eigenvectors[1:, idx]
        assert np.allclose(np.abs(vec), 1 / math.sqrt(2), atol=1e-12)


def test_diagonal_hamiltonian_eigenpairs():
    h = np.diag([0.5, 1.5, 2.5])
    sol = diagonalize_polaritons(h)
    assert np.allclose(sol.eigenvalues, [0.5, 1.5, 2.5])
    assert np.allclose(np.abs(sol.eigenvectors), np.eye(3))


def test_random_symmetric_reconstruction():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6))
    h = 0.5 * (a + a.T)
    sol = diagonalize_polaritons(h)
    back = sol.eigenvectors @ np.diag(sol.eigenvalues) @ sol.eigenvectors.T
    assert np.linalg.norm(back - h) < 1e-12 * np.linalg.norm(h)
    gram = sol.eigenvectors.T @ sol.eigenvectors
    assert np.allclose(gram, np.eye(6), atol=1e-10)
    for i in range(6):
        resid = h @ sol.eigenvectors[:, i] - sol.eigenvalues[i] * sol.eigenvectors[:, i]
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(h)


HCL_CAVITY = dict(omega_c=cm1_to_au(2906.46), g=cm1_to_au(400.0), include_dse=True,
                  n_fock_max=2)


def _oracle_hamiltonian(name, model3, hcl_model):
    if name == "hcl":
        cav = CavityParams(**HCL_CAVITY)
        return assemble_hamiltonian(hcl_model, cav, ProductBasis.full(hcl_model, 2))
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=name == "three_level_dse",
                       n_fock_max=2)
    if name == "thermal_N5_groups":
        return product_hamiltonian(*twinpol.manymol._collective_factors(model3, cav, [2, 3], 2))
    if name == "thermal_N5_product":
        return build_many_molecule_hamiltonian(model3, cav, 5)[0]
    if name == "scrambled_chains":
        # a singleton and chains of 7, 20 and 32 states, in shuffled order:
        # a chain's end learns its label only through the whole chain
        rng = np.random.default_rng(5)
        h = np.diag(rng.normal(size=60))
        for start, size in ((1, 7), (8, 20), (28, 32)):
            i = np.arange(start, start + size - 1)
            h[i, i + 1] = h[i + 1, i] = rng.uniform(0.5, 1.0, size - 1)
        shuffle = rng.permutation(60)
        return h[np.ix_(shuffle, shuffle)]
    return assemble_hamiltonian(model3, cav, ProductBasis.full(model3, 2))


def _components(h):
    """Component label of every state of h's nonzero pattern, by breadth-first
    search."""
    coupled = (h != 0) | (h.T != 0)
    label = np.full(h.shape[0], -1)
    for seed in range(h.shape[0]):
        if label[seed] >= 0:
            continue
        label[seed], todo = seed, [seed]
        while todo:
            for j in np.flatnonzero(coupled[todo.pop()] & (label < 0)):
                label[j] = seed
                todo.append(j)
    return label


@pytest.mark.parametrize("name, n_blocks", [
    ("three_level", 2), ("three_level_dse", 2), ("hcl", 50),
    ("thermal_N5_groups", 2), ("thermal_N5_product", 2), ("scrambled_chains", 4)])
def test_blocked_eigh_matches_full_eigh(model3, hcl_model, name, n_blocks):
    h = _oracle_hamiltonian(name, model3, hcl_model)
    sol = diagonalize_polaritons(h)
    evals, _ = np.linalg.eigh(h)
    assert np.max(np.abs(sol.eigenvalues - evals)) <= 1e-14
    assert np.all(np.diff(sol.eigenvalues) >= 0.0)
    label = _components(h)
    assert np.unique(label).size == n_blocks
    for column in sol.eigenvectors.T:
        assert np.unique(label[column != 0.0]).size == 1
    v = sol.eigenvectors
    assert np.max(np.abs(h @ v - v * sol.eigenvalues)) <= 1e-14 * np.max(np.abs(h))
    assert np.max(np.abs(v.T @ v - np.eye(h.shape[0]))) <= 1e-13


def _assert_blocks_match_dense(sol, h):
    """sol's blocks are _coupled_blocks of the nonzero pattern of the dense
    h, and its eigenpairs those of one np.linalg.eigh per block of h, bit
    for bit."""
    blocks = _coupled_blocks(h.shape[0], *np.nonzero(h))
    parts = [np.linalg.eigh(h[np.ix_(idx, idx)]) for idx in blocks]
    assert len(sol.blocks) == len(blocks)
    assert np.array_equal(sol.eigenvalues, np.sort(np.concatenate([w for w, _ in parts])))
    for (rows, cols, v), idx, (w, vecs) in zip(sol.blocks, blocks, parts):
        assert np.array_equal(rows, idx)
        assert np.array_equal(sol.eigenvalues[cols], w)
        assert np.array_equal(v, vecs)


@st.composite
def _factored_problems(draw):
    """Energies, a sparse symmetric mu with exact zeros, the self-energy
    (g^2/w_c) mu^2 with mu^2 as mu_squared_matrix forms it, or None, g = 0 or
    g > 0, and a unique subset of the (k, N) entries in any order."""
    n, n_fock = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    value = st.just(0.0) | st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)
    mu = np.triu(np.reshape(draw(st.lists(value, min_size=n * n, max_size=n * n)), (n, n)))
    mu += np.triu(mu, 1).T
    mu2 = mu_squared_matrix(SimpleNamespace(dipole=mu)) if draw(st.booleans()) else None
    energies = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    omega_c, g = draw(st.floats(0.1, 2.0)), draw(st.just(0.0) | st.floats(0.01, 0.5))
    within = None if mu2 is None else (g**2 / omega_c) * mu2
    entries = draw(st.lists(st.sampled_from([(k, m) for m in range(n_fock + 1)
                                              for k in range(n)]), min_size=1, unique=True))
    return (energies, mu, within, omega_c, g) + tuple(np.array(entries).T), n_fock


def _kron_record(factors, n_fock):
    """The dense H of a product_hamiltonian record on the full photon-major
    basis: helpers.kron_sum of diag(E) and the coupling, then 1 x W, added
    last as kron_sum adds its self-energy, so bit for bit."""
    energies, mu, within, omega_c, g = factors[:5]
    h = kron_sum(np.diag(energies), mu, None, omega_c, g, n_fock)
    if within is not None:
        h += np.kron(np.eye(n_fock + 1), within)
    return h


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_factored_problems())
def test_factored_solve_matches_dense_oracle(problem):
    """The blocks come from the factors' nonzero patterns and each block's H
    from product_hamiltonian; both must be what the dense Kronecker sum
    restricted to the entries gives."""
    factors, n_fock = problem
    ks, ns = factors[5:]
    idx = ns * len(factors[0]) + ks
    dense = _kron_record(factors, n_fock)[np.ix_(idx, idx)]
    assert np.array_equal(product_hamiltonian(*factors), dense)
    _assert_blocks_match_dense(_solve_factors(*factors), dense)


@pytest.mark.parametrize("case", ["hcl_dse", "hcl_no_dse", "groups_2_3", "groups_6"])
def test_factored_solve_matches_dense_oracle_on_the_models(model3, hcl_model, case):
    if case.startswith("hcl"):
        cav = CavityParams(**{**HCL_CAVITY, "include_dse": case == "hcl_dse"})
        basis = ProductBasis.full(hcl_model, 2)
        sol, dense = (solve_polaritons(hcl_model, cav, basis),
                      kron_hamiltonian(hcl_model, cav, basis))
    else:
        cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=True, n_fock_max=2)
        groups = [2, 3] if case == "groups_2_3" else [6]
        factors = twinpol.manymol._collective_factors(model3, cav, groups, 2)
        sol, dense = _solve_factors(*factors), _kron_record(factors, 2)
    _assert_blocks_match_dense(sol, dense)


@pytest.mark.parametrize("g", [math.nan, math.inf], ids=["nan", "inf"])
def test_failed_block_solve_is_a_convergence_error(model3, g):
    """At a non-finite coupling the block eigh fails, and the condition
    number its failure handler took failed in its own SVD, so numpy's
    LinAlgError hid the ConvergenceError diagnostic."""
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=True, n_fock_max=2)
    factors = list(twinpol.quantum._model_factors(model3, cav, ProductBasis.full(model3, 2)))
    factors[4] = g
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="non-finite"):
        _solve_factors(*factors)


def test_solve_polaritons_peaks_below_one_dense_h(hcl_model):
    """The solver forms H block by block: on HCl's 726-state basis its
    allocations peak below one dense 726 x 726 matrix (4.02 MiB)."""
    cav = CavityParams(**HCL_CAVITY)
    basis = ProductBasis.full(hcl_model, 2)
    tracemalloc.start()
    try:
        sol = solve_polaritons(hcl_model, cav, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.block_sizes() == {"n_blocks": 50, "max_block_dim": 34}
    assert peak < 8 * basis.size**2


def test_solve_polaritons_holds_under_one_and_a_half_dipoles_at_jmax30(hcl_jmax30_build):
    """The factors carry the energies as a vector and the self-energy scaled
    in mu_squared_matrix's own array, symmetrized there a strip at a time,
    and the coupling edges come from mu's nonzeros: forming m + m^T beside
    m = mu @ mu, and the dense g mu, held about 57 MiB traced (2.0 dipoles) at
    j_max = 30 (1,922 states, 5,766 product states)."""
    model = hcl_jmax30_build[0]
    sol, peak = traced_peak(lambda: solve_polaritons(
        model, CavityParams(**HCL_CAVITY), ProductBasis.full(model, 2)))
    assert sol.size == 5766
    assert peak < 1.5 * model.dipole.nbytes


def _cluster_initial_states(sol, basis, weights, weight_cutoff):
    """thermal_initial_states made independent of the basis eigh picks inside
    a degenerate cluster: each entry's weight goes to the cluster of
    eigenvalues (within 1e-10 au) that carries most of it, spread evenly over
    the cluster's columns."""
    cluster = np.r_[0, np.cumsum(np.diff(sol.eigenvalues) > 1e-10)]
    total = {}
    for k in weights.subset:
        w = float(weights.weights[k])
        if w <= weight_cutoff:
            continue
        share = np.bincount(cluster, sol.eigenvectors[basis.index(k, 0)] ** 2)
        c = int(np.argmax(share))
        assert share[c] > 0.5
        total[c] = total.get(c, 0.0) + w
    norm = sum(total.values())
    return [(int(j), w / norm / np.sum(cluster == c))
            for c, w in total.items() for j in np.flatnonzero(cluster == c)]


def test_blocked_thermal_sticks_match_full_eigh(hcl_model):
    cav = CavityParams(**HCL_CAVITY)
    basis = ProductBasis.full(hcl_model, 2)
    h = assemble_hamiltonian(hcl_model, cav, basis)
    weights = boltzmann_weights(hcl_model, 300.0, [k for k, lab in enumerate(hcl_model.labels)
                                                   if lab["v"] == 0])
    sol = diagonalize_polaritons(h)
    blocked = static_stick_spectrum(sol, hcl_model, basis,
                                    thermal_initial_states(sol, basis, weights, 1e-4))
    evals, evecs = np.linalg.eigh(h)
    every = np.arange(evals.size)
    full = PolaritonSolution(evals, ((every, every, evecs),))   # a dense eigh is one block
    oracle = static_stick_spectrum(full, hcl_model, basis,
                                   _cluster_initial_states(full, basis, weights, 1e-4))
    top = oracle.intensity.max()
    strong = [s.select(s.intensity > 1e-12 * top) for s in (blocked, oracle)]
    assert strong[0].omega.size == strong[1].omega.size
    assert np.max(np.abs(strong[0].omega - strong[1].omega)) <= 1e-15
    assert np.max(np.abs(strong[0].intensity - strong[1].intensity)) <= 1e-13 * top
    assert blocked.intensity.sum() == pytest.approx(oracle.intensity.sum(), rel=1e-12)
    # a cross-block amplitude is exactly zero, so no rounding-noise stick is left
    assert blocked.omega.size < oracle.omega.size


@pytest.mark.parametrize("case", ["hcl_thermal", "three_level"])
def test_batched_stick_amplitudes_match_per_state_loop(model3, cav, hcl_model, case,
                                                       monkeypatch):
    if case == "hcl_thermal":
        model, cav = hcl_model, CavityParams(**HCL_CAVITY)
        basis = ProductBasis.full(model, 2)
        sol = diagonalize_polaritons(assemble_hamiltonian(model, cav, basis))
        weights = boltzmann_weights(model, 300.0, [k for k, lab in enumerate(model.labels)
                                                   if lab["v"] == 0])
        initial = thermal_initial_states(sol, basis, weights, 1e-4)
    else:
        model, basis = model3, ProductBasis.full(model3, 2)
        sol = diagonalize_polaritons(assemble_hamiltonian(model, cav, basis))
        initial = [(dominant_eigenstate(sol, basis, (0, 0)), 0.7),
                   (dominant_eigenstate(sol, basis, (1, 0)), 0.3)]
    merged = []
    monkeypatch.setattr(twinpol.quantum, "make_stick_spectrum",
                        lambda *args, **kw: merged.append((args, kw)))
    static_stick_spectrum(sol, model, basis, initial)
    (omega, inten), kw = merged[0]
    labels = [basis.label(int(k), model) for k in np.argmax(np.abs(sol.eigenvectors), axis=0)]
    oracle = stick_inputs_per_state(sol, mu_operator(model, basis), labels, initial,
                                    kw["merge_tol"])
    assert omega.size == oracle[0].size > 0
    assert np.array_equal(omega, oracle[0])
    assert np.max(np.abs(inten - oracle[1])) <= 1e-15 * oracle[1].max()
    assert (kw["labels_i"], kw["labels_f"]) == (oracle[2], oracle[3])


@pytest.mark.parametrize("index", [-1, 9, 10])
def test_static_sticks_refuse_initial_index_outside_solution(model3, cav, index):
    # refused up front: -1 would select no state, 9 of 9 would index past V
    basis = ProductBasis.full(model3, cav.n_fock_max)
    sol = solve_polaritons(model3, cav, basis)
    with pytest.raises(ModelError, match="0..8"):
        static_stick_spectrum(sol, model3, basis, [(0, 0.5), (index, 0.5)])


def test_nonsymmetric_matrix_rejected():
    with pytest.raises(ModelError):
        diagonalize_polaritons(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("h", [np.zeros((0, 0)), np.ones(3), np.ones((2, 3)),
                               np.ones((2, 2, 2))],
                         ids=["empty", "one_dimensional", "non_square", "three_dimensional"])
def test_malformed_matrix_rejected(h):
    # the empty matrix failed with a bare ValueError in the eigenvalue ordering
    with pytest.raises(ModelError, match="non-empty square matrix"):
        diagonalize_polaritons(h)


# just above allclose's atol: isclose(x, 0) fails, isclose(0, x) passes (rtol |x|)
ONE_SIDED_EDGE = 1e-12 * (1.0 + 5e-6)


@st.composite
def near_symmetric(draw):
    """A sparse symmetric matrix of interleaved blocks, then entries of one
    triangle moved to about the edge of allclose's tolerance against their
    mirror, or set to values near its atol, and sometimes a NaN or an inf on
    the diagonal."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = sum(sizes)
    entry = st.one_of(st.just(0.0), st.sampled_from([1e-12, ONE_SIDED_EDGE, -1.0]),
                      st.floats(-1e3, 1e3))
    h = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = np.reshape(draw(st.lists(entry, min_size=size**2, max_size=size**2)),
                           (size, size))
        h[start:start + size, start:start + size] = np.triu(block) + np.triu(block, 1).T
        start += size
    order = draw(st.permutations(range(n)))
    h = h[np.ix_(order, order)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            edge = 1e-12 + 1e-5 * abs(h[j, i])     # allclose's bound against h[j, i]
            scale = draw(st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]))
            h[i, j] = h[j, i] + draw(st.sampled_from([-1.0, 1.0])) * scale * edge
        else:
            h[i, j] = draw(st.sampled_from([0.0, 1e-12, ONE_SIDED_EDGE, 2e-12]))
    if draw(st.integers(0, 7)) == 0:
        k = draw(st.integers(0, n - 1))
        h[k, k] = draw(st.sampled_from([np.nan, np.inf]))
    return h


@settings(max_examples=300, deadline=None, derandomize=True)
@given(h=near_symmetric())
@example(h=np.array([[1.0, ONE_SIDED_EDGE], [0.0, 2.0]]))
@example(h=np.array([[1.0, 0.0], [ONE_SIDED_EDGE, 2.0]]))
@example(h=np.array([[1.0, 1e-12], [0.0, 2.0]]))
@example(h=np.array([[np.nan, 0.0], [0.0, 2.0]]))
@example(h=np.array([[1.0, np.inf], [np.inf, 2.0]]))
@example(h=np.array([[-np.inf, 0.0], [0.0, 2.0]]))
def test_symmetry_check_is_allclose(h):
    """diagonalize_polaritons compares H with H.T on H's nonzero entries
    only; its verdict is allclose's over every entry, whichever triangle a
    one-sided entry is in.  allclose takes inf == inf; a symmetric H with
    an infinite entry is refused as non-finite (it gave NaN eigenvalues)."""
    if not np.allclose(h, h.T, atol=1e-12):
        with pytest.raises(ModelError, match="symmetric"):
            diagonalize_polaritons(h)
    elif not np.isfinite(h).all():
        with pytest.raises(ModelError, match="finite"):
            diagonalize_polaritons(h)
    else:
        sol = diagonalize_polaritons(h)
        assert sol.size == h.shape[0]


def _scattered_eigenvectors(h):
    """Eigenvalues and the dense eigenvector matrix of h: one eigh per
    component of h's nonzero pattern, its vectors placed in the columns a
    stable sort of all eigenvalues gives them."""
    label = _components(h)
    rows = [np.flatnonzero(label == c) for c in np.unique(label)]
    parts = [np.linalg.eigh(h[np.ix_(r, r)]) for r in rows]
    evals = np.concatenate([w for w, _ in parts])
    column = np.argsort(np.argsort(evals, kind="stable"))
    evecs = np.zeros(h.shape)
    start = 0
    for r, (w, v) in zip(rows, parts):
        evecs[np.ix_(r, column[start:start + w.size])] = v
        start += w.size
    return np.sort(evals, kind="stable"), evecs


@pytest.mark.parametrize("name", ["three_level", "hcl"])
def test_solution_keeps_only_blocks(model3, hcl_model, name):
    h = _oracle_hamiltonian(name, model3, hcl_model)
    sol = diagonalize_polaritons(h)
    assert [f.name for f in dataclasses.fields(PolaritonSolution)] == ["eigenvalues", "blocks"]
    assert not hasattr(sol, "parts")
    evals, evecs = _scattered_eigenvectors(h)
    assert np.array_equal(sol.eigenvalues, evals)
    assert "eigenvectors" not in vars(sol)       # formed on first read only
    dense = sol.eigenvectors
    assert np.array_equal(dense, evecs)
    assert sol.eigenvectors is dense
    with pytest.raises(ValueError, match="read-only"):
        dense[0, 0] = 1.0
    # the block-wise transforms: exact rows and columns of V on unit vectors,
    # V^T x and V c to rounding, and one the inverse of the other
    unit = np.eye(sol.size)
    assert np.array_equal(sol.to_eigenbasis(unit), dense.T)
    assert np.array_equal(sol.from_eigenbasis(unit), dense)
    assert np.array_equal(sol.to_eigenbasis(unit[:, 3]), dense[3])
    rng = np.random.default_rng(17)
    real = rng.standard_normal((sol.size, 4))
    for x in (real, real + 1j * rng.standard_normal((sol.size, 4)), real[:, 0]):
        scale = 1e-14 * np.linalg.norm(x)
        assert sol.to_eigenbasis(x).dtype == sol.from_eigenbasis(x).dtype == x.dtype
        assert np.abs(sol.to_eigenbasis(x) - dense.T @ x).max() <= scale
        assert np.abs(sol.from_eigenbasis(x) - dense @ x).max() <= scale
        assert np.abs(sol.from_eigenbasis(sol.to_eigenbasis(x)) - x).max() <= scale


def test_memory_guard_counts_the_population_records(model3, cav, pulse, monkeypatch):
    """A time-dependent run's size guard adds its records x dim populations,
    and refuses before anything is solved or allocated."""
    # HCl at j_max = 30 (5,766 product states) over t_end = 9.6e5 au, dt = 1,
    # stride 16: 1.7 GiB of matrices pass, and 2.6 GiB of populations more do not
    _check_memory(5766, include_dse=True)
    with pytest.raises(BasisSizeError, match="60001 population records"):
        _check_memory(5766, include_dse=True, records=60001)

    def no_build(*args, **kwargs):
        raise AssertionError("solved before the size check")

    grid = dict(t_end=400.0, dt=1.0, record_stride=4)       # 101 records
    matrices = 8 * (6 * 9**2 + 6 * 9 + 1)                    # 9 states, no self-energy
    monkeypatch.setattr(twinpol.quantum, "solve_polaritons", no_build)
    monkeypatch.setattr(twinpol.quantum, "MEMORY_BUDGET", matrices + 8 * 101 * 9 - 1)
    with pytest.raises(BasisSizeError, match="^9-state.* and 101 population records"):
        propagate_quantum(model3, cav, pulse, (0, 0), **grid)
    monkeypatch.undo()
    monkeypatch.setattr(twinpol.quantum, "MEMORY_BUDGET", matrices + 8 * 101 * 9)
    assert propagate_quantum(model3, cav, pulse, (0, 0), **grid).times.size == 101


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_refused_run_neither_solves_nor_assembles(hcl_model, monkeypatch, method):
    """The dt and record-grid guards refuse a run before the solve and the
    dense H: a refused HCl run took the 726-state solve first."""
    def no_build(*args, **kwargs):
        raise AssertionError("solved or assembled before the guards")

    monkeypatch.setattr(twinpol.quantum, "solve_polaritons", no_build)
    monkeypatch.setattr(twinpol.quantum, "assemble_hamiltonian", no_build)
    cav = CavityParams(**HCL_CAVITY)
    with pytest.raises(ModelError, match="too coarse"):
        propagate_quantum(hcl_model, cav, KickPulse(), (0, 0), 1000.0, 50.0, method=method)
    with pytest.raises(ModelError, match="shorter than one record_stride"):
        propagate_quantum(hcl_model, cav, KickPulse(), (0, 0), 5.0, 1.0, 8, method=method)


def test_single_molecule_routes_have_a_size_guard(hcl_model, monkeypatch):
    """assemble_hamiltonian and the RK4 oracle refuse, before any
    product-space array, a basis whose dense matrices exceed the budget: HCl
    at j_max = 50 has 15,606 product states.  The exact route is charged on
    its start's component, 66 product states from v0J0M0, and its records on
    all 726 population columns, so under the same budget it runs."""
    with pytest.raises(BasisSizeError, match="^15606-state"):
        _check_memory(15606, include_dse=True)

    def no_build(*args, **kwargs):
        raise AssertionError("operators built before the size check")

    monkeypatch.setattr(twinpol.quantum, "MEMORY_BUDGET", 2**20)
    monkeypatch.setattr(twinpol.quantum, "mu_squared_matrix", no_build)
    monkeypatch.setattr(twinpol.quantum, "product_hamiltonian", no_build)
    cav = CavityParams(**HCL_CAVITY)
    with pytest.raises(BasisSizeError, match="^726-state"):
        assemble_hamiltonian(hcl_model, cav, ProductBasis.full(hcl_model, 2))
    with pytest.raises(BasisSizeError, match="^726-state"):
        propagate_quantum(hcl_model, cav, KickPulse(amplitude=0.0), (0, 0), 10.0, 1.0,
                          method="rk4")
    monkeypatch.undo()
    monkeypatch.setattr(twinpol.quantum, "MEMORY_BUDGET", 2**20)
    traj = propagate_quantum(hcl_model, cav, KickPulse(amplitude=0.0), (0, 0), 10.0, 1.0)
    assert traj.populations.shape == (11, 726) and traj.meta["coupled_states"] == 22
    # the component's charge passes only with the records on every column
    charge = 8 * (7 * 66**2 + 6 * 66 + 1 + 11 * 726)
    monkeypatch.setattr(twinpol.quantum, "MEMORY_BUDGET", charge - 1)
    with pytest.raises(BasisSizeError, match="^66-state.* and 11 population records"):
        propagate_quantum(hcl_model, cav, KickPulse(amplitude=0.0), (0, 0), 10.0, 1.0)
    monkeypatch.setattr(twinpol.quantum, "MEMORY_BUDGET", charge)
    propagate_quantum(hcl_model, cav, KickPulse(amplitude=0.0), (0, 0), 10.0, 1.0)
    # a restricted basis is sized, and H built, on its own (N_max + 1) x
    # (max k + 1) grid: here 3 x 6 states, under the budget the full basis is over
    monkeypatch.setattr(twinpol.quantum, "MEMORY_BUDGET", 2**20)
    basis = ProductBasis(((0, 0), (5, 1), (3, 2)))
    assert np.array_equal(assemble_hamiltonian(hcl_model, cav, basis),
                          kron_hamiltonian(hcl_model, cav, basis))


@pytest.mark.parametrize("case", ["kicked_v0J0M0", "vacuum_v0J2M0"])
def test_exact_route_on_the_start_component_matches_the_whole_basis(hcl_model, case):
    """The default exact route solves and records only the start's
    component of mu's nonzeros (22 M = 0 states, 66 product states); an
    explicit full basis= runs on all 726.  Populations outside the component
    are exactly 0.0, and the series agree within the rounding bound below.

    Both runs solve the same block matrices: mu is exactly 0.0 off the
    component, so its mu^2 block sums the same nonzero terms.  They form the
    records' sums in other orders: from_eigenbasis tiles another number of
    columns per chunk, and the expectation values sum over a 726-state or a
    66-state grid.  A record passes through three sums, psi = V b, op psi
    and <psi|op psi>, each over at most n = 726 terms; regrouping such a sum
    moves it by at most 2 gamma_{n-1} < n eps times the sum of its terms'
    magnitudes, which for a unit state is at most || |op| ||_2, the norm of
    op's entries' magnitudes (1 for a population).  So each record lies
    within 3 n eps || |op| ||_2."""
    cav = CavityParams(**HCL_CAVITY)
    start, pulse, grid = {
        "kicked_v0J0M0": ((0, 0, 0), KickPulse(), dict(t_end=600.0, dt=0.5, record_stride=1)),
        "vacuum_v0J2M0": ((0, 2, 0), KickPulse.off(), dict(t_end=400.0, dt=1.0, record_stride=4)),
    }[case]
    v, j, m = start
    init = (hcl_model.state_index(v=v, J=j, M=m), 0)
    part = propagate_quantum(hcl_model, cav, pulse, init, **grid)
    whole = propagate_quantum(hcl_model, cav, pulse, init, **grid,
                              basis=ProductBasis.full(hcl_model, cav.n_fock_max))
    assert (part.meta["coupled_states"], part.meta["n_blocks"], part.meta["max_block_dim"]) == (
        22, 2, 34)
    assert (whole.meta["coupled_states"], whole.meta["n_blocks"]) == (242, 50)
    assert part.pop_labels == whole.pop_labels and np.array_equal(part.times, whole.times)
    # product state i holds molecular state i mod n; the component is M = 0
    outside = np.array([hcl_model.labels[i % hcl_model.n_states]["M"] != 0 for i in range(726)])
    assert outside.sum() == 726 - 66 and not part.populations[:, outside].any()
    fock = cav.n_fock_max
    norms = {"dipole": np.linalg.norm(np.abs(hcl_model.dipole), 2),
             "q_expect": np.linalg.norm(photon_ladder(fock), 2) / math.sqrt(2.0 * cav.omega_c),
             "q2_expect": np.linalg.norm(photon_ladder_squared(fock), 2) / (2.0 * cav.omega_c),
             "populations": 1.0}
    for name, norm in norms.items():
        bound = 3 * 726 * np.finfo(float).eps * norm
        assert np.max(np.abs(getattr(part, name) - getattr(whole, name))) <= bound, name
    if pulse.amplitude:
        assert np.abs(part.dipole).max() > 1e-6       # the kicked signal, far above the bound


@pytest.mark.parametrize("init", [0, 1])
def test_exact_route_is_the_whole_basis_when_the_component_is_the_model(model3, cav, pulse,
                                                                        init):
    """On the 3-level model mu couples every state, so the start's component
    is the whole model, and the default run is the full basis= run bit for
    bit."""
    grid = dict(t_end=2e3, dt=1.0, record_stride=8)
    part = propagate_quantum(model3, cav, pulse, (init, 0), **grid)
    whole = propagate_quantum(model3, cav, pulse, (init, 0), **grid,
                              basis=ProductBasis.full(model3, cav.n_fock_max))
    assert part.meta == whole.meta and part.meta["coupled_states"] == 3
    for name in ("times", "dipole", "populations", "energy", "q_expect", "q2_expect"):
        assert np.array_equal(getattr(part, name), getattr(whole, name)), name


def test_component_run_keeps_the_whole_basis_dt_verdict(hcl_model):
    """v0J10M10 has no dipole partner at j_max = 10, so its component is the
    one state, whose phases span 2 w_c.  check_step still reads the whole
    basis's frequencies: a dt that the full basis refuses is refused, though
    the component alone would take it."""
    cav = CavityParams(**HCL_CAVITY)
    init = (hcl_model.state_index(v=0, J=10, M=10), 0)
    whole = hcl_model.energies.max() + 3.0 * cav.omega_c
    dt = 0.1 / (0.5 * (whole + 3.0 * cav.omega_c))   # between the two limits
    assert dt * whole >= 0.1 > dt * 3.0 * cav.omega_c
    with pytest.raises(ModelError, match="too coarse"):
        propagate_quantum(hcl_model, cav, KickPulse(), init, 200.0, dt)
    traj = propagate_quantum(hcl_model, cav, KickPulse(), init, 200.0, 0.5)
    assert traj.meta["coupled_states"] == 1
    assert traj.populations[:, init[0]] == pytest.approx(1.0, abs=1e-12)


def _assert_map_is_the_walks(model):
    """model's mu-component map: every state's component is the walk of
    helpers.coupled_states from it, and the components partition the
    states in order of their smallest index."""
    of, blocks = model._components
    for k in range(model.n_states):
        assert np.array_equal(blocks[of[k]], coupled_states(model.dipole, k))
    assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
    assert sorted(np.concatenate(blocks).tolist()) == list(range(model.n_states))


def test_mu_component_map_walks_both_triangles_of_the_dipole(hcl_model):
    """The mu-component map (MolecularModel._components) gives every HCl
    state the component the independent walk reaches from it: 23 of them,
    one per M and the two singletons vJ10M+-10.  It is formed on first use,
    not by validate, and once.  A one-sided entry, within the symmetry
    check's 1e-12, couples as the solver's blocks read it: from either end.
    A start outside the model is refused."""
    fresh = MolecularModel(hcl_model.energies, hcl_model.dipole, hcl_model.labels)
    assert "_components" not in vars(fresh)
    _assert_map_is_the_walks(fresh)
    assert fresh._components is fresh._components and len(fresh._components[1]) == 23
    dipole = np.zeros((3, 3))
    dipole[0, 2] = 1e-13
    one_sided = MolecularModel(np.array([0.0, 1e-3, 2e-3]), dipole,
                               [{"index": k} for k in range(3)])
    of, blocks = one_sided._components
    assert [b.tolist() for b in blocks] == [[0, 2], [1]] and of.tolist() == [0, 1, 0]
    for k in (-1, hcl_model.n_states):
        with pytest.raises(ModelError, match=f"start index {k} outside 0..241"):
            _restrict(hcl_model, [(0, 0.5), (k, 0.5)])


@st.composite
def _sparse_dipoles(draw):
    """A model of 1 to 12 states whose symmetric dipole has each entry
    above the diagonal nonzero with probability p."""
    n, p = draw(st.integers(1, 12)), draw(st.floats(0.0, 0.4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = np.triu(np.where(rng.random((n, n)) < p, rng.normal(size=(n, n)), 0.0), 1)
    return MolecularModel(np.arange(n, dtype=float), mu + mu.T, [{"index": k} for k in range(n)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_sparse_dipoles())
def test_mu_component_map_on_random_sparse_dipoles(model):
    _assert_map_is_the_walks(model)


def test_mirrored_hcl_components_give_bit_identical_sticks(hcl_model):
    """HCl at j_max = 10 has 23 components of mu's nonzeros: one per M, and
    the two singletons vJ10M+-10 each.  Their energies and dipole blocks
    fall into 12 classes, byte for byte: M and -M, and the M = 0 component
    alone.  Solved alone from its v0J|M|M+-|M| state, each of a pair gives
    the same sticks, bit for bit (none from the singletons); only the sign
    of M in the labels differs."""
    model, cav = hcl_model, CavityParams(**HCL_CAVITY)
    blocks = _coupled_blocks(model.n_states, *np.nonzero(model.dipole))
    classes = {}
    for block in blocks:
        key = (model.energies[block].tobytes(), model.dipole[np.ix_(block, block)].tobytes())
        classes.setdefault(key, set()).add(abs(model.labels[block[0]]["M"]))
    assert len(blocks) == 23 and len(classes) == 12
    assert all(len(ms) == 1 for ms in classes.values())

    def sticks(k):
        part, idx, starts = _restrict(model, [(k, 1.0)])
        assert np.array_equal(idx, blocks[model._components[0][k]])
        assert part.n_states < model.n_states and starts == [(part.labels.index(
            model.labels[k]), 1.0)]
        basis = ProductBasis.full(part, cav.n_fock_max)
        sol = solve_polaritons(part, cav, basis)
        return static_stick_spectrum(sol, part, basis,
                                     [(dominant_eigenstate(sol, basis, (starts[0][0], 0)), 1.0)])

    for m in range(1, 11):
        low, high = (sticks(model.state_index(v=0, J=m, M=s)) for s in (-m, m))
        assert (low.omega.size > 0) == (m < 10)      # vJ10M+-10 has no dipole partner
        assert np.array_equal(low.omega, high.omega)
        assert np.array_equal(low.intensity, high.intensity)
        for key in ("labels_i", "labels_f"):
            assert [lab.replace(f"M-{m};", f"M{m};") for lab in low.meta[key]] == high.meta[key]


def test_restricted_sticks_exact(model3, cav):
    # resonant-manifold block: sticks exactly at omega +- g mu, mu^2/2 each
    basis = ProductBasis(RESONANT_BLOCK)
    sol = diagonalize_polaritons(assemble_hamiltonian(model3, cav, basis))
    ground = dominant_eigenstate(sol, basis, (0, 0))
    spec = static_stick_spectrum(sol, model3, basis, [(ground, 1.0)])
    assert np.allclose(spec.omega, [0.0098, 0.0102], atol=1e-12)
    assert np.allclose(spec.intensity, [0.5, 0.5], atol=1e-12)


def test_free_sticks_at_bare_lines(model3):
    cav = CavityParams(omega_c=1e-2, g=0.0, include_dse=False, n_fock_max=2)
    basis = ProductBasis.full(model3, 2)
    sol = diagonalize_polaritons(assemble_hamiltonian(model3, cav, basis))
    spec = static_stick_spectrum(
        sol, model3, basis, [(dominant_eigenstate(sol, basis, (0, 0)), 1.0)])
    assert np.allclose(spec.omega, [10e-3])
    assert np.allclose(spec.intensity, [1.0])


def test_full_basis_sticks_near_block_values(model3, cav):
    # the kept nondegenerate couplings shift the doublet by O(g^2 / (E1-E0));
    # positions stay within 2e-5 hartree of the block values
    basis = ProductBasis.full(model3, 2)
    sol = diagonalize_polaritons(assemble_hamiltonian(model3, cav, basis))
    for init, lo, hi in (((0, 0), 0.0098, 0.0102), ((1, 0), 0.0078, 0.0082)):
        spec = static_stick_spectrum(
            sol, model3, basis, [(dominant_eigenstate(sol, basis, init), 1.0)],
            min_intensity=1e-4)
        strong = spec.omega[spec.intensity > 0.1 * spec.intensity.max()]
        assert abs(strong[0] - lo) < 2e-5
        assert abs(strong[1] - hi) < 2e-5
        gap = strong[1] - strong[0]
        assert abs(gap - 4e-4) < 2e-6


def test_fock_convergence(model3):
    positions = {}
    for n_fock in (2, 3):
        cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=False,
                           n_fock_max=n_fock)
        basis = ProductBasis.full(model3, n_fock)
        sol = diagonalize_polaritons(assemble_hamiltonian(model3, cav, basis))
        spec = static_stick_spectrum(
            sol, model3, basis,
            [(dominant_eigenstate(sol, basis, (0, 0)), 1.0)], min_intensity=1e-4)
        strong = spec.omega[spec.intensity > 0.1 * spec.intensity.max()]
        positions[n_fock] = strong[:2]
    assert np.max(np.abs(positions[2] - positions[3])) < 1e-8


def _hcl_solved(v_max, n_fock_max, j_max):
    """(model, basis, solution) of the SI's HCl model in its cavity
    (mu1 = 0.10 au, g = 400 cm^-1, self-energy on) at the given truncations."""
    model = build_morse_rovib(MorseParams(v_max=v_max, j_max=j_max, dipole_curve=(0.43, 0.10)))
    cav = CavityParams(omega_c=cm1_to_au(2906.46), g=cm1_to_au(400.0), include_dse=True,
                       n_fock_max=n_fock_max)
    basis = ProductBasis.full(model, n_fock_max)
    return model, basis, solve_polaritons(model, cav, basis)


def _hcl_doublets(model, basis, sol):
    """The R(0) and P(2) -> (1,1,0) doublets of a _hcl_solved system: the two
    strongest sticks within 25 cm^-1 of each bare line, in au."""
    final = model.state_index(v=1, J=1, M=0)
    doublets = []
    for j in (0, 2):
        k = model.state_index(v=0, J=j, M=0)
        spec = static_stick_spectrum(sol, model, basis,
                                     [(dominant_eigenstate(sol, basis, (k, 0)), 1.0)])
        w0, half = model.transition_frequency(k, final), cm1_to_au(25.0)
        near = spec.in_window(w0 - half, w0 + half)
        doublets.append(np.sort(near.omega[np.argsort(near.intensity)[-2:]]))
    return doublets


def test_hcl_doublets_converge_in_the_truncations():
    # each line of both doublets moves by less than 1% of its doublet's split
    # when every truncation grows: 726 to 3,375 product states
    for shipped, larger in zip(_hcl_doublets(*_hcl_solved(1, 2, 10)),
                               _hcl_doublets(*_hcl_solved(2, 4, 14))):
        split = shipped[1] - shipped[0]
        assert split > cm1_to_au(7.0)
        assert np.max(np.abs(larger - shipped)) < 0.01 * split


def test_hcl_thermal_sticks_of_low_j_converge_in_j_max():
    # 300 K, v = 0: the 1e-4 weight cutoff keeps J <= 10 at both j_max, so both
    # ensembles share one normalization, and a line from J <= 8 ends at J <= 9,
    # inside both truncations.  Its sticks move by the doublet test's measure
    # of convergence: under 1% of the R(0) split in position, and under 1% of
    # the strongest stick in intensity.  The sticks above 1e-6 of the strongest
    # pair one to one; above 1e-9 they no longer do (paired lines up to
    # 0.59 cm^-1 apart)
    solved = [_hcl_solved(1, 2, j_max) for j_max in (10, 14)]
    lines = []
    for model, basis, sol in solved:
        weights = boltzmann_weights(model, 300.0, [k for k, label in enumerate(model.labels)
                                                   if label["v"] == 0])
        initial = thermal_initial_states(sol, basis, weights, weight_cutoff=1e-4)
        assert len(initial) == 11**2      # J = 0 .. 10, every M
        spec = static_stick_spectrum(sol, model, basis, initial)
        low_j = [int(re.match(r"v0J(\d+)M", label)[1]) <= 8 for label in spec.meta["labels_i"]]
        lines.append(spec.select(np.array(low_j)))
    r0 = _hcl_doublets(*solved[0])[0]
    top = max(spec.intensity.max() for spec in lines)
    shipped, larger = (spec.select(spec.intensity > 1e-6 * top) for spec in lines)
    assert shipped.omega.size == larger.omega.size > 100     # paired in position order
    assert np.max(np.abs(larger.omega - shipped.omega)) < 0.01 * (r0[1] - r0[0])
    assert np.max(np.abs(larger.intensity - shipped.intensity)) < 0.01 * top


def test_stationary_state_without_drive(model3):
    cav = CavityParams(omega_c=1e-2, g=0.0, include_dse=False, n_fock_max=1)
    traj = propagate_quantum(model3, cav, KickPulse.off(), (0, 0),
                             t_end=5e3, dt=1.0, record_stride=10)
    assert np.max(np.abs(traj.dipole)) < 1e-14
    assert np.max(np.abs(traj.populations[:, 1:])) < 1e-16
    assert traj.meta["norm_drift"] < 1e-12


def test_resonant_rabi_frequency(model3, cav, pulse):
    # p_{2,0} and p_{0,1} exchange population at 2 g mu
    traj = propagate_quantum(model3, cav, pulse, (0, 0), t_end=1.6e5, dt=1.0,
                             record_stride=8)
    labels = traj.pop_labels
    mask = traj.post_pulse_mask()
    p20 = traj.populations[mask, labels.index("psi2;N0")]
    p01 = traj.populations[mask, labels.index("psi0;N1")]
    assert p20.max() > 1e-8
    assert p01.max() > 1e-8
    sig = p20 - p20.mean()
    n_fft = 1 << int(np.ceil(np.log2(4 * sig.size)))
    amp = np.abs(np.fft.rfft(sig * np.hanning(sig.size), n=n_fft))
    freqs = 2 * np.pi * np.fft.rfftfreq(n_fft, d=traj.dt_sample)
    peak = freqs[1 + np.argmax(amp[1:])]
    assert peak == pytest.approx(4e-4, rel=0.05)


def test_norm_and_energy_conservation(quantum_p_traj):
    assert quantum_p_traj.meta["norm_drift"] < 1e-8
    assert quantum_p_traj.meta["energy_drift_post_pulse"] < 1e-7


def _largest_differences(a, b):
    return (np.max(np.abs(a.dipole - b.dipole)),
            np.max(np.abs(a.populations - b.populations)),
            np.max(np.abs(a.q2_expect - b.q2_expect)))


@pytest.mark.parametrize("pulse", [KickPulse(), KickPulse.off()], ids=["kicked", "unkicked"])
def test_exact_propagator_matches_rk4(model3, cav, pulse):
    grid = dict(t_end=6e4, dt=1.0, record_stride=8)
    exact = propagate_quantum(model3, cav, pulse, (1, 0), **grid)
    rk4 = propagate_quantum(model3, cav, pulse, (1, 0), **grid, method="rk4")
    d_mu, d_pop, d_q2 = _largest_differences(exact, rk4)
    assert d_mu <= 1e-10
    assert d_pop <= 1e-10
    assert d_q2 <= 1e-8
    assert np.array_equal(exact.times, rk4.times)
    assert rk4.meta["norm_drift"] < 1e-8
    assert rk4.meta["energy_drift_post_pulse"] < 1e-7
    # RK4 stops at the first record at or after the pulse support
    kick_steps = 8 * math.ceil(pulse.support_end / 8.0)
    assert (exact.meta["method"], exact.meta["rk4_steps"]) == ("exact", kick_steps)
    assert exact.meta["exact_records"] == exact.times.size - kick_steps // 8
    assert (rk4.meta["method"], rk4.meta["rk4_steps"], rk4.meta["exact_records"]) == (
        "rk4", 60000, 0)


@pytest.mark.parametrize("start", [(0, 2, 0), (0, 0, 0)], ids=["v0J2M0", "v0J0M0"])
@pytest.mark.parametrize("pulse", [KickPulse(), KickPulse.off()], ids=["kicked", "unkicked"])
def test_exact_propagator_matches_rk4_hcl(hcl_model, pulse, start):
    cav = CavityParams(omega_c=cm1_to_au(2906.46), g=cm1_to_au(400.0),
                       include_dse=True, n_fock_max=2)
    v, j, m = start
    init = (hcl_model.state_index(v=v, J=j, M=m), 0)
    grid = dict(t_end=200.0, dt=1.0, record_stride=4)
    exact = propagate_quantum(hcl_model, cav, pulse, init, **grid)
    rk4 = propagate_quantum(hcl_model, cav, pulse, init, **grid, method="rk4")
    d_mu, d_pop, d_q2 = _largest_differences(exact, rk4)
    assert d_mu <= 1e-10
    assert d_pop <= 1e-10
    assert d_q2 <= 1e-8
    # sum L |b|^2 against <psi|H|psi> of the dense product-basis H
    assert np.max(np.abs(exact.energy - rk4.energy)) <= 1e-10
    assert exact.meta["rk4_steps"] == 4 * math.ceil(pulse.support_end / 4.0)
    if pulse.amplitude == 0.0:
        # mu and q x 1 connect blocks the kick-free state never reaches
        assert not exact.dipole.any() and not exact.q_expect.any()
    else:
        # the kicked signal, a few 1e-6 au, stands well above the bound
        assert np.abs(exact.dipole).max() > 1e-6


def test_exact_tail_chunks_are_invisible(model3, hcl_model, cav, pulse, monkeypatch):
    args = (model3, cav, pulse, (1, 0))
    grid = dict(t_end=2e3, dt=1.0, record_stride=8)
    whole = propagate_quantum(*args, **grid)
    # 7 records per chunk (32 bytes per state and record: psi and its image):
    # the 243 tail records span 35 chunks, the last partial
    monkeypatch.setattr(twinpol.integrators, "TAIL_CHUNK_BYTES", 32 * 9 * 7)
    chunked = propagate_quantum(*args, **grid)
    assert whole.meta["exact_records"] == 243
    fields = ("times", "dipole", "populations", "energy", "q_expect", "q2_expect")
    for name in fields:
        assert np.array_equal(getattr(whole, name), getattr(chunked, name)), name
    # On HCl's 726 states BLAS tiles from_eigenbasis's columns, so a record's
    # bits depend on its place in the chunk: a sum over at most n = 726 terms
    # in another order, bounded by n eps times the series' scale.
    cav = CavityParams(**HCL_CAVITY)
    init = (hcl_model.state_index(v=0, J=2, M=0), 0)
    grid = dict(t_end=800.0, dt=1.0, record_stride=4)
    for kick in (pulse, KickPulse.off()):
        monkeypatch.setattr(twinpol.integrators, "TAIL_CHUNK_BYTES", 2**30)
        whole = propagate_quantum(hcl_model, cav, kick, init, **grid)
        monkeypatch.setattr(twinpol.integrators, "TAIL_CHUNK_BYTES", 32 * 726 * 7)
        chunked = propagate_quantum(hcl_model, cav, kick, init, **grid)
        assert whole.meta["exact_records"] > 7 * 20
        for name in fields:
            a, b = getattr(whole, name), getattr(chunked, name)
            bound = 726 * np.finfo(float).eps * np.max(np.abs(a))
            assert np.max(np.abs(a - b)) <= bound, name


def test_real_matmul_matches_complex_product():
    rng = np.random.default_rng(3)
    op = rng.normal(size=(5, 5))
    for shape in ((5,), (5, 4)):
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.allclose(real_matmul(op, z), op @ z, rtol=0, atol=1e-14)
        assert np.allclose(real_matmul(op.T, z), op.T @ z, rtol=0, atol=1e-14)


def test_static_td_equivalence_moderate(model3, cav, quantum_p_traj):
    # every strong TD peak sits within one bin of a static stick
    basis = ProductBasis.full(model3, 2)
    sol = diagonalize_polaritons(assemble_hamiltonian(model3, cav, basis))
    sticks = static_stick_spectrum(
        sol, model3, basis, [(dominant_eigenstate(sol, basis, (1, 0)), 1.0)])
    # moderate-length fixture run: window ripple sits near 1%, so detect at 2%
    spec = dipole_spectrum(quantum_p_traj,
                           damping_tau=quantum_p_traj.times[-1] / 4.0)
    peaks = detect_peaks(spec, rel_threshold=0.02)
    assert len(peaks.peaks) == 2
    for p in peaks.peaks:
        assert np.min(np.abs(sticks.omega - p.omega)) < spec.meta["bin_width"]


def test_vacuum_photon_observables(model3, cav):
    basis = ProductBasis.full(model3, 2)
    coeffs = np.zeros(basis.size, complex)
    coeffs[basis.index(1, 0)] = 1.0
    state = QuantumState(coeffs, t=0.0, basis=basis)
    q, q2 = photon_observables(state, cav, model3)
    assert q == pytest.approx(0.0, abs=1e-15)
    assert q2 == pytest.approx(1.0 / (2 * cav.omega_c), abs=1e-12)


def test_superposition_photon_displacement(model3, cav):
    # (|k,0> + |k,1>)/sqrt(2): <q> = 1/sqrt(2 w_c) by ladder matrix elements
    basis = ProductBasis.full(model3, 2)
    coeffs = np.zeros(basis.size, complex)
    coeffs[basis.index(0, 0)] = 1 / math.sqrt(2)
    coeffs[basis.index(0, 1)] = 1 / math.sqrt(2)
    state = QuantumState(coeffs, t=0.0, basis=basis)
    q, q2 = photon_observables(state, cav, model3)
    assert q == pytest.approx(1.0 / math.sqrt(2 * cav.omega_c), abs=1e-12)
    assert q2 == pytest.approx(2.0 / (2 * cav.omega_c), abs=1e-12)


def test_q2_operator_exact_on_truncated_space(model3, cav):
    basis = ProductBasis.full(model3, 1)
    q2 = q2_operator(cav, basis)
    top = basis.index(0, 1)
    # algebraic (2N+1) diagonal even at the truncation edge
    assert q2[top, top] == pytest.approx(3.0 / (2 * cav.omega_c))


def test_kick_free_offresonant_run_has_dark_field(model3, cav):
    # without the kick, the initial |psi_1, 0> stays in one parity sector and
    # <q(t)> vanishes identically
    traj = propagate_quantum(model3, cav, KickPulse.off(), (1, 0),
                             t_end=2e4, dt=1.0, record_stride=10)
    assert np.max(np.abs(traj.q_expect)) < 1e-9
    base = 1.0 / (2 * cav.omega_c)
    assert traj.q2_expect.max() - traj.q2_expect.min() > 1e-4 * base


def test_init_not_in_basis(model3, cav, pulse):
    with pytest.raises(ModelError):
        propagate_quantum(model3, cav, pulse, (0, 5), t_end=100.0, dt=1.0)
    with pytest.raises(ModelError, match="method"):
        propagate_quantum(model3, cav, pulse, (0, 0), t_end=100.0, dt=1.0, method="euler")


def test_basis_model_mismatch(model3, cav):
    bad = ProductBasis(((0, 0), (7, 0)))
    with pytest.raises(ModelError):
        assemble_hamiltonian(model3, cav, bad)


def test_stick_csv_schema(model3, cav, tmp_path):
    basis = ProductBasis.full(model3, 2)
    sol = diagonalize_polaritons(assemble_hamiltonian(model3, cav, basis))
    spec = static_stick_spectrum(
        sol, model3, basis, [(dominant_eigenstate(sol, basis, (0, 0)), 1.0)])
    path = tmp_path / "sticks.csv"
    spec.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("omega_cm1,omega_au,intensity,label_i,label_f")

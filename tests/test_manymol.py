import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinpol.manymol
from twinpol import (BasisSizeError, CavityParams, ManifoldBasis, ManyMolConfig,
                     ModelError, PolaritonSolution, ProductBasis,
                     analytic_nonsymmetric_spectrum, analytic_symmetric_spectrum,
                     assemble_hamiltonian, brute_force_spectrum,
                     build_many_molecule_hamiltonian, build_three_level,
                     diagonalize_polaritons, dominant_eigenstate, spectrum_from_state,
                     static_stick_spectrum, thermodynamic_limit_spectrum)
from twinpol.manymol import _check_memory, collective_operator, helmert_rows
from twinpol.spectra import make_stick_spectrum

from helpers import cluster, mu_operator

W02, W12, MU = 10e-3, 8e-3, 1.0


def site_sum(op, n_mol):
    """Sum over sites of op on one molecule of the n_mol-fold product space."""
    n = op.shape[0]
    return sum(np.kron(np.kron(np.eye(n**site), op), np.eye(n**(n_mol - 1 - site)))
               for site in range(n_mol))


def cfg_thermal(n_mol, n0, g=2e-4):
    return ManyMolConfig(n_mol=n_mol, g=g, mu=MU, omega02=W02, omega12=W12, n0=n0)


def cfg_symmetric(n_mol, g=2e-4):
    return ManyMolConfig(n_mol=n_mol, g=g, mu=MU, omega02=W02, omega12=W12,
                         symmetric=True)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 40))
def test_dark_rows_orthonormal_zero_sum(n):
    rows = helmert_rows(n)
    assert rows.shape == (n - 1, n)
    assert np.allclose(rows.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(rows @ rows.T, np.eye(n - 1), atol=1e-12)


def test_manifold_basis_structure():
    mb = ManifoldBasis(n_mol=6, n0=4)
    s = mb.symmetric_row
    assert np.allclose(s, 1 / math.sqrt(4))
    d = mb.dark_rows
    assert np.allclose(d @ s, 0.0, atol=1e-12)
    assert mb.n_ground_states == math.comb(6, 4)


def test_config_validation():
    with pytest.raises(ModelError):
        ManyMolConfig(n_mol=0, g=1e-4, mu=1, omega02=W02, omega12=W12, n0=0)
    with pytest.raises(ModelError):
        ManyMolConfig(n_mol=2, g=1e-4, mu=1, omega02=W02, omega12=W12)
    with pytest.raises(ModelError):
        cfg_thermal(2, 3)


def test_nonsymmetric_single_molecule_reduction():
    spec = analytic_nonsymmetric_spectrum(cfg_thermal(1, 1))
    # R doublet only: the twin/dark terms carry the vanishing C(1, 2) factor
    assert np.allclose(spec.omega, [W02 - 2e-4, W02 + 2e-4])
    assert np.allclose(spec.intensity, [0.5, 0.5])


def test_nonsymmetric_single_molecule_excited():
    spec = analytic_nonsymmetric_spectrum(cfg_thermal(1, 0))
    assert np.allclose(spec.omega, [W12 - 2e-4, W12 + 2e-4])
    assert np.allclose(spec.intensity, [0.5, 0.5])


def test_twin_to_dark_ratio_exact():
    # per-side twin intensity over dark intensity is 1/(2 n0), exactly
    for n_mol, n0 in ((3, 1), (5, 2), (8, 5)):
        spec = analytic_nonsymmetric_spectrum(cfg_thermal(n_mol, n0))
        mech = np.array(spec.meta["mechanism"])
        twin_side = spec.intensity[mech == "twin"][0]
        dark = spec.intensity[mech == "dark"].sum()
        assert twin_side / dark == pytest.approx(1.0 / (2 * n0), rel=1e-12)


def test_analytic_sum_rule_g_independent():
    for make in (lambda g: analytic_nonsymmetric_spectrum(cfg_thermal(4, 2, g)),
                 lambda g: analytic_symmetric_spectrum(cfg_symmetric(4, g))):
        totals = [make(g).intensity.sum() for g in (1e-5, 1e-4, 5e-4)]
        assert max(totals) - min(totals) < 1e-12


def test_symmetric_single_molecule():
    spec = analytic_symmetric_spectrum(cfg_symmetric(1))
    assert np.allclose(sorted(spec.omega),
                       [W12 - 2e-4, W12 + 2e-4, W02 - 2e-4, W02 + 2e-4])
    assert np.allclose(spec.intensity, spec.intensity[0])


def test_symmetric_concentration_large_count():
    # the finite-count formula concentrates each branch's offsets near
    # g mu sqrt(1/2): binomial concentration of sqrt(n0 / n_mol), whose
    # relative width at n_mol = 50 still needs a ~15% window for 95% weight
    g = 2e-4
    spec = analytic_symmetric_spectrum(cfg_symmetric(50, g))
    target = g * MU / math.sqrt(2.0)
    for center, branch in ((W02, "R"), (W12, "P")):
        mask = np.array(spec.meta["branch"]) == branch
        offsets = np.abs(spec.omega[mask] - center)
        weights = spec.intensity[mask]
        close = np.abs(offsets - target) < 0.15 * target
        assert weights[close].sum() / weights.sum() > 0.95
        mean_offset = float(np.average(offsets, weights=weights))
        assert mean_offset == pytest.approx(target, rel=0.03)


def test_thermo_limit_thermal():
    spec = thermodynamic_limit_spectrum(0.5, "thermal", 2e-4, MU, W02, W12)
    off = 2e-4 * math.sqrt(0.5)
    assert np.allclose(spec.omega, [W12, W02 - off, W02 + off])
    assert np.allclose(spec.intensity, [1.0, 0.5, 0.5])
    full = thermodynamic_limit_spectrum(1.0, "thermal", 2e-4, MU, W02, W12)
    assert np.allclose(full.omega, [W12, W02 - 2e-4, W02 + 2e-4])


def test_thermo_limit_symmetric():
    # large-count limit of the finite-count formula: g mu sqrt(1/2) per side
    spec = thermodynamic_limit_spectrum(0.5, "symmetric", 2e-4, MU, W02, W12)
    off = 2e-4 * math.sqrt(0.5) * MU
    assert np.array_equal(spec.omega,
                          np.sort([W02 - off, W02 + off, W12 - off, W12 + off]))
    assert np.array_equal(spec.intensity, np.full(4, MU**2 / 2))
    # the symmetric state fixes r0 = 1/2 and says so, whatever r0 is passed
    other = thermodynamic_limit_spectrum(0.2, "symmetric", 2e-4, MU, W02, W12)
    assert np.array_equal(other.omega, spec.omega)
    assert other.meta["r0"] == 0.5
    with pytest.raises(ModelError):
        thermodynamic_limit_spectrum(0.5, "bogus", 2e-4, MU, W02, W12)
    with pytest.raises(ModelError):
        thermodynamic_limit_spectrum(1.5, "thermal", 2e-4, MU, W02, W12)


def test_single_molecule_hamiltonian_reduction(model3, cav):
    basis = ProductBasis.full(model3, cav.n_fock_max)
    for dse in (False, True):
        cav_d = dataclasses.replace(cav, include_dse=dse)
        h_many, labels = build_many_molecule_hamiltonian(model3, cav_d, 1)
        assert np.array_equal(h_many, assemble_hamiltonian(model3, cav_d, basis))
    assert labels[0] == ((0,), 0)


def test_two_molecule_decoupled_eigenvalues(model3):
    cav = CavityParams(omega_c=1e-2, g=0.0, include_dse=False, n_fock_max=1)
    h, labels = build_many_molecule_hamiltonian(model3, cav, 2)
    expected = sorted(
        model3.energies[i] + model3.energies[j] + n * cav.omega_c
        for i in range(3) for j in range(3) for n in (0, 1))
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), expected, atol=1e-12)


def test_size_guard(model3, cav):
    with pytest.raises(BasisSizeError):
        build_many_molecule_hamiltonian(model3, cav, 9)


def test_memory_budget_admits_reduced_bases():
    # thermal N = 12, n0 = 6 and symmetric N = 50 on occupation bases pass;
    # the product basis at N = 8 is refused; 3 photon states throughout
    _check_memory(math.comb(8, 2) ** 2 * 3, include_dse=True)
    _check_memory(math.comb(52, 2) * 3, include_dse=True)
    with pytest.raises(BasisSizeError, match="19683-state"):
        _check_memory(3**8 * 3, include_dse=False)


@pytest.mark.parametrize("n_mol", [1, 2, 3, 4])
def test_collective_operator_is_product_site_sum(model3, n_mol):
    for op in (model3.dipole, np.diag(model3.energies)):
        assert np.array_equal(collective_operator(op, [1] * n_mol), site_sum(op, n_mol))


@pytest.mark.parametrize("groups", [[2, 3], [6], [1] * 4], ids=["2_3", "6", "1_1_1_1"])
def test_collective_energies_are_the_dense_operators_diagonal(model3, groups):
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=True, n_fock_max=2)
    energies = twinpol.manymol._collective_factors(model3, cav, groups, 2)[0]
    dense = collective_operator(np.diag(model3.energies), groups)
    assert energies.shape == (dense.shape[0],)
    assert np.array_equal(energies, dense.diagonal())


@pytest.mark.parametrize("groups, mu02, mu12", [([2, 3], 0.8731, 1.1234),
                                                ([6], 0.8731, 1.1234), ([3, 9], 1.0, 1.0)],
                         ids=["2_3", "6", "3_9_unit"])
def test_collective_self_energy_is_symmetric_bit_for_bit(groups, mu02, mu12):
    """The self-energy squares mu_tot as mu_squared_matrix squares one
    molecule's dipole; mu_tot @ mu_tot is not symmetric on these groups."""
    model = build_three_level(0.0, 2e-3, 10e-3, mu02, mu12)
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=True, n_fock_max=2)
    within = twinpol.manymol._collective_factors(model, cav, groups, 2)[2]
    assert np.array_equal(within, within.T)


def test_collective_operator_bosonic_elements(model3):
    # two molecules in one group: |2,0,0>, |1,1,0>, |1,0,1>, |0,2,0>, |0,1,1>, |0,0,2>
    mu = collective_operator(model3.dipole, [2])
    assert mu[2, 0] == pytest.approx(math.sqrt(2.0) * MU)      # |2,0,0> -> |1,0,1>
    assert mu[5, 2] == pytest.approx(math.sqrt(2.0) * MU)      # |1,0,1> -> |0,0,2>
    assert mu[4, 3] == pytest.approx(math.sqrt(2.0) * MU)      # |0,2,0> -> |0,1,1>
    assert np.array_equal(np.diag(collective_operator(np.diag(model3.energies), [2])),
                          [0.0, 2e-3, 10e-3, 4e-3, 12e-3, 20e-3])
    # a symmetric group spans the permutation-invariant part of the product space
    full = site_sum(model3.dipole, 2)
    assert np.allclose(np.sort(np.linalg.eigvalsh(mu)),
                       np.sort(np.linalg.eigvalsh(full))[[0, 1, 3, 5, 7, 8]], atol=1e-14)


def test_thermal_brute_force_matches_analytic(model3, cav):
    # N = 3 spot check of the oracle equivalence (full sweep in acceptance)
    n_mol, n0, g = 3, 1, cav.g
    ana = analytic_nonsymmetric_spectrum(cfg_thermal(n_mol, n0, g))
    bf = brute_force_spectrum(model3, cav, n_mol, n0=n0)
    total_a, total_b = ana.intensity.sum(), bf.intensity.sum()
    assert total_b == pytest.approx(total_a, rel=0.01)
    for center, off in ((W02, g * math.sqrt(n0 / n_mol)),
                        (W12, g * math.sqrt((n0 + 1) / n_mol))):
        lo_c, lo_s = cluster(bf, center - off, window=4e-5)
        hi_c, hi_s = cluster(bf, center + off, window=4e-5)
        assert abs((hi_c - lo_c) - 2 * off) < 0.02 * 2 * off
        a_pair = ana.intensity[np.abs(np.abs(ana.omega - center) - off) < 1e-12].sum()
        assert abs((lo_s + hi_s) - a_pair) / total_a < 0.02


@pytest.mark.parametrize("n_mol", [2, 3, 4, 5])
def test_symmetric_brute_force_matches_analytic(model3, cav, n_mol):
    # neighbouring sectors sit 2.1e-5 apart at N = 5, so the cluster window
    # must stay below that; the position bound is tighter than the window
    g = cav.g
    ana = analytic_symmetric_spectrum(cfg_symmetric(n_mol, g))
    bf = brute_force_spectrum(model3, cav, n_mol, symmetric=True)
    floor = 0.02 * bf.intensity.max()
    b_total = bf.intensity[bf.intensity > floor].sum()
    for w_a, i_a in zip(ana.omega, ana.intensity):
        c, s = cluster(bf, w_a, window=1e-5)
        assert c is not None, f"no brute-force stick near {w_a}"
        assert abs(c - w_a) < 8e-6
        assert abs(s / b_total - i_a / ana.intensity.sum()) < 0.02


def test_dark_states_absent_in_symmetric_case():
    spec = analytic_symmetric_spectrum(cfg_symmetric(4))
    assert "dark" not in spec.meta["mechanism"]


@pytest.mark.parametrize("n_mol, n0", [(3, 1), (4, 2), (5, 2)])
def test_thermal_string_sum_matches_brute_force(model3, cav, n_mol, n0):
    # oracle: the incoherent sum over every occupation string, merged once
    h, labels = build_many_molecule_hamiltonian(model3, cav, n_mol)
    sol = diagonalize_polaritons(h)
    mu_op = np.kron(np.eye(cav.n_fock_max + 1), site_sum(model3.dipole, n_mol))
    pos, inten = [], []
    for zeros in itertools.combinations(range(n_mol), n0):
        occ = tuple(0 if site in zeros else 1 for site in range(n_mol))
        chi = np.zeros(len(labels))
        chi[labels.index((occ, 0))] = 1.0
        part = spectrum_from_state(sol, mu_op, chi)
        pos += list(part.omega)
        inten += list(part.intensity)
    oracle = make_stick_spectrum(pos, inten, merge_tol=1e-7)
    bf = brute_force_spectrum(model3, cav, n_mol, n0=n0)
    assert bf.omega.size == oracle.omega.size
    assert np.abs(bf.omega - oracle.omega).max() <= 1e-15
    assert np.abs(bf.intensity - oracle.intensity).max() <= 1e-10 * oracle.intensity.max()


@pytest.mark.parametrize("dse", [False, True])
@pytest.mark.parametrize("n_mol", [2, 3, 4, 5])
def test_symmetric_state_matches_product_basis(model3, cav, n_mol, dse):
    # oracle: the product basis, with ((psi_0 + psi_1)/sqrt(2)) on every site
    cav_d = dataclasses.replace(cav, include_dse=dse)
    h, labels = build_many_molecule_hamiltonian(model3, cav_d, n_mol)
    sol = diagonalize_polaritons(h)
    mu_op = np.kron(np.eye(cav.n_fock_max + 1), site_sum(model3.dipole, n_mol))
    site = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    chi = np.zeros(len(labels))
    chi[: 3**n_mol] = functools.reduce(np.kron, [site] * n_mol)
    oracle = spectrum_from_state(sol, mu_op, chi)
    bf = brute_force_spectrum(model3, cav_d, n_mol, symmetric=True)
    # the molecular factor of mu, applied to each photon slab
    factored = spectrum_from_state(sol, site_sum(model3.dipole, n_mol), chi)
    assert bf.meta["basis_size"] == math.comb(n_mol + 2, 2) * 3 < h.shape[0]
    for spec in (bf, factored):
        assert spec.omega.size == oracle.omega.size
        assert np.abs(spec.omega - oracle.omega).max() <= 1e-15
        assert np.abs(spec.intensity - oracle.intensity).max() <= 1e-10 * oracle.intensity.max()


def test_thermal_brute_force_beyond_product_basis(model3, cav):
    # N = 8, n0 = 4: 675 occupation states where the product basis has 19,683;
    # criterion 5's 2% bounds on the R split and the dark/twin ratio 2 n0
    n_mol, n0, g = 8, 4, cav.g
    bf = brute_force_spectrum(model3, cav, n_mol, n0=n0)
    assert bf.meta["basis_size"] == math.comb(6, 2) ** 2 * 3
    r_off = g * MU * math.sqrt(n0 / n_mol)
    lo_c, _ = cluster(bf, W02 - r_off, window=4e-5)
    hi_c, _ = cluster(bf, W02 + r_off, window=4e-5)
    assert abs((hi_c - lo_c) - 2 * r_off) / (2 * r_off) < 0.02
    tp_off = g * MU * math.sqrt((n0 + 1) / n_mol)
    tp_lo = cluster(bf, W12 - tp_off, window=4e-5)
    tp_hi = cluster(bf, W12 + tp_off, window=4e-5)
    _, dark_s = cluster(bf, W12, window=4e-5)
    ratio = dark_s / (0.5 * (tp_lo[1] + tp_hi[1]))
    assert abs(ratio - 2 * n0) / (2 * n0) < 0.02


def test_thermal_brute_force_uses_one_initial_vector(model3, cav, monkeypatch):
    calls = []
    inner = twinpol.manymol.spectrum_from_state

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(twinpol.manymol, "spectrum_from_state", counted)
    brute_force_spectrum(model3, cav, 4, n0=2)
    assert len(calls) == 1


@pytest.mark.parametrize("kwargs", [{"n0": 2}, {"symmetric": True}])
def test_brute_force_builds_no_product_space_dipole(model3, cav, monkeypatch, kwargs):
    # mu acts through its molecular factor, slab by slab: no Kronecker
    # product reaches the size of the basis diagonalized
    sizes, kron = [], np.kron
    monkeypatch.setattr(np, "kron", lambda a, b: sizes.append(len(a) * len(b))
                        or kron(a, b))
    spec = brute_force_spectrum(model3, cav, 4, **kwargs)
    assert sizes and max(sizes) < spec.meta["basis_size"]


def test_spectrum_from_eigenstate_matches_static_sticks(model3, cav):
    # for chi an eigenstate the manifold sums reduce to |<i|mu|f>|^2 sticks
    cav_d = dataclasses.replace(cav, include_dse=True)
    basis = ProductBasis.full(model3, cav_d.n_fock_max)
    sol = diagonalize_polaritons(assemble_hamiltonian(model3, cav_d, basis))
    mu_op = mu_operator(model3, basis)
    for entry in ((0, 0), (1, 0)):
        i = dominant_eigenstate(sol, basis, entry)
        ref = static_stick_spectrum(sol, model3, basis, [(i, 1.0)])
        ref_keep = ref.intensity > 1e-9 * ref.intensity.max()
        spec = spectrum_from_state(sol, mu_op, sol.eigenvectors[:, i])
        keep = spec.intensity > 1e-9 * spec.intensity.max()
        assert keep.sum() == ref_keep.sum() > 0
        assert np.abs(spec.omega[keep] - ref.omega[ref_keep]).max() <= 1e-15
        rel = np.abs(spec.intensity[keep] - ref.intensity[ref_keep]) / ref.intensity[ref_keep]
        assert rel.max() <= 1e-12


def _solution_3level_dse(model3, cav):
    cav_d = dataclasses.replace(cav, include_dse=True)
    basis = ProductBasis.full(model3, cav_d.n_fock_max)
    return diagonalize_polaritons(assemble_hamiltonian(model3, cav_d, basis)), basis


@pytest.mark.parametrize("scale", [1e-8, 1e3])
def test_spectrum_from_state_is_scale_covariant(model3, cav, scale):
    # the live-manifold cutoff is relative to |chi|^2, so scaling chi by c
    # keeps every position and scales every intensity by c^2, even where an
    # absolute cutoff would drop manifolds (all of them below about 1e-7 chi)
    sol, basis = _solution_3level_dse(model3, cav)
    chi = np.zeros(sol.size)
    chi[basis.index(0, 0)] = 1.0
    ref = spectrum_from_state(sol, model3.dipole, chi)
    spec = spectrum_from_state(sol, model3.dipole, scale * chi)
    assert spec.omega.size == ref.omega.size > 0
    assert np.abs(spec.omega - ref.omega).max() <= 1e-15
    expected = scale**2 * ref.intensity
    assert np.all(np.abs(spec.intensity - expected) <= 1e-12 * expected)


@pytest.mark.parametrize("mu_order, chi_size", [(4, 9), (3, 8), (3, 10)])
def test_spectrum_from_state_refuses_mismatched_sizes(model3, cav, mu_order, chi_size):
    sol, _ = _solution_3level_dse(model3, cav)
    with pytest.raises(ModelError, match="9-state solution"):
        spectrum_from_state(sol, np.eye(mu_order), np.ones(chi_size))


def test_degenerate_basis_rotation_leaves_both_wrappers_unchanged(model3):
    # one block whose eigenvalues repeat exactly; V's columns are rotated
    # inside each repeated eigenvalue, which must move no merged stick
    rng = np.random.default_rng(7)
    evals = np.array([0.0, 2e-3, 2e-3, 2e-3, 9e-3, 1e-2, 1e-2, 1.2e-2, 1.9e-2])
    v = np.linalg.qr(rng.standard_normal((9, 9)))[0]
    rotated = v.copy()
    for idx in ([1, 2, 3], [5, 6]):
        rotated[:, idx] = v[:, idx] @ np.linalg.qr(rng.standard_normal((len(idx),) * 2))[0]
    every = np.arange(9)
    sols = [PolaritonSolution(evals, ((every, every, w),)) for w in (v, rotated)]
    basis = ProductBasis.full(model3, 2)
    # static: the whole repeated manifold, evenly weighted, and one lone state
    initial = [(0, 0.4), (1, 0.2), (2, 0.2), (3, 0.2)]
    chi = rng.standard_normal(9)
    for spectrum in (lambda sol: static_stick_spectrum(sol, model3, basis, initial),
                     lambda sol: spectrum_from_state(sol, model3.dipole, chi)):
        ref, spec = (spectrum(sol) for sol in sols)
        assert spec.omega.size == ref.omega.size > 0
        assert np.abs(spec.omega - ref.omega).max() <= 1e-15
        assert np.abs(spec.intensity - ref.intensity).max() <= 1e-12 * ref.intensity.max()

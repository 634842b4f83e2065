import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinpol.manymol
from twinpol import (BasisSizeError, CavityParams, ManifoldBasis, ManyMolConfig,
                     ModelError, ProductBasis, analytic_nonsymmetric_spectrum,
                     analytic_symmetric_spectrum, assemble_hamiltonian,
                     brute_force_spectrum, build_many_molecule_hamiltonian,
                     diagonalize_polaritons, dominant_eigenstate, spectrum_from_state,
                     static_stick_spectrum, thermodynamic_limit_spectrum)
from twinpol.manymol import _site_sum, helmert_rows
from twinpol.quantum import mu_operator
from twinpol.spectra import make_stick_spectrum

from helpers import cluster

W02, W12, MU = 10e-3, 8e-3, 1.0


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
    mu_op = np.kron(np.eye(cav.n_fock_max + 1), _site_sum(model3.dipole, n_mol))
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


def test_thermal_brute_force_uses_one_initial_vector(model3, cav, monkeypatch):
    calls = []
    inner = twinpol.manymol.spectrum_from_state

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(twinpol.manymol, "spectrum_from_state", counted)
    brute_force_spectrum(model3, cav, 4, n0=2)
    assert len(calls) == 1


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

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinpol import (KB_HARTREE_PER_K, ModelError, MolecularModel, ThermalWeights,
                     boltzmann_weights, build_three_level, mu_squared_matrix)
import twinpol.model
from twinpol.model import load_model_config, parse_quantity
from twinpol.errors import ConfigError


def test_three_level_defaults(model3):
    assert model3.n_states == 3
    assert np.allclose(model3.energies, [0.0, 2e-3, 10e-3])
    assert model3.dipole[0, 2] == model3.dipole[2, 0] == 1.0
    assert model3.dipole[1, 2] == model3.dipole[2, 1] == 1.0
    assert model3.dipole[0, 1] == 0.0
    assert model3.transition_frequency(0, 2) == pytest.approx(10e-3)
    assert model3.transition_frequency(1, 2) == pytest.approx(8e-3)


def test_three_level_zero_couplings():
    m = build_three_level(0.0, 1.0, 2.0, 0.0, 0.0)
    assert np.all(m.dipole == 0.0)


def test_three_level_energy_shift():
    m = build_three_level(-1.0, 0.5, 2.0, 1.0, 1.0)
    assert m.energies[0] == 0.0
    assert m.energies[1] == pytest.approx(1.5)


def test_three_level_ordering_error():
    with pytest.raises(ModelError):
        build_three_level(0.0, 5e-3, 2e-3, 1.0, 1.0)


def test_mu_squared_hand_values(model3):
    # hand matrix-square of the 3x3 dipole matrix
    m2 = mu_squared_matrix(model3)
    assert m2[0, 0] == pytest.approx(1.0)
    assert m2[0, 1] == pytest.approx(1.0)
    assert m2[0, 2] == pytest.approx(0.0)
    assert m2[1, 1] == pytest.approx(1.0)
    assert m2[2, 2] == pytest.approx(2.0)


def test_mu_squared_zero_dipole():
    m = build_three_level(0.0, 1.0, 2.0, 0.0, 0.0)
    assert np.all(mu_squared_matrix(m) == 0.0)


def test_mu_squared_equals_double_sum(hcl_model):
    # brute-force resolution-of-identity sum over all basis states
    m2 = mu_squared_matrix(hcl_model)
    mu = hcl_model.dipole
    n = hcl_model.n_states
    rng = np.random.default_rng(7)
    for i, j in zip(rng.integers(0, n, 25), rng.integers(0, n, 25)):
        direct = sum(mu[i, k] * mu[k, j] for k in range(n))
        assert m2[i, j] == pytest.approx(direct, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=6, max_size=6))
def test_mu_squared_symmetric_psd(vals):
    m = build_three_level(0.0, 1e-3, 3e-3, vals[0], vals[1])
    m2 = mu_squared_matrix(m)
    assert np.allclose(m2, m2.T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(m2) > -1e-12)


def test_boltzmann_low_temperature(model3):
    w = boltzmann_weights(model3, 1e-6)
    assert w.weights[0] == pytest.approx(1.0)
    assert w.weights[1] == 0.0


def test_boltzmann_degenerate_pair():
    m = build_three_level(0.0, 1e-12, 1.0, 1.0, 1.0)
    w = boltzmann_weights(m, 300.0, subset=[0, 1])
    assert w.weights[0] == pytest.approx(0.5, rel=1e-6)
    assert w.weights[1] == pytest.approx(0.5, rel=1e-6)


def test_boltzmann_monotone_in_energy(hcl_model):
    w = boltzmann_weights(hcl_model, 300.0,
                          [k for k, lab in enumerate(hcl_model.labels)
                           if lab["v"] == 0 and lab["M"] == 0])
    ladder = [(hcl_model.energies[k], w.weights[k]) for k in w.subset]
    ladder.sort()
    values = [x[1] for x in ladder]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_boltzmann_empty_subset(model3):
    with pytest.raises(ModelError):
        boltzmann_weights(model3, 300.0, subset=[])


def test_boltzmann_nonpositive_temperature(model3):
    with pytest.raises(ModelError):
        boltzmann_weights(model3, 0.0)


@settings(max_examples=20, deadline=None)
@given(st.floats(1.0, 2000.0))
def test_boltzmann_normalized(model3, temperature):
    w = boltzmann_weights(model3, temperature)
    assert abs(w.weights.sum() - 1.0) < 1e-12
    assert np.all(w.weights >= 0.0)
    # explicit formula check
    beta = 1.0 / (KB_HARTREE_PER_K * temperature)
    ref = np.exp(-beta * model3.energies)
    ref /= ref.sum()
    assert np.allclose(w.weights, ref, atol=1e-12)


def test_json_roundtrip_and_hash(model3, tmp_path):
    path = tmp_path / "model.json"
    model3.save_json(path)
    back = type(model3).load_json(path)
    assert np.array_equal(back.energies, model3.energies)
    assert np.array_equal(back.dipole, model3.dipole)
    assert back.labels == model3.labels
    assert back.content_hash() == model3.content_hash()


def signed_zero_model():
    """A 45-state level model with -0.0, subnormal and extreme entries."""
    n = 45
    rng = np.random.default_rng(2202)
    dipole = np.where(rng.random((n, n)) < 0.3, rng.normal(size=(n, n)), -0.0)
    dipole[0, 1], dipole[1, 2], dipole[2, 3] = 5e-324, 1e300, -0.0
    dipole = np.triu(dipole) + np.triu(dipole, 1).T
    energies = np.concatenate([[-0.0], np.sort(rng.random(n - 1))])
    return MolecularModel(energies, dipole, tuple({"index": k} for k in range(n)))


@pytest.mark.parametrize("which", ["three_level", "hcl", "signed_zero"])
def test_content_hash_is_the_sha1_of_the_json(model3, hcl_model, which):
    """The hash is sha1 of the state count, the energies' and the dipole's
    little-endian float64 bytes, and only the labels as sorted-key JSON (it
    was of the whole model's JSON form)."""
    model = {"three_level": model3, "hcl": hcl_model, "signed_zero": None}[which]
    model = model or signed_zero_model()
    if which == "signed_zero":
        assert np.signbit(model.energies[0]) and model.dipole[0, 1] == 5e-324
    blob = (b"%d;" % model.n_states + model.energies.astype("<f8").tobytes()
            + model.dipole.astype("<f8").tobytes()
            + json.dumps(list(model.labels), sort_keys=True).encode())
    assert model.content_hash() == hashlib.sha1(blob).hexdigest()


def test_content_hash_formats_no_number(hcl_model, monkeypatch):
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(twinpol.model.json, "dumps",
                        lambda obj, **kw: calls.append(obj) or dumps(obj, **kw))
    hcl_model.content_hash()
    assert calls == [list(hcl_model.labels)]


def test_content_hash_tells_apart_bits_and_labels(tmp_path):
    """One ulp in one dipole pair, -0.0 against 0.0 in an energy and a
    changed label each change the hash; a JSON round trip keeps it."""
    model = signed_zero_model()
    dipole, energies = model.dipole.copy(), model.energies.copy()
    k, l = np.argwhere(np.triu(dipole, 1) != 0.0)[5]
    dipole[k, l] = dipole[l, k] = np.nextafter(dipole[k, l], np.inf)
    energies[0] = 0.0
    labels = model.labels[:-1] + ({"index": 99},)
    variants = [MolecularModel(model.energies, dipole, model.labels),
                MolecularModel(energies, model.dipole, model.labels),
                MolecularModel(model.energies, model.dipole, labels)]
    assert len({m.content_hash() for m in [model] + variants}) == 4
    model.save_json(tmp_path / "model.json")
    assert MolecularModel.load_json(tmp_path / "model.json").content_hash() == model.content_hash()


def test_validation_reads_the_nonzero_entries_alone(hcl_model):
    # allclose(dipole, dipole.T) formed several n x n arrays; the nonzero
    # entries are 2% of HCl's dipole
    tracemalloc.start()
    try:
        hcl_model.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hcl_model.dipole.nbytes / 8


def test_symmetry_verdict_is_allcloses():
    verdicts = []
    for seed in range(40):
        rng = np.random.default_rng(2203 + seed)
        n = int(rng.integers(2, 7))
        dipole = np.where(rng.random((n, n)) < 0.5, rng.normal(size=(n, n)), 0.0)
        dipole = np.triu(dipole) + np.triu(dipole, 1).T
        i, k = rng.choice(n, 2, replace=False)
        # one entry moved by a relative step about allclose's rtol, or by an
        # absolute one about its atol, or set to zero
        dipole[i, k] = rng.choice([dipole[i, k] * (1 + rng.choice([5e-6, 2e-5])),
                                   dipole[i, k] + rng.choice([5e-13, 2e-12]), 0.0])
        labels = tuple({"index": q} for q in range(n))
        verdicts.append(np.allclose(dipole, dipole.T, atol=1e-12))
        if verdicts[-1]:
            MolecularModel(np.arange(n, dtype=float), dipole, labels)
        else:
            with pytest.raises(ModelError, match="symmetric"):
                MolecularModel(np.arange(n, dtype=float), dipole, labels)
    assert 10 <= sum(verdicts) <= 30


def test_frozen_fields_leave_the_callers_arrays_writeable():
    energies = np.array([0.0, 1e-2])
    dipole = np.array([[0.0, 1.0], [1.0, 0.0]])
    weights = np.array([0.75, 0.25])
    model = MolecularModel(energies, dipole, ({"index": 0}, {"index": 1}))
    thermal = ThermalWeights(300.0, weights, (0, 1))
    assert energies.flags.writeable and dipole.flags.writeable and weights.flags.writeable
    energies[1] = dipole[0, 1] = weights[0] = 0.5
    assert (model.energies[1], model.dipole[0, 1], thermal.weights[0]) == (1e-2, 1.0, 0.75)
    for frozen in (model.energies, model.dipole, thermal.weights):
        assert not frozen.flags.writeable


def test_parse_quantity_units():
    assert parse_quantity("2906.46 cm-1") == pytest.approx(2906.46 / 219474.6313632)
    assert parse_quantity("1e-2 au") == 1e-2
    assert parse_quantity("300 K") == 300.0
    with pytest.raises(ConfigError):
        parse_quantity("5 lightyears", key="x")
    with pytest.raises(ConfigError):
        parse_quantity("not_a_number au", key="x")


def test_model_config_three_level(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[three_level]\ne1 = 2e-3 au\ne2 = 10e-3 au\n")
    m = load_model_config(cfg)
    assert m.n_states == 3
    assert m.energies[2] == pytest.approx(10e-3)


def test_model_config_unknown_key(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[three_level]\nnonsense = 1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        load_model_config(cfg)


def test_model_config_malformed_file(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[three_level]\ne1 = 2e-3 au\ne1 = 3e-3 au\n")
    with pytest.raises(ConfigError, match="option 'e1' in section 'three_level' already exists"):
        load_model_config(cfg)


def test_model_config_needs_one_model(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[three_level]\ne1 = 2e-3 au\n\n[morse]\nv_max = 1\n")
    with pytest.raises(ConfigError):
        load_model_config(cfg)

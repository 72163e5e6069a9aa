import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldistill import (
    DensityOperator,
    Ket,
    apply_local,
    bell_product_ket,
    dm_from_ensemble,
    dm_to_json,
    partial_trace,
    partial_transpose,
    reorder,
    rho_n,
    to_dense,
)
from belldistill.permutations import H, S
from belldistill.bell import bell_amplitudes
from belldistill.states import check_dense_size, partial_transpose_matrix

from conftest import dump_matrix, kron_state, random_density

SQ2 = 1 / np.sqrt(2)


def test_ket_requires_normalization():
    with pytest.raises(ValueError, match="normalized"):
        Ket(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("shape", [(), (1,), (3,), (6,), (2, 2), (2 ** 13,)])
def test_ket_needs_one_axis_of_two_to_the_q(shape):
    amps = np.zeros(shape)
    amps.flat[:1] = 1.0
    message = "capped at 12 qubits" if shape == (2 ** 13,) else "shape"
    with pytest.raises(ValueError, match=message):
        Ket(amps)


def test_density_operator_invariants_enforced():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(np.diag([1.0, 0, 0, 0]) + 1j * np.eye(4, k=1))
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(4) / 2)
    neg = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityOperator(neg)
    with pytest.raises(ValueError, match="shape"):
        DensityOperator(np.eye(4)[:, :2])


def test_bell_product_ket_bell_pair_example():
    # amplitude 1/2 on |0000>, |0011>, |1100>, |1111> in A1,B1,A2,B2 order
    out = bell_product_ket((1, 1))
    expected = np.zeros(16)
    expected[[0b0000, 0b0011, 0b1100, 0b1111]] = 0.5
    assert np.allclose(out.amplitudes, expected)
    assert out.n_qubits == 4


def test_dm_from_ensemble_examples():
    pure = dm_from_ensemble([(1.0, bell_product_ket((1,)))])
    assert np.allclose(pure.matrix, np.outer(bell_product_ket((1,)).amplitudes,
                                             bell_product_ket((1,)).amplitudes.conj()))
    mixed = dm_from_ensemble([(0.25, bell_product_ket((i,))) for i in (1, 2, 3, 4)])
    assert np.allclose(mixed.matrix, np.eye(4) / 4, atol=1e-14)
    half = dm_from_ensemble([(0.5, bell_product_ket((1,))), (0.5, bell_product_ket((2,)))])
    eig = np.linalg.eigvalsh(half.matrix)
    assert np.allclose(sorted(eig), [0, 0, 0.5, 0.5], atol=1e-12)


def test_dm_from_ensemble_matches_full_outer_products(rng):
    # adding each term on its ket's support only must give the same bytes as
    # adding the full outer product, signed zeros included
    g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    sparse = np.where(np.arange(16) % 3 == 0, g, 0)
    ensembles = [
        [(0.25, bell_product_ket((i,))) for i in (1, 2, 3, 4)],
        [(0.3, Ket(g / np.linalg.norm(g))),
         (0.7, Ket(sparse / np.linalg.norm(sparse)))],
    ]
    ensembles += [[(w, psi) for w, psi in zip(rng.dirichlet(np.ones(4)),
                                              (bell_product_ket((i,)) for i in (4, 2, 1, 3)))]]
    for members in ensembles:
        naive = np.zeros((len(members[0][1].amplitudes),) * 2, dtype=complex)
        for w, psi in members:
            naive += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        assert dm_from_ensemble(members).matrix.tobytes() == naive.tobytes()
    rho = to_dense(rho_n(3))
    naive = np.zeros((64, 64), dtype=complex)
    for i in (1, 2, 3, 4):
        a = bell_product_ket((i,) * 3).amplitudes
        naive += 0.25 * np.outer(a, a.conj())
    assert rho.matrix.tobytes() == naive.tobytes()


def test_dm_from_ensemble_rejects_bad_weights():
    with pytest.raises(ValueError, match="sum"):
        dm_from_ensemble([(0.7, bell_product_ket((1,)))])
    with pytest.raises(ValueError, match="negative"):
        dm_from_ensemble([(-0.5, bell_product_ket((1,))), (1.5, bell_product_ket((2,)))])
    with pytest.raises(ValueError, match="same number of qubits"):
        dm_from_ensemble([(0.5, bell_product_ket((1,))), (0.5, bell_product_ket((1, 1)))])


def test_partial_trace_bell_gives_maximally_mixed():
    rho = bell_product_ket((1,)).to_dm()
    reduced = partial_trace(rho, [0])
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_recovers_factor(rng):
    a = random_density(1, rng)
    b = random_density(1, rng)
    joint = kron_state(a, b)
    back = partial_trace(joint, [0])
    assert np.allclose(back.matrix, a.matrix, atol=1e-13)


def test_partial_trace_unknown_label():
    for keep in ([2], [-1], ["A1"], [0, 0]):
        with pytest.raises(ValueError, match="distinct and in 0..1"):
            partial_trace(bell_product_ket((1,)).to_dm(), keep)


def test_partial_transpose_identity_invariant():
    rho = DensityOperator(np.eye(4) / 4)
    assert np.array_equal(partial_transpose(rho, [1]), np.eye(4) / 4)


def test_partial_transpose_bell_min_eig_matches_bruteforce():
    # independent oracle: build the 4x4 projector by hand and transpose the
    # second qubit via explicit index arithmetic
    psi = np.array([SQ2, 0, 0, SQ2], dtype=complex)
    proj = np.outer(psi, psi.conj())
    brute = np.zeros((4, 4), dtype=complex)
    for a1, b1, a2, b2 in np.ndindex(2, 2, 2, 2):
        brute[2 * a1 + b1, 2 * a2 + b2] = proj[2 * a1 + b2, 2 * a2 + b1]
    oracle_min = np.linalg.eigvalsh(brute)[0]
    assert abs(oracle_min - (-0.5)) < 1e-12

    pt = partial_transpose(bell_product_ket((1,)).to_dm(), [1])
    assert np.allclose(pt, brute, atol=1e-14)
    assert abs(np.linalg.eigvalsh(pt)[0] - oracle_min) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([1, 2]))
def test_partial_transpose_involution_and_trace(seed, n):
    gen = np.random.default_rng(seed)
    rho = random_density(2 * n, gen)
    bob = range(1, 2 * n, 2)
    once = partial_transpose(rho, bob)
    twice = partial_transpose_matrix(once, 2 * n, bob)
    assert np.array_equal(twice, rho.matrix)  # bit-exact involution
    assert abs(np.trace(once).real - 1.0) < 1e-12
    assert np.max(np.abs(once - once.conj().T)) < 1e-12


def test_reorder_roundtrip(rng):
    rho = random_density(4, rng)
    shuffled = reorder(rho, [3, 0, 1, 2])
    back = reorder(shuffled, [1, 2, 3, 0])
    assert np.allclose(back.matrix, rho.matrix, atol=1e-15)
    for order in ([0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4]):
        with pytest.raises(ValueError, match="axes"):
            reorder(rho, order)


def test_reorder_ket_matches_dense_conjugation(rng):
    psi = bell_product_ket((1, 3))
    rotated = reorder(psi, [2, 3, 0, 1])
    # swapping whole copies maps Phi1 x Phi3 to Phi3 x Phi1
    expected = kron_state(bell_product_ket((3,)), bell_product_ket((1,)))
    assert np.allclose(rotated.amplitudes, expected.amplitudes, atol=1e-15)


def test_json_roundtrip_ket_and_dm(rng):
    pure = bell_product_ket((2,)).to_dm()
    text = dm_to_json(pure)
    assert [q["label"] for q in json.loads(text)["qubits"]] == ["A1", "B1"]
    assert np.allclose(dump_matrix(text), pure.matrix)

    rho = random_density(2, rng)
    assert np.allclose(dump_matrix(dm_to_json(rho)), rho.matrix)


def test_bell_pairs_layout_is_copy_major():
    # axes 2j - 2 and 2j - 1 hold copy j's pair, Alice's qubit first
    s = (1, 3, 4)
    rho = bell_product_ket(s).to_dm()
    for j, i in enumerate(s):
        pair = partial_trace(rho, [2 * j, 2 * j + 1])
        phi = bell_amplitudes(i)
        assert np.allclose(pair.matrix, np.outer(phi, phi.conj()), atol=1e-15)
    qubits = json.loads(dm_to_json(rho))["qubits"]
    assert [q["label"] for q in qubits] == ["A1", "B1", "A2", "B2", "A3", "B3"]
    assert [q["owner"] for q in qubits] == ["alice", "bob"] * 3
    assert [q["copy"] for q in qubits] == [1, 1, 2, 2, 3, 3]


def test_dense_cap():
    check_dense_size(12)
    with pytest.raises(ValueError, match="Bell-diagonal"):
        check_dense_size(13)


# --- validation once at the boundary ----------------------------------------


def test_trusted_producers_pass_public_validation(rng):
    rho3 = to_dense(rho_n(3))
    mixed = random_density(2, rng)
    far = bell_product_ket((2,)).to_dm()
    produced = {
        **{f"to_dense(rho_n({n}))": to_dense(rho_n(n)) for n in (1, 2)},
        "to_dense(rho_n(3))": rho3,
        "apply_local": apply_local(mixed, {0: H, 1: S}),
        "reorder": reorder(rho3, [5, 0, 3, 4, 1, 2]),
        "partial_trace": partial_trace(rho3, [0, 3, 4]),
        "Ket.to_dm": far,
    }
    for name, rho in produced.items():
        again = DensityOperator(rho.matrix)
        assert np.array_equal(again.matrix, rho.matrix), name
        assert not rho.matrix.flags.writeable, name


def test_trusted_producers_skip_the_eigensolve(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rho3 = to_dense(rho_n(3))
    partial_trace(rho3, [0, 1])
    assert calls == []
    DensityOperator(rho3.matrix)
    assert calls == [64]


def test_nan_fails_every_sum_and_trace_check():
    # a comparison with NaN is False, so each check must fail unless it holds
    nan = np.full((4, 4), np.nan)
    cases = [
        (lambda: Ket(np.array([np.nan, 0, 0, 0])), "ket is not normalized: |psi|^2 = nan"),
        (lambda: DensityOperator(nan), "matrix is not Hermitian (max asymmetry nan)"),
        (lambda: DensityOperator._trusted(nan), "trace differs from 1 by nan"),
        (lambda: dm_from_ensemble([(float("nan"), bell_product_ket((1,)))]),
         "ensemble weights sum to nan, expected 1"),
    ]
    # a non-finite gate entry reaches the norm or the diagonal, so the
    # trace check of the trusted wrapper catches it
    for bad in (np.nan, np.inf):
        gate = np.array([[bad, 0], [0, 1]])
        cases += [
            (lambda g=gate: apply_local(bell_product_ket((1,)), {0: g}),
             "ket is not normalized: |psi|^2 = nan"),
            (lambda g=gate: apply_local(bell_product_ket((1,)).to_dm(), {1: g}),
             "trace differs from 1 by nan"),
        ]
    for build, message in cases:
        with pytest.raises(ValueError) as err, np.errstate(invalid="ignore"):
            build()
        assert str(err.value) == message


def test_trusted_wrapper_still_checks_trace_and_shape():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator._trusted(np.eye(4) / 2)
    with pytest.raises(ValueError, match="shape"):
        DensityOperator._trusted(np.eye(3) / 3)


def test_apply_local_takes_qubit_axes():
    psi = bell_product_ket((1, 1))
    # Z on Alice's qubit of copy 2 (axis 2) turns Phi1 x Phi1 into Phi1 x Phi2
    out = apply_local(psi, {2: np.diag([1.0, -1.0])})
    assert np.allclose(out.amplitudes, bell_product_ket((1, 2)).amplitudes, atol=1e-15)
    for gates in ({4: H}, {-1: H}, {"A1": H}):
        with pytest.raises(ValueError, match="distinct and in 0..3"):
            apply_local(psi, gates)
    with pytest.raises(ValueError, match="gate for axis 1 must be 2x2"):
        apply_local(psi.to_dm(), {1: np.eye(3)})

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
    rho2_power,
    rho_n,
    sigma_n,
    to_dense,
)
from belldistill.permutations import H, S
from belldistill.bell import BELL_AMPLITUDES
from belldistill import states
from belldistill.states import (_block_labels, _nonzero_entries, check_dense_size,
                                 partial_transpose_matrix)

from conftest import dump_matrix, kron_state, planted_blocks, random_density

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
    twice, _ = partial_transpose_matrix(once, 2 * n, bob)
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
        phi = BELL_AMPLITUDES[i - 1]
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


# --- nonzero-entry kernels against the d x d references they replaced -------


def _reference_labels(m: np.ndarray) -> np.ndarray:
    """Label propagation over the whole d x d pattern: each index takes the
    smallest label among its neighbours in either direction, with pointer
    jumping, until nothing changes."""

    d = len(m)
    nz = m != 0
    label = np.arange(d, dtype=np.int16 if d < 2 ** 15 else np.intp)
    far = label.dtype.type(d)
    while True:
        new = np.minimum(np.where(nz, label, far).min(axis=1),
                         np.where(nz, label[:, None], far).min(axis=0))
        new = np.minimum(new, label)
        if np.array_equal(new, label):
            return label
        label = new[new]


def _reference_partial_transpose(matrix: np.ndarray, n_qubits: int, axes) -> np.ndarray:
    """The partial transpose as a transpose of the 2q axes of length 2,
    returned as that view (no copy of a 12-qubit matrix)."""

    perm = list(range(2 * n_qubits))
    for ax in axes:
        perm[ax], perm[n_qubits + ax] = perm[n_qubits + ax], perm[ax]
    return matrix.reshape((2,) * (2 * n_qubits)).transpose(perm)


def _chain(gen, d):
    """Entries only at (p[i], p[i+1]) for a random order p: one component
    whose every link is nonzero on one side of the diagonal only."""

    p = gen.permutation(d)
    m = np.zeros((d, d), dtype=complex)
    m[p[:-1], p[1:]] = 1.0
    return m


def _dense(gen, d):
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return g + g.conj().T


BELL_DIAGONAL = {
    **{f"rho_n({n})": lambda n=n: rho_n(n) for n in range(1, 7)},
    **{f"rho2_power({m})": lambda m=m: rho2_power(m) for m in (1, 2, 3)},
    "sigma_n(2134,3412,1234)": lambda: sigma_n(["2134", "3412", "1234"]),
    "sigma_n(4321,2413)": lambda: sigma_n(["4321", "2413"]),
}

# sizes 12, 14 and 22 are not powers of two; the block-solve labels must not
# assume one
RANDOM_MATRICES = {
    "planted-12": lambda gen: planted_blocks(gen, (5, 4, 0, 2)),
    "planted-14": lambda gen: planted_blocks(gen, (7, 0, 3, 3)),
    "planted-16": lambda gen: planted_blocks(gen, (8, 1, 0, 4, 2)),
    "planted-22": lambda gen: planted_blocks(gen, (8, 1, 0, 4, 4, 4)),
    "one-sided-16": lambda gen: np.triu(planted_blocks(gen, (6, 1, 5, 4))),
    "one-sided-22": lambda gen: np.tril(planted_blocks(gen, (8, 1, 0, 4, 4, 4)), -1),
    "chain-14": lambda gen: _chain(gen, 14),
    "chain-32": lambda gen: _chain(gen, 32),
    "dense-12": lambda gen: _dense(gen, 12),
    "dense-32": lambda gen: _dense(gen, 32),
    "diagonal-12": lambda gen: np.diag(gen.standard_normal(12)).astype(complex),
    "diagonal-16": lambda gen: np.diag(gen.standard_normal(16)).astype(complex),
    "zero-8": lambda gen: np.zeros((8, 8), dtype=complex),
}


def _random_matrix(name):
    return RANDOM_MATRICES[name](np.random.default_rng(len(name)))


@pytest.mark.parametrize("name", sorted(BELL_DIAGONAL))
def test_block_labels_match_reference_on_bell_diagonal_states(name):
    m = to_dense(BELL_DIAGONAL[name]()).matrix
    assert np.array_equal(_block_labels(m), _reference_labels(m))


@pytest.mark.parametrize("name", sorted(RANDOM_MATRICES))
def test_block_labels_match_reference_on_random_matrices(name):
    m = _random_matrix(name)
    for a in (m, m.T, m.conj().T):
        assert np.array_equal(_block_labels(a), _reference_labels(a))


def _axis_sets(q):
    return [range(1, q, 2), [0], [q - 1], range(q)]


@pytest.mark.parametrize("name", sorted(BELL_DIAGONAL))
def test_partial_transpose_matches_reference_on_bell_diagonal_states(name):
    rho = to_dense(BELL_DIAGONAL[name]())
    q = rho.n_qubits
    for axes in _axis_sets(q) if q < 12 else [range(1, q, 2)]:
        out, _ = partial_transpose_matrix(rho.matrix, q, axes)
        assert out.dtype == rho.matrix.dtype and out.shape == rho.matrix.shape
        assert np.array_equal(out.reshape((2,) * (2 * q)),
                              _reference_partial_transpose(rho.matrix, q, axes))


@pytest.mark.parametrize("name", sorted(n for n in RANDOM_MATRICES
                                        if int(n.split("-")[-1]) in (8, 16, 32)))
def test_partial_transpose_matches_reference_on_random_matrices(name):
    m = _random_matrix(name)
    q = len(m).bit_length() - 1
    for a in (m, m.T):  # the transposed view is not C-contiguous
        for axes in _axis_sets(q):
            assert np.array_equal(partial_transpose_matrix(a, q, axes)[0],
                                  _reference_partial_transpose(a, q, axes).reshape(a.shape))


# --- recorded nonzero entries ---------------------------------------------------


def _entry_set(entries, d):
    """The flat indices of (rows, cols), after checking that none repeats."""

    r, c = entries
    flat = set((np.asarray(r, dtype=np.int64) * d + c).tolist())
    assert len(flat) == len(r)
    return flat


@pytest.mark.parametrize("name", sorted(BELL_DIAGONAL))
def test_recorded_entries_match_the_scan(name):
    rho = to_dense(BELL_DIAGONAL[name]())
    q, d = rho.n_qubits, len(rho.matrix)
    if q >= 6:  # a few candidates per entry of d x d: dm_from_ensemble records them
        assert rho._nz is not None
    assert _entry_set(rho._entries(), d) == _entry_set(_nonzero_entries(rho.matrix), d)
    for axes in _axis_sets(q):
        out, entries = partial_transpose_matrix(rho.matrix, q, axes, rho._entries())
        assert _entry_set(entries, d) == _entry_set(_nonzero_entries(out), d)


def test_recorded_entries_of_to_dm_match_the_scan(rng):
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    a[rng.permutation(16)[:7]] = 0
    for psi, recorded in ((bell_product_ket((1, 3)), True), (bell_product_ket((4,) * 6), True),
                          (Ket(a / np.linalg.norm(a)), False)):  # 81 candidates > 256 / 8
        rho = psi.to_dm()
        d = len(rho.matrix)
        assert (rho._nz is not None) == recorded
        assert _entry_set(rho._entries(), d) == _entry_set(_nonzero_entries(rho.matrix), d)


def test_an_exact_cancellation_is_not_recorded():
    # Phi1 and Phi2 cancel off the diagonal of copy 1: of the 64 candidates
    # on their common support, 32 stay nonzero
    rho = dm_from_ensemble([(0.5, bell_product_ket((1, 1, 1))),
                            (0.5, bell_product_ket((2, 1, 1)))])
    assert len(rho._nz[0]) == 32
    assert _entry_set(rho._nz, 64) == _entry_set(_nonzero_entries(rho.matrix), 64)


def test_a_dense_fill_is_scanned_on_first_use_instead():
    # a full-support ket has d^2 candidates: sorting them costs more than
    # one scan, so none are recorded
    a = np.random.default_rng(1).standard_normal(2 ** 10)
    rho = Ket(a / np.linalg.norm(a)).to_dm()
    assert rho._nz is None
    assert len(rho._entries()[0]) == 2 ** 20


def test_states_with_recorded_entries_never_scan(monkeypatch):
    from belldistill import (fidelity_pure, log_negativity, ppt_check, trace_distance,
                             von_neumann_entropy)

    def refuse(m):
        raise AssertionError("scanned a matrix whose entries were recorded")

    monkeypatch.setattr(states, "_nonzero_entries", refuse)
    rho5 = to_dense(rho_n(5))
    assert von_neumann_entropy(rho5) == pytest.approx(2.0, abs=1e-12)
    assert not ppt_check(rho5).is_ppt
    assert log_negativity(rho5) == pytest.approx(4.0, abs=1e-10)
    assert trace_distance(rho5, rho5) == 0.0
    rho6 = to_dense(rho_n(6))
    for i in (1, 2, 3, 4):
        assert fidelity_pure(rho6, bell_product_ket((i,) * 6)) == pytest.approx(0.25, abs=1e-12)


def test_a_public_state_scans_once(monkeypatch):
    rho = DensityOperator(np.eye(4) / 4)
    calls = []
    real = states._nonzero_entries
    monkeypatch.setattr(states, "_nonzero_entries", lambda m: calls.append(1) or real(m))
    first = rho._entries()
    assert rho._entries() is first and calls == [1]
    assert _entry_set(first, 4) == {0, 5, 10, 15}

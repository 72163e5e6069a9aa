import functools
import json
import math
import sys
import tracemalloc

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
    sample_separable,
    sigma_n,
    to_dense,
)
from belldistill.permutations import LocalUnitaryPair
from belldistill.bell import BELL_AMPLITUDES
from belldistill import states
from belldistill.states import (_block_labels, _nonzero_entries, check_dense_size,
                                 partial_transpose_entries)

from conftest import (dump_matrix, kron_state, planted_blocks, random_density, resident_growth_kib,
                      traced_peak_kib)

SQ2 = 1 / np.sqrt(2)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
X = ((0, 1), (1, 0))  # exact entries, as LocalUnitaryPair keeps them


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
    # 8 qubits: two full-support kets, a sparse one and a Bell product, each added on its support
    wide = [rng.standard_normal(256) + 1j * rng.standard_normal(256) for _ in range(2)]
    kets = [Ket(a / np.linalg.norm(a))
            for a in (wide[0], np.where(np.arange(256) % 5 == 0, wide[0], 0), wide[1])]
    ensembles += [list(zip([0.4, 0.1, 0.3, 0.2], kets + [bell_product_ket((2, 4, 1, 3))]))]
    assert [np.count_nonzero(psi.amplitudes) for _, psi in ensembles[-1]] == [256, 52, 256, 16]
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
    twice = _transposed(once, bob)
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
    assert dump_matrix(text).tobytes() == pure.matrix.tobytes()

    rho = random_density(2, rng)
    assert dump_matrix(dm_to_json(rho)).tobytes() == rho.matrix.tobytes()


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


def _record_solve_widths(monkeypatch, refuse_above=None) -> list[int]:
    """The width of every matrix that np.linalg.eigh or eigvalsh solves (a
    stack of k blocks of width s records s); wider than `refuse_above` raises."""

    widths = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, **kwargs):
            widths.append(np.shape(a)[-1])
            if refuse_above is not None and widths[-1] > refuse_above:
                raise AssertionError(f"solved a {widths[-1]}-wide matrix")
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return widths


def test_trusted_producers_skip_the_eigensolve(monkeypatch):
    calls = _record_solve_widths(monkeypatch)
    rho3 = to_dense(rho_n(3))
    partial_trace(rho3, [0, 1])
    assert calls == []
    # the public constructor solves the 4 x 4 blocks of the 64 x 64 matrix
    DensityOperator(rho3.matrix)
    assert calls and max(calls) <= 4


def test_public_constructor_solves_blocks_only(monkeypatch):
    _record_solve_widths(monkeypatch, refuse_above=16)
    m = to_dense(rho_n(5)).matrix  # 16 MiB, on a private mapping tracemalloc does not see
    tracemalloc.start()
    try:
        rho = DensityOperator(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(rho.matrix, m)
    # one bool scan (m.nbytes / 16) and the 16 KiB of values at the 1,024 entries
    assert peak < 0.125 * m.nbytes

    # a 64 x 64 matrix of 2 x 2 blocks: wide enough that a whole solve is refused
    good = np.kron(np.eye(32), np.full((2, 2), 0.5)) / 32
    DensityOperator(good)
    asym = good.copy()
    asym[0, 7] = 0.25  # its mirror (7, 0) is an exact zero
    negative = good.copy()
    negative[2:4, 2:4] = [[0.5 / 32, 1.0 / 32], [1.0 / 32, 0.5 / 32]]  # eigenvalue -1/64
    nan = good.copy()
    nan[5, 9] = np.nan
    for bad, message in ((asym, "matrix is not Hermitian (max asymmetry 2.50e-01)"),
                         (negative, "matrix has negative eigenvalue -1.56e-02"),
                         (nan, "matrix is not Hermitian (max asymmetry nan)")):
        with pytest.raises(ValueError) as err:
            DensityOperator(bad)
        assert str(err.value) == message


def test_kron_matches_np_kron_bit_for_bit(rng):
    # the same products in the same association, so the same bits, signed
    # zeros included
    signed = np.array([0.0, -0.0, 1.0, -1.0, 0.5j, -0.5j, complex(-0.0, -0.0),
                       complex(0.0, -0.0), complex(-0.0, 1.0), 0.75 - 0.25j])
    for k in range(1, 7):
        for _ in range(4):
            vectors = [rng.normal(size=2 ** rng.integers(1, 3)) + 1j * rng.normal(size=1)
                       for _ in range(k)]
            matrices = [rng.choice(signed, size=(2, 2)) for _ in range(k)]
            for factors in (vectors, matrices):
                expected = functools.reduce(np.kron, factors)
                got = states._kron(factors)
                assert got.shape == expected.shape and got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()


def test_public_constructor_keeps_no_tie_to_the_callers_array(rng):
    # a sparse matrix and a full one
    for m in (to_dense(rho_n(2)).matrix.copy(), random_density(2, rng).matrix.copy()):
        before = m.copy()
        rho = DensityOperator(m)
        assert m.flags.writeable and not rho.matrix.flags.writeable
        m[0, 0] = 5.0
        m[1, 3] = 1.0j
        assert np.array_equal(rho.matrix, before)
        assert not np.shares_memory(rho.matrix, m)


def test_public_constructor_stores_an_off_entry_negative_zero_as_zero():
    # 1 entry of 16: only the entries are copied, and -0.0 == 0.0
    m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    m[1, 2] = complex(-0.0, -0.0)
    rho = DensityOperator(m)
    assert np.array_equal(rho.matrix, m)
    assert not np.signbit(rho.matrix.view(float)).any()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_public_constructor_makes_only_the_entries_pages_resident():
    # 4,096 entries of a 256 MiB matrix: the constructor copies their values,
    # and reading the matrix fills them into a private mapping; a whole copy
    # made 272 MB resident.  About 16 MB of the allowance is the scan's
    # one-byte mask
    grown = resident_growth_kib(
        "import numpy as np\nimport belldistill as bd\nm = bd.to_dense(bd.rho_n(6)).matrix",
        "rho = bd.DensityOperator(m)\nr, c = rho._entries\n"
        "assert r.size == 4096 and np.array_equal(rho.matrix[r, c], m[r, c])")
    assert grown < 32 * 1024  # KiB


def test_equality_is_identity_and_fills_no_matrix():
    # the generated __eq__ compared numpy arrays and raised ValueError, and it
    # would have filled a to_dense state's matrix to compare it
    a, b = to_dense(rho_n(1)), to_dense(rho_n(1))
    psi = bell_product_ket((1,))
    pair = LocalUnitaryPair(X, X)
    for x, twin in ((a, b), (psi, bell_product_ket((1,))), (pair, LocalUnitaryPair(X, X))):
        assert x == x and x != twin and len({x, twin}) == 2
    assert "matrix" not in vars(a) and "matrix" not in vars(b)


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


def _transposed(a: np.ndarray, axes) -> np.ndarray:
    """A matrix holding a's values where `partial_transpose_entries` moves
    a's nonzero entries, and zeros elsewhere."""

    entries = _nonzero_entries(a)
    out = np.zeros(a.shape, dtype=a.dtype)
    out[partial_transpose_entries(len(a).bit_length() - 1, axes, entries)] = a[entries]
    return out


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
    assert np.array_equal(_block_labels(len(m), _nonzero_entries(m)), _reference_labels(m))


@pytest.mark.parametrize("name", sorted(RANDOM_MATRICES))
def test_block_labels_match_reference_on_random_matrices(name):
    m = _random_matrix(name)
    for a in (m, m.T, m.conj().T):
        assert np.array_equal(_block_labels(len(a), _nonzero_entries(a)), _reference_labels(a))


def _axis_sets(q):
    return [range(1, q, 2), [0], [q - 1], range(q)]


@pytest.mark.parametrize("name", sorted(BELL_DIAGONAL))
def test_partial_transpose_matches_reference_on_bell_diagonal_states(name):
    rho = to_dense(BELL_DIAGONAL[name]())
    q = rho.n_qubits
    for axes in _axis_sets(q) if q < 12 else [range(1, q, 2)]:
        out = partial_transpose(rho, axes)
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
            assert np.array_equal(_transposed(a, axes),
                                  _reference_partial_transpose(a, q, axes).reshape(a.shape))


# --- recorded nonzero entries ---------------------------------------------------


def _entry_set(entries, d):
    """The flat indices of (rows, cols), after checking that none repeats."""

    r, c = entries
    flat = set((np.asarray(r, dtype=np.int64) * d + c).tolist())
    assert len(flat) == len(r)
    return flat


def _counting_scans(monkeypatch) -> list[int]:
    """The size of every matrix `states._nonzero_entries` scans from now on."""

    calls = []
    real = states._nonzero_entries
    monkeypatch.setattr(states, "_nonzero_entries", lambda m: calls.append(m.size) or real(m))
    return calls


@pytest.mark.parametrize("name", sorted(BELL_DIAGONAL))
def test_recorded_entries_match_the_scan(name, monkeypatch):
    scans = _counting_scans(monkeypatch)
    rho = to_dense(BELL_DIAGONAL[name]())
    q, d = rho.n_qubits, len(rho.matrix)
    assert scans == []  # to_dense keeps its blocks' entries, whatever the size
    assert _entry_set(rho._entries, d) == _entry_set(_nonzero_entries(rho.matrix), d)
    for axes in _axis_sets(q):
        moved = partial_transpose_entries(q, axes, rho._entries)
        assert _entry_set(moved, d) == _entry_set(_nonzero_entries(partial_transpose(rho, axes)), d)


def test_recorded_entries_of_to_dm_match_the_scan(rng, monkeypatch):
    # every ket's outer product is one block on its support: no state is
    # scanned, and the block's entries are the ones a scan of the matrix finds
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    a[rng.permutation(16)[:7]] = 0
    for psi in (bell_product_ket((1, 3)), bell_product_ket((4,) * 6), Ket(a / np.linalg.norm(a))):
        scans = _counting_scans(monkeypatch)
        rho = psi.to_dm()
        d = len(rho.matrix)
        assert scans == []
        # intp, which numpy's gathers and ufunc.at take without a cast
        assert rho._entries[0].dtype == rho._entries[1].dtype == np.intp
        assert _entry_set(rho._entries, d) == _entry_set(_nonzero_entries(rho.matrix), d)


def test_every_construction_path_holds_the_scans_entries(rng):
    rho3 = to_dense(rho_n(3))
    mixed = random_density(2, rng)
    sparse = dm_from_ensemble([(0.5, bell_product_ket((1, 3))), (0.5, bell_product_ket((2, 3)))])
    a = rng.standard_normal(64)
    full = dm_from_ensemble([(0.5, Ket(a / np.linalg.norm(a))), (0.5, bell_product_ket((2,) * 3))])
    built = {
        "DensityOperator": DensityOperator(mixed.matrix),
        "DensityOperator, block-diagonal": DensityOperator(rho3.matrix),
        "_trusted": DensityOperator._trusted(np.array(rho3.matrix)),
        "dm_from_ensemble, one support": sparse,  # 16 candidates of 256, 8 cancel
        "dm_from_ensemble, overlapping supports": full,  # one block on all 64 indices
        "Ket.to_dm": bell_product_ket((2, 4)).to_dm(),
        "partial_trace": partial_trace(rho3, [0, 3, 4]),
        "reorder": reorder(rho3, [5, 0, 3, 4, 1, 2]),
        "apply_local": apply_local(rho3, {0: H, 3: S}),
        "apply_local, full": apply_local(mixed, {1: S}),
        "to_dense": to_dense(rho_n(3)),
    }
    for name, rho in built.items():
        # one storage: the entries and the values there, the matrix filled from them
        assert "matrix" not in vars(rho), name
        values = rho._values
        assert values.dtype == complex and values.shape == rho._entries[0].shape, name
        assert rho.matrix[rho._entries].tobytes() == values.tobytes(), name
        d = len(rho.matrix)
        assert _entry_set(rho._entries, d) == _entry_set(_nonzero_entries(rho.matrix), d), name


def test_an_exact_cancellation_is_not_recorded():
    # Phi1 and Phi2 cancel off the diagonal of copy 1: of the 64 candidates
    # on their common support, 32 stay nonzero
    rho = dm_from_ensemble([(0.5, bell_product_ket((1, 1, 1))),
                            (0.5, bell_product_ket((2, 1, 1)))])
    assert len(rho._entries[0]) == 32
    assert _entry_set(rho._entries, 64) == _entry_set(_nonzero_entries(rho.matrix), 64)


def test_a_full_support_ket_keeps_its_block_unscanned(monkeypatch):
    # a full-support ket is one block on all d indices: its d^2 entries are
    # the block's, in row-major order, and no matrix is scanned
    a = np.random.default_rng(1).standard_normal(2 ** 10)
    scans = _counting_scans(monkeypatch)
    rho = Ket(a / np.linalg.norm(a)).to_dm()
    assert scans == []
    assert len(rho._entries[0]) == 2 ** 20
    assert np.array_equal(rho._entries, _nonzero_entries(rho.matrix))


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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_full_support_ket_is_one_block_in_memory():
    # a full 10-qubit ket's state is its 16 MiB of values and 16 MiB of intp
    # entries; the peak is its block with one outer product, or the values
    # with the entries (32-34 MiB).  Read 35,500-35,824 KiB grown and
    # 34,907 KiB traced (the same on two runs); 42,384-42,624 and 33,067 KiB
    # when the mixture filled a d x d mapping and scanned it
    setup = ("import numpy as np\nimport belldistill as bd\n"
             "a = np.random.default_rng(1).standard_normal(2 ** 10)\n"
             "psi = bd.Ket(a / np.linalg.norm(a))")
    assert resident_growth_kib(setup, "rho = psi.to_dm()") < 48 * 1024  # KiB
    assert traced_peak_kib(setup, "rho = psi.to_dm()") < 41 * 1024


def test_mixtures_are_built_with_no_matrix_and_no_scan(monkeypatch, tmp_path):
    # to_dense, dm_from_ensemble and sample_separable build each state from its
    # support blocks: no d x d array is filled and no matrix is scanned, in the
    # commands too, and a dump is written from the entries and values
    from click.testing import CliRunner
    from belldistill.cli import main

    def refuse(*args):
        raise AssertionError("filled or scanned a d x d matrix")

    monkeypatch.setattr(states, "_sparse_zeros", refuse)
    monkeypatch.setattr(states, "_nonzero_entries", refuse)
    a = np.random.default_rng(2).standard_normal(2 ** 6)
    full = Ket(a / np.linalg.norm(a))
    dm_to_json(to_dense(rho_n(6)))
    dm_to_json(full.to_dm())
    dm_from_ensemble([(0.5, full), (0.5, bell_product_ket((2,) * 3))])
    sample_separable(3, 4, seed=1)
    for args in (["sigma-equiv", "--perms", "2134,3412,4321,1234,2143,3421", "--method", "both",
                  "--dump", str(tmp_path / "state.json")],
                 ["verify", "eq5", "--m", "3", "--method", "dense"]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (args, result.output, result.exception)


def test_a_public_state_scans_once(monkeypatch):
    from belldistill import log_negativity, trace_distance, von_neumann_entropy

    scans = _counting_scans(monkeypatch)
    rho = DensityOperator(np.eye(4) / 4)
    assert scans == [16]
    assert _entry_set(rho._entries, 4) == {0, 5, 10, 15}
    assert von_neumann_entropy(rho) == 2.0
    assert log_negativity(rho) == 0.0
    assert trace_distance(rho, rho) == 0.0
    assert scans == [16]

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
    bell_product_ket,
    fidelity_pure,
    herm_eig,
    partial_transpose,
    relative_entropy,
    rho_n,
    sigma_n,
    to_dense,
    trace_distance,
    von_neumann_entropy,
)

from belldistill import measures
from belldistill.entropies import _spectrum
from belldistill.states import _nonzero_entries

from conftest import (kron_state, planted_blocks, random_bell_diagonal, random_density,
                      resident_growth_kib, traced_peak_kib)

# a full-support 9-qubit state: one block of 262,144 entries (4 MiB of values)
FULL_NINE_QUBITS = (
    "import numpy as np\nimport belldistill as bd\n"
    "g = np.random.default_rng(9).standard_normal((512, 1024)).view(complex)\n"
    "m = g @ g.conj().T\nrho = bd.DensityOperator(m / np.trace(m).real)\n")


def test_herm_eig_examples():
    vals, vecs = herm_eig(np.diag([1.0, 2.0]))
    assert np.allclose(vals, [2.0, 1.0])
    proj = bell_product_ket((1,)).to_dm()
    vals, vecs = herm_eig(proj)
    assert np.allclose(vals, [1, 0, 0, 0], atol=1e-12)


def test_herm_eig_rho2_spectrum():
    # orthonormality of the two-fold Bell products forces a flat rank-4 spectrum
    vals, vecs = herm_eig(to_dense(rho_n(2)))
    assert np.allclose(vals[:4], 0.25, atol=1e-12)
    assert np.allclose(vals[4:], 0.0, atol=1e-12)


def test_herm_eig_reconstruction(rng):
    rho = random_density(4, rng)
    vals, vecs = herm_eig(rho)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(recon - rho.matrix)) < 1e-9
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(vals)))) < 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.full((2, 2), np.nan), np.diag([1.0, np.nan]),
                                 np.array([[1.0, np.nan], [np.nan, 0.0]])])
def test_herm_eig_rejects_nan(bad):
    # a comparison with NaN is False, so the check must fail unless it holds
    with pytest.raises(ValueError, match=r"not Hermitian \(max asymmetry nan\)"):
        herm_eig(bad)


@pytest.mark.parametrize("sizes", [(1,), (3, 1, 1, 5, 0, 3), (2, 2, 2, 2), (8, 1, 0, 4, 4, 4)])
def test_herm_eig_blocks_match_full_solve(sizes):
    gen = np.random.default_rng(sum(sizes))
    m = planted_blocks(gen, sizes)
    vals, vecs = herm_eig(m)
    full = np.linalg.eigvalsh(m)[::-1]
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    assert np.max(np.abs(vals - full)) <= 1e-12 * scale
    assert np.all(np.diff(vals) <= 0)
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - m)) <= 1e-12 * scale
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(m)))) <= 1e-12


def test_herm_eig_single_block_is_one_full_solve(rng):
    g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    m = g + g.conj().T
    vals, vecs = herm_eig(m)
    full_vals, full_vecs = np.linalg.eigh(m)
    assert np.array_equal(vals, full_vals[::-1])
    assert np.array_equal(vecs, full_vecs[:, ::-1])


def test_entropy_solves_only_small_blocks(monkeypatch):
    # to_dense(rho_n(5)) is 1024 x 1024 but block-diagonal with blocks of at most 32
    widths = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, **kwargs):
            widths.append(np.shape(a)[-1])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    assert von_neumann_entropy(to_dense(rho_n(5))) == pytest.approx(2.0, abs=1e-12)
    assert widths and max(widths) <= 32


def test_entropy_examples():
    assert von_neumann_entropy(bell_product_ket((1,)).to_dm()) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(DensityOperator(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)
    for n in (1, 2, 3):
        assert von_neumann_entropy(to_dense(rho_n(n))) == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_entropy_additive_on_products(seed):
    gen = np.random.default_rng(seed)
    a = random_density(2, gen)
    b = random_density(2, gen)
    joint = kron_state(a, b)
    assert von_neumann_entropy(joint) == pytest.approx(
        von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9)


def test_relative_entropy_examples(rng):
    rho = random_density(2, rng)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    mixed = DensityOperator(np.eye(4) / 4)
    assert relative_entropy(bell_product_ket((1,)).to_dm(), mixed) == pytest.approx(2.0, abs=1e-12)

    disjoint = relative_entropy(bell_product_ket((1,)).to_dm(), bell_product_ket((2,)).to_dm())
    assert math.isinf(disjoint)

    r2 = to_dense(rho_n(2))
    assert relative_entropy(r2, r2) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_rejects_layout_mismatch():
    one = bell_product_ket((1,)).to_dm()
    other = to_dense(rho_n(2))
    for compare in (relative_entropy, trace_distance):
        with pytest.raises(ValueError, match="same number of qubits"):
            compare(one, other)
    with pytest.raises(ValueError, match="same number of qubits"):
        fidelity_pure(other, bell_product_ket((1,)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_relative_entropy_nonnegative_and_faithful(seed):
    gen = np.random.default_rng(seed)
    rho = random_density(2, gen)
    sigma = random_density(2, gen)
    val = relative_entropy(rho, sigma)
    assert val >= -1e-10
    if trace_distance(rho, sigma) > 1e-3:
        assert val > 1e-8


def _random_unitary(gen, d=2):
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_relative_entropy_local_unitary_invariant(seed):
    gen = np.random.default_rng(seed)
    rho = random_density(2, gen)
    sigma = random_density(2, gen)
    u = np.kron(_random_unitary(gen), _random_unitary(gen))
    rho_u = DensityOperator(u @ rho.matrix @ u.conj().T)
    sigma_u = DensityOperator(u @ sigma.matrix @ u.conj().T)
    assert relative_entropy(rho_u, sigma_u) == pytest.approx(
        relative_entropy(rho, sigma), abs=1e-8)


def test_fidelity_examples():
    b1 = bell_product_ket((1,))
    assert fidelity_pure(b1.to_dm(), b1) == pytest.approx(1.0, abs=1e-13)
    assert fidelity_pure(b1.to_dm(), bell_product_ket((2,))) == pytest.approx(0.0, abs=1e-13)
    mixed = DensityOperator(np.eye(4) / 4)
    assert fidelity_pure(mixed, b1) == pytest.approx(0.25, abs=1e-13)


def test_trace_distance_examples():
    b1 = bell_product_ket((1,)).to_dm()
    b2 = bell_product_ket((2,)).to_dm()
    assert trace_distance(b1, b1) == pytest.approx(0.0, abs=1e-13)
    assert trace_distance(b1, b2) == pytest.approx(1.0, abs=1e-12)

    mixed = DensityOperator(np.eye(2) / 2)
    zero = DensityOperator(np.diag([1.0, 0.0]))
    assert trace_distance(mixed, zero) == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fidelity_on_the_support_matches_the_full_product(n, rng):
    rho = to_dense(rho_n(n))
    kets = [bell_product_ket(s) for s in [(i,) * n for i in (1, 2, 3, 4)]
            + [tuple(rng.integers(1, 5, size=n)) for _ in range(2)]]
    for psi in kets:
        a = psi.amplitudes
        full = float(np.real(np.vdot(a, rho.matrix @ a)))
        assert abs(fidelity_pure(rho, psi) - full) <= 1e-15


def test_fidelity_on_the_support_of_a_random_ket(rng):
    rho = random_density(4, rng)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    a[rng.permutation(16)[:7]] = 0
    psi = Ket(a / np.linalg.norm(a))
    full = float(np.real(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes)))
    assert abs(fidelity_pure(rho, psi) - full) <= 1e-15


def test_twelve_qubit_block_solve_scans_only_the_nonzero_entries():
    # to_dense(rho_n(6)) is 4096 x 4096 with 4,096 nonzero entries; labelling
    # the blocks over d x d int16 temporaries peaked at 48 MiB
    m = to_dense(rho_n(6)).matrix
    tracemalloc.start()
    try:
        vals = _spectrum(len(m), e := _nonzero_entries(m), lambda: m[e])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20
    assert np.allclose(vals[-4:], 0.25) and np.allclose(vals[:-4], 0.0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_twelve_qubit_state_makes_only_its_written_pages_resident():
    # the 256 MiB matrix is filled on a private mapping of 4 KiB pages; with
    # numpy's 2 MiB huge pages the same 4,096 entries made 60-90 MB resident.
    # tracemalloc does not see a mapped buffer, so this reads the process's RSS
    # too; it traces 0.42 MiB (the state's entries and values)
    measured = ("rho = bd.to_dense(bd.rho_n(6))\n"
                "for i in (1, 2, 3, 4):\n"
                "    assert abs(bd.fidelity_pure(rho, bd.bell_product_ket((i,) * 6)) - 0.25) < 1e-12")
    assert resident_growth_kib("import belldistill as bd", measured) < 16 * 1024  # KiB
    assert traced_peak_kib("import belldistill as bd", measured) < 512  # KiB


def test_fidelity_of_a_full_state_gathers_the_kets_block_once():
    # the ket's support is all 512 indices: one 4 MiB gather of the values read
    # as the matrix (4.1 MiB traced); a binary search of the 262,144 entries
    # per element of that block traced 13.3 MiB
    measured = ("a = np.random.default_rng(3).standard_normal(1024).view(complex)\n"
                "assert 0 < bd.fidelity_pure(rho, bd.Ket(a / np.linalg.norm(a))) < 1")
    assert traced_peak_kib(FULL_NINE_QUBITS, measured) < 6 * 1024  # KiB


# --- solving from entries ---------------------------------------------------------
#
# The partial transpose and the trace-distance difference are solved from their
# entries and values without filling a d x d matrix.  The reference fills the
# matrix (the public partial_transpose, or a dense difference), scans it and
# solves it; every eigenvalue must agree bit for bit.


def _filled_spectrum(m: np.ndarray) -> np.ndarray:
    return _spectrum(len(m), e := _nonzero_entries(m), lambda: m[e])


def _dense_difference(rho, tau) -> np.ndarray:
    """rho - tau as one matrix, written at the two states' entries (elsewhere
    both are zero), so a 12-qubit difference makes only those pages resident."""

    out = np.zeros(rho.matrix.shape, dtype=complex)
    for r, c in (rho._entries, tau._entries):
        out[r, c] = rho.matrix[r, c] - tau.matrix[r, c]
    return out


def _planted_state(sizes, seed):
    g = planted_blocks(np.random.default_rng(seed), sizes)
    m = g @ g.conj().T  # keeps the planted blocks, exact zeros off them
    return DensityOperator(m / np.trace(m).real)


SOLVED_STATES = {
    **{f"rho_n({n})": lambda n=n: to_dense(rho_n(n)) for n in range(1, 7)},
    **{f"bell-diagonal-{n}": lambda n=n: to_dense(random_bell_diagonal(
        n, np.random.default_rng(n))) for n in (1, 2, 3)},
    **{f"bell-diagonal-{n}-partial": lambda n=n: to_dense(random_bell_diagonal(
        n, np.random.default_rng(10 + n), support=4 ** n // 3 + 1)) for n in (1, 2, 3)},
    "planted-16": lambda: _planted_state((8, 1, 0, 4, 2), 16),
    "planted-64": lambda: _planted_state((16, 8, 8, 4, 4, 2, 1, 0, 0, 19), 64),
    "random-4": lambda: random_density(4, np.random.default_rng(4)),
}


@pytest.mark.parametrize("name", sorted(SOLVED_STATES))
def test_pt_spectrum_from_entries_matches_the_filled_matrix(name):
    rho = SOLVED_STATES[name]()
    filled = _filled_spectrum(partial_transpose(rho, range(1, rho.n_qubits, 2)))
    assert np.array_equal(measures._pt_spectrum(rho), filled)


@pytest.mark.parametrize("name", sorted(SOLVED_STATES))
def test_trace_distance_from_entries_matches_the_dense_difference(name):
    rho = SOLVED_STATES[name]()
    q = rho.n_qubits
    others = [to_dense(rho_n(q // 2)), to_dense(sigma_n(["2134"] * (q // 2 - 1) + ["3412"]))]
    if q <= 8:  # full matrices
        others += [DensityOperator(np.eye(2 ** q) / 2 ** q),
                   random_density(q, np.random.default_rng(q))]
    for tau in others:
        for a, b in ((rho, tau), (tau, rho)):
            filled = 0.5 * np.sum(np.abs(_filled_spectrum(_dense_difference(a, b))))
            assert trace_distance(a, b) == float(filled)


@pytest.mark.parametrize("perms, other, kept", [
    (["2134", "3412"], ["3412", "2134"], 8),  # of 16 entries
    (["2134", "3412", "4321", "1234"], ["3412", "2134", "1234", "4321"], 128),  # of 256
    (["1234"] * 3, ["2143"] * 3, 0),  # of 64: the same state
    (None, ["2134"] * 6, 0),  # rho_n(6) against itself relabelled, 4,096 entries
])
def test_trace_distance_drops_the_entries_that_cancel(perms, other, kept):
    rho = to_dense(rho_n(len(other)) if perms is None else sigma_n(perms))
    tau = to_dense(sigma_n(other))
    diff = _dense_difference(rho, tau)
    assert np.count_nonzero(diff) == kept
    assert trace_distance(rho, tau) == float(0.5 * np.sum(np.abs(_filled_spectrum(diff))))
    assert trace_distance(rho, tau) == (0.0 if kept == 0 else pytest.approx(1.0, abs=1e-12))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_trace_distance_fills_no_matrix_for_sparse_states():
    # the difference has no nonzero entry; filling its 256 MiB matrix on a
    # private mapping made 2.4 MiB resident.  It traces 0.41 MiB
    setup = ("import belldistill as bd\nrho = bd.to_dense(bd.rho_n(6))\n"
             "tau = bd.to_dense(bd.sigma_n(['2134'] * 6))")
    measured = "assert bd.trace_distance(rho, tau) == 0.0"
    assert resident_growth_kib(setup, measured) < 1024  # KiB
    assert traced_peak_kib(setup, measured) < 1024  # KiB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_trace_distance_of_a_full_state_costs_one_filled_matrix():
    # one block: the 4 MiB difference is scattered into one (d, d) array and
    # tau is read a slice at a time (about 5.0 MiB resident, 10.7 MiB traced);
    # a scatter through per-entry block indices made 14.1 MiB resident, two
    # whole gathers of the difference 11.1 MiB, and a binary search of the
    # full state's entries traced 18.3 MiB
    setup = FULL_NINE_QUBITS + "mixed = bd.DensityOperator(np.eye(512) / 512)"
    measured = "assert 0 < bd.trace_distance(rho, mixed) < 1"
    assert resident_growth_kib(setup, measured) < 10 * 1024  # KiB
    assert traced_peak_kib(setup, measured) < 12 * 1024  # KiB

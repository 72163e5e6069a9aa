import itertools
import math
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from belldistill import (
    BellDiagonalState,
    DensityOperator,
    Ket,
    apply_local,
    bell_diagonal_kl,
    bell_product_ket,
    er_bound_even,
    er_bound_odd_doubled,
    er_bound_pair,
    distill_trivial,
    er_search,
    fidelity_pure,
    local_permutation_search,
    log_negativity,
    ppt_check,
    relative_entropy,
    reorder,
    rho2_power,
    rho_n,
    sample_pairwise_separable,
    sample_separable,
    sigma_n,
    smolin_flip_check,
    to_dense,
    trace_distance,
    von_neumann_entropy,
)
from belldistill import bell, measures, states
from belldistill.cli import _gate, main

from conftest import resident_growth_kib, traced_peak_kib


# --- closed forms -------------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 11))
def test_even_bound_structured_exact(m):
    report = er_bound_even(m)
    assert report.value_bits == pytest.approx(2 * m - 2, abs=1e-12)
    assert report.support_contained
    assert report.raw_divergence_bits == pytest.approx(report.value_bits, abs=1e-12)
    assert report.support_overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m, expected", [(1, 0.0), (2, 2.0)])
def test_even_bound_dense(m, expected):
    report = er_bound_even(m, method="dense")
    assert report.value_bits == pytest.approx(expected, abs=1e-8)
    assert report.raw_divergence_bits == pytest.approx(expected, abs=1e-8)
    assert report.support_contained


@pytest.mark.parametrize("m", range(1, 11))
def test_odd_doubled_closed_form(m):
    report = er_bound_odd_doubled(m)
    assert report.value_bits == pytest.approx(4 * m - 2, abs=1e-12)
    assert report.halved_bits == pytest.approx((2 * m + 1) - 2, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_odd_doubled_support_diagnostics(m):
    # for an odd copy count every Bell index occurs an odd number of times in
    # the doubled support strings, so no pair-constant string matches them and
    # the raw divergence is infinite; only the matching-index quarter overlaps
    report = er_bound_odd_doubled(m)
    assert not report.support_contained
    assert math.isinf(report.raw_divergence_bits)
    assert report.support_overlap == pytest.approx(0.25, abs=1e-12)


def test_odd_doubled_raw_matches_general_kl():
    p = rho_n(3).tensor(rho_n(3))
    from belldistill import rho2_power

    assert math.isinf(bell_diagonal_kl(p, rho2_power(3)))


def test_odd_upper_certificate_is_n_minus_one():
    # rho_2 and rho_1 = I/4 are separable, so sigma = rho_2^((n-1)/2) (x) rho_1 is;
    # each string "ii...i" of rho_n weighs 1/4 there against 4^-((n+1)/2) in sigma,
    # so E_R(rho_n) <= n - 1 for odd n, up to rho2_power's cap of 511 blocks
    for n in range(3, 1024, 2):
        sigma = rho2_power((n - 1) // 2).tensor(rho_n(1))
        assert bell_diagonal_kl(rho_n(n), sigma) == n - 1, n


@pytest.mark.parametrize("n", range(2, 11))
def test_pair_bound_all_n(n):
    report = er_bound_pair(n)
    assert report.value_bits == pytest.approx(2 * n - 4, abs=1e-12)
    assert report.support_contained == (n % 2 == 0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_large_pair_bound_streams_its_strings():
    # rho_n(n) is held once and the 16 strings of 2n digits are made one at a
    # time, a byte per digit: about 2 MB (17 MB as tuples of ints); traced, 1,956 KiB
    pair = ("r = bd.er_bound_pair(250000)\n"
            "assert r.value_bits == 2 * 250000 - 4 and r.support_contained")
    assert resident_growth_kib("import belldistill as bd", pair) < 8 * 1024  # KiB
    assert traced_peak_kib("import belldistill as bd", pair) < 3 * 1024  # KiB
    # rho_n(10^6) against the pair reference: about 5 MB (39 MB as tuples of
    # ints); traced, 4,884 KiB
    even = ("r = bd.er_bound_even(500000)\n"
            "assert r.value_bits == 2 * 500000 - 2 and r.support_contained")
    assert resident_growth_kib("import belldistill as bd", even) < 10 * 1024  # KiB
    assert traced_peak_kib("import belldistill as bd", even) < 6 * 1024  # KiB


def test_to_dense_states_map_no_matrix_until_it_is_read(monkeypatch):
    # a to_dense state is kept as its entries and the values there, which every
    # check, solve, fidelity and distance reads; its d x d matrix is mapped and
    # filled only when a caller reads .matrix, and then once
    mapped = []
    fill = states._sparse_zeros
    for module in (states, bell):  # bell's own binding, where it has one
        monkeypatch.setattr(module, "_sparse_zeros",
                            lambda d: mapped.append(d) or fill(d), raising=False)
    rho, tau, sigma = map(to_dense, (rho_n(4), sigma_n(["2134"] + ["1234"] * 3), rho2_power(2)))
    assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)
    assert not ppt_check(rho).is_ppt
    assert log_negativity(rho) == pytest.approx(2.0, abs=1e-12)
    assert fidelity_pure(rho, bell_product_ket((1,) * 4)) == pytest.approx(0.25, abs=1e-15)
    assert trace_distance(rho, tau) == pytest.approx(0.5, abs=1e-12)
    assert relative_entropy(rho, sigma) == pytest.approx(2.0, abs=1e-12)
    for args in ("verify eq5 --m 3 --method dense", "verify er-pair --n 3 --method dense"):
        assert CliRunner().invoke(main, args.split()).exit_code == 0
    assert mapped == []
    assert rho.matrix is rho.matrix and not rho.matrix.flags.writeable
    assert mapped == [256]


def test_distill_trivial_builds_the_two_copy_mixture_once(monkeypatch):
    # ppt_check and the flip residual read one to_dense(rho_n(2))
    built = []
    monkeypatch.setattr(measures, "to_dense", lambda b: built.append(b) or to_dense(b))
    assert distill_trivial(2)["pass"] and len(built) == 1
    assert smolin_flip_check() == 0.0 and len(built) == 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_ppt_and_log_negativity_fill_no_matrix_for_sparse_states():
    # rho_n(6) has 4,096 entries of 16.8 million: the spectrum is solved from
    # the moved entries; filling the partial transpose on a private mapping
    # made 17.6 MiB resident
    grown = resident_growth_kib(
        "import belldistill as bd\nrho = bd.to_dense(bd.rho_n(6))",
        "assert not bd.ppt_check(rho).is_ppt\n"
        "assert abs(bd.log_negativity(rho) - 4.0) < 1e-9")
    assert grown < 4 * 1024  # KiB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_ppt_of_a_full_state_costs_one_filled_matrix():
    # one block: the moved entries are scattered into one (d, d) array from
    # values made for the scatter (about 1.5 MiB resident); a scatter through
    # per-entry block indices made 9.8 MiB resident, just under this bound, so
    # the full-state trace-distance guard is the one that catches that case
    grown = resident_growth_kib(
        "import numpy as np\nimport belldistill as bd\n"
        "g = np.random.default_rng(9).standard_normal((512, 1024)).view(complex)\n"
        "m = g @ g.conj().T\nrho = bd.DensityOperator(m / np.trace(m).real)",
        "assert -1 < bd.ppt_check(rho).min_eigenvalue < 1")
    assert grown < 10 * 1024  # KiB


def test_ppt_traced_peaks():
    # VmHWM misses what the measured code reuses of memory the setup freed;
    # tracemalloc, started after the setup, sees every array.  rho_n(6) reads
    # 0.55 MiB and the full 9-qubit state 10.1 MiB (the moved entries, their
    # values and the one 512 x 512 array they are scattered into)
    assert traced_peak_kib(
        "import belldistill as bd\nrho = bd.to_dense(bd.rho_n(6))",
        "assert not bd.ppt_check(rho).is_ppt") < 1024  # KiB
    assert traced_peak_kib(
        "import numpy as np\nimport belldistill as bd\n"
        "g = np.random.default_rng(9).standard_normal((512, 1024)).view(complex)\n"
        "m = g @ g.conj().T\nrho = bd.DensityOperator(m / np.trace(m).real)",
        "assert -1 < bd.ppt_check(rho).min_eigenvalue < 1") < 12 * 1024  # KiB


def test_pair_bound_n2_coincides_dense():
    report = er_bound_pair(2, method="dense")
    assert report.value_bits == pytest.approx(0.0, abs=1e-8)
    assert report.raw_divergence_bits == pytest.approx(0.0, abs=1e-8)


def test_even_bound_rejects_oversize_dense():
    with pytest.raises(ValueError, match="capped at 12 qubits"):
        er_bound_even(4, method="dense")


# --- PPT / negativity -----------------------------------------------------------


def test_ppt_examples():
    r1 = ppt_check(to_dense(rho_n(1)))
    assert r1.is_ppt and r1.min_eigenvalue == pytest.approx(0.25, abs=1e-12)

    r2 = ppt_check(to_dense(rho_n(2)))
    assert r2.is_ppt and r2.min_eigenvalue >= -1e-10

    bell = ppt_check(bell_product_ket((1,)).to_dm())
    assert not bell.is_ppt
    assert bell.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def test_log_negativity_examples():
    assert log_negativity(bell_product_ket((1,)).to_dm()) == pytest.approx(1.0, abs=1e-12)
    assert log_negativity(to_dense(rho_n(2))) == pytest.approx(0.0, abs=1e-10)


def test_log_negativity_is_never_below_zero():
    # rounding gave -3.2e-16 for rho_1 and -6.4e-16 for rho_2
    for n in (1, 2):
        assert log_negativity(to_dense(rho_n(n))) == 0.0
    rho = to_dense(rho_n(2))
    object.__setattr__(rho, "_pt_spectrum", np.array([0.25, 0.25, 0.5 - 1e-6]))
    with pytest.raises(RuntimeError, match="trace norm .* < 1"):
        log_negativity(rho)


def test_ppt_and_log_negativity_share_one_partial_transpose(monkeypatch):
    calls = []
    real = measures.partial_transpose_entries

    def counting(*args):
        calls.append(args[0])  # the qubit count
        return real(*args)

    monkeypatch.setattr(measures, "partial_transpose_entries", counting)
    rho = to_dense(rho_n(3))
    report = ppt_check(rho)
    value = log_negativity(rho)
    assert calls == [6]
    assert report == ppt_check(rho) and value == log_negativity(rho) == pytest.approx(2.0)
    assert calls == [6]
    log_negativity(to_dense(rho_n(3)))  # a new state solves its own
    assert calls == [6, 6]


def test_log_negativity_rho3_bruteforce():
    # independent oracle: partial transpose of the 64x64 matrix by explicit
    # index arithmetic over Bob's three qubits
    rho = to_dense(rho_n(3)).matrix
    t = rho.reshape((2,) * 12)
    # layout A1,B1,A2,B2,A3,B3: Bob's row axes 1,3,5 swap with col axes 7,9,11
    perm = list(range(12))
    for ax in (1, 3, 5):
        perm[ax], perm[6 + ax] = perm[6 + ax], perm[ax]
    brute = t.transpose(perm).reshape(64, 64)
    brute_logneg = math.log2(np.abs(np.linalg.eigvalsh(brute)).sum())

    value = log_negativity(to_dense(rho_n(3)))
    assert value == pytest.approx(brute_logneg, abs=1e-10)
    assert value >= 1.0 - 1e-10  # distillation yield n-2 never exceeds it
    assert value == pytest.approx(2.0, abs=1e-10)


# --- separable sampling -----------------------------------------------------------


def test_sample_separable_single_term_is_pure_product():
    sigma = sample_separable(2, terms=1, seed=5)
    assert ppt_check(sigma).is_ppt
    vals = np.linalg.eigvalsh(sigma.matrix)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)


def test_sample_separable_checks_the_cap_before_allocating():
    # 14 qubits would be a 16384 x 16384 complex matrix (4 GiB)
    with pytest.raises(ValueError, match="capped at 12 qubits"):
        sample_separable(7, 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="copy count must be an integer >= 1"):
            sample_separable(n, 1)


def test_sample_separable_reproducible():
    a = sample_separable(2, terms=8, seed=11)
    b = sample_separable(2, terms=8, seed=11)
    assert np.array_equal(a.matrix, b.matrix)


def _block_order(n):
    """Axis order that takes a state on A1..An,B1..Bn to A1,B1,...,An,Bn."""

    return [ax for j in range(n) for ax in (j, n + j)]


def test_sample_separable_matches_relabeled_block_mixture():
    # the sampler as first built: the mixture on the A1..An,B1..Bn register,
    # then relabeled into the copy-major order
    for n in (1, 2, 3):
        d = 2 ** n
        for seed in (0, 5, 11, 2024):
            for terms in (1, 6):
                rng = np.random.default_rng(seed)
                sigma = np.zeros((d * d, d * d), dtype=complex)
                for w in rng.dirichlet(np.ones(terms)):
                    v = np.kron(measures._random_pure(rng, d), measures._random_pure(rng, d))
                    sigma += w * np.outer(v, v.conj())
                reference = reorder(DensityOperator(sigma), _block_order(n))
                sampled = sample_separable(n, terms=terms, seed=seed)
                assert np.array_equal(sampled.matrix, reference.matrix), (n, seed, terms)


def test_dense_builders_make_no_intermediate_kets(monkeypatch):
    made = []
    real = Ket.__post_init__

    def counting(self):
        made.append(len(self.amplitudes).bit_length() - 1)
        real(self)

    monkeypatch.setattr(Ket, "__post_init__", counting)
    to_dense(rho_n(6))  # each z pattern's block is filled from amplitudes, with no ket
    assert made == []
    er_search(3, restarts=2, budget=50, seed=1)
    assert made == []


@pytest.mark.parametrize("batch", range(4))
def test_sampled_separables_ppt_and_bounded_away(batch):
    r2 = to_dense(rho_n(2))
    for k in range(50):
        sigma = sample_separable(2, terms=16, seed=[93, batch, k])
        assert ppt_check(sigma).is_ppt
        assert relative_entropy(r2, sigma) > 1e-6


def test_pairwise_separable_floor_two_bits(rng):
    # product-of-blocks candidates can reach exactly 2 bits but never less
    p4 = rho_n(4)
    values = [bell_diagonal_kl(p4, sample_pairwise_separable(2, rng))
              for _ in range(300)]
    assert min(values) >= 2.0 - 1e-6


def test_pairwise_separable_weight_sum_is_exact():
    # a running float sum over these 4^8 product weights drifted past the
    # 1e-12 tolerance and rejected a valid state
    sigma = sample_pairwise_separable(4, np.random.default_rng(609))
    assert len(sigma.weights) == 4 ** 8
    assert math.fsum(sigma.weights.values()) == pytest.approx(1.0, abs=1e-12)


# --- search ---------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_er_search_exact_values(n):
    # n - 2 for even n; n - 1 for odd n, where X^n and Z^n anticommute
    report = er_search(n, restarts=1, seed=n)
    assert report.value_bits == pytest.approx(n - 2 if n % 2 == 0 else n - 1, abs=1e-9)
    assert report.floor_bits == max(n - 2, 0)


def _certificate(report) -> DensityOperator:
    """Separable Bell-diagonal state built from the reported product state
    by local unitaries only: a Pauli twirl P x P* on every copy, then the
    average over the Klein permutations applied to every copy."""

    n = report.n
    product = reorder(Ket(np.kron(report.alice_state, report.bob_state)),
                      _block_order(n)).to_dm()
    x, z = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1, -1]).astype(complex)
    paulis = (np.eye(2, dtype=complex), x, z, x @ z)
    twirled = np.zeros_like(product.matrix)
    for string in itertools.product(paulis, repeat=n):
        gates = {}
        for j, p in enumerate(string):
            gates[2 * j], gates[2 * j + 1] = p, p.conj()
        twirled += apply_local(product, gates).matrix / 4 ** n
    twirled = DensityOperator(twirled)
    sigma = np.zeros_like(twirled.matrix)
    for perm in ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)):
        pair = local_permutation_search(perm)
        gates = {}
        for j in range(n):
            gates[2 * j] = _gate(pair.u_alice, pair.k_alice)
            gates[2 * j + 1] = _gate(pair.u_bob, pair.k_bob)
        sigma += apply_local(twirled, gates).matrix / 4
    return DensityOperator(sigma)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_er_search_dense_certificate(n):
    report = er_search(n, restarts=1, seed=7)
    sigma = _certificate(report)
    # the twirl left a Bell-diagonal state with equal constant-string weights
    weights = {s: fidelity_pure(sigma, bell_product_ket(s))
               for s in itertools.product((1, 2, 3, 4), repeat=n)}
    diagonal = BellDiagonalState(n, {s: w for s, w in weights.items() if w > 1e-15})
    assert np.allclose(to_dense(diagonal).matrix, sigma.matrix, atol=1e-12)
    constant = [weights[(i,) * n] for i in (1, 2, 3, 4)]
    assert max(constant) - min(constant) <= 1e-12
    assert ppt_check(sigma).is_ppt
    assert relative_entropy(to_dense(rho_n(n)), sigma) == pytest.approx(
        report.value_bits, abs=1e-12)


def test_er_search_maximally_mixed_target():
    report = er_search(1, restarts=5, budget=1200, seed=2)
    assert report.value_bits == pytest.approx(0.0, abs=1e-9)
    assert report.floor_bits == 0.0


def test_er_search_two_copy_target_converges():
    report = er_search(2, restarts=1, seed=0)
    assert report.value_bits == pytest.approx(0.0, abs=1e-9)
    assert report.samples <= 2  # one alternation reaches G, one confirms it


def test_er_search_reproducible():
    a = er_search(3, restarts=2, budget=300, seed=9)
    b = er_search(3, restarts=2, budget=300, seed=9)
    assert a.value_bits == b.value_bits
    assert a.to_dict() == b.to_dict()
    assert np.array_equal(a.alice_state, b.alice_state)
    assert a.to_dict()["method"] == "product-overlap"
    assert len(a.restart_values) == 2


@pytest.mark.parametrize("seed", [0, 5])
def test_er_search_restart_starts_do_not_depend_on_restart_count(seed):
    # restart r seeds its own generator from (seed, r)
    five = er_search(3, restarts=5, seed=seed).restart_values
    assert five[:3] == er_search(3, restarts=3, seed=seed).restart_values


def test_er_search_floor_breach_raises(monkeypatch):
    # an overlap above the true maximum would put the bound below E_D = n - 2
    top = measures._top_vector
    monkeypatch.setattr(measures, "_top_vector", lambda u: (4 * top(u)[0], top(u)[1]))
    with pytest.raises(RuntimeError, match="floor"):
        er_search(4, restarts=1)


def test_er_search_rejects_bad_budget():
    with pytest.raises(ValueError, match="budget"):
        er_search(2, budget=0)


def test_pair_bound_at_the_copy_limit_checks_no_string(monkeypatch):
    # rho_n builds its constant strings through the trusted route
    def refuse(indices, n):
        raise AssertionError("a Bell string was re-checked")

    monkeypatch.setattr(bell, "check_bell_string", refuse)
    report = er_bound_even(500000)
    assert report.value_bits == 999998.0

"""Acceptance suite: every criterion as one test with its stated tolerance.

Run `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from belldistill import (
    DensityOperator,
    bell_diagonal_kl,
    distill_trivial,
    er_bound_pair,
    er_search,
    invert_permutation,
    local_permutation_search,
    permutation_action,
    permutation_table,
    relative_entropy,
    rho_n,
    sample_pairwise_separable,
    sample_separable,
    sigma_n,
    to_dense,
    trace_distance,
)
from belldistill.cli import main
from belldistill.permutations import ALL_PERMUTATIONS, LocalUnitaryPair, S
from belldistill.states import apply_local

from conftest import random_bell_diagonal, random_density


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_cli(args):
    result = CliRunner().invoke(main, args)
    if result.exit_code not in (0, 1, 2):
        raise result.exception
    return result


def test_acceptance_even_divergence_closed_form():
    t0 = time.perf_counter()
    for m, expected in ((1, 0.0), (2, 2.0)):
        result = run_cli(["verify", "eq5", "--m", str(m), "--method", "dense"])
        value = json.loads(result.stdout)["checks"][0]["computed"]
        assert result.exit_code == 0 and abs(value - expected) <= 1e-8, (m, value)
    dense_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    for m in range(1, 11):
        result = run_cli(["verify", "eq5", "--m", str(m)])
        value = json.loads(result.stdout)["checks"][0]["computed"]
        assert result.exit_code == 0 and abs(value - (2 * m - 2)) <= 1e-12, (m, value)
    structured_time = time.perf_counter() - t0
    ok = dense_time < 30.0
    report("eq5 closed form", ok,
           f"dense m=1,2 in {dense_time:.2f}s (<30s), structured m=1..10 "
           f"exact in {structured_time:.2f}s")


def test_acceptance_odd_doubled_closed_form():
    for m in range(1, 11):
        result = run_cli(["verify", "eq10", "--m", str(m)])
        data = json.loads(result.stdout)
        checks = {c["name"]: c for c in data["checks"]}
        value = checks["divergence_bits"]["computed"]
        halved = checks["halved_bits"]["computed"]
        assert result.exit_code == 0
        assert abs(value - (4 * m - 2)) <= 1e-12, (m, value)
        assert abs(halved - ((2 * m + 1) - 2)) <= 1e-12, (m, halved)
    report("eq10 closed form", True,
           "structured 4m-2 and halved n-2 exact for m=1..10")


def test_acceptance_pair_byproduct():
    for n in range(2, 11):
        value = er_bound_pair(n).value_bits
        assert abs(value - (2 * n - 4)) <= 1e-12, (n, value)
        result = run_cli(["verify", "er-pair", "--n", str(n)])
        assert result.exit_code == 0
    report("er-pair byproduct", True, "2n-4 exact for n=2..10")


@pytest.mark.parametrize("n", [3, 4, 5, 50])
def test_acceptance_distillation(n):
    t0 = time.perf_counter()
    result = run_cli(["distill", "--n", str(n), "--shots", "10000", "--seed", "0"])
    elapsed = time.perf_counter() - t0
    data = json.loads(result.stdout)
    ok = (result.exit_code == 0
          and data["ebits_per_shot"] == n - 2
          and data["success_rate"] == 1.0
          and data["mean_fidelity"] >= 1 - 1e-12
          and elapsed < 10.0)
    report(f"distillation n={n}", ok,
           f"{data['ebits_per_shot']} ebits/shot, success {data['success_rate']}, "
           f"mean fidelity {data['mean_fidelity']}, {elapsed:.2f}s (<10s)")


def test_acceptance_trivial_cases():
    r1 = distill_trivial(1)
    r2 = distill_trivial(2)
    ok = (r1["distance_to_maximally_mixed"] <= 1e-12
          and r2["ppt_min_eigenvalue"] >= -1e-10
          and r2["smolin_residual"] <= 1e-10)
    report("trivial cases", ok,
           f"n=1 distance {r1['distance_to_maximally_mixed']:.1e} (<=1e-12), "
           f"n=2 PT min eig {r2['ppt_min_eigenvalue']:.1e} (>=-1e-10), "
           f"flip residual {r2['smolin_residual']:.1e} (<=1e-10)")


def test_acceptance_permutations():
    t0 = time.perf_counter()
    table = permutation_table()
    found = 0
    for perm in ALL_PERMUTATIONS:
        pair = local_permutation_search(perm)
        action = permutation_action(pair)
        assert action is not None and action.perm == perm
        found += 1
    phase_pair = permutation_action(LocalUnitaryPair(S, S))
    swap_ok = (phase_pair.perm == (2, 1, 3, 4)
               and abs(abs(phase_pair.phases[2]) - 1.0) <= 1e-9
               and abs(abs(phase_pair.phases[3]) - 1.0) <= 1e-9)
    elapsed = time.perf_counter() - t0
    ok = found == 24 and len(table) == 24 and swap_ok and elapsed < 5.0
    report("permutation realizability", ok,
           f"{found}/24 realized and verified, phase-gate pair gives (1<->2), "
           f"{elapsed:.2f}s (<5s)")


def test_acceptance_sigma_equivalence():
    rng = np.random.default_rng(2024)
    identity = list(range(1, 5))

    def random_perm():
        return tuple(int(x) for x in rng.permutation(identity))

    rho3 = to_dense(rho_n(3))
    worst_dense = 0.0
    for _ in range(20):
        perms = [random_perm() for _ in range(3)]
        sigma = to_dense(sigma_n(perms))
        gates = {}
        for j, perm in enumerate(perms):
            pair = local_permutation_search(invert_permutation(perm))
            gates[2 * j] = pair.u_alice
            gates[2 * j + 1] = pair.u_bob
        mapped = apply_local(sigma, gates)
        worst_dense = max(worst_dense, trace_distance(mapped, rho3))
    dense_ok = worst_dense <= 1e-9

    structured_ok = True
    target8 = rho_n(8).weights
    for _ in range(20):
        perms = [random_perm() for _ in range(8)]
        corrected = sigma_n(perms).permute_per_copy(
            [invert_permutation(p) for p in perms])
        structured_ok &= corrected.weights == target8

    report("sigma equivalence", dense_ok and structured_ok,
           f"dense n=3 worst distance {worst_dense:.2e} (<=1e-9), "
           f"structured n=8 exact on 20 random lists")


def test_acceptance_property_suite():
    rng = np.random.default_rng(777)

    # dense <-> structured agreement, 50 random Bell-diagonal pairs, n <= 3
    worst_gap = 0.0
    for k in range(50):
        n = int(rng.integers(1, 4))
        p = random_bell_diagonal(n, rng)
        q = random_bell_diagonal(n, rng)
        gap = abs(relative_entropy(to_dense(p), to_dense(q)) - bell_diagonal_kl(p, q))
        worst_gap = max(worst_gap, gap)
    agreement_ok = worst_gap <= 1e-8

    # non-negativity and local-unitary invariance, 100 random instances
    invariance_ok = True
    nonneg_ok = True
    for _ in range(100):
        rho = random_density(2, rng)
        sigma = random_density(2, rng)
        val = relative_entropy(rho, sigma)
        nonneg_ok &= val >= -1e-10
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        qa, ra = np.linalg.qr(g)
        ua = qa * (np.diagonal(ra) / np.abs(np.diagonal(ra)))
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        qb, rb = np.linalg.qr(g)
        ub = qb * (np.diagonal(rb) / np.abs(np.diagonal(rb)))
        u = np.kron(ua, ub)
        rotated = relative_entropy(
            DensityOperator(u @ rho.matrix @ u.conj().T),
            DensityOperator(u @ sigma.matrix @ u.conj().T))
        invariance_ok &= abs(rotated - val) <= 1e-8

    # 1000 seeded separable samples at n=2: strictly above the mixture
    r2 = to_dense(rho_n(2))
    min_dense = math.inf
    for k in range(1000):
        sigma = sample_separable(2, terms=16, rng=np.random.default_rng([555, k]))
        min_dense = min(min_dense, relative_entropy(r2, sigma))
    dense_floor_ok = min_dense > 1e-6

    # 1000 structured separable candidates at m=2: floor 2 bits
    srng = np.random.default_rng(556)
    p4 = rho_n(4)
    min_structured = min(
        bell_diagonal_kl(p4, sample_pairwise_separable(2, srng)) for _ in range(1000))
    structured_floor_ok = min_structured >= 2.0 - 1e-6

    ok = agreement_ok and nonneg_ok and invariance_ok and dense_floor_ok and structured_floor_ok
    report("property suite", ok,
           f"agreement gap {worst_gap:.1e} (<=1e-8), nonneg+invariance on 100, "
           f"sep samples min {min_dense:.3f} (>1e-6), "
           f"pairwise candidates min {min_structured:.3f} (>=2)")


def test_acceptance_exploratory_search():
    values = {n: er_search(n, restarts=1, seed=n).best_bits for n in range(1, 7)}
    exact = all(abs(v - (n - 2 if n % 2 == 0 else n - 1)) <= 1e-9
                for n, v in values.items())

    a = er_search(3, restarts=2, seed=17)
    b = er_search(3, restarts=2, seed=17)
    reproducible = a.to_dict() == b.to_dict() and a.seed == 17

    report("product-overlap bound", exact and reproducible,
           "n=1..6 " + ", ".join(f"{v:.6f}" for v in values.values())
           + " (n-2 even, n-1 odd, within 1e-9); "
           f"reproducible with seed {a.seed}")

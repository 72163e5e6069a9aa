"""Entanglement-measure computations and bounds.

The uniform four-Bell mixture on 2m copies has relative entropy exactly
2m - 2 against the m-fold product of two-copy blocks, and that candidate is
separable, so the relative entropy of entanglement is bounded by the same
closed form the distillation protocol achieves.  This module evaluates the
closed forms, the raw divergences behind them, PPT/negativity and zero-yield
evidence, separable-state sampling, and the relative entropy of entanglement
of the n-copy mixture from its largest product-state overlap.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from .bell import (
    BELL_AMPLITUDES,
    BellDiagonalState,
    _count,
    is_pair_constant,
    rho2_power,
    rho_n,
    to_dense,
)
from .entropies import (
    SUPPORT_CUTOFF,
    SUPPORT_LEAK_TOL,
    _divergence,
    _spectrum,
    shannon_bits,
    trace_distance,
)
from .states import (DensityOperator, Ket, _kron, check_dense_size, dm_from_ensemble,
                     partial_transpose_entries, reorder)


class DivergenceReport(NamedTuple):
    """Closed-form divergence value plus the honest support diagnostics.

    `value_bits` is the flat-reference closed form log2(support size of the
    reference) minus the entropy of the target.  When the target's support
    lies inside the reference's support this equals the raw divergence; when
    it does not (the odd-copy doubled case), the raw divergence is infinite
    and `support_contained` is False.  Both numbers are reported so callers
    never mistake one for the other.
    """

    method: str
    value_bits: float
    raw_divergence_bits: float
    support_contained: bool
    support_overlap: float
    halved_bits: float | None = None


def _structured_vs_pair_reference(p: BellDiagonalState) -> DivergenceReport:
    """Compare a Bell-diagonal state against the pairwise two-copy product
    reference (flat weight 4^-m over pair-constant strings) without
    materializing the reference."""

    if p.n % 2 != 0:
        raise ValueError("pair reference needs an even total copy count")
    ref_bits = float(p.n)  # -log2 of the flat support weight 4^-(n/2)
    overlap = raw = 0.0
    contained = True
    for s, w in p.weights.items():
        if is_pair_constant(s):
            overlap += w
            raw += w * (math.log2(w) + ref_bits)
        else:
            contained = False
    return DivergenceReport(
        method="structured",
        value_bits=ref_bits - p.entropy_bits(),
        raw_divergence_bits=raw if contained else math.inf,
        support_contained=contained,
        support_overlap=overlap,
    )


def _dense_vs_reference(p_dense: DensityOperator, q_dense: DensityOperator) -> DivergenceReport:
    """Dense counterpart: the reference must be flat on its support."""

    # sigma's blocks give support, flatness, overlap and the raw divergence;
    # rho's spectrum gives its entropy (each matrix is solved once)
    vals, w = _spectrum(q_dense._d, q_dense._entries, lambda: q_dense._values, weigh=p_dense)
    on_support = vals > SUPPORT_CUTOFF
    support_vals = vals[on_support]
    if support_vals.size == 0:
        raise ValueError("reference state has empty support")
    flat = float(support_vals.max() - support_vals.min())
    if flat > 1e-9:
        raise ValueError(f"reference is not flat on its support (spread {flat:.2e})")
    ref_bits = -math.log2(float(support_vals.mean()))
    overlap = float(np.sum(np.clip(w[on_support], 0.0, None)))
    contained = (1.0 - overlap) <= SUPPORT_LEAK_TOL
    p = _spectrum(p_dense._d, p_dense._entries, lambda: p_dense._values)[::-1]
    raw = _divergence(p, vals[::-1], w[::-1])
    value = ref_bits - shannon_bits(np.clip(p, 0.0, None))
    return DivergenceReport(
        method="dense",
        value_bits=value,
        raw_divergence_bits=raw,
        support_contained=contained,
        support_overlap=overlap,
    )


def _versus_pair_reference(copies: int, build, method: str) -> DivergenceReport:
    """Compare `build()`, a state on `copies` copies, against the
    (copies / 2)-fold two-copy product by `method`; the dense cap is checked
    before anything is built."""

    if method == "structured":
        return _structured_vs_pair_reference(build())
    if method == "dense":
        check_dense_size(2 * copies)
        return _dense_vs_reference(to_dense(build()), to_dense(rho2_power(copies // 2)))
    raise ValueError(f"unknown method {method!r}")


def er_bound_even(m: int, method: str = "structured") -> DivergenceReport:
    """Divergence of the 2m-copy mixture from the m-fold two-copy product.

    Equals 2m - 2 exactly; here the support containment is genuine, so the
    closed form and the raw divergence agree.
    """

    m = _count(m, "block count")
    return _versus_pair_reference(2 * m, lambda: rho_n(2 * m), method)


def er_bound_pair(n: int, method: str = "structured") -> DivergenceReport:
    """Divergence of two independent n-copy mixtures from the n-fold
    two-copy product: closed form 2n - 4.

    For even n the 2n copies split into whole pairs inside each factor and
    the closed form is the raw divergence.  For odd n no pairing avoids one
    pair straddling the two factors (each Bell index would have to occur an
    even number of times in a pair-constant string, but it occurs n times),
    so the reference covers only 1/4 of the target's weight and the raw
    divergence is infinite; the closed form extends the even-n pattern and
    is reported with `support_contained=False`.
    """

    n = _count(n, "copy count")
    return _versus_pair_reference(2 * n, lambda: (r := rho_n(n)).tensor(r), method)


def er_bound_odd_doubled(m: int, method: str = "structured") -> DivergenceReport:
    """The odd-copy chain: two copies of the (2m+1)-copy mixture against the
    (2m+1)-fold two-copy product.  Closed form 4m - 2; the halved value
    (2m+1) - 2 is the per-copy bound the distillation yield meets.

    See `er_bound_pair` for why the raw divergence is infinite here.
    """

    m = _count(m, "block count")
    report = er_bound_pair(2 * m + 1, method=method)
    return report._replace(halved_bits=report.value_bits / 2.0)


# --- PPT / negativity and the zero-yield evidence ------------------------------


class PptReport(NamedTuple):
    min_eigenvalue: float
    is_ppt: bool


def _pt_spectrum(rho: DensityOperator) -> np.ndarray:
    """Ascending spectrum of the partial transpose over Bob's qubits, the odd
    axes, solved once per state from its moved entries and kept on it as `_pt_spectrum`."""

    if rho._pt_spectrum is None:
        moved = partial_transpose_entries(rho.n_qubits, range(1, rho.n_qubits, 2), rho._entries)
        spectrum = _spectrum(rho._d, moved, lambda: rho._values)
        object.__setattr__(rho, "_pt_spectrum", spectrum)
    return rho._pt_spectrum


def ppt_check(rho: DensityOperator) -> PptReport:
    """Spectrum test of the partial transpose across the Alice:Bob cut."""

    min_eig = float(_pt_spectrum(rho)[0])
    return PptReport(min_eigenvalue=min_eig, is_ppt=min_eig >= -1e-10)


def log_negativity(rho: DensityOperator) -> float:
    """log2 of the trace norm of the partial transpose (bits), at least 0."""

    norm = float(np.sum(np.abs(_pt_spectrum(rho))))
    if not norm >= 1.0 - 1e-9:  # the norm is at least Tr rho^Gamma = 1; NaN fails too
        raise RuntimeError(f"partial transpose has trace norm {norm} < 1, a bug")
    return max(0.0, math.log2(norm))


def smolin_flip_check(rho: DensityOperator | None = None) -> float:
    """Trace distance between the two-copy mixture `rho` (by default built here)
    and its flip, the same state with qubits A2 and B1 swapped.  The flip re-forms
    the Bell pairs across (A1, A2) and (B1, B2), so its every term is a product
    across the Alice:Bob cut; a residual of 0 shows that the mixture is separable."""

    rho = to_dense(rho_n(2)) if rho is None else rho
    return trace_distance(rho, reorder(rho, [0, 2, 1, 3]))


def distill_trivial(n: int) -> dict:
    """The zero-yield payload with its evidence and pass flag.  n = 1: the
    mixture is maximally mixed (trace distance at most 1e-12).  n = 2: it is
    PPT and equals its flipped, manifestly separable form (residual at most
    1e-10).  Either way 0 ebits."""

    out = {"command": "distill", "n": n, "ebits_per_shot": 0, "success_rate": 1.0}
    if n == 1:
        mixed = DensityOperator(np.eye(4, dtype=complex) / 4.0)
        out["distance_to_maximally_mixed"] = trace_distance(to_dense(rho_n(1)), mixed)
        out["pass"] = out["distance_to_maximally_mixed"] <= 1e-12
    elif n == 2:
        ppt = ppt_check(rho := to_dense(rho_n(2)))
        out.update(ppt_min_eigenvalue=ppt.min_eigenvalue, is_ppt=ppt.is_ppt,
                   smolin_residual=smolin_flip_check(rho))
        out["pass"] = ppt.is_ppt and out["smolin_residual"] <= 1e-10
    else:
        raise ValueError("trivial cases are n = 1 and n = 2; use distill for n >= 3")
    return out


# --- Separable-state sampling ------------------------------------------------


def _random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def sample_separable(n: int, terms: int, seed=0) -> DensityOperator:
    """Random mixture of `terms` product states across the Alice:Bob cut,
    with uniform-simplex weights.  Reproducible from the seed, which is
    anything `np.random.default_rng` takes (an int or a list of ints)."""

    n = _count(n, "copy count")
    terms = _count(terms, "term count")
    check_dense_size(2 * n)
    rng = np.random.default_rng(seed)
    d = 2 ** n
    copy_major = [ax for j in range(n) for ax in (j, n + j)]  # A1..An,B1..Bn -> A1,B1,...
    members = []
    for w in rng.dirichlet(np.ones(terms)):
        v = _kron([_random_pure(rng, d), _random_pure(rng, d)])
        members.append((w, Ket(v.reshape((2,) * (2 * n)).transpose(copy_major).reshape(-1))))
    return dm_from_ensemble(members)


def sample_pairwise_separable(m: int, rng: np.random.Generator) -> BellDiagonalState:
    """Random separable Bell-diagonal state on 2m copies.

    Each two-copy block is an independent mixture lambda * (uniform over its
    four constant strings) + (1 - lambda) * (uniform over all 16 strings).
    The first component is the flip-identity separable block and the second
    is maximally mixed, so every draw is separable by construction.
    """

    m = _count(m, "block count")
    lams = rng.uniform(0.0, 1.0, size=m)
    block_weights = []
    for lam in lams:
        w = {}
        for k1 in (1, 2, 3, 4):
            for k2 in (1, 2, 3, 4):
                w[(k1, k2)] = lam * 0.25 * (k1 == k2) + (1.0 - lam) / 16.0
        block_weights.append(BellDiagonalState(2, w))
    return block_weights[0].tensor(*block_weights[1:])


# --- Product-overlap bound ---------------------------------------------------


class ErReport(NamedTuple):
    """Outcome of one bound computation; embeds everything needed to
    reproduce it.  Every field but the last two is a key of the E_R payload;
    `alice_state` and `bob_state` are the best product state found, on the
    A1..An and B1..Bn blocks."""

    target: str
    n: int
    value_bits: float
    floor_bits: float
    restarts: int
    budget: int
    seed: int
    samples: int  # alternations run
    restart_values: tuple[float, ...]
    alice_state: np.ndarray
    bob_state: np.ndarray

    def to_dict(self) -> dict:
        fields = self._asdict()
        del fields["alice_state"], fields["bob_state"]
        return {"method": "product-overlap", **fields}


def _top_vector(u: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of sum_i u_i u_i^dagger over the columns u_i, and
    its unit eigenvector, from the small Gram matrix u^dagger u."""

    vals, vecs = np.linalg.eigh(u.conj().T @ u)
    v = u @ vecs[:, -1]
    return float(vals[-1]), v / np.linalg.norm(v)


def er_search(n: int, restarts: int = 20, budget: int = 8000, seed: int = 0) -> ErReport:
    """Upper bound on the relative entropy of entanglement of the n-copy
    mixture from its largest overlap with a product state.

    Local Pauli twirls leave the mixture fixed and keep separable states
    separable, so E_R = -2 - log2 G, where G is the largest overlap
    <ab|rho_n|ab> with a product state |a>_A |b>_B (Vedral-Plenio 1998).
    Twirling |ab> and averaging it over the Klein permutations on every copy
    gives a separable state at exactly that divergence, so every value
    reported here is attained.  G is maximized by alternating top
    eigenvectors: with |a> fixed, the best |b> is the top eigenvector of
    sum_i u_i u_i^dagger, u_i = (<a| x I)|Phi_i^n>, and vice versa.  Each
    alternation costs O(4^n).  A restart stops when G stops rising or after
    `budget` alternations.  Restart r starts from a Haar-random |a>, 2^n
    complex Gaussian amplitudes normalised, drawn from its own
    `random.Random(f"{seed}:{r}")`, so it starts the same whatever the
    number of restarts.

    The result is n - 2 for even n and n - 1 for odd n (where X^n and Z^n
    anticommute, so G <= 2^-(n+1)).  Any value below the proven floor
    E_R >= E_D >= n - 2 raises, since it can only come from a bug; a value
    within 1e-9 below it is rounding and is reported as the floor.
    """

    n = _count(n, "copy count")
    restarts = _count(restarts, "restart count")
    budget = _count(budget, "budget")
    if n > 6:
        raise ValueError(f"the product-overlap bound is dense; needs 1 <= n <= 6 "
                         f"(12 qubits), got n={n}")
    d = 2 ** n
    # v[i] is |Phi_i^n> with rows on Alice's qubits A1..An and columns on Bob's
    v = np.stack([_kron([phi.reshape(2, 2)] * n) for phi in BELL_AMPLITUDES])
    floor = float(max(n - 2, 0))
    best_g = 0.0
    best_state = None
    evaluations = 0
    restart_values = []
    for r in range(restarts):
        rng = random.Random(f"{seed}:{r}")
        z = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * d)]).view(complex)
        a = z / np.linalg.norm(z)
        g = 0.0
        for _ in range(budget):
            _, b = _top_vector(np.einsum("j,ijk->ki", a.conj(), v))
            lam, a_next = _top_vector(np.einsum("k,ijk->ji", b.conj(), v))
            evaluations += 1
            if lam / 4.0 <= g * (1.0 + 1e-12):
                break
            g, a = lam / 4.0, a_next
            state = (a, b)
        restart_values.append(-2.0 - math.log2(g))
        if g > best_g:
            best_g, best_state = g, state
    best = -2.0 - math.log2(best_g)
    if best < floor - 1e-9:
        raise RuntimeError(
            f"bound {best} undercuts the proven floor {floor}; "
            "this indicates a bug, not a better separable state"
        )
    return ErReport(
        target=f"rho_n({n})",
        n=n,
        value_bits=max(best, floor),
        floor_bits=floor,
        restarts=restarts,
        budget=budget,
        seed=seed,
        samples=evaluations,
        restart_values=tuple(max(v, floor) for v in restart_values),
        alice_state=best_state[0],
        bob_state=best_state[1],
    )

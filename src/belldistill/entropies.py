"""Spectral quantities: eigendecomposition, entropies, fidelity, distances.

All logarithms are base 2, so entropies and divergences are in bits and one
ebit is the entanglement of one Bell pair.
"""

from __future__ import annotations

import math

import numpy as np

from .states import DensityOperator, Ket, _eigh_blocks, _kept_entries, _sparse_zeros

# Eigenvalues at or below this are treated as exact zeros for entropy and
# support purposes; dimensions are <= 4096 so eigensolver noise stays well
# below it.
SUPPORT_CUTOFF = 1e-10
# Relative-entropy support leak: if more of rho's weight than this lies
# outside sigma's support, the divergence is infinite.
SUPPORT_LEAK_TOL = 1e-9

HERM_INPUT_TOL = 1e-10


def herm_eig(matrix: np.ndarray | DensityOperator):
    """Eigenvalues (real, descending) and matching orthonormal eigenvectors.

    Rejects inputs that are not Hermitian within 1e-10.  Blocks of the
    exact-nonzero pattern are solved separately.
    """

    m = matrix.matrix if isinstance(matrix, DensityOperator) else np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.conj().T)))
    if not asym <= HERM_INPUT_TOL:  # NaN fails too
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.2e})")
    d = len(m)
    vals = np.empty(d)
    vecs = np.zeros((d, d), dtype=complex)
    start = 0
    for rows, values, block_vecs in _eigh_blocks(m):
        cols = start + np.arange(rows.size).reshape(rows.shape)
        vals[cols] = values
        vecs[rows[:, :, None], cols[:, None, :]] = block_vecs
        start += rows.size
    order = np.argsort(vals, kind="stable")[::-1]
    return vals[order], vecs[:, order]


def _spectrum(m: np.ndarray, entries=None, weigh: np.ndarray | None = None):
    """Eigenvalues of a Hermitian matrix in ascending order, solved block by
    block over its `entries` (the stable sort keeps the order of a one-block
    solve).  With `weigh`, also the weight <v|weigh|v> on each eigenvector v,
    in the same order, from the diagonal blocks of `weigh` only."""

    groups = _eigh_blocks(m, vectors=weigh is not None, entries=entries)
    vals = np.concatenate([values.ravel() for _, values, _ in groups])
    order = np.argsort(vals, kind="stable")
    if weigh is None:
        return vals[order]
    w = np.concatenate([
        np.real(np.sum(v.conj() * (weigh[rows[:, :, None], rows[:, None, :]] @ v), axis=1)).ravel()
        for rows, _, v in groups])
    return vals[order], w[order]


def shannon_bits(probs: np.ndarray) -> float:
    """-sum p log2 p with 0 log 0 = 0."""

    p = np.asarray(probs, dtype=float)
    p = p[p > SUPPORT_CUTOFF]
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    return shannon_bits(np.clip(_spectrum(rho.matrix, rho._entries())[::-1], 0.0, None))


def _divergence(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> float:
    """Tr rho (log2 rho - log2 sigma) from rho's spectrum p, sigma's spectrum
    q and rho's weight w on sigma's eigenvectors, summed in the given order."""

    w = np.clip(w, 0.0, None)
    on_support = q > SUPPORT_CUTOFF
    leak = float(np.sum(w[~on_support]))
    if leak > SUPPORT_LEAK_TOL:
        return math.inf
    p_pos = p[p > SUPPORT_CUTOFF]
    s_rho = float(np.sum(p_pos * np.log2(p_pos)))
    cross = float(np.sum(w[on_support] * np.log2(q[on_support])))
    return s_rho - cross


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Tr rho (log2 rho - log2 sigma) via spectral decompositions.

    Returns math.inf when the support of rho is not contained in the support
    of sigma (support = eigenvalues above 1e-10; more than 1e-9 of rho's
    weight outside sigma's support counts as non-containment).  Callers must
    branch on math.isinf rather than compare against a large float.
    """

    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError("states must have the same number of qubits")
    q, w = _spectrum(sigma.matrix, sigma._entries(), weigh=rho.matrix)
    return _divergence(_spectrum(rho.matrix, rho._entries())[::-1], q[::-1], w[::-1])


def fidelity_pure(rho: DensityOperator, psi: Ket) -> float:
    """<psi| rho |psi> for a pure reference state, from the block of rho on
    the ket's support only: the other terms are exact zeros, although the
    shorter sums may round differently in the last place."""

    if len(rho.matrix) != len(psi.amplitudes):
        raise ValueError("states must have the same number of qubits")
    on = np.flatnonzero(psi.amplitudes)
    a = psi.amplitudes[on]
    return float(np.real(np.vdot(a, rho.matrix[np.ix_(on, on)] @ a)))


def trace_distance(rho: DensityOperator, tau: DensityOperator) -> float:
    """(1/2) ||rho - tau||_1 from the eigenvalues of the difference, at the entries only."""

    if rho.matrix.shape != tau.matrix.shape:
        raise ValueError("states must have the same number of qubits")
    d = len(rho.matrix)
    k = np.concatenate([r * d + c for r, c in (rho._entries(), tau._entries())])
    diff = _sparse_zeros(d)
    np.put(diff, k, np.take(rho.matrix, k) - np.take(tau.matrix, k))
    return float(0.5 * np.sum(np.abs(_spectrum(diff, _kept_entries(diff, k)))))

"""Spectral quantities: eigendecomposition, entropies, fidelity, distances.

All logarithms are base 2, so entropies and divergences are in bits and one
ebit is the entanglement of one Bell pair.
"""

from __future__ import annotations

import math

import numpy as np

from .states import (DensityOperator, Ket, _eigh_blocks, _hermitian_entries, _nonzero_among,
                     _real_diagonal)

# Eigenvalues at or below this are treated as exact zeros for entropy and
# support purposes; dimensions are <= 4096 so eigensolver noise stays well
# below it.
SUPPORT_CUTOFF = 1e-10
# Relative-entropy support leak: if more of rho's weight than this lies
# outside sigma's support, the divergence is infinite.
SUPPORT_LEAK_TOL = 1e-9


def herm_eig(matrix: np.ndarray | DensityOperator):
    """Eigenvalues (real, descending) and matching orthonormal eigenvectors.

    A matrix must be Hermitian within 1e-10 at the entries of one scan (a
    state brings its own entries); their blocks are solved separately.
    """

    if isinstance(matrix, DensityOperator):
        d, entries, values = matrix._d, matrix._entries, matrix._values
    else:
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        d, entries = len(m), _hermitian_entries(m, 1e-10)
        values = m[entries]
    vals = np.empty(d)
    vecs = np.zeros((d, d), dtype=complex)
    start = 0
    for rows, block_vals, block_vecs in _eigh_blocks(d, entries, lambda: values):
        cols = start + np.arange(rows.size).reshape(rows.shape)
        vals[cols] = block_vals
        vecs[rows[:, :, None], cols[:, None, :]] = block_vecs
        start += rows.size
    order = np.argsort(vals, kind="stable")[::-1]
    return vals[order], vecs[:, order]


def _spectrum(d: int, entries, values, weigh: DensityOperator | None = None):
    """Eigenvalues of a d x d Hermitian matrix in ascending order, solved block
    by block over its `entries` from values() there, as in `_eigh_blocks` (the
    stable sort keeps the order of a one-block solve).  With the state `weigh`,
    also the weight <v|weigh|v> on each eigenvector v, in the same order, from
    `weigh` on the diagonal blocks only (a 1x1 block's weight from `weigh`'s
    diagonal values)."""

    groups = _eigh_blocks(d, entries, values, vectors=weigh is not None)
    vals = np.concatenate([v.ravel() for _, v, _ in groups])
    order = np.argsort(vals, kind="stable")
    if weigh is None:
        return vals[order]
    x = weigh._at
    w = np.concatenate([
        (_real_diagonal(d, weigh._entries, weigh._values)[rows] if rows.shape[1] == 1 else
         np.real(np.sum(v.conj() * (x(rows[:, :, None], rows[:, None, :]) @ v), axis=1))).ravel()
        for rows, _, v in groups])
    return vals[order], w[order]


def shannon_bits(probs: np.ndarray) -> float:
    """-sum p log2 p with 0 log 0 = 0."""

    p = np.asarray(probs, dtype=float)
    p = p[p > SUPPORT_CUTOFF]
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    p = _spectrum(rho._d, rho._entries, lambda: rho._values)
    return shannon_bits(np.clip(p[::-1], 0.0, None))


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

    if rho._d != sigma._d:
        raise ValueError("states must have the same number of qubits")
    q, w = _spectrum(sigma._d, sigma._entries, lambda: sigma._values, weigh=rho)
    p = _spectrum(rho._d, rho._entries, lambda: rho._values)
    return _divergence(p[::-1], q[::-1], w[::-1])


def fidelity_pure(rho: DensityOperator, psi: Ket) -> float:
    """<psi| rho |psi> for a pure reference state, from the block of rho on
    the ket's support only: the other terms are exact zeros, although the
    shorter sums may round differently in the last place."""

    if rho._d != len(psi.amplitudes):
        raise ValueError("states must have the same number of qubits")
    on = np.flatnonzero(psi.amplitudes)
    a = psi.amplitudes[on]
    return float(np.real(np.vdot(a, rho._at(on[:, None], on) @ a)))


def trace_distance(rho: DensityOperator, tau: DensityOperator) -> float:
    """(1/2) ||rho - tau||_1 from the eigenvalues of the difference, solved from its entries."""

    if rho._d != tau._d:
        raise ValueError("states must have the same number of qubits")
    d = rho._d

    def diff(r, c):  # tau is read a slice at a time: one full gather is held, not two
        v = rho._at(r, c)
        for s in range(0, v.size, 1 << 14):
            v[s:s + (1 << 14)] -= tau._at(r[s:s + (1 << 14)], c[s:s + (1 << 14)])
        return v

    r, c = _nonzero_among([r * d + c for r, c in (rho._entries, tau._entries)], d, diff)
    return float(0.5 * np.sum(np.abs(_spectrum(d, (r, c), lambda: diff(r, c)))))

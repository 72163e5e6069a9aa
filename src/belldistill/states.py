"""Pure and mixed states on the implicit copy-major register.

A state's array fixes its register: q = log2(dim) qubits, big-endian, with
axis 2j - 2 Alice's qubit of copy j and axis 2j - 1 Bob's.  Partial trace,
partial transpose, reordering and local gates take qubit axes as ints.
Dense states are capped at `MAX_DENSE_QUBITS`; larger instances must use the
sparse Bell-diagonal representation.  A density operator is its exact-nonzero
entries and the values there, which `_from_blocks` makes for a mixture of kets
from its support blocks; its matrix fills private 4 KiB pages at first read.
Checks and solves read the values, partial transposes and differences the entries.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

ALICE = "alice"
BOB = "bob"

MAX_DENSE_QUBITS = 12

NORM_TOL = 1e-11
HERM_TOL = 1e-11
EIG_TOL = 1e-10
TRACE_TOL = 1e-10


def check_dense_size(n_qubits: int) -> None:
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operations are capped at {MAX_DENSE_QUBITS} qubits "
            f"(got {n_qubits}); use the Bell-diagonal representation instead"
        )


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The Kronecker product of 1-D or of 2-D `factors` from one chain of outer
    products: each entry is the same product, in the same order, as in
    `reduce(np.kron, factors)`, without np.kron's per-step expand_dims and reshape."""

    t = reduce(np.multiply.outer, factors)
    if factors[0].ndim == 1:
        return t.reshape(-1)
    k = len(factors)  # interleaved (row, column) axes: all rows, then all columns
    t = t.transpose(*range(0, 2 * k, 2), *range(1, 2 * k, 2))
    return t.reshape(np.prod(t.shape[:k]), -1)


def _frozen_array(a, ndim: int, copy: bool = True) -> np.ndarray:
    """`a` as a frozen complex array of `ndim` axes of length 2^q, 1 <= q <= 12."""

    arr = np.array(a, dtype=complex) if copy else np.asarray(a, dtype=complex)
    d = arr.shape[0] if arr.ndim else 0
    if arr.shape != (d,) * ndim or d < 2 or d & (d - 1):
        raise ValueError(f"expected {ndim} axes of length 2^q with q >= 1, got shape {arr.shape}")
    check_dense_size(d.bit_length() - 1)
    arr.flags.writeable = False
    return arr


def _sparse_zeros(d: int) -> np.ndarray:
    """A zeroed d x d complex array on a private anonymous mapping of 4 KiB
    pages, so a scattered write makes 4 KiB resident, not a 2 MiB huge page."""

    buf = mmap.mmap(-1, d * d * 16, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=complex).reshape(d, d)


def _check_trace(d: int, entries, values) -> None:
    tr_err = abs(float(_real_diagonal(d, entries, values).sum()) - 1.0)
    if not tr_err <= TRACE_TOL:  # NaN fails too
        raise ValueError(f"trace differs from 1 by {tr_err:.2e}")


def _check_axes(axes: Iterable[int], n_qubits: int) -> list[int]:
    axes = list(axes)
    if len(set(axes)) != len(axes) or not all(ax in range(n_qubits) for ax in axes):
        raise ValueError(f"qubit axes must be distinct and in 0..{n_qubits - 1}, got {axes}")
    return [int(ax) for ax in axes]


@dataclass(frozen=True, eq=False)
class Ket:
    """Normalized pure state on q qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen_array(self.amplitudes, 1)
        object.__setattr__(self, "amplitudes", amps)
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValueError(f"ket is not normalized: |psi|^2 = {norm2}")

    @property
    def n_qubits(self) -> int:
        return len(self.amplitudes).bit_length() - 1

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def to_dm(self) -> "DensityOperator":
        return dm_from_ensemble([(1.0, self)])


def _hermitian_entries(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """One scan's exact-nonzero entries of a square matrix, checked to be
    Hermitian within `tol` there; off them and their mirrors m - m^dagger is 0."""

    r, c = entries = _nonzero_entries(m)
    asym = float(np.max(np.abs(m[r, c] - m[c, r].conj()), initial=0.0))
    if not asym <= tol:  # NaN fails too
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.2e})")
    return entries


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on q qubits.  It is
    kept as the (rows, cols) of its exact-nonzero entries in row-major order,
    `_entries`, and the values there, `_values`; `matrix` is filled from them
    at first read.  The constructor scans the caller's array once, checks
    every property at the entries and their blocks, and copies the values."""

    matrix: np.ndarray
    _pt_spectrum = None  # not a field: set once by measures._pt_spectrum

    def __post_init__(self):
        view = _frozen_array(np.asarray(self.matrix, dtype=complex).view(), 2, copy=False)
        entries = _hermitian_entries(view, HERM_TOL)
        object.__delattr__(self, "matrix")  # filled from the values at first read
        self._keep(len(view), entries, view[entries])
        blocks = _eigh_blocks(self._d, entries, lambda: self._values, vectors=False)
        min_eig = min(float(v.min()) for _, v, _ in blocks)
        if min_eig < -EIG_TOL:
            raise ValueError(f"matrix has negative eigenvalue {min_eig:.2e}")

    def _keep(self, d: int, entries, values) -> "DensityOperator":
        """Keep this state as its order `d`, row-major `entries` and the
        `values` there, once the trace there is checked."""

        for name, x in (("_d", d), ("_entries", entries), ("_values", values)):
            object.__setattr__(self, name, x)
        _check_trace(d, entries, values)
        return self

    def __getattr__(self, name):  # the matrix, at first read
        if name != "matrix":
            raise AttributeError(name)
        m = _sparse_zeros(self._d)
        m[self._entries] = self._values
        object.__setattr__(self, "matrix", _frozen_array(m, 2, copy=False))
        return self.matrix

    @property
    def n_qubits(self) -> int:
        return self._d.bit_length() - 1

    def _at(self, r, c) -> np.ndarray:
        """The values at rows `r` and columns `c`, broadcast together: a lookup
        among the row-major entries, 0 off them, or, when the entries are all
        d^2 of them, a gather from the values read as the matrix."""

        d, values = self._d, self._values
        if values.size == d * d:
            return values.reshape(d, d)[r, c]
        keys = self._entries[0] * d + self._entries[1]  # ascending
        k = np.asarray(r) * d + c
        i = np.minimum(np.searchsorted(keys, k), keys.size - 1)
        return np.where(keys[i] == k, values[i], 0)

    @classmethod
    def _trusted(cls, matrix) -> "DensityOperator":
        """Keep a fresh matrix, built from valid states by an operation that
        keeps it Hermitian and PSD, as one scan's entries and the values
        there: only the size, shape and trace are checked."""

        m = _frozen_array(matrix, 2, copy=False)
        entries = _nonzero_entries(m)
        return object.__new__(cls)._keep(len(m), entries, m[entries])


def dm_from_ensemble(members: Iterable[tuple[float, Ket]]) -> DensityOperator:
    """Mixture sum(w_k |psi_k><psi_k|) of kets on one register, built by
    `_from_blocks`: kets whose supports overlap, directly or through other
    kets, share one block on the union of their supports, in member order."""

    members = list(members)
    if not members:
        raise ValueError("ensemble must not be empty")
    d = len(members[0][1].amplitudes)
    total, terms = 0.0, []
    for w, psi in members:
        if w < 0:
            raise ValueError(f"negative ensemble weight {w}")
        if len(psi.amplitudes) != d:
            raise ValueError("all ensemble members must have the same number of qubits")
        total += w
        on = np.flatnonzero(psi.amplitudes)
        terms.append((w, on, psi.amplitudes[on]))
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    # each support links its indices to its first; a block is a linked set
    first = np.concatenate([np.full(on.size, on[0]) for _, on, _ in terms])
    label = _block_labels(d, (first, np.concatenate([on for _, on, _ in terms])))
    blocks = {}
    for w, on, a in terms:
        blocks.setdefault(int(label[on[0]]), []).append((w, on, a))
    return _from_blocks(d, [(np.flatnonzero(label == k), ts) for k, ts in blocks.items()])


def _from_blocks(d: int, blocks) -> DensityOperator:
    """The d x d mixture of the `blocks`, kept as its exact-nonzero entries
    (intp rows and columns, row-major) and the values there.  A block is an
    ascending support `u`, disjoint from the other blocks', and its terms
    `(w, on, a)`, kets of weight w with amplitudes a on their support `on`
    within `u`: it adds their outer products, in order, into a zeroed
    u.size x u.size array, through np.ix_ only where `on` is not all of `u`."""

    parts = []
    for u, terms in blocks:
        m = np.zeros((u.size, u.size), dtype=complex)
        for w, on, a in terms:  # np.ix_ at on's places in u, unless on is all of u
            at = ... if on.size == u.size else np.ix_(*2 * [np.searchsorted(u, on)])
            m[at] += w * np.outer(a, a.conj())
        nz = m != 0  # an exact cancellation drops out
        values = m[nz]
        del m  # not held while the indices are made
        parts.append((np.repeat(u, nz.sum(axis=1)), np.broadcast_to(u, nz.shape)[nz], values))
    r, c, values = parts[0]
    if len(parts) > 1:  # a row's entries are all in one block, in column order
        order = np.argsort(np.concatenate([r for r, _, _ in parts]), kind="stable")
        r, c, values = (np.concatenate(x)[order] for x in zip(*parts))
    return object.__new__(DensityOperator)._keep(d, (r, c), values)


def _nonzero_among(parts, d: int, value) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns (row-major, once each) of the flat `parts` where value(rows, cols) != 0."""

    k = np.sort(np.concatenate(parts))
    r, c = np.divmod(k[np.append(True, k[1:] != k[:-1])], d)  # np.unique would import numpy.ma
    del k  # not held while the values are made
    on = value(r, c) != 0  # an exact cancellation drops out
    return r[on], c[on]


def _nonzero_entries(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, in row-major order, of the exact-nonzero
    entries of a square matrix of any size, from one flat scan.  They are
    int32 wherever the flat index fits, to halve the index memory."""

    k = np.flatnonzero(m != 0).astype(np.int32 if m.size <= 2 ** 31 else np.intp)
    return np.divmod(k, len(m))


def _block_labels(d: int, entries) -> np.ndarray:
    """The smallest index of each of 0..d-1's connected component in the
    symmetrised exact-nonzero pattern of a d x d operator (its `entries`).

    Each index takes the smallest label among its neighbours in either
    direction, over the nonzero entries, until nothing changes; pointer
    jumping shortens the chains.  One gather of labels is alive at a time,
    so the peak stays near the int32 indices."""

    r, c = entries
    label = np.arange(d)
    while True:
        new = label.copy()
        np.minimum.at(new, r, label[c])
        np.minimum.at(new, c, label[r])
        if np.array_equal(new, label):
            return label
        label = new[new]


def _real_diagonal(d: int, entries, values) -> np.ndarray:
    """Re m[i, i] for 0 <= i < d, from the `values` at the `entries` (elsewhere 0)."""

    r, c = entries
    on = r == c
    return np.bincount(r[on], values[on].real, d)


def _eigh_blocks(d: int, entries, values, vectors: bool = True) -> list[tuple]:
    """Eigensolve a d x d Hermitian matrix block by block; the only dense solve.

    The blocks are the connected components of the matrix's exact-nonzero
    `entries`, symmetrised, so no tolerance decides the split, and a matrix
    that forms one block is solved whole by one `np.linalg.eigh` (or
    `eigvalsh` without `vectors`) with the same digits.  Blocks of one
    size go through one stacked call; 1x1 blocks are read off the diagonal.
    values() makes the values at the `entries`; each size's blocks are
    scattered into zeros from values made for that scatter alone, and a
    matrix of one block into one (d, d) array.
    Returns one `(rows, values, vecs)` triple per block size s: `rows` (k, s)
    lists the k blocks of that size, `values` (k, s) their ascending
    eigenvalues and `vecs` (k, s, s) their eigenvectors, or None.
    """

    def solve(a):
        if vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a), None

    r, c = entries
    label = _block_labels(d, entries)
    if not label.any():  # one (d, d) scatter, with no per-entry block indices
        m = np.zeros((d, d), dtype=complex)
        m[r, c] = values()
        vals, vecs = solve(m)
        return [(np.arange(d)[None], vals[None], None if vecs is None else vecs[None])]
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    groups = []
    # a bare np.unique imports numpy.ma, which a set of a few ints does not need
    for s in sorted(set(sizes.tolist())):
        rows = order[starts[sizes == s][:, None] + np.arange(s)]
        pos = np.full(d, -1)  # pos[i] numbers index i among these blocks' rows, in order
        pos[rows] = np.arange(rows.size).reshape(rows.shape)
        on = pos[r] >= 0
        a = np.zeros((len(rows), s, s), dtype=complex)
        a.reshape(-1)[pos[r[on]] * s + pos[c[on]] % s] = values()[on]
        if s == 1:  # read off the diagonal
            vals = a.real[:, :, 0]
            vecs = np.ones((len(rows), 1, 1), dtype=complex) if vectors else None
        else:
            vals, vecs = solve(a)
        groups.append((rows, vals, vecs))
    return groups


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out every qubit axis not in `keep`; the kept axes stay in
    ascending order."""

    n = rho.n_qubits
    keep_axes = sorted(_check_axes(keep, n))
    if len(keep_axes) == n:
        return rho
    if not keep_axes:
        raise ValueError("must keep at least one qubit")
    drop_axes = [k for k in range(n) if k not in keep_axes]

    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for ax in drop_axes:
        col[ax] = row[ax]
    out = "".join(row[ax] for ax in keep_axes) + "".join(col[ax] for ax in keep_axes)
    t = rho.matrix.reshape((2,) * (2 * n))
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, t)
    d = 2 ** len(keep_axes)
    return DensityOperator._trusted(reduced.reshape(d, d))


def partial_transpose_entries(n_qubits: int, axes: Sequence[int], entries) -> tuple:
    """Where the partial transpose over the given qubit axes moves the nonzero `entries`
    of an operator on n_qubits, in order: axis k is bit n_qubits - 1 - k of an index,
    and an entry's row and column trade their bits on those axes (its value goes along)."""

    mask = sum(1 << (n_qubits - 1 - ax) for ax in _check_axes(axes, n_qubits))
    r, c = entries
    swap = (r ^ c) & mask  # the masked bits where row and column differ
    return r ^ swap, c ^ swap


def partial_transpose(rho: DensityOperator, axes: Iterable[int]) -> np.ndarray:
    """Partial transpose over the given qubit axes, filled at the moved entries.
    Result is Hermitian and unit-trace but generally not positive, so a raw matrix is returned."""

    out = _sparse_zeros(rho._d)
    out[partial_transpose_entries(rho.n_qubits, axes, rho._entries)] = rho._values
    return out


def reorder(state: Ket | DensityOperator, new_order: Sequence[int]):
    """The same state with its qubit axes listed in a new order: axis k of
    the result is axis new_order[k] of `state`."""

    n = state.n_qubits
    perm = _check_axes(new_order, n)
    if len(perm) != n:
        raise ValueError(f"new order must list all {n} qubit axes, got {perm}")
    if isinstance(state, Ket):
        return Ket(state.tensor_view().transpose(perm).reshape(-1))
    t = state.matrix.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return DensityOperator._trusted(t.reshape(state.matrix.shape))


def _apply_gate_axis(tensor: np.ndarray, gate: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(tensor, axis, 0)
    out = np.tensordot(gate, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, axis)


def apply_local(state: Ket | DensityOperator,
                gates: Mapping[int, np.ndarray]):
    """Apply one-qubit gates (qubit axis -> 2x2 unitary) to a state, in the
    mapping's order."""

    n = state.n_qubits
    ops = []
    for ax, g in zip(_check_axes(gates, n), gates.values()):
        g = np.asarray(g, dtype=complex)
        if g.shape != (2, 2):
            raise ValueError(f"gate for axis {ax} must be 2x2")
        ops.append((ax, g))
    if isinstance(state, Ket):
        t = state.tensor_view()
        for ax, g in ops:
            t = _apply_gate_axis(t, g, ax)
        return Ket(t.reshape(-1))
    t = state.matrix.reshape((2,) * (2 * n))
    for ax, g in ops:
        t = _apply_gate_axis(t, g, ax)
        t = _apply_gate_axis(t, g.conj(), n + ax)
    return DensityOperator._trusted(t.reshape(state.matrix.shape))


# --- JSON exchange format -------------------------------------------------
#
# A state is written as its order, its exact-nonzero entries as [row, col]
# pairs in row-major order and the values there as [re, im] pairs, and the
# register (label, owner and copy of each axis), so a dump is self-describing.

def _dm_json_object(rho: DensityOperator) -> dict:
    """The JSON object of `rho`, made from its entries and values, not its matrix."""

    qubits = [{"label": f"{'AB'[ax % 2]}{ax // 2 + 1}", "owner": (ALICE, BOB)[ax % 2],
               "copy": ax // 2 + 1} for ax in range(rho.n_qubits)]
    return {"dim": rho._d, "entries": np.stack(rho._entries, axis=-1).tolist(),
            "kind": "density_operator", "qubits": qubits,
            "values": np.stack((rho._values.real, rho._values.imag), axis=-1).tolist()}


def dm_to_json(rho: DensityOperator) -> str:
    return json.dumps(_dm_json_object(rho), sort_keys=True)

"""Pure and mixed states on the implicit copy-major register.

A state's array fixes its register: q = log2(dim) qubits, big-endian, with
axis 2j - 2 Alice's qubit of copy j and axis 2j - 1 Bob's.  Partial trace,
partial transpose, reordering and local gates take qubit axes as ints.
Dense states are capped at `MAX_DENSE_QUBITS`; larger instances must use the
sparse Bell-diagonal representation.  Builders fill matrices on private
4 KiB pages and record the exact-nonzero entries that later steps read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

ALICE = "alice"
BOB = "bob"

MAX_DENSE_QUBITS = 12

NORM_TOL = 1e-12
HERM_TOL = 1e-12
EIG_TOL = 1e-10
TRACE_TOL = 1e-10


def check_dense_size(n_qubits: int) -> None:
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operations are capped at {MAX_DENSE_QUBITS} qubits "
            f"(got {n_qubits}); use the Bell-diagonal representation instead"
        )


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

    import mmap
    buf = mmap.mmap(-1, d * d * 16, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=complex).reshape(d, d)


def _check_trace(m: np.ndarray, entries=None) -> None:
    on = np.arange(len(m)) if entries is None else entries[0][entries[0] == entries[1]]
    tr_err = abs(float(m[on, on].sum().real) - 1.0)
    if not tr_err <= TRACE_TOL:  # NaN fails too
        raise ValueError(f"trace differs from 1 by {tr_err:.2e}")


def _check_axes(axes: Iterable[int], n_qubits: int) -> list[int]:
    axes = list(axes)
    if len(set(axes)) != len(axes) or not all(ax in range(n_qubits) for ax in axes):
        raise ValueError(f"qubit axes must be distinct and in 0..{n_qubits - 1}, got {axes}")
    return [int(ax) for ax in axes]


@dataclass(frozen=True)
class Ket:
    """Normalized pure state on q qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen_array(self.amplitudes, 1)
        object.__setattr__(self, "amplitudes", amps)
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= NORM_TOL * 10:
            raise ValueError(f"ket is not normalized: |psi|^2 = {norm2}")

    @property
    def n_qubits(self) -> int:
        return len(self.amplitudes).bit_length() - 1

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def to_dm(self) -> "DensityOperator":
        return dm_from_ensemble([(1.0, self)])


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on q qubits."""

    matrix: np.ndarray
    _nz: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _pt_spectrum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _frozen_array(self.matrix, 2)
        object.__setattr__(self, "matrix", m)
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        if not herm_err <= HERM_TOL * 10:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {herm_err:.2e})")
        _check_trace(m)
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -EIG_TOL:
            raise ValueError(f"matrix has negative eigenvalue {min_eig:.2e}")

    @property
    def n_qubits(self) -> int:
        return len(self.matrix).bit_length() - 1

    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the exact-nonzero entries: recorded or scanned once."""

        if self._nz is None:
            object.__setattr__(self, "_nz", _nonzero_entries(self.matrix))
        return self._nz

    @classmethod
    def _trusted(cls, matrix: np.ndarray, entries=None) -> "DensityOperator":
        """Wrap a fresh matrix, built from valid states by an operation that
        keeps it Hermitian and PSD, frozen in place: only the size, shape and
        trace are checked, the trace over the builder's `entries`, if given."""

        m = _frozen_array(matrix, 2, copy=False)
        _check_trace(m, entries)
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", m)
        object.__setattr__(rho, "_nz", entries)
        return rho


def dm_from_ensemble(members: Iterable[tuple[float, Ket]]) -> DensityOperator:
    """Mixture sum(w_k |psi_k><psi_k|) of kets on one register.  Its entries
    are recorded from the kets' supports, less exact cancellations, unless
    the candidates pass d^2 / 8: sorting those costs more than one scan."""

    members = list(members)
    if not members:
        raise ValueError("ensemble must not be empty")
    d = len(members[0][1].amplitudes)
    total = 0.0
    rho = _sparse_zeros(d)
    supports = {}
    for w, psi in members:
        if w < 0:
            raise ValueError(f"negative ensemble weight {w}")
        if len(psi.amplitudes) != d:
            raise ValueError("all ensemble members must have the same number of qubits")
        total += w
        # only the ket's support is touched; outside it the full outer product
        # would add exact zeros, so every entry gets the same arithmetic
        a = psi.amplitudes
        on = np.flatnonzero(a)
        rho[np.ix_(on, on)] += w * np.outer(a[on], a[on].conj())
        supports[on.tobytes()] = on
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    if 8 * sum(on.size ** 2 for on in supports.values()) > d * d:
        return DensityOperator._trusted(rho)
    k = np.concatenate([(on[:, None] * d + on).ravel() for on in supports.values()])
    return DensityOperator._trusted(rho, _kept_entries(rho, k))


def _kept_entries(m: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns, in row-major order, of the nonzero entries at `k`."""

    k = np.sort(k)
    keep = np.take(m, k) != 0  # an exact cancellation drops out
    keep[1:] &= k[1:] != k[:-1]  # and so does a repeat (np.unique would import numpy.ma)
    return np.divmod(k[keep], len(m))


def _nonzero_entries(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, in row-major order, of the exact-nonzero
    entries of a square matrix of any size, from one flat scan.  They are
    int32 wherever the flat index fits, to halve the index memory."""

    k = np.flatnonzero(m != 0).astype(np.int32 if m.size <= 2 ** 31 else np.intp)
    return np.divmod(k, len(m))


def _block_labels(m: np.ndarray, entries=None) -> np.ndarray:
    """The smallest index of each index's connected component in the
    symmetrised exact-nonzero pattern of a square matrix (its `entries`).

    Each index takes the smallest label among its neighbours in either
    direction, over the nonzero entries, until nothing changes; pointer
    jumping shortens the chains.  One gather of labels is alive at a time,
    so the peak stays near the int32 indices."""

    r, c = _nonzero_entries(m) if entries is None else entries
    label = np.arange(len(m))
    while True:
        new = label.copy()
        np.minimum.at(new, r, label[c])
        np.minimum.at(new, c, label[r])
        if np.array_equal(new, label):
            return label
        label = new[new]


def _eigh_blocks(m: np.ndarray, vectors: bool = True, entries=None) -> list[tuple]:
    """Eigensolve a Hermitian matrix block by block.

    The blocks are the connected components of the matrix's exact-nonzero
    `entries` (or a scan's), symmetrised, so no tolerance decides the split,
    and a matrix that forms one block is solved whole by one `np.linalg.eigh`
    (or `eigvalsh` without `vectors`) with the same digits.  Blocks of one
    size go through one stacked call; 1x1 blocks are read off the diagonal.
    Returns one `(rows, values, vecs)` triple per block size s: `rows` (k, s)
    lists the k blocks of that size, `values` (k, s) their ascending
    eigenvalues and `vecs` (k, s, s) their eigenvectors, or None.
    """

    def solve(a):
        if vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a), None

    d = len(m)
    r, c = entries = _nonzero_entries(m) if entries is None else entries
    label = _block_labels(m, entries)
    if not label.any():
        values, vecs = solve(m)
        return [(np.arange(d)[None], values[None], None if vecs is None else vecs[None])]
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    groups = []
    # a bare np.unique imports numpy.ma, which a set of a few ints does not need
    for s in sorted(set(sizes.tolist())):
        rows = order[starts[sizes == s][:, None] + np.arange(s)]
        if s == 1:  # an index off the diagonal entries holds an exact zero
            on = r[r == c]
            values = np.bincount(on, m[on, on].real, d)[rows]
            vecs = np.ones((len(rows), 1, 1), dtype=m.dtype) if vectors else None
        else:
            values, vecs = solve(m[rows[:, :, None], rows[:, None, :]])
        groups.append((rows, values, vecs))
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


def partial_transpose_matrix(matrix: np.ndarray, n_qubits: int, axes: Sequence[int],
                             entries=None) -> tuple[np.ndarray, tuple]:
    """Transpose the given qubit axes only, permuting the nonzero `entries`
    (or a scan's): axis k is bit q - 1 - k of an index, and an entry swaps its
    row's and column's bits on those axes.  Returns the result and its entries."""

    d = 2 ** n_qubits
    if matrix.shape != (d, d):
        raise ValueError(f"matrix shape {matrix.shape} does not match {n_qubits} qubits")
    mask = sum(1 << (n_qubits - 1 - ax) for ax in _check_axes(axes, n_qubits))
    r, c = _nonzero_entries(matrix) if entries is None else entries
    swap = (r ^ c) & mask  # the masked bits where row and column differ
    moved = r ^ swap, c ^ swap  # the row's and column's bits traded on the axes
    out = _sparse_zeros(d)
    out[moved] = matrix[r, c]
    return out, moved


def partial_transpose(rho: DensityOperator, axes: Iterable[int]) -> np.ndarray:
    """Partial transpose over the given qubit axes.  Result is Hermitian and
    unit-trace but generally not positive, so a raw matrix is returned."""

    return partial_transpose_matrix(rho.matrix, rho.n_qubits, axes, rho._entries())[0]


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
# Complex entries are [re, im] pairs, matrices row-major, and the register
# (label, owner and copy of each axis) is written out so a dump is
# self-describing.

def _complex_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def dm_to_json(rho: DensityOperator) -> str:
    qubits = [{"label": f"{'AB'[ax % 2]}{ax // 2 + 1}", "owner": (ALICE, BOB)[ax % 2],
               "copy": ax // 2 + 1} for ax in range(rho.n_qubits)]
    payload = {
        "kind": "density_operator",
        "qubits": qubits,
        "matrix": [[_complex_out(z) for z in row] for row in rho.matrix],
    }
    return json.dumps(payload, sort_keys=True)

"""Pure and mixed states on the implicit copy-major register.

A state's array fixes its register: q = log2(dim) qubits, big-endian, with
axis 2j - 2 Alice's qubit of copy j and axis 2j - 1 Bob's.  Partial trace,
partial transpose, reordering and local gates take qubit axes as ints.
Dense states are capped at `MAX_DENSE_QUBITS`; larger instances must use the
sparse Bell-diagonal representation.  Builders fill matrices on private
4 KiB pages.  A density operator holds its exact-nonzero entries from
construction (its builder's or one scan's); every check and solve reads them,
and the partial transpose and a difference of states are solved from entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Mapping, Sequence

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

    import mmap
    buf = mmap.mmap(-1, d * d * 16, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=complex).reshape(d, d)


def _check_trace(m: np.ndarray, entries) -> None:
    tr_err = abs(float(_real_diagonal(m, entries).sum()) - 1.0)
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


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on q qubits.  It
    holds the (rows, cols) of its exact-nonzero entries as `_entries`; the
    constructor scans the caller's array once, checks every property at them
    and their blocks, and copies only them if they are at most d^2 / 8."""

    matrix: np.ndarray
    _pt_spectrum = None  # not a field: set once by measures._pt_spectrum

    def __post_init__(self):
        view = _frozen_array(np.asarray(self.matrix, dtype=complex).view(), 2, copy=False)
        r, c = entries = _hermitian_entries(view, HERM_TOL)
        if 8 * r.size > view.size:  # dm_from_ensemble's rule
            m = view.copy()
        else:  # only the entries' pages become resident; -0.0 off them is 0.0
            m = _sparse_zeros(len(view))
            m[r, c] = view[r, c]
        object.__setattr__(self, "matrix", _frozen_array(m, 2, copy=False))
        object.__setattr__(self, "_entries", entries)
        _check_trace(m, entries)
        min_eig = min(float(v.min()) for _, v, _ in _eigh_blocks(m, self._entries, vectors=False))
        if min_eig < -EIG_TOL:
            raise ValueError(f"matrix has negative eigenvalue {min_eig:.2e}")

    @property
    def n_qubits(self) -> int:
        return len(self.matrix).bit_length() - 1

    @classmethod
    def _trusted(cls, matrix: np.ndarray, entries=None) -> "DensityOperator":
        """Wrap a fresh matrix, built from valid states by an operation that
        keeps it Hermitian and PSD, frozen in place, with its builder's
        `entries` or else one scan's: only the size, shape and trace are checked."""

        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", m := _frozen_array(matrix, 2, copy=False))
        object.__setattr__(rho, "_entries", _nonzero_entries(m) if entries is None else entries)
        _check_trace(m, rho._entries)
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
    return _mixture(rho, total, list(supports.values()))


def _mixture(rho: np.ndarray, total: float, supports: list) -> DensityOperator:
    """The mixture filled on `rho` from terms of weights summing to `total`,
    each on the square of one of the distinct index arrays `supports`."""

    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    d = len(rho)
    if 8 * sum(on.size ** 2 for on in supports) > d * d:
        return DensityOperator._trusted(rho)
    flat = [(on[:, None] * d + on).ravel() for on in supports]
    return DensityOperator._trusted(rho, _nonzero_among(flat, d, lambda r, c: rho[r, c]))


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


def _real_diagonal(m: np.ndarray, entries) -> np.ndarray:
    """Re m[i, i] for every i, read at the `entries` only (elsewhere it is 0)."""

    r, c = entries
    on = r[r == c]
    return np.bincount(on, m[on, on].real, len(m))


def _eigh_blocks(m, entries, vectors: bool = True, values=None) -> list[tuple]:
    """Eigensolve a Hermitian matrix block by block; the only dense solve.

    The blocks are the connected components of the matrix's exact-nonzero
    `entries`, symmetrised, so no tolerance decides the split, and a matrix
    that forms one block is solved whole by one `np.linalg.eigh` (or
    `eigvalsh` without `vectors`) with the same digits.  Blocks of one
    size go through one stacked call; 1x1 blocks are read off the diagonal.
    With `values`, a function making the values at the `entries`, `m` is only d, and
    each size's blocks are scattered into zeros from values made for that scatter alone.
    Returns one `(rows, values, vecs)` triple per block size s: `rows` (k, s)
    lists the k blocks of that size, `values` (k, s) their ascending
    eigenvalues and `vecs` (k, s, s) their eigenvectors, or None.
    """

    def solve(a):
        if vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a), None

    d = len(m) if values is None else m
    r, c = entries
    label = _block_labels(d, entries)
    if not label.any():
        if values is not None:  # one (d, d) scatter, with no per-entry block indices
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
        if values is not None:  # at[i] numbers index i among these blocks' rows, in order
            at = np.full(d, -1)
            at[rows] = np.arange(rows.size).reshape(rows.shape)
            on = at[r] >= 0
            a = np.zeros((len(rows), s, s), dtype=complex)
            a.reshape(-1)[at[r[on]] * s + at[c[on]] % s] = values()[on]
        if s == 1:  # read off the diagonal
            vals = _real_diagonal(m, entries)[rows] if values is None else a.real[:, :, 0]
            vecs = np.ones((len(rows), 1, 1), dtype=complex) if vectors else None
        else:
            vals, vecs = solve(a if values is not None else m[rows[:, :, None], rows[:, None, :]])
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

    out = _sparse_zeros(len(rho.matrix))
    out[partial_transpose_entries(rho.n_qubits, axes, rho._entries)] = rho.matrix[rho._entries]
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
# Complex entries are [re, im] pairs, matrices row-major, and the register
# (label, owner and copy of each axis) is written out so a dump is
# self-describing.

def _dm_json_chunks(rho: DensityOperator) -> Iterator[str]:
    """The text of `dm_to_json(rho)` one matrix row at a time, so a writer
    holds one row's pairs, not a list of the whole matrix.  The keys are
    written in `json.dumps(..., sort_keys=True)` order."""

    qubits = [{"label": f"{'AB'[ax % 2]}{ax // 2 + 1}", "owner": (ALICE, BOB)[ax % 2],
               "copy": ax // 2 + 1} for ax in range(rho.n_qubits)]
    yield '{"kind": "density_operator", "matrix": ['
    for i, row in enumerate(rho.matrix):
        yield (", " if i else "") + json.dumps(np.stack((row.real, row.imag), axis=-1).tolist())
    yield '], "qubits": ' + json.dumps(qubits, sort_keys=True) + "}"


def dm_to_json(rho: DensityOperator) -> str:
    return "".join(_dm_json_chunks(rho))

"""Pure and mixed states on labeled qubit registers.

Kets and density operators carry their RegisterLayout; all axis bookkeeping
(partial trace, partial transpose, reordering, local gates) is derived from
the layout rather than hand-coded index maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .registers import RegisterLayout, check_dense_size

NORM_TOL = 1e-12
HERM_TOL = 1e-12
EIG_TOL = 1e-10
TRACE_TOL = 1e-10


def _frozen_array(a, shape, copy: bool = True) -> np.ndarray:
    arr = np.array(a, dtype=complex) if copy else np.asarray(a, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


def _check_trace(m: np.ndarray) -> None:
    tr_err = abs(float(m.trace().real) - 1.0)
    if not tr_err <= TRACE_TOL:  # NaN fails too
        raise ValueError(f"trace differs from 1 by {tr_err:.2e}")


@dataclass(frozen=True)
class Ket:
    """Normalized pure state over a labeled register."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        check_dense_size(self.layout.n_qubits)
        amps = _frozen_array(self.amplitudes, (self.layout.dim,))
        object.__setattr__(self, "amplitudes", amps)
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= NORM_TOL * 10:
            raise ValueError(f"ket is not normalized: |psi|^2 = {norm2}")

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.layout.n_qubits)

    def to_dm(self) -> "DensityOperator":
        return DensityOperator._trusted(self.layout,
                                        np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on a register."""

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self):
        check_dense_size(self.layout.n_qubits)
        d = self.layout.dim
        m = _frozen_array(self.matrix, (d, d))
        object.__setattr__(self, "matrix", m)
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        if not herm_err <= HERM_TOL * 10:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {herm_err:.2e})")
        _check_trace(m)
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -EIG_TOL:
            raise ValueError(f"matrix has negative eigenvalue {min_eig:.2e}")

    @classmethod
    def _trusted(cls, layout: RegisterLayout, matrix: np.ndarray) -> "DensityOperator":
        """Wrap a matrix built from valid states by an operation that keeps it
        Hermitian and positive semidefinite: only the size, shape and trace
        are checked, and the fresh array is frozen in place, not copied."""

        check_dense_size(layout.n_qubits)
        m = _frozen_array(matrix, (layout.dim, layout.dim), copy=False)
        _check_trace(m)
        rho = object.__new__(cls)
        object.__setattr__(rho, "layout", layout)
        object.__setattr__(rho, "matrix", m)
        return rho


def dm_from_ensemble(members: Iterable[tuple[float, Ket]]) -> DensityOperator:
    """Mixture sum(w_k |psi_k><psi_k|) of kets sharing one layout."""

    members = list(members)
    if not members:
        raise ValueError("ensemble must not be empty")
    layout = members[0][1].layout
    total = 0.0
    rho = np.zeros((layout.dim, layout.dim), dtype=complex)
    for w, psi in members:
        if w < 0:
            raise ValueError(f"negative ensemble weight {w}")
        if psi.layout != layout:
            raise ValueError("all ensemble members must share a layout")
        total += w
        # only the ket's support is touched; outside it the full outer product
        # would add exact zeros, so every entry gets the same arithmetic
        a = psi.amplitudes
        on = np.flatnonzero(a)
        rho[np.ix_(on, on)] += w * np.outer(a[on], a[on].conj())
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    return DensityOperator._trusted(layout, rho)


def _eigh_blocks(m: np.ndarray, vectors: bool = True) -> list[tuple]:
    """Eigensolve a Hermitian matrix block by block.

    The blocks are the connected components of the matrix's exact-nonzero
    pattern, symmetrised, so no tolerance decides the split, and a matrix
    that forms one block is solved whole by one `np.linalg.eigh` (or
    `eigvalsh` without `vectors`) with the same digits.  Blocks of one size
    go through one stacked call; 1x1 blocks are read off the diagonal.
    Returns one `(rows, values, vecs)` triple per block size s: `rows` (k, s)
    lists the k blocks of that size, `values` (k, s) their ascending
    eigenvalues and `vecs` (k, s, s) their eigenvectors, or None.
    """

    def solve(a):
        if vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a), None

    d = len(m)
    nz = m != 0
    # each index takes the smallest label among its neighbours in either
    # direction until nothing changes, and pointer jumping shortens the
    # chains; int16 labels keep the d x d temporaries at 2 bytes an entry
    label = np.arange(d, dtype=np.int16 if d < 2 ** 15 else np.intp)
    far = label.dtype.type(d)
    while True:
        new = np.minimum(np.where(nz, label, far).min(axis=1),
                         np.where(nz, label[:, None], far).min(axis=0))
        new = np.minimum(new, label)
        if np.array_equal(new, label):
            break
        label = new[new]
    if not label.any():
        values, vecs = solve(m)
        return [(np.arange(d)[None], values[None], None if vecs is None else vecs[None])]
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    groups = []
    for s in np.unique(sizes):
        rows = order[starts[sizes == s][:, None] + np.arange(s)]
        if s == 1:
            values = m[rows, rows].real
            vecs = np.ones((len(rows), 1, 1), dtype=m.dtype) if vectors else None
        else:
            values, vecs = solve(m[rows[:, :, None], rows[:, None, :]])
        groups.append((rows, values, vecs))
    return groups


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out every qubit not in `keep`; kept qubits keep their order."""

    layout = rho.layout
    keep_set = set(keep)
    missing = keep_set - set(layout.labels)
    if missing:
        raise ValueError(f"unknown qubit labels {sorted(missing)}")
    if keep_set == set(layout.labels):
        return rho
    if not keep_set:
        raise ValueError("must keep at least one qubit")
    n = layout.n_qubits
    keep_axes = [k for k, q in enumerate(layout.qubits) if q.label in keep_set]
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
    sub = layout.subset(keep_set)
    return DensityOperator._trusted(sub, reduced.reshape(d, d))


def partial_transpose_matrix(matrix: np.ndarray, n_qubits: int,
                             axes: Sequence[int]) -> np.ndarray:
    """Transpose the given qubit axes only (pure index permutation)."""

    d = 2 ** n_qubits
    if matrix.shape != (d, d):
        raise ValueError(f"matrix shape {matrix.shape} does not match {n_qubits} qubits")
    perm = list(range(2 * n_qubits))
    for ax in axes:
        perm[ax], perm[n_qubits + ax] = perm[n_qubits + ax], perm[ax]
    t = matrix.reshape((2,) * (2 * n_qubits))
    return t.transpose(perm).reshape(d, d)


def partial_transpose(rho: DensityOperator, subset: Iterable[str]) -> np.ndarray:
    """Partial transpose over `subset`.  Result is Hermitian and unit-trace
    but generally not positive, so a raw matrix is returned."""

    axes = rho.layout.axes_of(subset)
    return partial_transpose_matrix(rho.matrix, rho.layout.n_qubits, axes)


def reorder(state: Ket | DensityOperator, new_order: Sequence[str]):
    """Rewrite a state on the same register with qubits listed in a new order."""

    layout = state.layout
    new_layout = layout.reordered(new_order)
    perm = [layout.index_of(l) for l in new_order]
    n = layout.n_qubits
    if isinstance(state, Ket):
        t = state.tensor_view().transpose(perm)
        return Ket(new_layout, t.reshape(layout.dim))
    t = state.matrix.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return DensityOperator._trusted(new_layout, t.reshape(layout.dim, layout.dim))


def _apply_gate_axis(tensor: np.ndarray, gate: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(tensor, axis, 0)
    out = np.tensordot(gate, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, axis)


def apply_local(state: Ket | DensityOperator,
                gates: Mapping[str, np.ndarray]):
    """Apply one-qubit gates (label -> 2x2 unitary) to a state."""

    layout = state.layout
    n = layout.n_qubits
    ops = []
    for label, g in gates.items():
        g = np.asarray(g, dtype=complex)
        if g.shape != (2, 2):
            raise ValueError(f"gate for {label!r} must be 2x2")
        ops.append((layout.index_of(label), g))
    if isinstance(state, Ket):
        t = state.tensor_view()
        for ax, g in ops:
            t = _apply_gate_axis(t, g, ax)
        return Ket(layout, t.reshape(layout.dim))
    t = state.matrix.reshape((2,) * (2 * n))
    for ax, g in ops:
        t = _apply_gate_axis(t, g, ax)
        t = _apply_gate_axis(t, g.conj(), n + ax)
    return DensityOperator._trusted(layout, t.reshape(layout.dim, layout.dim))


# --- JSON exchange format -------------------------------------------------
#
# Complex entries are [re, im] pairs, matrices row-major, and the layout is
# embedded so a dump is self-describing.

def _layout_to_json(layout: RegisterLayout) -> list[dict]:
    return [{"label": q.label, "owner": q.owner, "copy": q.copy} for q in layout.qubits]


def _layout_from_json(data: list[dict]) -> RegisterLayout:
    from .registers import QubitSpec

    return RegisterLayout(tuple(QubitSpec(d["label"], d["owner"], d["copy"]) for d in data))


def _complex_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def dm_to_json(rho: DensityOperator) -> str:
    payload = {
        "kind": "density_operator",
        "qubits": _layout_to_json(rho.layout),
        "matrix": [[_complex_out(z) for z in row] for row in rho.matrix],
    }
    return json.dumps(payload, sort_keys=True)


def dm_from_json(text: str) -> DensityOperator:
    data = json.loads(text)
    if data.get("kind") != "density_operator":
        raise ValueError("not a density operator payload")
    layout = _layout_from_json(data["qubits"])
    m = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
    return DensityOperator(layout, m)

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from belldistill import DensityOperator, Ket

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh_count(code: str) -> int:
    """The integer a fresh interpreter prints running `code` on the checkout's
    `src/`, with one BLAS thread."""

    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin",
                               "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def resident_growth_kib(setup: str, measured: str) -> int:
    """How far a fresh interpreter's peak resident set (VmHWM, in KiB) grows
    while it runs `measured` after `setup`.  ru_maxrss would not do: a child
    starts with its parent's, so a large test process hides the growth."""

    return _fresh_count(
        f"{setup}\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
        f"before = peak()\n{measured}\nprint(peak() - before)\n")


def traced_peak_kib(setup: str, measured: str) -> int:
    """The peak of the memory traced by tracemalloc (numpy's arrays included,
    mapped buffers not), in KiB, while a fresh interpreter runs `measured`
    after `setup`; tracing starts after `setup`, so nothing it allocated or
    freed counts."""

    return _fresh_count(f"{setup}\nimport tracemalloc\ntracemalloc.start()\n{measured}\n"
                        "print(tracemalloc.get_traced_memory()[1] // 1024)\n")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(n_qubits: int, rng: np.random.Generator) -> DensityOperator:
    """Ginibre-random full-rank density operator on n_qubits qubits."""

    d = 2 ** n_qubits
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace())


def planted_blocks(gen: np.random.Generator, sizes) -> np.ndarray:
    """Random Hermitian matrix that is block-diagonal after a hidden
    permutation, with the given block sizes (0 gives an all-zero row)."""

    d = sum(max(s, 1) for s in sizes)
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for s in sizes:
        if s:
            g = gen.standard_normal((s, s)) + 1j * gen.standard_normal((s, s))
            m[start:start + s, start:start + s] = g + g.conj().T
        start += max(s, 1)
    perm = gen.permutation(d)
    return m[np.ix_(perm, perm)]


def kron_state(a, b):
    """Tensor product of two kets or two density operators, a's qubits first;
    the reference that states built on the copy-major register are checked
    against."""

    if isinstance(a, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    return DensityOperator(np.kron(a.matrix, b.matrix))


def dump_matrix(text: str) -> np.ndarray:
    """The matrix of a `dm_to_json` dump, filled at its [row, col] entries
    with the [re, im] values there (README's recipe)."""

    data = json.loads(text)
    m = np.zeros((data["dim"], data["dim"]), dtype=complex)
    m[tuple(np.array(data["entries"]).T)] = np.array(data["values"]).view(complex)[:, 0]
    return m


def dense_dump_text(text: str) -> str:
    """The text a `dm_to_json` dump was written as before it held entries:
    the whole matrix, row-major, as [re, im] pairs under "matrix", beside its
    "kind" and "qubits"."""

    data, m = json.loads(text), dump_matrix(text)
    return json.dumps({"kind": data["kind"], "matrix": np.stack((m.real, m.imag), axis=-1).tolist(),
                       "qubits": data["qubits"]}, sort_keys=True)


def random_bell_diagonal(n: int, rng: np.random.Generator, support: int | None = None):
    """Random Bell-diagonal state; full support unless `support` is given."""

    from belldistill import BellDiagonalState

    strings = []
    for code in range(4 ** n):
        s, c = [], code
        for _ in range(n):
            s.append(c % 4 + 1)
            c //= 4
        strings.append(tuple(s))
    if support is not None:
        idx = rng.choice(len(strings), size=support, replace=False)
        strings = [strings[i] for i in idx]
    w = rng.dirichlet(np.ones(len(strings)))
    return BellDiagonalState(n, dict(zip(strings, w)))

"""Bell basis and the rank-structured Bell-diagonal representation.

Every state this package studies is diagonal in the n-fold Bell product
basis, so a sparse probability map over digit strings in {1..4}^n ("1122")
describes it completely.  The dense path exists for cross-validation at small n.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .states import DensityOperator, Ket, _kron, _mixture, _sparse_zeros, check_dense_size

WEIGHT_SUM_TOL = 1e-12
MAX_COPIES = 10 ** 6  # er-pair streams 16 strings of 2n digits: 39 MB peak at n = 10^6

# Rows are the four Bell amplitude vectors over |00>,|01>,|10>,|11>.
_SQ2 = 1.0 / math.sqrt(2.0)
BELL_AMPLITUDES = np.array(
    [
        [_SQ2, 0.0, 0.0, _SQ2],
        [_SQ2, 0.0, 0.0, -_SQ2],
        [0.0, _SQ2, _SQ2, 0.0],
        [0.0, _SQ2, -_SQ2, 0.0],
    ],
    dtype=complex,
)
BELL_AMPLITUDES.flags.writeable = False
# each index's support (|00>, |11> for z = 0; |01>, |10> for z = 1) and its amplitudes there
_SUPPORTS = {str(i): (np.flatnonzero(a), a[a != 0]) for i, a in enumerate(BELL_AMPLITUDES, 1)}
_Z_BITS = str.maketrans("1234", "0011")


def bell_bits(i: int) -> tuple[int, int]:
    """(z, x) with i - 1 = 2z + x: Phi_i's <Z⊗Z> and <X⊗X> are (-1)^z and
    (-1)^x (the binary labels of Bennett et al., quant-ph/9604024)."""

    return divmod(check_bell_string((i,), 1)[0] - 1, 2)


def bell_index(z: int, x: int) -> int:
    """The Bell index with parity bits (z, x); inverts `bell_bits`."""

    if z not in (0, 1) or x not in (0, 1):
        raise ValueError(f"parity bits must be 0 or 1, got ({z!r}, {x!r})")
    return 2 * int(z) + int(x) + 1


def bell_product_ket(indices: Sequence[int]) -> Ket:
    """|Phi_s1> x |Phi_s2> x ... on the copy-major register (capped at 12
    qubits before anything is built)."""

    if not indices:
        raise ValueError("need at least one Bell index")
    check_dense_size(2 * len(indices))
    s = check_bell_string(indices, len(indices))
    return Ket(_kron([BELL_AMPLITUDES[i - 1] for i in s]))


_BELL_INDICES = frozenset((1, 2, 3, 4))


def _integers(indices: Sequence[int]) -> tuple[int, ...]:
    try:
        s = tuple(map(int, indices))
    except OverflowError as exc:  # an infinite index
        raise ValueError(str(exc)) from None
    if s != indices:  # digit characters convert; any other index must be integral
        for i, v in zip(indices, s):
            if i != v and not isinstance(i, str):
                raise ValueError(f"Bell index must be an integer, got {i!r}")
    return s


def check_bell_string(indices: Sequence[int], n: int) -> tuple[int, ...]:
    """The one rule for a Bell index: int() converts it without truncating
    (a digit character converts too), and it lies in 1..4."""

    s = _integers(indices)
    if len(s) != n:
        raise ValueError(f"Bell string has length {len(s)}, expected {n}")
    if not _BELL_INDICES.issuperset(s):
        bad = next(i for i in s if i not in _BELL_INDICES)
        raise ValueError(f"Bell index must be in 1..4, got {bad}")
    return s


class _Product(Mapping):
    """Read-only weight map of a tensor product, kept as its factor states,
    none of which is itself a product.

    A lookup multiplies one weight per factor, left to right, as a chain of
    expanded products would.  Iteration streams the map with the same
    products, the last factor varying fastest.
    """

    def __init__(self, factors: Sequence["BellDiagonalState"]):
        self.factors = tuple(factors)
        self.slices = []
        start = 0
        for f in self.factors:
            self.slices.append((start, start + f.n, f.weights))
            start += f.n
        self.n = start

    def __getitem__(self, s):
        if not isinstance(s, str) or len(s) != self.n:
            raise KeyError(s)
        w = 1.0
        for a, b, weights in self.slices:
            w *= weights[s[a:b]]
        return w

    def __len__(self) -> int:
        return math.prod(len(f.weights) for f in self.factors)

    def items(self):
        prefix, last = _blocks(f.weights.items() for f in self.factors)
        return ((s + t, w * v) for s, w in prefix for t, v in last)

    def __eq__(self, other):
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(other) != len(self):
            return False
        get = other.get
        prefix, last = _blocks(f.weights.items() for f in self.factors)
        return all(get(s + t) == w * v for s, w in prefix for t, v in last)

    def __iter__(self):
        return (s for s, _ in self.items())


def _blocks(parts):
    """The product of weight maps given as (string, weight) pairs, split in
    two lists: the product of all but the last, and the last's own pairs.
    Pairing each prefix with every last pair, in order, lists the product
    with the last varying fastest.  Strings concatenate; weights multiply
    left to right."""

    *lead, last = parts
    prefix = [("", 1.0)]
    for part in lead:
        prefix = [(s + t, w * v) for s, w in prefix for t, v in part]
    return prefix, list(last)


def _check_weight_sum(state: "BellDiagonalState") -> None:
    # a running float sum drifts past the tolerance over 10^6 strings; fsum does not
    total = math.prod(math.fsum(f.weights.values()) for f in state.factors)
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # NaN fails too
        raise ValueError(f"weights sum to {total}, expected 1")


def _count(value: int, what: str) -> int:
    try:
        n = operator.index(value)
    except TypeError:  # a float, even 2.0, as from_json rejects "n": 2.0
        n = 0
    if n < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")
    return n


@dataclass(frozen=True)
class BellDiagonalState:
    """Sparse probability distribution over Bell strings of length n, each
    stored as its digit text ("1122"); the constructor and `weight` also
    take a string spelled as a sequence of indices."""

    n: int
    weights: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "copy count"))
        clean = {}
        for s, w in self.weights.items():
            s = "".join(map(str, check_bell_string(s, self.n)))
            w = float(w)
            if w < 0:
                raise ValueError(f"negative weight {w} for string {s}")
            if w == 0.0:
                continue
            clean[s] = clean.get(s, 0.0) + w
        object.__setattr__(self, "weights", clean)
        _check_weight_sum(self)

    @classmethod
    def _trusted(cls, n: int, weights: Mapping[str, float]) -> "BellDiagonalState":
        """Wrap a map of distinct valid digit strings with positive float weights,
        built from valid states by an operation, made by `rho_n` from its
        constant strings, or parsed by `from_json` from keys and weights it
        has checked: only the weight sum is checked (from the factors, for a
        product), and the map is kept as given."""

        state = object.__new__(cls)
        object.__setattr__(state, "n", n)
        object.__setattr__(state, "weights", weights)
        _check_weight_sum(state)
        return state

    @property
    def factors(self) -> tuple["BellDiagonalState", ...]:
        """The tensor factors in copy order; a plain state is its own one."""

        if isinstance(self.weights, _Product):
            return self.weights.factors
        return (self,)

    def weight(self, s: str | Sequence[int]) -> float:
        """s's weight, its indices read by check_bell_string's rule; 0.0 off the support."""
        return self.weights.get("".join(map(str, _integers(s))), 0.0)

    def entropy_bits(self) -> float:
        # a product's factors' entropies add; every w > 0
        return math.fsum(-sum(w * math.log2(w) for w in f.weights.values())
                         for f in self.factors)

    def tensor(self, *others: "BellDiagonalState") -> "BellDiagonalState":
        """Tensor product; the others' copies are appended after ours, in
        order.  The result keeps the factors and looks weights up in them; a
        lone plain state is returned as it is."""

        factors = [f for state in (self, *others) for f in state.factors]
        if len(factors) == 1:
            return factors[0]
        # rounding is monotone, so some product underflows iff the smallest does
        if math.prod(min(f.weights.values()) for f in factors) == 0.0:
            raise ValueError("a weight of the tensor product underflows to 0.0")
        return BellDiagonalState._trusted(sum(f.n for f in factors), _Product(factors))

    def permute_per_copy(self, perms: Sequence[tuple[int, int, int, int]]) -> "BellDiagonalState":
        """Relabel Bell indices copy-by-copy: s_j -> perms[j][s_j - 1]."""

        if len(perms) != self.n:
            raise ValueError(f"need {self.n} permutations, got {len(perms)}")
        images = [bytes(check_permutation(p)) for p in perms]
        # each factor is permuted on its own copies, so a product stays factored.  A
        # bijection per copy maps distinct strings to distinct strings; the digit
        # of code c on copy j maps to images[j][c - 49], written as code + 48
        parts, start = [], 0
        for f in self.factors:
            own, start = images[start:start + f.n], start + f.n
            parts.append(BellDiagonalState._trusted(f.n, {
                bytes([t[c - 49] + 48 for t, c in zip(own, s.encode())]).decode(): w
                for s, w in f.weights.items()}))
        return parts[0].tensor(*parts[1:])

    def to_json(self) -> str:
        """The text of json.dumps({"n": n, "weights": ...}, sort_keys=True),
        written directly.  A factor's strings share one length, so listing
        each factor's strings in sorted order (a plain map is one factor)
        lists the map in sort_keys order.  The last factor's entries after
        a prefix depend only on the prefix's weight, so each distinct prefix
        weight's row is built once, and each distinct weight in it formatted
        once, by the float.__repr__ json calls."""

        prefix, last = _blocks(sorted(f.weights.items()) for f in self.factors)
        rows, reprs, fmt = {}, {}, float.__repr__
        for _, w in prefix:
            if w not in rows:  # a plain map's one row repeats weights: format each once
                rows[w] = [f'{t}": {reprs.get(x := w * v) or reprs.setdefault(x, fmt(x))}'
                           for t, v in last]
        body = ", ".join(['"' + s + entry for s, w in prefix for entry in rows[w]])
        return f'{{"n": {self.n}, "weights": {{{body}}}}}'

    @classmethod
    def from_json(cls, text: str) -> "BellDiagonalState":
        """Read a document written by `to_json`.  It must be an object whose
        "n" is a JSON integer >= 1 and whose "weights" object maps Bell
        strings to JSON numbers; any other document raises ValueError.  Its
        parsed map is kept if every key is digit text and every weight a
        positive float, else it goes through the public constructor."""

        data = json.loads(text)
        if type(data) is not dict or type(raw := data.get("weights")) is not dict:
            raise ValueError('a state document must be an object with a "weights" object')
        n = data.get("n")
        if type(n) is not int or n < 1:
            raise ValueError(f"copy count must be an integer >= 1, got {json.dumps(n)}")
        values = raw.values()
        if (set(map(len, raw)) == {n} and (joined := "".join(raw)).isascii()
                and not joined.encode().translate(None, b"1234")
                and set(map(type, values)) == {float} and min(values) > 0
                and not math.isnan(sum(values))):  # min passes a NaN that is not first
            # every key is n of the characters 1234, so already canonical, and every
            # weight a positive float: the rules of check_bell_string and __post_init__,
            # which any other document goes through.  _trusted still checks the sum.
            return cls._trusted(n, raw)
        for w in raw.values():
            if type(w) not in (int, float):
                raise ValueError(f"weight must be a number, got {json.dumps(w)}")
        return cls(n, raw)


def rho_n(n: int) -> BellDiagonalState:
    """Uniform mixture of the four n-fold Bell products: weight 1/4 on each
    constant string "ii...i"."""

    if (n := _count(n, "copy count")) > MAX_COPIES:
        raise ValueError(f"copy count {n} > {MAX_COPIES}, the most rho_n builds")
    return BellDiagonalState._trusted(n, {i * n: 0.25 for i in "1234"})


def rho2_power(m: int) -> BellDiagonalState:
    """m independent two-copy blocks: weight 4^-m on every pair-constant
    string "k1k1k2k2...kmkm" of length 2m.

    The map keeps the m blocks, so a lookup costs O(m); iterating it streams
    all 4^m strings, the last block varying fastest.
    """

    m = _count(m, "block count")
    if m > 511:
        raise ValueError(f"block count {m} > 511: the weight 4^-m is not a normal float")
    block = BellDiagonalState._trusted(2, {k * 2: 0.25 for k in "1234"})
    return block.tensor(*[block] * (m - 1))


def is_pair_constant(s: str | Sequence[int]) -> bool:
    return s[::2] == s[1::2]  # an odd length makes the halves differ in length


def sigma_n(perms: Sequence[tuple[int, int, int, int]] | Sequence[str]) -> BellDiagonalState:
    """Four-term mixture with weight 1/4 on the string pi_1(i) ... pi_n(i), i=1..4:
    rho_n relabelled copy by copy.

    Each copy carries its own Bell-index permutation; permutations may be
    given in one-line notation strings like "2134".
    """

    if len(perms) == 0:
        raise ValueError("need at least one permutation (one per copy)")
    return rho_n(len(perms)).permute_per_copy(perms)


# each of the 24 permutations of 1..4, as a tuple and as one-line text, to its tuple
_PERMUTATIONS = {key: p for p in itertools.permutations((1, 2, 3, 4))
                 for key in (p, "".join(map(str, p)))}
_INVERSES = {p: tuple(p.index(i) + 1 for i in (1, 2, 3, 4)) for p in _PERMUTATIONS.values()}


def check_permutation(perm: Sequence[int] | str) -> tuple[int, int, int, int]:
    """perm's entries as a permutation of 1..4, each read as a Bell index is
    (a digit character converts): one-line "2134" maps 1->2 and 2->1.  A
    str, or a tuple of ints, in the table is read by one lookup; any other
    input goes through the rule."""

    # only those two types: under == the table would also match (1.0, 2, 3, 4)
    # or (1 + 0j, 2, 3, 4), which the rule must read
    if type(perm) is str or type(perm) is tuple and set(map(type, perm)) == {int}:
        if (t := _PERMUTATIONS.get(perm)) is not None:
            return t
    try:
        t = _integers(perm)
    except ValueError:  # a fractional, infinite or NaN entry
        t = ()
    if sorted(t) != [1, 2, 3, 4]:
        raise ValueError(f"not a permutation of 1..4: {perm!r}")
    return t


def invert_permutation(perm: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    return _INVERSES[check_permutation(perm)]


def bell_diagonal_kl(p: BellDiagonalState, q: BellDiagonalState) -> float:
    """Classical KL divergence sum p log2(p/q) in bits.

    States diagonal in the same product basis commute, so this equals the
    dense relative entropy after conversion.  Returns math.inf as soon as p
    carries weight on a string outside q's support.
    """

    if p.n != q.n:
        raise ValueError("states must have the same copy count")
    total = 0.0
    for s, w in p.weights.items():
        qs = q.weights.get(s, 0.0)  # p's keys are digit text, as q's are
        if qs <= 0.0:
            return math.inf
        ratio = w / qs  # overflows only for a subnormal qs; its log is finite
        total += w * (math.log2(ratio) if ratio < math.inf else math.log2(w) - math.log2(qs))
    return total


def to_dense(b: BellDiagonalState) -> DensityOperator:
    """Dense density operator sum_s w(s) |Phi_s><Phi_s| on the canonical
    copy-major register (capped at 12 qubits).  The strings of one z pattern
    share a support, disjoint from the others': each pattern's block adds its
    strings' outer products in sorted order, from `_kron`'s amplitudes there,
    with no ket, so every entry gets `dm_from_ensemble`'s terms in its order."""

    check_dense_size(2 * b.n)
    groups, total = {}, 0.0
    for s, w in sorted(b.weights.items()):
        groups.setdefault(s.translate(_Z_BITS), []).append((s, w))
        total += w  # dm_from_ensemble's sum, in its order
    rho, supports = _sparse_zeros(4 ** b.n), []
    for members in groups.values():
        on = np.zeros(1, dtype=np.intp)
        for c in members[0][0]:
            on = (4 * on[:, None] + _SUPPORTS[c][0]).ravel()
        block = np.zeros((len(on), len(on)), dtype=complex)
        for s, w in members:
            a = _kron([_SUPPORTS[c][1] for c in s])
            block += w * np.outer(a, a.conj())
        rho[np.ix_(on, on)] = block
        supports.append(on)
    return _mixture(rho, total, supports)

"""Bell basis and the rank-structured Bell-diagonal representation.

Every state this package studies is diagonal in the n-fold Bell product
basis, so a sparse probability map over index strings in {1..4}^n describes
it completely.  The dense path exists for cross-validation at small n.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .states import DensityOperator, Ket, _kron, check_dense_size, dm_from_ensemble

WEIGHT_SUM_TOL = 1e-12
MAX_COPIES = 10 ** 6  # rho_n's 4 strings are tuples of n ints: 91 MB for eq5 --m 500000

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


def check_bell_index(i: int) -> int:
    return check_bell_string((i,), 1)[0]


def bell_bits(i: int) -> tuple[int, int]:
    """(z, x) with i - 1 = 2z + x: Phi_i's <Z⊗Z> and <X⊗X> are (-1)^z and
    (-1)^x (the binary labels of Bennett et al., quant-ph/9604024)."""

    return divmod(check_bell_index(i) - 1, 2)


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
        # rounding is monotone, so every product is nonzero iff this one is
        self.smallest = math.prod(min(f.weights.values()) for f in self.factors)

    def __getitem__(self, s):
        if not isinstance(s, tuple) or len(s) != self.n:
            raise KeyError(s)
        w = 1.0
        for a, b, weights in self.slices:
            w *= weights[s[a:b]]
        return w

    def __len__(self) -> int:
        return math.prod(len(f.weights) for f in self.factors)

    def items(self):
        return _expand(f.weights.items() for f in self.factors)

    def __eq__(self, other):
        if not isinstance(other, Mapping):
            return NotImplemented
        get = other.get
        return len(other) == len(self) and all(get(s) == w for s, w in self.items())

    def __iter__(self):
        return (s for s, _ in self.items())


def _expand(parts, key=tuple):
    """Stream the product of weight maps given as (string, weight) pairs,
    the last varying fastest, holding only the product of all but the last.
    Each part's strings pass through `key` once (tuples, or digit strings
    for JSON) and are concatenated; the weights multiply left to right."""

    *lead, last = [[(key(t), v) for t, v in part] for part in parts]
    prefix = [(key(()), 1.0)]
    for part in lead:
        prefix = [(s + t, w * v) for s, w in prefix for t, v in part]
    for s, w in prefix:
        for t, v in last:
            yield s + t, w * v


def _weight_total(weights: Mapping[tuple[int, ...], float]) -> float:
    if isinstance(weights, _Product):
        return math.prod(_weight_total(f.weights) for f in weights.factors)
    # a running float sum drifts past the tolerance over 10^6 strings; fsum does not
    return math.fsum(weights.values())


def _check_weight_sum(weights: Mapping[tuple[int, ...], float]) -> None:
    total = _weight_total(weights)
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


def _digits(s: tuple[int, ...]) -> str:
    return "".join(map(str, s))


@dataclass(frozen=True)
class BellDiagonalState:
    """Sparse probability distribution over Bell strings of length n."""

    n: int
    weights: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "copy count"))
        clean = {}
        for s, w in self.weights.items():
            s = check_bell_string(s, self.n)
            w = float(w)
            if w < 0:
                raise ValueError(f"negative weight {w} for string {s}")
            if w == 0.0:
                continue
            clean[s] = clean.get(s, 0.0) + w
        _check_weight_sum(clean)
        object.__setattr__(self, "weights", clean)

    @classmethod
    def _trusted(cls, n: int, weights: Mapping[tuple[int, ...], float]) -> "BellDiagonalState":
        """Wrap a map of distinct valid strings with positive float weights,
        built from valid states by an operation or parsed by `from_json`
        from keys and weights it has checked: only the weight sum is checked
        (from the factors, for a product), and the map is kept as given."""

        _check_weight_sum(weights)
        state = object.__new__(cls)
        object.__setattr__(state, "n", n)
        object.__setattr__(state, "weights", weights)
        return state

    def weight(self, s: Sequence[int]) -> float:
        return self.weights.get(tuple(s), 0.0)

    def entropy_bits(self) -> float:
        return float(-sum(w * math.log2(w) for _, w in self.weights.items() if w > 0))

    def tensor(self, *others: "BellDiagonalState") -> "BellDiagonalState":
        """Tensor product; the others' copies are appended after ours, in
        order.  The result keeps the factors and looks weights up in them."""

        factors = []
        for state in (self, *others):
            weights = state.weights
            if isinstance(weights, _Product):
                factors.extend(weights.factors)
            else:
                factors.append(state)
        combined = _Product(factors)
        if combined.smallest == 0.0:
            # a product that underflows to 0.0 is dropped, as the public constructor does
            combined = {s: w for s, w in combined.items() if w}
        return BellDiagonalState._trusted(sum(f.n for f in factors), combined)

    def permute_per_copy(self, perms: Sequence[tuple[int, int, int, int]]) -> "BellDiagonalState":
        """Relabel Bell indices copy-by-copy: s_j -> perms[j][s_j - 1]."""

        if len(perms) != self.n:
            raise ValueError(f"need {self.n} permutations, got {len(perms)}")
        perms = [check_permutation(p) for p in perms]
        if isinstance(self.weights, _Product):
            # permuting each factor keeps the product factored
            factored = self.weights
            factors = [f.permute_per_copy(perms[a:b])
                       for f, (a, b, _) in zip(factored.factors, factored.slices)]
            return BellDiagonalState._trusted(self.n, _Product(factors))
        # a bijection per copy maps distinct strings to distinct strings
        out = {tuple(p[i - 1] for p, i in zip(perms, s)): w for s, w in self.weights.items()}
        return BellDiagonalState._trusted(self.n, out)

    def to_json(self) -> str:
        """The text of json.dumps({"n": n, "weights": ...}, sort_keys=True),
        written directly.  Digit strings of one length sort as the tuples
        do, so streaming each factor's strings in sorted order (a plain map
        is one factor) lists the map in sort_keys order; each distinct
        weight is formatted once, by the float.__repr__ json calls."""

        weights = self.weights
        factors = weights.factors if isinstance(weights, _Product) else (self,)
        keyed = _expand((sorted(f.weights.items()) for f in factors), _digits)
        reprs = {}
        body = ", ".join([f'"{s}": {reprs.get(w) or reprs.setdefault(w, float.__repr__(w))}'
                          for s, w in keyed])
        return f'{{"n": {self.n}, "weights": {{{body}}}}}'

    @classmethod
    def from_json(cls, text: str) -> "BellDiagonalState":
        """Read a document written by `to_json`.  It must be an object whose
        "n" is a JSON integer >= 1 and whose "weights" object maps Bell
        strings to JSON numbers; any other document raises ValueError."""

        data = json.loads(text)
        if type(data) is not dict or type(raw := data.get("weights")) is not dict:
            raise ValueError('a state document must be an object with a "weights" object')
        n = data.get("n")
        if type(n) is not int or n < 1:
            raise ValueError(f"copy count must be an integer >= 1, got {json.dumps(n)}")
        if (set(map(len, raw)) == {n} and (joined := "".join(raw)).isascii()
                and not (codes := joined.encode()).translate(None, b"1234")
                and all(type(w) is float and w > 0 for w in raw.values())):
            # every key is n of the characters 1234 and every weight a positive
            # float: convert all keys at once; _trusted still checks the sum.
            # These are the rules of check_bell_string and __post_init__, which
            # any other document goes through; the two routes must agree.
            codes = iter(codes.translate(bytes.maketrans(b"1234", b"\1\2\3\4")))
            return cls._trusted(n, dict(zip(zip(*[codes] * n), raw.values())))
        for w in raw.values():
            if type(w) not in (int, float):
                raise ValueError(f"weight must be a number, got {json.dumps(w)}")
        weights = {tuple(map(int, key)): w for key, w in raw.items()}
        return cls(n, weights)


def rho_n(n: int) -> BellDiagonalState:
    """Uniform mixture of the four n-fold Bell products: weight 1/4 on each
    constant string (i, i, ..., i)."""

    if (n := _count(n, "copy count")) > MAX_COPIES:
        raise ValueError(f"copy count {n} > {MAX_COPIES}, the most rho_n builds")
    return BellDiagonalState(n, {(i,) * n: 0.25 for i in (1, 2, 3, 4)})


def rho2_power(m: int) -> BellDiagonalState:
    """m independent two-copy blocks: weight 4^-m on every pair-constant
    string (k1, k1, k2, k2, ..., km, km) of length 2m.

    The map keeps the m blocks, so a lookup costs O(m); iterating it streams
    all 4^m strings, the last block varying fastest.
    """

    m = _count(m, "block count")
    if m > 511:
        raise ValueError(f"block count {m} > 511: the weight 4^-m is not a normal float")
    block = BellDiagonalState._trusted(2, {(k, k): 0.25 for k in (1, 2, 3, 4)})
    return BellDiagonalState._trusted(2 * m, _Product([block] * m))


def is_pair_constant(s: Sequence[int]) -> bool:
    return s[::2] == s[1::2]  # an odd length makes the halves differ in length


def sigma_n(perms: Sequence[tuple[int, int, int, int]] | Sequence[str]) -> BellDiagonalState:
    """Four-term mixture with weight 1/4 on (pi_1(i), ..., pi_n(i)), i=1..4.

    Each copy carries its own Bell-index permutation; permutations may be
    given in one-line notation strings like "2134".
    """

    parsed = [parse_permutation(p) if isinstance(p, str) else check_permutation(p)
              for p in perms]
    if not parsed:
        raise ValueError("need at least one permutation (one per copy)")
    n = len(parsed)
    weights = {}
    for i in (1, 2, 3, 4):
        s = tuple(p[i - 1] for p in parsed)
        weights[s] = weights.get(s, 0.0) + 0.25
    return BellDiagonalState(n, weights)


def check_permutation(perm: Sequence[int]) -> tuple[int, int, int, int]:
    try:
        t = _integers(perm)
    except ValueError:  # a fractional, infinite or NaN entry
        t = ()
    if sorted(t) != [1, 2, 3, 4]:
        raise ValueError(f"not a permutation of 1..4: {perm}")
    return t


def parse_permutation(one_line: str) -> tuple[int, int, int, int]:
    """Parse one-line notation, e.g. "2134" maps 1->2, 2->1, 3->3, 4->4."""

    if len(one_line) != 4 or not one_line.isdigit():
        raise ValueError(f"one-line permutation must be 4 digits, got {one_line!r}")
    return check_permutation(tuple(int(c) for c in one_line))


def invert_permutation(perm: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    inv = [0, 0, 0, 0]
    for i, image in enumerate(check_permutation(perm), start=1):
        inv[image - 1] = i
    return tuple(inv)


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
        qs = q.weight(s)
        if qs <= 0.0:
            return math.inf
        total += w * math.log2(w / qs)
    return total


def to_dense(b: BellDiagonalState) -> DensityOperator:
    """Dense density operator sum_s w(s) |Phi_s><Phi_s| on the canonical
    copy-major register (capped at 12 qubits)."""

    check_dense_size(2 * b.n)
    members = [(w, bell_product_ket(s)) for s, w in sorted(b.weights.items())]
    return dm_from_ensemble(members)


# --- The two-copy flip identity --------------------------------------------
#
# The uniform four-fold mixture on two copies equals the same mixture with
# the Bell pairs re-formed across (A1,A2) and (B1,B2).  In that form every
# term is a product state across the Alice:Bob cut, which is the explicit
# separability witness for the two-copy mixture.

def smolin_flipped_terms() -> list[Ket]:
    """The four flipped product terms |Phi_i>_{A1A2} x |Phi_i>_{B1B2},
    on the canonical A1,B1,A2,B2 register."""

    terms = []
    for phi in BELL_AMPLITUDES:
        flipped = _kron([phi, phi]).reshape(2, 2, 2, 2)  # axes A1,A2,B1,B2
        terms.append(Ket(flipped.transpose(0, 2, 1, 3).reshape(16)))
    return terms

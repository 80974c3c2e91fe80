"""Core types for finite distance matrices and weighted split systems.

All arithmetic is exact: values are `fractions.Fraction` at the API and
ints over one common denominator inside a distance matrix; floats are
rejected at the boundary.  Splits are stored canonically (the side not
containing element 0, as an int bitmask), so `A|B` and `B|A` compare equal.
One kernel, ``separation_sums``, sums weighted splits into distances for
``generate_distance``, ``is_circular_split_system`` and flatlab's solver.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "as_rational",
    "GroundSet",
    "Split",
    "DistanceMatrix",
    "WeightedSplitSystem",
    "OrderParams",
    "PreconditionError",
    "split_metric",
    "generate_distance",
    "restrict_split_system",
]

_LABEL_FORBIDDEN = set(",|:#")

# '0'/'1' digits to 0/1 selector bytes for itertools.compress, and flipped
_DIGIT_SELECTS = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_SELECTS_FLIPPED = bytes.maketrans(b"01", b"\x01\x00")
# transpose_bits: the array typecode of each word size in bits, and the
# bits of one chunk of whole column blocks
_WORD_CODES = {array(code).itemsize * 8: code for code in "QLIHB"}
_CHUNK_BITS = 1 << 16


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce an exact value to Fraction.  Floats are refused on purpose:
    they would silently contaminate exact computations."""
    # exact types first: isinstance against Fraction, an ABC subclass, is slow
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(f"refusing float {value!r}; pass int, str or Fraction")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


class GroundSet:
    """An ordered set of distinct element labels.

    Elements are addressed by index 0..n-1 in all computations; labels exist
    for I/O.  Labels must be non-empty, contain no whitespace and none of the
    format separator characters , | : #.
    """

    __slots__ = ("labels", "_index", "_hash")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("ground set needs at least one element")
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise ValueError(f"bad label {lab!r}")
            if any(ch.isspace() for ch in lab) or set(lab) & _LABEL_FORBIDDEN:
                raise ValueError(f"label {lab!r} contains a separator character")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._hash = hash(labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r}") from None

    def restricted(self, keep: Iterable[int]) -> "GroundSet":
        """Sub ground set on the given element indices, in ground order."""
        keep = sorted(set(keep))
        if not keep or keep[0] < 0 or keep[-1] >= self.n:
            raise ValueError("restriction indices out of range or empty")
        return GroundSet(self.labels[i] for i in keep)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, GroundSet) and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GroundSet({','.join(self.labels)})"


def _check_same_ground(a: GroundSet, b: GroundSet) -> None:
    if a != b:
        raise ValueError("ground set mismatch")


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def transpose_bits(rows: Sequence[int], width: int) -> list[int]:
    """The bit matrix read by columns: bit t of out[e] is bit e of rows[t],
    for e < width.  Rows must be ints in [0, 2**width).

    Warren's masked-swap transpose (Hacker's Delight, 2nd ed., 7-3) on
    S x S squares of S-bit words, S the least of 8, 16, 32 and 64 that is
    at least the width, else 64.  Square (g, b) holds bits b*S .. b*S+S-1
    of rows g*S .. g*S+S-1.  The G squares of column block b are stored
    interleaved, row r of square g as word r*G + g of the block, so that
    rounds j = S/2, ..., 1 of
        t = ((x >> k) ^ x) & M_j;  x ^= t ^ (t << k),  k = j * (G*S - 1)
    swap bit (r, c) with bit (r + j, c - j), where r & j = 0 and c & j != 0,
    in every square at once.  x is the int of a chunk of whole blocks, of
    about 2**16 bits, so a round is a few big-int operations and the
    temporaries stay at chunk size.  Column b*S + c then is the G adjacent
    words c*G .. c*G+G-1 of block b: one word of ``array.tolist`` when
    G = 1, else one ``int.from_bytes``.

    The ints are read and written little-endian, while an ``array`` holds
    its words in host byte order: on a big-endian host the words are
    byte-swapped between the two, so the result does not depend on the
    host.  A row out of range fails to convert to words or sets a padding
    column past the width, and either raises ValueError.
    """
    if not rows or not width:
        if any(rows):
            raise _row_range_error(width)
        return [0] * width
    side = 8 if width <= 8 else 16 if width <= 16 else 32 if width <= 32 else 64
    code, size = _WORD_CODES[side], side // 8
    blocks = -(-width // side)
    groups = -(-len(rows) // side)
    padded = list(rows) + [0] * (groups * side - len(rows))
    # row g*S + r goes to place r*G + g, interleaving the squares of a block
    order = []
    for r in range(side):
        order += padded[r::side]
    try:
        if blocks > 1:
            words = array(code, b"".join([row.to_bytes(blocks * size, "little") for row in order]))
        else:
            words = array(code, bytes(order) if side == 8 else order)
            if sys.byteorder == "big":
                words.byteswap()
    except (OverflowError, ValueError):
        raise _row_range_error(width) from None
    span = groups * side  # words in one block
    per_chunk = max(1, _CHUNK_BITS // (span * side))
    masks = _swap_masks(side, groups, min(per_chunk, blocks))
    out: list[int] = []
    for first in range(0, blocks, per_chunk):
        stop = min(first + per_chunk, blocks)
        data = b"".join([words[b::blocks] for b in range(first, stop)]) if blocks > 1 else words
        x = int.from_bytes(data, "little")
        for shift, mask in masks:
            t = ((x >> shift) ^ x) & mask
            x ^= t ^ (t << shift)
        data = x.to_bytes((stop - first) * span * size, "little")
        if groups == 1:
            columns = array(code, data)
            if sys.byteorder == "big":
                columns.byteswap()
            out += columns.tolist()
        else:
            step = groups * size
            out += [int.from_bytes(data[i : i + step], "little") for i in range(0, len(data), step)]
    if any(out[width:]):
        raise _row_range_error(width)
    del out[width:]
    return out


def _row_range_error(width: int) -> ValueError:
    return ValueError(f"rows must be non-negative ints below 2**{width}")


@lru_cache(maxsize=16)
def _swap_masks(side: int, groups: int, blocks: int) -> tuple[tuple[int, int], ...]:
    """The shift k and the mask M_j of each round j of ``transpose_bits``
    on a chunk of blocks of interleaved squares: in each block, M_j has bit
    c of word r*groups + g set iff r & j = 0 and c & j != 0."""
    out = []
    j = side // 2
    while j:
        word = sum(1 << c for c in range(side) if c & j).to_bytes(side // 8, "little")
        rows_on = word * (groups * j)
        mask = (rows_on + bytes(len(rows_on))) * (side // (2 * j) * blocks)
        out.append((j * (groups * side - 1), int.from_bytes(mask, "little")))
        j //= 2
    return tuple(out)


def gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function taking a row to the tuple of its entries at the indices,
    in their order; an ``itemgetter`` unless there is only one index, where
    an ``itemgetter`` would give the entry rather than a 1-tuple."""
    if len(indices) == 1:
        index = indices[0]
        return lambda row: (row[index],)
    return itemgetter(*indices)


def canonical_mask(mask: int, full: int) -> int:
    """The side of the bipartition (mask, full ^ mask) that does not contain
    element 0, which is how a split is stored."""
    return (full ^ mask) if mask & 1 else mask


class Split:
    """A bipartition A|B of a ground set with both sides non-empty.

    Canonical storage: the side that does not contain element 0, as a
    bitmask.  Constructing from either side yields the same object key, so
    splits can be dict keys and set members safely.
    """

    __slots__ = ("ground", "bits")

    def __init__(self, ground: GroundSet, side: Iterable[int | str]):
        n = ground.n
        if n < 2:
            raise ValueError("splits need a ground set with at least 2 elements")
        mask = 0
        for item in side:
            i = ground.index(item) if isinstance(item, str) else item
            if not 0 <= i < n:
                raise ValueError(f"element index {i} out of range")
            mask |= 1 << i
        full = (1 << n) - 1
        if mask == 0 or mask == full:
            raise ValueError("both sides of a split must be non-empty")
        self.ground = ground
        self.bits = canonical_mask(mask, full)

    @classmethod
    def from_bits(cls, ground: GroundSet, bits: int) -> "Split":
        split = object.__new__(cls)
        n = ground.n
        full = (1 << n) - 1
        if n < 2 or bits <= 0 or bits >= full:
            raise ValueError("invalid split bitmask")
        split.ground = ground
        split.bits = canonical_mask(bits, full)
        return split

    def separates(self, x: int, y: int) -> bool:
        return bool(((self.bits >> x) ^ (self.bits >> y)) & 1)

    def side_of(self, x: int) -> frozenset[int]:
        """The part containing element x, as a set of indices."""
        with0, without0 = self.parts()
        return without0 if (self.bits >> x) & 1 else with0

    def parts(self) -> tuple[frozenset[int], frozenset[int]]:
        """Both parts as index sets: (part containing element 0, the other)."""
        full = (1 << self.ground.n) - 1
        return frozenset(bit_indices(full ^ self.bits)), frozenset(bit_indices(self.bits))

    @property
    def min_side_size(self) -> int:
        k = self.bits.bit_count()
        return min(k, self.ground.n - k)

    def restricted(self, keep: Iterable[int]) -> "Split | None":
        """The induced split on a sub ground set, or None if a side empties."""
        return next(iter(restrict_split_system([self], keep)), None)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Split)
            and self.bits == other.bits
            and self.ground == other.ground
        )

    def __hash__(self) -> int:
        # splits of different ground sets may share a hash; __eq__ tells them apart
        return hash(self.bits)

    def __str__(self) -> str:
        """``A | B``, A the part containing element 0, labels in ground
        order; one binary digit per element selects each part's labels."""
        labels = self.ground.labels
        digits = format(self.bits, f"0{len(labels)}b")[::-1].encode()
        with0 = compress(labels, digits.translate(_DIGIT_SELECTS_FLIPPED))
        without0 = compress(labels, digits.translate(_DIGIT_SELECTS))
        return f"{','.join(with0)} | {','.join(without0)}"

    def __repr__(self) -> str:
        return f"Split({self})"


class DistanceMatrix:
    """A symmetric matrix of exact non-negative values with zero diagonal.

    No triangle inequality is assumed; any symmetric dissimilarity matrix
    fits.  Entry (i, j) is stored as the int rows[i][j] over ``scale``, the
    least common denominator of all entries.  Immutable by convention.
    """

    __slots__ = ("ground", "scale", "_rows")

    def __init__(self, ground: GroundSet, entries: Iterable[Iterable[object]]):
        rows = [[as_rational(v) for v in row] for row in entries]
        scale = lcm(*(v.denominator for row in rows for v in row))
        ints = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
        self._set(ground, ints, scale)

    @classmethod
    def from_scaled(
        cls, ground: GroundSet, rows: Iterable[Iterable[int]], scale: int = 1
    ) -> "DistanceMatrix":
        """The matrix with entries rows[i][j] / scale, from ints."""
        matrix = object.__new__(cls)
        matrix._set(ground, [list(row) for row in rows], scale)
        return matrix

    def _set(self, ground: GroundSet, rows: list[list[int]], scale: int) -> None:
        n = ground.n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected a {n}x{n} matrix")
        common = gcd(scale, *(gcd(*row) for row in rows))  # TypeError unless ints
        if scale < 1:
            raise ValueError(f"scale must be positive, got {scale}")
        # row i passes when row[i:] starts with 0, equals column[i:] and has
        # no negative entry; the rows before it passed vouch for row[:i], so
        # only a failing row walks j > i to name its first fault
        for i, (row, column) in enumerate(zip(rows, zip(*rows))):
            right = row[i:]
            if right[0] == 0 and tuple(right) == column[i:] and min(right) >= 0:
                continue
            if row[i] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) must be 0")
            for j in range(i + 1, n):
                if row[j] != rows[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
                if row[j] < 0:
                    raise ValueError(f"negative entry at ({i},{j})")
        if common > 1:
            rows = [[v // common for v in row] for row in rows]
        self.ground = ground
        self.scale = scale // common
        self._rows = rows

    @property
    def n(self) -> int:
        return self.ground.n

    def __getitem__(self, pair: tuple[int, int]) -> Fraction:
        i, j = pair
        return Fraction(self._rows[i][j], self.scale)

    def by_label(self, a: str, b: str) -> Fraction:
        return self[self.ground.index(a), self.ground.index(b)]

    def comparison_rows(self) -> list[list[int]]:
        """The entries as ints over ``scale``, which keeps every <, =, >
        relation and every sum, so engines read these rows, not Fractions.
        Callers must not modify them."""
        return self._rows

    def restricted(self, keep: Iterable[int]) -> "DistanceMatrix":
        keep = sorted(set(keep))
        sub = self.ground.restricted(keep)
        rows = [[self._rows[i][j] for j in keep] for i in keep]
        return DistanceMatrix.from_scaled(sub, rows, self.scale)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DistanceMatrix)
            and self.ground == other.ground
            and (self.scale, self._rows) == (other.scale, other._rows)
        )

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


class WeightedSplitSystem:
    """A set of distinct splits with non-negative rational weights.

    Iteration order over `.splits` is deterministic (sorted by the canonical
    bitmask), which keeps every downstream report and random weighting
    reproducible.  Equal int or str weights share one `Fraction`, and a
    `Fraction` weight is kept as given.  Construction builds no (split,
    weight) pair per split, and the system keeps its splits and weights as
    two columns.
    """

    __slots__ = ("ground", "_weights", "_sorted", "_sorted_weights")

    def __init__(
        self,
        ground: GroundSet,
        weights: Mapping[Split, object] | Iterable[tuple[Split, object]],
    ):
        items = weights.items() if isinstance(weights, Mapping) else weights
        table: dict[Split, Fraction] = {}
        # one Fraction per distinct raw weight, keyed on its type as well,
        # since 1.0 == 1 and the float must still be refused; a Fraction
        # passes as it is, as its hash is Python-level
        rational: dict[tuple[type, object], Fraction] = {}
        for split, w in items:
            if split.ground is not ground:
                _check_same_ground(ground, split.ground)
            kind = type(w)
            if kind is not Fraction:
                try:
                    w = rational[kind, w]
                except (KeyError, TypeError):  # a new or an unhashable weight
                    w = rational.setdefault((kind, w), as_rational(w))
            if w.numerator < 0:
                raise ValueError(f"negative weight {w} on {split}")
            size = len(table)
            table[split] = w  # a duplicate leaves the size unchanged
            if len(table) == size:
                raise ValueError(f"duplicate split {split}")
        self.ground = ground
        self._weights = table
        # both columns in bitmask order, without hashing a split again:
        # sorted() computes each key once, in list order, so the weights
        # sort on the bits of their own splits, read in the same order
        bits = attrgetter("bits")
        self._sorted = tuple(sorted(table, key=bits))
        self._sorted_weights = tuple(
            sorted(table.values(), key=partial(next, map(bits, table)))
        )

    @classmethod
    def unit(cls, ground: GroundSet, splits: Iterable[Split]) -> "WeightedSplitSystem":
        return cls(ground, zip(splits, repeat(1)))

    @property
    def splits(self) -> tuple[Split, ...]:
        return self._sorted

    def weight(self, split: Split) -> Fraction:
        return self._weights[split]

    def items(self) -> Iterator[tuple[Split, Fraction]]:
        return zip(self._sorted, self._sorted_weights)

    def split_set(self) -> frozenset[Split]:
        return frozenset(self._weights)

    def reweighted(self, weights: Mapping[Split, object]) -> "WeightedSplitSystem":
        """Same splits, new weights (missing splits get weight 0)."""
        splits = self._sorted
        return WeightedSplitSystem(
            self.ground, zip(splits, map(weights.get, splits, repeat(0)))
        )

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, split: Split) -> bool:
        return split in self._weights

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeightedSplitSystem)
            and self.ground == other.ground
            and self._weights == other._weights
        )

    def __repr__(self) -> str:
        return f"WeightedSplitSystem({len(self)} splits on n={self.ground.n})"


def ground_and_splits(
    splits: WeightedSplitSystem | Iterable[Split],
) -> tuple[GroundSet, tuple[Split, ...]]:
    """The ground set and the distinct splits in canonical bitmask order.

    A WeightedSplitSystem keeps its ground set even when it has no splits.
    A bare collection takes its ground set from its splits, so it must not
    be empty, and all its splits must share one ground set.
    """
    if isinstance(splits, WeightedSplitSystem):
        return splits.ground, splits.splits
    distinct = set(splits)
    if not distinct:
        raise ValueError("cannot infer the ground set of an empty collection")
    ground = next(iter(distinct)).ground
    for split in distinct:
        if split.ground is not ground:
            _check_same_ground(ground, split.ground)
    return ground, tuple(sorted(distinct, key=lambda split: split.bits))


class PreconditionError(ValueError):
    """Raised when the input is well formed but outside the domain an
    operation needs, such as non-circular input to the circular engine."""


class OrderParams:
    """Order distance parameters: p > 0 and q >= p/2, both rational;
    PreconditionError otherwise."""

    __slots__ = ("p", "q")

    def __init__(self, p: int | str | Fraction, q: int | str | Fraction):
        p = as_rational(p)
        q = as_rational(q)
        if p <= 0:
            raise PreconditionError(f"p must be positive, got {p}")
        if q < p / 2:
            raise PreconditionError(f"q must be at least p/2, got p={p}, q={q}")
        self.p = p
        self.q = q

    @property
    def half_p(self) -> Fraction:
        return self.p / 2

    @property
    def e_coeff(self) -> Fraction:
        """Coefficient of the equidistance terms, q - p/2 (0 when q = p/2)."""
        return self.q - self.p / 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrderParams)
            and self.p == other.p
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __repr__(self) -> str:
        return f"OrderParams(p={self.p}, q={self.q})"


def split_metric(split: Split) -> DistanceMatrix:
    """The 0/1 distance matrix of one split: 1 exactly for separated pairs."""
    return generate_distance(WeightedSplitSystem.unit(split.ground, [split]))


def separation_sums(weights: Sequence[int]) -> Callable[[Sequence[int]], list[int]]:
    """The split distance kernel: a function taking masks sep of splits to
    the sums of weights[t] over the set bits t of each.

    With side = ``transpose_bits`` of the split bits, sep = side[x] ^ side[y]
    holds the splits separating x and y.  With low = min(0, min w) and W_k
    the mask of the splits whose w - low has bit k, built once here, ints
    of any sign sum as
        D(x, y) = sum over k of 2**k * popcount(sep & W_k) + low * popcount(sep).
    """
    low = min(0, min(weights, default=0))
    shifted = [w - low for w in weights]
    planes = transpose_bits(shifted, max(shifted, default=0).bit_length())
    planes = [(k, plane) for k, plane in enumerate(planes) if plane]

    def sums(masks: Sequence[int]) -> list[int]:
        out = [low * mask.bit_count() for mask in masks] if low else [0] * len(masks)
        for k, plane in planes:
            out = [s + ((mask & plane).bit_count() << k) for s, mask in zip(out, masks)]
        return out

    return sums


def separation_rows(side: Sequence[int], weights: Sequence[int]) -> list[list[int]]:
    """The symmetric int rows of D(x, y): ``separation_sums`` on the masks
    side[x] ^ side[y] for y > x, added to their transpose."""
    sums = separation_sums(weights)
    upper = [[0] * x + sums([a ^ b for b in side[x:]]) for x, a in enumerate(side)]
    return [list(map(add, row, column)) for row, column in zip(upper, zip(*upper))]


def generate_distance(system: WeightedSplitSystem) -> DistanceMatrix:
    """The distance generated by a weighted split system:
    D(x, y) = sum of weights of the splits separating x and y.

    The nonzero weights are scaled to ints by their common denominator
    and summed over that scale by ``separation_rows``.
    """
    weighted = [(split, w) for split, w in system.items() if w != 0]
    scale = lcm(*(w.denominator for _, w in weighted))
    side = transpose_bits([split.bits for split, _ in weighted], system.ground.n)
    ints = [w.numerator * (scale // w.denominator) for _, w in weighted]
    return DistanceMatrix.from_scaled(system.ground, separation_rows(side, ints), scale)


def restrict_split_system(
    splits: Iterable[Split], keep: Iterable[int]
) -> frozenset[Split]:
    """Induced splits on a subset of elements.

    Splits whose side empties vanish and coinciding restrictions merge, so
    the result can be smaller than the input; it can even be empty.
    """
    keep = sorted(set(keep))
    full = (1 << len(keep)) - 1
    out = set()
    ground = sub = None
    for s in splits:
        if s.ground is not ground:
            ground, sub = s.ground, s.ground.restricted(keep)
        mask = sum(1 << new_i for new_i, old_i in enumerate(keep) if s.bits >> old_i & 1)
        if 0 < mask < full:
            out.add(Split.from_bits(sub, mask))
    return frozenset(out)

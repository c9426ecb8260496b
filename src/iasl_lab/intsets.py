"""Finite sets of non-negative integers, sumsets, and power-set classification.

Sets are stored as integer bit masks (bit ``i`` set iff ``i`` is a member), so
a sumset costs one shift-or per element of the left operand (``sumset_mask``),
an entry of the sumset table of P(X) one shift-or (``_sum_bits`` builds each
row from a smaller one), and exhaustive sweeps over the power-set lattice of
a small ground set stay cheap.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

DEFAULT_MAX_ELEMENT = 63
DEFAULT_GROUND_CAP = 5

ZERO_MASK = 1  # bit mask of the set {0}

# an element of a set literal: ASCII digits; a negative number also matches,
# so that the range check of IntSet can name it
_ELEMENT = re.compile(r"[0-9]+|-0*[1-9][0-9]*")


class EnumerationInfeasible(ValueError):
    """An exhaustive operation would exceed its configured cap."""


class ParseError(ValueError):
    """Malformed input text; ``line`` is the offending line number, or None
    when the error concerns the whole text."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    r"""(line number, content) of every line of the text file formats, with
    the ``#`` comment and surrounding whitespace cut; blank lines are skipped.
    Only ``\n`` ends a line, unlike ``str.splitlines``; the ``\r`` of
    ``\r\n`` is cut with the whitespace."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def check_text_names(names: Iterable[str]) -> None:
    """Raise ``ValueError`` naming the first vertex name the text formats
    cannot carry: one that is no string, an empty one, or one with
    whitespace or ``#`` in it."""
    for name in names:
        if (not isinstance(name, str) or not name or "#" in name
                or any(c.isspace() for c in name)):
            raise ValueError(f"vertex name {name!r} cannot be written as text")


def bits_of(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def sumset_mask(a: int, b: int) -> int:
    """Sumset of two bit masks: OR of ``b`` shifted by every element of ``a``."""
    out = 0
    while a:
        low = a & -a
        out |= b << (low.bit_length() - 1)
        a ^= low
    return out


def subset_sort_key(mask: int) -> tuple:
    """Canonical subset order: ascending cardinality, then element order."""
    return (mask.bit_count(), tuple(bits_of(mask)))


def _mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for x in elements:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"set elements must be integers, got {x!r}")
        if x < 0:
            raise ValueError(f"set elements must be non-negative, got {x}")
        if x > DEFAULT_MAX_ELEMENT:
            raise ValueError(f"element {x} exceeds the maximum {DEFAULT_MAX_ELEMENT}")
        mask |= 1 << x
    return mask


class IntSet:
    """Immutable set of distinct non-negative integers, kept in sorted order."""

    __slots__ = ("mask",)

    def __init__(self, elements: Iterable[int] = ()):
        self.mask: int = _mask_of(elements)

    @classmethod
    def from_mask(cls, mask: int) -> "IntSet":
        """Wrap an already-validated bit mask (fast path, no range checks)."""
        obj = object.__new__(cls)
        obj.mask = mask
        return obj

    @classmethod
    def parse(cls, text: str) -> "IntSet":
        """Parse a set literal: ``{0,1,3}``, bare ``0,1,3``, ``{}`` or ``∅``.

        Each element is ASCII digits, with spaces around it allowed.
        """
        body = text.strip()
        if body == "∅":
            return cls.from_mask(0)
        if body.startswith("{"):
            if not body.endswith("}"):
                raise ValueError(f"unbalanced braces in set literal {text!r}")
            inner = body[1:-1].strip()
            if inner == "":
                return cls.from_mask(0)
        else:
            if body == "":
                raise ValueError("empty set literal")
            inner = body
        parts = [part.strip() for part in inner.split(",")]
        if not all(_ELEMENT.fullmatch(part) for part in parts):
            raise ValueError(f"bad set literal {text!r}")
        return cls(map(int, parts))

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    def max(self) -> int:
        if not self.mask:
            raise ValueError("empty set has no maximal element")
        return self.mask.bit_length() - 1

    def __add__(self, other: "IntSet") -> "IntSet":
        return sumset(self, other)

    def __or__(self, other: "IntSet") -> "IntSet":
        return IntSet.from_mask(self.mask | other.mask)

    def __and__(self, other: "IntSet") -> "IntSet":
        return IntSet.from_mask(self.mask & other.mask)

    def __contains__(self, x: int) -> bool:
        return x >= 0 and bool(self.mask >> x & 1)

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntSet) and self.mask == other.mask

    def __lt__(self, other: "IntSet") -> bool:
        return subset_sort_key(self.mask) < subset_sort_key(other.mask)

    def __hash__(self) -> int:
        return hash(self.mask)

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in bits_of(self.mask)) + "}"

    def __repr__(self) -> str:
        return f"IntSet({self})"


def sumset(a: IntSet, b: IntSet) -> IntSet:
    """The set of all pairwise sums of ``a`` and ``b``.

    Both operands must be non-empty: the empty set is never a vertex or edge
    label, so asking for its sumset signals misuse upstream.
    """
    if not a.mask or not b.mask:
        raise ValueError("sumset operands must be non-empty")
    return IntSet.from_mask(sumset_mask(a.mask, b.mask))


class GroundSet:
    """The label universe X: a small set of non-negative integers containing 0.

    The size cap (``DEFAULT_GROUND_CAP``, 5) keeps ``P(X)`` small enough for
    the exhaustive sweeps everything downstream relies on.
    """

    __slots__ = ("mask", "_subsets")

    def __init__(self, elements):
        mask = elements.mask if isinstance(elements, IntSet) else _mask_of(elements)
        if not mask:
            raise ValueError("ground set must be non-empty")
        if not mask & 1:
            raise ValueError("ground set must contain 0")
        if mask.bit_count() > DEFAULT_GROUND_CAP:
            raise EnumerationInfeasible(
                f"ground set has {mask.bit_count()} elements, "
                f"cap is {DEFAULT_GROUND_CAP}")
        self.mask: int = mask
        self._subsets: Optional[tuple[int, ...]] = None

    @classmethod
    def parse(cls, text: str) -> "GroundSet":
        return cls(IntSet.parse(text))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    @property
    def max_element(self) -> int:
        return self.mask.bit_length() - 1

    def subset_masks(self) -> tuple[int, ...]:
        """All non-empty subset masks of X in canonical order
        (``subset_sort_key``): combinations of the element bits, by size."""
        if self._subsets is None:
            bits = [1 << e for e in bits_of(self.mask)]
            self._subsets = tuple(sum(c) for r in range(1, len(bits) + 1)
                                  for c in combinations(bits, r))
        return self._subsets

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return self.mask

    def __str__(self) -> str:
        return str(IntSet.from_mask(self.mask))

    def __repr__(self) -> str:
        return f"GroundSet({self})"


def record_json(record) -> dict:
    """The JSON of a dataclass record: its fields in declaration order."""
    return {f.name: _json_value(getattr(record, f.name)) for f in fields(record)}


def _json_value(value):
    """Sets and ground sets as literals, lists and tuples as lists, dicts by
    value, anything with a ``to_json`` by its own JSON, the rest as it is."""
    if isinstance(value, (IntSet, GroundSet)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    to_json = getattr(value, "to_json", None)
    return value if to_json is None else to_json()


def all_nonempty_subsets(x: GroundSet) -> list[IntSet]:
    """The ``2^|X| - 1`` non-empty subsets of X in canonical order."""
    return [IntSet.from_mask(m) for m in x.subset_masks()]


@lru_cache(maxsize=None)
def _sum_bits(x: GroundSet) -> tuple[tuple[int, ...], ...]:
    """The sumset table of P(X): entry [p][q] has the bit of the position of
    the sumset of the p-th and q-th non-empty subsets of X (canonical order)
    set, or is 0 when that sumset leaves X.

    Row A is built from row A − {a}, a = min A, which comes earlier in
    canonical order (∅ for a singleton): A + B = ((A − {a}) + B) ∪ (B + a),
    one shift-or per entry. The sumset masks are kept whole, so a sum that
    leaves X stays out of ``bit``."""
    masks = x.subset_masks()
    bit = {m: 1 << p for p, m in enumerate(masks)}
    sums = {0: [0] * len(masks)}  # A -> the masks of A + B, B in order
    rows = []
    for a in masks:
        low = a & -a
        shift = low.bit_length() - 1
        row = sums[a] = [s | b << shift for s, b in zip(sums[a ^ low], masks)]
        rows.append(tuple([bit.get(s, 0) for s in row]))
    return tuple(rows)


def table_key(elements: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    """The position triples (i, j, k), i <= j, with x_i + x_j = x_k, for the
    increasing elements x_0 = 0 < x_1 < ... of a ground set.

    Two ground sets have equal keys exactly when their ``_sum_bits`` tables
    are equal: A + B lies in X when every a + b lands in X, and is then the
    set of those landing points; the singleton entries give the triples back.
    """
    index = {e: k for k, e in enumerate(elements)}
    return tuple((i, j, index[a + b]) for i, a in enumerate(elements)
                 for j, b in enumerate(elements[i:], i) if a + b in index)


@lru_cache(maxsize=None)
def _table_representatives(size: int, element_bound: int) -> tuple[GroundSet, ...]:
    """One ground set per sumset table (``table_key``) among the
    ``size``-element ground sets that contain 0 and draw their other elements
    from 1..element_bound: the first of each table when they are sorted by max
    element, then lexicographically. Built whole and never mutated, so
    concurrent callers share it."""
    candidates = sorted(((0,) + rest for rest in
                         combinations(range(1, element_bound + 1), size - 1)),
                        key=lambda c: (c[-1], c))
    first = {}
    for cand in candidates:
        first.setdefault(table_key(cand), cand)
    return tuple(map(GroundSet, first.values()))


def summand_decompositions(c: IntSet, x: GroundSet) -> list[tuple[IntSet, IntSet]]:
    """All unordered pairs (A, B) of non-empty subsets of X with A + B = c.

    Trivial pairs (one side ``{0}``) are included; callers filter. Pairs come
    out in canonical order, with A <= B.
    """
    if not c.mask:
        raise ValueError("cannot decompose the empty set")
    if c.mask & ~x.mask:
        raise ValueError(f"{c} is not a subset of the ground set {x}")
    subs = x.subset_masks()
    target = 1 << subs.index(c.mask)
    return [(IntSet.from_mask(subs[p]), IntSet.from_mask(subs[q]))
            for p, row in enumerate(_sum_bits(x))
            for q in range(p, len(subs)) if row[q] == target]


@dataclass(frozen=True)
class SubsetClass:
    """Sumset/summand flags for one non-empty subset of the ground set."""

    is_nontrivial_sumset: bool
    is_nontrivial_summand: bool
    witness: Optional[tuple[IntSet, IntSet]]


@dataclass(frozen=True)
class SumsetClassification:
    """Per-subset sumset structure of P(X) and the derived counts.

    ``rho`` counts non-empty subsets expressible as A + B with neither summand
    equal to ``{0}``; ``rho_prime`` counts non-empty subsets other than
    ``{0}`` that are neither non-trivial sumsets nor non-trivial summands.
    ``rho_double_prime`` is the same count under the alternate wording of the
    existence theorem's condition (b); with the non-triviality convention used
    here the two wordings coincide, so the fields always agree.
    ``zero_degree_floor`` (beta) counts subsets other than {0} that are no sum
    A + B of distinct subsets A, B other than {0}: in a set-graceful labeling
    each labels an edge at the {0}-vertex, so that vertex has degree >= beta.
    """

    ground: GroundSet
    per_subset: dict
    rho: int
    rho_prime: int
    rho_double_prime: int
    x_is_sumset: bool
    zero_degree_floor: int

    def to_json(self) -> dict:
        """The four counts, in declaration order."""
        return {"rho": self.rho, "rho_prime": self.rho_prime,
                "rho_double_prime": self.rho_double_prime,
                "x_is_sumset": self.x_is_sumset}

    def nontrivial_summands(self) -> list[IntSet]:
        return [s for s, c in self.per_subset.items() if c.is_nontrivial_summand]

    def neither(self) -> list[IntSet]:
        """Subsets other than {0} that are neither sumsets nor summands."""
        return [s for s, c in self.per_subset.items()
                if s.mask != ZERO_MASK
                and not c.is_nontrivial_sumset and not c.is_nontrivial_summand]


@lru_cache(maxsize=None)
def classify(x: GroundSet) -> SumsetClassification:
    """Exhaust all non-trivial decompositions A + B over subsets of X.

    A decomposition C = A + B counts as non-trivial iff A != {0} != B; since
    {0} is the sumset identity, admitting it would make every subset a sumset
    and collapse rho. Results are cached per ground set and shared, so
    callers must not modify ``per_subset``.
    """
    sets = [IntSet.from_mask(m) for m in x.subset_masks()]
    sums = _sum_bits(x)
    # sum bit -> the first pair of subsets, by position p <= q, that adds up
    # to it; position 0 holds {0}, the trivial summand
    witness: dict[int, tuple[IntSet, IntSet]] = {}
    summands = 0
    distinct = 0  # sum bits of pairs p < q
    for p in range(1, len(sets)):
        row = sums[p]
        for q in range(p, len(sets)):
            if row[q]:
                witness.setdefault(row[q], (sets[p], sets[q]))
                summands |= 1 << p | 1 << q
                if q > p:
                    distinct |= row[q]
    per: dict[IntSet, SubsetClass] = {}
    rho = 0
    neither = 0
    for p, s in enumerate(sets):
        wit = witness.get(1 << p)
        is_sum = wit is not None
        is_summand = bool(summands >> p & 1)
        per[s] = SubsetClass(is_sum, is_summand, wit)
        rho += is_sum
        if p and not is_sum and not is_summand:
            neither += 1
    return SumsetClassification(
        ground=x,
        per_subset=per,
        rho=rho,
        rho_prime=neither,
        rho_double_prime=neither,
        x_is_sumset=1 << (len(sets) - 1) in witness,
        # every position but {0}'s is a required edge label
        zero_degree_floor=(((1 << len(sets)) - 2) & ~distinct).bit_count(),
    )

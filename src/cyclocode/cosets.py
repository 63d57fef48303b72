"""Cyclotomic cosets modulo q^m - 1 and exact index sets over [0, q^m - 1].

Cosets are built by rotating the base-q digits of s rather than by modular
multiplication so that the two fixed points 0 and q^m - 1 come out as
singleton orbits with no special-casing: both are legitimate, distinct
positions of an extended code's defining set.  _orbit is the one orbit
routine of the package: coset_of sorts its orbit, union_cosets adds it to
a set, and minimal and generator polynomials take their orbits from
coset_of.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import ParameterError, ResourceLimitError

__all__ = [
    "CyclotomicCoset",
    "DefiningSet",
    "DEFAULT_INDEX_CAP",
    "coset_of",
    "leader",
    "union_cosets",
]

# Largest q^m for which index sets are materialized (bits over [0, q^m - 1]).
DEFAULT_INDEX_CAP = 1 << 28

_BITREV = bytes(int(format(i, "08b")[::-1], 2) for i in range(256))
# Positions of the set bits of each byte value, lowest first.
_BIT_POSITIONS = tuple(tuple(j for j in range(8) if i >> j & 1) for i in range(256))


def _check_range(s: int, q: int, m: int) -> None:
    if q < 2 or m < 1:
        raise ParameterError(f"need q >= 2 and m >= 1, got q={q}, m={m}")
    if not 0 <= s <= q**m - 1:
        raise ParameterError(f"value {s} out of range [0, {q}^{m} - 1]")


def _check_cap(q: int, m: int) -> int:
    size = q**m
    if size > DEFAULT_INDEX_CAP:
        raise ResourceLimitError(
            f"q^m = {q}^{m} exceeds the materialization cap {DEFAULT_INDEX_CAP}"
        )
    return size


class CyclotomicCoset(NamedTuple):
    """Rotation orbit of a digit word; equivalently the orbit of s under
    multiplication by q modulo q^m - 1 (for s strictly between 0 and q^m - 1)."""

    leader: int
    elements: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def _orbit(s: int, q: int, m: int) -> set[int]:
    """The rotation orbit of the m base-q digits of s, unchecked."""
    top = q ** (m - 1)
    orbit = {s}
    r = s
    for _ in range(m - 1):
        # the top digit wraps to the bottom: r * q mod q^m - 1, with n fixed
        r = r % top * q + r // top
        orbit.add(r)
    return orbit


def coset_of(s: int, q: int, m: int) -> CyclotomicCoset:
    """The cyclotomic coset containing s, as a sorted orbit with its leader."""
    _check_range(s, q, m)
    elems = tuple(sorted(_orbit(s, q, m)))
    return CyclotomicCoset(elems[0], elems)


def leader(s: int, q: int, m: int) -> int:
    """Smallest member of the coset of s."""
    return coset_of(s, q, m).leader


class DefiningSet:
    """An exact subset of the index range [0, q^m - 1], bit-packed.

    Instances are immutable; all operations return new sets.  Membership,
    equality and cardinality are exact.  Construction refuses index ranges
    larger than the materialization cap.
    """

    __slots__ = ("q", "m", "_bits", "_card")

    def __init__(self, q: int, m: int, bits: int):
        size = _check_cap(q, m)
        if bits < 0 or bits >> size:
            raise ParameterError("bit mask outside the index range")
        self.q = q
        self.m = m
        self._bits = bits
        self._card = bits.bit_count()

    @classmethod
    def from_members(cls, q: int, m: int, members: Iterable[int]) -> "DefiningSet":
        _check_cap(q, m)
        buf = bytearray((q**m + 7) // 8)
        top = q**m - 1
        for s in members:
            if not 0 <= s <= top:
                raise ParameterError(f"member {s} out of range [0, {top}]")
            buf[s >> 3] |= 1 << (s & 7)
        return cls(q, m, int.from_bytes(buf, "little"))

    @classmethod
    def empty(cls, q: int, m: int) -> "DefiningSet":
        return cls(q, m, 0)

    @classmethod
    def full(cls, q: int, m: int) -> "DefiningSet":
        return cls(q, m, (1 << _check_cap(q, m)) - 1)

    @property
    def n(self) -> int:
        """Largest index, q^m - 1."""
        return self.q**self.m - 1

    @property
    def cardinality(self) -> int:
        return self._card

    def __len__(self) -> int:
        return self._card

    def __contains__(self, s: int) -> bool:
        return 0 <= s <= self.n and (self._bits >> s) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        """Members in ascending order, from one pass over the mask's bytes,
        so a full iteration is linear in q^m."""
        raw = self._bits.to_bytes((self._bits.bit_length() + 7) // 8, "little")
        for base, byte in zip(range(0, 8 * len(raw), 8), raw):
            if byte:
                for j in _BIT_POSITIONS[byte]:
                    yield base + j

    def members(self) -> list[int]:
        return list(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DefiningSet):
            return NotImplemented
        return (self.q, self.m, self._bits) == (other.q, other.m, other._bits)

    def __hash__(self) -> int:
        return hash((self.q, self.m, self._bits))

    def __repr__(self) -> str:
        return f"DefiningSet(q={self.q}, m={self.m}, cardinality={self._card})"

    def _compatible(self, other: "DefiningSet") -> None:
        if (self.q, self.m) != (other.q, other.m):
            raise ParameterError("sets live on different index ranges")

    def union(self, other: "DefiningSet") -> "DefiningSet":
        self._compatible(other)
        return DefiningSet(self.q, self.m, self._bits | other._bits)

    def intersection(self, other: "DefiningSet") -> "DefiningSet":
        self._compatible(other)
        return DefiningSet(self.q, self.m, self._bits & other._bits)

    def difference(self, other: "DefiningSet") -> "DefiningSet":
        self._compatible(other)
        return DefiningSet(self.q, self.m, self._bits & ~other._bits)

    def complement(self) -> "DefiningSet":
        size = self.q**self.m
        return DefiningSet(self.q, self.m, ~self._bits & ((1 << size) - 1))

    def reflect(self) -> "DefiningSet":
        """The image under s -> n - s (an involution swapping 0 and n)."""
        size = self.q**self.m
        nbytes = (size + 7) // 8
        raw = self._bits.to_bytes(nbytes, "little")
        rev = int.from_bytes(raw.translate(_BITREV), "big") >> (8 * nbytes - size)
        return DefiningSet(self.q, self.m, rev)

    def is_rotation_closed(self) -> bool:
        """True iff membership is preserved by multiplication by q mod n
        on [1, n-1] (0 and n are always fixed points)."""
        n = self.n
        members = set(self)
        return all((s * self.q) % n in members for s in members if 0 < s < n)


def union_cosets(seeds: Iterable[int], q: int, m: int) -> DefiningSet:
    """Union of the cyclotomic cosets of all seeds."""
    _check_cap(q, m)
    members: set[int] = set()
    for s in seeds:
        _check_range(s, q, m)
        if s not in members:
            members |= _orbit(s, q, m)
    return DefiningSet.from_members(q, m, members)

"""Vertices, vertex sets, and symmetries of the binary hypercube Q_d.

A vertex of Q_d is an integer in [0, 2^d); coordinate x_i of the tuple
(x_1, ..., x_d) is stored in bit i-1, so x_1 is the least significant bit.
A vertex set is a dense bitmask of 2^d bits in which bit v records
membership of vertex v.  Everything here is a pure function over immutable
values; VertexSet instances are never mutated after construction.

The text format for vertex sets is line based: each non-comment line is
exactly d characters from {0,1}, read left to right as (x_1, ..., x_d).
Lines starting with '#' are comments; the directive ``# expected-size: N``
makes a file self-checking.  Duplicate vertices are rejected.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, NamedTuple

D_MAX = 28


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class FormatError(ValueError):
    """A text payload violates the vertex-set or labeling file format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def check_dimension(d: int) -> int:
    """Validate 1 <= d <= D_MAX and return d."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise DomainError(f"dimension must be an integer, got {d!r}")
    if d < 1:
        raise DomainError(f"dimension must be at least 1, got {d}")
    if d > D_MAX:
        raise DomainError(f"dimension too large: {d} > {D_MAX}")
    return d


def check_threshold(r: int) -> int:
    """Validate that r is a positive integer and return r."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise DomainError(f"threshold must be a positive integer, got {r!r}")
    return r


def check_vertex(v: int, d: int) -> int:
    """Validate that v indexes a vertex of Q_d and return v."""
    check_dimension(d)
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < (1 << d):
        raise DomainError(f"vertex {v!r} out of range for dimension {d}")
    return v


def weight(v: int) -> int:
    """Coordinate sum (Hamming weight) of a vertex."""
    return v.bit_count()


def neighbors(v: int, d: int) -> list[int]:
    """The d vertices at Hamming distance 1 from v, in coordinate order."""
    check_vertex(v, d)
    return [v ^ (1 << i) for i in range(d)]


def format_vertex(v: int, d: int) -> str:
    """Render v as the d-character string x_1 x_2 ... x_d."""
    check_vertex(v, d)
    return format(v, f"0{d}b")[::-1]


def parse_vertex(text: str, d: int | None = None) -> int:
    """Parse a coordinate string back into a vertex index."""
    if d is not None and len(text) != d:
        raise FormatError(f"expected {d} coordinates, got {len(text)}")
    if not text or set(text) - {"0", "1"}:
        raise FormatError(f"not a 0/1 coordinate string: {text!r}")
    return int(text[::-1], 2)


_NONZERO_RUNS = re.compile(rb"[^\x00]+")
_BYTE_OFFSETS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _iter_bits(bits: int) -> Iterator[int]:
    """Set bit positions in ascending order; the regex skips zero bytes in C."""
    buf = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    for run in _NONZERO_RUNS.finditer(buf):
        base = run.start() * 8
        for byte in run.group():
            for i in _BYTE_OFFSETS[byte]:
                yield base + i
            base += 8


def _bits_of(d: int, vertices: Iterable[int]) -> int:
    """The 2^d-bit state whose set bits are the given vertices (validated by the caller)."""
    buf = bytearray(((1 << d) + 7) // 8)
    for v in vertices:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


class VertexSet:
    """An immutable set of Q_d vertices backed by a 2^d-bit integer."""

    __slots__ = ("d", "bits")

    def __init__(self, d: int, bits: int = 0):
        check_dimension(d)
        if bits < 0 or bits.bit_length() > (1 << d):
            raise DomainError(f"bitmask has vertices outside Q_{d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    @classmethod
    def empty(cls, d: int) -> "VertexSet":
        return cls(d, 0)

    @classmethod
    def full(cls, d: int) -> "VertexSet":
        return cls(d, (1 << (1 << d)) - 1)

    @classmethod
    def of(cls, d: int, vertices: Iterable[int]) -> "VertexSet":
        check_dimension(d)
        return cls(d, _bits_of(d, (check_vertex(v, d) for v in vertices)))

    def cardinality(self) -> int:
        return self.bits.bit_count()

    __len__ = cardinality

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, v: int) -> bool:
        return 0 <= v < (1 << self.d) and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.d == other.d
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.d, self.bits))

    def _check_same(self, other: "VertexSet") -> None:
        if not isinstance(other, VertexSet):
            raise TypeError(f"expected VertexSet, got {type(other).__name__}")
        if self.d != other.d:
            raise DomainError(f"dimension mismatch: {self.d} != {other.d}")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.d, self.bits | other.bits)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.d, self.bits & other.bits)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.d, self.bits & ~other.bits)

    def issubset(self, other: "VertexSet") -> bool:
        self._check_same(other)
        return self.bits & ~other.bits == 0

    __le__ = issubset

    def add(self, v: int) -> "VertexSet":
        check_vertex(v, self.d)
        return VertexSet(self.d, self.bits | (1 << v))

    def discard(self, v: int) -> "VertexSet":
        check_vertex(v, self.d)
        return VertexSet(self.d, self.bits & ~(1 << v))

    def complement(self) -> "VertexSet":
        return VertexSet(self.d, ~self.bits & ((1 << (1 << self.d)) - 1))

    def is_full(self) -> bool:
        return self.bits == (1 << (1 << self.d)) - 1

    def __repr__(self) -> str:
        n = len(self)
        if n > 8:
            head = ", ".join(format_vertex(v, self.d) for v in itertools.islice(self, 5))
            return f"VertexSet(d={self.d}, |S|={n}, {{{head}, ...}})"
        body = ", ".join(format_vertex(v, self.d) for v in self)
        return f"VertexSet(d={self.d}, {{{body}}})"


def layer(d: int, w: int) -> VertexSet:
    """All vertices of Q_d with coordinate sum w (cardinality C(d, w))."""
    check_dimension(d)
    if not 0 <= w <= d:
        raise DomainError(f"layer {w} out of range for dimension {d}")
    combos = itertools.combinations(range(d), w)
    return VertexSet(d, _bits_of(d, (sum(1 << i for i in c) for c in combos)))


def prefix_embed(s: VertexSet, x: int, d: int) -> VertexSet:
    """Copy s from Q_{d-k} into the subcube of Q_d whose first k coordinates equal x.

    The prefix x occupies coordinates 1..k of every output vertex, so a
    member m of s maps to the index (m << k) | x.
    """
    check_dimension(d)
    k = d - s.d
    if not 1 <= k < d:
        raise DomainError(f"cannot embed a Q_{s.d} set into Q_{d}")
    check_vertex(x, k)
    return VertexSet(d, _bits_of(d, ((m << k) | x for m in s)))


class _AutomorphismFields(NamedTuple):
    perm: tuple[int, ...]
    flip: int


class Automorphism(_AutomorphismFields):
    """A hypercube symmetry: coordinate permutation followed by coordinate flips.

    ``perm[j]`` names the source coordinate (0-based) feeding target
    coordinate j, and ``flip`` is XORed onto the permuted vertex.
    """

    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...], flip: int):
        d = len(perm)
        if sorted(perm) != list(range(d)):
            raise DomainError(f"not a permutation of 0..{d - 1}: {perm}")
        check_vertex(flip, d)
        return super().__new__(cls, perm, flip)

    @property
    def d(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, d: int) -> "Automorphism":
        check_dimension(d)
        return cls(tuple(range(d)), 0)

    @classmethod
    def random(cls, rng, d: int) -> "Automorphism":
        check_dimension(d)
        perm = list(range(d))
        rng.shuffle(perm)
        return cls(tuple(perm), rng.randrange(1 << d))

    def _permute(self, v: int) -> int:
        out = 0
        for j, src in enumerate(self.perm):
            out |= ((v >> src) & 1) << j
        return out

    def apply(self, v: int) -> int:
        check_vertex(v, self.d)
        return self._permute(v) ^ self.flip

    def compose(self, other: "Automorphism") -> "Automorphism":
        """The automorphism mapping v to self.apply(other.apply(v))."""
        if self.d != other.d:
            raise DomainError(f"dimension mismatch: {self.d} != {other.d}")
        perm = tuple(other.perm[p] for p in self.perm)
        return Automorphism(perm, self._permute(other.flip) ^ self.flip)

    def inverse(self) -> "Automorphism":
        inv = [0] * self.d
        for j, src in enumerate(self.perm):
            inv[src] = j
        flip = 0
        for j in range(self.d):
            flip |= ((self.flip >> inv[j]) & 1) << j
        return Automorphism(tuple(inv), flip)


def apply_automorphism(a: Automorphism, s: VertexSet) -> VertexSet:
    """Relabel every member of s through the automorphism a."""
    if a.d != s.d:
        raise DomainError(f"dimension mismatch: {a.d} != {s.d}")
    return VertexSet(s.d, _bits_of(s.d, (a.apply(v) for v in s)))


_SIZE_DIRECTIVE = "# expected-size:"


def parse_vertex_set(text: str, d: int | None = None) -> VertexSet:
    """Parse the line-based vertex-set format; raises FormatError with line numbers."""
    lines = list(map(str.strip, text.splitlines()))
    s = _parse_bulk(lines, d)
    return _parse_lines(lines, d) if s is None else s


def _parse_bulk(lines: list[str], d: int | None) -> VertexSet | None:
    """The set a valid text describes, or None at any fault.

    The data lines are matched and converted by C-level iteration; a
    duplicate shows as a state with fewer bits than lines.
    """
    data = [line for line in lines if line and line[0] != "#"]
    dim = d if d is not None else len(data[0]) if data else None
    if not (
        type(dim) is int
        and 1 <= dim <= D_MAX
        and all(map(re.compile(f"[01]{{{dim}}}").fullmatch, data))
    ):
        return None
    bits = _bits_of(dim, (int(line[::-1], 2) for line in data))
    try:
        sizes = {
            int(line[len(_SIZE_DIRECTIVE):].strip())
            for line in lines
            if line[:1] == "#" and line.lower().startswith(_SIZE_DIRECTIVE)
        }
    except ValueError:
        return None
    if bits.bit_count() != len(data) or not sizes <= {len(data)}:
        return None
    return VertexSet(dim, bits)


def _parse_lines(lines: list[str], d: int | None) -> VertexSet:
    """The per-line parser over stripped lines; it names the first bad line."""
    buf = None
    dim = d
    expected: int | None = None
    count = 0
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("#"):
            if line.lower().startswith(_SIZE_DIRECTIVE):
                value = line[len(_SIZE_DIRECTIVE):].strip()
                try:
                    declared = int(value)
                except ValueError:
                    raise FormatError(f"bad expected-size value {value!r}", lineno)
                if expected is not None and expected != declared:
                    raise FormatError("conflicting expected-size directives", lineno)
                expected = declared
            continue
        if dim is None:
            if len(line) > D_MAX:
                raise FormatError(f"dimension too large: {len(line)} > {D_MAX}", lineno)
            dim = len(line)
        try:
            v = parse_vertex(line, dim)
        except FormatError as exc:
            raise FormatError(str(exc), lineno) from None
        if buf is None:
            buf = bytearray(((1 << check_dimension(dim)) + 7) // 8)
        mask = 1 << (v & 7)
        if buf[v >> 3] & mask:
            raise FormatError(f"duplicate vertex {line}", lineno)
        buf[v >> 3] |= mask
        count += 1
    if dim is None:
        raise FormatError("no vertices and no dimension given")
    if expected is not None and expected != count:
        raise FormatError(f"expected-size {expected} but found {count} vertices")
    return VertexSet(dim, int.from_bytes(buf or b"", "little"))


def format_members(d: int, members, header: bool = True) -> str:
    """Render ascending vertex indices of Q_d in the text format; d may exceed D_MAX."""
    fmt = f"0{d}b"
    lines = [f"# expected-size: {len(members)}"] if header else []
    lines.extend(format(v, fmt)[::-1] for v in members)
    return "\n".join(lines) + "\n"


def format_vertex_set(s: VertexSet, header: bool = True) -> str:
    """Render a vertex set in the text format, vertices in ascending index order."""
    return format_members(s.d, s, header)


def load_vertex_set(path, d: int | None = None) -> VertexSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vertex_set(fh.read(), d)


def save_vertex_set(s: VertexSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_vertex_set(s))

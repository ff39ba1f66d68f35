"""Vertices, vertex sets, and symmetries of the binary hypercube Q_d.

A vertex of Q_d is an integer in [0, 2^d); coordinate x_i of the tuple
(x_1, ..., x_d) is stored in bit i-1, so x_1 is the least significant bit.
A vertex set is a dense bitmask of 2^d bits in which bit v records
membership of vertex v.  Everything here is a pure function over immutable
values; VertexSet instances are never mutated after construction.

The text format for vertex sets is line based: each non-comment line is
exactly d characters from {0,1}, read left to right as (x_1, ..., x_d).
Lines starting with '#' are comments; the directive ``# expected-size: N``
makes a file self-checking.  Duplicate vertices are rejected.  Both text
formats (this one and the labeling format of ``meta``) read their
``# <name>: N`` directives through ``_data_lines``: N is ASCII decimal, and
a repeat that changes the value is an error.

Set text is written per state byte: a 256-entry table gives each byte's
member lines (coordinates x_1..x_3) and one replace appends the byte
index's x_4..x_d.  Reading converts a valid text through one packed
base-2 int per block of lines; at any fault the per-line parser, the only
one that reports errors, reads it again.
"""

from __future__ import annotations

__all__ = [
    "D_MAX",
    "Automorphism",
    "DomainError",
    "FormatError",
    "VertexSet",
    "apply_automorphism",
    "format_vertex",
    "format_vertex_set",
    "layer",
    "load_vertex_set",
    "neighbors",
    "parse_vertex",
    "parse_vertex_set",
    "weight",
]

import functools
import itertools
import re
import sys
from typing import Iterable, Iterator, NamedTuple, Sequence

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


def check_threshold(r: int, d: int | None = None) -> int:
    """Validate that r is a positive integer and, given d, that d is an integer >= r; return r."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise DomainError(f"threshold must be a positive integer, got {r!r}")
    if d is not None and (not isinstance(d, int) or isinstance(d, bool) or d < r):
        raise DomainError(f"threshold {r} needs dimension >= {r}, got {d!r}")
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
# maps each byte to 1 if it is nonzero, else 0: the selector itertools.compress takes
_NONZERO_BYTES = bytes([0] + [1] * 255)


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
        if not isinstance(bits, int) or isinstance(bits, bool):
            raise DomainError(f"bitmask must be an integer, got {bits!r}")
        if bits < 0 or bits.bit_length() > (1 << d):
            raise DomainError(f"bitmask has vertices outside Q_{d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    def __delattr__(self, name):
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
        inverse = Automorphism(tuple(inv), 0)
        return inverse._replace(flip=inverse._permute(self.flip))


def apply_automorphism(a: Automorphism, s: VertexSet) -> VertexSet:
    """Relabel every member of s through the automorphism a."""
    if a.d != s.d:
        raise DomainError(f"dimension mismatch: {a.d} != {s.d}")
    return VertexSet(s.d, _bits_of(s.d, (a.apply(v) for v in s)))


def _directive(line: str, names: tuple[str, ...], declared: dict, lineno: int | None) -> None:
    """Record a ``# <name>: N`` comment in declared; other comments are ignored.

    N must be ASCII decimal, and a repeat must give the same value.
    """
    lowered = line.lower()
    for name in names:
        prefix = f"# {name}:"
        if lowered.startswith(prefix):
            value = line[len(prefix):].strip()
            if not (value.isascii() and value.isdigit()):
                raise FormatError(f"bad {name} value {value!r}", lineno)
            n = int(value)
            if declared.setdefault(name, n) != n:
                raise FormatError(f"conflicting {name} directives", lineno)
            return


def _data_lines(lines, names: tuple[str, ...], declared: dict) -> Iterator[tuple[int, str]]:
    """The numbered, stripped data lines; blank lines and comments are skipped.

    Each comment goes to _directive, in line order with the data lines.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line[:1] == "#":
            _directive(line, names, declared, lineno)
        elif line:
            yield lineno, line


# what a data line may hold; the translate in _parse_bulk deletes it
_DATA_CHARS = str.maketrans("", "", "01\n")
_BLOCK_LINES = 1 << 12  # lines _parse_bulk converts through one int


def parse_vertex_set(text: str, d: int | None = None) -> VertexSet:
    """Parse the line-based vertex-set format; raises FormatError with line numbers."""
    lines = list(map(str.strip, text.splitlines()))
    s = _parse_bulk(lines, d)
    return _parse_lines(lines, d) if s is None else s


def _parse_bulk(lines: list[str], d: int | None) -> VertexSet | None:
    """The set a valid text describes, or None at any fault.

    The data lines are checked by C-level passes: their lengths, and a
    translate that must delete every character.  They become vertices a
    block of lines at a time, through one packed int per block: the
    block's reversed text with each line padded to an array slot of at
    least d bits, read in base 2 and cut into slots in native byte order,
    where each slot holds its vertex (the byte order flips only the
    slots' order).  Blocks keep the extra text small on large files.  A
    duplicate shows as a state with fewer bits than lines.
    """
    from array import array  # here, so that commands that read no set skip it

    comments: list[str] = []  # the one pass over the lines appends each comment and keeps none
    data = [line for line in lines if line and (line[0] != "#" or comments.append(line))]
    dim = d if d is not None else len(data[0]) if data else None
    if not (type(dim) is int and 1 <= dim <= D_MAX) or set(map(len, data)) - {dim}:
        return None
    vertices = next(a for a in map(array, "BHIL") if 8 * a.itemsize >= dim)
    pad = "0" * (8 * vertices.itemsize - dim)
    for i in range(0, len(data), _BLOCK_LINES):
        block = data[i:i + _BLOCK_LINES]
        text = "\n".join(block)
        if text.translate(_DATA_CHARS):
            return None
        packed = int(text[::-1].replace("\n", pad), 2)
        vertices.frombytes(packed.to_bytes(len(block) * vertices.itemsize, sys.byteorder))
    bits = _bits_of(dim, vertices)
    declared: dict[str, int] = {}
    try:
        for line in comments:
            _directive(line, ("expected-size",), declared, None)
    except FormatError:
        return None
    if bits.bit_count() != len(data) or declared.get("expected-size", len(data)) != len(data):
        return None
    return VertexSet(dim, bits)


def _parse_lines(lines: list[str], d: int | None) -> VertexSet:
    """The per-line parser; it names the first bad line."""
    buf = None
    dim = d
    declared: dict[str, int] = {}
    count = 0
    for lineno, line in _data_lines(lines, ("expected-size",), declared):
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
    expected = declared.get("expected-size", count)
    if expected != count:
        raise FormatError(f"expected-size {expected} but found {count} vertices")
    return VertexSet(dim, int.from_bytes(buf or b"", "little"))


def format_members(d: int, members, header: bool = True) -> str:
    """Render ascending vertex indices of Q_d in the text format; d may exceed D_MAX."""
    fmt = f"0{d}b"
    lines = [f"# expected-size: {len(members)}"] if header else []
    lines.extend(format(v, fmt)[::-1] for v in members)
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _byte_lines(w: int) -> tuple[str, ...]:
    """For each byte value, the lines x_1..x_w of its set bits' offsets, ascending."""
    fmt = f"0{w}b"
    return tuple("".join(format(i, fmt)[::-1] + "\n" for i in offs) for offs in _BYTE_OFFSETS)


def _texts(states: Sequence[VertexSet], end: str) -> Iterator[list[str]]:
    """The lines of each state, ascending, each line ending in end.

    Each state's lines come as a list of chunks, one per kept byte, cut
    after its last nonempty chunk (so an empty state gives []).  Every
    state must lie inside the last one.  One Python step handles one state
    byte q: _byte_lines gives its members' low coordinates x_1..x_3, and
    one replace appends x_4..x_d (q reversed in d - 3 bits) and end.  Only
    the bytes that hold a member of the last state are kept, and a state
    rebuilds only the chunks of the kept bytes that changed since the
    state before it.
    """
    d = states[-1].d
    size = ((1 << d) + 7) // 8
    last = states[-1].bits.to_bytes(size, "little")
    keep = last.translate(_NONZERO_BYTES)
    lines = _byte_lines(min(d, 3))
    top = 1 << (d - min(d, 3))  # a leading 1 that keeps q's zeros, cut after the reversal
    ends = [
        format(q | top, "b")[:0:-1] + end
        for run in _NONZERO_RUNS.finditer(last) for q in range(*run.span())
    ]
    chunks = [""] * len(ends)
    # every byte of the last state is nonzero (true of every percolating
    # trace), so compress would select them all
    every = len(ends) == size
    before = 0
    for s in states:
        if every:
            kept, bits = s.bits.to_bytes(size, "little"), s.bits
        else:
            kept = bytes(itertools.compress(s.bits.to_bytes(size, "little"), keep))
            bits = int.from_bytes(kept, "little")
        for run in _NONZERO_RUNS.finditer((bits ^ before).to_bytes(len(kept), "little")):
            for p in range(*run.span()):
                chunks[p] = lines[kept[p]].replace("\n", ends[p])
        before = bits
        yield chunks[:(bits.bit_length() + 7) // 8]


def format_vertex_set(s: VertexSet, header: bool = True) -> str:
    """Render a vertex set in the text format, vertices in ascending index order.

    The text is format_members' for the same members, built by _texts.
    """
    head = f"# expected-size: {len(s)}\n" if header else ""
    # an empty line when there is nothing else, as format_members writes it
    return head + "".join(next(_texts([s], "\n"))) or "\n"


def _read_text(path) -> str:
    """A UTF-8 file's text less a leading byte-order mark; a non-UTF-8 file is a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def load_vertex_set(path, d: int | None = None) -> VertexSet:
    return parse_vertex_set(_read_text(path), d)

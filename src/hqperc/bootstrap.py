"""The r-neighbour bootstrap process on Q_d.

Starting from a seed set, every round simultaneously infects each healthy
vertex with at least r infected neighbours; the closure is the fixed point
of this update.  A seed percolates when its closure is all of Q_d.

The production engine is bit parallel.  The state is cut into 2^(d-b)
blocks of 2^b bits, b = min(d, 16), indexed by the top d - b coordinates.
In a block the neighbour image along coordinate i swaps two half-lanes;
along a top coordinate it is the neighbouring block.  Neighbour counts
accumulate in p = ceil(log2 r) bit planes of a wrapping binary counter,
added by a carry-save adder (Harley-Seal; Mula, Kurz & Lemire, Comput. J.
2018).  The planes start at 2^p - r in every lane, so a lane carries out of
the top plane exactly when its count reaches r: the carry-out is the
threshold, with no comparison.  Each block that is not full keeps its
planes from round to round, at most ceil(log2 r) * 2^d bits in all, so a
round adds only the last round's new infections, in two passes: the images
of each block's own delta (O(b * 2^b / w) word operations), then the deltas
of its neighbour blocks, which cost no shift.  Product seeds give many
blocks the same delta in the same round; equal deltas become one object,
and the images of a delta held by several blocks are shifted and summed
once.  ``_rounds`` runs that round to the fixed point for closure and
trace, and ``step`` runs one round of it.  The meta process and the
per-set search call the dense round ``_round_bits``, which counts from
fresh start planes with the same adder; the meta sweep's completion adds
the lower levels to the top level's count in that adder.

A closure of many blocks chooses its block layout once the infected set
holds four times the seed's vertices: the coordinates along which the
fewest infected pairs lie go on top, when they carry at most a third of
the current top's pairs, and the rounds go on from the swapped blocks.  So
a seed written in other coordinates than the assembler's closes in about
the assembler's block visits.  ``closure_rounds`` swaps the closure back;
trace and step keep the seed's layout.

A closure or trace of more than one block, in a single-threaded process
with a second usable CPU, splits every round between this process and one
helper forked for the run.  Blocks go by the parity of their index's
weight, so each block's neighbour blocks are all on the other side; each
round the two sides swap their new deltas through a pipe pair, and shift
their own while the messages travel.  Other closures and ``step`` run the
same round in one process, without messages.

By Aut(Q_d) symmetry the search scans, in one process, only the sets that
can be the first witness, in lexicographic order.  On small cubes it
decides them in lane batches (bit-slicing across instances, after Biham,
FSE 1997): vertex v's state is one int whose bit c records v in the c-th
set of the batch, and one carry-out of the adder per vertex updates every
set at once.  Larger cubes, whose pools are long, take the per-set ``_scan``.
A naive per-vertex rescan engine is kept as an independent reference; the
two must agree on every input.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_SEARCH_BUDGET",
    "InfectionTrace",
    "SearchAborted",
    "closure",
    "percolates",
    "reference_closure",
    "search_percolating_set",
    "step",
    "trace",
]

import functools
import os
from itertools import combinations, compress, islice
from math import comb
from typing import TYPE_CHECKING, Iterator

from .hypercube import (
    DomainError,
    VertexSet,
    _NONZERO_BYTES,
    _bits_of,
    _iter_bits,
    check_dimension,
    check_threshold,
    neighbors,
    weight,
)

if TYPE_CHECKING:
    from ._helper import Link

DEFAULT_SEARCH_BUDGET = 2_000_000

# A state of 2^d bits is simulated as 2^(d - b) blocks of 2^b bits, b = min(d, _BLOCK_BITS).
_BLOCK_BITS = 16

# A closure of fewer blocks keeps the seed's layout.  Up to 16 blocks nearly every block is
# dirty in every round whatever the layout (relabeled d = 18..20 seeds: block visits -8 to
# +1 %), so a second helper for a new layout never paid (assembled d = 18, 19: +3, +7 ms).
_LAYOUT_BLOCKS = 32

# A lane batch decides at most _LANES candidate sets: one bit each in every vertex's int.
# At d = 5, r = 4, size 13, 2^17 lanes (16 KiB ints) took 2.5 s and 19 MiB, 2^21 3.8 s and 80 MiB.
_LANES = 1 << 17
# A search lists the pool of each prefix space as ints, the first (k = 1) holding all
# 2^d - 2 vertices but 0 and 1, and formats a witness of up to 2^d members:
# `search --size 2^d` peaked at 150 MiB at d = 20 and 287 MiB at d = 21.  Pools
# larger than _POOL_CAP vertices are refused, which allows every d <= 20.
_POOL_CAP = 1 << 20
# The lane round visits each of the 2^d vertices in Python every sweep, and its
# pattern memo grows with the pool (at most 2^d - 2 members): lanes up to d = 6.
_LANE_D = 6


class SearchAborted(RuntimeError):
    """An exhaustive search refused to run past its subset budget or pool cap."""


class _HelperLost(RuntimeError):
    """A closure's round helper process ended before the closure did."""


def _masks_for(d: int) -> tuple[tuple[int, ...], int]:
    """Per-coordinate masks selecting the indices whose bit i is 0, plus the all-ones state."""
    n = 1 << d
    masks = []
    for i in range(d):
        s = 1 << i
        m = (1 << s) - 1
        width = 2 * s
        while width < n:
            m |= m << width
            width *= 2
        masks.append(m)
    return tuple(masks), (1 << n) - 1


def _add(planes: list[int], images, summed: list[int] | None = None) -> int:
    """Add the images, and the counts in the summed planes, into the bit planes of
    a wrapping binary counter, in place, and return the lanes that carry out of
    the top plane.

    A carry-save adder (Harley-Seal): at each plane, pairs of inputs go
    through one full adder with the plane, and the carries are the next
    plane's inputs; summed plane j is one more input at plane j.  A lane
    carries out once its count passes 2^len(planes) - 1, and the planes then
    hold the count modulo 2^len(planes).
    """
    ins = [x for x in images if x]
    for j, acc in enumerate(planes):
        if summed and summed[j]:
            ins.append(summed[j])
        if not ins:
            if summed:
                continue
            return 0
        if not acc:
            acc = ins.pop()
        carries = []
        while len(ins) > 1:
            a = ins.pop()
            b = ins.pop()
            u = acc ^ a
            if c := (acc & a) | (u & b):
                carries.append(c)
            acc = u ^ b
        if ins:
            if c := acc & ins[0]:
                carries.append(c)
            acc ^= ins[0]
        planes[j] = acc
        ins = carries
    return functools.reduce(int.__or__, ins) if ins else 0


def _start(r: int, full: int) -> list[int]:
    """Counter planes that carry out at the r-th count: (r - 1).bit_length() planes,
    p, holding 2^p - r in every lane."""
    p = (r - 1).bit_length()
    return [full if ((1 << p) - r) >> j & 1 else 0 for j in range(p)]


def _images(bits: int, masks) -> list[int]:
    """The neighbour images of a state along each of its coordinates: one half-lane swap each."""
    return [((bits & m) << (1 << i)) | ((bits >> (1 << i)) & m) for i, m in enumerate(masks)]


def _round_bits(bits: int, start: list[int], masks) -> int:
    """One synchronous update of a raw state integer, masks being _masks_for its
    dimension and start the _start planes of the threshold: the lanes that
    carry out join the state."""
    return bits | _add([*start], _images(bits, masks))


def _split(bits: int, d: int) -> tuple[list[int], int]:
    """A 2^d-bit state as blocks of 2^b bits, and b; block B holds the vertices B * 2^b + x."""
    if d <= _BLOCK_BITS:
        return [bits], d
    size = 1 << (_BLOCK_BITS - 3)
    raw = bits.to_bytes(1 << (d - 3), "little")
    blocks = [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]
    return blocks, _BLOCK_BITS


def _join(blocks: list[int]) -> int:
    """The 2^d-bit state that _split cut into these blocks."""
    if len(blocks) == 1:
        return blocks[0]
    size = 1 << (_BLOCK_BITS - 3)
    return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in blocks), "little")


def _use_helper(nblocks: int) -> bool:
    """Whether a closure of nblocks production blocks splits its rounds with a forked helper.

    Only with more than one block, at least two usable CPUs, os.fork, and a
    single thread in this process: a forked copy of a threaded process can
    deadlock, and Python 3.12+ warns about it.
    """
    if nblocks < 2 or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1  # every thread, C-level ones too
    except OSError:
        import threading

        return threading.active_count() == 1


def _rounds(blocks: list[int], b: int, r: int) -> Iterator[list[int]]:
    """Update the blocks in place and yield them after each strictly growing
    round, up to the fixed point.

    When ``_use_helper`` allows it, the blocks of odd weight go to a helper
    forked for the run (see ``_side_rounds``), and this process ORs the
    helper's deltas into its copy of those blocks, so each yield is still
    the whole state.  The pipes are closed and the helper reaped when the
    rounds end, fail or are abandoned.
    """
    def helper(link):
        for _ in _side_rounds(blocks, b, r, link):
            pass

    link = None
    if _use_helper(len(blocks)):
        from . import _helper  # process code, compiled only when a closure splits

        link = _helper.fork(helper)
    full = (1 << (1 << b)) - 1
    try:
        for other in _side_rounds(blocks, b, r, link):
            if link is not None:
                for i, x in other.items():
                    y = blocks[i] | x
                    blocks[i] = full if y == full else y
            yield blocks
    finally:
        if link is not None:
            link.close()


def _intern(deltas: dict[int, int]) -> set[int]:
    """Make equal deltas one object, in place, and return the ids of those that
    more than one block holds.  Deltas are grouped by length and low lanes,
    which cost no pass over them, and an equality test stops at the first
    digit that differs."""
    firsts, shared = {}, set()
    for i, x in deltas.items():
        same = firsts.setdefault((x.bit_length(), x & 0xFFFF_FFFF_FFFF_FFFF), [])
        for y in same:
            if y == x:
                deltas[i] = y
                shared.add(id(y))
                break
        else:
            same.append(x)
    return shared


def _side_rounds(blocks: list[int], b: int, r: int,
                 link: Link | None) -> Iterator[dict[int, int]]:
    """Run one side's blocks to the fixed point, in place, and yield the other
    side's new deltas, which the next round clears, after each strictly
    growing round.

    Each block that is not full keeps its vertices' infected-neighbour counts
    in wrapping counter planes from one round to the next, started by
    ``_start`` so that a lane carries out of the top plane when its count
    reaches r.  A round adds the last round's new infections to the counts
    in two passes: ``shift`` adds the images of each block's own delta, and
    ``border`` the deltas of its neighbour blocks, which need no shift
    (block B's image along top coordinate j is block B ^ (1 << j) itself).
    Then it drops those deltas, so that only one round's are ever held, and
    infects the lanes that carried out in the round's adds.  Only the
    neighbourhood of the deltas is visited, a block dirty only through a
    neighbour shifts nothing, and a full block drops its planes and shares
    one int with every other full block.

    Product seeds give many blocks the same delta in the same round.  Equal
    deltas are made one object, which marshal also sends once, and the
    images of a delta held by several blocks are shifted and summed once,
    from zero, into planes that each of those blocks adds to its counts.
    Where that sum itself carries out, the lane has at least 2^p >= r
    infected neighbours in the delta and is infected directly.

    With a link this process owns the blocks of even weight and the helper
    those of odd weight, so every neighbour block of a block is on the other
    side.  A side sends its new deltas, shifts them while the message
    travels, and receives the other side's, which border its blocks in the
    next round.  Both sides see the same deltas, so both stop after the same
    round.  Without a link one side owns every block and is its own other
    side: the same round, without messages.
    """
    masks, full = _masks_for(b)
    flips = [1 << j for j in range(len(blocks).bit_length() - 1)]
    start = _start(r, full)
    counts, hits = {}, {}

    def add(i: int, images, summed=None, hit=0) -> None:
        """Add to block i's counts, and OR the lanes that carry out into its hits."""
        if hit := hit | _add(counts.setdefault(i, [*start]), images, summed):
            hits[i] = hits[i] | hit if i in hits else hit

    def shift(deltas: dict[int, int], shared: set[int]) -> None:
        """Add the images of each delta to its own block's counts, unless that
        block is full.  The images of a delta whose id is in shared are summed
        once for all the blocks holding it."""
        sums = {}
        for i, x in deltas.items():
            if blocks[i] == full:
                continue
            if id(x) not in shared:
                add(i, _images(x, masks))
                continue
            if (known := sums.get(id(x))) is None:
                planes = [0] * len(start)
                known = sums[id(x)] = planes, _add(planes, _images(x, masks))
            add(i, (), *known)

    def border(deltas: dict[int, int]) -> None:
        """Add the deltas to the counts of their neighbour blocks that are not full."""
        for i in {i ^ f for i in deltas for f in flips}:
            if blocks[i] != full:
                add(i, [deltas[i ^ f] for f in flips if i ^ f in deltas])

    # round 1 counts every block as its own delta; the other side's need no message
    deltas = other = {i: x for i, x in enumerate(blocks) if x}
    if link is not None:
        deltas = {i: other.pop(i) for i in [*other] if i.bit_count() & 1 == link.side}
    shift(deltas, _intern(deltas))
    while True:
        border(other)
        other.clear()  # also the dict yielded last round: one round's deltas are held
        deltas = {}
        while hits:  # each hit freed as its delta is made
            i, hit = hits.popitem()
            x = blocks[i]
            y = x | hit
            if y != x:
                deltas[i] = y ^ x
                if y == full:
                    y = full  # the one shared int
                    del counts[i]
                blocks[i] = y
        shared = _intern(deltas)
        if link is not None:
            link.send(deltas)
        shift(deltas, shared)
        other = deltas if link is None else link.receive()
        if not deltas and not other:
            return
        yield other


def _coordinate_swaps(blocks: list[int], b: int) -> list[tuple[int, int]]:
    """Pairs (i, j) of an in-block and a top coordinate whose swaps put on top
    the coordinates along which the blocks hold the fewest infected pairs.

    An infected pair along in-block coordinate i is a lane of
    (x & m_i) & (x >> 2^i), and along top coordinate j a lane of the AND of
    blocks B and B ^ 2^j.  The top coordinates are the d - b with the fewest
    pairs, ties to the lower index.  No pairs come back unless those carry at
    most a third of the current top coordinates' pairs: most rounds of a
    closure cost a block visit per dirty block, and fewer pairs across the
    top coordinates make fewer blocks dirty, but a fresh start and a new
    helper cost about as much as a mild gain.
    """
    top = len(blocks).bit_length() - 1
    masks, _ = _masks_for(b)
    pairs = [sum((x & m & x >> (1 << i)).bit_count() for x in blocks) for i, m in enumerate(masks)]
    for j in range(top):
        f = 1 << j
        pairs.append(sum((x & blocks[i | f]).bit_count()
                         for i, x in enumerate(blocks) if not i & f))
    chosen = sorted(range(b + top), key=pairs.__getitem__)[:top]
    now = sum(pairs[b:])
    if not now or 3 * sum(pairs[c] for c in chosen) > now:
        return []
    return list(zip(sorted(c for c in chosen if c < b),
                    (c for c in range(b, b + top) if c not in chosen)))


def _swap(blocks: list[int], b: int, swaps: list[tuple[int, int]]) -> None:
    """Exchange in-block coordinate i with top coordinate j for each pair, in place.

    Vertices of block B (bit j of the vertex 0) with bit i set trade places
    with those of block B ^ 2^(j - b) with bit i clear: one half-lane each
    way.  The pairs are disjoint, so swapping again restores the blocks.
    """
    if not swaps:
        return
    masks, full = _masks_for(b)
    for i, j in swaps:
        m, s, f = masks[i], 1 << i, 1 << (j - b)
        for lo, x in enumerate(blocks):
            y = blocks[lo | f]
            if not lo & f and x | y and not x == y == full:
                blocks[lo] = x & m | (y & m) << s
                blocks[lo | f] = x >> s & m | y & m << s


def _closed_blocks(a0: VertexSet, r: int) -> tuple[list[int], int, int, list[tuple[int, int]]]:
    """The closure's blocks, their width b, the number of strictly growing
    rounds, and the coordinate swaps of the blocks' layout (see ``_swap``).

    With at least _LAYOUT_BLOCKS blocks, once the infected set holds four
    times the seed's vertices, the blocks are laid out along
    ``_coordinate_swaps`` and the rounds go on from there, with a new helper:
    the same states in other coordinates.  Relabeled Q_22 seeds then close
    in 3,421-3,667 block visits against 4,378-5,250, and the assembled seed
    in 3,254.
    """
    check_threshold(r, a0.d)
    blocks, b = _split(a0.bits, a0.d)
    states = _rounds(blocks, b, r)
    rounds, swaps = 0, []
    if len(blocks) >= _LAYOUT_BLOCKS:
        grown = 4 * len(a0)  # the infected vertices that choose the layout
        for rounds, blocks in enumerate(states, 1):
            if sum(map(int.bit_count, blocks)) >= grown:
                swaps = _coordinate_swaps(blocks, b)
                break
    if swaps:
        states.close()  # reaps the helper
        _swap(blocks, b, swaps)
        states = _rounds(blocks, b, r)
    for rounds, blocks in enumerate(states, rounds + 1):
        pass
    return blocks, b, rounds, swaps


def closure_rounds(a0: VertexSet, r: int) -> tuple[VertexSet, int]:
    """The closure plus the number of strictly growing rounds it took."""
    blocks, b, rounds, swaps = _closed_blocks(a0, r)
    _swap(blocks, b, swaps)
    return VertexSet(a0.d, _join(blocks)), rounds


def closure(a0: VertexSet, r: int) -> VertexSet:
    """The unique fixed point of the synchronous r-neighbour update containing a0."""
    return closure_rounds(a0, r)[0]


def percolates(a0: VertexSet, r: int) -> bool:
    """True iff the closure of a0 is all of Q_d, read from its blocks without joining them."""
    blocks, b, _, _ = _closed_blocks(a0, r)
    return blocks.count((1 << (1 << b)) - 1) == len(blocks)


def step(a: VertexSet, r: int) -> VertexSet:
    """One synchronous round of the r-neighbour update."""
    check_threshold(r, a.d)
    blocks, b = _split(a.bits, a.d)
    next(_side_rounds(blocks, b, r, None), None)  # the blocks after one round
    return VertexSet(a.d, _join(blocks))


class InfectionTrace:
    """The full synchronous round history of a bootstrap run.

    rounds[t] is the set infected after t rounds; the list stops at the
    first fixed point, so the final element equals the closure and no two
    consecutive entries are equal (unless the seed is already fixed).
    An immutable record; not a tuple, so it is never taken for the
    (closure, rounds) pair that closure_rounds returns.
    """

    __slots__ = ("d", "r", "rounds", "percolated")

    def __init__(self, d: int, r: int, rounds: tuple[VertexSet, ...], percolated: bool):
        for name, value in zip(self.__slots__, (d, r, rounds, percolated)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("InfectionTrace is immutable")

    def __delattr__(self, name):
        raise AttributeError("InfectionTrace is immutable")

    def _key(self) -> tuple:
        return self.d, self.r, self.rounds, self.percolated

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"InfectionTrace(d={self.d!r}, r={self.r!r}, rounds={self.rounds!r},"
                f" percolated={self.percolated!r})")

    def to_json(self) -> dict:
        # Rounds are nested, so the last one names every vertex that appears.
        # Positions count bits of the state bytes that hold a member of the
        # last round, so the name table is at most 8 times the last round.
        # Each round is the round before plus its new members: two ascending
        # runs of positions that sorted() merges in C.
        size = ((1 << self.d) + 7) // 8
        keep = self.rounds[-1].bits.to_bytes(size, "little").translate(_NONZERO_BYTES)

        def kept(s: VertexSet) -> int:  # the kept bytes of s, as one integer
            return int.from_bytes(bytes(compress(s.bits.to_bytes(size, "little"), keep)), "little")

        fmt = f"0{self.d}b"
        table = [None] * (8 * keep.count(1))
        for p, v in zip(_iter_bits(kept(self.rounds[-1])), self.rounds[-1]):
            table[p] = format(v, fmt)[::-1]
        rounds, taken, before = [], [], 0
        for s in self.rounds:
            bits = kept(s)
            taken = sorted(taken + list(_iter_bits(bits & ~before)))
            rounds.append(list(map(table.__getitem__, taken)))
            before = bits
        return {"d": self.d, "r": self.r, "rounds": rounds, "percolated": self.percolated}


def trace(a0: VertexSet, r: int) -> InfectionTrace:
    """Run the process round by round, recording every intermediate state."""
    check_threshold(r, a0.d)
    d = a0.d
    blocks, b = _split(a0.bits, d)
    rounds = (a0, *(VertexSet(d, _join(state)) for state in _rounds(blocks, b, r)))
    return InfectionTrace(d, r, rounds, rounds[-1].is_full())


def reference_closure(a0: VertexSet, r: int) -> VertexSet:
    """Independent per-vertex rescan engine, for cross-checking the bit-parallel one."""
    check_threshold(r, a0.d)
    d = a0.d
    infected = set(a0)
    while True:
        added = {
            v
            for v in range(1 << d)
            if v not in infected
            and sum(1 for u in neighbors(v, d) if u in infected) >= r
        }
        if not added:
            return VertexSet.of(d, infected)
        infected |= added


def _spaces(d: int, size: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Prefix and pool of the spaces that hold the first percolating size-set.

    Lemma: percolating size-sets are closed under Aut(Q_d).  Let W be the
    lexicographically first, and k the least distance between two members x, y.
    Translate W by x and permute coordinates to map x ^ y to 2^k - 1: the image
    percolates and holds 0 and 2^k - 1.  So by minimality W[0] = 0 and
    W[1] <= 2^k - 1; as wt(W[1]) >= k, W[1] = 2^k - 1.  Every later member v has
    wt(v) >= k and wt(v ^ (2^k - 1)) >= k: W is (0, 2^k - 1) plus size - 2
    members of pool k, and the spaces come in k order, which is lexicographic.
    Every pool is a subset of the first, so a first pool above _POOL_CAP
    vertices raises SearchAborted before any is listed.
    """
    if size == 1:
        yield (0,), []
        return
    if (1 << d) - 2 > _POOL_CAP:
        raise SearchAborted(
            f"search aborted: the first prefix space of Q_{d} pools {(1 << d) - 2} vertices,"
            f" over the cap of {_POOL_CAP}"
        )
    for k in range(1, d + 1):
        x = (1 << k) - 1
        pool = [v for v in range(x + 1, 1 << d) if weight(v) >= k and weight(v ^ x) >= k]
        yield (0, x), pool


def _scan(d: int, r: int, prefix: tuple[int, ...], pool: list[int],
          pick: int) -> tuple[int, ...] | None:
    """The first percolating set prefix + C, C running over the pick-subsets of
    pool in lexicographic order, or None."""
    masks, full = _masks_for(d)
    start = _start(r, full)
    base = _bits_of(d, prefix)
    # _bits_of is linear in 2^d / 8 + pick; a sum or a table of 1 << v would be
    # quadratic in 2^d at the near-full sizes the budget admits
    for combo in combinations(pool, pick):
        bits = base | _bits_of(d, combo)
        while (new := _round_bits(bits, start, masks)) != bits:
            bits = new
        if bits == full:
            return (*prefix, *combo)
    return None


def _batches(fixed: tuple[int, ...], tail: tuple[int, ...],
             t: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Split the sets fixed + C, C a t-subset of tail, into batches of at most _LANES sets.

    A batch (fixed', tail', t') holds fixed' + C', C' a t'-subset of tail'.
    The sets holding tail[0] come first, so the batches keep the lexicographic
    order of the sets.
    """
    if comb(len(tail), t) <= _LANES:
        yield fixed, tail, t
    else:
        yield from _batches((*fixed, tail[0]), tail[1:], t - 1)
        yield from _batches(fixed, tail[1:], t)


def _lane_patterns(q: int, t: int, memo: dict) -> list[int]:
    """For each j < q, the lanes whose set holds j: lane c is the c-th t-subset of range(q).

    Subsets come in combinations order: the C(q - 1, t - 1) holding 0, then
    those that do not, so each list is two shorter ones shifted and ORed.
    """
    if t == 0 or t == q:  # one lane: the empty set or all of range(q)
        return [1 if t else 0] * q
    if (q, t) not in memo:
        held = comb(q - 1, t - 1)
        memo[q, t] = [(1 << held) - 1, *(
            a | b << held
            for a, b in zip(_lane_patterns(q - 1, t - 1, memo), _lane_patterns(q - 1, t, memo))
        )]
    return memo[q, t]


def _lane_scan(d: int, r: int, prefix: tuple[int, ...], pool: list[int],
               pick: int) -> tuple[int, ...] | None:
    """_scan's answer, deciding a batch of sets per closure.

    Vertex v's state is one int over the batch's lanes: bit c is set when v
    is infected in the c-th set.  A sweep takes each vertex in turn and adds
    the lanes where r of its neighbours are infected; since the process is
    monotone, sweeping in place until nothing changes reaches every lane's
    closure.  The lanes infected at every vertex percolate, and the lowest
    of them is the batch's first witness.
    """
    flips = [1 << i for i in range(d)]
    memo = {}
    for fixed, tail, t in _batches(tuple(prefix), tuple(pool), pick):
        lanes = comb(len(tail), t)
        if not lanes:
            continue
        full = (1 << lanes) - 1
        start = _start(r, full)
        state = [0] * (1 << d)
        for v in fixed:
            state[v] = full
        for v, held in zip(tail, _lane_patterns(len(tail), t, memo)):
            state[v] = held
        changed = True
        while changed:
            changed = False
            for v, x in enumerate(state):
                if x != full:
                    new = x | _add([*start], [state[v ^ f] for f in flips])
                    if new != x:
                        state[v] = new
                        changed = True
        hit = functools.reduce(int.__and__, state)
        if hit:
            lane = (hit & -hit).bit_length() - 1
            return (*fixed, *next(islice(combinations(tail, t), lane, None)))
    return None


def search_percolating_set(
    d: int,
    r: int,
    size: int,
    budget: int | None = None,
) -> VertexSet | None:
    """Exhaustively look for a percolating set of exactly the given cardinality.

    Returns the lexicographically first one, or None when none exists.  Only the
    sets of ``_spaces`` are scanned, one space at a time in one process; they come
    in lexicographic order and hold the first witness.  At d <= _LANE_D, where
    pools hold at most 2^d - 2 members, ``_lane_scan`` decides each space in
    batches of up to _LANES sets; at larger d, with long pools, ``_scan``
    decides one set at a time, in itertools.combinations order.  A search whose
    subset count C(2^d, size) exceeds the budget refuses to start and raises
    SearchAborted; pass an explicit budget to opt in to larger scans.  So does a
    search at d > 20 of two or more vertices, whose pools pass _POOL_CAP.
    """
    check_dimension(d)
    check_threshold(r, d)
    n = 1 << d
    if not isinstance(size, int) or isinstance(size, bool):
        raise DomainError(f"size must be an integer, got {size!r}")
    if not 0 <= size <= n:
        raise DomainError(f"size {size} out of range for Q_{d}")
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if not isinstance(limit, int) or isinstance(limit, bool):
        raise DomainError(f"budget must be an integer, got {limit!r}")
    if limit < 1:
        raise DomainError(f"budget must be positive, got {limit}")
    total = comb(n, size)
    if total > limit:
        raise SearchAborted(
            f"search aborted: C({n}, {size}) = {total} subsets exceeds budget {limit}"
        )
    if size == 0:
        return None  # the empty seed never percolates for r >= 1, d >= 1
    scan = _lane_scan if d <= _LANE_D else _scan
    for prefix, pool in _spaces(d, size):
        found = scan(d, r, prefix, pool, size - len(prefix))
        if found is not None:
            return VertexSet.of(d, found)
    return None

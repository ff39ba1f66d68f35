"""The r-neighbour bootstrap process on Q_d.

Starting from a seed set, every round simultaneously infects each healthy
vertex with at least r infected neighbours; the closure is the fixed point
of this update.  A seed percolates when its closure is all of Q_d.

The production engine is bit parallel.  The state is cut into 2^(d-b)
blocks of 2^b bits, b = min(d, 16), indexed by the top d - b coordinates.
In a block the neighbour image along coordinate i swaps two half-lanes;
along a top coordinate it is the neighbouring block.  Neighbour counts
accumulate in ceil(log2(r+1)) bit planes of a saturating binary counter,
added by a carry-save adder (Harley-Seal; Mula, Kurz & Lemire, Comput. J.
2018) and compared with r bit-sliced.  Each block that is not full keeps
its planes from round to round, at most ceil(log2(r+1)) * 2^d bits in all,
so a round adds only the last round's new infections: the images of a
block's own delta (O(b * 2^b / w) word operations) and the deltas of its
neighbour blocks, which cost no shift.  ``_rounds`` runs that round to the
fixed point for closure, trace and step.  The meta process and the per-set
search call the dense round ``_round_bits``, which counts from fresh
planes with the same ``_at_least``.

By Aut(Q_d) symmetry the search scans, in one process, only the sets that
can be the first witness, in lexicographic order.  On small cubes it
decides them in lane batches (bit-slicing across instances, after Biham,
FSE 1997): vertex v's state is one int whose bit c records v in the c-th
set of the batch, and one ``_at_least`` per vertex updates every set at
once.  Larger cubes, whose pools are long, take the per-set ``_scan``.
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
from itertools import combinations, compress, islice
from math import comb
from typing import Iterator

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

DEFAULT_SEARCH_BUDGET = 2_000_000

# A state of 2^d bits is simulated as 2^(d - b) blocks of 2^b bits, b = min(d, _BLOCK_BITS).
_BLOCK_BITS = 16

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


_plane_count = int.bit_length  # counter planes holding 0..r: ceil(log2(r + 1))


def _add(planes: list[int], images) -> None:
    """Add the images into the bit planes of a saturating binary counter, in place.

    A carry-save adder (Harley-Seal): at each plane, pairs of inputs go
    through one full adder with the plane, and the carries are the next
    plane's inputs.  Lanes that carry out of the top plane are clamped to
    all-ones, which the comparison with r <= 2^len(planes) - 1 reads as >= r.
    """
    ins = [x for x in images if x]
    for j, acc in enumerate(planes):
        if not ins:
            return
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
    if ins:
        over = functools.reduce(int.__or__, ins)
        planes[:] = [p | over for p in planes]


def _reached(r: int, planes: list[int], full: int) -> int:
    """The lanes whose count in the planes is at least r: a bit-sliced comparison."""
    ge = 0
    eq = full
    for j in reversed(range(len(planes))):
        if (r >> j) & 1:
            eq &= planes[j]
        else:
            ge |= eq & planes[j]
    return ge | eq


def _counts(r: int, images) -> list[int]:
    """The images added up in fresh counter planes wide enough to compare with r."""
    planes = [0] * _plane_count(r)
    _add(planes, images)
    return planes


def _at_least(r: int, images, full: int) -> int:
    """The lanes set in at least r of the images."""
    return _reached(r, _counts(r, images), full)


def _images(bits: int, masks) -> list[int]:
    """The neighbour images of a state along each of its coordinates: one half-lane swap each."""
    return [((bits & m) << (1 << i)) | ((bits >> (1 << i)) & m) for i, m in enumerate(masks)]


def _round_bits(bits: int, r: int, masks, full: int) -> int:
    """One synchronous update of a raw state integer, masks being _masks_for its dimension."""
    return bits | _at_least(r, _images(bits, masks), full)


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


def _rounds(blocks: list[int], b: int, r: int) -> Iterator[list[int]]:
    """Update the blocks in place and yield them after each strictly growing
    round, up to the fixed point.

    Each block that is not full keeps its vertices' infected-neighbour counts
    in counter planes from one round to the next.  A round first adds the
    last round's new infections to the counts: the images of a block's own
    delta, and the deltas of its neighbour blocks (block B's image along top
    coordinate j is block B ^ (1 << j) itself).  Then it drops those deltas,
    so that only one round's are ever held, and infects the lanes that reach
    r.  Round 1 counts from zero, every block's delta being the block itself.
    Only the neighbourhood of the deltas is visited, a block dirty only
    through a neighbour shifts nothing, and a full block drops its planes and
    shares one int with every other full block.
    """
    masks, full = _masks_for(b)
    flips = [1 << j for j in range(len(blocks).bit_length() - 1)]
    nplanes = _plane_count(r)
    counts = {}
    deltas = {i: x for i, x in enumerate(blocks) if x}
    while True:
        dirty = [i for i in {i ^ f for i in deltas for f in (0, *flips)} if blocks[i] != full]
        for i in dirty:
            images = [deltas[i ^ f] for f in flips if i ^ f in deltas]
            if i in deltas:
                images += _images(deltas[i], masks)
            _add(counts.setdefault(i, [0] * nplanes), images)
        deltas = {}
        for i in dirty:
            x = blocks[i]
            y = x | _reached(r, counts[i], full)
            if y != x:
                deltas[i] = y ^ x
                if y == full:
                    y = full  # the one shared int
                    del counts[i]
                blocks[i] = y
        if not deltas:
            return
        yield blocks


def _closed_blocks(a0: VertexSet, r: int) -> tuple[list[int], int, int]:
    """The closure's blocks, their width b, and the number of strictly growing rounds."""
    check_threshold(r, a0.d)
    blocks, b = _split(a0.bits, a0.d)
    rounds = 0
    for rounds, blocks in enumerate(_rounds(blocks, b, r), 1):
        pass
    return blocks, b, rounds


def closure_rounds(a0: VertexSet, r: int) -> tuple[VertexSet, int]:
    """The closure plus the number of strictly growing rounds it took."""
    blocks, _, rounds = _closed_blocks(a0, r)
    return VertexSet(a0.d, _join(blocks)), rounds


def closure(a0: VertexSet, r: int) -> VertexSet:
    """The unique fixed point of the synchronous r-neighbour update containing a0."""
    return closure_rounds(a0, r)[0]


def percolates(a0: VertexSet, r: int) -> bool:
    """True iff the closure of a0 is all of Q_d, read from its blocks without joining them."""
    blocks, b, _ = _closed_blocks(a0, r)
    return blocks.count((1 << (1 << b)) - 1) == len(blocks)


def step(a: VertexSet, r: int) -> VertexSet:
    """One synchronous round of the r-neighbour update."""
    check_threshold(r, a.d)
    for blocks in _rounds(*_split(a.bits, a.d), r):
        return VertexSet(a.d, _join(blocks))
    return a


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
    rounds = (a0, *(VertexSet(d, _join(blocks)) for blocks in _rounds(*_split(a0.bits, d), r)))
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
    base = _bits_of(d, prefix)
    # _bits_of is linear in 2^d / 8 + pick; a sum or a table of 1 << v would be
    # quadratic in 2^d at the near-full sizes the budget admits
    for combo in combinations(pool, pick):
        bits = base | _bits_of(d, combo)
        while (new := _round_bits(bits, r, masks, full)) != bits:
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
                    new = x | _at_least(r, [state[v ^ f] for f in flips], full)
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

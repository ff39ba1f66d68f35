"""The r-neighbour bootstrap process on Q_d.

Starting from a seed set, every round simultaneously infects each healthy
vertex with at least r infected neighbours; the closure is the fixed point
of this update.  A seed percolates when its closure is all of Q_d.

The production engine is bit parallel.  The state is cut into 2^(d-b)
blocks of 2^b bits, b = min(d, 16), indexed by the top d - b coordinates.
In a block the neighbour image along coordinate i swaps two half-lanes;
along a top coordinate it is the neighbouring block.  Neighbour counts
accumulate in ceil(log2(r+1)) bit planes of a saturating binary counter.
A round recomputes only the blocks that are not full and that changed in
the round before or border one that did, at O(d * 2^b / w) word operations
each.  ``_rounds`` runs that round to the fixed point for closure, trace and
step; the meta process calls its kernel, ``_round_bits``, whose counter and
comparison are ``_at_least``.

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

import functools
from itertools import chain, combinations, compress, islice
from math import comb
from typing import Iterator

from .hypercube import (
    DomainError,
    VertexSet,
    _bits_of,
    _iter_bits,
    check_dimension,
    check_threshold,
    neighbors,
    weight,
)

DEFAULT_SEARCH_BUDGET = 2_000_000

# maps each byte to 1 if it is nonzero, else 0: the selector itertools.compress takes
_NONZERO_BYTES = bytes([0] + [1] * 255)

# A state of 2^d bits is simulated as 2^(d - b) blocks of 2^b bits, b = min(d, _BLOCK_BITS).
_BLOCK_BITS = 16

# A lane batch decides at most _LANES candidate sets: one bit each in every vertex's int.
# At d = 5, r = 4, size 13, 2^17 lanes (16 KiB ints) took 2.5 s and 19 MiB, 2^21 3.8 s and 80 MiB.
_LANES = 1 << 17
# The lane round visits each of the 2^d vertices in Python every sweep, and its
# pattern memo grows with the pool (at most 2^d - 2 members): lanes up to d = 6.
_LANE_D = 6


class SearchAborted(RuntimeError):
    """An exhaustive search refused to run past its subset budget."""


def _check_threshold(r: int, d: int) -> int:
    check_threshold(r)
    if r > d:
        raise DomainError(f"threshold {r} exceeds dimension {d}: no vertex has {r} neighbours")
    return r


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


def _at_least(r: int, images, full: int) -> int:
    """The lanes set in at least r of the images.

    The images are added into ceil(log2(r + 1)) bit planes of a saturating
    binary counter, then compared with r bit-sliced.
    """
    nplanes = _plane_count(r)
    planes = [0] * nplanes
    for carry in images:
        for j in range(nplanes):
            t = planes[j] & carry
            planes[j] ^= carry
            carry = t
            if not carry:
                break
        else:
            # counter would wrap: clamp the overflowed lanes to all-ones
            for j in range(nplanes):
                planes[j] |= carry
    # bit-sliced comparison: count >= r
    ge = 0
    eq = full
    for j in reversed(range(nplanes)):
        if (r >> j) & 1:
            eq &= planes[j]
        else:
            ge |= eq & planes[j]
    return ge | eq


def _round_bits(bits: int, d: int, r: int, masks, full: int, extra=()) -> int:
    """One synchronous update of a raw state integer.

    extra holds neighbour images beyond the d coordinates, such as neighbouring blocks.
    """
    images = (((bits & masks[i]) << (1 << i)) | ((bits >> (1 << i)) & masks[i]) for i in range(d))
    return bits | _at_least(r, chain(images, extra), full)


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
    """Yield the blocks after each strictly growing round, up to the fixed point.

    The neighbour image of block B along top coordinate j is block B ^ (1 << j)
    itself.  A block can change only if it or one of those neighbour blocks
    changed in the round before, so each round recomputes just that
    neighbourhood of the last round's changes (every block in round 1), and
    skips full blocks.
    """
    masks, full = _masks_for(b)
    flips = [1 << j for j in range(len(blocks).bit_length() - 1)]
    dirty = range(len(blocks))
    while True:
        new = blocks.copy()
        for i in dirty:
            if blocks[i] != full:
                new[i] = _round_bits(blocks[i], b, r, masks, full, [blocks[i ^ f] for f in flips])
        changed = [i for i in dirty if new[i] != blocks[i]]
        if not changed:
            return
        yield new
        blocks = new
        dirty = {i ^ f for i in changed for f in (0, *flips)}


def closure_rounds(a0: VertexSet, r: int) -> tuple[VertexSet, int]:
    """The closure plus the number of strictly growing rounds it took."""
    _check_threshold(r, a0.d)
    blocks, b = _split(a0.bits, a0.d)
    rounds = 0
    for rounds, blocks in enumerate(_rounds(blocks, b, r), 1):
        pass
    return VertexSet(a0.d, _join(blocks)), rounds


def closure(a0: VertexSet, r: int) -> VertexSet:
    """The unique fixed point of the synchronous r-neighbour update containing a0."""
    return closure_rounds(a0, r)[0]


def percolates(a0: VertexSet, r: int) -> bool:
    """True iff the closure of a0 is all of Q_d."""
    return closure(a0, r).is_full()


def step(a: VertexSet, r: int) -> VertexSet:
    """One synchronous round of the r-neighbour update."""
    _check_threshold(r, a.d)
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
    _check_threshold(r, a0.d)
    d = a0.d
    rounds = (a0, *(VertexSet(d, _join(blocks)) for blocks in _rounds(*_split(a0.bits, d), r)))
    return InfectionTrace(d, r, rounds, rounds[-1].is_full())


def reference_closure(a0: VertexSet, r: int) -> VertexSet:
    """Independent per-vertex rescan engine, for cross-checking the bit-parallel one."""
    _check_threshold(r, a0.d)
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
    """
    if size == 1:
        yield (0,), []
        return
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
        while (new := _round_bits(bits, d, r, masks, full)) != bits:
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
    SearchAborted; pass an explicit budget to opt in to larger scans.
    """
    check_dimension(d)
    _check_threshold(r, d)
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

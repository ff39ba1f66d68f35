"""The r-meta bootstrap process: label dynamics on Q_k.

States are labelings V(Q_k) -> {0, ..., r}.  Two monotone rules drive the
process:

* completion -- a vertex of label i with at least r-i neighbours of label r
  is raised straight to label r;
* promotion -- a vertex with at least r neighbours of strictly higher label
  is raised to the r-th highest label among all its neighbours (an order
  statistic over the neighbour multiset, counting repeats).

Labels never decrease, so the process reaches a fixed point, and the fixed
point is the same under any fair update order.  A labeling percolates when
the fixed point assigns r everywhere.

A sweep runs on the level sets H_t = {v : label >= t}, t = 1..r, with the
bootstrap round: v's r-th highest neighbour label is >= t iff v has r
neighbours in H_t, so promotion is the r-neighbour round of each H_t.
Completion adds to every level the vertices whose neighbours in H_r and
lower levels H_1..H_(r-1) holding them count to r: a vertex of label L < r
lies in L lower levels, so this is its r - L neighbours in H_r, read as one
carry-out of the round's counter.  The new label of v counts the levels
holding it.
_rule_result keeps the per-vertex rules as the reference.

Labeling text format: lines ``<k-bit string> <label>``; '#' starts a
comment; unlisted vertices default to label 0; duplicate vertices and
labels above r are rejected.  The directives ``# expected-size: N`` (number
of listed vertices), ``# k: K`` and ``# r: R`` make files self-checking;
they are read as in the vertex-set format (``hypercube._data_lines``): the
value is ASCII decimal, and a repeat that changes it is an error.
"""

from __future__ import annotations

__all__ = [
    "COMPLETION",
    "PROMOTION",
    "Labeling",
    "format_labeling",
    "load_labeling",
    "meta_fixpoint",
    "meta_percolates",
    "meta_step",
    "parse_labeling",
    "schedule_oracle",
]

from typing import Iterable, NamedTuple, Sequence

from .bootstrap import _add, _images, _masks_for, _round_bits, _start
from .hypercube import (
    DomainError, FormatError, _bits_of, _data_lines, _iter_bits, _read_text, check_dimension,
    check_threshold, check_vertex, format_vertex, parse_vertex,
)

COMPLETION = 1
PROMOTION = 2


class _LabelingFields(NamedTuple):
    k: int
    r: int
    labels: tuple[int, ...]


class Labeling(_LabelingFields):
    """An assignment of labels {0..r} to the vertices of Q_k."""

    __slots__ = ()

    def __new__(cls, k: int, r: int, labels: Sequence[int]):
        check_dimension(k)
        check_threshold(r)
        labels = tuple(labels)
        if len(labels) != 1 << k:
            raise DomainError(f"expected {1 << k} labels for Q_{k}, got {len(labels)}")
        for v, lab in enumerate(labels):
            if type(lab) is not int or not 0 <= lab <= r:
                raise DomainError(f"label {lab!r} at vertex {v} not an integer in 0..{r}")
        return super().__new__(cls, k, r, labels)

    @classmethod
    def constant(cls, k: int, r: int, label: int = 0) -> "Labeling":
        return cls(k, r, (label,) * (1 << k))

    @classmethod
    def of(cls, k: int, r: int, assignments: dict[int, int]) -> "Labeling":
        """Build from a sparse vertex -> label map; unlisted vertices get 0."""
        labels = [0] * (1 << check_dimension(k))
        for v, lab in assignments.items():
            labels[check_vertex(v, k)] = lab
        return cls(k, r, labels)

    def histogram(self) -> tuple[int, ...]:
        """Count of vertices holding each label 1..r."""
        counts = [0] * self.r
        for lab in self.labels:
            if lab:
                counts[lab - 1] += 1
        return tuple(counts)

    def is_all(self, label: int) -> bool:
        return all(lab == label for lab in self.labels)


def _rule_result(labels: Sequence[int], k: int, r: int, v: int, rule: int) -> int | None:
    """The new label the rule assigns to v, or None when it does not apply."""
    if rule not in (COMPLETION, PROMOTION):
        raise DomainError(f"unknown rule {rule!r}; use COMPLETION (1) or PROMOTION (2)")
    cur = labels[v]
    if cur >= r:
        return None
    nb = [labels[v ^ (1 << i)] for i in range(k)]
    if rule == COMPLETION:
        if sum(1 for lab in nb if lab == r) >= r - cur:
            return r
        return None
    if sum(1 for lab in nb if lab > cur) >= r:
        # with r strictly-higher neighbours the r-th highest is itself higher
        return sorted(nb, reverse=True)[r - 1]
    return None


def _levels(labeling: Labeling) -> list[int]:
    """The level sets H_1..H_r as 2^k-bit states: H_t holds the vertices labelled >= t."""
    k, labels = labeling.k, labeling.labels
    return [
        _bits_of(k, (v for v, lab in enumerate(labels) if lab >= t))
        for t in range(1, labeling.r + 1)
    ]


def _from_levels(levels: list[int], k: int, r: int) -> Labeling:
    labels = [0] * (1 << k)
    for h in levels:
        for v in _iter_bits(h):
            labels[v] += 1
    return Labeling(k, r, labels)


def _sweep(levels: list[int], r: int, masks, full: int) -> list[int]:
    """One synchronous sweep of both rules on the level sets.

    A vertex of label L < r lies in L of the lower levels H_1..H_(r-1), so
    it has r - L neighbours in H_r iff those neighbours and the lower levels
    holding it count to r: completion is one carry-out of the round's
    counter, and for L = 0 it is the top level's own promotion.  So the
    completed set is the new top level.
    """
    top = levels[-1]
    start = _start(r, full)
    completed = top | _add([*start], [*_images(top, masks), *levels[:-1]])
    return [_round_bits(h, start, masks) | completed for h in levels[:-1]] + [completed]


def meta_step(labeling: Labeling) -> Labeling:
    """Apply both rules simultaneously to every vertex once (synchronous sweep).

    When both rules apply to one vertex the completion rule wins; it assigns
    label r, which dominates any promotion outcome.
    """
    k, r = labeling.k, labeling.r
    return _from_levels(_sweep(_levels(labeling), r, *_masks_for(k)), k, r)


def _fixed_levels(labeling: Labeling) -> list[int]:
    """The level sets H_1..H_r of the first fixed point of the synchronous sweep."""
    masks, full = _masks_for(labeling.k)
    levels = _levels(labeling)
    while True:
        nxt = _sweep(levels, labeling.r, masks, full)
        if nxt == levels:
            return levels
        levels = nxt


def meta_fixpoint(labeling: Labeling) -> Labeling:
    """Iterate the synchronous sweep to the first fixed point."""
    return _from_levels(_fixed_levels(labeling), labeling.k, labeling.r)


def meta_percolates(labeling: Labeling) -> bool:
    """True iff every vertex eventually receives label r: the fixed point's H_r is all of Q_k."""
    return _fixed_levels(labeling)[-1] == (1 << (1 << labeling.k)) - 1


def schedule_oracle(labeling: Labeling, schedule: Iterable[tuple[int, int]]) -> Labeling:
    """Apply (vertex, rule) choices one at a time, then finish synchronously.

    An entry naming an unknown vertex or rule raises DomainError, whatever
    the vertex's label.  Inapplicable entries are skipped silently; by the
    order-independence of the rules the result always equals
    meta_fixpoint(labeling), which is what makes this an oracle.
    """
    k, r = labeling.k, labeling.r
    labels = list(labeling.labels)
    for v, rule in schedule:
        if not 0 <= v < (1 << k):
            raise DomainError(f"vertex {v} out of range for Q_{k}")
        new = _rule_result(labels, k, r, v, rule)
        if new is not None:
            labels[v] = new
    return meta_fixpoint(Labeling(k, r, labels))


def parse_labeling(text: str, k: int, r: int) -> Labeling:
    """Parse the labeling text format; raises FormatError with line numbers."""
    check_dimension(k)
    labels = [0] * (1 << k)
    seen = set()
    count = 0
    declared: dict[str, int] = {}
    for lineno, line in _data_lines(text.splitlines(), ("expected-size", "k", "r"), declared):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected '<vertex> <label>', got {line!r}", lineno)
        try:
            v = parse_vertex(parts[0], k)
        except FormatError as exc:
            raise FormatError(str(exc), lineno) from None
        if not (parts[1].isascii() and parts[1].isdigit()):
            raise FormatError(f"bad label {parts[1]!r}", lineno)
        lab = int(parts[1])
        if v in seen:
            raise FormatError(f"duplicate vertex {parts[0]}", lineno)
        if not 0 <= lab <= r:
            raise FormatError(f"label {lab} outside 0..{r}", lineno)
        seen.add(v)
        labels[v] = lab
        count += 1
    for name, want in (("k", k), ("r", r)):
        if declared.get(name, want) != want:
            raise FormatError(f"file declares {name}={declared[name]} but {want} was requested")
    if declared.get("expected-size", count) != count:
        raise FormatError(f"expected-size {declared['expected-size']} but found {count} entries")
    return Labeling(k, r, labels)


def format_labeling(labeling: Labeling) -> str:
    """Render a labeling sparsely (nonzero vertices only), ascending by index, with directives."""
    nonzero = sum(1 for lab in labeling.labels if lab)
    lines = [
        f"# expected-size: {nonzero}",
        f"# k: {labeling.k}",
        f"# r: {labeling.r}",
    ]
    for v, lab in enumerate(labeling.labels):
        if lab:
            lines.append(f"{format_vertex(v, labeling.k)} {lab}")
    return "\n".join(lines) + "\n"


def load_labeling(path, k: int, r: int) -> Labeling:
    return parse_labeling(_read_text(path), k, r)

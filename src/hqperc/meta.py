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
Completion adds to every level the union over c = 0..r-1 of H_c (H_0 = Q_k)
and the (r-c)-neighbour round of H_r.  The new label of v counts the levels
holding it.  _rule_result keeps the per-vertex rules as the reference.

Labeling text format: lines ``<k-bit string> <label>``; '#' starts a
comment; unlisted vertices default to label 0; duplicate vertices and
labels above r are rejected.  The directives ``# expected-size: N`` (number
of listed vertices), ``# k: K`` and ``# r: R`` make files self-checking.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .bootstrap import _masks_for, _round_bits
from .hypercube import (
    DomainError, FormatError, _bits_of, _iter_bits, check_dimension, check_threshold,
    check_vertex, format_vertex, parse_vertex,
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

    def __new__(cls, k: int, r: int, labels: tuple[int, ...]):
        check_dimension(k)
        check_threshold(r)
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
        return cls(k, r, tuple(labels))

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
    cur = labels[v]
    if cur >= r:
        return None
    nb = [labels[v ^ (1 << i)] for i in range(k)]
    if rule == COMPLETION:
        if sum(1 for lab in nb if lab == r) >= r - cur:
            return r
        return None
    if rule == PROMOTION:
        if sum(1 for lab in nb if lab > cur) >= r:
            # with r strictly-higher neighbours the r-th highest is itself higher
            return sorted(nb, reverse=True)[r - 1]
        return None
    raise DomainError(f"unknown rule {rule!r}; use COMPLETION (1) or PROMOTION (2)")


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
    return Labeling(k, r, tuple(labels))


def _sweep(levels: list[int], k: int, r: int, masks, full: int) -> list[int]:
    """One synchronous sweep of both rules on the level sets."""
    top = levels[-1]
    completed = 0
    for c, h in enumerate([full, *levels[:-1]]):
        completed |= h & _round_bits(top, k, r - c, masks, full)
    return [_round_bits(h, k, r, masks, full) | completed for h in levels]


def meta_step(labeling: Labeling) -> Labeling:
    """Apply both rules simultaneously to every vertex once (synchronous sweep).

    When both rules apply to one vertex the completion rule wins; it assigns
    label r, which dominates any promotion outcome.
    """
    k, r = labeling.k, labeling.r
    return _from_levels(_sweep(_levels(labeling), k, r, *_masks_for(k)), k, r)


def meta_fixpoint(labeling: Labeling) -> Labeling:
    """Iterate the synchronous sweep to the first fixed point."""
    k, r = labeling.k, labeling.r
    masks, full = _masks_for(k)
    levels = _levels(labeling)
    while True:
        nxt = _sweep(levels, k, r, masks, full)
        if nxt == levels:
            return _from_levels(levels, k, r)
        levels = nxt


def meta_percolates(labeling: Labeling) -> bool:
    """True iff every vertex eventually receives label r."""
    return meta_fixpoint(labeling).is_all(labeling.r)


def schedule_oracle(labeling: Labeling, schedule: Iterable[tuple[int, int]]) -> Labeling:
    """Apply (vertex, rule) choices one at a time, then finish synchronously.

    Inapplicable entries are skipped (and counted in a warning); by the
    order-independence of the rules the result always equals
    meta_fixpoint(labeling), which is what makes this an oracle.
    """
    k, r = labeling.k, labeling.r
    labels = list(labeling.labels)
    skipped = 0
    for v, rule in schedule:
        if not 0 <= v < (1 << k):
            raise DomainError(f"vertex {v} out of range for Q_{k}")
        new = _rule_result(labels, k, r, v, rule)
        if new is None or new <= labels[v]:
            skipped += 1
        else:
            labels[v] = new
    if skipped:
        import logging  # at its one use: importing the package does not load logging

        logging.getLogger(__name__).warning(
            "schedule_oracle skipped %d inapplicable entries", skipped
        )
    return meta_fixpoint(Labeling(k, r, tuple(labels)))


_DIRECTIVES = ("# expected-size:", "# k:", "# r:")


def parse_labeling(text: str, k: int, r: int) -> Labeling:
    """Parse the labeling text format; raises FormatError with line numbers."""
    check_dimension(k)
    labels = [0] * (1 << k)
    seen = set()
    count = 0
    declared: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            lowered = line.lower()
            for directive in _DIRECTIVES:
                if lowered.startswith(directive):
                    value = line[len(directive):].strip()
                    try:
                        declared[directive] = int(value)
                    except ValueError:
                        raise FormatError(f"bad {directive[2:-1]} value {value!r}", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected '<vertex> <label>', got {line!r}", lineno)
        try:
            v = parse_vertex(parts[0], k)
        except FormatError as exc:
            raise FormatError(str(exc), lineno) from None
        try:
            lab = int(parts[1])
        except ValueError:
            raise FormatError(f"bad label {parts[1]!r}", lineno)
        if v in seen:
            raise FormatError(f"duplicate vertex {parts[0]}", lineno)
        if not 0 <= lab <= r:
            raise FormatError(f"label {lab} outside 0..{r}", lineno)
        seen.add(v)
        labels[v] = lab
        count += 1
    if "# k:" in declared and declared["# k:"] != k:
        raise FormatError(f"file declares k={declared['# k:']} but {k} was requested")
    if "# r:" in declared and declared["# r:"] != r:
        raise FormatError(f"file declares r={declared['# r:']} but {r} was requested")
    if "# expected-size:" in declared and declared["# expected-size:"] != count:
        raise FormatError(
            f"expected-size {declared['# expected-size:']} but found {count} entries"
        )
    return Labeling(k, r, tuple(labels))


def format_labeling(labeling: Labeling, header: bool = True) -> str:
    """Render a labeling sparsely (nonzero vertices only), ascending by index."""
    lines = []
    if header:
        nonzero = sum(1 for lab in labeling.labels if lab)
        lines.append(f"# expected-size: {nonzero}")
        lines.append(f"# k: {labeling.k}")
        lines.append(f"# r: {labeling.r}")
    for v, lab in enumerate(labeling.labels):
        if lab:
            lines.append(f"{format_vertex(v, labeling.k)} {lab}")
    return "\n".join(lines) + "\n"


def load_labeling(path, k: int, r: int) -> Labeling:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_labeling(fh.read(), k, r)


def save_labeling(labeling: Labeling, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_labeling(labeling))

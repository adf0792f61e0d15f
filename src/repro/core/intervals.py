"""Interval algebra for the compressed transitive closure.

The compressed closure stores, at every node, a *set of closed integer
intervals* over postorder numbers.  The paper's operations on these sets
are:

* **subsumption elimination** — when an interval is added and one interval
  subsumes another, the subsumed one is discarded (Section 3.2);
* **membership** — a reachability query checks whether a postorder number
  falls inside any stored interval (Lemma 1);
* **adjacent/overlapping merging** — the optional post-optimisation of
  Section 3.2 ("Improvements"), kept out of the optimality argument because
  it is order-dependent (Figure 3.8).

:class:`IntervalSet` keeps its intervals sorted by lower end-point.  In a
subsumption-free set the upper end-points are then sorted too, which gives
O(log k) membership by binary search and O(k) worst-case insertion.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import ReproError


class Interval(NamedTuple):
    """A closed integer interval ``[lo, hi]`` over postorder numbers."""

    lo: int
    hi: int

    def __contains__(self, point: object) -> bool:
        return isinstance(point, int) and self.lo <= point <= self.hi

    def subsumes(self, other: "Interval") -> bool:
        """Paper, Section 3.2: ``[i1,i2]`` subsumes ``[j1,j2]`` iff i1<=j1 and i2>=j2."""
        return self.lo <= other.lo and self.hi >= other.hi

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one integer."""
        return self.lo <= other.hi and other.lo <= self.hi

    def adjacent_to(self, other: "Interval") -> bool:
        """Whether the two intervals abut: ``[1,3]`` and ``[4,7]`` are adjacent."""
        return self.hi + 1 == other.lo or other.hi + 1 == self.lo

    def mergeable_with(self, other: "Interval") -> bool:
        """Whether the union of the two intervals is a single interval."""
        return self.overlaps(other) or self.adjacent_to(other)

    def merge(self, other: "Interval") -> "Interval":
        """The single-interval union; only valid when :meth:`mergeable_with`."""
        if not self.mergeable_with(other):
            raise ReproError(f"cannot merge disjoint intervals {self} and {other}")
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    @property
    def width(self) -> int:
        """Number of integers covered."""
        return self.hi - self.lo + 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo},{self.hi}]"


class IntervalSet:
    """A subsumption-free set of intervals, the per-node closure record.

    Invariants (checked by :meth:`check_invariants` and the property tests):

    * intervals are sorted by ``lo`` ascending;
    * no interval subsumes another — hence ``hi`` is ascending as well.

    Note that *overlapping but non-subsuming* intervals may coexist; the
    paper only discards subsumed intervals during construction.  Merging is
    a separate explicit step (:meth:`merged`).
    """

    __slots__ = ("_los", "_his")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._los: List[int] = []
        self._his: List[int] = []
        self.add_all(intervals)

    @classmethod
    def _adopt(cls, los: List[int], his: List[int]) -> "IntervalSet":
        """Wrap end-point lists that already form a subsumption-free set
        sorted by ``lo``: no validation, no copy."""
        adopted = cls.__new__(cls)
        adopted._los = los
        adopted._his = his
        return adopted

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, interval: Interval) -> bool:
        """Insert ``interval`` with subsumption elimination.

        Returns ``True`` when the set changed (the new interval was not
        already subsumed).  This boolean is what the incremental non-tree
        arc addition uses to cut off upward propagation (Section 4.1).
        """
        lo, hi = interval
        if lo > hi:
            raise ReproError(f"invalid interval [{lo},{hi}]: lo > hi")
        los, his = self._los, self._his
        position = bisect_left(los, lo)
        # Is the new interval subsumed?  The only candidates are the last
        # interval with lo' < lo and an existing interval with lo' == lo
        # (upper bounds are ascending, so one comparison each suffices).
        if position > 0 and his[position - 1] >= hi:
            return False
        if position < len(los) and los[position] == lo and his[position] >= hi:
            return False
        # Remove the contiguous run of intervals the new one subsumes: they
        # all have lo' >= lo (so they sit at `position` onward) and hi' <= hi.
        end = position
        while end < len(los) and his[end] <= hi:
            end += 1
        if end > position:
            del los[position:end]
            del his[position:end]
        los.insert(position, lo)
        his.insert(position, hi)
        return True

    def add_all(self, intervals: Iterable[Interval]) -> bool:
        """Insert several intervals; returns whether any insertion changed the set.

        Bulk path: instead of one bisect + list splice per interval
        (O(m·k) for m inserts into a set of k), the combined multiset of
        old and new intervals is sorted by ``(lo asc, hi desc)`` and swept
        once, keeping an interval exactly when its upper bound exceeds the
        running maximum.  The survivors are precisely the subsumption-
        maximal intervals of the union — the same fixpoint the one-by-one
        insertion loop reaches, in O((m+k)·log(m+k)).  Closure
        construction and delta compaction both lean on this.
        """
        fresh: List[Tuple[int, int]] = []
        for lo, hi in intervals:
            if lo > hi:
                raise ReproError(f"invalid interval [{lo},{hi}]: lo > hi")
            fresh.append((lo, hi))
        if not fresh:
            return False
        if len(fresh) == 1:
            return self.add(Interval(*fresh[0]))
        combined = list(zip(self._los, self._his))
        combined.extend(fresh)
        combined.sort(key=lambda pair: (pair[0], -pair[1]))
        new_los: List[int] = []
        new_his: List[int] = []
        top = None
        for lo, hi in combined:
            if top is None or hi > top:
                new_los.append(lo)
                new_his.append(hi)
                top = hi
        changed = new_los != self._los or new_his != self._his
        self._los, self._his = new_los, new_his
        return changed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def covers(self, point: int) -> bool:
        """Whether ``point`` lies inside some stored interval (O(log k))."""
        position = bisect_right(self._los, point)
        return position > 0 and self._his[position - 1] >= point

    def covering_interval(self, point: int) -> Optional[Interval]:
        """The interval containing ``point``, or ``None``."""
        position = bisect_right(self._los, point)
        if position > 0 and self._his[position - 1] >= point:
            return Interval(self._los[position - 1], self._his[position - 1])
        return None

    def covered_range_bounds(self) -> Optional[Tuple[int, int]]:
        """``(min lo, max hi)`` over all intervals, or ``None`` when empty."""
        if not self._los:
            return None
        return self._los[0], self._his[-1]

    def __len__(self) -> int:
        return len(self._los)

    def __bool__(self) -> bool:
        return bool(self._los)

    def __iter__(self) -> Iterator[Interval]:
        return (Interval(lo, hi) for lo, hi in zip(self._los, self._his))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._los == other._los and self._his == other._his

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"[{lo},{hi}]" for lo, hi in zip(self._los, self._his))
        return f"IntervalSet({{{body}}})"

    @property
    def storage_units(self) -> int:
        """Paper accounting: two end-points stored per interval."""
        return 2 * len(self._los)

    def copy(self) -> "IntervalSet":
        """An independent copy."""
        clone = IntervalSet()
        clone._los = list(self._los)
        clone._his = list(self._his)
        return clone

    # ------------------------------------------------------------------
    # merging (Section 3.2, "Improvements")
    # ------------------------------------------------------------------
    def merged(self) -> "IntervalSet":
        """A new set with adjacent and overlapping intervals coalesced.

        This is the optional post-optimisation; the paper found it gains
        less than 5 % on random DAGs (Section 3.3) and excludes it from the
        Alg1 optimality statement because the benefit is order-dependent.
        """
        coalesced = IntervalSet()
        current: Optional[Interval] = None
        for interval in self:
            if current is None:
                current = interval
            elif current.mergeable_with(interval):
                current = current.merge(interval)
            else:
                coalesced.add(current)
                current = interval
        if current is not None:
            coalesced.add(current)
        return coalesced

    # ------------------------------------------------------------------
    # invariants (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`ReproError` if a class invariant is violated."""
        los, his = self._los, self._his
        for lo, hi in zip(los, his):
            if lo > hi:
                raise ReproError(f"invalid stored interval [{lo},{hi}]")
        for index in range(1, len(los)):
            if los[index - 1] >= los[index]:
                raise ReproError("interval lower bounds are not strictly ascending")
            if his[index - 1] >= his[index]:
                raise ReproError(
                    "interval upper bounds are not strictly ascending: "
                    "a subsumed interval survived"
                )

def intervals_from_points(points: Iterable[int]) -> IntervalSet:
    """Build the minimal merged interval set covering exactly ``points``.

    This is "range compression" in its purest form: consecutive runs of
    integers collapse to single intervals.  Used by tests and by the
    Schubert baseline.
    """
    result = IntervalSet()
    run_start: Optional[int] = None
    run_end: Optional[int] = None
    for point in sorted(set(points)):
        if run_start is None:
            run_start = run_end = point
        elif point == run_end + 1:
            run_end = point
        else:
            result.add(Interval(run_start, run_end))
            run_start = run_end = point
    if run_start is not None:
        result.add(Interval(run_start, run_end))
    return result


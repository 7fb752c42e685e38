"""Stack-distance histogram and its conversion to miss counts / MPKI.

Mattson's stack algorithm (paper Section 2.1) reduces an access trace to a
histogram ``Hist(dist)`` counting accesses whose LRU stack distance is
``dist``.  The number of misses a cache of ``size`` lines would incur is

    Miss(size) = sum_{dist > size} Hist(dist)  +  cold misses

where cold (infinite-distance) accesses miss at every size.  Normalizing
by instructions executed in the probe window gives MPKI (Section 2.1):

    MPKI(size) = 1000 * Miss(size) / instructions
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.mrc import MissRateCurve

__all__ = ["StackDistanceHistogram", "COLD_MISS", "normalize_boundaries"]

#: Sentinel stack distance for a first-touch (cold) access: the address was
#: not on the LRU stack, so no finite cache size can turn it into a hit.
COLD_MISS = -1


def normalize_boundaries(
    max_depth: int, boundaries: Optional[Sequence[int]]
) -> List[int]:
    """Validate quantization depths and complete them with ``max_depth``.

    Returns the sorted, de-duplicated depths, ending at ``max_depth``
    (appended when absent; ``None`` means ``[max_depth]``).  Every engine
    that quantizes distances -- the range list, the batch kernel and the
    estimators -- resolves its boundaries here, so they reject the same
    inputs with the same messages.
    """
    if max_depth <= 0:
        raise ValueError("max_depth must be positive")
    if boundaries is None:
        return [max_depth]
    bounds = sorted(set(int(b) for b in boundaries))
    if not bounds or bounds[0] < 1:
        raise ValueError("boundaries must be positive depths")
    if bounds[-1] > max_depth:
        raise ValueError("boundaries cannot exceed max_depth")
    if bounds[-1] != max_depth:
        bounds.append(max_depth)
    return bounds


@dataclass
class StackDistanceHistogram:
    """Histogram of LRU stack distances observed over a probe window.

    Distances are measured in cache *lines* (stack positions); conversion
    to partition colors happens in :meth:`to_mrc` via ``lines_per_color``.

    Attributes:
        counts: ``counts[dist]`` = number of accesses with stack distance
            ``dist`` (1 = hit at the very top of the stack).
        cold_misses: accesses to addresses never seen before (or evicted
            past the bounded stack depth, which the paper's size-limited
            stack treats identically).
        max_depth: the bounded LRU stack depth used during collection, or
            ``None`` for an unbounded stack.
    """

    counts: Dict[int, int] = field(default_factory=dict)
    cold_misses: int = 0
    max_depth: Optional[int] = None

    def record(self, distance: int) -> None:
        """Record one access with the given stack distance.

        ``COLD_MISS`` (or any negative value) counts as a cold miss.
        """
        if distance < 0:
            self.cold_misses += 1
            return
        if distance == 0:
            raise ValueError("stack distance is 1-based; 0 is invalid")
        self.counts[distance] = self.counts.get(distance, 0) + 1

    @property
    def total_accesses(self) -> int:
        """All recorded accesses, including cold misses."""
        return sum(self.counts.values()) + self.cold_misses

    @property
    def finite_accesses(self) -> int:
        """Accesses that hit somewhere on the stack."""
        return sum(self.counts.values())

    def hit_rate(self) -> float:
        """Fraction of accesses that found their address on the stack.

        This is the 'LRU Stack Hit Rate' of Table 2 column (g); a low value
        means the trace log barely warmed the stack.
        """
        total = self.total_accesses
        if total == 0:
            return 0.0
        return self.finite_accesses / total

    def misses_at(self, size_lines: int) -> int:
        """``Miss(size)``: misses a cache of ``size_lines`` lines would take.

        Cold misses are included -- they miss at every size.
        """
        if size_lines < 0:
            raise ValueError("cache size must be non-negative")
        beyond = sum(
            count for dist, count in self.counts.items() if dist > size_lines
        )
        return beyond + self.cold_misses

    def miss_counts(self, sizes_lines: Sequence[int]) -> List[int]:
        """Vectorized :meth:`misses_at` over several sizes.

        One pass over the histogram instead of ``len(sizes)`` passes.
        """
        ordered = sorted(set(sizes_lines))
        if any(s < 0 for s in ordered):
            raise ValueError("cache sizes must be non-negative")
        # Accumulate hist mass in ascending distance order, then misses at
        # size s = total_finite - mass(dist <= s) + cold.
        total_finite = self.finite_accesses
        dists = sorted(self.counts)
        misses_by_size: Dict[int, int] = {}
        mass = 0
        idx = 0
        for size in ordered:
            while idx < len(dists) and dists[idx] <= size:
                mass += self.counts[dists[idx]]
                idx += 1
            misses_by_size[size] = total_finite - mass + self.cold_misses
        return [misses_by_size[s] for s in sizes_lines]

    def to_mrc(
        self,
        lines_per_color: int,
        num_colors: int,
        instructions: int,
        label: str = "",
        include_cold: bool = True,
    ) -> MissRateCurve:
        """Convert the histogram into an MPKI miss-rate curve.

        Args:
            lines_per_color: cache lines per partition color (the POWER5 L2
                has 15360 lines and 16 colors -> 960 lines/color).
            num_colors: number of partition sizes to evaluate (1..N).
            instructions: instructions completed during the probe window,
                the MPKI denominator.
            label: label for the resulting curve.
            include_cold: whether cold misses count as misses.  The paper's
                warmed-up stack makes residual cold misses genuine capacity
                traffic, so the default is True.
        """
        if lines_per_color <= 0:
            raise ValueError("lines_per_color must be positive")
        if num_colors <= 0:
            raise ValueError("num_colors must be positive")
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        sizes = [c * lines_per_color for c in range(1, num_colors + 1)]
        misses = self.miss_counts(sizes)
        if not include_cold:
            misses = [m - self.cold_misses for m in misses]
        points = {
            color: 1000.0 * miss / instructions
            for color, miss in zip(range(1, num_colors + 1), misses)
        }
        return MissRateCurve(points, label=label)

    def merged_with(self, other: "StackDistanceHistogram") -> "StackDistanceHistogram":
        """Combine two histograms (e.g. from successive probe windows)."""
        merged = StackDistanceHistogram(
            counts=dict(self.counts),
            cold_misses=self.cold_misses + other.cold_misses,
            max_depth=self.max_depth,
        )
        for dist, count in other.counts.items():
            merged.counts[dist] = merged.counts.get(dist, 0) + count
        return merged

    @classmethod
    def from_distances(
        cls, distances: Iterable[int], max_depth: Optional[int] = None
    ) -> "StackDistanceHistogram":
        """Build a histogram directly from an iterable of stack distances."""
        hist = cls(max_depth=max_depth)
        for dist in distances:
            hist.record(dist)
        return hist

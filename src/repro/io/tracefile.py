"""Native trace-log file format.

Deliberately trivial: one cache-line number per line (decimal), ``#``
starts a comment, blank lines ignored.  A header comment records the
machine context so a saved probe can be recomputed later.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

__all__ = ["save_trace", "load_trace"]


def save_trace(
    path: str,
    trace: Iterable[int],
    header: Optional[dict] = None,
) -> int:
    """Write a trace log; returns the number of entries written."""
    count = 0
    with open(path, "w") as out:
        if header:
            for key in sorted(header):
                out.write(f"# {key}: {header[key]}\n")
        for line in trace:
            out.write(f"{int(line)}\n")
            count += 1
    return count


def load_trace(path: str) -> List[int]:
    """Read a trace log written by :func:`save_trace`.

    Raises ``ValueError`` on malformed entries (a trace with holes is
    not something to silently analyze).
    """
    entries: List[int] = []
    with open(path) as source:
        for number, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entries.append(int(line))
            except ValueError:
                raise ValueError(
                    f"{path}:{number}: not a cache-line number: {line!r}"
                ) from None
    return entries


"""Parser for perf-script-style data-address traces.

``perf mem record`` + ``perf script`` emits one sample per line.  Field
layouts vary across perf versions and ``-F`` selections, so the parser
is anchored on the two stable features instead of fixed columns:

- the *event* token ends with a colon (``cpu/mem-loads/P:``,
  ``mem-loads:``, ...) and is not a timestamp;
- the *data address* is the most plausible hexadecimal token after the
  event: an explicit ``0x``-prefixed token wins, otherwise the widest
  bare-hex token (so decimal period/weight columns like ``1`` or ``153``
  never shadow a real address such as ``ffff8800deadbeef``).

Everything before the event is treated as ``comm [pid] [cpu] [time]``
best-effort metadata; the comm is every token before the pid, since
perf pads it with ``%16s`` and it may contain spaces.  Typical accepted
lines::

    mcf  1234 [002] 12345.678901:  mem-loads:  ffff8800deadbeef ...
    mcf 1234/1234 4021.662435: cpu/mem-loads,ldlat=30/P: 7f2c10a040
    swim 77 mem-stores: 0x7fffdeadbeef
    mcf 1234 12345.678901: mem-loads: 1 ffff8800deadbeef

The canonical layouts, ``comm pid[/tid] [[cpu]] [time:] [period] event:
0xADDR ...`` and ``... event: BAREHEX`` with the bare hex last (the
second and third lines above), are matched by one compiled whole-line
grammar.  Every other line goes to the token parser, which is the
reference and gives the same sample on any line the grammar accepts.

Lines that cannot be parsed are skipped (counted) unless ``strict``.
Lines dropped by the ``events``/``pid`` filters are counted separately
from parse failures (``filtered_events`` / ``filtered_pids``).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, TextIO, Union,
)

from repro.obs import get_telemetry

__all__ = [
    "PerfSample",
    "ParseReport",
    "parse_perf_script",
    "samples_to_lines",
    "split_by_pid",
]

_EVENT_RE = re.compile(r"^[\w\-./,=@]+:$")
#: Timestamps also end with ':' (``12345.678901:``); their stem is a
#: pure decimal-with-period, which no perf event name is.
_TIME_STEM_RE = re.compile(r"^\d+\.\d+$")
_HEX_RE = re.compile(r"^(0x)?[0-9a-fA-F]+$")
_PREFIXED_HEX_RE = re.compile(r"^0x[0-9a-fA-F]+$")
_PID_RE = re.compile(r"^(\d+)(?:/\d+)?$")

#: The canonical layouts as one whole-line grammar, tried before the
#: token parser: ``comm pid[/tid] [[cpu]] [time:] [period] event: ADDR``,
#: where ADDR is a ``0x`` token (anything may follow it) or a bare-hex
#: token ending the line.  It accepts only lines on which
#: :func:`_parse_line` gives the same sample: one colon-free comm token,
#: ASCII digits, an event stem that is not a timestamp, and the address
#: token the address heuristic would pick.  Every other line (spaced or
#: colon-bearing comms, extra columns, bare hex followed by more tokens)
#: goes to the token parser.
_LINE_RE = re.compile(
    r"(?P<comm>[^\s:]+)\s+(?P<pid>[0-9]+)(?:/[0-9]+)?"
    r"(?:\s+\[[0-9]+\])?"
    r"(?:\s+(?P<time>[0-9]+\.[0-9]+):)?"
    r"(?:\s+[0-9]+)?"
    r"\s+(?!\d+\.\d+:)(?P<event>[\w\-./,=@]+):"
    r"\s+(?:0x(?P<hex>[0-9a-fA-F]+)(?:\s.*)?|(?P<bare>[0-9a-fA-F]+))\Z",
    re.DOTALL,
)


class PerfSample(NamedTuple):
    """One parsed sample: who touched which data address."""

    comm: str
    pid: Optional[int]
    event: str
    address: int
    time: Optional[float] = None


@dataclass
class ParseReport:
    """Outcome of a parse pass.

    ``skipped_lines`` counts only *unparseable* lines; lines that parsed
    fine but were dropped by the ``events``/``pid`` filters are counted
    in ``filtered_events``/``filtered_pids`` instead, so a heavily
    filtered capture does not look corrupt.
    """

    samples: List[PerfSample]
    skipped_lines: int
    total_lines: int
    filtered_events: int = 0
    filtered_pids: int = 0
    #: Parsed lines the line grammar did not cover, resolved by the
    #: token parser instead.
    token_lines: int = 0

    @property
    def parsed_lines(self) -> int:
        """Lines that yielded a sample before any filtering."""
        return self.total_lines - self.skipped_lines

    @property
    def grammar_lines(self) -> int:
        """Parsed lines resolved by the compiled line grammar."""
        return self.parsed_lines - self.token_lines

    def skipped_fraction(self) -> float:
        if self.total_lines == 0:
            return 0.0
        return self.skipped_lines / self.total_lines


def _find_address(tokens: Sequence[str]) -> Optional[int]:
    """The most plausible data address among ``tokens``.

    An explicit ``0x``-prefixed token wins outright; otherwise the
    *widest* bare-hex token does (first among width ties).  Decimal
    period/weight columns are short, addresses are wide, so width breaks
    the ambiguity the right way -- ``1 ffff8800deadbeef`` resolves to the
    address, not the weight.
    """
    widest: Optional[str] = None
    for token in tokens:
        if _PREFIXED_HEX_RE.match(token):
            return int(token, 16)
        if _HEX_RE.match(token):
            if widest is None or len(token) > len(widest):
                widest = token
    if widest is None:
        return None
    return int(widest, 16)


def _match_line(line: str) -> Optional[PerfSample]:
    """The sample of a line in a canonical layout (``_LINE_RE``), or
    ``None`` when the grammar does not cover the line."""
    match = _LINE_RE.match(line)
    if match is None:
        return None
    comm, pid, time, event, prefixed, bare = match.groups()
    return PerfSample(comm, int(pid), event, int(prefixed or bare, 16),
                      None if time is None else float(time))


def _parse_line(line: str) -> Optional[PerfSample]:
    """The reference parser: any layout, one token at a time."""
    tokens = line.split()
    if not tokens:
        return None
    # The event is the first non-timestamp colon-token that has a
    # plausible address somewhere after it.  Requiring the address up
    # front (instead of remembering the last colon-token seen) means a
    # line with no event/address pair is rejected outright rather than
    # misparsing a timestamp as the event.
    event_index = None
    address = None
    for index, token in enumerate(tokens):
        if index + 1 >= len(tokens):
            break
        if not _EVENT_RE.match(token):
            continue
        if _TIME_STEM_RE.match(token[:-1]):
            continue
        address = _find_address(tokens[index + 1:])
        if address is not None:
            event_index = index
            break
    if event_index is None or address is None:
        return None
    event = tokens[event_index].rstrip(":")

    # perf pads comm with %16s and comm may itself contain spaces, so
    # the comm is every token before the pid (just the first token when
    # there is no pid); the time is the last float colon-token after it.
    pid = None
    pid_index = 0
    for index in range(1, event_index):
        pid_match = _PID_RE.match(tokens[index])
        if pid_match:
            pid = int(pid_match.group(1))
            pid_index = index
            break
    if pid is not None:
        comm = " ".join(tokens[:pid_index])
    else:
        comm = tokens[0] if event_index > 0 else ""
    time = None
    for token in tokens[pid_index + 1:event_index]:
        if token.endswith(":"):
            stamp = token.rstrip(":")
            try:
                time = float(stamp)
            except ValueError:
                pass
    return PerfSample(comm=comm, pid=pid, event=event, address=address, time=time)


def parse_perf_script(
    source: Union[str, os.PathLike, TextIO, Iterable[str]],
    events: Optional[Sequence[str]] = None,
    pid: Optional[int] = None,
    strict: bool = False,
) -> ParseReport:
    """Parse a perf-script text trace.

    Each line is matched against the compiled line grammar first; lines
    it does not cover go to the token parser, which handles every
    layout.  Both give the same sample for any line the grammar accepts.

    Args:
        source: a file path (``str`` or ``os.PathLike``), an open text
            file, or an iterable of lines.
        events: keep only samples whose event name contains one of these
            substrings (e.g. ``["mem-loads"]``); ``None`` keeps all.
        pid: keep only samples of this pid.
        strict: raise ``ValueError`` on the first unparseable non-empty,
            non-comment line instead of skipping it.
    """
    close_after = False
    if isinstance(source, (str, os.PathLike)):
        # perf script output is ASCII, but comm fields can carry
        # arbitrary bytes; decode permissively instead of crashing on
        # one exotic process name.
        source = open(source, "r", encoding="utf-8", errors="replace")
        close_after = True
    try:
        samples: List[PerfSample] = []
        skipped = 0
        filtered_events = 0
        filtered_pids = 0
        total = 0
        token_lines = 0
        for raw in source:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            total += 1
            sample = _match_line(line)
            if sample is None:
                sample = _parse_line(line)
                if sample is None:
                    if strict:
                        raise ValueError(
                            f"unparseable perf-script line: {line!r}"
                        )
                    skipped += 1
                    continue
                token_lines += 1
            if events is not None and not any(
                key in sample.event for key in events
            ):
                filtered_events += 1
                continue
            if pid is not None and sample.pid != pid:
                filtered_pids += 1
                continue
            samples.append(sample)
        report = ParseReport(
            samples=samples,
            skipped_lines=skipped,
            total_lines=total,
            filtered_events=filtered_events,
            filtered_pids=filtered_pids,
            token_lines=token_lines,
        )
    finally:
        if close_after:
            source.close()
    telemetry = get_telemetry()
    if telemetry.enabled:
        registry = telemetry.registry
        registry.counter("io.parse_lines", parser="grammar").inc(
            report.grammar_lines
        )
        registry.counter("io.parse_lines", parser="tokens").inc(token_lines)
    return report


def samples_to_lines(
    samples: Iterable[PerfSample], line_size: int = 128
) -> List[int]:
    """Convert samples to cache-line numbers, the engine's input."""
    if line_size <= 0:
        raise ValueError("line size must be positive")
    return [sample.address // line_size for sample in samples]


def split_by_pid(
    samples: Iterable[PerfSample],
) -> Dict[Optional[int], List[PerfSample]]:
    """Group samples by pid, preserving per-pid sample order.

    One ``perf mem record`` capture typically interleaves several
    processes; splitting turns one capture into one analyzable stream
    per process (samples with no parsed pid group under ``None``).
    """
    groups: Dict[Optional[int], List[PerfSample]] = {}
    for sample in samples:
        groups.setdefault(sample.pid, []).append(sample)
    return groups

"""Tests for the perf-script trace parser."""

import io
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.io.perf_script import (
    PerfSample,
    _match_line,
    _parse_line,
    parse_perf_script,
    samples_to_lines,
    split_by_pid,
)
from repro.obs import Telemetry, use_telemetry

CLASSIC = """\
# captured with: perf mem record ./mcf
mcf  1234 [002] 12345.678901:  mem-loads:  ffff8800deadbe00 level hit
mcf  1234 [002] 12345.678930:  mem-loads:  ffff8800deadbe80
mcf  1234 [002] 12345.679001:  mem-stores: ffff8800cafe0000
"""

MODERN = """\
mcf 1234/1234 4021.662435: cpu/mem-loads,ldlat=30/P: 7f2c10a040
swim 77 mem-stores: 0x7fffdeadbeef
"""


class TestParsing:
    def test_classic_format(self):
        report = parse_perf_script(io.StringIO(CLASSIC))
        assert len(report.samples) == 3
        first = report.samples[0]
        assert first.comm == "mcf"
        assert first.pid == 1234
        assert first.event == "mem-loads"
        assert first.address == 0xFFFF8800DEADBE00
        assert first.time == pytest.approx(12345.678901)

    def test_modern_format(self):
        report = parse_perf_script(io.StringIO(MODERN))
        assert len(report.samples) == 2
        assert report.samples[0].event == "cpu/mem-loads,ldlat=30/P"
        assert report.samples[0].address == 0x7F2C10A040
        assert report.samples[1].pid == 77

    def test_comments_and_blanks_ignored(self):
        report = parse_perf_script(io.StringIO("# header\n\n"))
        assert report.samples == []
        assert report.total_lines == 0

    def test_event_filter(self):
        report = parse_perf_script(
            io.StringIO(CLASSIC), events=["mem-loads"]
        )
        assert len(report.samples) == 2
        assert all("mem-loads" in s.event for s in report.samples)

    def test_pid_filter(self):
        report = parse_perf_script(io.StringIO(MODERN), pid=77)
        assert len(report.samples) == 1
        assert report.samples[0].comm == "swim"

    def test_unparseable_lines_skipped_and_counted(self):
        junk = "not a perf line at all\n" + CLASSIC
        report = parse_perf_script(io.StringIO(junk))
        assert report.skipped_lines == 1
        assert len(report.samples) == 3
        assert report.skipped_fraction() == pytest.approx(1 / 4)

    def test_strict_mode_raises(self):
        with pytest.raises(ValueError):
            parse_perf_script(io.StringIO("garbage\n"), strict=True)

    def test_from_path(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(CLASSIC)
        report = parse_perf_script(str(path))
        assert len(report.samples) == 3

    def test_from_pathlike(self, tmp_path):
        # Used to raise "'PosixPath' object is not iterable".
        path = tmp_path / "trace.txt"
        path.write_text(CLASSIC)
        report = parse_perf_script(pathlib.Path(path))
        assert report.samples == parse_perf_script(str(path)).samples
        assert len(report.samples) == 3


class TestCommNames:
    """Regressions for the cut-short comm bug: perf pads comm with %16s
    and comm may contain spaces, but only the first token was kept."""

    def test_multi_word_comm(self):
        report = parse_perf_script(
            io.StringIO("Web Content 1234 [001] 10.5: mem-loads: 0x7f00aa\n")
        )
        assert report.samples == [
            PerfSample("Web Content", 1234, "mem-loads", 0x7F00AA, 10.5)
        ]
        # The grammar covers one-token comms only; the token parser
        # resolved this line.
        assert report.token_lines == 1

    def test_padded_multi_word_comm_joins_with_one_space(self):
        sample = _parse_line("  Isolated  Web Co 77/78 mem-stores: 0x10")
        assert sample.comm == "Isolated Web Co"
        assert sample.pid == 77

    def test_comm_without_pid_is_first_token(self):
        sample = _parse_line("swim 1.5: mem-loads: 0x10")
        assert sample.comm == "swim"
        assert sample.pid is None
        assert sample.time == 1.5


class TestPerfSample:
    def test_positional_and_keyword_construction(self):
        positional = PerfSample("a", 1, "mem-loads", 0x100)
        keyword = PerfSample(comm="a", pid=1, event="mem-loads",
                             address=0x100)
        assert positional == keyword
        assert positional.time is None
        assert PerfSample._fields == (
            "comm", "pid", "event", "address", "time"
        )

    def test_immutable(self):
        sample = PerfSample("a", 1, "mem-loads", 0x100, 2.5)
        with pytest.raises(AttributeError):
            sample.address = 0


class TestAddressHeuristic:
    """Regressions for the decimal-column-shadows-address bug: the first
    hex-looking token after the event used to win, so period/weight
    columns (``mem-loads: 1 ffff8800deadbeef``) parsed as address=1."""

    def test_weight_column_does_not_shadow_address(self):
        report = parse_perf_script(
            io.StringIO("mcf 1234 12345.678901: mem-loads: 1 "
                        "ffff8800deadbeef\n")
        )
        assert len(report.samples) == 1
        assert report.samples[0].address == 0xFFFF8800DEADBEEF

    def test_multiple_decimal_columns(self):
        # perf -F weight,addr layouts put several decimal fields first.
        report = parse_perf_script(
            io.StringIO("mcf 1234 1.5: mem-loads: 153 28 7f2c10a040\n")
        )
        assert report.samples[0].address == 0x7F2C10A040

    def test_prefixed_address_wins_over_wider_bare_hex(self):
        # An explicit 0x token is the address even when a wider bare
        # token (e.g. a build-id or symbol hash) follows.
        report = parse_perf_script(
            io.StringIO("app 9 mem-loads: 0xdead0 ffffffffffffffffdead\n")
        )
        assert report.samples[0].address == 0xDEAD0

    def test_single_small_bare_address_still_accepted(self):
        # Tiny bare-hex addresses (synthetic fixtures) keep working.
        report = parse_perf_script(io.StringIO("app 1 1.0: mem-loads: 0\n"))
        assert report.samples[0].address == 0

    def test_trailing_metadata_not_picked_over_address(self):
        report = parse_perf_script(
            io.StringIO("mcf 1234 mem-loads: ffff8800deadbe00 level hit\n")
        )
        assert report.samples[0].address == 0xFFFF8800DEADBE00


class TestEventDetection:
    """Regressions for the stale-event_index bug: the scan used to keep
    the *last* colon-token even when nothing hex ever followed one, so
    timestamps could be misparsed as events."""

    def test_timestamp_alone_is_not_an_event(self):
        # Old parser: event="4021.5", address=0xdeadbeef00.
        report = parse_perf_script(io.StringIO("swim 77 4021.5: deadbeef00\n"))
        assert report.samples == []
        assert report.skipped_lines == 1

    def test_no_address_after_any_colon_token_is_skipped(self):
        report = parse_perf_script(
            io.StringIO("app 1 12345.678901: mem-loads: no-payload-here\n")
        )
        assert report.samples == []
        assert report.skipped_lines == 1

    def test_event_found_even_with_timestamp_colon_before_it(self):
        report = parse_perf_script(
            io.StringIO("mcf 1234 [002] 12345.678901: mem-loads: "
                        "ffff8800deadbe00\n")
        )
        sample = report.samples[0]
        assert sample.event == "mem-loads"
        assert sample.time == pytest.approx(12345.678901)

    def test_trailing_colon_token_without_payload(self):
        # A colon-token in last position can never carry an address.
        report = parse_perf_script(io.StringIO("app 1 mem-loads:\n"))
        assert report.samples == []
        assert report.skipped_lines == 1


class TestFilterAccounting:
    def test_event_filter_counted_separately(self):
        report = parse_perf_script(
            io.StringIO(CLASSIC), events=["mem-loads"]
        )
        assert report.filtered_events == 1
        assert report.skipped_lines == 0
        assert report.parsed_lines == 3

    def test_pid_filter_counted_separately(self):
        report = parse_perf_script(io.StringIO(MODERN), pid=77)
        assert report.filtered_pids == 1
        assert report.skipped_lines == 0

    def test_skipped_still_counts_parse_failures_only(self):
        junk = "not a perf line at all\n" + CLASSIC
        report = parse_perf_script(
            io.StringIO(junk), events=["mem-stores"]
        )
        assert report.skipped_lines == 1
        assert report.filtered_events == 2
        assert len(report.samples) == 1

    def test_path_source_reads_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "trace.txt"
        payload = (
            b"m\xffcf 1234 12345.678901: mem-loads: ffff8800deadbe00\n"
        )
        path.write_bytes(payload)
        report = parse_perf_script(str(path))
        assert len(report.samples) == 1
        assert report.samples[0].address == 0xFFFF8800DEADBE00


class TestSplitByPid:
    def test_groups_preserve_order(self):
        samples = [
            PerfSample("a", 1, "mem-loads", 0x100),
            PerfSample("b", 2, "mem-loads", 0x200),
            PerfSample("a", 1, "mem-loads", 0x180),
            PerfSample("c", None, "mem-loads", 0x300),
        ]
        groups = split_by_pid(samples)
        assert sorted(groups, key=lambda p: (p is None, p)) == [1, 2, None]
        assert [s.address for s in groups[1]] == [0x100, 0x180]
        assert [s.address for s in groups[None]] == [0x300]


class TestConversion:
    def test_samples_to_lines(self):
        samples = [
            PerfSample("a", 1, "mem-loads", 0),
            PerfSample("a", 1, "mem-loads", 127),
            PerfSample("a", 1, "mem-loads", 128),
        ]
        assert samples_to_lines(samples, line_size=128) == [0, 0, 1]

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            samples_to_lines([], line_size=0)

    def test_end_to_end_into_engine(self, tiny_machine):
        """A perf trace of a small loop yields the loop's step MRC."""
        from repro.core.rapidmrc import ProbeConfig, RapidMRC

        loop_lines = 2 * tiny_machine.lines_per_color
        lines = []
        for _ in range(30):
            for index in range(loop_lines):
                address = index * tiny_machine.line_size
                lines.append(
                    f"app 1 1.0: mem-loads: {address:x}"
                )
        report = parse_perf_script(iter(lines))
        trace = samples_to_lines(report.samples, tiny_machine.line_size)
        engine = RapidMRC(tiny_machine, ProbeConfig(warmup="static"))
        mrc = engine.compute(trace, instructions=48 * len(trace)).mrc
        assert mrc[1] > 0
        assert mrc[2] == pytest.approx(0.0)


# -- the line grammar against the token parser --------------------------------

#: Each field of a line as (canonical values, perturbed values).
_SEPARATORS = ([" ", "  "], ["\t", " \t ", "\u3000", "\x1c", "\xa0", "\u2003"])
_COMMS = (["mcf", "fitter", "perf-exec"],
          ["Web Content", "kworker/0:1", "foo:", "1234", "m\u00e9",
           "\u0663", "a b c", ""])
_PIDS = (["1234", "77/78", "4101/4101"],
         ["\u0661\u0662", "1234:", "x1", ""])
_CPUS = (["[002]", "[000]", ""], ["[x]", "[\u0661]"])
_TIMES = (["12345.678901:", "4021.000003:", "1.5:", ""],
          ["12:", "nan:", "\u0661.\u0665:", "1.5.2:", "1e3:"])
_PERIODS = (["1", ""], ["153 28", "0x1", "1.5"])
_EVENTS = (["mem-loads:", "mem-stores:", "cpu/mem-loads,ldlat=30/P:"],
           ["1.5:", "\u0661.\u0665:", "1.5.2:", "mem-loads", "ev@x=1:",
            "mem loads:", "\u0661:"])
_ADDRESSES = (["0xdeadbeef", "0xABC0", "deadbeef", "ffff8800deadbeef", "0"],
              ["0x", "0x1fg", "0xdead:beef", "abc def", "1 ffff8800deadbeef",
               "0x1f 0x2", "ffff_1", "g00", "0x\u0661", "\u0661\u0662", ""])
_TRAILERS = ([""], ["level hit", "ffffffffffffffffdead", "0x1",
                    "mem-stores: 0x2", "1.5:"])
#: Characters a single-character perturbation inserts.
_NOISE = "0123456789abcfx:./[]- \t#\u0661\u3000\x85"


def _field(draw, choices):
    """A canonical value four times in five, else a perturbed one."""
    canonical, perturbed = choices
    pool = canonical if draw(st.integers(0, 4)) else perturbed
    return draw(st.sampled_from(pool))


@st.composite
def perf_lines(draw):
    """A perf-script line from the canonical layouts, perturbed."""
    fields = [_field(draw, choices) for choices in (
        _COMMS, _PIDS, _CPUS, _TIMES, _PERIODS, _EVENTS, _ADDRESSES,
        _TRAILERS,
    )]
    if draw(st.booleans()):
        fields[0] = fields[0].rjust(16)
    line = ""
    for value in fields:
        if value:
            line += (_field(draw, _SEPARATORS) if line else "") + value
    if not draw(st.integers(0, 3)):
        position = draw(st.integers(0, len(line)))
        if draw(st.booleans()):
            line = (line[:position] + draw(st.sampled_from(_NOISE))
                    + line[position:])
        else:
            line = line[:position] + line[position + 1:]
    return line


class TestGrammarDifferential:
    """The compiled line grammar is a fast path only: whatever line it
    accepts must parse to exactly the token parser's sample."""

    @settings(max_examples=1500, deadline=None)
    @given(perf_lines())
    def test_grammar_agrees_with_token_parser(self, line):
        for candidate in (line, line.strip()):
            sample = _match_line(candidate)
            if sample is not None:
                assert sample == _parse_line(candidate)

    @pytest.mark.parametrize("line", [
        "mcf  1234 [002] 12345.678901:  mem-loads:  ffff8800deadbe00",
        "mcf 1234/1234 4021.662435: cpu/mem-loads,ldlat=30/P: 7f2c10a040",
        "fitter 4101 [000] 4021.000003:  1 mem-loads:  0x7f0012345678",
        "swim 77 mem-stores: 0x7fffdeadbeef level hit",
        "app 1 1.0: mem-loads: 0",
    ])
    def test_canonical_layouts_take_the_grammar(self, line):
        sample = _match_line(line)
        assert sample is not None
        assert sample == _parse_line(line)

    @pytest.mark.parametrize("line", [
        # spaced comm, colon comm, Unicode digits, time-like event,
        # bare hex with trailing tokens, width-tied hex, no pid
        "Web Content 1234 [001] 10.5: mem-loads: 0x7f00aa",
        "kworker/0:1 12 mem-loads: 0x10",
        "mcf \u0661\u0662 mem-loads: 0x10",
        "mcf 12 1.5: 0x10",
        "mcf 1234 mem-loads: ffff8800deadbe00 level hit",
        "mcf 1234 mem-loads: abc def",
        "mcf 1234 mem-loads: 0x1fg",
        "swim 1.5: mem-loads: 0x10",
    ])
    def test_grammar_refuses_other_layouts(self, line):
        assert _match_line(line) is None


def _line_by_line(lines, events=None, pid=None, strict=False):
    """The whole-file contract restated with the token parser alone."""
    samples = []
    skipped = filtered_events = filtered_pids = total = token_lines = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        total += 1
        sample = _parse_line(line)
        if sample is None:
            if strict:
                raise ValueError(line)
            skipped += 1
            continue
        if _match_line(line) is None:
            token_lines += 1
        if events is not None and not any(key in sample.event
                                          for key in events):
            filtered_events += 1
            continue
        if pid is not None and sample.pid != pid:
            filtered_pids += 1
            continue
        samples.append(sample)
    return samples, skipped, total, filtered_events, filtered_pids, token_lines


class TestWholeFileDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(perf_lines(), st.sampled_from(["", "# comment", "  "])),
            max_size=25,
        ),
        events=st.sampled_from([None, ["mem-loads"], ["mem-"], ["nothing"]]),
        pid=st.sampled_from([None, 1234, 77, 12]),
        strict=st.booleans(),
    )
    def test_parse_equals_token_parser_pass(self, lines, events, pid, strict):
        try:
            expected = _line_by_line(lines, events, pid, strict)
        except ValueError:
            with pytest.raises(ValueError):
                parse_perf_script(lines, events=events, pid=pid,
                                  strict=strict)
            return
        report = parse_perf_script(lines, events=events, pid=pid,
                                   strict=strict)
        assert (report.samples, report.skipped_lines, report.total_lines,
                report.filtered_events, report.filtered_pids,
                report.token_lines) == expected


class TestParserSplit:
    def test_counter_records_which_parser_ran(self):
        lines = CLASSIC.splitlines() + [
            "Web Content 1234 [001] 10.5: mem-loads: 0x7f00aa",
            "not a perf line at all",
        ]
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            report = parse_perf_script(lines)
        # CLASSIC's first line has tokens after its bare-hex address.
        assert (report.grammar_lines, report.token_lines,
                report.skipped_lines) == (2, 2, 1)
        registry = telemetry.registry
        assert registry.counter("io.parse_lines", parser="grammar").value == 2
        assert registry.counter("io.parse_lines", parser="tokens").value == 2

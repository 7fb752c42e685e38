"""ctypes harness for the native C simulation engine (``_native.c``).

The C engine is an exact transliteration of the scalar hot path --
``Process.step`` + ``MemoryHierarchy.access`` + the stream prefetcher
and page allocator -- over flat state arrays.  This module owns the
other half of the contract:

- **build**: compile ``_native.c`` with the system C compiler on first
  use, keyed by a hash of the source (so edits invalidate the cache),
  and load it through ctypes.  No compiler, no native engine -- every
  drive runs on the scalar reference loop instead.
- **marshal**: :class:`NativeSession` adopts the live Python objects
  (caches, counters, allocator slices, prefetcher streams, the CPython
  MT19937 state) into C-visible arrays, and commits the advanced state
  back so scalar and native execution interleave seamlessly.  A session
  that stays adopted across co-run stops exchanges only the *light*
  state (clocks and core counters, :meth:`NativeSession.push_light` /
  :meth:`~NativeSession.pull_light`) and hosts attached trace
  collectors (:meth:`NativeSession.attach_collector`).
- **protocol**: the engine never allocates; when a step *would*
  overflow a map or log it stops cleanly before mutating anything and
  reports a ``STOP_GROW_*`` reason.  The session grows the buffer
  in place and resumes -- state is bit-identical either way.

Kill switch: set ``REPRO_NATIVE=0`` to disable the native engine
entirely; every run then takes the scalar path, with the same results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "NativeSession",
    "mt_fill",
    "native_lib",
    "native_available",
    "STOP_NONE",
    "STOP_REFILL",
    "STOP_GROW_EVENTS",
    "STOP_AT",
    "STOP_DONE",
]

i64 = ctypes.c_int64
u32 = ctypes.c_uint32
u8 = ctypes.c_uint8
f64 = ctypes.c_double
P_i64 = ctypes.POINTER(i64)
P_u32 = ctypes.POINTER(u32)
P_u8 = ctypes.POINTER(u8)
P_f64 = ctypes.POINTER(f64)

STOP_NONE = 0
STOP_REFILL = 1
STOP_GROW_TLB = 2
STOP_GROW_PT = 3
STOP_GROW_PFSET = 4
STOP_GROW_NEWPAGES = 5
STOP_GROW_EVENTS = 6
STOP_AT = 7
STOP_DONE = 8

HT_EMPTY = -1

# Initial headroom of the engine's growable buffers.  Outgrowing one is
# a clean stop-grow-resume, never a behaviour change, so these only
# trade resident memory against grow stops (the stop-protocol stress
# tests shrink them to force growth on every path).
#: Free entries adopted line-cache (TLB) and page-table maps start with.
MAP_HEADROOM = 1024
#: Free entries the stale-page set starts with.
STALE_HEADROOM = 64
#: Free entries the prefetched-line set starts with, beyond its trim bound.
PFSET_HEADROOM = 64
#: Allocation-log capacity (int64 words, three per logged page).
NEWPAGES_CAP = 3 << 10


# ---------------------------------------------------------------------------
# Struct mirrors (field order and widths must match _native.c exactly)
# ---------------------------------------------------------------------------

class _NCache(ctypes.Structure):
    _fields_ = [
        ("nsets", i64), ("assoc", i64),
        ("ways", P_i64), ("occ", P_i64),
        ("accesses", i64), ("hits", i64), ("evictions", i64), ("fills", i64),
    ]


class _NMap(ctypes.Structure):
    _fields_ = [
        ("cap", i64), ("count", i64), ("tombs", i64),
        ("keys", P_i64), ("vals", P_i64),
    ]


class _NPf(ctypes.Structure):
    _fields_ = [
        ("enabled", i64), ("num_streams", i64), ("depth", i64),
        ("confirm_after", i64), ("late_p", f64), ("install_p", f64),
        ("count", i64), ("clock", i64), ("issued", i64),
        ("next_line", P_i64), ("hits", P_i64),
        ("confirmed", P_i64), ("last_use", P_i64),
    ]


class _NMt(ctypes.Structure):
    _fields_ = [("key", P_u32), ("pos", i64)]


class _NShared(ctypes.Structure):
    _fields_ = [
        ("l2", _NCache),
        ("l3_enabled", i64), ("l3_ratio", i64), ("l3", _NCache),
        ("l3_accesses", i64), ("l3_hits", i64), ("l3_fills", i64),
        ("pages_per_group", i64), ("pages_per_color", i64),
        ("migration_cost", i64),
        ("next_frame_of_color", P_i64), ("lazy_migrations", i64),
        ("stop_reason", i64), ("stop_proc", i64),
    ]


class _NColl(ctypes.Structure):
    _fields_ = [
        ("log", P_i64), ("log_len", i64), ("log_cap", i64),
        ("sdar_valid", i64), ("sdar", i64), ("sdar_updates", i64),
        ("pmc_total", i64), ("mt", _NMt), ("since_miss", i64),
        ("inflight_window", i64), ("drop_p", f64), ("dual_lsu", i64),
        ("stale_on_pf", i64),
        ("l1d_misses", i64), ("dropped", i64), ("stale_entries", i64),
        ("exceptions", i64), ("exception_cost", f64),
    ]


class _NProc(ctypes.Structure):
    _fields_ = [
        ("vaddrs", P_i64), ("stores", P_u8), ("pos", i64), ("len", i64),
        ("line_size", i64), ("lines_per_page", i64),
        ("base_cost", f64), ("pen_l2", f64), ("pen_l3", f64),
        ("pen_mem", f64), ("ipa", i64),
        ("cycles", f64), ("instructions", i64), ("accesses", i64),
        ("debt_pending", i64),
        ("colors", P_i64), ("ncolors", i64), ("cursor", i64),
        ("tlb", _NMap), ("page_table", _NMap), ("stale", _NMap),
        ("newpages", P_i64), ("newpages_len", i64), ("newpages_cap", i64),
        ("pf", _NPf), ("mt", _NMt),
        ("c_instructions", i64), ("c_loads", i64), ("c_stores", i64),
        ("c_l1d_misses", i64), ("c_l2da", i64), ("c_l2dm", i64),
        ("c_l3_hits", i64), ("c_mem", i64),
        ("l1", _NCache),
        ("pf_set", _NMap), ("pf_trim_bound", i64),
        ("stop_reason", i64),
        ("coll", ctypes.POINTER(_NColl)),
    ]


class _NEvents(ctypes.Structure):
    _fields_ = [
        ("cap", i64), ("n", i64), ("line", P_i64), ("flags", P_u8),
        ("pf_count", P_i64), ("pf_cap", i64), ("pf_n", i64),
        ("pf_lines", P_i64),
    ]


# ---------------------------------------------------------------------------
# Build & load
# ---------------------------------------------------------------------------

_CFLAGS = ["-O2", "-shared", "-fPIC", "-fvisibility=hidden"]
#: ``REPRO_NATIVE_SANITIZE=1`` builds the engine with AddressSanitizer
#: and UBSan instead (its own cache key: the flags feed the tag).  Load
#: it with ``LD_PRELOAD=$(gcc -print-file-name=libasan.so)``,
#: ``ASAN_OPTIONS=detect_leaks=0`` and ``PYTHONMALLOC=malloc``.
_SANITIZE_CFLAGS = [
    "-O1", "-g", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all", "-fno-omit-frame-pointer",
    "-shared", "-fPIC", "-fvisibility=hidden",
]
_LIB: Optional[ctypes.CDLL] = None
_LIB_TRIED = False


def _enabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") not in ("0", "off", "false")


def _find_cc() -> Optional[str]:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not cc:
            continue
        for root in os.environ.get("PATH", "").split(os.pathsep):
            cand = os.path.join(root, cc)
            if os.path.isfile(cand) and os.access(cand, os.X_OK):
                return cc
    return None


def _cflags() -> List[str]:
    if os.environ.get("REPRO_NATIVE_SANITIZE", "0") not in ("0", "off", ""):
        return _SANITIZE_CFLAGS
    return _CFLAGS


def _build_lib() -> Optional[ctypes.CDLL]:
    source = os.path.join(os.path.dirname(__file__), "_native.c")
    try:
        with open(source, "rb") as src:
            blob = src.read()
    except OSError:
        return None
    cflags = _cflags()
    tag = hashlib.sha256(blob + " ".join(cflags).encode()).hexdigest()[:16]
    name = f"_repro_native_{tag}.so"
    for cache_dir in (os.path.dirname(source), tempfile.gettempdir()):
        so_path = os.path.join(cache_dir, name)
        if os.path.exists(so_path):
            try:
                return ctypes.CDLL(so_path)
            except OSError:
                continue
        cc = _find_cc()
        if cc is None:
            return None
        tmp_path = so_path + f".tmp{os.getpid()}"
        try:
            subprocess.run(
                [cc, *cflags, "-o", tmp_path, source],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp_path, so_path)
            return ctypes.CDLL(so_path)
        except (OSError, subprocess.SubprocessError):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            continue
    return None


def native_lib() -> Optional[ctypes.CDLL]:
    """The loaded native engine, building it on first call (None when
    disabled via ``REPRO_NATIVE=0`` or no C compiler is available)."""
    global _LIB, _LIB_TRIED
    if not _enabled():
        return None
    if _LIB_TRIED:
        return _LIB
    _LIB_TRIED = True
    lib = _build_lib()
    if lib is not None:
        lib.repro_mt_fill.argtypes = [P_u32, P_i64, P_f64, i64]
        lib.repro_mt_fill.restype = None
        lib.repro_solo.argtypes = [
            ctypes.POINTER(_NShared), ctypes.POINTER(_NProc), i64,
            ctypes.POINTER(_NEvents),
        ]
        lib.repro_solo.restype = i64
        lib.repro_corun.argtypes = [
            ctypes.POINTER(_NShared),
            ctypes.POINTER(ctypes.POINTER(_NProc)), i64, P_i64,
        ]
        lib.repro_corun.restype = i64
        lib.repro_map_fill.argtypes = [
            ctypes.POINTER(_NMap), P_i64, P_i64, i64,
        ]
        lib.repro_map_fill.restype = None
    _LIB = lib
    return lib


def native_available() -> bool:
    return native_lib() is not None


def mt_fill(rng_state: tuple, n: int) -> Tuple[np.ndarray, tuple]:
    """``n`` consecutive ``random()`` draws via the C MT19937, from a
    ``random.Random.getstate()`` tuple.  Returns ``(draws,
    advanced_state)``; the workloads' vectorized generators draw through
    it (:func:`repro.workloads.base.draw_uniform`)."""
    lib = native_lib()
    if lib is None:
        raise RuntimeError("native engine unavailable")
    version, internal, gauss_next = rng_state
    key = np.array(internal[:624], dtype=np.uint32)
    pos = i64(internal[624])
    out = np.empty(n, dtype=np.float64)
    lib.repro_mt_fill(
        key.ctypes.data_as(P_u32), ctypes.byref(pos),
        out.ctypes.data_as(P_f64), n,
    )
    state = (version, tuple(key.tolist()) + (int(pos.value),), gauss_next)
    return out, state


# ---------------------------------------------------------------------------
# Hash-table marshalling (must reproduce _native.c's probe sequence)
# ---------------------------------------------------------------------------

def _ht_cap_for(count: int, extra: int) -> int:
    cap = 64
    while (count + extra) * 10 > cap * 7:
        cap <<= 1
    return cap


def _map_live(keys_arr: np.ndarray, vals_arr: Optional[np.ndarray]):
    mask = keys_arr >= 0
    live_keys = keys_arr[mask].tolist()
    live_vals = vals_arr[mask].tolist() if vals_arr is not None else None
    return live_keys, live_vals


def _bind_map(
    lib,
    struct: _NMap,
    keys: Sequence[int],
    vals: Optional[Sequence[int]],
    extra: int,
) -> Dict[str, Optional[np.ndarray]]:
    """A fresh table holding ``keys`` (and ``vals``), inserted in order
    by C ``map_put``, with room for ``extra`` more entries."""
    cap = _ht_cap_for(len(keys), extra)
    keys_arr = np.full(cap, HT_EMPTY, dtype=np.int64)
    vals_arr = np.zeros(cap, dtype=np.int64) if vals is not None else None
    struct.cap = cap
    struct.count = 0
    struct.tombs = 0
    struct.keys = keys_arr.ctypes.data_as(P_i64)
    struct.vals = (
        vals_arr.ctypes.data_as(P_i64) if vals_arr is not None else P_i64()
    )
    if len(keys):
        src_keys = np.asarray(keys, dtype=np.int64)
        src_vals = (
            np.asarray(vals, dtype=np.int64) if vals is not None else None
        )
        lib.repro_map_fill(
            ctypes.byref(struct), src_keys.ctypes.data_as(P_i64),
            src_vals.ctypes.data_as(P_i64) if src_vals is not None
            else P_i64(),
            src_keys.size,
        )
    return {"keys": keys_arr, "vals": vals_arr}


# ---------------------------------------------------------------------------
# LRU cache marshalling
# ---------------------------------------------------------------------------

def _bind_cache(struct: _NCache, cache) -> Dict[str, np.ndarray]:
    """Adopt a SetAssociativeCache: per-set way arrays in recency order
    (oldest first), matching OrderedDict iteration order."""
    nsets = cache.config.num_sets
    assoc = cache.config.associativity
    ways = [0] * (nsets * assoc)
    occ = [0] * nsets
    for index, bucket in enumerate(cache._sets):
        base = index * assoc
        j = 0
        for line in bucket:
            ways[base + j] = line
            j += 1
        occ[index] = j
    ways_arr = np.array(ways, dtype=np.int64)
    occ_arr = np.array(occ, dtype=np.int64)
    stats = cache.stats
    struct.nsets = nsets
    struct.assoc = assoc
    struct.ways = ways_arr.ctypes.data_as(P_i64)
    struct.occ = occ_arr.ctypes.data_as(P_i64)
    struct.accesses = stats.accesses
    struct.hits = stats.hits
    struct.evictions = stats.evictions
    struct.fills = stats.fills
    return {"ways": ways_arr, "occ": occ_arr}


def _commit_cache(struct: _NCache, arrs: Dict[str, np.ndarray], cache) -> None:
    assoc = struct.assoc
    ways = arrs["ways"].tolist()
    occ = arrs["occ"].tolist()
    for index, bucket in enumerate(cache._sets):
        bucket.clear()
        base = index * assoc
        for j in range(occ[index]):
            bucket[ways[base + j]] = None
    stats = cache.stats
    stats.accesses = struct.accesses
    stats.hits = struct.hits
    stats.evictions = struct.evictions
    stats.fills = struct.fills


# ---------------------------------------------------------------------------
# Event buffer (observed solo runs)
# ---------------------------------------------------------------------------

class EventBuffer:
    """Recording buffer handed to ``repro_solo`` on observed runs."""

    def __init__(self, cap: int, depth: int):
        self.cap = cap
        self.lines = np.empty(cap, dtype=np.int64)
        self.flags = np.empty(cap, dtype=np.uint8)
        self.pf_count = np.empty(cap, dtype=np.int64)
        pf_cap = max(cap * max(depth, 1), 64)
        self.pf_lines = np.empty(pf_cap, dtype=np.int64)
        ev = _NEvents()
        ev.cap = cap
        ev.n = 0
        ev.line = self.lines.ctypes.data_as(P_i64)
        ev.flags = self.flags.ctypes.data_as(P_u8)
        ev.pf_count = self.pf_count.ctypes.data_as(P_i64)
        ev.pf_cap = pf_cap
        ev.pf_n = 0
        ev.pf_lines = self.pf_lines.ctypes.data_as(P_i64)
        self.struct = ev

    def reset(self) -> None:
        self.struct.n = 0
        self.struct.pf_n = 0

    def drain(self):
        """``(lines, l1_hits, prefetched_or_None)`` for the recorded
        events, in the exact shapes ``observe_events`` expects."""
        n = self.struct.n
        lines = self.lines[:n].tolist()
        hits = [bool(f & 1) for f in self.flags[:n].tolist()]
        if self.struct.pf_n == 0:
            return lines, hits, None
        counts = self.pf_count[:n].tolist()
        flat = self.pf_lines[: self.struct.pf_n].tolist()
        prefetched: List[tuple] = []
        offset = 0
        for count in counts:
            if count:
                prefetched.append(tuple(flat[offset:offset + count]))
                offset += count
            else:
                prefetched.append(())
        return lines, hits, prefetched


# ---------------------------------------------------------------------------
# The session: adopt / run / grow / commit
# ---------------------------------------------------------------------------

class NativeVaddrError(Exception):
    """A chunk contained a negative virtual address (C uses truncating
    division); the caller pushes the chunk back and falls out of the
    native path."""


class NativeSession:
    """One adopted (hierarchy, allocator, processes) triple.

    Lifecycle: construct, :meth:`adopt`, feed chunks + run, then
    :meth:`commit`.  Between adopt and commit the C-side arrays are the
    single source of truth for everything they cover; nothing else may
    touch the hierarchy, allocator, prefetchers, RNGs or attached
    collectors.  The one exception is the light state: between two runs
    Python may read and change clocks and core counters if it brackets
    the change with :meth:`pull_light` and :meth:`push_light`.
    """

    def __init__(self, hierarchy, processes: Sequence, lib=None):
        self.lib = lib if lib is not None else native_lib()
        if self.lib is None:
            raise RuntimeError("native engine unavailable")
        self.hierarchy = hierarchy
        self.processes = list(processes)
        self.allocator = self.processes[0].allocator
        self.sh = _NShared()
        self.procs = [_NProc() for _ in self.processes]
        self._proc_ptrs = (ctypes.POINTER(_NProc) * len(self.procs))(
            *[ctypes.pointer(p) for p in self.procs]
        )
        self._sh_arrs: Dict[str, np.ndarray] = {}
        self._proc_arrs: List[Dict[str, object]] = [
            {} for _ in self.processes
        ]
        self._chunks: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [
            None for _ in self.processes
        ]
        self._gauss: List[object] = [None for _ in self.processes]
        # Attached trace collectors: (collector, _NColl, log array,
        # MT key array, (RNG version, gauss_next)).
        self._colls: List[Optional[tuple]] = [None for _ in self.processes]
        self._adopted = False

    @property
    def adopted(self) -> bool:
        return self._adopted

    # -- adopt --------------------------------------------------------------

    def adopt(self) -> None:
        hierarchy = self.hierarchy
        allocator = self.allocator
        machine = hierarchy.machine
        sh = self.sh

        self._sh_arrs["l2"] = _bind_cache(sh.l2, hierarchy.l2)
        l3 = hierarchy.l3
        sh.l3_enabled = 1 if (l3.enabled and l3._cache is not None) else 0
        sh.l3_ratio = l3._ratio
        if sh.l3_enabled:
            self._sh_arrs["l3"] = _bind_cache(sh.l3, l3._cache)
        else:
            sh.l3.nsets = 1
            sh.l3.assoc = 0
        sh.l3_accesses = l3.stats.accesses
        sh.l3_hits = l3.stats.hits
        sh.l3_fills = l3.stats.fills

        mapper = allocator.mapper
        sh.pages_per_group = mapper._pages_per_group
        sh.pages_per_color = mapper._pages_per_color
        sh.migration_cost = allocator.migration_cost_cycles
        nfoc = np.array(
            [allocator._next_frame_of_color[c]
             for c in range(machine.num_colors)],
            dtype=np.int64,
        )
        sh.next_frame_of_color = nfoc.ctypes.data_as(P_i64)
        self._sh_arrs["nfoc"] = nfoc
        sh.lazy_migrations = allocator.lazy_migrations
        sh.stop_reason = STOP_NONE
        sh.stop_proc = -1

        for index, process in enumerate(self.processes):
            self._adopt_proc(index, process)
        self._adopted = True

    def _adopt_proc(self, index: int, process) -> None:
        hierarchy = self.hierarchy
        allocator = self.allocator
        machine = hierarchy.machine
        p = self.procs[index]
        arrs = self._proc_arrs[index]
        core = process.core
        pid = process.pid

        p.vaddrs = P_i64()
        p.stores = P_u8()
        p.pos = 0
        p.len = 0
        self._chunks[index] = None

        p.line_size = process._line_size
        p.lines_per_page = process._lines_per_page
        p.base_cost = process._base_cost
        expose = process._expose
        p.pen_l2 = expose * machine.l2_latency
        p.pen_l3 = expose * machine.l3_latency
        p.pen_mem = expose * machine.memory_latency
        p.ipa = process._ipa

        p.cycles = process.cycles
        p.instructions = process.instructions
        p.accesses = process.accesses
        p.debt_pending = allocator._migration_debt.pop(pid, 0)

        colors = np.array(allocator.colors_of(pid), dtype=np.int64)
        p.colors = colors.ctypes.data_as(P_i64)
        p.ncolors = colors.size
        p.cursor = allocator._cursor.get(pid, 0)
        arrs["colors"] = colors

        tlb = process._tlb
        arrs["tlb"] = _bind_map(
            self.lib, p.tlb, list(tlb.keys()), list(tlb.values()),
            max(MAP_HEADROOM, len(tlb)),
        )
        pt_keys: List[int] = []
        pt_vals: List[int] = []
        for (owner, vpage), frame in allocator._page_table.items():
            if owner == pid:
                pt_keys.append(vpage)
                pt_vals.append(frame)
        arrs["pt"] = _bind_map(
            self.lib, p.page_table, pt_keys, pt_vals,
            max(MAP_HEADROOM, len(pt_keys)),
        )
        stale = [vpage for (owner, vpage) in allocator._stale if owner == pid]
        arrs["stale"] = _bind_map(
            self.lib, p.stale, stale, None, STALE_HEADROOM
        )

        newpages = np.empty(NEWPAGES_CAP, dtype=np.int64)
        p.newpages = newpages.ctypes.data_as(P_i64)
        p.newpages_len = 0
        p.newpages_cap = newpages.size
        arrs["newpages"] = newpages

        config = process._pf_config
        pf = p.pf
        pf.enabled = 1 if config.enabled else 0
        pf.num_streams = config.num_streams
        pf.depth = config.depth
        pf.confirm_after = config.confirm_after
        pf.late_p = process._pf_late
        pf.install_p = process._pf_install
        streams = process.prefetcher._streams
        pf.count = len(streams)
        pf.clock = process.prefetcher._clock
        pf.issued = process.prefetcher.issued
        size = max(config.num_streams, 1)
        pf_next = np.zeros(size, dtype=np.int64)
        pf_hits = np.zeros(size, dtype=np.int64)
        pf_conf = np.zeros(size, dtype=np.int64)
        pf_last = np.zeros(size, dtype=np.int64)
        for j, stream in enumerate(streams):
            pf_next[j] = stream.next_line
            pf_hits[j] = stream.hits
            pf_conf[j] = 1 if stream.confirmed else 0
            pf_last[j] = stream.last_use
        pf.next_line = pf_next.ctypes.data_as(P_i64)
        pf.hits = pf_hits.ctypes.data_as(P_i64)
        pf.confirmed = pf_conf.ctypes.data_as(P_i64)
        pf.last_use = pf_last.ctypes.data_as(P_i64)
        arrs["pf"] = (pf_next, pf_hits, pf_conf, pf_last)

        version, internal, gauss_next = process._pf_rng.getstate()
        mt_key = np.array(internal[:624], dtype=np.uint32)
        p.mt.key = mt_key.ctypes.data_as(P_u32)
        p.mt.pos = internal[624]
        arrs["mt"] = mt_key
        self._gauss[index] = (version, gauss_next)

        counters = hierarchy.counters[core]
        p.c_instructions = counters.instructions
        p.c_loads = counters.loads
        p.c_stores = counters.stores
        p.c_l1d_misses = counters.l1d_misses
        p.c_l2da = counters.l2_demand_accesses
        p.c_l2dm = counters.l2_demand_misses
        p.c_l3_hits = counters.l3_hits
        p.c_mem = counters.memory_accesses

        arrs["l1"] = _bind_cache(p.l1, hierarchy.l1d[core])

        p.pf_trim_bound = 4 * machine.l1d_lines
        p.coll = ctypes.POINTER(_NColl)()
        tracked = sorted(hierarchy._prefetched_l1[core])
        arrs["pf_set"] = _bind_map(
            self.lib, p.pf_set, tracked, None,
            p.pf_trim_bound + max(config.depth, 1) + PFSET_HEADROOM,
        )
        p.stop_reason = STOP_NONE

    # -- commit -------------------------------------------------------------

    def commit(self) -> None:
        if not self._adopted:
            return
        hierarchy = self.hierarchy
        allocator = self.allocator
        machine = hierarchy.machine
        sh = self.sh

        _commit_cache(sh.l2, self._sh_arrs["l2"], hierarchy.l2)
        l3 = hierarchy.l3
        if sh.l3_enabled:
            _commit_cache(sh.l3, self._sh_arrs["l3"], l3._cache)
        l3.stats.accesses = sh.l3_accesses
        l3.stats.hits = sh.l3_hits
        l3.stats.fills = sh.l3_fills

        nfoc = self._sh_arrs["nfoc"].tolist()
        for color in range(machine.num_colors):
            allocator._next_frame_of_color[color] = nfoc[color]
        allocator.lazy_migrations = sh.lazy_migrations

        for index, process in enumerate(self.processes):
            self.detach_collector(index)
            self._commit_proc(index, process)
        self._adopted = False

    def _commit_proc(self, index: int, process) -> None:
        from repro.sim.prefetcher import _Stream

        hierarchy = self.hierarchy
        allocator = self.allocator
        p = self.procs[index]
        arrs = self._proc_arrs[index]
        core = process.core
        pid = process.pid

        self.push_back_chunk(index)

        process.cycles = p.cycles
        process.instructions = p.instructions
        process.accesses = p.accesses
        if p.debt_pending:
            allocator._migration_debt[pid] = p.debt_pending
        allocator._cursor[pid] = p.cursor

        # New page-table entries and lazy migrations, in allocation
        # order (dict insertion order matters for eager resize's
        # round-robin walk).
        log = arrs["newpages"][: p.newpages_len].tolist()
        for at in range(0, len(log), 3):
            vpage, frame, was_migration = log[at], log[at + 1], log[at + 2]
            if was_migration:
                allocator._stale.discard((pid, vpage))
            allocator._page_table[(pid, vpage)] = frame

        # The line cache can hold entries for pages that were already
        # allocated before this run (fresh cache after an epoch bump),
        # which the newpages log does not cover: sync the whole table.
        tlb_keys, tlb_vals = _map_live(
            arrs["tlb"]["keys"], arrs["tlb"]["vals"]
        )
        cache = process._tlb
        cache.clear()
        cache.update(zip(tlb_keys, tlb_vals))

        streams = []
        pf_next, pf_hits, pf_conf, pf_last = arrs["pf"]
        for j in range(p.pf.count):
            streams.append(_Stream(
                next_line=int(pf_next[j]),
                hits=int(pf_hits[j]),
                confirmed=bool(pf_conf[j]),
                last_use=int(pf_last[j]),
            ))
        process.prefetcher._streams = streams
        process.prefetcher._clock = p.pf.clock
        process.prefetcher.issued = p.pf.issued

        version, gauss_next = self._gauss[index]
        words = tuple(arrs["mt"].tolist()) + (int(p.mt.pos),)
        process._pf_rng.setstate((version, words, gauss_next))

        counters = hierarchy.counters[core]
        counters.instructions = p.c_instructions
        counters.loads = p.c_loads
        counters.stores = p.c_stores
        counters.l1d_misses = p.c_l1d_misses
        counters.l2_demand_accesses = p.c_l2da
        counters.l2_demand_misses = p.c_l2dm
        counters.l3_hits = p.c_l3_hits
        counters.memory_accesses = p.c_mem

        _commit_cache(p.l1, arrs["l1"], hierarchy.l1d[core])

        tracked = hierarchy._prefetched_l1[core]
        live, _ = _map_live(arrs["pf_set"]["keys"], None)
        tracked.clear()
        tracked.update(live)

    # -- light state (clocks + core counters) --------------------------------

    def push_light(self) -> None:
        """Copy every process's clocks and core counters into C.

        The light state is all Python may touch between two co-run
        stops without a full :meth:`commit`; heavy state (caches, page
        tables, TLBs, prefetchers, RNGs) stays in C until then.
        """
        counters = self.hierarchy.counters
        for p, process in zip(self.procs, self.processes):
            c = counters[process.core]
            p.cycles = process.cycles
            p.instructions = process.instructions
            p.accesses = process.accesses
            p.c_instructions = c.instructions
            p.c_loads = c.loads
            p.c_stores = c.stores
            p.c_l1d_misses = c.l1d_misses
            p.c_l2da = c.l2_demand_accesses
            p.c_l2dm = c.l2_demand_misses
            p.c_l3_hits = c.l3_hits
            p.c_mem = c.memory_accesses

    def pull_light(self) -> None:
        """Copy every process's clocks and core counters out of C."""
        counters = self.hierarchy.counters
        for p, process in zip(self.procs, self.processes):
            c = counters[process.core]
            process.cycles = p.cycles
            process.instructions = p.instructions
            process.accesses = p.accesses
            c.instructions = p.c_instructions
            c.loads = p.c_loads
            c.stores = p.c_stores
            c.l1d_misses = p.c_l1d_misses
            c.l2_demand_accesses = p.c_l2da
            c.l2_demand_misses = p.c_l2dm
            c.l3_hits = p.c_l3_hits
            c.memory_accesses = p.c_mem

    # -- trace collectors ---------------------------------------------------

    def attached_collector(self, index: int):
        entry = self._colls[index]
        return entry[0] if entry is not None else None

    def attach_collector(self, index: int, collector,
                         exception_cost: float) -> None:
        """Hand ``collector`` (a plain threshold-one
        :class:`~repro.pmu.sampling.TraceCollector`) to the engine: from
        now on C feeds it every access of process ``index`` and charges
        ``exception_cost`` cycles per PMU exception, until
        :meth:`detach_collector` writes its state back."""
        if not self._adopted:
            raise RuntimeError("attach_collector before adopt()")
        c = _NColl()
        log = np.empty(collector.log.capacity, dtype=np.int64)
        entries = collector.log._entries
        log[: len(entries)] = entries
        c.log = log.ctypes.data_as(P_i64)
        c.log_len = len(entries)
        c.log_cap = collector.log.capacity
        sdar = collector.sdar.read()
        c.sdar_valid = 0 if sdar is None else 1
        c.sdar = 0 if sdar is None else sdar
        c.sdar_updates = collector.sdar.updates
        c.pmc_total = collector.pmc.total
        version, internal, gauss_next = collector._rng.getstate()
        key = np.array(internal[:624], dtype=np.uint32)
        c.mt.key = key.ctypes.data_as(P_u32)
        c.mt.pos = internal[624]
        since = collector._accesses_since_miss
        c.since_miss = -1 if since is None else since
        c.inflight_window = collector.inflight_window
        c.drop_p = collector.drop_probability
        c.dual_lsu = 1 if collector.issue_mode.dual_lsu else 0
        c.stale_on_pf = (
            1 if collector.pmu_model.prefetch_raises_stale_entry else 0
        )
        c.l1d_misses = collector.l1d_misses
        c.dropped = collector.dropped_events
        c.stale_entries = collector.stale_entries
        c.exceptions = collector.exceptions
        c.exception_cost = exception_cost
        self._colls[index] = (collector, c, log, key, (version, gauss_next))
        self.procs[index].coll = ctypes.pointer(c)

    def detach_collector(self, index: int) -> None:
        """Write the engine's collector state back into the Python
        collector and stop feeding it (no-op when none is attached)."""
        entry = self._colls[index]
        if entry is None:
            return
        collector, c, log, key, (version, gauss_next) = entry
        self._colls[index] = None
        self.procs[index].coll = ctypes.POINTER(_NColl)()
        collector.log._entries = log[: c.log_len].tolist()
        collector.sdar._value = c.sdar if c.sdar_valid else None
        collector.sdar.updates = c.sdar_updates
        collector.pmc.total = c.pmc_total
        collector._rng.setstate(
            (version, tuple(key.tolist()) + (int(c.mt.pos),), gauss_next)
        )
        collector._accesses_since_miss = (
            None if c.since_miss < 0 else c.since_miss
        )
        collector.l1d_misses = c.l1d_misses
        collector.dropped_events = c.dropped
        collector.stale_entries = c.stale_entries
        collector.exceptions = c.exceptions

    # -- stream buffers -----------------------------------------------------

    def set_chunk(self, index: int, vaddrs: np.ndarray,
                  stores: np.ndarray) -> None:
        """Point the process at a fresh chunk of its access stream.

        Raises :class:`NativeVaddrError` (without consuming anything)
        when the chunk holds negative addresses -- C's truncating
        division would diverge from Python's floor division there.
        """
        if vaddrs.size and int(vaddrs.min()) < 0:
            raise NativeVaddrError
        vaddrs = np.ascontiguousarray(vaddrs, dtype=np.int64)
        stores_u8 = np.ascontiguousarray(stores).view(np.uint8)
        p = self.procs[index]
        p.vaddrs = vaddrs.ctypes.data_as(P_i64)
        p.stores = stores_u8.ctypes.data_as(P_u8)
        p.pos = 0
        p.len = vaddrs.size
        self._chunks[index] = (vaddrs, stores)

    def chunk_remaining(self, index: int) -> int:
        p = self.procs[index]
        return p.len - p.pos

    def push_back_chunk(self, index: int) -> None:
        """Return this process's unconsumed chunk tail to its source."""
        chunk = self._chunks[index]
        if chunk is None:
            return
        p = self.procs[index]
        if p.pos < p.len:
            vaddrs, stores = chunk
            source = getattr(self.processes[index], "_fastsim_source", None)
            if source is not None:
                source.push_back(vaddrs[p.pos:], stores[p.pos:])
        p.pos = 0
        p.len = 0
        p.vaddrs = P_i64()
        p.stores = P_u8()
        self._chunks[index] = None

    # -- growth -------------------------------------------------------------

    def grow(self, index: int, reason: int) -> None:
        p = self.procs[index]
        arrs = self._proc_arrs[index]
        if reason == STOP_GROW_TLB:
            self._rehash(p.tlb, arrs, "tlb")
        elif reason == STOP_GROW_PT:
            self._rehash(p.page_table, arrs, "pt")
        elif reason == STOP_GROW_PFSET:
            self._rehash(p.pf_set, arrs, "pf_set")
        elif reason == STOP_GROW_NEWPAGES:
            old = arrs["newpages"]
            bigger = np.empty(old.size * 2, dtype=np.int64)
            bigger[: p.newpages_len] = old[: p.newpages_len]
            p.newpages = bigger.ctypes.data_as(P_i64)
            p.newpages_cap = bigger.size
            arrs["newpages"] = bigger
        else:
            raise AssertionError(f"unexpected grow reason {reason}")

    def _rehash(self, struct: _NMap, arrs: Dict[str, object],
                name: str) -> None:
        slot = arrs[name]
        keys, vals = _map_live(
            slot["keys"], slot["vals"] if struct.vals else None
        )
        # Rebuilding drops tombstones; double when the live count alone
        # still crowds the table.
        extra = max(256, len(keys))
        arrs[name] = _bind_map(self.lib, struct, keys, vals, extra)

    # -- snapshots (observed-run rollback) ----------------------------------

    _SNAP_SH = ("l2", "l3")
    _SNAP_PROC = ("tlb", "pt", "stale", "pf_set", "l1")

    def snapshot(self, index: int):
        """Copy every mutable buffer so :meth:`restore` can rewind the
        engine to this exact point (used to align an observed run with
        the collector's stop point)."""
        saved_arrays: List[Tuple[np.ndarray, np.ndarray]] = []

        def save(arr: Optional[np.ndarray]) -> None:
            if arr is not None:
                saved_arrays.append((arr, arr.copy()))

        for name in self._SNAP_SH:
            group = self._sh_arrs.get(name)
            if group:
                save(group["ways"])
                save(group["occ"])
        save(self._sh_arrs["nfoc"])
        arrs = self._proc_arrs[index]
        for name in self._SNAP_PROC:
            group = arrs[name]
            if "keys" in group:
                save(group["keys"])
                save(group["vals"])
            else:
                save(group["ways"])
                save(group["occ"])
        for arr in arrs["pf"]:
            save(arr)
        save(arrs["mt"])
        save(arrs["newpages"])
        sh_bytes = bytes(memoryview(self.sh))
        proc_bytes = bytes(memoryview(self.procs[index]))
        return saved_arrays, sh_bytes, proc_bytes

    def restore(self, index: int, snap) -> None:
        saved_arrays, sh_bytes, proc_bytes = snap
        for arr, copy in saved_arrays:
            arr[:] = copy
        ctypes.memmove(ctypes.byref(self.sh), sh_bytes, len(sh_bytes))
        ctypes.memmove(
            ctypes.byref(self.procs[index]), proc_bytes, len(proc_bytes)
        )

    # -- running ------------------------------------------------------------

    def run_solo(self, index: int, n: int,
                 events: Optional[EventBuffer] = None) -> int:
        ev = ctypes.byref(events.struct) if events is not None else None
        return int(self.lib.repro_solo(
            ctypes.byref(self.sh), ctypes.byref(self.procs[index]), n, ev
        ))

    def run_corun(self, stop_at: Sequence[int]) -> Tuple[int, int, int]:
        """Interleave until some process, right after one of its
        accesses, has executed ``stop_at[index]`` accesses in total or
        filled its attached collector's log.

        Returns ``(index, stop_reason, stop_proc)``: ``index`` is that
        process with ``STOP_AT`` / ``STOP_DONE``, or -1 when process
        ``stop_proc`` needs a refill or growth first.
        """
        stop_arr = np.array(stop_at, dtype=np.int64)
        index = int(self.lib.repro_corun(
            ctypes.byref(self.sh), self._proc_ptrs, len(self.procs),
            stop_arr.ctypes.data_as(P_i64),
        ))
        return index, int(self.sh.stop_reason), int(self.sh.stop_proc)

    def accesses(self, index: int) -> int:
        return int(self.procs[index].accesses)

"""Host-speed probe: reports measured times at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of
percent within seconds (co-tenants compete for the same cores, caches
and memory).  A fixed pure-Python chunk, timed many times while the
benchmark runs, slows down by about the same factor as the simulator:
over twelve 10 s windows on a 2-vCPU Xeon VM, the run time of one
repeated packet cell spread 0.29 (IQR/median) as measured and 0.035 at
the reference speed.

So while a :class:`SpeedProbe` is running, a ``SIGALRM`` interval timer
interrupts the program every ``interval_s`` and times one chunk in the
main thread, between two bytecodes of whatever the benchmark is doing.
Measurements then

* read :func:`clock` and :func:`cpu`, which leave out the time spent in
  chunks, and
* pass each raw interval through :func:`at_ref_speed` (wall) or
  :func:`cpu_at_ref_speed` (CPU), which scale it by
  ``REF_CHUNK_S / mean chunk time`` over the chunks timed during the
  interval (widened to at least ``MIN_SAMPLES`` chunks).

A reported time is therefore "seconds on a host that runs the chunk in
``REF_CHUNK_S``".  The chunk is the benchmark's own code, so a change
to the program moves the reported times exactly as it moves the raw
ones.  With no probe running (traced runs, where the tracer's spans
would absorb the chunks), the clocks are the plain ones and the factor
is 1.

Warm replays are another kind of work: decoding and hashing small
records, with a file read each.  A chunk timed inside the simulator
does not track their speed (scaling by it doubled their spread), so a
:class:`ReplayGauge` times a replay-shaped chunk, :func:`replay_chunk`,
between every ``REPLAYS_PER_CHUNK`` replays, and a slice of replays is
scaled by ``REF_REPLAY_CHUNK_S`` / the 10th percentile of the gauge's
times in that slice.  Over fourteen slices of identical replays, the
replays' 10th percentile spread 0.10 and its ratio to the gauge's 0.024
(with a gauge chunk of three reads, every 20 replays).
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import json
import os
import signal
import time
from typing import List, Optional

#: the chunk's wall and CPU time on the reference host: a round number
#: near its time, taken between simulator events, in the fast phases of
#: a 2-vCPU Intel Xeon VM
REF_CHUNK_S = 0.0014
#: chunk size, in loop iterations
CHUNK_OPS = 2500
#: fewest chunks one interval is scaled by
MIN_SAMPLES = 16
#: share of the slowest and fastest chunks left out of the mean
TRIM = 0.1
#: the replay chunk's time on the reference host: a round number near
#: its 10th percentile between replays on the same VM
REF_REPLAY_CHUNK_S = 60e-6
#: warm replays per replay chunk
REPLAYS_PER_CHUNK = 10
#: what the replay chunk reads: a record shaped like a stored cell
REPLAY_RECORD = {
    "hash": "0" * 64,
    "spec": {"fn": "perfbench.cells:fabric_cell", "label": "cell0/seed100",
             "cfg": {f"knob{i}": i * 1.5 for i in range(40)}},
    "result": {"stats": {f"counter{i}": i * 1000 for i in range(30)},
               "timing": {"setup_s": 0.01, "run_s": 3.5}},
}


class _Item:
    __slots__ = ("key", "hits")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0


_ITEMS = [_Item(key) for key in range(1024)]
_TABLE = dict.fromkeys(range(1024), 0)
_HEAP = list(range(64))


def chunk(ops: int = CHUNK_OPS) -> int:
    """Fixed interpreter work shaped like the simulator's: a binary
    heap, dict updates and attribute access on small objects.  It
    creates no container objects, so it never triggers (and is never
    charged for) a garbage collection of the program's heap."""
    items, table, heap = _ITEMS, _TABLE, _HEAP
    total = 0
    for i in range(ops):
        key = (i * 7919) & 1023
        item = items[key]
        item.hits = (item.hits + 1) & 0xFFFF
        table[key] = (table[key] + item.hits) & 0xFFFF
        total += heapq.heapreplace(heap, key)
    return total


class SpeedProbe:
    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        #: per chunk: probe-free clock at its start, wall and CPU time
        self.stamps: List[float] = []
        self.wall: List[float] = []
        self.cpu: List[float] = []
        #: total wall and CPU time spent in chunks so far
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        # a first window before any measurement starts
        for _ in range(MIN_SAMPLES):
            self._tick()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, *_signal) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        chunk()
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.stamps.append(t0 - self.spent_wall)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.spent_wall += t1 - t0
        self.spent_cpu += c1 - c0

    def factor(self, start: float, end: float, samples: List[float]) -> float:
        """REF_CHUNK_S / trimmed mean chunk time over [start, end] of
        the probe-free clock, widened to MIN_SAMPLES chunks."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        window = sorted(samples[lo:hi])
        cut = int(len(window) * TRIM)
        kept = window[cut:len(window) - cut] or window
        return REF_CHUNK_S / (sum(kept) / len(kept))

    def speeds(self) -> List[float]:
        """Chunk times in milliseconds, for the run's extras."""
        return [w * 1e3 for w in self.wall]


def replay_chunk(path: str) -> str:
    """Fixed work shaped like a warm replay: read and decode a small
    JSON record from disk, re-encode it canonically and hash it."""
    with open(path) as fh:
        record = json.loads(fh.read())
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class ReplayGauge:
    """Host speed for one slice of warm replays: call :meth:`sample`
    every ``REPLAYS_PER_CHUNK`` replays, then scale the slice's replay
    times by :meth:`scale`."""

    def __init__(self, work_dir: str):
        self.path = os.path.join(work_dir, "replay-record.json")
        if not os.path.exists(self.path):
            with open(self.path, "w") as fh:
                json.dump(REPLAY_RECORD, fh)
        self.times: List[float] = []

    def sample(self) -> None:
        if PROBE is None:
            return
        t0 = clock()
        replay_chunk(self.path)
        self.times.append(clock() - t0)

    def scale(self) -> float:
        if not self.times:
            return 1.0
        return REF_REPLAY_CHUNK_S / sorted(self.times)[len(self.times) // 10]


#: the running probe, if any; set by :func:`running`
PROBE: Optional[SpeedProbe] = None


class running:
    """``with running():`` starts the probe and stops it on any exit."""

    def __enter__(self) -> SpeedProbe:
        global PROBE
        PROBE = SpeedProbe()
        PROBE.start()
        return PROBE

    def __exit__(self, *exc) -> None:
        global PROBE
        PROBE.stop()
        PROBE = None


def clock() -> float:
    """Wall clock, less the time spent in probe chunks."""
    now = time.perf_counter()
    return now - PROBE.spent_wall if PROBE is not None else now


def spent() -> float:
    """Wall time spent in probe chunks so far."""
    return PROBE.spent_wall if PROBE is not None else 0.0


def cpu() -> float:
    """This process's user + system CPU, less the probe chunks'."""
    now = time.process_time()
    return now - PROBE.spent_cpu if PROBE is not None else now


def at_ref_speed(seconds: float, start: float, end: float) -> float:
    """``seconds`` of wall time measured over [start, end] of
    :func:`clock`, at the reference speed."""
    if PROBE is None:
        return seconds
    return seconds * PROBE.factor(start, end, PROBE.wall)


def cpu_at_ref_speed(seconds: float, start: float, end: float) -> float:
    """CPU ``seconds`` used over [start, end] of :func:`clock`, at the
    reference speed."""
    if PROBE is None:
        return seconds
    return seconds * PROBE.factor(start, end, PROBE.cpu)

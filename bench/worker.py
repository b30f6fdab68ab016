"""Run one newsvar command in this fresh interpreter and report its cost.

Usage: ``python3 bench/worker.py REQUEST_JSON`` with the source tree on
``PYTHONPATH``.  The request holds ``argv`` for ``newsvar.cli.main`` and,
for a traced run, ``trace_out``, the file the spans are written to.  The
last stdout line is a JSON object with the exit code, the import and command
wall times, the same times at the reference core speed (see
:class:`SpeedProbe`; untraced commands only) and the process's peak
resident memory less the probe's own.
"""

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

PROBE_PERIOD_S = 0.2
# The probe reads PROBE_READS scattered items of a list of PROBE_ITEMS floats
# (about 13 MB with the float objects), more than the caches hold, so its
# time follows memory as well as core speed.  A probe that stayed in cache
# tracked the host's slow periods less well on every workload.
PROBE_ITEMS = 400_000
PROBE_READS = 10_000
# About the median probe time on the 2-vCPU Xeon VM the benchmark's bounds
# were set on; a time "at reference speed" is scaled to that machine.
REFERENCE_PROBE_S = 0.003


def resident_kib() -> int:
    """This process's current resident memory."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


class SpeedProbe:
    """Times a fixed scattered read over its own list every ``PROBE_PERIOD_S`` seconds.

    The read runs in a SIGALRM handler between the bytecodes of the code
    being measured, so its timings follow the machine's speed while that
    code runs.  The time spent in the handler is kept apart so it can be
    taken out of the measured wall time.  Each ``with`` block starts a
    fresh set of timings.

    The host this benchmark was built on changes speed by up to 2x for
    seconds to minutes at a time, which moves raw run medians by 30-40%
    between runs of the same code; scaling by the probe takes most of that
    out.
    """

    def __init__(self) -> None:
        self._items = [float(i) for i in range(PROBE_ITEMS)]
        self._order = [i * 2_654_435_761 % PROBE_ITEMS for i in range(PROBE_READS)]
        self.loop_s: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        items = self._items
        t0 = time.perf_counter()
        acc = 0.0
        for i in self._order:
            acc += items[i]
        t1 = time.perf_counter()
        self.loop_s.append(t1 - t0)
        self.spent_s += t1 - t0

    def __enter__(self) -> "SpeedProbe":
        self.loop_s = []
        self._tick(signal.SIGALRM, None)  # at least one timing per block
        self.spent_s = 0.0  # that tick ran before the caller starts its clock
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference_speed(self, seconds: float) -> float:
        """``seconds`` of the last block as they would read on the reference machine."""
        return seconds * REFERENCE_PROBE_S / statistics.mean(self.loop_s)


def main() -> int:
    request = json.loads(sys.argv[1])
    traced = bool(request.get("trace_out"))
    # One CPU makes the process single-threaded: OpenBLAS sizes its thread
    # pool from the affinity mask at import.  The BLAS thread variables are
    # left as found.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    before_kib = resident_kib()
    probe = SpeedProbe()
    probe_kib = resident_kib() - before_kib  # taken out of the peak below
    with probe:
        t0 = time.perf_counter()
        import newsvar.cli

        setup_s = time.perf_counter() - t0 - probe.spent_s
    setup_ref_s = probe.at_reference_speed(setup_s)
    recorder = None
    if traced:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    # Traced commands run without the probe, so it stays out of their spans.
    wall_ref_s = None
    with probe if not traced else contextlib.nullcontext():
        t1 = time.perf_counter()
        rc = newsvar.cli.main(request["argv"])
        wall_s = time.perf_counter() - t1
    if not traced:
        wall_s -= probe.spent_s
        wall_ref_s = probe.at_reference_speed(wall_s)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - probe_kib
    if recorder is not None:
        with open(request["trace_out"], "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)
    print(json.dumps({
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "setup_ref_s": setup_ref_s,
        "wall_ref_s": wall_ref_s,
        "peak_rss_mb": peak_kib / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

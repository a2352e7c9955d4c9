"""One benchmark run in a fresh interpreter; prints one JSON line.

Usage (``run.py`` starts it with ``PYTHONPATH`` pointing at ``src``)::

    python perfbench/child.py --workload W --seed N --spawned-at T
        --scratch DIR [--trace SPANS_FILE] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, importing ``repro``, building the machine and the
``boot`` milestone.  The run then advances in 10 ms steps of simulated
time with :meth:`RunDriver.run_to`, timing each step.  With ``--trace``
the layer wrappers of :mod:`tracer` are installed first and the span log
is written to ``SPANS_FILE`` at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time

#: Simulated time per timed slice.
SLICE_S = 0.01

#: Iterations of the host-speed calibration loop.
SPIN_ITERATIONS = 300_000


def spin_seconds() -> float:
    """Wall time of a fixed pure-Python loop: a host-speed diagnostic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def measure(args, obs_dir: str) -> dict:
    """Build, boot and run the workload once; return the run's figures."""
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    from repro.sim.clock import seconds_to_ticks, ticks_to_seconds
    from repro.snapshot.driver import RunDriver
    from workloads import behaviour_record, make_run

    run = make_run(args.workload, args.seed)
    driver = RunDriver(run)
    if tracer is not None:
        tracer.install_run(run.bed)
    session = None
    if args.workload == "defense_mixed":
        from repro.obs import ObsSession
        session = ObsSession(obs_dir).attach(driver)
    driver.run_to(0)                       # the boot milestone
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s}

    step = seconds_to_ticks(SLICE_S)
    end = driver.end_tick
    slices = []
    clock = time.perf_counter
    cpu_start = time.process_time()
    t_start = clock()
    tick = 0
    while tick < end:
        tick = min(tick + step, end)
        t0 = clock()
        driver.run_to(tick)
        slices.append(clock() - t0)
    if session is not None:
        session.finish()
    timed_s = clock() - t_start
    cpu_timed_s = time.process_time() - cpu_start
    if tracer is not None:
        tracer.remove()

    out = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "cpu_timed_s": cpu_timed_s,
        "sim_s": ticks_to_seconds(end),
        "slices_ms": [s * 1e3 for s in slices],
        "requests": run.bed.stats.total("client"),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": behaviour_record(run),
        "digest": run.digest(),
        "seq": driver.sim.seq,
        "events": driver.sim.events_processed,
    }
    if tracer is not None:
        tracer.dump(args.trace)
        from layers import layer_metrics
        out["layers"] = layer_metrics(tracer, run)
    out["spin_s"] = spin_seconds()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--scratch", required=True,
                    help="directory for the obs flight recorder")
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after the boot milestone; report setup_s")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="obs-",
                                     dir=args.scratch) as obs_dir:
        out = measure(args, obs_dir)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pin behaviour records into ``perfbench/reference.json``.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --seeds 0-31 [-j 2]

Runs each workload once per seed (untraced, in a fresh interpreter, as
the benchmark does) and stores its behaviour record, state digest,
``sim.seq`` and event count.  An entry already pinned is compared, never
changed: a differing record is reported and the file is left alone.
Re-pinning a seed means deleting its entries first; that is a behaviour
change and belongs in its own reviewed commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import REFERENCE, SCRATCH, SRC, spawn_run


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,2")
    ap.add_argument("-j", "--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    SCRATCH.mkdir(exist_ok=True)
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    cells = [(w, s) for w in WORKLOADS for s in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(args.jobs) as pool:
        results = list(pool.map(lambda c: spawn_run(*c), cells))

    status = 0
    for (workload, seed), run in zip(cells, results):
        if "error" in run:
            print(f"{workload} seed {seed}: {run['error']}")
            status = 1
            continue
        entry = {k: run[k] for k in ("record", "digest", "seq", "events")}
        pinned = ref["workloads"].setdefault(workload, {})
        old = pinned.get(str(seed))
        if old is not None and old["record"] != entry["record"]:
            print(f"{workload} seed {seed}: behaviour differs from the "
                  f"pinned record")
            status = 1
            continue
        pinned[str(seed)] = entry
        print(f"{workload} seed {seed}: pinned ({run['events']} events)")
    if status == 0:
        ref["workloads"] = {
            w: dict(sorted(pinned.items(), key=lambda kv: int(kv[0])))
            for w, pinned in ref["workloads"].items()}
        with open(REFERENCE, "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

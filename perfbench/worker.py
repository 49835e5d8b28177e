"""Set-up and one timed pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED

Sets up WORKLOAD from SEED, runs one pass (traced when TRACE is 1) and
prints one JSON record as the last line of standard output. One pass per
process, because the package pins every group it has seen (see NOTES.md).
SPAWNED is the parent's ``time.monotonic()`` when it started this process;
the monotonic clock is shared by all processes on Linux, so ``setup_s``
includes interpreter start and imports. ``run.py`` starts this script.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from recorder import ROOT_SPAN, Recorder, SpeedProbe  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, traced, spawned = argv[1], int(argv[2]), argv[3] == "1", float(argv[4])
    probe = SpeedProbe()
    probe.start()
    state = workloads.SETUP[workload](seed)
    rec = Recorder(traced)
    cpu0 = time.process_time()
    t0 = time.monotonic()
    rec.call(ROOT_SPAN, workloads.PASS[workload], state, rec)
    t1 = time.monotonic()
    cpu_s = time.process_time() - cpu0
    probe.stop()
    setup_s, norm_setup_s = probe.scaled(spawned, t0)
    wall_s, norm_wall_s = probe.scaled(t0, t1)
    print(json.dumps({
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "norm_setup_s": norm_setup_s,
        "pass_s": t1 - t0,
        "wall_s": wall_s,
        "norm_wall_s": norm_wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": rec.attempted,
        "failures": rec.failures,
        "counts": dict(rec.counts),
        "spans": rec.spans,
        "probe_samples": len(probe.samples),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

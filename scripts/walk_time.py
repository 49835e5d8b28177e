#!/usr/bin/env python3
"""Time the subgroup-lattice walk, subgroups._lattice_classes, each run in a
fresh interpreter, and hash what it returns, so that the walks of two
checkouts compare with one cmp.

Each KEY is a library group, optionally with a lattice cap as KEY:CAP (by
default subgroups.LATTICE_MAX_ORDER); the keys are M11 at a 10,000 cap,
AGL32 and S6 when none is given. Each run builds the group,
its element enumeration and its class table, then times one walk in CPU
seconds (time.process_time). Standard output gets one line per KEY: the
key, its cap and the sha256 of the walk, keyed as the walk pins of
tests/test_subgroups.py key it. Standard error gets the CPU seconds of each
run. A KEY whose runs hash differently is an error.

Run: python3 scripts/walk_time.py [KEY[:CAP] ...] [--runs N] > hashes.txt
"""

import argparse
import hashlib
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from covnum import library, subgroups

DEFAULT_KEYS = ["M11:10000", "AGL32", "S6"]


def walk_once(key: str, cap: int) -> tuple[float, str]:
    """CPU seconds of one walk of the library group ``key`` at lattice cap
    ``cap``, and the sha256 of its output."""
    group = library.group(key)
    group.conjugacy_classes()  # the enumeration and the class table
    start = time.process_time()
    walk = subgroups._lattice_classes(group, cap)
    cpu_s = time.process_time() - start
    keyed = [([sorted(ids) for ids in orbit], maximal) for orbit, maximal in walk]
    return cpu_s, hashlib.sha256(repr(keyed).encode()).hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("keys", nargs="*", default=DEFAULT_KEYS, metavar="KEY[:CAP]")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    specs = []
    for spec in args.keys:
        key, _, cap = spec.partition(":")
        specs.append((key, int(cap) if cap else subgroups.LATTICE_MAX_ORDER))
    if args.one:  # the worker: one walk in this process
        ((key, cap),) = specs
        cpu_s, digest = walk_once(key, cap)
        print(f"{cpu_s:.6f} {digest}")
        return 0
    for key, cap in specs:
        times, digests = [], set()
        for _ in range(args.runs):
            out = subprocess.run([sys.executable, __file__, "--one", f"{key}:{cap}"],
                                 capture_output=True, text=True, check=True).stdout
            cpu_s, digest = out.split()
            times.append(float(cpu_s))
            digests.add(digest)
        if len(digests) != 1:
            print(f"{key}: the runs hash differently: {sorted(digests)}", file=sys.stderr)
            return 1
        print(f"{key} cap={cap} sha256={digests.pop()}")
        print(f"{key} cap={cap} cpu_s=" + " ".join(f"{t:.3f}" for t in times),
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the covnum sigma pipeline.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 60 --trace 0

Run from the repository root. Workloads: exact and structure (see
workloads.py and BENCHMARK.json). Each pass runs in a fresh interpreter
(worker.py), one after another, for about --seconds and at least twice;
every metric is the median over passes. Times are scaled to a fixed machine
speed measured by a probe during the pass (recorder.SpeedProbe, NOTES.md);
the raw wall and CPU times are printed on the line before the result. With
--trace 0 the result holds the end-to-end metrics; with --trace 1, traced
and untraced passes alternate and the result holds the per-layer metrics,
the tracing overhead among them. Every pass checks its outputs. The last
line of standard output is the JSON result; the pass records, spans
included, are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from recorder import self_times

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact", "structure")
MIN_PASSES = 2
# a pass may take 1.5 times --seconds, and a minute however short the run
PASS_TIMEOUT = 1.5
MIN_PASS_TIMEOUT_S = 60.0

# end-to-end metric: field of the worker's record (see worker.py)
END_TO_END = {"norm_wall_s": ("norm_wall_s", "s"),
              "setup_s": ("norm_setup_s", "s"),
              "peak_rss_mb": ("peak_rss_mb", "MB")}
LAYERS = ("groups", "subgroups", "incidence", "greedy", "cover", "registry")
# finer per-layer times: self time of the spans whose names start so
SUB_LAYERS = ("groups.enum", "groups.classes", "subgroups.maximals",
              "cover.build", "cover.solve")
COUNTS = ("cover.nodes", "cover.universe", "cover.columns")


def layer_metrics(record: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, its self times scaled to the
    probe speed as the pass's wall time is. Every workload calls every layer,
    so none of these is 0 on a pass that did its work."""
    own = self_times(record["spans"])
    # the spans cover the whole pass: its self times add up to its wall time
    assert abs(sum(own.values()) - record["pass_s"]) < 0.01 * record["pass_s"]
    scale = record["norm_wall_s"] / record["wall_s"]

    def layer_s(prefix: str) -> float:
        return scale * sum(t for name, t in own.items()
                           if name == prefix or name.startswith(prefix + "."))

    out = {f"{layer}_s": (layer_s(layer), "s") for layer in LAYERS}
    out.update({f"{sub}_s": (layer_s(sub), "s") for sub in SUB_LAYERS})
    out.update({name: (record["counts"][name], "count") for name in COUNTS})
    out["cover.nodes_per_s"] = (record["counts"]["cover.nodes"] / layer_s("cover.solve"),
                                "1/s")
    return out


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One pass in its own worker process; a crash or timeout comes back as
    ``crashed``."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", repr(time.monotonic())]
    # fixed string hashing, so that every pass of one seed does the same work
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT_DIR, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT_DIR / "src" / "covnum" / "__init__.py").is_file():
        print(f"no covnum sources under {ROOT_DIR / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    records: list[dict] = []
    last = 0.0
    # start another pass only while it is expected to end within --seconds
    while len(records) < MIN_PASSES or time.monotonic() - start + last <= args.seconds:
        t0 = time.monotonic()
        record = run_pass(args.workload, args.seed,
                          traced=bool(args.trace) and len(records) % 2 == 1,
                          timeout=max(PASS_TIMEOUT * args.seconds, MIN_PASS_TIMEOUT_S))
        if "crashed" in record:
            print(f"{args.workload} seed={args.seed}: {record['crashed']}", file=sys.stderr)
            return 1
        records.append(record)
        last = time.monotonic() - t0
    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    for failure in failures:
        print(failure, file=sys.stderr)

    plain = [r for r in records if not r["traced"]]
    if args.trace:
        traced = [r for r in records if r["traced"]]
        per_pass = [layer_metrics(r) for r in traced]
        metrics = {name: {"value": median(p[name][0] for p in per_pass), "unit": unit}
                   for name, (_, unit) in per_pass[0].items()}
        # tracing overhead: traced over untraced pass time, both at reference speed
        metrics["trace.overhead_ratio"] = {
            "value": median(r["norm_wall_s"] for r in traced)
            / median(r["norm_wall_s"] for r in plain), "unit": "ratio"}
    else:
        metrics = {name: {"value": median(r[field] for r in records if
                                          name == "setup_s" or not r["traced"]),
                          "unit": unit}
                   for name, (field, unit) in END_TO_END.items()}

    raw = " ".join(f"{field}={median(r[field] for r in plain):.4g}"
                   for field in ("wall_s", "cpu_s", "setup_s"))
    summary = " ".join(f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(records)} attempted={attempted} "
          f"failed={len(failures)} fail_ratio={len(failures) / attempted:.4g}")
    print(summary)
    print(f"untraced, not scaled: {raw}")
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "trace": args.trace, "metrics": metrics,
                                    "passes": records}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

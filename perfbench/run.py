"""cdckit benchmark: four workloads through cdckit's public API.

    python3 perfbench/run.py --workload {lift-q2,lift-q4,assembly,tables}
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source tree that has src/cdckit.  Every pass and
every set-up probe runs in a fresh single-threaded interpreter
(perfbench/worker.py), one at a time.  The command first times set-up in
SETUP_PROBES fresh processes (after one discarded warm-up), then runs
passes for S seconds.  With --trace 1 the first half of
the time runs untraced passes and the second half traced ones; the
per-layer metrics are medians over the traced passes and trace.overhead_s
is the traced minus the untraced wall_s.

Every stage time is scaled to a reference host speed by the host-speed
probes that bracket it (perfbench/hostspeed.py): on the shared two-core
host this was written on, other tenants slow a process down by up to 2x
for minutes at a time, longer than a run.  Each metric is reported as the
median over the run's samples; quartiles, a tail percentile and the
unscaled times are printed alongside and kept in the run record
(perfbench/README.md has the measured spreads).

Every pass checks its outputs against pinned values.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics (the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1).  The
exit code is 0 only if every check passed.  Run records, the span file and
the per-layer tables go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from hostspeed import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("lift-q2", "lift-q4", "assembly", "tables")
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
# One thread per process: the machine the benchmark was written for has two
# cores, and numpy must not spread the q = 2 certifier over them.
ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
       "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Metrics only some workloads have; printed and recorded, not in the
# final JSON line, whose metrics every workload must report.
PARTIAL = {"codewords_per_s": "1/s", "draws_per_s": "1/s",
           "rows_per_s": "1/s"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(workload, seed, *flags):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--workdir", OUT,
           *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, **ENV},
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with {proc.returncode}: {' '.join(flags)}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, first_id, trace=False,
               spans=None):
    """At least one pass, then more while the next one, taking as long as
    the median pass so far, would end within ``seconds``."""
    passes, took = [], []
    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0
                         + statistics.median(took) <= seconds):
        flags = ["--pass-id", str(first_id + len(passes))]
        if trace:
            flags.append("--trace")
            if spans and not passes:
                flags += ["--spans", spans]
        t = time.perf_counter()
        passes.append(worker(workload, seed, *flags))
        took.append(time.perf_counter() - t)
    return passes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100,
                                           method="inclusive")[p - 1]
    return None


def numpy_version():
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def commit():
    """The checkout's git commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cdckit", "__init__.py")):
        fail(f"no cdckit sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    worker(args.workload, args.seed, "--setup-only")  # warm-up, discarded
    probes = [worker(args.workload, args.seed, "--setup-only")
              for _ in range(SETUP_PROBES)]
    traced = []
    if args.trace:
        passes = run_passes(args.workload, args.seed, args.seconds / 2, 0)
        traced = run_passes(args.workload, args.seed, args.seconds / 2,
                            len(passes), trace=True,
                            spans=os.path.join(OUT, f"{tag}-spans.jsonl"))
    else:
        passes = run_passes(args.workload, args.seed, args.seconds, 0)

    checks = [c for p in passes + traced for c in p["checks"]]
    failed = [c for c in checks if not c[1]]
    for name, _, got, want in failed:
        print(f"perfbench: check {name} failed: got {got}, want {want}",
              file=sys.stderr)
    samples = {"setup_s": [p["setup_s"] for p in probes + passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    for p in passes:
        for name, value in p["metrics"].items():
            samples.setdefault(name, []).append(value)
    median = {name: statistics.median(v) for name, v in samples.items()}
    unscaled = {"setup_s": statistics.median(
                    p["setup_raw_s"] for p in probes + passes),
                "wall_s": statistics.median(
                    sum(t for k, t in p["raw_stages"].items() if k != "setup")
                    for p in passes),
                "probe_s": statistics.median(
                    t for p in probes + passes for t in p["probes"])}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": numpy_version(), "cdckit": passes[0]["cdckit"],
              "commit": commit(),
              "passes": len(passes), "traced_passes": len(traced),
              "setup_samples": len(samples["setup_s"]),
              "unscaled": unscaled,
              "attempted": len(checks), "failed": len(failed)}
    print("# run record " + json.dumps(record))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(PARTIAL)
    for name, unit in units.items():
        if name not in samples:
            continue
        q1, _, q3 = quartiles(samples[name])
        t = tail(samples[name])
        extra = f"  p{t[0]} {t[1]:.6g}" if t else ""
        print(f"{name:<16} {median[name]:>14.6g} {unit:<6} of "
              f"{len(samples[name])}: quartiles {q1:.6g} .. {q3:.6g}{extra}")
    print(f"# unscaled medians: setup_s {unscaled['setup_s']:.6g} s, "
          f"wall_s {unscaled['wall_s']:.6g} s; host-speed probe "
          f"{unscaled['probe_s']:.6g} s against {REF_S} s")
    ratio = len(failed) / len(checks) if checks else 1.0
    print(f"{'fail_ratio':<16} {ratio:>14.6g} {'':<6} "
          f"{len(failed)} of {len(checks)} output checks failed")

    if args.trace:
        layers = {}
        for p in traced:
            for name, value in p["layers"].items():
                layers.setdefault(name, []).append(value)
        layers = {name: statistics.median(v) for name, v in layers.items()}
        layers["trace.overhead_s"] = statistics.median(
            p["metrics"]["wall_s"] for p in traced) - median["wall_s"]
        with open(os.path.join(OUT, f"{tag}-layers.json"), "w") as fh:
            json.dump({"record": record, "metrics": layers,
                       "passes": [p["tables"] for p in traced]}, fh,
                      indent=1)
        first = traced[0]["tables"]
        print(f"# traced pass {len(passes)}: self time and calls by span "
              f"(spans in {tag}-spans.jsonl)")
        for layer, s in sorted(first["self_s"].items(), key=lambda t: -t[1]):
            print(f"  {layer + '.self_s':<34} {s:>12.6f} s")
        for name, n in sorted(first["calls"].items()):
            print(f"  {name:<34} {n:>12d} calls "
                  f"{first['total_s'][name]:>12.6f} s")
        for name, n in sorted(first["counts"].items()):
            print(f"  {name:<34} {n:>12d}")
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = median
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({"record": record, "metrics": metrics, "samples": samples,
                   "failed_checks": failed,
                   "passes": [{k: p[k] for k in ("stages", "raw_stages",
                                                  "probes")}
                              for p in passes]}, fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

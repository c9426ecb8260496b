#!/usr/bin/env python3
"""iasl-lab benchmark: four workloads, end-to-end and per-layer metrics.

Every pass runs in a fresh interpreter (worker.py), one after another, so the
library's caches start cold in each pass as they do for a CLI or script
user. Passes repeat while another fits in ``--seconds``; timings are medians
over passes, and set-up is sampled at least seven times. Set-up and pass
times are scaled to the reference speed of speed.py. Every pass's outputs
are checked against data/reference.json, and the first pass also re-verifies
every labeling found. ``--trace 1`` alternates traced and untraced passes and
reports the per-layer metrics, each layer's self time and the tracing
overhead instead of the end-to-end metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Run records (and span files of traced passes) go to perfbench/out/.
Exit code 1 means a pass could not run: no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

LIMIT_S = 165.0   # a run must end within 180 s
MIN_SETUPS = 7


class PassFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, run_id: str, flags: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--run-id", run_id, *flags]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed(f"{run_id}: no time left for another pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{run_id}: pass did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"{run_id}: worker exited with {proc.returncode}\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    """Which code was measured, on what. The commit is unknown outside git."""
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit or "unknown", "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes of one workload; return the run record."""
    start = time.monotonic()
    deadline = start + LIMIT_S
    plain, traced = [], []
    while True:
        i = len(plain) + len(traced)
        run_id = f"{workload}-seed{seed}-pass{i}"
        # traced passes all re-verify after their clock stops, so every one
        # of them has the labelings layer's spans; the first one's spans are
        # written out
        use_trace = trace and i % 2 == 0
        flags = ["--verify"] if i == 0 or use_trace else []
        if use_trace:
            flags.append("--traced")
        if i == 0 and use_trace:
            flags += ["--trace-out", str(OUT / f"spans-{run_id}.jsonl")]
        res = run_worker(workload, seed, run_id, flags, deadline)
        (traced if use_trace else plain).append(res)
        elapsed = time.monotonic() - start
        # re-verification is not a pass's own cost: later passes skip it
        verified_s = sum(p.get("verify_s", 0.0) for p in plain + traced)
        per_pass = (elapsed - verified_s) / (i + 1)
        # stop when another pass would run past --seconds
        if elapsed + per_pass > seconds and plain and (traced or not trace):
            break
        if elapsed + 2 * per_pass > LIMIT_S:
            if not plain or (trace and not traced):
                raise PassFailed(f"{workload}: one pass takes {per_pass:.0f} s, "
                                 f"too long for a {LIMIT_S:.0f} s run")
            break
    setups = [{"setup_s": p["setup_s"], "probe_s": p["probe_s"]} for p in plain]
    if not trace:
        while len(setups) < MIN_SETUPS:
            setups.append(run_worker(workload, seed,
                                     f"{workload}-seed{seed}-setup{len(setups)}",
                                     ["--setup-only"], deadline))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "plain": plain, "traced": traced, "setups": setups}


def end_to_end(record: dict) -> tuple[dict, list]:
    plain, setups = record["plain"], record["setups"]
    values = {
        "setup_s": statistics.median(speed.scaled(s["setup_s"], *s["probe_s"])
                                     for s in setups),
        "wall_s": statistics.median(p["wall_s"] * p["speed_factor"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    notes = [f"{len(plain)} passes, {len(setups)} set-ups",
             f"setup_s and wall_s are at the reference speed; as measured, "
             f"{statistics.median(s['setup_s'] for s in setups):.6g} s and "
             f"{statistics.median(p['wall_s'] for p in plain):.6g} s (median speed "
             f"{statistics.median(p['speed_factor'] for p in plain):.4g} of the "
             f"reference over {sum(p['speed_samples'] for p in plain)} samples)"]
    passes = [p["instances_ms"] for p in plain]
    n = sum(len(p) for p in passes)
    if not n:
        notes.append("instance_p50_ms and instance_p99_ms unavailable: "
                     "no pass returned a latency")
        return values, notes
    p50 = metrics.percentile([t for p in passes for t in p], 0.50)
    p99, resolved = metrics.tail_latency(passes, 0.99)
    tail = (f"{metrics.beyond(0.99, n)} samples beyond it" if resolved else
            "fewer than 10 samples beyond a p99, so the median over passes of "
            "each pass's slowest instance")
    notes.append(f"instance_p50_ms {p50:.6g} ms, instance_p99_ms {p99:.6g} ms "
                 f"(as measured; {n} instances; p99: {tail}); reported, not bounded")
    return values, notes


def per_layer(record: dict) -> tuple[dict, list]:
    layers = [p["layers"] for p in record["traced"]]
    values = {name: statistics.median(layer[name] for layer in layers)
              for name in metrics.PER_LAYER if name != "trace.overhead_frac"}
    traced_wall = statistics.median(p["wall_s"] for p in record["traced"])
    plain_wall = statistics.median(p["wall_s"] for p in record["plain"])
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    counts = ", ".join(f"{name} {layers[0][name]:.0f}" for name in metrics.COUNTS)
    notes = [f"{len(layers)} traced and {len(record['plain'])} untraced passes; "
             f"traced wall {traced_wall:.3f} s, untraced {plain_wall:.3f} s",
             f"{counts} (fixed by the mathematics; held by the gate)"]
    return values, notes


def report(record: dict) -> dict:
    """Print one workload's metrics by name with unit; return the summary."""
    passes = record["plain"] + record["traced"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    units = metrics.PER_LAYER if record["trace"] else metrics.END_TO_END
    values, notes = (per_layer if record["trace"] else end_to_end)(record)
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'})")
    for note in notes:
        print(f"   {note}")
    verified = sum(p.get("verified", 0) for p in passes)
    print(f"   failed_frac {failed / attempted:.6f} ({failed} of {attempted} "
          f"operations; {verified} labelings re-verified)")
    nodes = passes[0]["nodes"]
    if nodes:
        print("   nodes per graph: " + ", ".join(f"{k} {v}" for k, v in sorted(nodes.items())))
    for name, value in values.items():
        print(f"   {name:<34} {value:>14.6g} {units[name]}")
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def _stop(signum, frame):
    # raised in the main thread, this makes subprocess.run kill and reap the
    # worker it is waiting for
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not (ROOT / "src" / "iasl_lab").is_dir():
        print(f"perfbench: no library at {ROOT / 'src' / 'iasl_lab'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    info = provenance()
    print(f"iasl-lab perfbench: commit {info['commit']}, src sha256 "
          f"{info['src_sha256'][:16]}, Python {info['python']}, nproc {info['nproc']}")
    summaries = {}
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
        except PassFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        summaries[name] = report(record)
        record.update(info)
        out = OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({**record, "summary": summaries[name]}) + "\n",
                       encoding="utf-8")
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if len(names) == 1:
        result_metrics = summaries[names[0]]["metrics"]
    else:
        result_metrics = {f"{w}.{m}": v for w, s in summaries.items()
                          for m, v in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload, in the fresh interpreter run.py starts for it.

Set-up (importing the library and loading or generating the inputs) is timed
separately from the pass. The speed probe (speed.py) is timed just before and
after set-up, and sampled through the pass (except a traced one), so run.py
can scale both times to the reference speed. ``wall_s`` leaves out the time
the samples took. The pass's outputs are gated against the recorded
reference after the clock stops; with ``--verify`` every labeling found is
then checked again with ``verify_*``. With ``--traced`` the library's public
functions are wrapped in spans first (see tracer.py) and the per-layer
metrics of the pass are reported. The result is one JSON line on stdout.

Exit codes: 0 result printed, 3 the library could not be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import metrics
import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--trace-out", type=Path, help="span file of a traced pass")
    args = parser.parse_args()
    setup, run, table, verify = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(args.run_id)

    probe_before = speed.probe()
    start = time.perf_counter()
    try:
        if args.traced:
            tracing.instrument(tracer)
        with tracer.span("bench.setup"):
            state = setup(args.seed)
    except Exception:
        traceback.print_exc()
        return 3
    result = {"setup_s": time.perf_counter() - start}
    result["probe_s"] = [probe_before, speed.probe()]
    if args.setup_only:
        print(json.dumps(result))
        return 0

    reference = json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))[args.workload]
    # a traced pass is not scaled, and its spans should not hold samples
    sampler = speed.Sampler() if not args.traced else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with sampler, tracer.span("bench.pass"):
            lats = run(state)
        raised = False
    except Exception:
        # a pass that raises fails every operation it was to run
        traceback.print_exc()
        lats, raised = [], True
    result["wall_s"] = time.perf_counter() - start
    if not args.traced:
        result["wall_s"] -= sampler.spent_s
        result["speed_factor"] = sampler.factor()
        result["speed_samples"] = len(sampler.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["instances_ms"] = [1000 * t for t in lats]
    outputs = {} if raised else table(state)
    result["attempted"] = len(set(outputs) | set(reference))
    result["failed"] = workloads.gate(outputs, reference)
    result["nodes"] = state.get("nodes", {})
    if args.traced:
        result["layers"] = metrics.layer_metrics(tracer)
    if args.verify and not raised:
        start = time.perf_counter()
        attempted, failed = verify(state, tracer)
        result["verify_s"] = time.perf_counter() - start
        result["verified"] = attempted
        result["attempted"] += attempted
        result["failed"] += failed
    if args.traced:
        # re-verification may search again; only its own spans are kept
        after = metrics.layer_metrics(tracer)
        result["layers"].update({k: v for k, v in after.items()
                                 if k.startswith("labelings.")})
        if args.trace_out is not None:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

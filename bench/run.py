"""Benchmark of cluster-loc.

Run from the root of a checkout:

    python3 bench/run.py --workload map-battery --seed 7 --seconds 30 --trace 0

Workloads: map-battery, worked-example, cold-queries (see bench/README.md).
The benchmark is one process and one thread in a closed loop: each operation
starts when the previous one has finished.  A run does a fixed number of
rounds, each with a fresh import and set-up: as many as fit in
``--seconds`` at the workload's nominal round time, and at least one.
Times are seconds of work at a reference host speed (see hostspeed.py).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs each round twice, untraced and traced on the same inputs, and prints
the per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

from hostspeed import HostSpeed
from tracing import SPAN_NAMES, Tracer, metric_units
from workloads import WORKLOADS, fresh_import

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SPANS_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 7
SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def digest(material) -> str:
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail(values: list[float], pct: float):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def run(workload, seconds: float, trace: bool, stored: list[str] | None):
    """Run the rounds that fit in ``seconds`` at the workload's nominal
    round time, at least one; returns the JSON result, the conditions, the
    lines that say how each figure was taken, and the failure messages."""
    tracer = Tracer() if trace else None
    count = max(1, int(seconds // (workload.round_s * (2 if trace else 1))))
    rounds, traced_rounds = [], []
    with HostSpeed() as host:
        for r in range(count):
            rounds.append(workload.round(r))
            if tracer is not None:
                traced_rounds.append(workload.round(r, tracer))
                tracer.suite_s.update(traced_rounds[-1].suite_s)
        setups = [s for rd in rounds for s in rd.setups]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(workload.setup_sample())

    def work(spans):
        return sum(host.work(*span) for span in spans)

    attempted = failed = 0
    kinds, failures = Counter(), []
    for rd in rounds + traced_rounds:
        attempted += len(rd.ops)
        kinds.update(rd.kinds)
    for rounds_ in (rounds, traced_rounds):
        for i, rd in enumerate(rounds_):
            idx = i if workload.rounds_vary else 0
            if stored is not None and idx < len(stored) \
                    and digest(rd.outputs) != stored[idx]:
                for op in range(len(rd.ops)):
                    rd.failures.setdefault(op, "digest mismatch")
            failed += len(rd.failures)
            failures += list(rd.failures.values())

    lines = [f"host: kernel at {host.slowdown():.3f} times its reference "
             f"time (median of {len(host.durations)} samples); times below "
             "are seconds of work at the reference speed"]
    if trace:
        untraced = sum(work(rd.ops) for rd in rounds)
        traced = sum(work(rd.ops) for rd in traced_rounds)
        metrics = tracer.metrics(len(traced_rounds))
        metrics["trace.overhead_frac"] = traced / untraced - 1
        units = metric_units()
        layer_s = Counter()
        for name in SPAN_NAMES:
            layer_s[name.split(".")[0]] += metrics[f"{name}.self_s"]
        total = sum(layer_s.values())
        lines.append("self time by layer: " + ", ".join(
            f"{layer} {s / total:.1%}" for layer, s in layer_s.most_common()))
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}-{workload.seed}.tsv.gz"
        tracer.write(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        op_s = [host.work(*span) for rd in rounds for span in rd.ops]
        raw = [end - start for rd in rounds for start, end in rd.ops]
        walls = [work(rd.ops) for rd in rounds]
        p_tail, beyond = tail(op_s, workload.tail_pct)
        metrics = {
            "setup_s": statistics.median(work(s) for s in setups),
            "wall_s": statistics.fmean(walls),
            "op_p50_ms": statistics.median(op_s) * 1e3,
            "op_tail_ms": p_tail * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        lines += [
            f"setup_s: median of {len(setups)} set-ups",
            f"wall_s: mean over {len(rounds)} rounds of the timed operations "
            f"({', '.join(f'{w:.3f}' for w in walls)} s; as measured "
            f"{sum(raw) / len(rounds):.3f} s)",
            f"op_p50_ms: median of {len(op_s)} operations "
            f"(as measured {statistics.median(raw) * 1e3:.6g} ms)",
            f"op_tail_ms: p{workload.tail_pct:g} of {len(op_s)} operations, "
            f"{beyond} beyond it (as measured "
            f"{tail(raw, workload.tail_pct)[0] * 1e3:.6g} ms)",
        ]
    lines.append(f"op_fail_frac: {failed / attempted:.6g} "
                 f"({failed} failed of {attempted} attempted)")
    conditions = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": workload.seed,
        "size": "tiny" if workload.tiny else "full",
        "rounds": len(rounds),
        "traced_rounds": len(traced_rounds),
        "ops_per_kind": dict(sorted(kinds.items())),
        "digest_checked": stored is not None,
        "instances": [rd.instances for rd in rounds],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, conditions, lines, failures


def stored_digests(name: str, seed: int, tiny: bool):
    with open(DIGESTS) as fh:
        table = json.load(fh)
    if seed != table["seed"]:
        return None
    return table.get(name, {}).get("tiny" if tiny else "full")


def record(workload, rounds: int):
    """Write the digests of rounds 0..rounds-1 at the default seed."""
    got = []
    for r in range(rounds if workload.rounds_vary else 1):
        rd = workload.round(r)
        if rd.failures:
            raise SystemExit(f"round {r} failed: "
                             f"{next(iter(rd.failures.values()))}")
        got.append(digest(rd.outputs))
    with open(DIGESTS) as fh:
        table = json.load(fh)
    size = "tiny" if workload.tiny else "full"
    table.setdefault(workload.name, {})[size] = got
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few operations per round, for self-tests")
    ap.add_argument("--record-digests", type=int, metavar="ROUNDS",
                    help="store the digests of this many rounds at the "
                         "default seed and exit")
    args = ap.parse_args(argv)

    if not (SRC / "cluster_loc" / "__init__.py").is_file():
        print(f"bench: no cluster_loc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load = os.getloadavg()
    pkg, _ = fresh_import()
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        print(f"bench: imported cluster_loc from {pkg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    workload = WORKLOADS[args.workload](args.seed, tiny)
    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            ap.error("digests are stored for the default seed only")
        record(workload, args.record_digests)
        return 0

    result, conditions, lines, failures = run(
        workload, args.seconds, bool(args.trace),
        stored_digests(args.workload, args.seed, tiny))
    conditions["loadavg_start"] = load
    for msg in failures[:10]:
        print(f"failure: {msg}", file=sys.stderr)
    print("conditions: " + json.dumps(conditions, sort_keys=True))
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

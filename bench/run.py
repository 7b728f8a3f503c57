"""Benchmark of hardybounds.

    python3 bench/run.py --workload verify-all|line-spectrum|bound-quad \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One process and one thread run the workload: set-up (import, input
generation from the seed, warm-up), then whole rounds of the workload's
fixed operation set until ``--seconds`` would be exceeded, then the checks
of the outputs, which are made apart from the library (see checks.py).

``--trace 0`` prints the end-to-end metrics.  Each time is a best of
several tries, as ``timeit`` reports it: other load on the machine only ever
adds time, so the fastest try is the one it disturbed least.  ``setup_s`` is
the fastest of several fresh interpreters that each do the set-up and exit,
started between the rounds.
Every round runs under the tracer, and an operation's time is the sum over
its layer spans of each span's fastest self time over the rounds (see
``best_time``); ``wall_s`` sums these over the operations, and
``op_p50_ms`` is their median.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of the traced rounds (see tracing.py), each the median
over the traced rounds, with the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_RUNS = 15

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_library():
    """Import hardybounds from this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import hardybounds
    except ImportError as exc:
        print(f"cannot import hardybounds from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(hardybounds.__file__).startswith(SRC + os.sep):
        print(f"hardybounds imported from {hardybounds.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def set_up(workload: str, seed: int):
    import workloads

    wl = workloads.WORKLOADS[workload]
    ops = wl.generate(seed)
    workloads.warm_up()
    return wl, ops


def setup_probe(args) -> float:
    """Wall time of one fresh interpreter that only sets up and exits."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_rounds(wl, ops, seconds: float, trace: bool, probe=None):
    """Whole rounds until the next one would end past ``seconds``.  Without
    ``trace`` every round runs under the tracer, for the spans of each
    operation; with it, even rounds run bare and odd rounds traced.

    ``probe``, if given, is called ``SETUP_RUNS`` times, spread between the
    rounds over the run, so that the fastest set-up is taken from the whole
    run and not from one burst of load; its time does not count against
    ``seconds``."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    walls = {False: [], True: []}
    op_best = {}  # op id -> fold_best of its spans over the rounds
    layer_rounds = []
    spans = []
    first = None
    errors = []
    attempted = failed = 0
    probes = []
    probe_s = 0.0
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = not trace or rounds % 2 == 1
        outputs = []
        wall = 0.0
        tracer.reset()
        with tracer.install() if traced else contextlib.nullcontext():
            for op in ops:
                attempted += 1
                first_span = len(tracer.spans)
                t0 = time.perf_counter()
                try:
                    raw = tracer.call(op["id"], wl.run, op) if traced else wl.run(op)
                except Exception:
                    failed += 1
                    outputs.append(None)
                    if rounds == 0:
                        print(f"{op['id']} failed:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                wall += time.perf_counter() - t0
                if not trace:
                    op_best[op["id"]] = fold_best(op_best.get(op["id"]), self_times(tracer.spans, first_span))
                outputs.append(wl.collect(op, raw))
        walls[traced].append(wall)
        if trace and traced:
            layer_rounds.append(layer_metrics(tracer, wall))
            spans = list(tracer.spans)
        if first is None:
            first = outputs
        elif outputs != first:
            errors.append(f"round {rounds} outputs differ from round 0")
        rounds += 1
        elapsed = time.perf_counter() - start - probe_s
        per_round = elapsed / rounds
        done = rounds >= (2 if trace else 1) and elapsed + per_round > seconds
        due = SETUP_RUNS if done else int(SETUP_RUNS * min(1.0, elapsed / seconds))
        while probe is not None and len(probes) < due:
            probes.append(probe())
            probe_s += probes[-1]
        if done:
            break
    return {
        "walls": walls, "op_best": op_best, "setup_times": probes,
        "layer_rounds": layer_rounds, "spans": spans, "first": first,
        "errors": errors, "attempted": attempted, "failed": failed,
    }


def self_times(spans: list, first: int) -> list[tuple[str, float]]:
    """(layer, self seconds) of the spans from index ``first`` on, in call
    order: each span's duration minus the durations of its child spans."""
    child = {}
    for _, parent, _, _, t0, t1 in spans[first:]:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return [(layer, (t1 - t0) - child.get(span_id, 0.0))
            for span_id, _, layer, _, t0, t1 in spans[first:]]


def fold_best(best: dict | None, spans: list[tuple[str, float]]) -> dict:
    """Fold one round of an operation's spans into its running best: the
    fastest self time of each span, while the spans are the same in every
    round, and the fastest total."""
    layers = tuple(layer for layer, _ in spans)
    times = [t for _, t in spans]
    if best is None:
        return {"layers": layers, "mins": times, "total": sum(times), "same": True}
    best["total"] = min(best["total"], sum(times))
    if best["same"] and layers == best["layers"]:
        best["mins"] = [min(a, b) for a, b in zip(best["mins"], times)]
    else:
        best["same"] = False
    return best


def best_time(best: dict) -> float:
    """An operation's time with the machine's interference taken out: the sum
    over its spans of each span's fastest self time over the rounds.  If the
    spans differ between rounds (say, a cache warms), the fastest round."""
    return sum(best["mins"]) if best["same"] else best["total"]


def write_spans(path: str, spans: list) -> None:
    t_base = min(s[4] for s in spans) if spans else 0.0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, layer, label, t0, t1 in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "layer": layer, "name": label,
                                 "start_ms": 1e3 * (t0 - t_base), "end_ms": 1e3 * (t1 - t_base)}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-all", "line-spectrum", "bound-quad"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0

    wl, ops = set_up(args.workload, args.seed)
    probe = None if args.trace else (lambda: setup_probe(args))
    res = run_rounds(wl, ops, args.seconds, bool(args.trace), probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = [(op, out) for op, out in zip(ops, res["first"]) if out is not None]
    errors = res["errors"] + wl.check([op for op, _ in checked], [out for _, out in checked])
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)

    if args.trace:
        layers = res["layer_rounds"]
        values = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
        values["trace.overhead_ms"] = 1e3 * (
            statistics.median(res["walls"][True]) - statistics.median(res["walls"][False]))
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
        write_spans(os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.jsonl"),
                    res["spans"])
    else:
        best = [best_time(b) for b in res["op_best"].values()]
        values = {
            "setup_s": min(res["setup_times"]),
            "wall_s": sum(best),
            "op_p50_ms": 1e3 * statistics.median(best),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    print(json.dumps({
        "correct": not errors,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

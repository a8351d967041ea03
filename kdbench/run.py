"""Run one benchmark workload of factorkd and print its metrics.

    python3 kdbench/run.py --workload chain-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports factorkd from `src/`.  After
a cold set-up (imports, corpus generation, file writing) the workload runs
whole rounds of the same operations until `--seconds` have passed, then
checks the first round's outputs and that every later round reproduced
them.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics (medians over
rounds) with `--trace 0`, the per-layer metrics with `--trace 1`.  A traced
run alternates untraced and traced rounds, so it also reports the tracing
overhead.  Per-run files go to kdbench/out/.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# numpy/BLAS are held to one thread; this has to happen before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "teacher_sents_per_s": "sent-updates/s",
    "student_sents_per_s": "sent-updates/s",
    "decode_sents_per_s": "sents/s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("chain-grid", "span-bioes", "dep-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import factorkd and the benchmark modules from this checkout only."""
    src = ROOT / "src"
    sys.path[0:1] = [str(src), str(ROOT)]
    try:
        import factorkd
    except ImportError as e:
        raise SystemExit(f"error: cannot import factorkd from {src}: {e}") from None
    if Path(factorkd.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: factorkd came from {factorkd.__file__}, not from {src}")


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from kdbench import tracing, workloads

    out_dir = ROOT / "kdbench" / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, str(out_dir / tag))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    setup_s = time.perf_counter() - T_START
    if tracer:
        tracer.uninstall()
        setup_table = tracing.SpanTable(tracer.take()[0])

    rounds, first, digests, layer_rounds = [], None, [], []
    last_table = None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        r = workloads.Round(tracer if traced else None)
        t0 = time.perf_counter()
        workload.run_round(r)
        r.wall_s = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            spans, hashers = tracer.take()
            last_table = tracing.SpanTable(spans)
            layer_rounds.append(last_table.metrics(hashers))
        digests.append(workload.digest(r.out))
        if first is None:
            first = r
            # later rounds reuse memory the first one freed, and their peak
            # varied by 20% between identical runs; this one's did not
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            r.out = None
        rounds.append(r)
        figures = ", ".join(f"{m} {v:.4g}" for m, v in r.metrics().items())
        print(f"round {len(rounds)}{' traced' if traced else ''}: {r.attempted} operations, "
              f"{r.failed} failed; {figures}", file=sys.stderr)
        if time.perf_counter() >= deadline and len(rounds) >= (3 if tracer else 1):
            break

    verdict = workloads.Verdict()
    try:
        workload.check(first.out, verdict)
    except Exception:
        verdict.failures.append(f"check raised:\n{traceback.format_exc()}")
    for k, d in enumerate(digests[1:], start=2):
        if d != digests[0]:
            verdict.failures.append(f"round {k} did not reproduce the outputs of round 1")
    for message in verdict.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    workload.cleanup()

    plain = [r for k, r in enumerate(rounds) if tracer is None or k % 2 == 0]
    if tracer is None:
        values = workloads.Round.total(plain).metrics()
        values["wall_s"] = _median([r.wall_s for r in plain])
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {m: {"value": values[m], "unit": UNITS[m]} for m in UNITS}
    else:
        setup_values = setup_table.metrics([])
        metrics = {}
        for m, (unit, _, how, _) in tracing.LAYER_METRICS.items():
            value = _median([x[m] for x in layer_rounds])
            if how in ("time", "count", "bytes"):
                value += setup_values[m]
            metrics[m] = {"value": value, "unit": unit}
        # round 1 is left out of the comparison: it runs cold, and it is untraced
        traced_wall = _median([r.wall_s for k, r in enumerate(rounds) if k % 2 == 1])
        plain_wall = _median([r.wall_s for r in plain[1:]])
        overhead = 100.0 * (traced_wall / plain_wall - 1.0)
        metrics[tracing.OVERHEAD_METRIC] = {"value": overhead, "unit": "%"}
        print(f"tracing overhead: {overhead:+.1f}% (median round {traced_wall:.3f} s traced, "
              f"{plain_wall:.3f} s untraced)", file=sys.stderr)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracing.write_trace(
            out_dir / f"{tag}.trace.json.gz",
            {"workload": args.workload, "seed": args.seed, "round": len(rounds),
             "overhead_pct": overhead, "metrics": {m: v["value"] for m, v in metrics.items()},
             "setup_self_times": setup_table.self_times()},
            last_table,
        )

    result = {
        "correct": not verdict.failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{tag}.result.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

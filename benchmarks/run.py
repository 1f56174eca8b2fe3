"""Run one fairseed benchmark workload and print its result as JSON.

    python3 benchmarks/run.py --workload eval-ba500 --seed 1 --seconds 20 --trace 0

Run from the repository root, or from anywhere: fairseed is imported from
the `src/` directory next to this one and from nowhere else. The workload
builds its inputs from --seed (set-up), then runs rounds of the same
operation until the rounds have taken --seconds, and at least two. Every
round after the first must reproduce the first round's output exactly, and
the first round's output is checked against independent computations.
Times are wall times scaled to a reference machine speed by a calibration
kernel timed next to the work (clock.py); the run's `.bench_out` file also
holds the wall times.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 rounds alternate between untraced and traced, and
it holds the per-layer metrics of the traced rounds. The exit code is 0
when every check passed, 1 when one failed, 2 when fairseed cannot be
imported from `src/`. A summary of the run is written under `.bench_out/`
at the repository root, with the spans of a traced run.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_ROUNDS = 2
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit, better; BENCHMARK.json adds each one's bound
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def prepare() -> None:
    """One BLAS thread (the training matmuls are too small to gain from
    more, and a second thread only adds noise on a shared machine), then
    fairseed from this checkout's src/. Runs before numpy is imported."""
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, SRC)
    import fairseed
    if os.path.dirname(os.path.dirname(os.path.abspath(fairseed.__file__))) != SRC:
        raise ImportError(f"fairseed imported from {fairseed.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, start: float | None = None) -> dict:
    """Set up, run and check one workload; returns the run's record."""
    import clock
    import layers
    import spans
    import workloads

    start = time.perf_counter() if start is None else start
    wl = workloads.WORKLOADS[name](seed, sizes or workloads.FULL)
    counts = layers.LayerCounts()
    tracer = spans.Tracer(observers=merge(wl.observers(), counts.observers()))
    imports_s = time.perf_counter() - start
    if trace:
        with tracer, tracer.span("setup") as setup_id:
            wl.setup()
    else:
        wl.setup()
    setup_wall_s = time.perf_counter() - start
    setup_speed = clock.speed()

    timer = clock.Clock()
    rounds, traced_ids, failures = [], set(), []
    signature = None
    while (len(rounds) < MIN_ROUNDS
           or sum(r["seconds"] for r in rounds) < seconds
           or (trace and len(rounds) % 2)):
        traced = trace and len(rounds) % 2 == 1
        # every round starts from a collected heap that holds no earlier
        # round's output, so that cyclic GC costs the same in each
        out = None
        gc.collect()
        # traced rounds run no kernel inside the work, so that their spans
        # hold fairseed's time only
        if traced:
            with tracer, tracer.span("round") as round_id:
                timer.start()
                ops, out = wl.round()
                wall, scaled = timer.stop()
            traced_ids.add(round_id)
        else:
            observers = merge(wl.observers(), {wl.tick: timer.tick})
            with spans.Tracer(timing=False, observers=observers):
                timer.start()
                ops, out = wl.round()
                wall, scaled = timer.stop()
        rounds.append({"seconds": wall, "scaled_seconds": scaled,
                       "operations": ops, "traced": traced,
                       "kernel_ms": 1e3 * statistics.median(timer.kernels)})
        if signature is None:
            signature = wl.signature(out)
            rss = peak_rss_mb()
            failures += wl.check(out)
        elif wl.signature(out) != signature:
            failures.append(f"round {len(rounds)} output differs from round 1")

    plain = [r for r in rounds if not r["traced"]]
    if trace:
        view = layers.LayerView(
            tracer.totals(traced_ids), tracer.totals({setup_id}), counts,
            len(traced_ids),
            statistics.median(r["seconds"] for r in rounds if r["traced"])
            - statistics.median(r["seconds"] for r in plain), imports_s)
        metrics = layers.layer_metrics(view)
        failures += wl.check_counts(view)
    else:
        # times scaled to the reference speed (clock.py); the fastest round
        # passes over a warm-up round and over slow stretches of the machine
        # that the kernel missed, which only ever add time
        values = {
            "setup_s": setup_wall_s * setup_speed,
            "ms_per_op": min(
                1e3 * r["scaled_seconds"] / r["operations"] for r in plain),
            "peak_rss_mb": rss,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    result = {
        "correct": not failures,
        "attempted": sum(r["operations"] for r in rounds),
        "failed": 0,
        "metrics": metrics,
    }
    return {"result": result, "failures": failures, "rounds": rounds,
            "setup": {"wall_s": setup_wall_s, "speed": setup_speed},
            "tracer": tracer if trace else None}


def merge(*observer_maps: dict) -> dict:
    """One observer per function name, calling each given one in turn."""
    merged: dict[str, list] = {}
    for m in observer_maps:
        for name, fn in m.items():
            merged.setdefault(name, []).append(fn)

    def chain(fns):
        def call(args, kwargs, result):
            for fn in fns:
                fn(args, kwargs, result)
        return call
    return {name: fns[0] if len(fns) == 1 else chain(fns)
            for name, fns in merged.items()}


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "fairseed")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    lines += sum(1 for _ in fh)
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": lines,
    }


def main(argv=None) -> int:
    names = ("train-ba500", "eval-ba500", "mc-tiny")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        prepare()
    except ImportError as exc:
        print(f"cannot import fairseed from {SRC}: {exc}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), start=_START)
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": machine(),
                   "setup": record["setup"], "rounds": record["rounds"],
                   "failures": record["failures"],
                   **record["result"]}, fh, indent=2)
    if record["tracer"] is not None:
        record["tracer"].write_jsonl(stem + "-spans.jsonl")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

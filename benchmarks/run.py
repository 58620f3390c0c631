"""helioflux benchmark: one workload per process, end to end or traced.

    python3 benchmarks/run.py --workload {table1_both,table1_conv,field_conv}
                              [--seed N] [--seconds S] [--trace {0,1}]

Run from the root of a source checkout; the package is imported from
``src/``.  The run measures the set-up time of fresh processes, then repeats
whole rounds of the workload's operations for about ``--seconds`` seconds of
operation time while a fixed reference kernel samples the host's speed,
checks the outputs, and prints one JSON object as the last line of standard
output.  With ``--trace 1`` it then repeats the same rounds with every layer
wrapped and prints the per-layer figures instead.  See README.md.
"""

import os

# Before numpy loads: the measured processes run single-threaded.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RESULTS = os.path.join(ROOT, ".bench_results")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
# Weights of the reference kernel's (elementwise, FFT, format) parts per
# workload.  Equal thirds track the mixed GRT and field work best; the
# writer-bound table1_conv takes its traced profile (writers 88 %, spot 4 %,
# FFT 5 %).  README.md gives the spreads each choice measured.
EQUAL = (1 / 3, 1 / 3, 1 / 3)
WORKLOADS = {
    "table1_both": EQUAL,
    "table1_conv": (0.05, 0.05, 0.9),
    "field_conv": EQUAL,
}
DEFAULT_SEED = 1
SETUPS = 3  # fresh processes before and again after the rounds; setup_s is their median
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import helioflux.scene
helioflux.scene.load_config(sys.argv[1])
print(repr(time.perf_counter() - start))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def setup_seconds(scene_path):
    """Seconds a fresh process takes to import helioflux and load the scene."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, scene_path], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(args):
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "commit": commit, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def with_units(values, trace):
    """The manifest's metrics of this mode, each as {"value": v, "unit": u}."""
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in manifest["per_layer" if trace else "end_to_end"]}


def weighted(parts, weights):
    return sum(w * p for w, p in zip(weights, parts))


def run_round(wl, rep, failures, sampler=None):
    """One round of operations; returns (operation seconds, operations failed).

    With a ``sampler``, the reference kernel runs on its timer during each
    operation, and the kernel's time is taken out of the operation's.
    """
    seconds, failed = 0.0, 0
    for k in range(wl.ops_per_round):
        op = wl.operation(rep, k)
        with sampler or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                result = exc
            end = time.perf_counter()
        if sampler is not None:
            end -= sum(sum(parts) for t, parts in sampler.samples if start <= t < end)
        seconds += end - start
        if isinstance(result, Exception):
            failed += 1
            print(f"operation {rep}.{k} failed: {type(result).__name__}: {result}",
                  file=sys.stderr)
            continue
        failures += wl.after(rep, k, result)
        del result
    return seconds, failed


def measure(args, tmp):
    import workloads
    from reference import Sampler, reference_kernel

    wl = workloads.make(args.workload, args.seed, tmp)
    # set-up time drifts with the host over tens of seconds: sample both ends
    setups = [] if args.trace else [setup_seconds(wl.scene_path) for _ in range(SETUPS)]
    wl.load()

    # Each round is divided by the mean weighted kernel time sampled during it.
    weights = WORKLOADS[args.workload]
    sampler = Sampler()
    failures, failed, round_s, round_ref, round_parts = [], 0, [], [], []
    while True:
        taken = len(sampler.samples)
        seconds, round_failed = run_round(wl, len(round_s), failures, sampler)
        ref = [parts for _, parts in sampler.samples[taken:]] or [reference_kernel()]
        round_s.append(seconds)
        round_ref.append(statistics.mean(weighted(parts, weights) for parts in ref))
        round_parts.append([statistics.mean(p) for p in zip(*ref)])
        failed += round_failed
        if sum(round_s) + statistics.mean(round_s) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setups += [setup_seconds(wl.scene_path) for _ in range(SETUPS)]
    rounds = len(round_s)
    ref_s = statistics.median(weighted(parts, weights) for _, parts in sampler.samples)
    run_s = statistics.mean(round_s)
    run_ref = statistics.median(s / r for s, r in zip(round_s, round_ref))
    attempted = rounds * wl.ops_per_round

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl.load()
            load_s = tracer.self_s["scene.load"]
            tracer.reset()
            traced_s = 0.0
            for r in range(rounds):
                seconds, round_failed = run_round(wl, rounds + r, failures)
                traced_s += seconds
                failed += round_failed
        finally:
            tracer.uninstall()
        attempted *= 2
        layers, self_sum = tracer.layer_metrics(rounds)
        layers.update({
            "scene.load_s": load_s,
            "bench.ref_s": ref_s,
            "bench.run_s": run_s,
            "bench.trace_overhead_s": traced_s / rounds - run_s,
            "bench.unaccounted_s": traced_s / rounds - self_sum,
        })
        metrics = layers
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_ref": run_ref,
            "peak_rss_mb": peak_rss_mb,
        }

    check_start = time.perf_counter()
    failures += wl.finish()
    check_s = time.perf_counter() - check_start
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    detail = {"rounds": rounds, "ops_per_round": wl.ops_per_round, "setup_s": setups,
              "round_s": round_s, "run_s": run_s, "ref_samples": len(sampler.samples),
              "round_ref_s": round_ref, "round_ref_parts_s": round_parts,
              "final_check_s": check_s, "failures": failures[:50]}
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": with_units(metrics, args.trace)}, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "helioflux", "__init__.py")):
        print(f"error: no helioflux package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tmp = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        result, detail = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)

    env = environment(args)
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

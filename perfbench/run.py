"""Benchmark of the netcontract pipeline on four workloads.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  With --trace 0 the run prints the
end-to-end metrics of BENCHMARK.json, measured untraced; with --trace 1 it
alternates untraced and traced jobs and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # process start, as near as the script can see it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread, pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Inputs are built this many times in set-up; setup_s takes the median build.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("mixed", "lattice", "entrain", "hier")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _fingerprint(inputs) -> str:
    """Digest of a run's inputs, files included, to check they follow the seed."""
    h = hashlib.sha256()
    for key in sorted(inputs):
        val = inputs[key]
        h.update(key.encode())
        if key == "paths":
            for name in sorted(val):
                h.update(Path(val[name]).read_bytes() if name != "out" else b"")
        elif hasattr(val, "tobytes"):
            h.update(memoryview(val))
        else:
            h.update(repr(val).encode())
    return h.hexdigest()


def _environment(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": os.environ["OMP_NUM_THREADS"]}


def _outcomes(jobs):
    return [o for job in jobs for o in job.outcomes]


def best_op_seconds(jobs) -> dict:
    """Each operation's fastest wall time over the jobs."""
    best = {}
    for o in _outcomes(jobs):
        best[o.op] = min(best.get(o.op, o.seconds), o.seconds)
    return best


def best_job_seconds(jobs) -> float:
    return sum(best_op_seconds(jobs).values())


def _repeat(seconds, minimum, step):
    """Run step() while the next one is expected to end within `seconds`
    (at least `minimum` times); a step is expected to last as long as the
    previous one."""
    start = time.perf_counter()
    count = last = 0
    while count < minimum or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        step()
        last = time.perf_counter() - begin
        count += 1


def reference_loop(np):
    """A fixed numpy loop whose time follows the host's current speed: small
    mat-vecs, bound by the interpreter, then 1000 x 1000 mat-vecs, bound by
    the memory system.  It takes about 35 ms."""
    small = np.random.default_rng(0).standard_normal((100, 100))
    large = np.random.default_rng(1).standard_normal((1000, 1000))

    def run() -> float:
        start = time.perf_counter()
        v, u = np.ones(100), np.ones(1000)
        for _ in range(1500):
            v = small @ v
            v /= np.linalg.norm(v)
        for _ in range(60):
            u = large @ u
            u /= np.linalg.norm(u)
        return time.perf_counter() - start

    return run


def _per_layer(names, best, overhead_pct):
    """Per-layer values of the fastest traced job; counts are the same in all."""
    self_s, counts, _ = best
    values = {}
    for name in names:
        if name == "trace.overhead_pct":
            values[name] = overhead_pct
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src, tests = ROOT / "src", ROOT / "tests"
    if not ((src / "netcontract" / "__init__.py").is_file()
            and (tests / "generators.py").is_file()):
        print(f"error: {ROOT} is not a netcontract checkout "
              "(needs src/netcontract and tests/generators.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(tests)]
    import numpy as np
    import netcontract
    import workloads
    from spans import Tracer
    import_s = time.perf_counter() - _T0

    env = _environment(args)
    wl = workloads.WORKLOADS[args.workload]
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        build_s, prints = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            rng = np.random.default_rng([args.seed, WORKLOAD_NAMES.index(args.workload)])
            inputs = wl.build(rng, workdir)
            build_s.append(time.perf_counter() - start)
            prints.add(_fingerprint(inputs))
        if len(prints) != 1:
            problems.append("the same seed built different inputs")
        start = time.perf_counter()
        warmup = workloads.Job()
        wl.job(inputs, warmup)
        setup_s = import_s + statistics.median(build_s) + time.perf_counter() - start

        if args.trace == 0:
            jobs, relative, reference = [], [], reference_loop(np)

            def step():
                before = reference()
                jobs.append(workloads.Job())
                wl.job(inputs, jobs[-1])
                relative.append(2.0 * jobs[-1].seconds / (before + reference()))

            _repeat(args.seconds, 1, step)
            secs = [j.seconds for j in jobs]
            values = {"setup_s": setup_s, "job_rel.p50": statistics.median(relative),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            info = {"jobs": len(jobs), "job_s": secs, "job_s.p50": statistics.median(secs),
                    "jobs_per_s": len(secs) / sum(secs), "job_s.best": best_job_seconds(jobs),
                    "op_s.best": best_op_seconds(jobs), "import_s": import_s,
                    "build_s": build_s}
            wanted = spec["end_to_end"]
        else:
            tracer = Tracer()
            plain, traced, rounds = [], [], []

            def step():
                plain.append(workloads.Job())
                wl.job(inputs, plain[-1])
                tracer.reset()
                tracer.install(netcontract)
                try:
                    traced.append(workloads.Job(wrap=tracer.wrap))
                    wl.job(inputs, traced[-1])
                finally:
                    tracer.uninstall()
                rounds.append(tracer.snapshot())

            _repeat(args.seconds, 2, step)
            jobs = plain + traced
            if any(r[1] != rounds[0][1] for r in rounds):
                problems.append("exact per-layer counts differ between traced jobs")
            fastest = min(range(len(traced)), key=lambda k: traced[k].seconds)
            overhead_pct = 100.0 * (best_job_seconds(traced) / best_job_seconds(plain) - 1.0)
            values = _per_layer([m["name"] for m in spec["per_layer"]], rounds[fastest],
                                overhead_pct)
            info = {"traced_jobs": len(traced), "call_tree": rounds[fastest][2]}
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "metrics": values, **info}, indent=1, sort_keys=True))
    done = _outcomes(jobs)
    unexpected = [o for o in _outcomes([warmup]) + done if not o.ok and not o.known_fault]
    problems += [f"{o.op}: {o.detail}" for o in unexpected]
    for line in problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(done),
        "failed": sum(not o.ok for o in done),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

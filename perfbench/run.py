"""Benchmark of orbitbnf: one closed-loop, single-process run of one workload.

    python3 perfbench/run.py --workload nf-routes --seed 1 --seconds 30 --trace 0

A run compiles the sources to bytecode, sets up in-process and then runs
whole passes of the workload's ops one after another until ``--seconds``
would be exceeded (always at least one pass); ``setup_s`` is the median of
several fresh-interpreter set-ups timed between the ops of the first pass.
With ``--trace 1`` it instead runs a plain and a traced copy of one pass and
reports the per-layer metrics of ``tracing.PER_LAYER``, the gap between the
two copies being the tracing overhead.  ``--smoke`` runs the reduced sizes.
The last line of standard output is the result object; the line before it
records the environment.  Result, spans and counters are also written under
``.perfbench_out/``.

Set-up is everything before the first op: imports, seeded input generation,
loading the reference tables and a warm-up pass of the smoke-size ops at a
fixed seed, whose tables must match ``refs.json`` (``--write-refs``
regenerates that file from the current sources).
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFS = BENCH / "refs.json"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = {"full": 5, "smoke": 2}  # timed cold starts per run
REF_SEED = 0
# Reference tables hold eigenvalues from LAPACK as well as exact-arithmetic
# algebra, so they are compared to 1e-12 of each table's largest entry.
REF_RTOL = 1e-12
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("nf-routes", "oracle-window", "word-algebra"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-refs", action="store_true", help="regenerate refs.json")
    args = ap.parse_args(argv)
    if not args.workload and not args.write_refs:
        ap.error("--workload is required")
    return args


def run_ops(ops, tracer=None):
    """Run ops in order; return (outputs by op, failure messages)."""
    outputs, failures = {}, []
    for op in ops:
        if tracer is not None:
            tracer.op_id = op.name
        try:
            outputs[op.name] = op.run()
        except Exception as exc:  # a raising op counts as failed; the pass goes on
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return outputs, failures


def warm_up(workload):
    """Run the smoke-size ops at the reference seed: (outputs, failures)."""
    import workloads

    make_inputs, make_ops = workloads.WORKLOADS[workload]
    return run_ops(make_ops(make_inputs(REF_SEED, "smoke")))


def setup(workload, seed, size):
    """Inputs for the run, plus the reference mismatches of the warm-up pass."""
    import workloads

    inputs = workloads.WORKLOADS[workload][0](seed, size)
    refs = json.loads(REFS.read_text())[workload]
    outputs, failures = warm_up(workload)
    return inputs, failures + workloads.table_mismatches(workloads.tables(outputs), refs, REF_RTOL)


def cold_start_command(args):
    """A fresh interpreter that only sets up, and its environment."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    return cmd, {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}


def cold_start(cmd, env):
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)
    return time.perf_counter() - start


def _commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "orbitbnf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, size):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ[k] for k in THREAD_PINS},
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def measure(make_ops, inputs, seconds, cold_start_sample, samples):
    """Closed loop of whole passes until the next one would end past `seconds`.

    The machine's speed drifts over seconds, so the `samples` cold starts are
    spread evenly between the ops of the first pass instead of run back to
    back; a pass's time is the sum of its ops' times.
    """
    pass_s, failures, attempted, setup_s = [], [], 0, []
    start = time.perf_counter()
    while True:
        ops = make_ops(inputs)
        busy = 0.0
        for i, op in enumerate(ops + [None]):
            while len(setup_s) < samples * i // len(ops):
                setup_s.append(cold_start_sample())
            if op is not None:
                t0 = time.perf_counter()
                failures += run_ops([op])[1]
                busy += time.perf_counter() - t0
        pass_s.append(busy)
        attempted += len(ops)
        if time.perf_counter() - start + busy > seconds:
            return pass_s, attempted, failures, setup_s


def run_plain(args, size, make_ops):
    cmd, env = cold_start_command(args)
    inputs, ref_failures = setup(args.workload, args.seed, size)
    pass_s, attempted, failures, setup_s = measure(
        make_ops, inputs, args.seconds, lambda: cold_start(cmd, env), SETUP_SAMPLES[size]
    )
    values = {
        "wall_s": statistics.median(pass_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - len(failures)) / attempted,
    }
    info = {"pass_s": pass_s, "setup_samples": len(setup_s), "setup_s_samples": setup_s}
    return END_TO_END, values, attempted, failures, ref_failures, info


def run_traced(args, size, make_ops):
    """One plain and one traced copy of the pass, alternating op by op (and
    which copy goes first) so both see the same machine speed."""
    import tracing

    inputs, ref_failures = setup(args.workload, args.seed, size)
    plain_ops, traced_ops = make_ops(inputs), make_ops(inputs)
    tracer = tracing.Tracer()
    failures, plain_s, traced_s = [], 0.0, 0.0
    for i, (plain, traced) in enumerate(zip(plain_ops, traced_ops)):
        for op in (plain, traced) if i % 2 == 0 else (traced, plain):
            if op is plain:
                t0 = time.perf_counter()
                failures += run_ops([op])[1]
                plain_s += time.perf_counter() - t0
                continue
            tracer.install()
            try:
                t0 = time.perf_counter()
                failures += run_ops([op], tracer)[1]
                traced_s += time.perf_counter() - t0
            finally:
                tracer.uninstall()
    values = tracer.metrics(args.workload, traced_s / plain_s - 1.0)
    stem = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    tracer.write(OUT / f"spans-{stem}.jsonl", OUT / f"counters-{stem}.json")
    info = {"plain_pass_s": plain_s, "traced_pass_s": traced_s}
    return tracing.PER_LAYER, values, len(plain_ops) + len(traced_ops), failures, ref_failures, info


def write_refs():
    import workloads

    refs = {}
    for name in workloads.WORKLOADS:
        outputs, failures = warm_up(name)
        if failures:
            raise SystemExit(f"{name}: cannot record references: {failures}")
        refs[name] = workloads.tables(outputs)
    REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "orbitbnf" / "__init__.py").is_file():
        print(f"orbitbnf sources not found under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_PINS:  # before numpy loads BLAS
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    size = "smoke" if args.smoke else "full"
    if args.write_refs:
        write_refs()
        return 0
    if args.setup_only:
        setup(args.workload, args.seed, size)
        return 0

    sys.pycache_prefix = None  # keep bytecode inside the checkout
    for tree in (SRC, BENCH):
        compileall.compile_dir(str(tree), quiet=1)
    import workloads

    OUT.mkdir(exist_ok=True)
    make_ops = workloads.WORKLOADS[args.workload][1]
    run = run_traced if args.trace else run_plain
    specs, values, attempted, failures, ref_failures, info = run(args, size, make_ops)
    for message in failures + ref_failures:
        print(message, file=sys.stderr)
    result = {
        "correct": not failures and not ref_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }
    record = {"environment": environment(args, size), "run": info,
              "reference_mismatches": len(ref_failures)}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one rabinsig benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sign-verify --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics with tracing off.  With
--trace 1 it spends the first half of --seconds untraced and the second half
traced, prints the per-layer metrics (including the tracing overhead between
the halves) and writes the spans to .perfbench/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Metric names
and units come from BENCHMARK.json; perfbench/README.md explains each one.
"""

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# The machine this runs on is shared, and its speed drifts by +-12% over a few
# seconds.  A probe of fixed work on builtins only (big-int modexps and a bytecode
# loop, like the package's own work) runs every PROBE_EVERY_S between steps; it
# calls no package code, so no change to the package can move it.  Every reported
# time is scaled by PROBE_S / (mean probe time), i.e. to a machine that runs the
# probe in PROBE_S.  The raw figures are printed too.
PROBE_S = 0.010
PROBE_EVERY_S = 0.25
_probe_rng = random.Random(0)
_PROBE_N = _probe_rng.getrandbits(1024) | (1 << 1023) | 1
_PROBE_E = _probe_rng.getrandbits(512)
_PROBE_B = _probe_rng.getrandbits(1000)


def probe() -> float:
    """Time one run of the fixed probe work."""
    start = perf_counter()
    x = _PROBE_B
    for _ in range(4):
        x = pow(x, _PROBE_E, _PROBE_N)
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return perf_counter() - start


def _scale(probe_times) -> float:
    return PROBE_S / statistics.mean(probe_times)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_phase(workload, state, rec, seconds):
    """Run workload steps until `seconds` have passed; a step that raises counts as failed."""
    start = perf_counter()
    deadline = start + seconds
    next_probe = start
    i = 0
    while perf_counter() < deadline:
        if perf_counter() >= next_probe:
            rec.probes.append(probe())
            next_probe = perf_counter() + PROBE_EVERY_S
        rec.steps += 1
        try:
            workload.step(state, rec, i)
        except Exception as exc:  # a crashing operation is a failed check, not a crashed benchmark
            if not rec.failures:
                traceback.print_exc(file=sys.stderr)
            rec.judge([f"raised {type(exc).__name__}"])
        i += 1
    rec.elapsed += perf_counter() - start


def end_to_end(rec, setup_times, setup_scale, scale):
    """The end-to-end metrics, times scaled by the probe (scale 1 gives the raw figures)."""
    op, aux = rec.samples["op"], rec.samples["aux"]
    return {
        "setup_s": setup_scale * statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": len(op) / sum(op) / scale,
        "op_ms_p50": 1e3 * scale * statistics.median(op),
        "op_ms_p90": 1e3 * scale * _quantile(op, 90),
        "aux_per_s": len(aux) / sum(aux) / scale,
    }


def _environment():
    gmp = "present" if importlib.util.find_spec("gmpy2") else "absent"
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, gmpy2 {gmp}"


def _describe(metrics, units, label):
    for name, value in metrics.items():
        print(f"{label}{name} = {value:.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rabinsig" / "__init__.py").is_file():
        print(f"perfbench: no rabinsig sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    from layers import per_layer
    from tracer import Tracer
    from workloads import WORKLOADS, Recorder, load_package

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        setup_times, setup_probes = [], []
        for _ in range(SETUP_REPEATS):
            setup_probes.append(probe())
            start = perf_counter()
            state = workload.setup(load_package(fresh=True), args.seed, workdir)
            setup_times.append(perf_counter() - start)
        setup_scale = _scale(setup_probes)
        rec = Recorder()
        e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if not args.trace:
            run_phase(workload, state, rec, args.seconds)
            metrics = end_to_end(rec, setup_times, setup_scale, _scale(rec.probes))
            _describe(end_to_end(rec, setup_times, 1.0, 1.0), e2e_units, "raw ")
            wanted = spec["end_to_end"]
        else:
            run_phase(workload, state, rec, args.seconds / 2)
            untraced = end_to_end(rec, setup_times, setup_scale, _scale(rec.probes))
            traced_rec = Recorder(Tracer())
            with traced_rec.tracer:
                run_phase(workload, state, traced_rec, args.seconds / 2)
            traced = end_to_end(traced_rec, setup_times, setup_scale, _scale(traced_rec.probes))
            step_time = [r.elapsed * _scale(r.probes) / r.steps for r in (rec, traced_rec)]
            overhead = 100 * (step_time[1] / step_time[0] - 1)
            _describe(untraced, e2e_units, "untraced ")
            _describe(traced, e2e_units, "traced ")
            metrics, root = per_layer(traced_rec.tracer, traced_rec, overhead)
            rec.attempted += traced_rec.attempted
            rec.failed += traced_rec.failed
            rec.failures.update(traced_rec.failures)
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json.gz"
            traced_rec.tracer.write(trace_path, root)
            print(f"spans written to {trace_path.relative_to(ROOT)}")
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; {_environment()}")
    print(f"samples: op {len(rec.samples['op'])}, aux {len(rec.samples['aux'])}; setup runs {len(setup_times)}; "
          f"probe mean {1e3 * statistics.mean(rec.probes):.3f} ms over {len(rec.probes)} runs")
    _describe({k: metrics[k] for k in units}, units, "")
    print(f"error_rate = {rec.error_rate:.6g} ({rec.failed} failed / {rec.attempted} attempted)")
    for check, count in rec.failures.most_common():
        print(f"failed check: {check} x{count}")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

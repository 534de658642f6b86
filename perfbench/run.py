#!/usr/bin/env python3
"""Seeded, closed-loop, single-process benchmark for nilmod.

    python3 perfbench/run.py --workload canon-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

One caller issues each operation after the previous one finished (the
CLI workload runs one child process at a time).  A run sets the
workload up several times (setup_s is the median), then runs a fixed
number of whole rounds of its operations, sized to fill about --seconds
on the reference machine, checks every result apart from the timed
call, prints a report and, as its last line, one JSON object with the
end-to-end metrics (--trace 0), timed in reference seconds (below), or
the per-layer metrics of a traced run (--trace 1).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
OUT = HERE / ".out"

import oracle  # noqa: E402  (lives next to this file)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("canon-dense", "embed-general", "series-aut", "cli-batch")
DEFAULT_SEED = 1
# Set-ups per run, whose median is setup_s: fewer where one set-up takes
# seconds (canon-dense), more where it takes tens of milliseconds.
SETUP_REPEATS = {"canon-dense": 3, "embed-general": 7, "series-aut": 5, "cli-batch": 15}
# Seconds of one round per workload on the quiet reference machine
# (README).  A run attempts max(1, round(seconds / ROUND_SECONDS)) whole
# rounds, a count fixed by --seconds alone, so the attempted and failed
# counts and the samples behind each metric do not depend on speed.
ROUND_SECONDS = {"canon-dense": 30.0, "embed-general": 5.0, "series-aut": 2.5, "cli-batch": 3.5}
TRACE_ROUNDS = 1
STARTUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_geomean_ms": "ms",
    "peak_rss_mb": "MB",
}


# --- reference speed -----------------------------------------------------------
# On a shared machine the speed of the same code swings by up to 2x from
# one second to the next, CPU time with it.  Every timed piece (a set-up,
# an op) is therefore run between two fixed reference pieces of the same
# kind of work, and in-process pieces also run one every SAMPLE_EVERY_S
# of CPU time while they run (from a SIGVTALRM handler, its own time
# taken off the piece's).  A reference piece gives the machine's
# slowness: its time over its time on a quiet reference machine.  A
# piece's time divided by the mean slowness around and inside it is in
# reference seconds, as are deadlines (README).  In-process work is
# referred to a 12x12 rational matrix product, like nilmod's own
# arithmetic; a CLI child to a bare interpreter child, which the matrix
# product does not track.

MATRIX_REFERENCE_S = 0.006
INTERPRETER_REFERENCE_S = 0.057
SAMPLE_EVERY_S = 0.1
_REF_RNG = random.Random(0)
_REF_MATRIX = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9)) for _ in range(12)]
               for _ in range(12)]


def matrix_slowness() -> float:
    start = perf_counter()
    oracle.mat_mul(_REF_MATRIX, _REF_MATRIX)
    return (perf_counter() - start) / MATRIX_REFERENCE_S


def interpreter_slowness(env) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=WORK, check=True)
    return (perf_counter() - start) / INTERPRETER_REFERENCE_S


def slowness_for(name: str, nm):
    """(slowness reading around an op, whether to sample inside it)."""
    if name == "cli-batch":
        env = workloads.cli_env(nm)
        return (lambda: interpreter_slowness(env)), False
    return matrix_slowness, True


def load_nilmod():
    """Import nilmod (and its CLI) afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "nilmod" or m.startswith("nilmod.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nilmod
    import nilmod.cli  # noqa: F401  (workloads call nilmod.cli.main)

    if Path(nilmod.__file__).resolve().parent != SRC / "nilmod":
        raise ImportError(f"nilmod imported from {nilmod.__file__}, not {SRC}")
    return nilmod


def set_up(name: str, seed: int, repeats: int, smoke: bool = False):
    """Import plus input generation, `repeats` times; returns the last
    set-up and the median set-up time in reference seconds."""
    def once():
        nm = load_nilmod()
        return nm, workloads.build(name, nm, seed, smoke, WORK / name)

    step = workloads.Op("set-up", once, lambda out: True)
    times = []
    for _ in range(repeats):
        _, reference_s, ok, out = timed(step, matrix_slowness, True)
        if not ok:
            raise RuntimeError(f"set-up of {name} failed")
        times.append(reference_s)
    return *out, statistics.median(times)


# --- running ops -------------------------------------------------------------

@dataclass
class Result:
    op: workloads.Op
    op_id: str
    latency_s: float
    scaled_s: float  # latency_s in reference seconds
    ok: bool       # finished before its deadline without raising
    checked: bool  # its check passed (True for ops that did not finish)


def _alarm(signum, frame):
    raise workloads.Deadline()


def timed(op, slowness=None, inside=False):
    """One op under its deadline: (own wall seconds, reference seconds,
    finished, output).  With `slowness`, the op runs between two readings
    of it, and with `inside` also under matrix readings every
    SAMPLE_EVERY_S of CPU time, each of which moves the deadline alarm to
    where op.deadline reference seconds end at the latest reading.
    Without, reference seconds are wall seconds."""
    readings, spent, armed = [slowness() if slowness else 1.0], [0.0], [True]

    def sample(signum, frame):
        if not armed[0]:
            return
        now = perf_counter()
        own = now - start - spent[0]
        readings.append(matrix_slowness())
        spent[0] += perf_counter() - now
        left = op.deadline - own / statistics.mean(readings)
        signal.setitimer(signal.ITIMER_REAL, max(left, 0.001) * readings[-1])

    ok, out = False, None
    start = perf_counter()
    try:
        if inside:
            signal.signal(signal.SIGVTALRM, sample)
            signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        signal.setitimer(signal.ITIMER_REAL, op.deadline * readings[0])
        try:
            out, ok = op.call(), True
        finally:
            armed[0] = False  # first: a late `sample` must not re-arm the alarm
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
    except workloads.Deadline:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    except Exception:
        traceback.print_exc()
    wall = perf_counter() - start - spent[0]
    if slowness:
        readings.append(slowness())
    return wall, wall / statistics.mean(readings), ok, out


def check(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:
        traceback.print_exc()
        return False


def run_rounds(ops, rounds: int, reference=(None, False), tracer=None):
    """Exactly `rounds` whole rounds of `ops`; `reference` is a
    (slowness, inside) pair as `timed` takes them."""
    results = []
    for r in range(rounds):
        for i, op in enumerate(ops):
            op_id = f"{r}:{i}"
            gc.collect()  # every op starts from a collected heap
            if tracer is not None:
                tracer.op = op_id
            latency, scaled, ok, out = timed(op, *reference)
            if tracer is not None:
                tracer.op = None
                tracer.reset_stack()
            results.append(Result(op, op_id, latency, scaled, ok, check(op, out) if ok else True))
    return results


# --- metrics -----------------------------------------------------------------

def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def op_latencies(results, field="scaled_s") -> dict[str, list]:
    """Latencies in ms of each distinct completed operation."""
    by_name: dict[str, list] = {}
    for r in results:
        if r.ok:
            by_name.setdefault(r.op.name, []).append(getattr(r, field) * 1000)
    return by_name


def ops_per_s(results, field="scaled_s") -> float:
    """Completed ops per second of op time; a failed op's time counts."""
    return sum(r.ok for r in results) / sum(getattr(r, field) for r in results)


def geomean_ms(results, field="scaled_s") -> float:
    """Geometric mean, over the distinct completed ops, of each one's
    median latency: every op weighs the same, whatever its size."""
    return statistics.geometric_mean(statistics.median(v) for v in op_latencies(results, field).values())


def end_to_end(name: str, results, setup_s: float) -> dict:
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(results),
        "op_geomean_ms": geomean_ms(results),
        "peak_rss_mb": peak_rss_mb(name),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# (metric, unit, span label or label prefix, field)
LAYER_METRICS = [
    ("exactalg.self_s", "s", "exactalg.", "self_s"),
    ("exactalg.matmul.calls", "count", "exactalg.QMatrix.matmul", "calls"),
    ("exactalg.matmul.self_s", "s", "exactalg.QMatrix.matmul", "self_s"),
    ("exactalg.rref.calls", "count", "exactalg.QMatrix.rref", "calls"),
    ("exactalg.rref.self_s", "s", "exactalg.QMatrix.rref", "self_s"),
    ("exactalg.kernel.calls", "count", "exactalg.QMatrix.kernel", "calls"),
    ("exactalg.inverse.calls", "count", "exactalg.QMatrix.inverse", "calls"),
    ("exactalg.det.calls", "count", "exactalg.QMatrix.det", "calls"),
    ("exactalg.subspace.self_s", "s", "exactalg.Subspace.", "self_s"),
    ("exactalg.coordinates_of.calls", "count", "exactalg.Subspace.coordinates_of", "calls"),
    ("exactalg.coordinates_of.self_s", "s", "exactalg.Subspace.coordinates_of", "self_s"),
    ("multipoly.self_s", "s", "multipoly.", "self_s"),
    ("multipoly.poly_ops.calls", "count", "multipoly.Poly.", "calls"),
    ("modcore.self_s", "s", "modcore.", "self_s"),
    ("modcore.is_nilpotent.calls_per_op", "calls/op", "modcore.is_nilpotent", "per_op"),
    ("modcore.is_nilpotent.self_s", "s", "modcore.is_nilpotent", "self_s"),
    ("modcore.fdmodule.calls_per_op", "calls/op", "modcore.FDModule.__init__", "per_op"),
    ("modcore.fdmodule.self_s", "s", "modcore.FDModule.", "self_s"),
    ("modcore.socle.calls_per_op", "calls/op", "modcore.socle", "per_op"),
    ("modcore.codim1_submodule.self_s", "s", "modcore.codim1_submodule", "self_s"),
    ("modcore.socle_eigenvalues.self_s", "s", "modcore.socle_eigenvalues", "self_s"),
    ("modcore.polysubmodule.calls", "count", "modcore.PolySubmodule.__init__", "calls"),
    ("modcore.polysubmodule.self_s", "s", "modcore.PolySubmodule.", "self_s"),
    ("embed.self_s", "s", "embed.", "self_s"),
    ("embed.potential.calls", "count", "embed.potential", "calls"),
    ("embed.potential.self_s", "s", "embed.potential", "self_s"),
    ("diffop.self_s", "s", "diffop.", "self_s"),
    ("diffop.compose.calls", "count", "diffop.DiffOpSeries.compose", "calls"),
    ("diffop.compose.self_s", "s", "diffop.DiffOpSeries.compose", "self_s"),
    ("diffop.apply.calls", "count", "diffop.DiffOpSeries.apply", "calls"),
    ("diffop.apply.self_s", "s", "diffop.DiffOpSeries.apply", "self_s"),
    ("diffop.restrict.self_s", "s", "diffop.restrict", "self_s"),
    ("diffop.extend_iso_step.calls", "count", "diffop.extend_iso_step", "calls"),
    ("diffop.extend_iso_step.self_s", "s", "diffop.extend_iso_step", "self_s"),
]


def layer_metrics(summary: dict, workload_ops: int) -> dict:
    out = {}
    for metric, unit, key, field in LAYER_METRICS:
        rows = [row for label, row in summary.items()
                if label == key or (key.endswith(".") and label.startswith(key))]
        if field == "per_op":
            value = sum(r["calls"] for r in rows) / workload_ops
        else:
            value = sum(r[field] for r in rows)
        out[metric] = {"value": value, "unit": unit}
    return out


def cli_startup(nm, cli_ops) -> dict:
    """Untraced timings of the CLI: one child per op of `cli_ops`,
    the bare interpreter, the import, and main() in-process.  Only
    cli-batch reaches the CLI; other workloads read 0."""
    if not cli_ops:
        return {k: {"value": 0.0, "unit": "ms"} for k in CLI_METRICS}
    env = workloads.cli_env(nm)
    process, main = [], []
    for op in cli_ops:
        latency, _, ok, _ = timed(op)
        if ok:
            process.append(latency * 1000)
        start = perf_counter()
        workloads.in_process_main(nm, op.argv)
        main.append((perf_counter() - start) * 1000)

    def child_ms(code: str) -> float:
        times = []
        for _ in range(STARTUP_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=WORK, check=True)
            times.append((perf_counter() - start) * 1000)
        return statistics.median(times)

    interpreter = child_ms("pass")
    values = {  # keys as CLI_METRICS
        "cli.process_ms": statistics.median(process),
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": child_ms("import nilmod.cli") - interpreter,
        "cli.main_ms": statistics.median(main),
    }
    return {k: {"value": v, "unit": "ms"} for k, v in values.items()}


CLI_METRICS = ("cli.process_ms", "cli.interpreter_ms", "cli.import_ms", "cli.main_ms")


# --- one run -------------------------------------------------------------------

def report(name, seed, results, rounds, extra_lines=()):
    failed = [r for r in results if not r.ok]
    print(f"workload {name} seed {seed}: {rounds} round(s), "
          f"{len(results)} ops attempted, {len(failed)} failed")
    for r in failed:
        print(f"  failed: {r.op.name} (deadline {r.op.deadline:g} reference s, ran {r.scaled_s:.3f} reference s, {r.latency_s:.3f} s wall)")
    wall = op_latencies(results, "latency_s")
    for op_name, lat in op_latencies(results).items():
        print(f"  median {statistics.median(lat):10.2f} ms  best {min(lat):10.2f} ms  "
              f"(wall-clock median {statistics.median(wall[op_name]):10.2f} ms)  x{len(lat):<3d} {op_name}")
    for line in extra_lines:
        print(line)


def group_lines(results) -> list[str]:
    """canonical_form medians per dimension class (canon-dense only)."""
    groups: dict[str, list] = {}
    for r in results:
        if r.ok and r.op.group.startswith("d"):
            groups.setdefault(r.op.group, []).append(r.scaled_s * 1000)
    return [f"  canon_{g}_ms = {statistics.median(v):.4f} ms (canonical_form median, {len(v)} ops)"
            for g, v in sorted(groups.items())]


def percentile_lines(results) -> list[str]:
    """The wall-clock figures, the median over all completed ops, and the
    90th percentile where it has a tail (at least 100 ops); reported, not
    gated."""
    done = [r.scaled_s * 1000 for r in results if r.ok]
    lines = [f"  wall-clock ops_per_s = {ops_per_s(results, 'latency_s'):.6g} 1/s, "
             f"op_geomean_ms = {geomean_ms(results, 'latency_s'):.6g} ms",
             f"  op_p50_ms = {statistics.median(done):.6g} ms ({len(done)} ops)"]
    if len(done) >= 100:
        lines.append(f"  op_p90_ms = {statistics.quantiles(done, n=10)[8]:.6g} ms ({len(done)} ops)")
    return lines


def rounds_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[name]))


def run_untraced(name, seed, seconds, smoke):
    nm, ops, setup_s = set_up(name, seed, 1 if smoke else SETUP_REPEATS[name], smoke)
    rounds = 1 if smoke else rounds_for(name, seconds)
    results = run_rounds(ops, rounds, slowness_for(name, nm))
    metrics = end_to_end(name, results, setup_s)
    report(name, seed, results, rounds, group_lines(results) + percentile_lines(results) + [
        f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()])
    return results, metrics


def run_traced(name, seed, smoke):
    nm, ops, _ = set_up(name, seed, 1, smoke)
    # Readings around each op only: one inside an op would count as self
    # time of the layer it interrupted.
    reference = (slowness_for(name, nm)[0], False)
    plain = run_rounds(ops, TRACE_ROUNDS, reference)
    tracer = Tracer("nilmod")
    tracer.install()
    try:
        traced = run_rounds(ops, TRACE_ROUNDS, reference, tracer=tracer)
    finally:
        tracer.uninstall()
    # A layer the workload never reaches reads 0.
    done = {r.op_id for r in traced if r.ok}
    summary = tracer.summary(done)
    metrics = layer_metrics(summary, len(done))
    bits = tracer.max_bits_over(done)
    metrics["exactalg.max_entry_bits"] = {"value": bits["exactalg"], "unit": "bits"}
    metrics["multipoly.max_coef_bits"] = {"value": bits["multipoly"], "unit": "bits"}
    metrics.update(cli_startup(nm, ops if name == "cli-batch" else []))
    overhead = sum(r.scaled_s for r in traced) - sum(r.scaled_s for r in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    path = OUT / f"trace-{name}-seed{seed}.jsonl.gz"
    tracer.write(path, summary)
    report(name, seed, traced, TRACE_ROUNDS, [f"  spans: {len(tracer.spans)} written to {path.relative_to(HERE.parent)}"] + [
        f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()])
    return plain + traced, metrics


def all_correct(results) -> bool:
    """Every check passed, and only the named-fault ops failed."""
    return all(r.checked and (r.ok or r.op.group == "fault") for r in results)


def result_line(results, metrics) -> str:
    return json.dumps({
        "correct": all_correct(results),
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": metrics,
    })


def smoke(seed: int) -> int:
    """Every workload at toy size, untraced and traced: a few seconds."""
    everything = []
    for name in WORKLOADS:
        for traced in (False, True):
            results, _ = run_traced(name, seed, True) if traced else run_untraced(name, seed, 0, True)
            everything += results
    print(result_line(everything, {}))
    return 0 if all_correct(everything) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long run of every workload at toy size")
    args = parser.parse_args(argv)
    if not (SRC / "nilmod" / "__init__.py").is_file():
        print(f"error: nilmod sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    signal.signal(signal.SIGALRM, _alarm)
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.trace:
            results, metrics = run_traced(args.workload, args.seed, False)
        else:
            results, metrics = run_untraced(args.workload, args.seed, args.seconds, False)
        print(result_line(results, metrics))
        return 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for the szf solver, classifier and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, each in a fresh process

Run from the repository root; the program is imported from ./src. With
--trace 0 the run reports the end-to-end metrics: wall_s (mean time of one
pass over the workload's inputs in a warm process), max_graph_s (mean over
passes of the slowest instance), setup_s (median time from a fresh
interpreter to the inputs loaded as graphs), peak_rss_mb, and failed_frac
(in the printed table; the JSON carries it as failed/attempted). Pass times
are averaged rather than taking their median because on a shared machine
they are often bimodal (neighbours' bursts), and the median of a few
bimodal samples jumps between the modes from run to run. With
--trace 1 it reports per-layer metrics from spans recorded around the calls
into each module (see tracing.py), and the tracing overhead.

Every output is checked (see workloads.py). Human-readable lines come first;
the last line of stdout is one JSON object. Each run also writes
.bench_out/result-<workload>-seed<N>-trace<T>.json, and a traced run writes
its spans to .bench_out/trace-<workload>-seed<N>.tsv.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH_JSON = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("solve-symmetric", "solve-asymmetric", "classify-large", "verify-extremes")

# Fresh interpreters timed after each pass, so that set-up is sampled across the
# whole run rather than in one burst (machine speed drifts over tens of seconds).
SETUP_PER_PASS = 2
MIN_PASSES = 3
TAIL_BEYOND = 10  # report the highest percentile with this many samples above it


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """(percentile, sample, count) for the highest percentile that has at
    least `beyond` samples above it, or None when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return None
    rank = n - beyond  # 1-based; exactly `beyond` samples lie above it
    return 100.0 * rank / n, xs[rank - 1], n


def natural(item):
    """Sort key that puts k2 before k10."""
    return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", item[0])]


def describe(samples, unit: str) -> str:
    line = (f"mean {statistics.fmean(samples):.6g} {unit}, "
            f"median {statistics.median(samples):.6g} {unit}")
    tail = tail_percentile(samples)
    if tail is None or tail[0] <= 50:
        return f"{line} (n={len(samples)}; too few samples for a tail percentile)"
    pct, value, n = tail
    return f"{line}, p{pct:.0f} {value:.6g} {unit} (n={n})"


def run_for(budget: float, min_passes: int, one_pass):
    """Run passes until the next one would overrun the budget."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if len(results) >= min_passes and elapsed + elapsed / len(results) > budget:
            return results


def time_setup(fmt: str, bits: bool, input_path: Path, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import szf and load the inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(ROOT / "bench" / "load.py"), fmt, "1" if bits else "0",
           str(input_path)]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode(errors='replace')}")
    return samples


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()}


class Tally:
    """Instances attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, per_instance):
        for problems in per_instance:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def measure(workload, seed: int, seconds: float, trace: bool):
    from load import load
    from workloads import check_all, load_golden, make_inputs, run_pass

    golden = load_golden()[workload.name]
    inputs = make_inputs(workload.name, seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{seed}"
    input_path = OUT / f"inputs-{tag}.txt"
    input_path.write_text(inputs.text, encoding="ascii")
    csv_path = OUT / f"{tag}.csv"
    bits = workload.kind == "solve"
    tally = Tally()
    report = {"inputs_sha256": inputs.digest, "instances": len(inputs.ids)}

    graphs = load(workload.fmt, inputs.lines, bits)

    def one_pass(mark=None):
        wall, outputs = run_pass(workload, inputs.ids, graphs, csv_path, mark)
        tally.add(check_all(workload, outputs, graphs, inputs.perms, golden, seed))
        return wall, outputs

    if not trace:
        time_setup(workload.fmt, bits, input_path, 1)  # warm-up: writes bytecode caches
        setup = []

        def pass_and_setup():
            result = one_pass()
            setup.extend(time_setup(workload.fmt, bits, input_path, SETUP_PER_PASS))
            return result

        passes = run_for(seconds, MIN_PASSES, pass_and_setup)
        walls = [wall for wall, _ in passes]
        slowest = [max(s for _, s, _ in outputs) for _, outputs in passes]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.fmean(walls), "s"),
            "max_graph_s": (statistics.fmean(slowest), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        lines = [
            f"wall_s       {describe(walls, 's')}",
            f"max_graph_s  {describe(slowest, 's')}",
            f"setup_s      {describe(setup, 's')}",
            f"peak_rss_mb  {rss_mb:.1f} MB",
        ]
        report["samples"] = {"wall_s": walls, "max_graph_s": slowest, "setup_s": setup}
    else:
        from tracing import LAYER_METRICS, Tracer, instrument, layer_values, probe, \
            record_rows, sweep, unit_of

        tracer = Tracer()
        with instrument(tracer):
            tracer.at("-", "load")
            graphs[:] = load(workload.fmt, inputs.lines, bits)
        ratios = []

        def paired_passes():
            """An untraced pass, then a traced one; the ratio of their walls
            is the tracing overhead, free of drift between distant passes."""
            untraced_wall, _ = one_pass()
            with instrument(tracer):
                wall, outputs = one_pass(lambda iid: tracer.at(iid, "pass"))
            if workload.kind == "cli":
                record_rows(tracer, outputs)
            ratios.append(wall / untraced_wall)
            return wall, outputs

        traced = run_for(seconds, 1, paired_passes)
        with instrument(tracer):
            sweep(tracer, workload.kind, inputs.ids, graphs, traced[0][1])
            probe(tracer, OUT / f"probe-{tag}.csv")
        values = layer_values(tracer, len(traced), statistics.median(ratios) - 1.0)
        metrics = {name: (values[name][0], unit_of(name)) for name in LAYER_METRICS}
        lines = [f"{name:38s} {value:<12.6g} {unit_of(name)}"
                 + ("  (probe)" if source == "probe" else "")
                 for name, (value, source) in sorted(values.items(), key=natural)]
        lines.append(f"passes: {len(traced)} untraced/traced pairs; {len(tracer.name)} spans")
        trace_path = OUT / f"trace-{tag}.tsv"
        tracer.write_tsv(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    return metrics, lines, tally, report


def run_one(args) -> int:
    if not (SRC / "szf" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'szf'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import szf

    if Path(szf.__file__).resolve().parent != SRC / "szf":
        print(f"error: imported szf from {szf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    metrics, lines, tally, report = measure(workload, args.seed, args.seconds, args.trace)
    failed_frac = tally.failed / tally.attempted
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, inputs sha256 {report['inputs_sha256']}, "
          f"{report['instances']} instances, trace {int(args.trace)}")
    for line in lines:
        print(line)
    print(f"failed_frac  {failed_frac:.6g} ({tally.failed}/{tally.attempted} instance runs)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": int(args.trace), **provenance(),
              "failed_frac": failed_frac, "problems": tally.problems, **report, **result}
    out = OUT / f"result-{workload.name}-seed{args.seed}-trace{int(args.trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter; prints one summary table."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
        frac = result["failed"] / result["attempted"]
        rows.append((name, result["metrics"], frac))
    print()
    for name, metrics, frac in rows:
        cells = [f"{m} {e['value']:.4g} {e['unit']}" for m, e in metrics.items()]
        print(f"{name:17s} " + "  ".join(cells) + f"  failed_frac {frac:.3g}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(BENCH_JSON.read_text())["run_seconds"]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

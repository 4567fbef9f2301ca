"""Benchmark of the msolv CLI on four workloads, with report-hash gates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout whose ``src/msolv`` holds the program;
with ``--workload all`` it runs every workload in turn.  The loop is closed:
one client starts one ``python3 -m msolv.cli`` child at a time and waits for
it, and no child runs more workers than there are CPUs.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json:
``setup_s`` (median wall time of ``msolv <experiment> --help``: interpreter
start, every import and the parser), then the workload's median ``wall_s``
(spawn to exit), ``cpu_s`` and ``peak_rss_mb`` (both from that child's own
``os.wait4`` rusage) over as many runs as fit in ``--seconds``.

``--trace 1`` measures the per-layer metrics: the fixed-input primitive
rates of primitives.py, then pairs of one untraced run and one traced run
(spans.py) of the same argv, giving the layer times of the traced run and
the tracing overhead against the untraced one.

Every run is checked: exit code 0, no traceback on stderr, no failed
verdict, the workload's invariants, and the report sha256 equal to the
pinned one at the default seed, or at any other seed equal across all runs.
Failures count towards ``failed``/``attempted`` (the error rate).  The last
line of stdout is the JSON result; details go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import spans
from workloads import DEFAULT_SEED, PINNED, WORKLOADS, Workload, cli_args

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
TRACER = Path(__file__).resolve().parent / "spans.py"

CLI = [sys.executable, "-m", "msolv.cli"]
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 150
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes
    stderr: str


def spawn(cmd: list) -> Sample:
    """Run one child to completion; resource usage from its own wait4."""
    out_path, err_path = OUT / "stdout.bin", OUT / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        code=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(errors="replace"),
    )


class Gate:
    """Checks every run of one workload and counts attempts and failures."""

    def __init__(self, workload: Workload, reference: Optional[str]):
        self.workload = workload
        # None: the first run's report hash becomes the reference
        self.reference = reference
        self.attempted = 0
        self.failures: list = []

    def fault(self, s: Sample) -> Optional[str]:
        if s.code != 0:
            return f"exit code {s.code}"
        if "Traceback" in s.stderr:
            return "traceback on stderr"
        digest = hashlib.sha256(s.stdout).hexdigest()
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            return f"report sha256 {digest} differs from reference {self.reference}"
        try:
            doc = json.loads(s.stdout)
            if not all(x["passed"] for x in doc["experiments"]):
                return "a verdict failed"
            return self.workload.check(doc)
        except ValueError:
            return "report is not JSON"
        except (KeyError, TypeError, IndexError) as e:
            return f"report lacks an expected field: {e!r}"

    def record(self, s: Sample, label: str) -> None:
        self.attempted += 1
        why = self.fault(s)
        if why is not None:
            self.failures.append(f"{label}: {why}")

    def record_help(self, s: Sample) -> None:
        self.attempted += 1
        if s.code != 0 or "Traceback" in s.stderr:
            self.failures.append(f"setup: --help exit code {s.code}")


def summary(values: list) -> dict:
    """Median, plus the highest percentile with at least 10 samples above it."""
    n = len(values)
    tail = None
    if n >= 11:
        tail = {"percentile": f"p{100 * (n - 10) // n}", "value": sorted(values)[n - 11]}
    return {"median": statistics.median(values), "tail": tail, "n": n, "samples": values}


def machine(seed: int) -> dict:
    def first_line_with(path: str, prefix: str) -> str:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
        return "unknown"

    with open("/proc/loadavg", encoding="utf-8") as fh:
        load1 = float(fh.read().split()[0])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": first_line_with("/proc/cpuinfo", "model name"),
        "loadavg_1m": load1,
        "seed": seed,
    }


def measure_end_to_end(gate: Gate, args: list, deadline: float) -> dict:
    helpcmd = CLI + [args[0], "--help"]
    spawn(helpcmd)  # fills the bytecode cache, which users do not pay per run
    setup = []
    for _ in range(SETUP_RUNS):
        s = spawn(helpcmd)
        gate.record_help(s)
        setup.append(s.wall_s)
    runs = []
    while True:
        s = spawn(CLI + args)
        gate.record(s, f"run {len(runs)}")
        runs.append(s)
        if time.perf_counter() + max(r.wall_s for r in runs) > deadline:
            break
    return {
        "setup_s": summary(setup),
        "wall_s": summary([r.wall_s for r in runs]),
        "cpu_s": summary([r.cpu_s for r in runs]),
        "peak_rss_mb": summary([r.peak_rss_mb for r in runs]),
    }


def measure_layers(gate: Gate, args: list, deadline: float) -> dict:
    sys.path.insert(0, str(SRC))
    from primitives import primitive_rates

    rates = primitive_rates()
    spans_path = OUT / "spans.json"
    untraced, traced, layers = [], [], []
    while True:
        s = spawn(CLI + args)
        gate.record(s, f"untraced run {len(untraced)}")
        untraced.append(s.wall_s)
        spans_path.unlink(missing_ok=True)
        s = spawn([sys.executable, str(TRACER), str(spans_path)] + args)
        gate.record(s, f"traced run {len(traced)}")
        traced.append(s.wall_s)
        if spans_path.exists():  # a child that died early wrote none
            with open(spans_path, encoding="utf-8") as fh:
                layers.append(spans.layer_metrics(json.load(fh)["spans"]))
        if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
            break
    base = statistics.median(untraced)
    metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    metrics.update(rates)
    metrics["trace.base_wall_s"] = base
    metrics["trace.overhead_ratio"] = (statistics.median(traced) - base) / base
    return {
        "metrics": metrics,
        "untraced_wall_s": summary(untraced),
        "traced_wall_s": summary(traced),
    }


def run_workload(workload: Workload, seed: int, seconds: int, traced: bool, spec: dict) -> dict:
    start = time.perf_counter()
    env = machine(seed)
    jobs = min(2, env["nproc"])
    args = cli_args(workload, seed, jobs, OUT)
    gate = Gate(workload, PINNED.get(workload.name) if seed == DEFAULT_SEED else None)
    deadline = start + seconds
    if traced:
        detail = measure_layers(gate, args, deadline)
        values = detail["metrics"]
        wanted = spec["per_layer"]
    else:
        detail = measure_end_to_end(gate, args, deadline)
        values = {k: v["median"] for k, v in detail.items()}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "workload": workload.name,
        "trace": int(traced),
        "machine": env,
        "argv": ["msolv", *args],
        "detail": detail,
        "failures": gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "error_rate": len(gate.failures) / gate.attempted,
        "metrics": metrics,
    }
    (OUT / f"{workload.name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(result, indent=1))
    print_summary(result)
    return result


def print_summary(r: dict) -> None:
    env = r["machine"]
    print(
        f"== {r['workload']} seed={env['seed']} trace={r['trace']} nproc={env['nproc']} "
        f"python={env['python']} cpu={env['cpu_model']!r} load1={env['loadavg_1m']}"
    )
    print("   " + " ".join(r["argv"]))
    for name, m in r["metrics"].items():
        line = f"   {name:42} {m['value']:.6g} {m['unit']}"
        stats = r["detail"].get(name)
        if stats is not None:
            t = stats["tail"]
            tail_text = "tail n/a (needs 11 samples)" if t is None else f"{t['percentile']} {t['value']:.6g}"
            line += f"  (median of n={stats['n']}; {tail_text})"
        print(line)
    print(f"   {'error_rate':42} {r['error_rate']:.6g} ({r['failed']} failed / {r['attempted']} attempted)")
    for f in r["failures"]:
        print(f"   FAILED {f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    if not (SRC / "msolv" / "cli.py").is_file():
        print(f"perfbench: no msolv sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    results = [run_workload(WORKLOADS[n], ns.seed, ns.seconds, bool(ns.trace), spec) for n in names]
    if ns.workload == "all":
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    else:
        metrics = results[0]["metrics"]
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

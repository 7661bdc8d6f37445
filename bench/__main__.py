"""``python -m bench``: run the benchmark's workloads and report.

Usage (from the repository root)::

    python -m bench                            # all five workloads, seed 1
    python -m bench --workload sweep --seed 3  # one workload, another seed
    python -m bench --trace                    # per-layer metrics + trace

Each workload runs in a fresh child process (``bench.workloads``) with a
private scratch directory as its ``REPRO_CACHE_DIR``, for the
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says
otherwise.  Every end-to-end metric of ``BENCHMARK.json`` is printed as
``workload metric median unit (IQR, n=samples, bound)``, times and rates
rescaled to the reference host speed (``bench/hostspeed.py``); ``--trace``
prints the per-layer metrics instead and writes a Chrome trace.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Any failed operation or output mismatch exits 1; a
checkout without the program (``src/repro``) exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench.procs import become_subreaper, fixed_layout, reap_orphans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

#: Ambient settings that would change what a run measures or where it
#: writes; children never inherit them.
STRIPPED = ("REPRO_LEDGER", "REPRO_FAULTS", "REPRO_SANITIZE",
            "REPRO_CODE_CACHE", "REPRO_WORKLOAD_CACHE", "REPRO_CACHE_DIR",
            "PYTHONPATH")

CHILD_TIMEOUT = 170.0
STOP_TIMEOUT = 15.0


def summarize(samples: List[float]) -> Tuple[float, float, int]:
    """Median, interquartile range and count of ``samples``."""
    if len(samples) < 2:
        return samples[0], 0.0, len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q3 - q1, len(samples)


def run_child(workload: str, args: argparse.Namespace,
              trace_out: Path) -> Optional[Dict[str, Any]]:
    """Run one workload in a fresh child process; return its result."""
    tmp = ROOT / ".bench_tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    result = tmp / "result.json"
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED}
    # A fixed hash seed, like the fixed layout: see bench/procs.py.
    env.update(REPRO_CACHE_DIR=str(tmp / "cache"), TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
               PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "bench.workloads", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", str(args.scale),
           "--golden", str(args.golden), "--result", str(result),
           "--trace-out", str(trace_out)]
    if args.update_golden:
        cmd.append("--update-golden")
    try:
        child = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=sys.stderr,
                                 start_new_session=True,
                                 preexec_fn=fixed_layout())
        try:
            child.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"bench: {workload} did not finish in "
                  f"{CHILD_TIMEOUT:.0f}s", file=sys.stderr)
        finally:
            if child.poll() is None:
                # Ctrl-C or timeout: the child stops its services on SIGTERM.
                os.killpg(child.pid, signal.SIGTERM)
                try:
                    child.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    os.killpg(child.pid, signal.SIGKILL)
                    child.wait()
            reap_orphans()
        return json.loads(result.read_text())
    except (OSError, ValueError):
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(spec: Dict[str, Any], workload: str,
           result: Optional[Dict[str, Any]], trace: bool,
           ) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """Print one workload's lines; return its summary and metric values."""
    if result is None:
        print(f"{workload} FAILED: the workload produced no result")
        return {"attempted": 1, "failed": 1}, {}
    metrics: Dict[str, Dict[str, Any]] = {}
    summary: Dict[str, Any] = {
        key: result[key] for key in ("attempted", "failed", "failures",
                                     "notes", "fingerprint", "inputs",
                                     "trace_file")}
    if trace:
        summary["layers"] = result["layers"]
        for layer in spec["per_layer"]:
            value = (result["layers"] or {}).get(layer["name"])
            if value is None:
                continue
            metrics[layer["name"]] = {"value": value, "unit": layer["unit"]}
            print(f"{workload} {layer['name']} {value:.6g} {layer['unit']}")
    else:
        if result["speeds"]:
            speed = summary["host_speed"] = statistics.median(result["speeds"])
            print(f"{workload} host_speed {speed:.4g} (median; times and "
                  "rates below are rescaled to the reference speed)")
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            samples = result["samples"].get(name)
            if not samples:
                print(f"{workload} {name} missing")
                continue
            median, iqr, n = summarize(samples)
            metrics[name] = {"value": median, "unit": unit}
            summary.setdefault("metrics", {})[name] = {
                "median": median, "iqr": iqr, "n": n, "unit": unit,
                "bound": metric["bound"], "samples": samples,
                "raw_samples": result["raw_samples"][name]}
            print(f"{workload} {name} {median:.6g} {unit} "
                  f"(IQR {iqr / median:.1%}, n={n}, "
                  f"bound {metric['bound']:.0%})")
    attempted, failed = result["attempted"], result["failed"]
    summary["failed_ratio"] = failed / attempted if attempted else 1.0
    print(f"{workload} failed_ratio {summary['failed_ratio']:.4g} ratio "
          f"({failed} of {attempted} operations failed)")
    for note in result["notes"]:
        print(f"{workload} check: {note}")
    for failure in result["failures"]:
        print(f"{workload} FAILED: {failure.splitlines()[0]}")
    if result["trace_file"]:
        print(f"{workload} trace: {result['trace_file']}")
    return summary, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="seeded benchmark of the MicroLib reproduction")
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep repeating until this much has been "
                             "measured, after the minimum repeats "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer run: wrap the layers, print the "
                             "per-layer metrics, write a Chrome trace")
    parser.add_argument("--out", default=None,
                        help="JSON result file (default .bench_out/...)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every record count (tests use a "
                             "small scale; goldens are per scale)")
    parser.add_argument("--golden", default=str(GOLDEN),
                        help="golden directory (default bench/golden)")
    parser.add_argument("--update-golden", action="store_true",
                        help="write the goldens for this seed and scale")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: nothing to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(names)}")
    workloads = [args.workload] if args.workload else names
    label = f"{args.workload or 'all'}-seed{args.seed}"
    label += "-trace" if args.trace else ""
    out = Path(args.out) if args.out else ROOT / ".bench_out" / f"{label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)

    become_subreaper()
    host = {"host": platform.node(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}
    print(f"host {host['host']} nproc {host['nproc']} python "
          f"{host['python']} ({host['platform']})")
    print(f"seed {args.seed}, scale {args.scale}; load: one closed-loop "
          "caller, at most 2 worker processes")
    summaries: Dict[str, Any] = {}
    values: Dict[str, Dict[str, Any]] = {}
    for workload in workloads:
        trace_out = out.with_name(f"{out.stem}-{workload}.trace.json")
        result = run_child(workload, args, trace_out)
        summaries[workload], metrics = report(spec, workload, result,
                                              bool(args.trace))
        for name, value in metrics.items():
            values[name if args.workload else f"{workload}.{name}"] = value
    if not args.trace:
        print("no percentile is reported: no timing has ten samples "
              "beyond its median")
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = failed == 0 and len(values) == len(wanted) * len(workloads)
    out.write_text(json.dumps(
        {"host": host, "seed": args.seed, "scale": args.scale,
         "trace": bool(args.trace), "workloads": summaries},
        indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

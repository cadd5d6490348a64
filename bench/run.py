"""The repo's one wall-clock benchmark: every metric, by name, in one command.

    python bench/run.py [--seed 11] [--reps 3] [--workload NAME] [--quick]

runs each workload ``--reps`` times untraced (the end-to-end metrics) and
once traced (the per-layer split), every run in a fresh child process,
checks the outputs, prints each metric with its unit and writes
``bench/results/latest.json``.  ``BENCHMARK.json`` at the repo root names
the workloads, metrics, units and regression bounds.

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

is the form ``BENCHMARK.json``'s ``command`` is run in: one workload, one
untraced run (``--trace 0``: end-to-end metrics) or one untraced plus one
traced run (``--trace 1``: per-layer metrics), and a one-line JSON result
as the last line of output.  ``--seconds`` selects the size of the work —
sizes are the README's table times ``seconds / run_seconds`` — it is not a
deadline: work is fixed in steps so that outputs can be checked exactly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
DEFAULT_SEED = 11

#: A child is killed after this long: two children (one untraced, one
#: traced) must fit in the 180 s the contract gives one invocation.
CHILD_TIMEOUT_S = 80

_run_ids = itertools.count()


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ children


def run_child(
    name: str,
    seed: int,
    factor: float,
    quick: bool,
    traced: bool = False,
    dump_spans: bool = False,
) -> dict:
    """One run of ``name`` in a fresh interpreter; returns its record.

    The child gets a private ``TMPDIR`` under ``results/`` so tier scratch
    files stay inside the checkout; anything it leaves there is a leak.  A
    child that dies is reported as one failed operation, never raised.
    """
    tmp = RESULTS / "tmp" / f"{os.getpid()}-{next(_run_ids)}"
    tmp.mkdir(parents=True)
    command = [
        sys.executable, str(BENCH_DIR / "workloads.py"), name,
        "--seed", str(seed), "--factor", repr(factor),
    ]
    if quick:
        command.append("--quick")
    if traced:
        command += ["--traced", "--trace-out", str(RESULTS / f"trace-{name}.json")]
    if dump_spans:
        command.append("--dump-spans")
    env = {**os.environ, "TMPDIR": str(tmp), "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        reason = f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except subprocess.TimeoutExpired:
        record, reason = None, f"child ran longer than {CHILD_TIMEOUT_S} s"
    except json.JSONDecodeError:
        record, reason = None, f"child printed no result:\n{proc.stdout[-2000:]}"
    left_behind = sorted(p.name for p in tmp.iterdir())
    shutil.rmtree(tmp)
    if record is None:
        return {
            "workload": name, "traced": traced, "ops_attempted": 1, "ops_failed": 1,
            "failures": [reason], "warnings": [], "fingerprint": {},
        }
    if left_behind:
        record["failures"].append(f"left in its temp dir: {left_behind}")
        record["ops_failed"] = min(
            record["ops_attempted"], record["ops_failed"] + len(left_behind)
        )
    return record


def run_workload(name: str, spec: dict, args, reps: int, traced: bool) -> dict:
    """``reps`` untraced runs and, if asked, one traced run of ``name``."""
    factor = args.seconds / spec["run_seconds"]
    runs = [run_child(name, args.seed, factor, args.quick) for _ in range(reps)]
    good = [r for r in runs if "wall_s" in r]
    end_to_end = {}
    for metric in spec["end_to_end"]:
        samples = [r[metric["name"]] for r in good]
        if samples:
            end_to_end[metric["name"]] = {
                "median": statistics.median(samples),
                "min": min(samples),
                "max": max(samples),
                "n": len(samples),
                "unit": metric["unit"],
            }
    per_layer = {}
    if traced:
        trace_run = run_child(
            name, args.seed, factor, args.quick, traced=True,
            dump_spans=args.dump_spans,
        )
        runs.append(trace_run)
        if good and "wall_s" in trace_run:
            per_layer = finish_layers(trace_run, good)
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in runs}
    failures = [text for r in runs for text in r["failures"]]
    warnings = [text for r in runs for text in r["warnings"]]
    if len(fingerprints) > 1:
        failures.append(f"runs disagree on the outputs: {sorted(fingerprints)}")
    return {
        "ops_attempted": sum(r["ops_attempted"] for r in runs),
        "ops_failed": sum(r["ops_failed"] for r in runs)
        + (len(fingerprints) > 1) * runs[0]["ops_attempted"],
        "failures": failures,
        "warnings": warnings,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "fingerprint": runs[0]["fingerprint"],
        "fingerprint_pinned": runs[0].get("fingerprint_pinned", False),
        "python": runs[0].get("python"),
        "numpy": runs[0].get("numpy"),
    }


def finish_layers(trace_run: dict, untraced: list[dict]) -> dict:
    """The traced run's layer metrics plus the ones that need both runs."""
    layers = dict(trace_run["layers"])
    wall = statistics.median(r["wall_s"] for r in untraced)
    layers["trace.overhead_pct"] = 100.0 * (trace_run["wall_s"] - wall) / wall
    if "single_worker_ops_per_s" in trace_run:
        # Wall-clock facts about the worker processes come from an
        # untraced run; only the span split is read from the traced one.
        layers.update(
            (k, v) for k, v in untraced[0]["layers"].items() if k.startswith("mp.")
        )
        layers["mp.speedup_vs_1"] = (
            statistics.median(r["ops_per_s"] for r in untraced)
            / trace_run["single_worker_ops_per_s"]
        )
    return layers


# -------------------------------------------------------------------- output


def host_record() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "host_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
        "commit": commit or "unknown",
    }


def print_workload(name: str, result: dict, spec: dict) -> None:
    pinned = "pinned" if result["fingerprint_pinned"] else "sanity checks only"
    print(
        f"\n{name}: ops_attempted {result['ops_attempted']}, "
        f"ops_failed {result['ops_failed']} (outputs: {pinned})"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for warning in result["warnings"]:
        print(f"  WARNING: {warning}")
    for metric, row in result["end_to_end"].items():
        print(
            f"  {metric:<28}{row['median']:>14.4f} {row['unit']:<6}"
            f" min {row['min']:.4f} max {row['max']:.4f} n={row['n']}"
        )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    zero = [m for m, value in result["per_layer"].items() if not value]
    for metric, value in result["per_layer"].items():
        if value:
            digits = 0 if units[metric] in ("count", "bytes") else 4
            print(f"  {metric:<28}{value:>14.{digits}f} {units[metric]}")
    if zero:
        print("  zero here: " + " ".join(zero))


def contract_line(result: dict, spec: dict, trace: int) -> str:
    """The one-line result ``BENCHMARK.json``'s contract asks for."""
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": row["median"], "unit": row["unit"]}
            for name, row in result["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": result["ops_failed"] == 0,
            "attempted": result["ops_attempted"],
            "failed": result["ops_failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, help="untraced runs per workload (default 3; 1 with --trace)")
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--quick", action="store_true",
                        help="divide every size by 8 (smoke use; not comparable)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="nominal length of a timed region; scales the work")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="print the contract's one-line result for --workload")
    parser.add_argument("--dump-spans", action="store_true",
                        help="keep every raw span in results/trace-<workload>.json")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS / "latest.json")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    reps = args.reps or (3 if args.trace is None else 1)

    RESULTS.mkdir(exist_ok=True)
    report = {
        **host_record(),
        "seed": args.seed,
        "reps": reps,
        "seconds": args.seconds,
        "scale_factor": args.seconds / spec["run_seconds"],
        "quick": args.quick,
        "comparable": not args.quick,
        "workloads": {},
    }
    for name in [args.workload] if args.workload else names:
        result = run_workload(name, spec, args, reps, traced=args.trace != 0)
        report["workloads"][name] = result
        print_workload(name, result, spec)
    args.out.write_text(json.dumps(report, indent=1))
    failed = sum(r["ops_failed"] for r in report["workloads"].values())
    print(f"\nwrote {args.out}; {failed} failed operations")
    if args.trace is not None:
        print(contract_line(report["workloads"][args.workload], spec, args.trace))
    return 1 if failed and args.trace is None else 0


if __name__ == "__main__":
    sys.exit(main())

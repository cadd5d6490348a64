"""Compare two result files of ``bench/run.py`` against the fixed bounds.

    python bench/compare.py A.json B.json

``A`` is the parent commit's result, ``B`` the change's.  For every pair of
end-to-end metric and workload the verdict is

* ``worse``       B's median is worse than A's by more than the metric's
                  bound in ``BENCHMARK.json``;
* ``unresolved``  not worse, but either side's own min-max spread is wider
                  than the bound (or it has fewer than two runs), so noise
                  this large could hide a regression: never read as "same";
* ``ok``          otherwise.

One row per workload.  Exits 1 on any ``worse`` or when B fails a larger
share of its operations than A, 2 when the two files cannot be compared.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, B's change as a share of A's median; positive = worse)``."""
    worse_by = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse_by = -worse_by
    spread = max((row["max"] - row["min"]) / row["median"] for row in (a, b))
    if worse_by > bound:
        return "worse", worse_by
    if spread > bound or min(a["n"], b["n"]) < 2:
        return "unresolved", worse_by
    return "ok", worse_by


def compare(a: dict, b: dict, spec: dict) -> tuple[list[list[str]], bool]:
    """Table rows (header first) and whether B regressed."""
    metrics = spec["end_to_end"]
    rows = [["workload"] + [m["name"] for m in metrics] + ["failed ops"]]
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        ra, rb = a["workloads"].get(workload), b["workloads"].get(workload)
        if ra is None or rb is None:
            continue
        row = [workload]
        for metric in metrics:
            sides = [r["end_to_end"].get(metric["name"]) for r in (ra, rb)]
            if None in sides:
                row.append("missing")
                regressed = True
                continue
            word, worse_by = verdict(*sides, metric["better"], metric["bound"])
            regressed |= word == "worse"
            row.append(f"{word} {100 * worse_by:+.1f}%")
        shares = [r["ops_failed"] / r["ops_attempted"] for r in (ra, rb)]
        more_failures = shares[1] > shares[0]
        regressed |= more_failures
        row.append(
            f"{'worse' if more_failures else 'ok'} "
            f"{ra['ops_failed']}/{ra['ops_attempted']} -> "
            f"{rb['ops_failed']}/{rb['ops_attempted']}"
        )
        rows.append(row)
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in paths)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("seed", "scale_factor", "quick"):
        if a[key] != b[key]:
            print(f"not comparable: {key} is {a[key]} in A, {b[key]} in B",
                  file=sys.stderr)
            return 2
    rows, regressed = compare(a, b, spec)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    print(f"A {a['commit'][:12]} ({a['host_cpus']} cpus)  "
          f"B {b['commit'][:12]} ({b['host_cpus']} cpus)  "
          "change is B against A's median, positive = worse")
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    if not a["comparable"]:
        print("note: --quick results; sizes are too small to compare speeds")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

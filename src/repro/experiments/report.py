"""EXPERIMENTS.md generation: paper values next to measured values.

``generate_report`` runs every registered experiment at its *report* scale
(larger than the test scale, still laptop-friendly) and renders a markdown
document with, per experiment: the paper's published numbers/claims, our
measured table, and the shape that reproduced.
"""

from __future__ import annotations

import time

from repro.experiments.paper_reference import PAPER_REFERENCES
from repro.experiments.registry import list_experiments, run_experiment

#: Per-experiment overrides for the full report run (defaults otherwise).
REPORT_SETTINGS: dict[str, dict] = {
    "table1": {"scale": 0.1, "epochs": 3},
    "fig2": {"scale": 0.2},
    "table2": {"scale": 1.0},
    "table3": {"scale": 0.1, "epochs": 10},
    "table4": {"scale": 0.1, "epochs": 10},
    "table5": {"scale": 0.3, "epochs": 6},
    "fig5": {"scale": 0.1, "epochs": 10},
    "fig6": {"scale": 0.1, "epochs": 2},
    "fig7": {"scale": 0.1, "epochs": 3},
    "fig8a": {"scale": 0.1, "epochs": 3},
    "fig8b": {"scale": 0.1, "epochs": 8},
    "fig8c": {"scale": 0.1, "epochs": 2},
    "fig9": {"scale": 0.1, "epochs": 12},
    "table6": {"scale": 0.1},
    "table7": {"scale": 0.1, "epochs": 8},
    "ablation-partition": {"scale": 0.1, "epochs": 2},
    "ablation-negatives": {"scale": 0.1},
    "ablation-dps-window": {"scale": 0.1, "epochs": 3},
    "ablation-compression": {"scale": 0.1, "epochs": 4},
    "ablation-policies-extended": {"scale": 0.1},
    "ablation-model-zoo": {"scale": 0.05, "epochs": 6},
    "serving-cache": {"scale": 0.1, "epochs": 2},
    "serving-batcher": {"scale": 0.1, "epochs": 2},
    "serving-scale": {"scale": 0.02, "epochs": 1},
    "fault-tolerance": {"scale": 0.05, "epochs": 3},
    "streaming-drift": {"scale": 0.05, "epochs": 3},
    "memory-tiering": {"scale": 23.3, "epochs": 2},
    "cache-shootout": {"scale": 0.05},
    "negative-sampling": {"scale": 0.05, "epochs": 6},
}

_HEADER = """# EXPERIMENTS — paper vs measured

Generated by `python -m repro report`. Every table and figure of the
paper's evaluation (§VI) is regenerated on this repository's simulated
cluster (see DESIGN.md §2 for the substitutions). Absolute numbers are not
comparable to the authors' 4x32-core/1 Gbps testbed — the **shape** column
states the relationship each experiment is expected to reproduce, and the
measured table shows it.

All runs are deterministic (seeded); regenerate any single entry with
`python -m repro run <id> --scale <s> --epochs <e>`.
"""


def render_section(name: str) -> str:
    """Run one experiment and render its markdown section."""
    ref = PAPER_REFERENCES.get(name)
    settings = REPORT_SETTINGS.get(name, {})
    start = time.time()
    text = run_experiment(name, **settings).to_text()
    elapsed = time.time() - start
    lines = [f"## {name}"]
    if ref is not None:
        lines.append(f"**Paper ({ref.paper_label}).** {ref.paper_values}")
        lines.append(f"**Shape to reproduce.** {ref.shape}")
    pretty = ", ".join(f"{k}={v}" for k, v in settings.items()) or "defaults"
    lines.append(f"**Measured** (settings: {pretty}; wall {elapsed:.0f}s):")
    lines.append("```")
    lines.append(text)
    lines.append("```")
    return "\n\n".join(lines)


def generate_report(
    only: list[str] | None = None,
    verbose: bool = True,
    output: str | None = None,
    append: bool = False,
) -> str:
    """Run all (or ``only``) experiments and return the markdown report.

    When ``output`` is given, sections are flushed to the file as each
    experiment finishes, so a long run's partial progress survives
    interruption (rerun with ``only=`` the missing ids and ``append=True``).
    """
    names = only if only is not None else list_experiments()
    sections = [] if append else [_HEADER]
    handle = None
    if output is not None:
        handle = open(output, "a" if append else "w", encoding="utf-8")
        if not append:
            handle.write(_HEADER + "\n\n")
            handle.flush()
    try:
        for name in names:
            if verbose:
                print(f"[report] running {name} ...", flush=True)
            section = render_section(name)
            sections.append(section)
            if handle is not None:
                handle.write(section + "\n\n")
                handle.flush()
    finally:
        if handle is not None:
            handle.close()
    return "\n\n".join(sections) + "\n"

"""Command-line interface: regenerate any paper experiment.

Usage::

    python -m repro list
    python -m repro run table3 --scale 0.05 --seed 0
    python -m repro run all --scale 0.02

``run all`` regenerates every table and figure (at the given scale) and is
what produced EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import difflib
import sys
import time
from typing import Any, Callable, NamedTuple

from repro.core.baselines import NEG_CACHE_REASON
from repro.experiments.registry import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
    run_experiments,
)
from repro.mp import backend as mp_backend
from repro.serving.cache import ServingCache, cache_policies


def _count(text: str) -> int:
    """argparse ``type`` of a count flag: an integer >= 1, so a zero or
    negative count exits 2 at parse time with the flag named."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="record a repro.obs span trace and write Chrome-trace JSON here "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )


#: Free-text options validated by hand, so a typo gets a did-you-mean
#: instead of argparse's terse choices dump: dest -> (what the error calls
#: it, plural for the "valid ..." line, the values it accepts).
CHOICES: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "backend": ("backend", "backends", ("sim", "mp")),
    "neg_cache": ("--neg-cache mode", "modes", ("off", "nscaching", "auto")),
    "experiment": ("experiment", "ids", ("all", *list_experiments())),
    "only": ("experiment", "ids", tuple(list_experiments())),
}


class Rule(NamedTuple):
    """``flag`` (as typed) cannot be used where a ``blocked_in`` context holds."""

    flag: str
    commands: tuple[str, ...]  #: subcommands that carry the flag
    engaged: Callable[[Any], bool]  #: did this invocation use it?
    blocked_in: tuple[str, ...]  #: names from :data:`CONTEXTS`
    reason: str


def _given(dest: str) -> Callable[[Any], bool]:
    return lambda args: getattr(args, dest) is not None


def _is(dest: str, value: str) -> Callable[[Any], bool]:
    return lambda args: getattr(args, dest).lower() == value


#: Where a flag can be unusable: name -> (does it hold for this
#: invocation?, how the error line says so).  Predicates read attributes
#: with a default because not every subcommand has every flag.
CONTEXTS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "mp": (
        lambda args: getattr(args, "backend", None) == "mp",
        "is not supported with --backend mp (see docs/parallelism.md)",
    ),
    "sim": (
        lambda args: getattr(args, "backend", None) == "sim",
        "requires --backend mp",
    ),
    "pbg": (
        lambda args: getattr(args, "system", "").lower() == "pbg",
        "is not supported for the PBG baseline",
    ),
    "resident": (
        lambda args: getattr(args, "backing", None) == "resident",
        "requires --backing tiered",
    ),
    "checkpoint": (
        lambda args: getattr(args, "checkpoint", None) is not None,
        "cannot be combined with --checkpoint",
    ),
    "stream": (
        lambda args: args.command == "stream",
        "is not supported by the stream command",
    ),
}

_TRAIN, _SERVE = ("train",), ("serve-bench",)
_MP_ONLY = mp_backend.MP_ONLY_REASON
_OVERLOAD = (
    "the overload layer (admission windows, shed ladders, deploy swaps, "
    "retrying pulls) is stateful per stream and modelled single-frontend"
)

#: Every flag-compatibility rule of ``train``/``serve-bench``/``stream``,
#: stated once.  :func:`usage_errors` checks an invocation against it
#: before any work starts; it is plain data, so a scenario generator can
#: use the same rows as its validity oracle.  The ``mp``, ``sim`` and
#: ``pbg`` rows of ``train`` quote the reasons ``HETKGTrainer.train``
#: raises (:mod:`repro.mp.backend`, :mod:`repro.core.baselines`).
RULES: tuple[Rule, ...] = (
    Rule("--trace", _TRAIN + _SERVE, _given("trace"), ("mp",), mp_backend.TRACE_REASON),
    Rule("--faults", _TRAIN, _given("faults"), ("mp", "pbg"), mp_backend.FAULTS_REASON),
    Rule("--checkpoint-every", _TRAIN, _given("checkpoint_every"), ("mp", "pbg"),
         mp_backend.CHECKPOINT_REASON),
    Rule("--backing tiered", _TRAIN + _SERVE, _is("backing", "tiered"), ("mp",),
         mp_backend.TIERED_REASON),
    Rule("--system pbg", _TRAIN + ("stream",), _is("system", "pbg"), ("mp", "stream"),
         mp_backend.PBG_REASON),
    Rule("--neg-cache", _TRAIN, lambda args: args.neg_cache not in (None, "off"), ("pbg",),
         NEG_CACHE_REASON),
    Rule("--tenants", _SERVE, _given("tenants"), ("mp",), _OVERLOAD),
    Rule("--admission", _SERVE, _given("admission"), ("mp",), _OVERLOAD),
    Rule("--slo", _SERVE, _given("slo"), ("mp",), _OVERLOAD),
    Rule("--faults", _SERVE, _given("faults"), ("mp",), _OVERLOAD),
    Rule("--deploy-every", _SERVE, _given("deploy_every"), ("mp",), _OVERLOAD),
    Rule("--deploy-every", _SERVE, _given("deploy_every"), ("checkpoint",),
         "it snapshots a live trainer, which a served checkpoint does not have"),
    Rule("--memory-budget", _TRAIN + _SERVE, _given("memory_budget"), ("resident",),
         "it is the tiered store's resident-byte budget"),
    Rule("--mp-schedule", _TRAIN + _SERVE, _given("mp_schedule"), ("sim",), _MP_ONLY),
    Rule("--mp-staleness", _TRAIN + _SERVE, _given("mp_staleness"), ("sim",), _MP_ONLY),
    Rule("--mp-start", _TRAIN + _SERVE, _given("mp_start"), ("sim",), _MP_ONLY),
    Rule("--mp-workers", _SERVE, _given("mp_workers"), ("sim",), _MP_ONLY),
)


def usage_errors(args: Any) -> list[str]:
    """One line per :data:`RULES` row this invocation violates."""
    return [
        f"{rule.flag} {CONTEXTS[context][1]}: {rule.reason}"
        for rule in RULES
        if args.command in rule.commands and rule.engaged(args)
        for context in rule.blocked_in
        if CONTEXTS[context][0](args)
    ]


def _check_usage(args: argparse.Namespace) -> int:
    """Reject unknown values, malformed specs and incompatible flags on
    stderr with exit code 2, before any work starts; 0 means the
    invocation may run."""
    for dest, (what, plural, valid) in CHOICES.items():
        given = getattr(args, dest, None)
        for value in given if isinstance(given, list) else [given]:
            if value is not None and value not in valid:
                close = difflib.get_close_matches(value, valid, n=3, cutoff=0.4)
                print(f"unknown {what} {value!r}", file=sys.stderr)
                if close:
                    print("did you mean: " + ", ".join(close), file=sys.stderr)
                print(f"valid {plural}: " + ", ".join(valid), file=sys.stderr)
                return 2
    errors = usage_errors(args) + _spec_errors(args)
    for line in errors:
        print(line, file=sys.stderr)
    return 2 if errors else 0


def _spec_errors(args: Any) -> list[str]:
    """One ``<flag>: <message>`` line per spec-valued flag that does not
    parse, or whose fault plan names a machine or shard the run lacks."""
    from repro.experiments.common import base_config
    from repro.faults import FaultPlan
    from repro.serving.admission import AdmissionController
    from repro.tier.budget import parse_bytes

    errors = []
    for dest, parse in (
        ("faults", FaultPlan.parse),
        ("admission", AdmissionController.parse),
        ("memory_budget", parse_bytes),
    ):
        value = getattr(args, dest, None)
        if value is None:
            continue
        try:
            spec = parse(value)
            if dest == "faults" and hasattr(args, "machines"):
                # serve-bench trains its own store unless it serves a
                # checkpoint, which it splits over --machines shards.
                trains_own = args.command == "serve-bench" and args.checkpoint is None
                spec.check_cluster(
                    base_config().num_machines if trains_own else args.machines
                )
        except ValueError as exc:
            errors.append(f"--{dest.replace('_', '-')}: {exc}")
    return errors


def _add_neg_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--neg-cache",
        default=None,
        metavar="MODE",
        help="hard-negative cache: off (default), nscaching (per-key "
        "hard-negative caches with hotness-ordered refreshes), or auto "
        "(annealed exploration->exploitation; see docs/sampling.md)",
    )


def _add_backend_flags(
    parser: argparse.ArgumentParser, serving: bool = False
) -> None:
    parser.add_argument(
        "--backend",
        default="sim",
        metavar="NAME",
        help="execution backend: sim (single-process simulator, default) "
        "or mp (real worker processes over shared memory; see "
        "docs/parallelism.md)",
    )
    parser.add_argument(
        "--mp-schedule",
        default=None,
        choices=["sync", "async"],
        help="mp step schedule: sync (turn-taking, bit-identical to the "
        "simulator) or async (hogwild under a staleness bound, the "
        "default and fast path)",
    )
    parser.add_argument(
        "--mp-staleness",
        type=_count,
        default=None,
        metavar="S",
        help="async schedule: max steps any worker may run ahead of the "
        "slowest (default: the cache sync period P)",
    )
    parser.add_argument(
        "--mp-start",
        default=None,
        choices=["spawn", "fork", "forkserver"],
        help="multiprocessing start method (default: spawn)",
    )
    if serving:
        parser.add_argument(
            "--mp-workers",
            type=_count,
            default=None,
            metavar="N",
            help="frontend replica processes for --backend mp "
            "(default: one per available core)",
        )


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults (repro.faults), e.g. "
        "'drop=0.05', 'drop=0.2@10:200,crash=w1@25,seed=7', "
        "'ps-out=0@30:40', 'delay=0.1x0.05', 'slow=w2x3@20:40'",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=_count,
        default=None,
        metavar="N",
        help="auto-checkpoint the global state every N iterations "
        "(crash recovery rewinds a dead machine's shard to the last "
        "snapshot; with --checkpoint PATH snapshots are also written "
        "to disk atomically)",
    )


def _add_tier_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backing",
        default="resident",
        choices=["resident", "tiered"],
        help="embedding table backing: resident (dense in-memory, default) "
        "or tiered (hot/warm/cold rows under --memory-budget; see "
        "docs/memory.md)",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="resident-byte budget for --backing tiered, e.g. '64M' or "
        "'1G' (default: unlimited)",
    )
    parser.add_argument(
        "--tier-block-rows",
        type=_count,
        default=64,
        metavar="N",
        help="rows per residency block (tiered backing promotion granularity)",
    )
    parser.add_argument(
        "--tier-cold-codec",
        default="int8",
        choices=["none", "fp16", "int8"],
        help="quantizer for long-idle blocks (tiered backing)",
    )
    parser.add_argument(
        "--tier-dir",
        default=None,
        metavar="DIR",
        help="scratch directory for tiered memmap shards "
        "(default: private temp dir, removed on exit)",
    )


def _tier_config(args: argparse.Namespace):
    """Build a TierConfig from CLI flags (None for the resident backing)."""
    if args.backing != "tiered":
        return None
    from repro.tier import TierConfig, TierPolicy

    return TierConfig(
        budget=args.memory_budget,
        policy=TierPolicy(
            block_rows=args.tier_block_rows, cold_codec=args.tier_cold_codec
        ),
        directory=args.tier_dir,
    )


def _print_memory_report(report: dict) -> None:
    from repro.tier.budget import format_bytes

    tables = report.get("tables", {})
    per_kind = ", ".join(
        f"{kind}: hot {t.get('hot_blocks', 0)}/cold {t.get('cold_blocks', 0)}"
        f"/warm {t.get('warm_blocks', 0)} blocks, hit {t.get('hit_ratio', 0.0):.3f}"
        for kind, t in tables.items()
        if t.get("backing") == "tiered"
    )
    print(
        f"memory: resident {format_bytes(report['resident_bytes'])} of "
        f"{format_bytes(report['logical_bytes'])} logical "
        f"(budget {format_bytes(report['budget_bytes'])})"
        + (f" | {per_kind}" if per_kind else "")
    )


def _neg_cache_line(stats: dict) -> str:
    """The ``neg cache:`` summary ``train`` and ``stream`` print."""
    return (
        f"neg cache: {stats.get('refreshes', 0)} refreshes over "
        f"{stats.get('refreshed_keys', 0)} keys, "
        f"{stats.get('candidates_scored', 0)} candidates scored, "
        f"{stats.get('hard_negatives_served', 0)} hard negatives "
        f"served, {stats.get('cache_keys', 0)} keys cached, "
        f"{stats.get('pending_keys', 0)} pending, "
        f"{stats.get('refresh_bytes', 0) / 1e6:.1f} MB refresh "
        f"traffic, {stats.get('neg_cache_time', 0.0):.3f}s simulated"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetkg",
        description="HET-KG reproduction: regenerate the paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment ids")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument("--scale", type=float, default=None, help="dataset scale factor")
    run.add_argument("--epochs", type=_count, default=None, help="training epochs")
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments on N worker processes (useful with 'all'; "
        "results print in deterministic order regardless)",
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault spec forwarded to runners that support chaos "
        "(currently 'fault-tolerance'), e.g. 'drop=0.1,crash=w1@20'",
    )
    _add_neg_cache_flag(run)
    _add_trace_flag(run)

    report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md (paper vs measured)"
    )
    report.add_argument(
        "--output", default="EXPERIMENTS.md", help="markdown file to write"
    )
    report.add_argument(
        "--only", nargs="+", default=None, help="subset of experiment ids"
    )
    report.add_argument(
        "--append",
        action="store_true",
        help="append sections to an existing report (resume a partial run)",
    )

    train = sub.add_parser(
        "train",
        help="train a KGE model on a built-in or TSV dataset",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  hetkg train --dataset fb15k --system hetkg-d\n"
            "  hetkg train --faults 'drop=0.05' --checkpoint-every 8\n"
            "  hetkg train --faults 'drop=0.2@10:60,crash=w1@25,seed=7' \\\n"
            "      --checkpoint-every 4 --checkpoint state.npz\n"
            "  hetkg train --faults 'ps-out=0@30:40,slow=w2x3@20:40'\n"
            "(see docs/fault_tolerance.md for the full --faults grammar)"
        ),
    )
    source = train.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset", default="fb15k", help="built-in synthetic dataset name"
    )
    source.add_argument("--tsv", default=None, help="path to a head\\trel\\ttail file")
    train.add_argument("--scale", type=float, default=0.05, help="dataset scale")
    train.add_argument(
        "--system",
        default="hetkg-d",
        help="hetkg-c | hetkg-d | dglke | pbg",
    )
    train.add_argument("--model", default="transe", help="scoring model name")
    train.add_argument("--dim", type=_count, default=16)
    train.add_argument("--epochs", type=_count, default=5)
    train.add_argument("--machines", type=_count, default=4)
    train.add_argument("--lr", type=float, default=0.1)
    train.add_argument("--batch-size", type=_count, default=128)
    train.add_argument("--negatives", type=_count, default=16)
    _add_neg_cache_flag(train)
    train.add_argument("--cache-capacity", type=_count, default=1024)
    train.add_argument("--sync-period", type=_count, default=8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--eval-queries", type=int, default=200, help="test triples to rank"
    )
    train.add_argument(
        "--checkpoint", default=None, help="write final embeddings here (.npz)"
    )
    _add_fault_flags(train)
    _add_trace_flag(train)
    _add_tier_flags(train)
    _add_backend_flags(train)

    serve = sub.add_parser(
        "serve-bench",
        help="replay a Zipfian inference workload against a trained model",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "overload examples:\n"
            "  hetkg serve-bench --rate 64000 --slo 0.01 \\\n"
            "      --admission 'gold=2000/256/p2,free=500/64,*=100'\n"
            "  hetkg serve-bench --faults 'drop=0.1,ps-out=0@5:8,retries=4x0.004'\n"
            "  hetkg serve-bench --cache-policy lru --deploy-every 500\n"
            "(see docs/serving.md for the admission grammar and shed ladder)"
        ),
    )
    serve.add_argument(
        "--checkpoint",
        default=None,
        help="serve this .npz checkpoint instead of training a fresh model",
    )
    serve.add_argument("--dataset", default="fb15k", help="dataset to train on")
    serve.add_argument("--scale", type=float, default=0.05, help="dataset scale")
    serve.add_argument("--epochs", type=_count, default=2, help="training epochs")
    serve.add_argument("--machines", type=_count, default=4, help="store shards")
    serve.add_argument("--queries", type=_count, default=4000, help="stream length")
    serve.add_argument(
        "--rate", type=float, default=2000.0, help="arrival rate (queries/s)"
    )
    serve.add_argument(
        "--zipf", type=float, default=1.1, help="workload Zipf exponent"
    )
    serve.add_argument(
        "--candidates", type=_count, default=16, help="candidates per prediction query"
    )
    serve.add_argument(
        "--hot-fraction",
        type=float,
        default=0.1,
        help="cache capacity as a fraction of all embedding rows",
    )
    serve.add_argument(
        "--cache-policy",
        default="static",
        choices=cache_policies(),
        help="serving cache variant (static = log-profiled hot set; "
        "the rest are reactive policies from the unified cache core)",
    )
    serve.add_argument("--max-batch", type=_count, default=32, help="batcher capacity")
    serve.add_argument(
        "--max-wait", type=float, default=2e-3, help="batcher timeout (s)"
    )
    serve.add_argument(
        "--byte-scale",
        type=float,
        default=25.0,
        help="wire-dimension byte multiplier (trainer default: 400/16)",
    )
    serve.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the cache-off comparison run",
    )
    serve.add_argument(
        "--tenants",
        default=None,
        metavar="NAMES",
        help="comma-separated tenant names assigned round-robin to the "
        "stream; the report gains per-tenant p99 latency (defaults to "
        "the --admission spec's tenants when that is given)",
    )
    serve.add_argument(
        "--admission",
        default=None,
        metavar="SPEC",
        help="per-tenant token-bucket admission, clauses "
        "'name=rate[/burst][/p<priority>]', e.g. "
        "'gold=2000/256/p2,free=500/64,*=100' ('*' = wildcard bucket); "
        "over-rate arrivals get the first-class 'rejected' outcome",
    )
    serve.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="SECONDS",
        help="enable deadline-projecting load shedding against this "
        "latency SLO (ladder: full answer -> truncated top-k -> shed)",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults into the shard-pull path "
        "(repro.faults grammar), e.g. "
        "'drop=0.1,ps-out=0@5:8,retries=4x0.004,seed=7'; exhausted "
        "retry budgets surface as 'timeout' outcomes, never crashes",
    )
    serve.add_argument(
        "--deploy-every",
        type=_count,
        default=None,
        metavar="N",
        help="snapshot the trainer and atomically swap the serving "
        "version every N measured queries (double-buffered; the cache "
        "is re-warmed from trainer hot membership before each swap)",
    )
    serve.add_argument(
        "--no-rewarm",
        action="store_true",
        help="skip pre-swap cache re-warming (the naive deployment: "
        "demonstrates the post-swap hit-ratio cliff)",
    )
    serve.add_argument("--seed", type=int, default=0)
    _add_trace_flag(serve)
    _add_tier_flags(serve)
    _add_backend_flags(serve, serving=True)

    stream = sub.add_parser(
        "stream",
        help="train online through a drifting graph-update stream",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  hetkg stream --profile rotation --system hetkg-a\n"
            "  hetkg stream --profile burst --system hetkg-d --interval 4\n"
            "  hetkg stream --profile none --system hetkg-c   # static replay\n"
            "(see docs/streaming.md for profiles and the ADAPTIVE strategy)"
        ),
    )
    stream.add_argument(
        "--dataset", default="fb15k", help="built-in synthetic dataset name"
    )
    stream.add_argument("--scale", type=float, default=0.05, help="dataset scale")
    stream.add_argument(
        "--system",
        default="hetkg-a",
        help="hetkg-a | hetkg-d | hetkg-c | dglke (PS trainers only)",
    )
    stream.add_argument(
        "--profile",
        default="rotation",
        help="drift profile: none | rotation | zipf-shift | burst",
    )
    stream.add_argument("--model", default="transe", help="scoring model name")
    stream.add_argument("--epochs", type=_count, default=3)
    stream.add_argument("--machines", type=_count, default=4)
    stream.add_argument("--cache-capacity", type=_count, default=1024)
    stream.add_argument(
        "--interval", type=_count, default=8, help="steps between stream updates"
    )
    stream.add_argument(
        "--inserts", type=_count, default=64, help="triples inserted per update"
    )
    stream.add_argument(
        "--eval-every",
        type=_count,
        default=32,
        help="prequential-evaluation cadence in steps",
    )
    stream.add_argument("--seed", type=int, default=0)
    _add_neg_cache_flag(stream)
    _add_trace_flag(stream)

    sweep = sub.add_parser(
        "sweep", help="sweep one TrainingConfig field and tabulate outcomes"
    )
    sweep.add_argument("param", help="TrainingConfig field, e.g. sync_period")
    sweep.add_argument(
        "values", nargs="+", help="values to try (ints/floats parsed automatically)"
    )
    sweep.add_argument("--dataset", default="fb15k")
    sweep.add_argument("--scale", type=float, default=0.05)
    sweep.add_argument("--system", default="hetkg-d")
    sweep.add_argument("--epochs", type=_count, default=4)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="train sweep points on N worker processes; the report is "
        "byte-identical to --jobs 1 (each point is an independent "
        "seeded run)",
    )
    return parser


def _train(args: argparse.Namespace) -> int:
    """The ``train`` subcommand: data -> trainer -> metrics (-> checkpoint)."""
    from repro.core.checkpoint import save_checkpoint
    from repro.core.config import TrainingConfig
    from repro.core.trainer import make_trainer
    from repro.kg.datasets import generate_dataset, load_tsv
    from repro.kg.splits import split_triples
    from repro.utils.tables import format_table

    if args.tsv is not None:
        graph = load_tsv(args.tsv)
        source = args.tsv
    else:
        graph = generate_dataset(args.dataset, scale=args.scale)
        source = f"{args.dataset} @ scale {args.scale}"
    split = split_triples(graph, seed=args.seed)
    print(f"dataset: {source} -> {graph}")

    config = TrainingConfig(
        model=args.model,
        dim=args.dim,
        epochs=args.epochs,
        num_machines=args.machines,
        lr=args.lr,
        batch_size=args.batch_size,
        num_negatives=args.negatives,
        neg_cache=args.neg_cache or "off",
        cache_capacity=args.cache_capacity,
        sync_period=args.sync_period,
        backing=args.backing,
        memory_budget=args.memory_budget,
        tier_block_rows=args.tier_block_rows,
        tier_cold_codec=args.tier_cold_codec,
        tier_dir=args.tier_dir,
        seed=args.seed,
    )
    fault_plan = None
    if args.faults:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.parse(args.faults)

    trainer = make_trainer(args.system, config)
    start = time.time()
    options = dict(
        faults=fault_plan, checkpoint_every=args.checkpoint_every,
        schedule=args.mp_schedule, staleness_bound=args.mp_staleness, start_method=args.mp_start,
    )
    if fault_plan is not None or args.checkpoint_every is not None:
        options["checkpoint_path"] = args.checkpoint  # otherwise only saved at the end
    # RULES turned down what this trainer and backend cannot take.
    result = trainer.train(
        split.train,
        eval_graph=split.test,
        known=graph,
        eval_max_queries=args.eval_queries,
        eval_candidates=None,
        backend=args.backend,
        **{name: value for name, value in options.items() if value is not None},
    )
    print(
        format_table(
            ["system", "MRR", "Hits@1", "Hits@10", "sim time (s)", "comm frac", "cache hits"],
            [
                [
                    result.system,
                    result.final_metrics.get("mrr", 0.0),
                    result.final_metrics.get("hits@1", 0.0),
                    result.final_metrics.get("hits@10", 0.0),
                    result.sim_time,
                    result.communication_fraction,
                    result.cache_hit_ratio,
                ]
            ],
        )
    )
    print(f"(wall time: {time.time() - start:.1f}s)")
    if args.backend == "mp":
        from repro.obs import reconcile

        print(reconcile(result).to_text())
    if config.backing == "tiered" and result.memory_report:
        _print_memory_report(result.memory_report)
        print(f"tier time: {result.tier_time:.3f}s simulated")
    if result.fault_stats:
        interesting = {
            k: v for k, v in result.fault_stats.items() if v
        }
        print(f"fault stats: {interesting or 'no faults fired'}")
    if result.neg_cache_stats:
        print(_neg_cache_line(result.neg_cache_stats))
    if args.checkpoint is not None:
        save_checkpoint(trainer, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _serve_bench(args: argparse.Namespace) -> int:
    """The ``serve-bench`` subcommand: checkpoint/train -> workload -> SLOs."""
    from repro.experiments.serving_study import split_warmup, trained_store
    from repro.serving.admission import AdmissionController, assign_tenants
    from repro.serving.metrics import ServingReport
    from repro.serving.store import EmbeddingStore
    from repro.serving.workload import WorkloadSpec, ZipfianWorkload
    from repro.utils.tables import format_table

    spec = WorkloadSpec(
        num_queries=args.queries,
        arrival_rate=args.rate,
        zipf_exponent=args.zipf,
        num_candidates=args.candidates,
        seed=args.seed + 11,
    )
    tier_cfg = _tier_config(args)
    trainer = None
    if args.checkpoint is not None:
        store = EmbeddingStore.from_checkpoint(
            args.checkpoint,
            num_machines=args.machines,
            backing=args.backing,
            tier=tier_cfg,
        )
        workload = ZipfianWorkload(store.num_entities, store.num_relations, spec)
        print(f"serving checkpoint {args.checkpoint}: {store}")
    else:
        store, bundle, trainer = trained_store(
            dataset=args.dataset,
            scale=args.scale,
            seed=args.seed,
            epochs=args.epochs,
        )
        workload = ZipfianWorkload.from_graph(bundle.graph, spec)
        print(f"trained {args.dataset} @ scale {args.scale}: {store}")
        if args.backing == "tiered":
            store = store.with_backing("tiered", tier_cfg)
            print(f"re-tiered for serving: {store.store.tier.budget!r}")

    warmup, measured = split_warmup(workload.generate())
    capacity = max(
        2, int(args.hot_fraction * (store.num_entities + store.num_relations))
    )
    title = (
        f"[serve-bench] {len(measured)} measured queries, "
        f"cache capacity {capacity} rows"
    )
    cache = ServingCache.from_policy(args.cache_policy, capacity, warmup)
    if args.backend == "mp":
        return _serve_bench_mp(args, store, measured, cache, title)

    tenant_names = [
        t.strip() for t in (args.tenants or "").split(",") if t.strip()
    ]
    if not tenant_names and args.admission is not None:
        tenant_names = [
            n for n in AdmissionController.parse(args.admission).specs if n != "*"
        ]
    queries = list(measured.queries)
    if tenant_names:
        queries = assign_tenants(queries, tenant_names)

    rows = []
    if not args.no_baseline:
        rows.append(_serve(args, store, trainer, queries, None)[0].as_row())
    report, frontend, deployment = _serve(args, store, trainer, queries, cache)
    rows.append(report.as_row())
    print(format_table(ServingReport.headers(), rows, title=title))
    print(
        f"throughput {report.throughput:.0f} q/s | "
        f"p50 {report.latency_p50 * 1e3:.3f} ms | "
        f"p95 {report.latency_p95 * 1e3:.3f} ms | "
        f"p99 {report.latency_p99 * 1e3:.3f} ms | "
        f"hit ratio {report.hit_ratio:.3f}"
    )
    print(
        f"outcomes: admitted {report.num_admitted} | "
        f"rejected {report.num_rejected} | shed {report.num_shed} | "
        f"timeout {report.num_timeout} | degraded {report.num_degraded}"
    )
    slo_note = f" (SLO {report.slo * 1e3:.1f} ms)" if report.slo is not None else ""
    print(
        f"shed rate {report.shed_rate:.3f} | "
        f"goodput {report.goodput:.0f} q/s{slo_note}"
    )
    if report.tenant_p99:
        print(
            "tenant p99: "
            + " | ".join(
                f"{t}={v * 1e3:.3f} ms" for t, v in report.tenant_p99.items()
            )
        )
    if frontend.injector is not None:
        stats = frontend.injector.stats
        print(
            f"faults: retries={stats.retries}, "
            f"retry wait={stats.retry_wait_seconds:.4f}s simulated"
        )
    if deployment is not None:
        versioned = deployment.versioned
        print(
            f"deploy: {versioned.swaps} swaps, "
            f"staleness {versioned.staleness} steps, "
            f"{deployment.warm_traffic.total_bytes / 1e6:.3f} MB re-warm traffic"
            + ("" if deployment.rewarm else " (re-warming off)")
        )
    if args.backing == "tiered":
        _print_memory_report(store.memory_report())
    return 0


def _frontend(args: argparse.Namespace, store, cache):
    """One serving frontend over ``store`` configured from the flags.

    Each overload knob (``--admission``, ``--slo``, ``--faults``) is off
    when its flag is absent.
    """
    from repro.faults import FaultPlan
    from repro.serving.admission import AdmissionController, LoadShedder
    from repro.serving.batcher import QueryBatcher
    from repro.serving.frontend import ServingFrontend

    return ServingFrontend(
        store,
        batcher=QueryBatcher(max_batch=args.max_batch, max_wait=args.max_wait),
        cache=cache,
        byte_scale=args.byte_scale,
        admission=(
            AdmissionController.parse(args.admission)
            if args.admission is not None
            else None
        ),
        shedder=LoadShedder(slo=args.slo) if args.slo is not None else None,
        faults=FaultPlan.parse(args.faults) if args.faults else None,
    )


def _serve(args: argparse.Namespace, store, trainer, queries, cache):
    """Replay ``queries`` through one simulated frontend configured from
    the flags -> ``(report, frontend, deployment)``.

    With ``--deploy-every`` the frontend serves a snapshot of ``trainer``
    and swaps in a fresh one between chunks; ``deployment`` is ``None``
    otherwise.
    """
    from repro.serving.deploy import (
        ContinuousDeployment,
        VersionedStore,
        snapshot_from_trainer,
    )

    if args.deploy_every is not None:
        store = VersionedStore(snapshot_from_trainer(trainer))
    frontend = _frontend(args, store, cache)
    if args.deploy_every is None:
        return frontend.run(queries), frontend, None
    deployment = ContinuousDeployment(store, frontend, rewarm=not args.no_rewarm)
    for start in range(0, len(queries), args.deploy_every):
        if start:
            deployment.publish(trainer, step=start)
        frontend.run(queries[start : start + args.deploy_every])
    return frontend.report(), frontend, deployment


def _serve_bench_mp(args: argparse.Namespace, store, measured, cache, title) -> int:
    """serve-bench over N frontend processes sharing one embedding store.

    Each replica runs its own copy of the frontend the flags configure
    (private cache and batcher) over a round-robin slice of the measured
    stream; the merged report's percentiles are exact over all
    completions (see :mod:`repro.mp.serve`).
    """
    from repro.mp.pool import default_jobs
    from repro.mp.serve import serve_mp
    from repro.serving.metrics import ServingReport
    from repro.utils.tables import format_table

    frontends = args.mp_workers or default_jobs()
    result = serve_mp(
        _frontend(args, store, cache),
        measured,
        num_frontends=frontends,
        start_method=args.mp_start,
    )
    rows = [r.as_row() for r in result.per_frontend]
    rows.append(result.report.as_row())
    print(
        format_table(
            ServingReport.headers(),
            rows,
            title=f"{title}, {frontends} frontend processes",
        )
    )
    merged = result.report
    print(
        f"merged: {merged.throughput:.0f} q/s simulated | "
        f"{result.wall_throughput:.0f} q/s wall | "
        f"p99 {merged.latency_p99 * 1e3:.3f} ms | "
        f"hit ratio {merged.hit_ratio:.3f} | "
        f"wall {result.wall_time_s:.2f}s across {frontends} processes"
    )
    return 0


def _stream(args: argparse.Namespace) -> int:
    """The ``stream`` subcommand: online training under hotness drift."""
    from repro.core.config import TrainingConfig
    from repro.core.trainer import make_trainer
    from repro.kg.datasets import generate_dataset
    from repro.stream import OnlineTrainer, make_stream
    from repro.utils.tables import format_table

    graph = generate_dataset(args.dataset, scale=args.scale)
    config = TrainingConfig(
        model=args.model,
        epochs=args.epochs,
        num_machines=args.machines,
        cache_capacity=args.cache_capacity,
        neg_cache=args.neg_cache or "off",
        seed=args.seed,
    )
    # The stream's horizon is the trainer's real step budget: the triples
    # are split over the machines, so it is known only after set-up.
    trainer = make_trainer(args.system, config)
    trainer.setup(graph)
    steps = config.epochs * trainer.steps_per_epoch
    knobs = (
        {}
        if args.profile == "none"
        else {"interval": args.interval, "inserts_per_update": args.inserts}
    )
    stream = make_stream(
        args.profile, graph, steps=steps, seed=args.seed + 17, **knobs
    )
    print(
        f"dataset: {args.dataset} @ scale {args.scale} -> {graph}\n"
        f"stream: profile={stream.profile} updates={len(stream.updates)} "
        f"inserts={stream.total_inserts} deletes={stream.total_deletes} "
        f"fingerprint={stream.fingerprint()[:12]}"
    )

    online = OnlineTrainer(trainer, stream, eval_every=args.eval_every)
    start = time.time()
    result = online.train(graph)
    print(
        format_table(
            [
                "system",
                "steps",
                "hit ratio",
                "sim time (s)",
                "ingest (s)",
                "remote MB",
                "preq. MRR",
                "rebuilds",
            ],
            [
                [
                    result.system,
                    result.steps,
                    result.cache_hit_ratio,
                    result.sim_time,
                    result.ingest_time,
                    result.comm_totals.remote_bytes / 1e6,
                    result.prequential.final_mrr,
                    result.adaptive_rebuilds,
                ]
            ],
        )
    )
    print(
        f"applied {result.updates_applied}/{len(stream.updates)} updates: "
        f"+{result.triples_inserted}/-{result.triples_deleted} triples, "
        f"+{result.entities_added} entities, +{result.relations_added} "
        f"relations, {result.cache_rows_invalidated} cache rows invalidated"
    )
    if result.neg_cache_stats:
        print(
            f"{_neg_cache_line(result.neg_cache_stats)}, "
            f"{result.neg_cache_keys_invalidated} keys invalidated by "
            "stream deletes"
        )
    print(f"(wall time: {time.time() - start:.1f}s)")
    return 0


def _parse_value(text: str):
    """Best-effort scalar parsing for sweep values."""
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    if text.lower() in ("none", "null"):
        return None
    return text


def _sweep(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: one-dimensional config sweep."""
    from repro.core.config import TrainingConfig
    from repro.experiments.sweep import run_sweep
    from repro.kg.datasets import generate_dataset
    from repro.kg.splits import split_triples

    graph = generate_dataset(args.dataset, scale=args.scale)
    split = split_triples(graph, seed=args.seed)
    config = TrainingConfig(
        epochs=args.epochs, seed=args.seed, cache_strategy="dps"
    )
    values = [_parse_value(v) for v in args.values]
    result = run_sweep(
        args.system,
        config,
        split,
        {args.param: values},
        known=graph,
        jobs=args.jobs,
    )
    print(f"dataset: {args.dataset} @ scale {args.scale} -> {graph}")
    print(result.to_text())
    best = result.best("sim_time", minimize=True)
    print(f"fastest: {args.param}={best[args.param]} ({best['sim_time']:.3f}s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    status = _check_usage(args)
    if status:
        return status

    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return _dispatch(args)

    from repro.obs import Tracer, set_tracer

    tracer = Tracer()
    set_tracer(tracer)
    try:
        status = _dispatch(args)
    finally:
        set_tracer(None)
        tracer.export(trace_path)
        print(f"trace written to {trace_path} (open in chrome://tracing)")
    return status


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for name in list_experiments():
            doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:22s} {doc}")
        return 0

    if args.command == "report":
        from repro.experiments.report import generate_report

        generate_report(only=args.only, output=args.output, append=args.append)
        print(f"wrote {args.output}")
        return 0

    if args.command == "train":
        return _train(args)

    if args.command == "serve-bench":
        return _serve_bench(args)

    if args.command == "stream":
        return _stream(args)

    if args.command == "sweep":
        return _sweep(args)

    names = list_experiments() if args.experiment == "all" else [args.experiment]
    settings = {
        name: getattr(args, name)
        for name in ("scale", "epochs", "seed", "faults", "jobs", "neg_cache")
    }

    jobs = args.jobs
    if jobs > 1 and len(names) > 1:
        start = time.time()
        for result in run_experiments(names, settings, jobs=jobs):
            print(result.to_text())
            print()
        print(
            f"({len(names)} experiments on {jobs} workers, "
            f"wall time: {time.time() - start:.1f}s)"
        )
        return 0

    for name in names:
        start = time.time()
        result = run_experiment(name, **settings)
        print(result.to_text())
        print(f"(wall time: {time.time() - start:.1f}s)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

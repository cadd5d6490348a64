"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import CONTEXTS, RULES, _build_parser, main, usage_errors


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "fig8a" in out


class TestRun:
    def test_run_table2(self, capsys):
        assert main(["run", "table2", "--scale", "0.015"]) == 0
        out = capsys.readouterr().out
        assert "[table2]" in out
        assert "fb15k" in out
        assert "wall time" in out

    def test_run_with_epochs_override(self, capsys):
        assert main(["run", "table1", "--scale", "0.015", "--epochs", "1"]) == 0
        assert "[table1]" in capsys.readouterr().out

    def test_unknown_experiment_exits_with_suggestions(self, capsys):
        assert main(["run", "table99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'table99'" in err
        assert "did you mean" in err
        assert "table7" in err

    def test_unknown_experiment_lists_valid_ids(self, capsys):
        # A name nothing like any id still gets the full list.
        assert main(["run", "zzzzz"]) == 2
        err = capsys.readouterr().err
        assert "valid ids" in err
        assert "table2" in err

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_epochs_ignored_when_not_accepted(self, capsys):
        # table2's runner takes no epochs parameter; the flag must not crash.
        assert main(["run", "table2", "--scale", "0.015", "--epochs", "3"]) == 0


class TestReport:
    def test_unknown_only_id_leaves_the_report_untouched(self, tmp_path, capsys):
        out = tmp_path / "EXPERIMENTS.md"
        out.write_text("# kept\n")
        assert main(["report", "--only", "tabel3", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'tabel3'" in err
        assert "did you mean: table3" in err
        assert out.read_bytes() == b"# kept\n"

    def test_only_needs_an_id(self, tmp_path):
        out = tmp_path / "EXPERIMENTS.md"
        out.write_text("# kept\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--only", "--output", str(out)])
        assert exit_info.value.code == 2
        assert out.read_bytes() == b"# kept\n"


class TestServeBench:
    def test_serve_bench_trains_and_serves(self, capsys):
        rc = main(
            [
                "serve-bench", "--dataset", "fb15k", "--scale", "0.015",
                "--epochs", "1", "--machines", "2", "--queries", "400",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "no-cache" in out
        assert "p99" in out
        assert "hit" in out
        assert "outcomes: admitted 300 | rejected 0 | shed 0 | timeout 0 | degraded 0" in out
        assert "shed rate 0.000 | goodput " in out

    def test_serve_bench_from_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "serve.npz"
        assert main(
            [
                "train", "--dataset", "fb15k", "--scale", "0.015",
                "--epochs", "1", "--machines", "2", "--eval-queries", "2",
                "--checkpoint", str(ckpt),
            ]
        ) == 0
        capsys.readouterr()
        rc = main(
            [
                "serve-bench", "--checkpoint", str(ckpt), "--machines", "2",
                "--queries", "400", "--cache-policy", "lru",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lru" in out

    def test_overload_flags_report_outcomes_faults_and_tenants(self, capsys):
        out = _serve_bench_out(capsys, *SERVE_OVERLOAD)
        assert _row(out, "static") == [
            "static", "450", "2479.694", "4.497", "4.547", "6.677", "6.719",
            "0.196", "0.622", "32.000", "0.716", "705.335",
        ]
        assert "outcomes: admitted 128 | rejected 31 | shed 259 | timeout 32 | degraded 30" in out
        assert "shed rate 0.716 | goodput 705 q/s (SLO 10.0 ms)" in out
        assert "tenant p99: free=6.706 ms | gold=6.716 ms | silver=6.709 ms" in out
        assert "faults: retries=4, retry wait=0.1733s simulated" in out
        assert _row(out, "no-cache")[:2] == ["no-cache", "450"]

    def test_deploy_every_swaps_between_chunks(self, capsys):
        out = _serve_bench_out(capsys, "--deploy-every", "200")
        assert _row(out, "static") == [
            "static", "450", "2002.049", "2.345", "2.400", "3.309", "3.498",
            "0.181", "3.496", "4.945", "0.000", "2002.049",
        ]
        assert "outcomes: admitted 450 | rejected 0 | shed 0 | timeout 0 | degraded 0" in out
        assert "shed rate 0.000 | goodput 2002 q/s" in out
        assert "deploy: 2 swaps, staleness 0 steps, 1.242 MB re-warm traffic" in out
        assert _row(out, "no-cache")[:2] == ["no-cache", "450"]

    def test_no_baseline_drops_the_no_cache_row(self, capsys):
        out = _serve_bench_out(capsys, "--deploy-every", "200", "--no-baseline")
        assert "no-cache" not in out
        assert "deploy: 2 swaps" in out


#: serve-bench's overload layer all at once: tenants past their buckets,
#: a deadline-projecting shedder and a fault window on the shard pulls.
SERVE_OVERLOAD = (
    "--rate", "64000", "--slo", "0.01", "--tenants", "gold,silver,free",
    "--admission", "gold=1000000/512/p2,silver=1000000/512/p1,free=8000/64",
    "--faults", "seed=7,retries=4x0.004,ps-out=0@5:8,drop=0.3@9:40",
)


def _serve_bench_out(capsys, *flags):
    """stdout of a 600-query serve-bench on a freshly trained tiny model."""
    argv = [
        "serve-bench", "--dataset", "fb15k", "--scale", "0.015",
        "--epochs", "1", "--queries", "600", *flags,
    ]
    assert main(argv) == 0
    return capsys.readouterr().out


def _row(out, label):
    """The fields of the results-table row whose config column is ``label``."""
    (line,) = [line for line in out.splitlines() if line.startswith(label + " ")]
    return line.split()


class TestTrain:
    def test_train_builtin_dataset(self, capsys):
        rc = main(
            [
                "train", "--dataset", "wn18", "--scale", "0.02",
                "--epochs", "1", "--machines", "2", "--eval-queries", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HET-KG" in out
        assert "MRR" in out

    def test_train_tsv(self, tmp_path, capsys, tiny_graph):
        from repro.kg.datasets import save_tsv

        path = tmp_path / "g.tsv"
        save_tsv(tiny_graph, path)
        rc = main(
            [
                "train", "--tsv", str(path), "--epochs", "1",
                "--machines", "1", "--batch-size", "4", "--negatives", "2",
                "--eval-queries", "2",
            ]
        )
        assert rc == 0

    def test_train_with_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        rc = main(
            [
                "train", "--dataset", "wn18", "--scale", "0.02",
                "--epochs", "1", "--machines", "2", "--eval-queries", "2",
                "--checkpoint", str(ckpt),
            ]
        )
        assert rc == 0
        assert ckpt.exists()

    def test_train_pbg_checkpoint_serves(self, tmp_path, capsys):
        """PBG's tables live in a parameter server, so its ``--checkpoint``
        is the archive every other system writes, and serve-bench serves
        it."""
        ckpt = tmp_path / "pbg.npz"
        rc = main(
            [
                "train", "--dataset", "wn18", "--scale", "0.02",
                "--system", "pbg", "--epochs", "1", "--eval-queries", "2",
                "--checkpoint", str(ckpt),
            ]
        )
        assert rc == 0
        assert "checkpoint written" in capsys.readouterr().out
        rc = main(
            ["serve-bench", "--checkpoint", str(ckpt), "--queries", "200", "--no-baseline"]
        )
        assert rc == 0
        assert "throughput" in capsys.readouterr().out


class TestBackendFlag:
    def test_unknown_backend_suggests_and_exits_2(self, capsys):
        rc = main(["train", "--backend", "mpp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown backend 'mpp'" in err
        assert "did you mean: mp" in err
        assert "valid backends: sim, mp" in err

    def test_mp_flags_require_mp_backend(self, capsys):
        rc = main(["train", "--mp-schedule", "sync"])
        assert rc == 2
        assert "--mp-schedule" in capsys.readouterr().err

        rc = main(["serve-bench", "--mp-workers", "2"])
        assert rc == 2
        assert "--mp-workers" in capsys.readouterr().err

    def test_train_mp_rejects_faults(self, capsys):
        rc = main(["train", "--backend", "mp", "--faults", "drop=0.1"])
        assert rc == 2
        assert "--faults" in capsys.readouterr().err

    def test_train_mp_rejects_tiered_backing(self, capsys):
        rc = main(["train", "--backend", "mp", "--backing", "tiered"])
        assert rc == 2
        assert "tiered" in capsys.readouterr().err

    def test_train_mp_rejects_pbg(self, capsys):
        rc = main(["train", "--backend", "mp", "--system", "pbg"])
        assert rc == 2
        assert "pbg" in capsys.readouterr().err

    def test_serve_bench_mp_rejects_overload_flags(self, capsys):
        rc = main(["serve-bench", "--backend", "mp", "--slo", "0.01"])
        assert rc == 2
        assert "--slo" in capsys.readouterr().err

    def test_train_mp_sync_prints_reconciliation(self, capsys):
        rc = main(
            [
                "train", "--dataset", "fb15k", "--scale", "0.015",
                "--epochs", "1", "--machines", "2", "--dim", "8",
                "--eval-queries", "2", "--backend", "mp",
                "--mp-schedule", "sync", "--mp-start", "fork",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "clock reconciliation (mp/sync)" in out
        assert "worker m0" in out

    def test_serve_bench_mp_merges_replicas(self, capsys):
        rc = main(
            [
                "serve-bench", "--dataset", "fb15k", "--scale", "0.015",
                "--epochs", "1", "--machines", "2", "--queries", "400",
                "--backend", "mp", "--mp-workers", "2", "--mp-start", "fork",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 frontend processes" in out
        assert "static#0" in out
        assert "static#1" in out
        assert "q/s wall" in out

    def test_mp_checkpoint_serves(self, tmp_path, capsys):
        """State restored to private memory after an mp run saves, and the
        serving loader reads it back: the whole state path."""
        path = tmp_path / "mp.npz"
        rc = main(
            [
                "train", "--dataset", "fb15k", "--scale", "0.015",
                "--epochs", "1", "--machines", "2", "--dim", "8",
                "--eval-queries", "2", "--backend", "mp",
                "--mp-schedule", "sync", "--mp-start", "fork",
                "--checkpoint", str(path),
            ]
        )
        assert rc == 0
        assert f"checkpoint written to {path}" in capsys.readouterr().out
        rc = main(
            ["serve-bench", "--checkpoint", str(path), "--queries", "400", "--no-baseline"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"serving checkpoint {path}" in out
        assert "throughput" in out


# ----------------------------------------------------------- count flags

#: Every integer count the code downstream requires to be >= 1, with the
#: positionals its subcommand needs to get as far as parsing it.
COUNT_FLAGS = [
    *(("run table2", f) for f in ["--epochs"]),
    *(
        ("train", f)
        for f in [
            "--dim", "--epochs", "--machines", "--batch-size", "--negatives",
            "--cache-capacity", "--sync-period", "--checkpoint-every",
            "--tier-block-rows", "--mp-staleness",
        ]
    ),
    *(
        ("serve-bench", f)
        for f in [
            "--epochs", "--machines", "--queries", "--candidates", "--max-batch",
            "--deploy-every", "--mp-workers", "--tier-block-rows", "--mp-staleness",
        ]
    ),
    *(
        ("stream", f)
        for f in [
            "--epochs", "--machines", "--cache-capacity", "--interval", "--inserts",
            "--eval-every",
        ]
    ),
    *(("sweep sync_period 4", f) for f in ["--epochs"]),
]


class TestCountFlags:
    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize(
        "command, flag", COUNT_FLAGS, ids=[f"{c.split()[0]}{f}" for c, f in COUNT_FLAGS]
    )
    def test_non_positive_count_is_a_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command.split(), flag, value])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: must be a positive integer, got '{value}'" in err


#: Spec-valued flags, each checked before any dataset is built.
BAD_SPECS = [
    pytest.param(["train", "--faults", "bogus=1"],
                 "--faults: bad fault clause 'bogus=1': unknown clause key", id="faults"),
    pytest.param(["train", "--backing", "tiered", "--memory-budget", "12Q"],
                 "--memory-budget: unknown byte suffix 'Q'", id="memory-budget"),
    pytest.param(["serve-bench", "--admission", "gold=abc"],
                 "--admission: bad admission clause 'gold=abc'", id="admission"),
    pytest.param(["train", "--machines", "2", "--faults", "crash=w9@3"],
                 "--faults: bad fault clause 'crash=w9@3': machine 9 is not in a cluster of 2",
                 id="crash-absent-machine"),
    pytest.param(["train", "--machines", "2", "--faults", "slow=w7x3"],
                 "machine 7 is not in a cluster of 2", id="slow-absent-machine"),
    pytest.param(["train", "--machines", "2", "--faults", "ps-out=9@2:40"],
                 "shard 9 is not in a cluster of 2", id="ps-out-absent-shard"),
    pytest.param(["serve-bench", "--faults", "ps-out=5@2:4"],
                 "shard 5 is not in a cluster of 4", id="serve-absent-shard"),
]


class TestSpecFlags:
    @pytest.mark.parametrize("argv, message", BAD_SPECS)
    def test_bad_spec_is_a_usage_error(self, argv, message, capsys):
        """Exit 2 naming the flag, nothing on stdout.  A malformed spec used
        to build the dataset (or train a model) first and then exit 1 with
        a traceback; a plan naming a machine or shard the cluster lacks
        trained to the end with the clause never firing."""
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


# ------------------------------------------------------------ the rule table

#: A value for every flag of the table that takes one.
FLAG_VALUES = {
    "--trace": "t.json", "--faults": "drop=0.1", "--checkpoint-every": "4",
    "--neg-cache": "auto", "--checkpoint": "x.npz", "--tenants": "gold,free",
    "--admission": "gold=100", "--slo": "0.01", "--deploy-every": "100",
    "--memory-budget": "8M", "--mp-schedule": "sync", "--mp-staleness": "2",
    "--mp-start": "fork", "--mp-workers": "2",
}
#: Per context: the subcommands it can hold on and the argv that makes it
#: hold there (the defaults are sim, resident, no checkpoint).
CONTEXT_ARGV = {
    "mp": (("train", "serve-bench"), ["--backend", "mp"]),
    "sim": (("train", "serve-bench"), []),
    "pbg": (("train",), ["--system", "pbg"]),
    "resident": (("train", "serve-bench"), []),
    "checkpoint": (("serve-bench",), ["--checkpoint", "x.npz"]),
    "stream": (("stream",), []),
}


def _flag_argv(flag):
    return flag.split() + ([FLAG_VALUES[flag]] if flag in FLAG_VALUES else [])


def _blocked_invocations():
    for rule in RULES:
        for context in rule.blocked_in:
            commands, context_argv = CONTEXT_ARGV[context]
            reachable = [c for c in rule.commands if c in commands]
            assert reachable, f"no command reaches {rule.flag} in {context}"
            for command in reachable:
                yield pytest.param(
                    rule, context, [command, *context_argv, *_flag_argv(rule.flag)],
                    id=f"{command}-{rule.flag.lstrip('-')}-in-{context}".replace(" ", "="),
                )


class TestRuleTable:
    @pytest.mark.parametrize("rule, context, argv", _blocked_invocations())
    def test_blocked_combination_is_a_usage_error(self, rule, context, argv, capsys):
        """Every row x every blocked context: exit 2, flag and reason on
        stderr, and nothing on stdout (no dataset was generated)."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{rule.flag} {CONTEXTS[context][1]}" in captured.err
        assert rule.reason in captured.err

    def test_rows_fire_only_in_their_contexts(self):
        """Outside its blocked contexts every flag of the table is accepted
        (``stream`` is skipped: there the command itself is the context)."""
        parser = _build_parser()
        leave = {"sim": ["--backend", "mp"], "resident": ["--backing", "tiered"]}
        for rule in RULES:
            for command in set(rule.commands) - {"stream"}:
                argv = [command, *_flag_argv(rule.flag)]
                for context in rule.blocked_in:
                    argv += leave.get(context, [])
                assert usage_errors(parser.parse_args(argv)) == [], argv

    def test_parallelism_doc_lists_the_mp_rows(self):
        """docs/parallelism.md names every flag --backend mp rejects:
        train's in section 1, serve-bench's in section 6."""
        doc = (
            pathlib.Path(__file__).parent.parent / "docs" / "parallelism.md"
        ).read_text()
        sections = {
            "train": doc.split("## 1.")[1].split("## 2.")[0],
            "serve-bench": doc.split("## 6.")[1].split("## 7.")[0],
        }
        for rule in RULES:
            if "mp" in rule.blocked_in:
                for command in rule.commands:
                    if command in sections:
                        assert f"`{rule.flag}`" in sections[command], (
                            command, rule.flag
                        )


class TestCachePolicyVocabulary:
    def test_cli_choices_are_the_serving_vocabulary_and_construct(self):
        from repro.cache.core import available_policies
        from repro.serving.cache import ServingCache, cache_policies
        from repro.serving.queries import Query, QueryLog

        reactive = [p for p in available_policies() if p != "pinned"]
        assert cache_policies() == ("static", *reactive, "none")
        parser = _build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["serve-bench", "--cache-policy", "pinned"])
        warmup = QueryLog(
            [Query(qid=0, kind="score", head=1, relation=0, tail=2, arrival=0.0)]
        )
        for name in cache_policies():
            args = parser.parse_args(["serve-bench", "--cache-policy", name])
            cache = ServingCache.from_policy(args.cache_policy, 8, warmup)
            if name == "none":
                assert cache is None
            else:
                assert cache.label == name
                cache.lookup("entity", [1, 2])
                assert 0 < cache.size() <= 8

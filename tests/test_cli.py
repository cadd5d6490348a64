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

    def test_train_pbg_rejects_checkpoint(self, tmp_path, capsys):
        """Used to train to completion, print the error to stdout and
        exit 1; it is a usage error, raised before the dataset exists."""
        rc = main(
            [
                "train", "--dataset", "wn18", "--scale", "0.02",
                "--system", "pbg", "--epochs", "1", "--eval-queries", "2",
                "--checkpoint", str(tmp_path / "x.npz"),
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "--checkpoint" in captured.err and "PBG" in captured.err
        assert captured.out == ""


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

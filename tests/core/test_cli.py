"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


BASE_ARGS = ["--scale", "0.05", "--sampling-rate", "0.8", "--mcmc-iterations", "15"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_catalog_defaults(self):
        args = build_parser().parse_args(["catalog"])
        assert args.workload == "tpch"
        assert args.func.__name__ == "cmd_catalog"

    def test_acquire_options(self):
        args = build_parser().parse_args(
            ["acquire", "--query", "Q1", "--budget", "55", "--top-k", "2"]
        )
        assert args.query == "Q1"
        assert args.budget == 55.0
        assert args.top_k == 2


class TestCatalogCommand:
    def test_text_output(self, capsys):
        assert main(["catalog", *BASE_ARGS]) == 0
        output = capsys.readouterr().out
        assert "lineitem" in output
        assert "orders" in output

    def test_json_output(self, capsys):
        assert main(["catalog", "--json", *BASE_ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 8


class TestAcquireCommand:
    def test_predefined_query_text(self, capsys):
        code = main(["acquire", "--query", "Q1", "--budget", "1000", *BASE_ARGS])
        assert code == 0
        output = capsys.readouterr().out
        assert "SELECT" in output
        assert "estimated correlation" in output

    def test_explicit_attributes_json(self, capsys):
        code = main(
            [
                "acquire",
                "--source", "totalprice",
                "--target", "mktsegment",
                "--budget", "1000",
                "--json",
                *BASE_ARGS,
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"]
        assert payload["estimated_price"] <= 1000

    def test_top_k_output(self, capsys):
        code = main(
            ["acquire", "--query", "Q1", "--budget", "1000", "--top-k", "2", *BASE_ARGS]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        assert payload[0]["rank"] == 1

    def test_missing_target_is_an_error(self, capsys):
        assert main(["acquire", "--budget", "10", *BASE_ARGS]) == 2

    def test_infeasible_request_returns_error_code(self, capsys):
        code = main(
            ["acquire", "--target", "does_not_exist", "--budget", "10", *BASE_ARGS]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExportGraphCommand:
    def test_describe_only(self, capsys):
        assert main(["export-graph", *BASE_ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_instances"] == 8

    def test_write_json_and_dot(self, tmp_path, capsys):
        json_path = tmp_path / "graph.json"
        dot_path = tmp_path / "graph.dot"
        code = main(
            [
                "export-graph",
                "--json-out", str(json_path),
                "--dot-out", str(dot_path),
                *BASE_ARGS,
            ]
        )
        assert code == 0
        assert json_path.exists()
        assert dot_path.read_text().startswith("graph")


class TestBatchCommand:
    def write_requests(self, tmp_path, specs):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(specs))
        return str(path)

    def test_batch_of_queries_and_explicit_attributes(self, tmp_path, capsys):
        path = self.write_requests(
            tmp_path,
            [
                {"query": "Q1", "budget": 1000},
                {"source": ["totalprice"], "target": ["rname"], "budget": 1000},
            ],
        )
        assert main(["batch", path, "--batch-workers", "2", *BASE_ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"]["requests"] == 2
        assert payload["service"]["errors"] == 0
        assert [item["index"] for item in payload["results"]] == [0, 1]
        assert all(item["ok"] for item in payload["results"])
        assert "estimated_correlation" in json.dumps(payload["results"][0])

    def test_batch_matches_serial_acquire(self, tmp_path, capsys):
        """Request 0 keeps the base seed, so it matches `acquire --query Q1`."""
        path = self.write_requests(tmp_path, [{"query": "Q1", "budget": 1000}])
        assert main(["batch", path, *BASE_ARGS]) == 0
        batch_payload = json.loads(capsys.readouterr().out)
        assert main(["acquire", "--query", "Q1", "--budget", "1000", "--json", *BASE_ARGS]) == 0
        acquire_payload = json.loads(capsys.readouterr().out)
        batch_result = batch_payload["results"][0]["result"]
        assert (
            batch_result["estimated_correlation"]
            == acquire_payload["estimated_correlation"]
        )
        assert batch_result["queries"] == acquire_payload["queries"]

    def test_failed_requests_reported_with_nonzero_exit(self, tmp_path, capsys):
        path = self.write_requests(
            tmp_path,
            [
                {"query": "Q1", "budget": 1000},
                {"source": [], "target": ["no_such_attr"], "budget": 10},
            ],
        )
        assert main(["batch", path, *BASE_ARGS]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"]["errors"] == 1
        assert payload["results"][1]["ok"] is False
        assert "error" in payload["results"][1]

    def test_rejects_malformed_request_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["batch", str(path), *BASE_ARGS]) == 1
        assert "error" in capsys.readouterr().err

    def test_rejects_unknown_query_name(self, tmp_path, capsys):
        path = self.write_requests(tmp_path, [{"query": "Q9", "budget": 10}])
        assert main(["batch", path, *BASE_ARGS]) == 1
        assert "unknown query" in capsys.readouterr().err

    def test_bounded_queue_and_shoppers(self, tmp_path, capsys):
        path = self.write_requests(
            tmp_path,
            [
                {"query": "Q1", "budget": 1000, "shopper": "alice"},
                {"query": "Q2", "budget": 1000, "shopper": "bob"},
            ],
        )
        code = main(
            ["batch", path, "--queue-depth", "4", "--admission", "block", *BASE_ARGS]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"]["queue_depth"] == 4
        assert payload["service"]["admission"] == "block"
        assert payload["service"]["rejected"] == 0
        assert payload["service"]["latency_p50_seconds"] > 0
        assert [item["shopper"] for item in payload["results"]] == ["alice", "bob"]
        assert payload["metrics"]["queue"]["admitted"] == 2
        assert payload["metrics"]["latency"]["count"] == 2

    def test_batch_summary_includes_metrics(self, tmp_path, capsys):
        path = self.write_requests(tmp_path, [{"query": "Q1", "budget": 1000}])
        assert main(["batch", path, *BASE_ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        assert metrics["requests"] == 1
        assert metrics["answer_memo"] == {"entries": 1, "hits": 0, "misses": 1}
        assert "p95_seconds" in metrics["latency"]
        assert "trend" in metrics["cache_hit_rate"]


class TestCatalogActions:
    def test_init_then_inspect(self, tmp_path, capsys):
        catalog = tmp_path / "market.catalog"
        assert main(["catalog", "init", "--catalog", str(catalog), *BASE_ARGS]) == 0
        assert catalog.exists()
        capsys.readouterr()
        assert main(["catalog", "inspect", "--catalog", str(catalog)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == "sqlite"
        assert summary["schema_version"] == 1
        assert summary["namespaces"]["tables"] == 8
        assert summary["offline"] is None  # init stores tables, not the graph

    def test_persist_includes_the_offline_phase(self, tmp_path, capsys):
        catalog = tmp_path / "market.catalog"
        assert main(["catalog", "persist", "--catalog", str(catalog), *BASE_ARGS]) == 0
        capsys.readouterr()
        assert main(["catalog", "inspect", "--catalog", str(catalog)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["offline"]["ji_entries"] > 0
        assert "offline" in summary["namespaces"]

    def test_show_reads_back_from_the_catalog(self, tmp_path, capsys):
        catalog = tmp_path / "market.catalog"
        assert main(["catalog", "init", "--catalog", str(catalog), *BASE_ARGS]) == 0
        built = capsys.readouterr().out
        assert main(["catalog", "--json", "--catalog", str(catalog), *BASE_ARGS]) == 0
        from_catalog = json.loads(capsys.readouterr().out)
        assert len(from_catalog) == 8
        assert built  # the init run printed the same catalog

    def test_init_without_catalog_path_is_usage_error(self, capsys):
        assert main(["catalog", "init", *BASE_ARGS]) == 2
        assert "requires --catalog" in capsys.readouterr().err

    def test_inspect_missing_file_is_an_error(self, tmp_path, capsys):
        code = main(["catalog", "inspect", "--catalog", str(tmp_path / "absent")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestBatchCatalogWarmRestart:
    def test_second_batch_run_restarts_warm(self, tmp_path, capsys, monkeypatch):
        import repro.core.dance as dance_module
        import repro.graph.join_graph as join_graph_module

        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"query": "Q1", "budget": 1000}]))
        catalog = tmp_path / "market.catalog"
        cold_args = ["batch", str(requests), "--catalog", str(catalog), *BASE_ARGS]
        assert main(cold_args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert catalog.exists()

        offline_work = []
        for module, name in (
            (join_graph_module, "join_informativeness"),
            (dance_module, "discover_afds"),
        ):
            original = getattr(module, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                offline_work.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        assert main(cold_args) == 0
        warm = json.loads(capsys.readouterr().out)
        # The warm service adopted the checkpointed offline state: it
        # computed no JI weight and mined no table.  Answers are not
        # persisted, so the request searched.
        assert offline_work == []
        assert warm["metrics"]["answer_memo"] == {"entries": 1, "hits": 0, "misses": 1}
        assert (
            warm["results"][0]["result"]["estimated_correlation"]
            == cold["results"][0]["result"]["estimated_correlation"]
        )


class TestMetricsCommand:
    def test_default_traffic_dump(self, capsys):
        assert main(["metrics", "--budget", "1000", *BASE_ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 6  # three workload queries, served twice
        assert payload["errors"] == 0
        assert payload["in_flight"] == 0
        assert payload["latency"]["count"] == 6
        assert payload["latency"]["p99_seconds"] is not None
        assert payload["queue"]["policy"] == "block"
        # Each repeat is answered from the answer memo.
        assert payload["answer_memo"] == {"entries": 3, "hits": 3, "misses": 3}

    def test_requests_file_and_reject_policy(self, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"query": "Q1", "budget": 1000}]))
        code = main(
            [
                "metrics",
                str(path),
                "--queue-depth", "2",
                "--admission", "reject",
                *BASE_ARGS,
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 1
        assert payload["queue"]["max_depth"] == 2
        assert payload["queue"]["policy"] == "reject"

    def test_nonzero_exit_when_requests_fail(self, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(
            json.dumps([{"source": [], "target": ["no_such_attr"], "budget": 10}])
        )
        assert main(["metrics", str(path), *BASE_ARGS]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1

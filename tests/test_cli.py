"""CLI driver tests (python -m repro ...)."""

import pytest

from repro.cli import main

DRIVER = """
int a, b;
int *p, *q;
int lock_obj;
int *the_lock;

void lock(int *l) { }
void unlock(int *l) { }

void t1(void) {
    lock(the_lock);
    a = a + 1;
    unlock(the_lock);
    b = b + 1;
}

void t2(void) {
    lock(the_lock);
    a = a + 1;
    unlock(the_lock);
    b = b + 2;
}

int main() {
    the_lock = &lock_obj;
    p = &a;
    q = p;
    t1();
    t2();
    return 0;
}
"""


@pytest.fixture()
def driver_file(tmp_path):
    path = tmp_path / "driver.c"
    path.write_text(DRIVER)
    return str(path)


class TestAnalyze:
    def test_basic_report(self, driver_file, capsys):
        assert main(["analyze", driver_file]) == 0
        out = capsys.readouterr().out
        assert "functions" in out and "cascade:" in out

    def test_alias_query(self, driver_file, capsys):
        assert main(["analyze", driver_file, "--aliases", "p", "q"]) == 0
        out = capsys.readouterr().out
        assert "may_alias(p, q)" in out and "True" in out

    def test_points_to_query(self, driver_file, capsys):
        assert main(["analyze", driver_file, "--points-to", "q"]) == 0
        out = capsys.readouterr().out
        assert "points_to(q)" in out and "'a'" in out

    def test_summaries_flag(self, driver_file, capsys):
        assert main(["analyze", driver_file, "--summaries"]) == 0
        assert "summaries built" in capsys.readouterr().out

    def test_unknown_pointer_rejected(self, driver_file):
        with pytest.raises(SystemExit):
            main(["analyze", driver_file, "--points-to", "nope"])

    def test_qualified_name(self, driver_file, capsys):
        assert main(["analyze", driver_file, "--points-to", "p"]) == 0


class TestPartitions:
    def test_listing(self, driver_file, capsys):
        assert main(["partitions", driver_file]) == 0
        out = capsys.readouterr().out
        assert "Steensgaard partitions" in out

    def test_with_andersen(self, driver_file, capsys):
        assert main(["partitions", driver_file, "--andersen"]) == 0
        assert "Andersen clusters" in capsys.readouterr().out


class TestRaces:
    def test_race_report(self, driver_file, capsys):
        rc = main(["races", driver_file, "--threads", "t1,t2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "race warning" in out
        assert "b" in out  # the unlocked counter races

    def test_fail_on_race(self, driver_file):
        rc = main(["races", driver_file, "--threads", "t1,t2",
                   "--fail-on-race"])
        assert rc == 1

    def test_threads_required(self, driver_file, capsys):
        """Races need two thread entries.  Without --threads they default
        to the functions passed to spawn-like primitives, and this file
        spawns none, so nothing can race."""
        assert main(["races", driver_file]) == 0
        out = capsys.readouterr().out
        assert "0 race warning(s)" in out
        assert "thread entries: none found" in out


#: Every verb that reads a C FILE, with the operands it needs besides.
FILE_VERBS = {
    "analyze": [], "partitions": [], "races": [], "check": [],
    "taint": [], "leaks": [], "deadlocks": [],
    "demand": ["--points-to", "p"],
}


class TestBadInput:
    """Source the frontend rejects and an undefined --entry end every
    verb with one ``repro: FILE: ...`` line, never a traceback."""

    @pytest.mark.parametrize("verb", sorted(FILE_VERBS))
    def test_truncated_source(self, verb, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int main( { return 0; }\n")
        with pytest.raises(SystemExit) as exc:
            main([verb, str(path)] + FILE_VERBS[verb])
        message = str(exc.value.code)
        assert message.startswith(f"repro: {path}: ")
        assert "at 1:11" in message  # the parser's line and column
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("verb", sorted(FILE_VERBS))
    def test_unknown_entry(self, verb, driver_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, driver_file, "--entry", "nosuch"]
                 + FILE_VERBS[verb])
        message = str(exc.value.code)
        assert message.startswith(f"repro: {driver_file}: ")
        assert "'nosuch'" in message
        assert "Traceback" not in capsys.readouterr().err


class TestBenchCommands:
    def test_table1_tiny(self, capsys):
        rc = main(["table1", "--scale", "0.02", "--programs", "sock",
                   "--skip-nocluster"])
        assert rc == 0
        assert "sock" in capsys.readouterr().out

    def test_figure1_tiny(self, capsys):
        rc = main(["figure1", "--scale", "0.05", "--csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "steensgaard_freq" in out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")


class TestDemand:
    def test_points_to(self, driver_file, capsys):
        assert main(["demand", driver_file, "--points-to", "q"]) == 0
        out = capsys.readouterr().out
        assert "points_to(q): ['a']" in out
        assert "demand-driven: touched" in out

    def test_json(self, driver_file, capsys):
        import json
        assert main(["demand", driver_file, "--points-to", "p", "q",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["points_to"]["q"] == ["a"]
        assert data["steps"] > 0

    def test_unknown_pointer(self, driver_file):
        with pytest.raises(SystemExit):
            main(["demand", driver_file, "--points-to", "zz"])


class TestBudgetExit:
    def test_demand_budget_exits_cleanly(self, driver_file, capsys):
        assert main(["demand", driver_file, "--points-to", "q",
                     "--budget", "1"]) == 3
        err = capsys.readouterr().err
        assert "demand-andersen" in err and "budget" in err
        assert "Traceback" not in err

    def test_summary_budget_exits_cleanly(self, driver_file, capsys):
        assert main(["analyze", driver_file, "--summaries",
                     "--fscs-budget", "1"]) == 3
        err = capsys.readouterr().err
        assert "summary-engine" in err and "budget" in err
        assert "Traceback" not in err


class TestCacheCommand:
    def test_stats_and_prune(self, driver_file, tmp_path, capsys):
        import json
        cache = str(tmp_path / "cache")
        assert main(["analyze", driver_file, "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", cache]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0 and stats["bytes"] > 0
        assert main(["cache", "prune", cache,
                     "--max-age-days", "0"]) == 0
        assert "pruned" in capsys.readouterr().out
        assert main(["cache", "stats", cache]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_missing_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "stats", str(tmp_path / "nope")])


class TestServeQuery:
    def test_query_requires_address(self, driver_file):
        with pytest.raises(SystemExit):
            main(["query", "ping"])

    def test_query_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["query", "frobnicate", "--port", "1"])

    def test_query_missing_operands(self, driver_file):
        with pytest.raises(SystemExit):
            main(["query", "points-to", driver_file, "--port", "1"])

    def test_query_unreachable_daemon(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["query", "ping", "--socket",
                  str(tmp_path / "no.sock")])

    def test_serve_requires_one_address(self, driver_file):
        with pytest.raises(SystemExit):
            main(["serve", driver_file])

    def test_serve_and_query_round_trip(self, driver_file, capsys):
        import json
        import os
        import tempfile
        import threading

        from repro.server import wait_for_server
        sock = os.path.join(tempfile.mkdtemp(prefix="repro-cli-"),
                            "repro.sock")
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault(
                "serve", main(["serve", driver_file, "--socket", sock])))
        thread.start()
        try:
            wait_for_server(socket_path=sock, timeout=30.0)
            assert main(["query", "--socket", sock, "points-to",
                         driver_file, "q"]) == 0
            out = capsys.readouterr().out
            payload = json.loads(out[out.index("{"):])
            assert payload["objects"] == ["a"]
            assert main(["query", "--socket", sock, "stats"]) == 0
            capsys.readouterr()
        finally:
            assert main(["query", "--socket", sock, "shutdown"]) == 0
            thread.join(30.0)
        assert not thread.is_alive()
        assert rc["serve"] == 0


class TestQueryDeadline:
    def test_expired_deadline_exits_with_budget_code(self, driver_file,
                                                     capsys):
        import os
        import tempfile
        import threading

        from repro.server import wait_for_server
        sock = os.path.join(tempfile.mkdtemp(prefix="repro-cli-"),
                            "repro.sock")
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault(
                "serve", main(["serve", driver_file, "--socket", sock])))
        thread.start()
        try:
            wait_for_server(socket_path=sock, timeout=30.0)
            # An already-blown deadline is shed client-side with the
            # budget exit code — the daemon never sees the query.
            assert main(["query", "--socket", sock,
                         "--deadline", "0.000001",
                         "points-to", driver_file, "q"]) == 3
            err = capsys.readouterr().err
            assert "deadline" in err.lower()
            # A generous one sails through.
            assert main(["query", "--socket", sock, "--deadline", "60",
                         "points-to", driver_file, "q"]) == 0
            capsys.readouterr()
        finally:
            assert main(["query", "--socket", sock, "shutdown"]) == 0
            thread.join(30.0)
        assert rc["serve"] == 0

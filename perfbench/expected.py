"""Write ``expected.json``: the answer digests every run checks.

Run ``python3 perfbench/run.py --write-expected`` after a change that
is meant to change answers (or inputs); a change that only makes the
program faster must leave this file alone.  Writing it takes a few
minutes, most of it the full-budget concrete-oracle check.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Dict

from workloads import (
    ORACLE_BUDGETS,
    SCALE,
    Corpus,
    Daemon,
    served_files,
    digest,
    edit_source,
    leaks_answer,
    web_functions,
)

#: The check made when the digests are written: the oracle's own
#: default path budget, and eight times the per-run deep search's.
FULL_ORACLE_BUDGETS = ((300, 4000, False), (3000, 64, True))


def corpus_expected() -> Dict[str, Any]:
    simulate, processes = Corpus("simulate", False), Corpus("processes", False)
    programs = simulate.build_inputs()
    inputs = simulate.input_digests(programs)
    _, out = simulate.run_pass(programs)
    _, out_processes = processes.run_pass(processes.build_inputs())
    answers: Dict[str, str] = {}
    facts: Dict[str, int] = {}
    full: Dict[str, int] = {}
    for (name, program, report), (_, _, other) in zip(out, out_processes):
        answers[name] = Corpus.answer(report)
        if Corpus.answer(other) != answers[name]:
            raise SystemExit(f"{name}: processes and simulate disagree")
        for budgets, table in ((ORACLE_BUDGETS, facts),
                               (FULL_ORACLE_BUDGETS, full)):
            violations, table[name] = Corpus.oracle_check(program, report,
                                                          budgets)
            if violations:
                raise SystemExit(f"{name}: {violations} pointers unsound "
                                 "against the concrete oracle")
    if not any(facts.values()):
        raise SystemExit("the concrete oracle observed no fact at any "
                         "program's exit")
    return {"scale": SCALE, "inputs": inputs, "answers": answers,
            "oracle": {"budgets": ORACLE_BUDGETS, "facts": facts,
                       "full": {"budgets": FULL_ORACLE_BUDGETS,
                                "facts": full}}}


def daemon_expected(workdir: str) -> Dict[str, Any]:
    texts = served_files(tiny=False)
    table: Dict[str, Any] = {key: {"source": digest(text)}
                             for key, text in texts.items()}
    os.makedirs(workdir, exist_ok=True)
    daemon = Daemon(0, False, {"daemon": table}, workdir)
    try:
        for key, answer in daemon.start().items():
            table[key]["leaks"] = digest(leaks_answer(answer))
        client = daemon.client
        for key, text in texts.items():
            if not key.startswith("gen"):
                continue
            entry, path = table[key], daemon.paths[key]
            entry["edit"] = {}
            after = set()
            for fresh, web in enumerate(web_functions(text)):
                daemon.write(key, edit_source(text, web, fresh))
                entry["edit"][str(web)] = digest(
                    client.points_to(path, f"w{web}p0"))
                after.add(digest(leaks_answer(
                    client.call("leaks", file=path))))
            if len(after) != 1:
                raise SystemExit(f"{key}: edits disagree on leaks")
            entry["edit_leaks"] = after.pop()
            daemon.write(key, text)
    finally:
        daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return table


def write_expected(path: str, workdir: str) -> None:
    data = {"version": 2, "corpus": corpus_expected(),
            "daemon": daemon_expected(workdir)}
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")

"""Self-tests of the benchmark on its tiny configuration.

    python3 -m pytest perfbench -q

Each test runs ``run.py`` in a fresh interpreter, as the benchmark's
users do, on a few programs and files and a one-second window.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, *extra: str, hash_seed: Optional[str] = None,
          script: Path = HERE / "run.py", cwd: Path = HERE.parent
          ) -> Tuple[int, List[str]]:
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--tiny", *extra],
        cwd=str(cwd), env=env, stdout=subprocess.PIPE, text=True,
        timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: List[str]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS
    return json.loads(lines[-2]), result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload: str) -> None:
    code, lines = bench(workload)
    info, result = result_of(lines)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == dict(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    for fact in ("nproc", "python", "hash_seed", "scale", "seed",
                 "latency_samples", "tail_percentile", "untraced_wall_s"):
        assert fact in info


def _corrupt(expected: Dict[str, Any], workload: str) -> None:
    if workload.startswith("corpus"):
        answers = expected["corpus"]["answers"]
        for name in answers:
            answers[name] = "0" * 16
    else:
        for entry in expected["daemon"].values():
            for web in entry.get("edit", {}):
                entry["edit"][web] = "0" * 16


@pytest.mark.parametrize("workload", ["corpus_cold", "daemon_edit"])
def test_corrupted_digest_fails(workload: str, tmp_path: Path) -> None:
    expected = json.loads((HERE / "expected.json").read_text())
    _corrupt(expected, workload)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    code, lines = bench(workload, "--expected", str(path))
    info, result = result_of(lines)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0 and info["failed_ratio"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1


#: A layer that does work on each workload's tiny configuration.
BUSY = {
    "corpus_cold": ("fsci.calls", "summaries.engine_steps",
                    "frontend.tokens", "parallel.wall_s"),
    "corpus_processes": ("shipping.payloads", "parallel.max_part_s",
                         "parallel.worker_peak_rss_mb", "fsci.iterations"),
    "daemon_edit": ("store.loads", "store.reanalyzed", "shipping.payloads",
                    "checkers.clusters_total", "frontend.calls",
                    "server.requests", "store.query_s", "server.hop_s"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer(workload: str) -> None:
    code, lines = bench(workload, "--trace", "1")
    info, result = result_of(lines)
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == dict(LAYER_METRICS)
    for name in BUSY[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    spans = Path(info["span_file"]).read_text().splitlines()
    assert len(spans) == info["spans"] > 0
    span = json.loads(spans[0])
    assert {"sid", "parent", "layer", "name", "start", "end",
            "rid"} <= set(span)


def _traced_counts(workload: str, hash_seed: str) -> Dict[str, Any]:
    code, lines = bench(workload, "--trace", "1", hash_seed=hash_seed)
    info, result = result_of(lines)
    assert code == 0 and result["correct"]
    assert info.get("work_counts_repeat", True)
    counts = dict(info["work_counts"])
    counts["clusters_per_program"] = info.get("clusters_per_program")
    return counts


#: Work counts that depend on nothing but the inputs.
STABLE = ("cascade.clusters", "fsci.iterations", "shipping.payload_bytes",
          "store.hits", "store.misses", "store.reanalyzed",
          "reanalyzed_per_edit", "clusters_per_program")


@pytest.mark.parametrize("workload",
                         ["corpus_cold", "corpus_processes", "daemon_edit"])
def test_work_counts_repeat_across_hash_seeds(workload: str) -> None:
    first, second = (_traced_counts(workload, seed) for seed in ("0", "1"))
    for name in STABLE:
        assert first.get(name) == second.get(name), name
    assert any(first[name] for name in STABLE if name in first)


@pytest.mark.xfail(strict=True, reason=(
    "the FSCS summary engine's step count follows set iteration order, "
    "which PYTHONHASHSEED salts: corpus programs take about 1% more or "
    "fewer engine steps for the same answers"))
def test_engine_steps_repeat_across_hash_seeds() -> None:
    first, second = (_traced_counts("corpus_cold", seed) for seed in ("0", "1"))
    assert first["summaries.engine_steps"] == second["summaries.engine_steps"]


def test_benchmark_json_matches_the_runner() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == LAYER_METRICS


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("corpus_cold", cwd=tmp_path,
                        script=tmp_path / HERE.name / "run.py")
    assert code != 0
    assert not any(line.startswith("{\"correct\"") for line in lines)

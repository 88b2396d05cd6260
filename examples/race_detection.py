#!/usr/bin/env python3
"""The paper's motivating application: data race detection via locksets.

``race_demo.c`` is a driver-flavoured program with two spawned threads
(an ioctl path and an interrupt handler).  One shared counter is
consistently protected by a lock; another is written unlocked from the
interrupt path — a race.

The alias work is demand-driven: the race checker analyzes only the
clusters holding lock pointers or pointers dereferenced in thread code,
which its stats line shows.

Run:  python examples/race_detection.py
"""

from pathlib import Path

from repro.applications import find_lock_sites, lock_pointers
from repro.checkers import run_races, spawn_entries
from repro.frontend import parse_program

DEMO = Path(__file__).resolve().parent / "race_demo.c"


def main() -> None:
    program = parse_program(DEMO.read_text(), path=str(DEMO))

    sites = find_lock_sites(program)
    print(f"Found {len(sites)} lock/unlock sites; lock pointers:",
          sorted(map(str, lock_pointers(program))))
    print("Thread entries (spawned):", spawn_entries(program))

    # Demand-driven cluster selection: the paper's flexibility story.
    run = run_races(program)
    stats = run.stats
    print(f"Demand-driven: analyzed {stats.clusters_selected} of "
          f"{stats.clusters_total} clusters "
          f"({stats.pointers_selected} of {stats.pointers_total} "
          f"pointers).")

    warnings = run.value
    print(f"\n{len(warnings)} race warning(s):")
    for w in warnings:
        print("   ", w)
    racy = [w for w in warnings if "counter_racy" in str(w)]
    safe = [w for w in warnings if "counter_safe" in str(w)]
    print(f"\ncounter_racy flagged: {bool(racy)} (expected: True)")
    print(f"counter_safe flagged: {bool(safe)} (expected: False)")


if __name__ == "__main__":
    main()

"""Shared benchmark configuration.

Environment knobs (all optional):

* ``REPRO_BENCH_K``        — comma-separated fat-tree sizes (default ``4,6,8``)
* ``REPRO_BENCH_SCALE``    — time-compression for real-time costs
  (default ``0.02``: 1 emulated second costs 20 ms of bench wall time)
* ``REPRO_BENCH_DURATION`` — per-TE-scheme traffic duration in
  simulated seconds (default ``30``)
* ``REPRO_BENCH_PPS``      — baseline packets/second per flow
  (default ``150``; the paper's 1 Gbps is ~83k pps — scaled down)

Every bench appends its table rows to ``benchmarks/results/*.txt`` so
the numbers survive the run (EXPERIMENTS.md quotes them).
"""

import json
import os
import pathlib
from typing import List

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_sizes() -> List[int]:
    """Fat-tree sizes to sweep (paper: 4, 6, 8)."""
    raw = os.environ.get("REPRO_BENCH_K", "4,6,8")
    return [int(part) for part in raw.split(",") if part.strip()]


def bench_scale() -> float:
    """Real-time compression factor shared by Horse FTI pacing and the
    baseline's sleeps."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))


def bench_duration() -> float:
    """Traffic duration per TE scheme, simulated seconds."""
    return float(os.environ.get("REPRO_BENCH_DURATION", "30"))


def bench_pps() -> float:
    """Baseline packet rate per flow."""
    return float(os.environ.get("REPRO_BENCH_PPS", "150"))


def record_rows(name: str, header: str, rows: List[str]) -> None:
    """Persist a result table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    lines = [header] + rows
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text("\n".join(lines) + "\n")
    print(f"\n--- {name} ---")
    for line in lines:
        print(line)


def record_json(name: str, payload: dict) -> None:
    """Persist machine-readable benchmark output next to the text
    table — ``benchmarks/results/BENCH_<name>.json``, which CI uploads
    as an artifact.  The committed perf trajectory is
    ``horsebench/baseline.json``; floors that compare two designs
    inside one commit are asserts in the bench that measures them."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")

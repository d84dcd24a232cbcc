"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py          # from the repository root

1. The oracle's bit-parallel evaluator agrees with point-by-point
   evaluation on small random systems.
2. The request mix of every workload matches ``perfbench/design.json``.
3. Each workload runs at a tiny size with a fixed seed, untraced and
   traced: every metric named in BENCHMARK.json is printed with its unit,
   every answer is correct, and the failed share equals the workload's
   deep-nesting share exactly.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

SEED = 7
MIX_KEYS = ("command", "format", "n", "r", "input")


MIX_BLOCKS = 24  # a whole period of every per-block rotation


def mix(workload: str) -> dict:
    """Request counts per block, averaged over MIX_BLOCKS blocks."""
    rng = random.Random(SEED)
    requests = [r for b in range(MIX_BLOCKS) for r in workloads.BLOCKS[workload](rng, b)]
    tallies = {key: Counter() for key in MIX_KEYS}
    for request in requests:
        for key in MIX_KEYS:
            if request.tags.get(key) is not None:
                tallies[key][str(request.tags[key])] += 1

    def per_block(count):
        return round(count / MIX_BLOCKS, 4)

    return {
        "block": len(requests) // MIX_BLOCKS,
        "probes": per_block(sum(r.probe for r in requests)),
        "error_paths": per_block(sum("error" in r.tags for r in requests)),
        **{
            key: {value: per_block(count) for value, count in sorted(tally.items())}
            for key, tally in tallies.items()
        },
    }


def check_oracle(failures: list[str]) -> None:
    rng = random.Random(SEED)
    for n in (6, 7, 8):  # random_equations draws up to 6 distinct variables
        for _ in range(20):
            equations = workloads.random_equations(rng, n, 5)
            if oracle.disagreement_mask(equations, n) != oracle.disagreement_mask_pointwise(
                equations, n
            ):
                failures.append(f"oracle: bit-parallel and pointwise masks differ at n={n}")
                return


def check_mix(design: dict, failures: list[str]) -> None:
    for workload in workloads.BLOCKS:
        recorded = design["workloads"][workload]["mix"]
        actual = mix(workload)
        if recorded != actual:
            failures.append(f"{workload}: design.json mix {recorded} != schedule {actual}")


def check_run(workload: str, trace: int, spec: dict, design: dict, failures: list[str]) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    tag = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"]:
        failures.append(f"{tag}: wrong answers")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
            failures.append(f"{tag}: metric {name} missing or not in {unit}: {got}")
        elif not any(line.startswith(f"{name} ") and f" {unit} " in line for line in lines):
            failures.append(f"{tag}: metric {name} not printed with its unit")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        failures.append(f"{tag}: unexpected metrics {sorted(extra)}")
    block_mix = design["workloads"][workload]["mix"]
    share = block_mix["probes"] / block_mix["block"]
    if result["attempted"] % block_mix["block"]:
        failures.append(f"{tag}: {result['attempted']} requests is not a whole number of blocks")
    if result["failed"] / result["attempted"] != share:
        failures.append(
            f"{tag}: failed ratio {result['failed']}/{result['attempted']} != deep-nesting share {share}"
        )
    print(f"{tag}: attempted={result['attempted']} failed={result['failed']}")


def main() -> int:
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as handle:
        design = json.load(handle)
    failures: list[str] = []
    check_oracle(failures)
    check_mix(design, failures)
    for workload in workloads.BLOCKS:
        for trace in (0, 1):
            check_run(workload, trace, spec, design, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(os.path.dirname(HERE))
    sys.exit(main())

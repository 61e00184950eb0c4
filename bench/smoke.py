"""Smoke test of the benchmark itself, on every workload at a tiny size.

    python3 bench/smoke.py

For each workload it checks four things. Every end-to-end and per-layer
metric is printed by name with its unit. `failed_frac` is computed from
`failed` and `attempted`. The input file is byte-identical for a fixed
seed. The metric lists agree with BENCHMARK.json. It exits non-zero at the
first failed check.
"""

import contextlib
import functools
import hashlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import run  # noqa: E402

TINY = {
    "bulk-check": {"count": 20},
    "conv-check": {"numerals": 12, "proofs": 6},
    "param-check": {"count": 5, "depths": (2, 3)},
}
SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def run_tiny(workload: str, traced: bool) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, SEED, 0.5, traced)
    return out.getvalue(), result


def printed(text: str, name: str, unit: str) -> bool:
    pattern = rf"^\s+{re.escape(name)}\s+-?[0-9.]+ {re.escape(unit)}\b"
    return re.search(pattern, text, re.MULTILINE) is not None


def check_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS),
          "BENCHMARK.json workloads differ from gen.WORKLOADS")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == list(run.END_TO_END), "BENCHMARK.json end_to_end differs")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == list(run.LAYERS), "BENCHMARK.json per_layer differs")


def main() -> None:
    check_benchmark_json()
    for workload, sizes in TINY.items():
        command, make = gen.WORKLOADS[workload]
        gen.WORKLOADS[workload] = (command, functools.partial(make, **sizes))
        digest = hashlib.sha256(
            gen.WORKLOADS[workload][1](SEED).encode()).hexdigest()

        texts = []
        for traced in (False, True):
            text, result = run_tiny(workload, traced)
            texts.append(text)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"], f"{workload}: run not correct:\n{text}")
            check(result["attempted"] >= 1, f"{workload}: nothing attempted")
            names = run.LAYERS if traced else run.END_TO_END
            check({n: u for n, u in names}
                  == {n: m["unit"] for n, m in result["metrics"].items()},
                  f"{workload}: JSON metrics differ from the metric list")
            for name, unit in names:
                check(printed(text, name, unit),
                      f"{workload}: {name} not printed with unit {unit}")
            frac = result["failed"] / result["attempted"]
            check(printed(text, "failed_frac", "ratio")
                  and f"{frac:12.4f} ratio" in text,
                  f"{workload}: failed_frac missing or not failed/attempted")
            known = run.KNOWN_DEFECTS.get(workload, {})
            check((result["failed"] > 0) == bool(known),
                  f"{workload}: failed={result['failed']} but known "
                  f"defects are {sorted(known)}")
            check(f"input sha256 {digest}" in text,
                  f"{workload}: input differs from the generator's text")
        check("layer share of traced wall" in texts[1],
              f"{workload}: no layer share table")
        print(f"smoke: {workload} ok")
    print("smoke: all ok")


if __name__ == "__main__":
    main()

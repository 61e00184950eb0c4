"""The rcic benchmark: closed-loop `rcic` invocations on seeded workloads.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; rcic is imported from `src/`.  One
client runs one single-threaded `rcic <cmd> prelude.rcic <workload file>`
at a time, each in a fresh process (bench/child.py), and starts the next
when the previous one has returned, for about `--seconds` seconds.  Every
verdict is checked against its known answer (see README.md).  Every time
is scaled to a reference host speed, gauged in each process (calib.py).

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it also
runs traced invocations and prints the per-layer metrics and a table of
self time by module.  Without `--workload` it runs every workload in turn.
The last line of the output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PRELUDE = SRC / "rcic" / "prelude.rcic"
OUT = HERE / "out"

sys.path[:0] = [str(HERE), str(SRC)]
import calib  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

# Verdicts known to be wrong at the commit that defined this benchmark.
# They are counted in `failed` like any other wrong verdict; listing them
# here only keeps them from marking the run incorrect.
KNOWN_DEFECTS = {
    "param-check": {
        "vlen": "FAIL under param-check (argument type mismatch) although "
                "check accepts it",
        "vappend": "FAIL under param-check (argument type mismatch) although "
                   "check accepts it",
    },
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("decl_p50_ms", "ms"),
              ("decl_tail_ms", "ms"), ("peak_rss_mb", "MB"))
LAYERS = (
    ("frontend.tokenize_s", "s"), ("frontend.parse_s", "s"),
    ("frontend.elaborate_s", "s"), ("frontend.tokens", "count"),
    ("frontend.nodes", "count"),
    ("kernel.whnf_s", "s"), ("kernel.whnf_calls", "count"),
    ("kernel.conv_s", "s"), ("kernel.conv_calls", "count"),
    ("kernel.subtype_calls", "count"), ("kernel.infer_s", "s"),
    ("kernel.guard_s", "s"), ("kernel.inductive_s", "s"),
    ("kernel.beta_normalize_s", "s"), ("kernel.beta_normalize_calls", "count"),
    ("param.abstraction_check_s", "s"), ("param.translate_self_s", "s"),
    ("param.judgment_source_s", "s"), ("param.judgment_copy_s", "s"),
    ("param.judgment_witness_s", "s"), ("param.witness_nodes", "count"),
    ("param.prime_calls", "count"),
    ("syntax.free_vars_calls", "count"), ("syntax.free_vars_s", "s"),
    ("syntax.subst_calls", "count"), ("syntax.subst_s", "s"),
    ("syntax.alpha_eq_calls", "count"), ("syntax.alpha_eq_s", "s"),
    ("printer.print_s", "s"), ("printer.bytes_out", "bytes"),
    ("bench.trace_overhead_s", "s"),
)
LAYER_UNITS = dict(LAYERS)
# Invocations run with the interpreter's default settings (buffered stdout,
# bytecode cache, hash randomisation), whatever PYTHON* variables the caller
# has set.  Traced ones also fix the hash seed, so that set iteration, and
# with it the traced counters, repeat.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
TRACED_ENV = {**CHILD_ENV, "PYTHONHASHSEED": "0"}
SETUP_SPAWNS = 5  # import-only spawns per run; the first one is a warm-up
MIN_INVOCATIONS = 3
TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Known answers


@dataclass
class Expected:
    """One declaration's known answer: the output lines it must produce,
    each checked by `ok(line)`."""

    name: str
    checks: list = field(default_factory=list)


def known_answers(command: str, texts: list[str]) -> list[Expected]:
    """Known answers for every declaration of `texts`, in order.

    Under `check` each declaration prints `name : type` for itself (and for
    each constructor); the printed type must parse back alpha-equal to the
    declared one.  Under `param-check` each definition prints `PASS name`,
    by the abstraction theorem, and inductives print nothing.  Globals are
    added to the reference environment without kernel checks, so the answer
    does not depend on the kernel under test.
    """
    from rcic import (Definition, GlobalEnv, InductiveDecl, ParseError,
                      alpha_eq, elaborate, parse_file, parse_term)
    from rcic.frontend import DDef, DInductive

    env = GlobalEnv()

    def typed(name, ty):
        def ok(line: str) -> bool:
            head, sep, printed = line.partition(" : ")
            if head != name or not sep:
                return False
            try:
                return alpha_eq(elaborate(env, parse_term(printed)), ty)
            except ParseError:
                return False
        return ok

    out = []
    for text in texts:
        for decl in parse_file(text).decls:
            exp = Expected(decl.name)
            if isinstance(decl, DInductive):
                arity = elaborate(env, decl.arity)
                prov = env.with_provisional(
                    InductiveDecl(decl.name, decl.params, arity, ()))
                ctors = tuple((c, elaborate(prov, ty))
                              for c, ty in decl.constructors)
                env.add_inductive(
                    InductiveDecl(decl.name, decl.params, arity, ctors))
                if command == "check":
                    exp.checks = [typed(decl.name, arity)]
                    exp.checks += [typed(c, ty) for c, ty in ctors]
            elif isinstance(decl, DDef):
                ty = elaborate(env, decl.type)
                env.add_definition(
                    Definition(decl.name, ty, elaborate(env, decl.body)))
                if command == "check":
                    exp.checks = [typed(decl.name, ty)]
                else:
                    exp.checks = [f"PASS {decl.name}".__eq__]
            else:
                raise BenchError(f"unexpected declaration {decl!r}")
            out.append(exp)
    return out


def verdicts(expected: list[Expected], lines: list[str]) -> list[bool]:
    """Per declaration with output, whether its lines are the known answer.
    Lines missing because the run stopped early count as wrong."""
    ok = []
    pos = 0
    for exp in expected:
        if not exp.checks:
            continue
        got = lines[pos:pos + len(exp.checks)]
        pos += len(exp.checks)
        ok.append(len(got) == len(exp.checks)
                  and all(check(line) for check, line in zip(exp.checks, got)))
    return ok


# ---------------------------------------------------------------------------
# One invocation


@dataclass
class Invocation:
    """One rcic invocation; the timings are None if it did not return."""

    setup_s: float | None = None
    wall_s: float | None = None
    quantum_s: float = 0.0
    decl_s: list[float] = field(default_factory=list)
    rss_kb: int = 0
    failed: int = 0
    attempted: int = 0
    unexpected: list[str] = field(default_factory=list)
    trace: dict | None = None


class Runner:
    """Spawns rcic invocations for one workload and checks their output."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.command, make = gen.WORKLOADS[workload]
        text = make(seed)
        if make(seed) != text:
            raise BenchError("the generator is not deterministic")
        self.input = workdir / f"{workload}.rcic"
        self.input.write_bytes(text.encode())
        self.digest = hashlib.sha256(text.encode()).hexdigest()
        self.workdir = workdir
        self.expected = known_answers(self.command,
                                      [PRELUDE.read_text(), text])
        self.graded: dict[str, tuple[int, list[str]]] = {}
        self.known = KNOWN_DEFECTS.get(workload, {})

    @property
    def declarations(self) -> int:
        return sum(1 for e in self.expected if e.checks)

    def spawn(self, rcic_args: list[str], mode: str | None = None,
              trace: Path | None = None):
        """Run child.py, traced in `mode` ("time" or "count") if given; its
        report is empty if the process died before writing one."""
        report = self.workdir / "report.json"
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(report)]
        if trace is not None:
            cmd += ["--trace", mode, str(trace)]
        cmd += ["--", *rcic_args] if rcic_args else []
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=TIMEOUT_S,
                              env=CHILD_ENV if trace is None else TRACED_ENV)
        info = json.loads(report.read_text()) if report.exists() else {}
        if "rcic_file" in info and not Path(
                info["rcic_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"rcic was imported from {info['rcic_file']}")
        return start, proc, info

    def setup_only(self) -> float:
        start, proc, info = self.spawn([])
        if proc.returncode != 0 or "ready" not in info:
            raise BenchError(f"importing rcic failed: {proc.stderr[-2000:]}")
        return (info["ready"] - start) * host_scale(info["calib"])

    def invoke(self, mode: str | None = None) -> Invocation:
        trace_file = self.workdir / "spans.bin" if mode else None
        start, proc, info = self.spawn(
            [self.command, str(PRELUDE), str(self.input)], mode, trace_file)
        inv = Invocation(attempted=self.declarations)
        inv.failed, inv.unexpected = self.grade(proc.stdout)
        stamps = info.get("stamps", [])
        if ("Traceback (most recent call last)" in proc.stderr
                or proc.returncode not in (0, 1, 2)
                or len(stamps) != len(proc.stdout.splitlines())):
            inv.unexpected.append(f"crash (exit {proc.returncode}): "
                                  f"{proc.stderr[-500:]}")
        if "main_end" in info:
            scale = host_scale(info["calib"])
            inv.quantum_s = statistics.mean(info["calib"])
            inv.setup_s = (info["ready"] - start) * scale
            inv.rss_kb = info["maxrss_kb"]
            inv.wall_s = (info["main_end"] - info["main_start"]) * scale
            inv.decl_s = [d * scale for d in
                          self.intervals(info["main_start"], stamps)]
            if mode and trace_file.exists():
                inv.trace = spans.summarize(trace_file, scale)
        if trace_file is not None:
            trace_file.unlink(missing_ok=True)
        return inv

    def grade(self, stdout: str) -> tuple[int, list[str]]:
        """The number of wrong verdicts, and those not explained by a known
        defect.  A declaration left undecided by a crash has no lines, so
        it counts as wrong.  Outputs repeat across invocations, so each
        distinct output is graded once."""
        key = hashlib.sha256(stdout.encode()).hexdigest()
        if key not in self.graded:
            lines = stdout.splitlines()
            named = [e.name for e in self.expected if e.checks]
            ok = verdicts(self.expected, lines)
            wrong = [name for name, good in zip(named, ok) if not good]
            expected_lines = sum(len(e.checks) for e in self.expected)
            unexpected = [f"wrong verdict: {name}" for name in wrong
                          if name not in self.known]
            if len(lines) > expected_lines:
                unexpected.append(f"{len(lines) - expected_lines} extra lines")
            self.graded[key] = (len(wrong), unexpected)
        failed, unexpected = self.graded[key]
        return failed, list(unexpected)

    def intervals(self, start: float, stamps: list[float]) -> list[float]:
        """Time to each declaration's verdict: from the previous verdict
        (or `cli.main` entry) to the last result line it printed."""
        out, prev, pos = [], start, 0
        for exp in self.expected:
            if not exp.checks:
                continue
            pos += len(exp.checks)
            if pos > len(stamps):
                break
            out.append(stamps[pos - 1] - prev)
            prev = stamps[pos - 1]
        return out


# ---------------------------------------------------------------------------
# Metrics


def host_scale(quanta: list[float]) -> float:
    """The factor that turns a process's timings into seconds at the
    reference speed: the calibration quantum's reference time over its
    mean time in that process, before and after the measured work."""
    return calib.REFERENCE_S / statistics.mean(quanta)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n)))


def percentile(samples: list[float], q: int) -> float:
    ranked = sorted(samples)
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def end_to_end(runs: list[Invocation], setups: list[float]) -> tuple[dict, str]:
    done = [r for r in runs if r.wall_s is not None]
    if not done:
        raise BenchError("no invocation returned from cli.main")
    n = len(done[0].decl_s)
    q = tail_percentile(n)
    values = {
        "wall_s": statistics.median(r.wall_s for r in done),
        "setup_s": statistics.median(setups + [r.setup_s for r in done]),
        "decl_p50_ms": 1000 * statistics.median(
            s for r in done for s in r.decl_s),
        "decl_tail_ms": 1000 * statistics.median(
            percentile(r.decl_s, q) for r in done),
        "peak_rss_mb": statistics.median(r.rss_kb for r in done) / 1024,
    }
    note = (f"decl_tail_ms is p{q} of n={n} declarations per invocation, "
            f"median over {len(done)} invocations")
    return values, note


def layers(timed: dict, counted: dict, overhead: float) -> dict:
    """Per-layer metrics: times from a timing pass, counts from a counting
    pass."""
    self_s, total = timed["self_s"], timed["total_s"]
    calls, counters = counted["calls"], counted["counters"]

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(name):
        return calls.get(name, 0)

    return {
        "frontend.tokenize_s": s("frontend.tokenize"),
        "frontend.parse_s": s("frontend.parse_file", "frontend.parse_term"),
        "frontend.elaborate_s": s("frontend.elaborate"),
        "frontend.tokens": counters["frontend.tokens"],
        "frontend.nodes": counters["frontend.nodes"],
        "kernel.whnf_s": s("kernel.whnf"),
        "kernel.whnf_calls": c("kernel.whnf"),
        "kernel.conv_s": s("kernel.conv"),
        "kernel.conv_calls": c("kernel.conv"),
        "kernel.subtype_calls": c("kernel.subtype"),
        "kernel.infer_s": s("kernel.check", "kernel.infer", "kernel.infer_sort"),
        "kernel.guard_s": s("kernel.check_guard"),
        "kernel.inductive_s": s("kernel.check_inductive"),
        "kernel.beta_normalize_s": s("kernel.beta_normalize"),
        "kernel.beta_normalize_calls": c("kernel.beta_normalize"),
        "param.abstraction_check_s": total.get("param.abstraction_check", 0.0),
        "param.translate_self_s": s("param.abstraction_check",
                                    "param.translate_definition",
                                    "param.translate_inductive"),
        "param.judgment_source_s": total.get("kernel.check#source", 0.0),
        "param.judgment_copy_s": total.get("kernel.check#copy", 0.0),
        "param.judgment_witness_s": total.get("kernel.check#witness", 0.0),
        "param.witness_nodes": counters["param.witness_nodes"],
        "param.prime_calls": c("param.prime"),
        "syntax.free_vars_calls": c("syntax.free_vars"),
        "syntax.free_vars_s": s("syntax.free_vars"),
        "syntax.subst_calls": c("syntax.subst"),
        "syntax.subst_s": s("syntax.subst"),
        "syntax.alpha_eq_calls": c("syntax.alpha_eq"),
        "syntax.alpha_eq_s": s("syntax.alpha_eq"),
        "printer.print_s": s("printer.print_term", "printer.print_definition",
                             "printer.print_inductive"),
        "printer.bytes_out": counters["printer.bytes_out"],
        "bench.trace_overhead_s": overhead,
    }


def module_shares(trace: dict) -> dict[str, float]:
    wall = trace["total_s"]["cli.main"]  # tracer cost taken out
    shares = {m: 0.0 for m in spans.MODULES}
    for name, value in trace["self_s"].items():
        shares[name.split(".")[0]] += value / wall
    return shares


# ---------------------------------------------------------------------------
# One run


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        return _run(workload, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload: str, seed: int, seconds: float, traced: bool,
         workdir: Path) -> dict:
    runner = Runner(workload, seed, workdir)
    print(f"workload {workload}, seed {seed}: `rcic {runner.command} "
          f"prelude.rcic {runner.input.name}`, {runner.declarations} "
          f"declarations with verdicts, input sha256 {runner.digest}")
    setups = [runner.setup_only() for _ in range(SETUP_SPAWNS)][1:]
    plain: list[Invocation] = []
    timed: list[Invocation] = []
    counted: list[Invocation] = []
    # Closed loop: the next invocation starts when the previous one has
    # returned, and none starts that would end after the deadline.
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        plain.append(runner.invoke())
        if traced:
            timed.append(runner.invoke("time"))
            counted.append(runner.invoke("count"))
        enough = (len(counted) >= 2 if traced
                  else len(plain) >= MIN_INVOCATIONS)
        now = time.perf_counter()
        if enough and 2 * now - began > deadline:
            break

    everything = plain + timed + counted
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    unexpected = sorted({u for r in everything for u in r.unexpected})
    values, note = end_to_end(plain, setups)
    print(f"{len(plain)} untraced invocations; times are scaled to the "
          f"reference speed (calibration quantum {1000 * calib.REFERENCE_S:g} "
          f"ms, median here {1000 * statistics.median(r.quantum_s for r in plain):.2f} ms)")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {values[name]:12.4f} {unit}")
    print(f"  {'failed_frac':<14} {failed / attempted:12.4f} ratio "
          f"({failed} of {attempted} declaration verdicts)")
    print(f"  ({note})")
    for name, why in KNOWN_DEFECTS.get(workload, {}).items():
        print(f"  known defect: {name}: {why}")
    for problem in unexpected:
        print(f"  UNEXPECTED: {problem}")
    correct = not unexpected
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    if traced:
        metrics, repeated = per_layer(workload, timed, counted,
                                      values["wall_s"])
        correct = correct and repeated
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer(workload: str, timed: list[Invocation],
              counted: list[Invocation],
              untraced_wall: float) -> tuple[dict, bool]:
    """Per-layer metrics (medians over the traced invocations), and whether
    every counter repeated exactly across the counting passes."""
    done = [r for r in timed if r.trace is not None]
    counts_done = [r for r in counted if r.trace is not None]
    if len(done) < 2 or len(counts_done) < 2:
        raise BenchError("fewer than two traced invocations returned")
    traced_wall = statistics.median(r.wall_s for r in done)
    overhead = traced_wall - untraced_wall
    per_run = [layers(t.trace, c.trace, overhead)
               for t, c in zip(done, counts_done)]
    counts = [{k: v for k, v in p.items() if LAYER_UNITS[k] != "s"}
              for p in per_run]
    repeated = all(c == counts[0] for c in counts)
    corrected = statistics.median(r.trace["total_s"]["cli.main"]
                                  for r in done)
    print(f"{len(done)} timing and {len(counts_done)} counting passes "
          f"(per-layer values are medians; self time excludes wrapped child "
          f"calls and the tracer's cost)")
    print(f"  traced wall {traced_wall:.4f} s, {corrected:.4f} s without the "
          f"tracer's measured cost; untraced wall {untraced_wall:.4f} s")
    metrics = {}
    for name, unit in LAYERS:
        value = statistics.median(p[name] for p in per_run)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:14.4f} {unit}")
    if not repeated:
        print("  UNEXPECTED: counters differ between counting passes")
    shares = [module_shares(r.trace) for r in done]
    row = "  ".join(f"{m} {100 * statistics.median(s[m] for s in shares):5.1f}%"
                    for m in spans.MODULES)
    print(f"layer share of traced wall, tracer cost taken out "
          f"({workload}): {row}")
    return metrics, repeated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS),
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PRELUDE.is_file():
        print(f"error: {PRELUDE} not found; run from an rcic source checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(gen.WORKLOADS)
    try:
        for name in names:
            result = run(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one `rcic` command in a fresh process and report its timings.

    python3 bench/child.py REPORT.json [--trace time|count SPANS.bin] \
        [-- RCIC-ARGS...]

Does what the `rcic` entry point does (`rcic.cli.main(argv)`), after
importing rcic from `src/` next to this directory.  The report records, on
the clock shared with the parent process (CLOCK_MONOTONIC):

- `ready`: when `rcic.cli` is imported and ready;
- `main_start` / `main_end`: entry to and return from `cli.main`;
- `stamps`: when each result line was written to stdout;
- `maxrss_kb`: the process's peak resident memory (VmHWM).  Not
  `getrusage`, whose `ru_maxrss` keeps the parent's size from before exec;
- `calib`: the times of the calibration quanta (calib.py) run after `ready`
  and again after `cli.main` returns, which gauge the host's speed.

Without RCIC-ARGS it only imports rcic, which measures set-up alone.  With
`--trace` it first wraps rcic's public functions for the timing or the
counting pass (see spans.py).  After `cli.main` returns, the timing pass
measures the wrappers' own cost; the spans go to SPANS.bin.  An exception
escaping `cli.main` still writes the report, then propagates with its
traceback.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


class StampedStdout:
    """Passes writes through, noting when each line ends."""

    def __init__(self, stream, stamps):
        self.stream = stream
        self.stamps = stamps

    def write(self, text):
        n = self.stream.write(text)
        if text.endswith("\n"):
            self.stamps.append(time.perf_counter())
        return n

    def __getattr__(self, name):
        return getattr(self.stream, name)


def peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    report_path = Path(sys.argv[1])
    rest = sys.argv[2:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        mode, trace_path, rest = rest[1], Path(rest[2]), rest[3:]
    argv = rest[1:] if rest[:1] == ["--"] else rest

    import rcic
    from rcic import cli

    tracer = None
    if trace_path is not None:
        from spans import Tracer, wrapper_costs
        tracer = Tracer(counting=mode == "count")
        tracer.install()
    report = {"ready": time.perf_counter(), "rcic_file": rcic.__file__,
              "stamps": []}
    import calib
    report["calib"] = calib.quanta()
    try:
        if argv:
            sys.stdout = StampedStdout(sys.stdout, report["stamps"])
            report["main_start"] = time.perf_counter()
            report["exit"] = cli.main(argv)
            report["main_end"] = time.perf_counter()
            sys.stdout = sys.__stdout__
            if tracer is not None and not tracer.counting:
                tracer.costs = wrapper_costs()
            report["calib"] += calib.quanta()
    finally:
        sys.stdout = sys.__stdout__
        sys.stdout.flush()
        report["maxrss_kb"] = peak_rss_kb()
        report_path.write_text(json.dumps(report))
    if tracer is not None:
        tracer.dump(trace_path)
    sys.exit(report.get("exit", 0))


if __name__ == "__main__":
    main()

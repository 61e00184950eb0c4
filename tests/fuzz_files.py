"""Seeded token mutations of the prelude and the golden inputs, run through
the command line in process.

The bases are the prelude and the inputs of the golden translations:
`tests/renaming_paths.rcic`, b8 (`walker_counts.binder_depth_source(8)`)
and `walker_counts.VEC_SOURCE`.  Mutant i takes base i modulo 4 and makes
one to three edits drawn from its own seeded generator.  Half the mutants
get token edits: delete a token, duplicate one, replace one by another
token of the text, or swap one with its neighbour.  The other half get
identifier swaps, which replace one occurrence or every occurrence of an
identifier by another identifier of the text, and so reach the checker
and the translation more often than the parser.  A golden input's mutant
is read after the unmutated prelude.

Each mutant is run through `cli.main` under `check`, `translate` and
`param-check`, each run under a time limit.  Every run must return 0, 1
or 2; an exception out of `main`, another status or a run over the limit
is a failure.

    PYTHONPATH=src python tests/fuzz_files.py [COUNT]

runs the first COUNT mutants (default 100), each run limited to LIMIT_S
seconds, and prints a Markdown table of the exit statuses per command,
with the slowest run, then one line per failure.  It exits with status 1
if any run failed.  Mutant i is the same whatever COUNT is.
"""

import contextlib
import io
import random
import re
import signal
import sys
import tempfile
import time
from pathlib import Path

from rcic import prelude_path
from rcic.cli import main
from rcic.frontend import KEYWORDS

from walker_counts import VEC_SOURCE, binder_depth_source

COMMANDS = ("check", "translate", "param-check")
SEED = 0
# The slowest of the 2,100 runs of 700 mutants took 0.12 s on a 2-core
# x86-64 host with Python 3.11: a run past this limit is stuck, not slow.
LIMIT_S = 20.0
# Comment brackets, words, numbers, two-character symbols, any other
# character, and runs of white space, which no edit touches.
TOKEN = re.compile(r"\(\*|\*\)|[A-Za-z_][A-Za-z0-9_']*|\d+|:=|=>|->|\s+|.")
WORD = re.compile(r"[A-Za-z_]")


class RunTimeout(BaseException):
    """A run went past its time limit.  It is no Exception, so that no
    handler in the command line can take it for an error of the input."""


def bases() -> list[tuple[str, str]]:
    """The texts to mutate, each with its name."""
    tests = Path(__file__).resolve().parent
    return [("prelude", prelude_path().read_text()),
            ("renaming_paths", (tests / "renaming_paths.rcic").read_text()),
            ("b8", binder_depth_source(8)),
            ("vec", VEC_SOURCE)]


def mutate(text: str, rng: random.Random) -> str:
    """`text` with one to three edits, either all token edits or all
    identifier swaps.  A swap replaces one occurrence of an identifier, or
    every occurrence, by another identifier (no keyword) of the text."""
    tokens = TOKEN.findall(text)
    spots = [i for i, tok in enumerate(tokens) if not tok.isspace()]
    words = [i for i in spots
             if WORD.match(tokens[i]) and tokens[i] not in KEYWORDS]
    swaps = rng.random() < 0.5
    for _ in range(rng.randint(1, 3)):
        if swaps:
            old, new = tokens[rng.choice(words)], tokens[rng.choice(words)]
            if rng.random() < 0.5:
                tokens = [new if tok == old else tok for tok in tokens]
            else:
                tokens[rng.choice([i for i in words if tokens[i] == old])] = new
            continue
        i = rng.choice(spots)
        edit = rng.randrange(4)
        if edit == 0:
            tokens[i] = ""
        elif edit == 1:
            tokens[i] += " " + tokens[i]
        elif edit == 2:
            tokens[i] = tokens[rng.choice(spots)]
        else:
            j = spots[min(spots.index(i) + 1, len(spots) - 1)]
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


def _expire(signum, frame):
    raise RunTimeout("over the time limit")


def run(argv: list[str]) -> tuple[object, float]:
    """The status `main(argv)` returns, or the exception that left it, and
    the seconds it took; its output is discarded."""
    previous = signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
            try:
                outcome = main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except (Exception, RunTimeout) as err:
        outcome = err
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcome, time.perf_counter() - start


def fuzz(count: int):
    """Run the first `count` mutants under each command.  Returns the
    number of runs per command and status, the slowest run per command
    as (seconds, mutant), and the failures as text lines."""
    texts = bases()
    statuses = {cmd: {} for cmd in COMMANDS}
    slowest = {cmd: (0.0, None) for cmd in COMMANDS}
    failures = []
    prelude = str(prelude_path())
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(count):
            name, text = texts[i % len(texts)]
            path = Path(tmp) / f"{name}_{i}.rcic"
            path.write_text(mutate(text, random.Random(f"{SEED}:{i}")))
            files = [str(path)] if name == "prelude" else [prelude, str(path)]
            for cmd in COMMANDS:
                outcome, seconds = run([cmd, *files])
                if outcome in (0, 1, 2):
                    key = outcome
                else:
                    key = "failed"
                    failures.append(f"{cmd} of mutant {i} ({name}): "
                                    f"{outcome!r}")
                statuses[cmd][key] = statuses[cmd].get(key, 0) + 1
                slowest[cmd] = max(slowest[cmd], (seconds, i),
                                   key=lambda pair: pair[0])
    return statuses, slowest, failures


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    statuses, slowest, failures = fuzz(count)
    print(f"Fuzzed files: {count} mutants, {LIMIT_S:g} s per run\n")
    print("| command | exit 0 | exit 1 | exit 2 | failed | slowest run |")
    print("|---|---|---|---|---|---|")
    for cmd in COMMANDS:
        counts = statuses[cmd]
        seconds, mutant = slowest[cmd]
        print(f"| {cmd} | " + " | ".join(str(counts.get(key, 0))
                                        for key in (0, 1, 2, "failed"))
              + f" | {seconds:.3f} s (mutant {mutant}) |")
    for line in failures:
        print(f"\nFAILED {line}")
    sys.exit(1 if failures else 0)

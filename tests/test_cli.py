"""Tests for the command line driver: outputs and exit codes."""

import gc
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rcic
from rcic import cli, prelude_path, print_term
from rcic.cli import main

from conftest import fresh_prelude_env
from gen import random_typed
from walker_counts import CONV_SOURCE, VEC_SOURCE, binder_depth_source

GOOD = """
inductive Pair (A B : Set0) : Set0 := pair : A -> B -> Pair A B.
def fst_nat : Pair Nat Nat -> Nat :=
  fun (p : Pair Nat Nat) =>
    match p as x in Pair Nat Nat return Nat with
    | pair => fun (a : Nat) (b : Nat) => a
    end.
check fst_nat (pair Nat Nat zero (succ zero)).
"""

BAD_ELIM = """
inductive Boxed : Set1 := box : Set0 -> Boxed.
def unbox : Boxed -> Set0 :=
  fun (b : Boxed) =>
    match b as x in Boxed return Set0 with
    | box A => A
    end.
"""


@pytest.fixture
def prelude():
    return str(prelude_path())


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_starting_the_cli_imports_no_dataclasses():
    # Records are plain classes, so a fresh interpreter importing the CLI
    # loads neither dataclasses nor inspect (which dataclasses imports).
    # -S keeps site hooks, which might import either, out of the check.
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, rcic.cli; "
         "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        capture_output=True, encoding="utf-8", env=env, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_check_prelude(prelude, capsys):
    assert main(["check", prelude]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "Nat : Set0" in out
    assert "succ : Nat -> Nat" in out
    assert "plus : Nat -> Nat -> Nat" in out
    # One line per declared name plus the constructors.
    assert len(out) == 42


def test_check_multiple_files_share_env(prelude, tmp_path, capsys):
    extra = write(tmp_path, "extra.rcic", GOOD)
    assert main(["check", prelude, extra]) == 0
    out = capsys.readouterr().out
    assert "fst_nat : Pair Nat Nat -> Nat" in out
    # The check pragma prints the inferred type of its term.
    assert "fst_nat (pair Nat Nat zero (succ zero)) : Nat" in out


def test_check_reports_type_error(prelude, tmp_path, capsys):
    bad = write(tmp_path, "bad.rcic", "def oops : Nat := true.")
    assert main(["check", prelude, bad]) == 1
    err = capsys.readouterr().err
    assert "bad.rcic:1:1: error:" in err
    assert "NotConvertible" in err
    # The expected and actual types follow, one indented line each.
    bad = write(tmp_path, "bad.rcic",
                "def bad : Nat -> Bool := fun (n : Nat) => n.")
    assert main(["check", prelude, bad]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{bad}:1:1: error: NotConvertible: term does not have the "
        "expected type",
        "  expected: Nat -> Bool",
        "  actual: Nat -> Nat",
    ]
    # A Lam checked against a type that is no product.
    bad = write(tmp_path, "bad.rcic", "def f : Nat := fun (x : Nat) => x.")
    assert main(["check", prelude, bad]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{bad}:1:1: error: NotConvertible: term does not have the "
        "expected type",
        "  expected: Nat",
        "  actual: Nat -> Nat",
    ]


def test_check_reports_parse_error(tmp_path, capsys):
    bad = write(tmp_path, "bad.rcic", "def oops : Nat :=\n  match x")
    assert main(["check", bad]) == 2
    err = capsys.readouterr().err
    assert "bad.rcic:2:" in err
    # A non-ASCII letter or digit is a diagnostic, not a traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]),
               PYTHONIOENCODING="utf-8")
    for text, where, char in (("def é : Nat := zero.", "1:5", "é"),
                              ("def x : Nat := ².", "1:16", "²")):
        src = write(tmp_path, "letter.rcic", text)
        run = subprocess.run(
            [sys.executable, "-m", "rcic.cli", "check", src],
            capture_output=True, encoding="utf-8", env=env, timeout=60)
        assert run.returncode == 2
        assert run.stderr == (f"{src}:{where}: error: unexpected character "
                              f"'{char}'\n")


def test_check_underscore_as_a_term_is_a_parse_error(prelude, tmp_path,
                                                    capsys):
    bad = write(tmp_path, "bad.rcic",
                "def f : Nat -> Nat := fun (_ : Nat) => _.")
    assert main(["check", prelude, bad]) == 2
    assert capsys.readouterr().err == (
        f"{bad}:1:40: error: expected a term, found '_'\n")


def test_check_underscore_as_a_global_name_is_a_parse_error(prelude, tmp_path,
                                                           capsys):
    for text, where in (("def _ : Nat := zero.", "1:5"),
                        ("inductive U : Set0 := _ : U.", "1:23")):
        bad = write(tmp_path, "bad.rcic", text)
        assert main(["check", prelude, bad]) == 2
        assert capsys.readouterr().err == (
            f"{bad}:{where}: error: expected a name, found '_'\n")
    bad = write(tmp_path, "bad.rcic", "paramcheck _.")
    assert main(["param-check", prelude, bad]) == 2
    assert capsys.readouterr().err == (
        f"{bad}:1:12: error: expected a name, found '_'\n")


def numeral(depth):
    text = "zero"
    for _ in range(depth):
        text = f"succ ({text})"
    return text


def test_check_deep_nesting_is_a_parse_error(prelude, tmp_path, capsys):
    ok = write(tmp_path, "ok.rcic", f"def n200 : Nat := {numeral(200)}.")
    assert main(["check", prelude, ok]) == 0
    assert "n200 : Nat" in capsys.readouterr().out.splitlines()

    deep = write(tmp_path, "deep.rcic", f"def n1200 : Nat := {numeral(1200)}.")
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "rcic.cli", "check", prelude, deep],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert f"{deep}:1:" in run.stderr
    assert "error: nesting too deep" in run.stderr
    assert "Traceback" not in run.stderr


def test_param_check_too_deep_is_a_diagnostic(prelude, tmp_path):
    # The kernel's check recurses once per nested argument, and a numeral
    # of 400 succs overflows the interpreter's recursion limit.  Each
    # command reports it at the declaration.  `check` also prints each
    # declaration's type, and the printer recurses once per arrow, so a
    # telescope of 1,100 binders is too deep for `check` as well.
    n = 400
    numeral = write(tmp_path, "numeral.rcic",
                    f"def f : Nat := {'succ (' * n}zero{')' * n}.\n")
    binders = write(tmp_path, "binders.rcic", binder_depth_source(1100))
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))

    def run(command, deep):
        return subprocess.run(
            [sys.executable, "-m", "rcic.cli", command, prelude, deep],
            capture_output=True, text=True, env=env, timeout=120)

    for command, deep in (("param-check", numeral), ("check", numeral),
                          ("check", binders)):
        failed = run(command, deep)
        assert failed.returncode == 1
        assert f"{deep}:1:1: error: nesting too deep" in failed.stderr
        assert "Traceback" not in failed.stderr


def test_param_check_250_binders(prelude, tmp_path):
    # 250 source binders, three translated binders each, must fit the
    # interpreter's default recursion limit.
    src = write(tmp_path, "b250.rcic", binder_depth_source(250))
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "rcic.cli", "param-check", prelude, src],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "PASS b250"


def test_param_check_1100_binders(prelude, tmp_path):
    # The elaborator, the translation and the relation's product telescope
    # read binder telescopes in loops, so a depth of 1,100 binders, past
    # the interpreter's recursion limit, needs no frame per binder.
    src = write(tmp_path, "b1100.rcic", binder_depth_source(1100))
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "rcic.cli", "param-check", prelude, src],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "PASS b1100"


def test_translate_200_binders(prelude, tmp_path):
    # Declaring the relation of b200 types a product telescope of 600
    # binders, which must fit the interpreter's default recursion limit.
    src = write(tmp_path, "b200.rcic", binder_depth_source(200))
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "rcic.cli", "translate", prelude, src],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].startswith("def b200_R : ")


def test_check_495_binders(prelude, tmp_path):
    # Printing the type of b495, two Python frames per arrow, must fit the
    # interpreter's default recursion limit under `main`.
    src = write(tmp_path, "b495.rcic", binder_depth_source(495))
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "rcic.cli", "check", prelude, src],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].startswith("b495 : Nat -> ")


def test_check_missing_file(capsys):
    assert main(["check", "/does/not/exist.rcic"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_non_utf8_file_is_an_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.rcic"
    bad.write_bytes(b"\xff\xfe def x")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: error: ")
    assert "utf-8" in err


def test_check_duplicate_declaration(prelude, tmp_path, capsys):
    dup = write(tmp_path, "dup.rcic", "def plus : Nat := zero.")
    assert main(["check", prelude, dup]) == 1
    assert capsys.readouterr().err == (
        f"{dup}:1:1: error: plus is already declared\n")
    dup = write(tmp_path, "dup.rcic",
                "def x : Nat := zero.\ndef x : Nat := zero.")
    assert main(["check", prelude, dup]) == 1
    assert capsys.readouterr().err == (
        f"{dup}:2:1: error: x is already declared\n")
    # Two constructors of one name are an ill-formed inductive.
    dup = write(tmp_path, "dup.rcic", "inductive T : Set0 := a : T | a : T.")
    assert main(["check", dup]) == 1
    assert capsys.readouterr().err == (
        f"{dup}:1:1: error: IllFormedInductive: T: duplicate constructor "
        "name a\n")


def test_check_reports_elaboration_error(prelude, tmp_path, capsys):
    # A ParseError raised while elaborating a declaration, after the file
    # parsed: exit 2, at the match.
    bad = write(tmp_path, "bad.rcic",
                "def f : Nat := match zero as x in Foo return Nat with "
                "| zero => zero end.")
    assert main(["check", prelude, bad]) == 2
    assert capsys.readouterr().err == (
        f"{bad}:1:16: error: unknown inductive Foo\n")


def test_check_reserved_names_rejected(tmp_path, capsys):
    bad = write(tmp_path, "bad.rcic", "def x_R : Prop := Prop.")
    assert main(["check", bad]) == 2
    assert "reserved" in capsys.readouterr().err


def test_print_universes(prelude, capsys):
    assert main(["check", "--print-universes", prelude]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "Nat : Set0 : Type1" in out
    assert "plus : Nat -> Nat -> Nat : Set0" in out
    assert "id : forall (A : Set0), A -> A : Set1" in out
    assert "id_prop : forall (P : Prop), P -> P : Prop" in out


def test_translate_whole_file(prelude, capsys):
    assert main(["translate", prelude]) == 0
    out = capsys.readouterr().out
    assert "inductive Nat_R : Nat -> Nat -> Prop :=" in out
    assert "def plus_R :" in out
    assert "def rev_R :" in out


def test_translate_prelude_matches_golden(prelude, capsys):
    assert main(["translate", prelude]) == 0
    golden = Path(__file__).with_name("golden") / "prelude_translate.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_translate_binder_depth_matches_golden(prelude, tmp_path, capsys):
    # The relation of b8 renames the binder triple of each nested arrow
    # (x, x1, x2, ...); the names are pinned.
    src = write(tmp_path, "b8.rcic", binder_depth_source(8))
    assert main(["translate", "--def", "b8", prelude, src]) == 0
    golden = Path(__file__).with_name("golden") / "b8_translate.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_translate_renaming_paths_matches_golden(prelude, capsys):
    # The relations of definitions that take every renaming path of the
    # translation: `_` binders, binders named like the names it picks or
    # like a global, higher-order arrows, a Vec match with index binders,
    # and fixes under outer binders whose names generated binders must
    # not capture.  The names are pinned byte for byte.
    src = Path(__file__).with_name("renaming_paths.rcic")
    assert main(["translate", prelude, str(src)]) == 0
    golden = Path(__file__).with_name("golden") / "renaming_translate.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_check_spine_renames_each_binder_once(prelude, tmp_path, capsys):
    # The arguments of a spine are substituted into the head's type at
    # once, so the binder `x` of K's type, which would capture the argument
    # x1, is renamed once (to x2), not once per argument (to x11).
    src = write(tmp_path, "k.rcic", """
inductive Eq (A : Set0) (x : A) : A -> Prop := refl : Eq A x x.
def K : forall (A : Set0) (a b x : A), Eq A a x -> Eq A b x -> Unit :=
  fun (A : Set0) (a b x : A) (p : Eq A a x) (q : Eq A b x) => tt.
check fun (x x1 : Nat) => K Nat x x1.
""")
    assert main(["check", prelude, src]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "fun (x x1 : Nat) => K Nat x x1 : "
        "forall (x x1 x2 : Nat), Eq Nat x x2 -> Eq Nat x1 x2 -> Unit")


def test_check_prints_a_lam_type_as_its_value_holds_it(prelude, tmp_path,
                                                      capsys):
    # A Lam's inferred product is read back like any inferred type: the
    # redex in the annotation stays, as it does in the type of nil's
    # application.
    src = write(tmp_path, "l.rcic",
                "check fun (l : List ((fun (B : Set0) => B) Nat)) => l.\n"
                "check nil ((fun (B : Set0) => B) Nat).\n")
    assert main(["check", prelude, src]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "fun (l : List ((fun (B : Set0) => B) Nat)) => l : "
        "List ((fun (B : Set0) => B) Nat) -> List ((fun (B : Set0) => B) Nat)",
        "nil ((fun (B : Set0) => B) Nat) : List ((fun (B : Set0) => B) Nat)",
    ]


def test_binder_named_like_a_global_keeps_its_name(prelude, tmp_path, capsys):
    # The binder hides the global double in its scope, where the global
    # cannot occur, so nothing renames it.
    src = write(tmp_path, "g.rcic",
                "check fun (double : Nat) => plus double double.\n")
    assert main(["check", prelude, src]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "fun (double : Nat) => plus double double : Nat -> Nat")


def test_inductive_over_a_definition(prelude, tmp_path, capsys):
    src = write(tmp_path, "n.rcic", "def N : Set0 := Nat.\n"
                                    "inductive Foo : N -> Set0 := foo : Foo zero.\n")
    for command in ("check", "translate", "param-check"):
        assert main([command, prelude, src]) == 0, command
    out = capsys.readouterr().out.splitlines()
    assert "foo : Foo zero" in out
    assert ("inductive Foo_R : forall (x x' : N), N_R x x' -> Foo x -> Foo x' "
            "-> Prop := foo_R : Foo_R zero zero zero_R foo foo.") in out


def test_translate_single_definition(prelude, capsys):
    assert main(["translate", "--def", "negb", prelude]) == 0
    out = capsys.readouterr().out
    assert "def negb_R :" in out
    assert "def plus_R :" not in out
    # Translating one name does not suppress the check lines.
    assert "negb : Bool -> Bool" in out


def test_translate_unknown_def_prints_no_relation(prelude, capsys):
    # Filtering is a pure output filter: an unmatched name just selects
    # nothing, while the ordinary checking of the files still happens.
    assert main(["translate", "--def", "ghost", prelude]) == 0
    out = capsys.readouterr().out
    assert "_R" not in out
    assert "plus : Nat -> Nat -> Nat" in out


def test_param_check_prelude(prelude, capsys):
    assert main(["param-check", prelude]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 30
    assert all(line.startswith("PASS ") for line in lines)
    names = {line.split()[1] for line in lines}
    assert {"id", "plus", "negb", "rev", "map"} <= names


def test_paramcheck_pragma_inline(prelude, tmp_path, capsys):
    src = write(tmp_path, "pragma.rcic",
                "def twice : Nat -> Nat := fun (n : Nat) => plus n n.\n"
                "paramcheck twice.\n")
    assert main(["check", prelude, src]) == 0
    out = capsys.readouterr().out
    assert "PASS twice" in out
    missing = write(tmp_path, "missing.rcic", "paramcheck ghost.")
    assert main(["check", missing]) == 1
    assert "paramcheck needs a definition" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "translate", "param-check"])
@pytest.mark.parametrize("name", ["nosuch", "Nat"])
def test_paramcheck_of_no_definition_is_an_error(prelude, tmp_path, capsys,
                                                 command, name):
    src = write(tmp_path, "pragma.rcic", f"paramcheck {name}.\n")
    assert main([command, prelude, src]) == 1
    assert (f"pragma.rcic:1:1: error: UnboundVariable: paramcheck needs a "
            f"definition: {name}") in capsys.readouterr().err


def test_star_mode_gates_strong_elimination(prelude, tmp_path, capsys):
    bad = write(tmp_path, "bad_elim.rcic", BAD_ELIM)
    assert main(["check", prelude, bad]) == 1
    err = capsys.readouterr().err
    assert "NonSmallStrongElim" in err
    assert "bad_elim.rcic:3:1" in err
    # Full mode admits the same file.
    assert main(["check", "--full-elim", prelude, bad]) == 0
    out = capsys.readouterr().out
    assert "unbox : Boxed -> Set0" in out


def test_param_check_not_required_in_full_mode(prelude, tmp_path, capsys):
    # The abstraction check presupposes Star typing, so a definition that
    # needs Full mode may fail it even though it type checks.
    bad = write(tmp_path, "bad_elim.rcic", BAD_ELIM)
    code = main(["param-check", "--full-elim", prelude, bad])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL unbox" in out
    assert "PASS rev" in out


def test_a_type_too_deep_to_print_is_a_placeholder(prelude, tmp_path):
    # Printing an arrow chain takes two Python frames per arrow, so the
    # expected type of this error is too deep to print; the diagnostic
    # shows a placeholder in its place.
    deep = write(tmp_path, "deep_type.rcic",
                 f"def bad : {'Nat -> ' * 600}Nat := zero.")
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "rcic.cli", "check", prelude, deep],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr == (
        f"{deep}:1:1: error: NotConvertible: term does not have the "
        "expected type\n"
        "  expected: <too deep to print>\n"
        "  actual: Nat\n")


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """A file of 40 seeded generated definitions, the indexed family Vec
    with definitions over it, and proofs by conversion."""
    env, rng = fresh_prelude_env(), random.Random(1)
    defs = []
    for i in range(40):
        t, ty = random_typed(rng)
        defs.append(f"def g{i} : {print_term(ty, env)} := "
                    f"{print_term(t, env)}.\n")
    path = tmp_path_factory.mktemp("seeded") / "seeded.rcic"
    path.write_text("".join(defs) + VEC_SOURCE + CONV_SOURCE)
    return str(path)


@pytest.mark.parametrize("command", ["check", "translate", "param-check"])
def test_a_run_leaves_no_rcic_object_in_cyclic_garbage(command, prelude,
                                                      seeded, capsys):
    # Why a run may pause the cyclic collector: no term, record, kernel
    # value or environment it builds ends up in a reference cycle, so once
    # the run returns everything it built is freed without the collector.
    # argparse's parser is a cycle, which the run's own pass over the young
    # objects collects (and, with DEBUG_SAVEALL, saves) before it goes on.
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main([command, prelude, seeded]) == 0
        during = len(gc.garbage)
        gc.collect()
        modules = [type(o).__module__.partition(".")[0] for o in gc.garbage]
        found = Counter(type(o).__qualname__
                        for o, module in zip(gc.garbage[during:],
                                             modules[during:])
                        if module in ("rcic", "argparse"))
        collected = modules[:during].count("argparse")
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert found == Counter()
    assert collected > 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_run_pauses_the_collector_and_restores_it(enabled, prelude,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    declared = []
    declare = cli.declare

    def spy(env, decl, mode):
        declared.append(gc.isenabled())
        if getattr(decl, "name", None) == "escapes":
            raise RuntimeError("an exception rcic does not handle")
        return declare(env, decl, mode)

    monkeypatch.setattr(cli, "declare", spy)
    # Printing the type of a definition with 600 binders runs out of
    # Python frames.
    deep = binder_depth_source(600).replace("plus x0 x599", "x0")
    runs = [
        (["check", prelude], 0),
        (["check", prelude, write(tmp_path, "bad.rcic",
                                  "def oops : Nat := true.")], 1),
        (["check", prelude, write(tmp_path, "deep.rcic", deep)], 1),
        (["check", write(tmp_path, "parse.rcic", "def oops : := zero.")], 2),
        (["check", str(tmp_path / "missing.rcic")], 2),
        (["--help"], SystemExit),
        (["check", write(tmp_path, "escapes.rcic",
                         "def escapes : Set0 := Set0.")], RuntimeError),
    ]
    was = gc.isenabled()
    try:
        for argv, outcome in runs:
            (gc.enable if enabled else gc.disable)()
            if type(outcome) is int:
                assert main(argv) == outcome
            else:
                with pytest.raises(outcome):
                    main(argv)
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    assert "nesting too deep" in capsys.readouterr().err
    # Declarations are processed with the collector paused.
    assert len(declared) > 30 and not any(declared)

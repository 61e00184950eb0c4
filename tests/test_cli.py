"""Tests for the command line driver: outputs and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcic
from rcic import prelude_path
from rcic.cli import main

from walker_counts import binder_depth_source

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
    # The translated witness nests three binders per source binder, and
    # declaring it overflows the interpreter's recursion limit; `check`
    # alone does not.
    n = 400
    text = (f"def f : {' -> '.join(['Nat'] * (n + 1))} :=\n"
            f"  fun ({' '.join(f'y{i}' for i in range(n))} : Nat) => y0.\n")
    deep = write(tmp_path, "binders.rcic", text)
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))

    def run(command):
        return subprocess.run(
            [sys.executable, "-m", "rcic.cli", command, prelude, deep],
            capture_output=True, text=True, env=env, timeout=120)

    failed = run("param-check")
    assert failed.returncode == 1
    assert f"{deep}:1:1: error: nesting too deep" in failed.stderr
    assert "Traceback" not in failed.stderr
    assert run("check").returncode == 0


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

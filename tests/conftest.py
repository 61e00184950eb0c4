"""Shared fixtures: checked environments built from the bundled prelude."""

import pytest

from rcic import (
    GlobalEnv,
    declare,
    elaborate,
    parse_file,
    parse_term,
    prelude_path,
    translate_definition,
    translate_inductive,
)
from rcic.frontend import DDef, DInductive


def load_declarations(env, text):
    """Parse `text` and declare every inductive and definition into `env`."""
    for decl in parse_file(text).decls:
        if isinstance(decl, (DInductive, DDef)):
            declare(env, decl)
    return env


def term_in(env, source):
    """Parse and elaborate a single term against `env`."""
    return elaborate(env, parse_term(source))


def fresh_prelude_env():
    return load_declarations(GlobalEnv(), prelude_path().read_text())


@pytest.fixture(scope="session")
def prelude_env():
    """The checked prelude, shared read-only.  Tests that declare new
    globals or trigger translations must use fresh_env instead."""
    return fresh_prelude_env()


@pytest.fixture
def fresh_env():
    """A private copy of the checked prelude, safe to extend."""
    return fresh_prelude_env()


@pytest.fixture(scope="session")
def translated_env():
    """The prelude plus the relation of every inductive and definition.

    Translation is deterministic and append-only, so sharing one translated
    environment across tests is safe.
    """
    env = fresh_prelude_env()
    for name in list(env.names()):
        decl = env.inductive(name)
        if decl is not None:
            translate_inductive(env, decl)
        elif env.definition(name) is not None:
            translate_definition(env, name)
    return env

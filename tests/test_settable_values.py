"""Count what a user can set: config keys, CLI options and library
parameters. A change that adds or removes one edits the pin here."""

import argparse
import ast
from pathlib import Path

from kvsim import cli
from kvsim.config import _KEYMAP

SRC = Path(__file__).resolve().parent.parent / "src" / "kvsim"


def _options(parser: argparse.ArgumentParser) -> list[str]:
    """Every optional action of ``parser`` and its subcommands, ``--help`` excluded."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found += _options(sub)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            found.append(f"{parser.prog} {action.option_strings[0]}")
    return found


def _library_parameters() -> list[str]:
    """Every function parameter under ``src/kvsim`` with a default, or keyword-only."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
                name = getattr(node, "name", "<lambda>")
                found += [f"{path.stem}.{name}({arg.arg})" for arg in defaulted + a.kwonlyargs]
    return found


def test_settable_values_are_27_config_keys_4_options_17_parameters():
    assert len(_KEYMAP) == 27
    assert sorted(_options(cli._build_parser())) == [
        "kvsim oracle-check --traces",
        "kvsim run --output-dir",
        "kvsim sweep --axis",
        "kvsim sweep --output-dir",
    ]
    assert len(_library_parameters()) == 17, _library_parameters()

"""Each family's instance shape is stated once, by its ``FIELDS`` and its
name in ``family.KINDS``: the CLI reads them and spells neither, so it
has no branch on the family."""

import ast
import inspect

from resemi import cli
from resemi.family import KINDS, family_class


def _names():
    """Every field name of either family's ``FIELDS`` and every kind."""
    return {name for kind in KINDS for name, _ in family_class(kind).FIELDS} | set(KINDS)


def test_the_cli_spells_no_field_and_no_kind():
    constants = {node.value for node in ast.walk(ast.parse(inspect.getsource(cli)))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert constants & _names() == set()


def test_the_names_cover_both_families():
    assert _names() == {"transformation", "linear", "n", "Y", "sY", "p", "W", "sW"}

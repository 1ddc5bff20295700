"""Start-up: a resemi command loads only the modules it runs, and the
package's public names are loaded on first use."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import resemi

# Every public name of the package and the submodule that defines it.
EXPORTS = {
    "gflinear": (
        "GFMatrix", "Subspace", "SubspaceTransversal", "all_subspaces", "all_vectors",
        "canonical_transversal_subspace", "image_space", "mat_compose", "mat_inverse",
        "null_space", "restriction_matrix", "restricted_image_space",
    ),
    "linear_semigroup": ("LInstance", "alpha_family_check"),
    "semigroups": (
        "FiniteSemigroup", "PropertyVerdict", "SizeCapExceeded", "element_oracle", "generate",
        "inverse_by_unique_inverses", "semigroup_oracle", "subgroup_containing",
    ),
    "sweep": ("SweepPlan", "SweepReport", "enumerate_subsemigroups", "run_sweep"),
    "transform_semigroup": ("TInstance",),
    "transformations": (
        "IndexSubset", "Transformation", "TransversalPair", "canonical_transversal", "compose",
        "image_kernel", "restricted_image", "restriction",
    ),
}
PUBLIC = [(module, name) for module, names in EXPORTS.items() for name in names]

# What every command loads, and what each family adds.
FRONT = {"resemi", "resemi.cli", "resemi.family", "resemi.semigroups"}
T_MODULES = FRONT | {"resemi.transform_semigroup", "resemi.transformations"}
L_MODULES = FRONT | {"resemi.linear_semigroup", "resemi.gflinear"}

# Runs ``action`` in a fresh interpreter and prints, last, the resemi
# modules loaded and whether ``dataclasses`` was loaded by the action.
PROBE = """\
import contextlib, io, sys
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    {action}
print(sorted(m for m in sys.modules if m == "resemi" or m.startswith("resemi.")),
      "dataclasses" in sys.modules and "dataclasses" not in before)
"""


def _loaded(action: str) -> tuple[set, bool]:
    """The resemi modules a fresh interpreter holds after ``action``, and
    whether the action loaded ``dataclasses``."""
    path = os.path.dirname(os.path.dirname(resemi.__file__))
    paths = filter(None, [path, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", PROBE.format(action=action)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules, dataclasses = proc.stdout.strip().splitlines()[-1].rsplit(" ", 1)
    return set(ast.literal_eval(modules)), dataclasses == "True"


@pytest.mark.parametrize("argv, expected, dataclasses", [
    (["classify", "--kind", "t", "--n", "3", "--y", "0,1", "--sy", "0,1;1,0"], T_MODULES, False),
    (["element", "--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--sw", "1",
      "--f", "1,0;0,1", "--format", "json"], L_MODULES, False),
    # a sweep's plan and report are dataclasses
    (["sweep", "--kind", "t", "--ns", "2"], T_MODULES | {"resemi.sweep"}, True),
    (["sweep", "--kind", "l", "--pn", "2,1"], L_MODULES | {"resemi.sweep"}, True),
], ids=["t", "l", "sweep-t", "sweep-l"])
def test_a_command_loads_its_family_alone(argv, expected, dataclasses):
    action = f"assert __import__('resemi.cli').cli.main({argv!r}) == 0"
    assert _loaded(action) == (expected, dataclasses)


@pytest.mark.parametrize("action", [
    "__import__('resemi.cli').cli.build_parser()",
    "assert __import__('resemi.cli').cli.main(['build', '--bogus']) == 2",
], ids=["parser", "parse-error"])
def test_the_parser_loads_neither_family(action):
    assert _loaded(action)[0] == FRONT


def test_import_resemi_loads_no_submodule():
    assert _loaded("import resemi")[0] == {"resemi"}


def test_every_public_name_imports_in_a_fresh_interpreter():
    names = ", ".join(name for _, name in PUBLIC)
    expected = {"resemi", "resemi.family", *(f"resemi.{module}" for module in EXPORTS)}
    assert _loaded(f"from resemi import {names}")[0] == expected


@pytest.mark.parametrize("module, name", PUBLIC, ids=[name for _, name in PUBLIC])
def test_every_public_name_resolves_to_its_submodule_object(module, name):
    obj = getattr(importlib.import_module(f"resemi.{module}"), name)
    namespace = {}
    exec(f"from resemi import {name}", namespace)
    assert namespace[name] is obj
    assert getattr(resemi, name) is obj
    assert name in dir(resemi)


def test_there_are_35_public_names():
    assert len(PUBLIC) == 35
    assert sorted(resemi.__all__) == sorted(name for _, name in PUBLIC)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        resemi.nonesuch
    with pytest.raises(ImportError):
        exec("from resemi import nonesuch", {})
    assert not hasattr(resemi, "nonesuch")

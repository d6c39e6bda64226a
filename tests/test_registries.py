"""Each registry of the package is stated once, where its entries are
defined; every other list of the same names is derived from it.

A check is stated by its body under @_check, which registers it in
checks.REGISTRY, and by the fuzz recipe that names it in check_ids,
which registers the recipe's sampler in fuzz.FUZZ_SAMPLERS.  The guard
parses each module of the package, as tests/test_tolerance_policy.py
does, and fails when a check id is written as a string literal anywhere
else, or when a runner's name, check_<id>, is written at all:
checks.__all__ takes the runners from REGISTRY.
"""

import ast
import collections
from pathlib import Path

import pytest

import opineq
from opineq import checks, fuzz, sampling

SRC = Path(opineq.__file__).resolve().parent


def _roles(tree) -> dict:
    """id(node) -> "check" for the first argument of each _check call and
    "recipe" for each entry of a _planned call's check_ids."""
    roles = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "_check" and node.args:
            roles[id(node.args[0])] = "check"
        if node.func.id == "_planned":
            for keyword in node.keywords:
                if keyword.arg == "check_ids":
                    roles.update((id(elt), "recipe") for elt in getattr(keyword.value, "elts", ()))
    return roles


def _check_name_literals():
    """(name, module, role) of each string literal in the package that is
    a registered check id or a runner's name; role is "check", "recipe"
    or "other"."""
    names = set(checks.REGISTRY) | {info.runner.__name__ for info in checks.REGISTRY.values()}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        roles = _roles(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value in names:
                yield node.value, path.name, roles.get(id(node), "other")


def test_each_check_id_is_written_at_its_check_and_its_recipe_only():
    found = collections.defaultdict(list)
    for name, module, role in _check_name_literals():
        found[name].append((module, role))
    want = {check_id: [("checks.py", "check"), ("fuzz.py", "recipe")]
            for check_id in checks.REGISTRY}
    assert {name: sorted(places) for name, places in found.items()} == want


def test_a_recipe_registers_its_sampler_under_each_id_it_names(monkeypatch):
    monkeypatch.setattr(fuzz, "FUZZ_SAMPLERS", dict(fuzz.FUZZ_SAMPLERS))

    @fuzz._planned(0, check_ids=("first_new", "second_new"))
    def _sample_new(batch, dim, p, first):
        return {"A": sampling._square(first, dim)}

    assert fuzz.FUZZ_SAMPLERS["first_new"] is fuzz.FUZZ_SAMPLERS["second_new"] is _sample_new
    inst = fuzz.sample_instance("second_new", 3, 0, 0.5, 2)
    assert inst.A.shape == (3, 3) and inst.p == 0.5


@pytest.mark.parametrize("check_ids", [("a_new_check", "lowner_heinz"), ("norm_chain",)])
def test_a_recipe_that_claims_a_taken_id_raises_and_registers_nothing(check_ids):
    before = list(fuzz.FUZZ_SAMPLERS.items())
    with pytest.raises(ValueError, match="already has a sampler"):
        @fuzz._planned(0, check_ids=check_ids)
        def _sample_again(batch, dim, p, first):
            return {"A": sampling._square(first, dim)}
    assert list(fuzz.FUZZ_SAMPLERS.items()) == before


def test_checks_all_holds_every_runner():
    runners = [info.runner.__name__ for info in checks.REGISTRY.values()]
    assert [name for name in checks.__all__ if name.startswith("check_")] == runners
    assert len(set(checks.__all__)) == len(checks.__all__)
    for check_id, info in checks.REGISTRY.items():
        assert getattr(checks, f"check_{check_id}") is info.runner
    for name in checks.__all__:
        assert hasattr(checks, name), name


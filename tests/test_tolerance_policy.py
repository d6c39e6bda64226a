"""Every threshold the engine compares against is named once, in the
tolerance policy block at the top of linalg.

The guard parses each module of the package and fails on a float
literal below 1e-3 outside that block: a new threshold gets a name in
the block, under the rule it scales with, instead of a literal at its
site.  Zero is exact and not a tolerance.  tests/scalar_oracle.py keeps
its own HYP_TOL and P_EPS on purpose: it shares nothing with the engine.
"""

import ast
import collections
from pathlib import Path

import opineq
from opineq import checks, fuzz, linalg

SRC = Path(opineq.__file__).resolve().parent

# (module, value) -> how many literals of that value the module may hold
# outside the block
ALLOWED = {
    # sampler construction margins, which keep a drawn spectrum strictly
    # inside its window; no verdict is compared against them
    ("fuzz.py", 1e-6): 1,
    ("sampling.py", 1e-6): 1,
    # figures printed in the paper (example E2), expected values of repro
    ("repro.py", 0.000524): 1,
    ("repro.py", 0.0001688): 1,
}


def _policy_lines(tree) -> range:
    """The lines of linalg's policy block: from DEFAULT_TOL_REL to _scaled."""
    body = tree.body
    start = next(node for node in body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["DEFAULT_TOL_REL"])
    end = next(node for node in body
               if isinstance(node, ast.FunctionDef) and node.name == "_scaled")
    return range(start.lineno, end.end_lineno + 1)


def _small_literals():
    """(module, value, line) of each float literal with 0 < |value| < 1e-3
    outside the policy block."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        block = _policy_lines(tree) if path.name == "linalg.py" else range(0)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < 1e-3 and node.lineno not in block):
                yield path.name, node.value, node.lineno


def test_no_threshold_literal_outside_the_policy_block():
    found = collections.defaultdict(list)
    for name, value, line in _small_literals():
        found[name, value].append(line)
    extra = {key: lines for key, lines in found.items()
             if len(lines) > ALLOWED.get(key, 0)}
    assert not extra, f"name these in linalg's tolerance policy: {extra}"


def test_the_policy_names_stay_where_callers_read_them():
    # tests and bench/workloads.py read them from these modules
    assert checks.HYP_TOL is linalg.HYP_TOL and checks._P_EPS is linalg._P_EPS
    assert fuzz.FUZZ_TOL_REL is linalg.FUZZ_TOL_REL
    assert not hasattr(linalg, "_floor")

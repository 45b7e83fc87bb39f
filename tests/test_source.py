"""Checks on the source text itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tropgw

SRC = Path(tropgw.__file__).parent


def test_source_has_no_assert_statements():
    # python -O strips asserts, so a check must raise a typed error instead
    found = [f"{p.name}:{node.lineno}" for p in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_import_loads_only_the_standard_library():
    # the package declares no dependencies: importing it must not pull in
    # numpy, sympy or any other third-party module
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import tropgw.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "tropgw.cli" in loaded
    foreign = [m for m in loaded if m.partition(".")[0] != "tropgw"
               and m.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_counts_request_only_q_weights():
    # counts add exact q weights and substitute the total once; a series
    # weight per placed type would be a second ring beside it
    tree = ast.parse((SRC / "invariants.py").read_text())
    modes = [node.args[2].value if len(node.args) > 2
             and isinstance(node.args[2], ast.Constant) else None
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "curve_weight"]
    assert modes and set(modes) == {"q"}


def test_weights_name_no_sine_closed_form():
    # the series weight is the substituted q weight; a sine closed form in
    # weights would be a second evaluator beside it
    text = (SRC / "weights.py").read_text()
    assert [n for n in ("two_sin_half", "normalized_sin_half")
            if n in text] == []


def test_weights_resolve_at_no_drawn_shift():
    # every resolution is taken at the eps-moved zero shift: a random draw
    # or a shift argument in weights would be a second genericity device
    tree = ast.parse((SRC / "weights.py").read_text())
    imported = [a.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert "random" not in imported
    params = [a.arg for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.Lambda))
              for a in (*node.args.posonlyargs, *node.args.args,
                        *node.args.kwonlyargs)]
    assert params and "shifts" not in params


# parameters that callers outside the package still pass: perfbench hands a
# seed to both weight functions, and every identity suite is called with
# (order, seed)
_UNREAD_PARAMETERS_KEPT = {
    "weights.curve_weight(seed)",
    "weights.substitution_consistent(seed)",
    "identities.SUITES.<lambda>(seed)",
}


def _unread_parameters(path: Path) -> list[str]:
    """module.scope(name) for each named parameter of a def or lambda that
    its body never reads; self and names starting with _ are skipped."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
            elif isinstance(child, ast.Lambda):
                name = f"{scope}.<lambda>"
            elif isinstance(child, ast.Assign) and isinstance(
                    child.targets[0], ast.Name):
                name = f"{scope}.{child.targets[0].id}"
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                a = child.args
                found.extend(
                    f"{name}({p.arg})"
                    for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)
                    if p.arg != "self" and not p.arg.startswith("_")
                    and p.arg not in read)
            visit(child, name)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_every_parameter_is_read():
    # a parameter the body never reads looks like a setting of the result,
    # and a positional caller must still fill its place
    found = [f for p in sorted(SRC.glob("*.py")) for f in _unread_parameters(p)]
    assert sorted(set(found) - _UNREAD_PARAMETERS_KEPT) == []
    assert _UNREAD_PARAMETERS_KEPT <= set(found)

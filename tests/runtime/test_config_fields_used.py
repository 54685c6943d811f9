"""Guard: every runtime ``*Config`` field is set by some caller.

A config field that no caller sets is a constant dressed up as an
option: every run uses its default, yet it still needs validation,
documentation and tests.  This scan keeps ``src/repro/runtime/`` from
growing such fields back.

"Set" means passed by keyword to the class, or a key of a dict that is
``**``-expanded into such a call.  A ``**NAME`` argument is resolved one
level, through the ``NAME = dict(...)`` / ``NAME = {...}`` assignments
in the same file (module constants such as ``CHAOS_GATEWAY`` and the
tests' ``defaults = dict(...)`` helpers).
"""

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set

ROOT = Path(__file__).resolve().parents[2]
RUNTIME = ROOT / "src" / "repro" / "runtime"
CALLER_DIRS = ("src", "tests", "examples", "benchmarks")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def config_fields() -> Dict[str, List[str]]:
    """``{class name: [field, ...]}`` for every runtime config dataclass."""
    fields: Dict[str, List[str]] = {}
    for path in sorted(RUNTIME.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")
                    and _is_dataclass(node)):
                fields[node.name] = [
                    statement.target.id for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                ]
    return fields


def _callee(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _dict_keys(node: ast.AST, assignments: Dict[str, List[ast.AST]],
               resolve_names: bool) -> Set[str]:
    """Keys of a dict expression: a literal, a ``dict(...)`` call, or
    (once) a name bound to either in the same file."""
    keys: Set[str] = set()
    if isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if key is None:
                keys |= _dict_keys(value, assignments, resolve_names)
            elif isinstance(key, ast.Constant) and isinstance(key.value,
                                                              str):
                keys.add(key.value)
    elif isinstance(node, ast.Call) and _callee(node) == "dict":
        for keyword in node.keywords:
            if keyword.arg is None:
                keys |= _dict_keys(keyword.value, assignments,
                                   resolve_names)
            else:
                keys.add(keyword.arg)
    elif isinstance(node, ast.Name) and resolve_names:
        for value in assignments.get(node.id, ()):
            keys |= _dict_keys(value, assignments, resolve_names=False)
    return keys


def fields_set_by_callers(classes: Set[str]) -> Dict[str, Set[str]]:
    """``{class name: {field set by some caller}}`` over every caller."""
    used: Dict[str, Set[str]] = {name: set() for name in classes}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assignments: Dict[str, List[ast.AST]] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assignments.setdefault(target.id, []).append(
                                node.value)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _callee(node)
                if name not in used:
                    continue
                for keyword in node.keywords:
                    if keyword.arg is None:
                        used[name] |= _dict_keys(keyword.value, assignments,
                                                 resolve_names=True)
                    else:
                        used[name].add(keyword.arg)
    return used


def test_every_runtime_config_field_is_set_by_a_caller():
    fields = config_fields()
    assert "FleetConfig" in fields and "GatewayConfig" in fields
    used = fields_set_by_callers(set(fields))
    unset = [f"{name}.{field}" for name in sorted(fields)
             for field in fields[name] if field not in used[name]]
    assert unset == [], (
        f"{len(unset)} runtime config field(s) are never set by any caller "
        f"in {', '.join(CALLER_DIRS)}; make them constants instead: "
        f"{unset}")

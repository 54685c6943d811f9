"""Fork-safety pass (FS601-FS603) for the multiprocessing layers.

The fleet orchestrator forks workers (``start_method`` defaults to
``fork`` where available), which copies the parent's module-global state
into every child.  Three failure classes are checked over the
:class:`~repro.analysis.effects.RepoModel`:

``FS601`` (warn) — *mutable module global reachable from a worker*.
    A worker-reachable function reads a module global that some function
    rebinds via a ``global`` statement (a swap point, e.g. the
    observability sinks ``_LOG`` / ``_TRACER`` / ``_REGISTRY``).  Under
    fork the child inherits whatever the parent had installed at fork
    time; under spawn it silently gets the module default.  Legitimate
    swap points (workers install their own sinks on entry) are audited
    with ``# effects: ok FORK_GLOBAL reason=...`` on the reading line.

``FS602`` (error) — *non-atomic result write*.
    A worker-reachable function (or any function in a module importing
    ``multiprocessing``) opens a file for writing (``open(.., "w")``,
    ``Path.write_text`` / ``write_bytes``) without the
    write-temp-then-rename discipline (calling ``atomic_replace`` /
    ``os.replace`` / ``os.rename`` in the same function).  The parent
    polls for result files, so a torn write is indistinguishable from a
    crashed worker.  Append-mode opens are exempt (the event log is an
    append-only journal by design).

``FS603`` (error) — *unjoined process or unclosed queue*.
    A function constructs a ``Process`` and calls ``.start()`` but never
    joins/terminates it, and the handle does not escape the function
    (not returned, yielded, stored on an object, put in a container, or
    passed to a call) — a zombie child nobody can ever reap.  Same for
    a locally constructed multiprocessing ``Queue`` that is neither
    closed nor escaping.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import Finding
from repro.analysis.effects import (FunctionInfo, RepoModel, _walk_function,
                                    analyze_package)
from repro.analysis.lint import _dotted

__all__ = ["FS_RULES", "check_fork_safety", "worker_targets",
           "worker_reachable"]

FS_RULES: Dict[str, Tuple[str, str]] = {
    "FS601": ("warn", "fork-shared-global"),
    "FS602": ("error", "non-atomic-write"),
    "FS603": ("error", "process-lifecycle-leak"),
}

_ATOMIC_CALLS = frozenset({"atomic_replace", "replace", "rename"})
_WRITE_MODES = frozenset({"w", "wb", "w+", "wb+", "x", "xb"})
_PROC_FACTORIES = frozenset({"Process"})
_QUEUE_FACTORIES = frozenset({"Queue", "SimpleQueue", "JoinableQueue"})
_REAP_METHODS = frozenset({"join", "terminate", "kill", "close"})


def worker_targets(model: RepoModel) -> List[str]:
    """Functions handed to child processes (``Process(target=...)`` and
    ``submit``/``apply_async`` first arguments)."""
    targets: Set[str] = set()
    for function in model.functions.values():
        module = model.modules[function.module]
        for node in _walk_function(function.node):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            candidate: Optional[ast.expr] = None
            if name in _PROC_FACTORIES:
                for keyword in node.keywords:
                    if keyword.arg == "target":
                        candidate = keyword.value
            elif name in ("submit", "apply_async") and node.args:
                candidate = node.args[0]
            if not isinstance(candidate, ast.Name):
                continue
            resolved = f"{function.module}.{candidate.id}"
            if resolved in model.functions:
                targets.add(resolved)
    return sorted(targets)


def worker_reachable(model: RepoModel) -> Dict[str, str]:
    """``qname -> worker target`` for every function a child can reach."""
    reached: Dict[str, str] = {}
    for target in worker_targets(model):
        order, _ = model.reachable(target)
        for qname in order:
            reached.setdefault(qname, target)
    return reached


def _swap_point_globals(model: RepoModel, module_qname: str) -> Set[str]:
    """Module globals rebound via a ``global`` statement in any function."""
    module = model.modules[module_qname]
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Global):
            names.update(node.names)
    # only names that actually exist as module globals
    return {n for n in names if n in module.global_exprs}


def _annotation_for(model: RepoModel, module_qname: str, line: int,
                    atom: str):
    annotation = model.modules[module_qname].annotations.get(line)
    if annotation is not None and not annotation.malformed \
            and annotation.atom == atom:
        annotation.consumed = True
        return annotation
    return None


def _finding(code: str, function: FunctionInfo, line: int, message: str,
             op: str, annotation=None) -> Finding:
    severity, name = FS_RULES[code]
    if annotation is not None:
        message += f" [audited: {annotation.reason}]"
    return Finding(
        rule=code, severity=severity, message=message, op=op,
        node_index=-1, module_path=function.qname, file=function.file,
        line=line, model="forksafety", suppressed=annotation is not None,
        frames=((function.file, line, message),), rule_name=name)


def _check_shared_globals(model: RepoModel,
                          reached: Dict[str, str],
                          out: List[Finding]) -> None:
    swap_cache: Dict[str, Set[str]] = {}
    for qname, target in sorted(reached.items()):
        function = model.functions[qname]
        swaps = swap_cache.get(function.module)
        if swaps is None:
            swaps = _swap_point_globals(model, function.module)
            swap_cache[function.module] = swaps
        if not swaps:
            continue
        local_names = _assigned_names(function)
        seen: Set[str] = set()
        for node in _walk_function(function.node):
            if not (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in swaps
                    and node.id not in local_names
                    and node.id not in seen):
                continue
            seen.add(node.id)
            annotation = _annotation_for(
                model, function.module, node.lineno, "FORK_GLOBAL")
            short = qname.split(".")[-1]
            out.append(_finding(
                "FS601", function, node.lineno,
                f"{short} reads swap-point global {node.id} "
                f"(worker-reachable via {target.split('.')[-1]}); "
                "fork inherits the parent's instance",
                op=node.id, annotation=annotation))


def _assigned_names(function: FunctionInfo) -> Set[str]:
    names: Set[str] = set()
    node = function.node
    args = node.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        names.add(arg.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    globals_: Set[str] = set()
    for stmt in _walk_function(node):
        if isinstance(stmt, ast.Global):
            globals_.update(stmt.names)
        for target in _assign_targets(stmt):
            names.add(target)
    return names - globals_


def _assign_targets(stmt: ast.AST):
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [i.optional_vars for i in stmt.items
                   if i.optional_vars is not None]
    elif isinstance(stmt, ast.comprehension):
        targets = [stmt.target]
    out: List[str] = []
    stack = list(targets)
    while stack:
        node = stack.pop(0)
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
    return out


def _mp_modules(model: RepoModel) -> Set[str]:
    out: Set[str] = set()
    for qname, module in model.modules.items():
        for target in module.imports.values():
            if target == "multiprocessing" \
                    or target.startswith("multiprocessing."):
                out.add(qname)
    return out


def _check_atomic_writes(model: RepoModel, reached: Dict[str, str],
                         out: List[Finding]) -> None:
    mp_modules = _mp_modules(model)
    for qname in sorted(model.functions):
        function = model.functions[qname]
        if qname not in reached and function.module not in mp_modules:
            continue
        writes: List[Tuple[int, str]] = []
        atomic = False
        for node in _walk_function(function.node):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = _open_mode(node)
                if mode in _WRITE_MODES:
                    writes.append((node.lineno, f'open(.., "{mode}")'))
            elif isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in ("write_text", "write_bytes"):
                    writes.append((node.lineno, f".{attr}(..)"))
                elif attr == "open":
                    mode = _open_mode(node)
                    if mode in _WRITE_MODES:
                        writes.append(
                            (node.lineno, f'.open("{mode}")'))
                if attr in _ATOMIC_CALLS:
                    atomic = True
            if isinstance(node.func, ast.Name) \
                    and node.func.id in _ATOMIC_CALLS:
                atomic = True
        if atomic:
            continue
        for line, detail in writes:
            annotation = _annotation_for(
                model, function.module, line, "ATOMIC_WRITE")
            out.append(_finding(
                "FS602", function, line,
                f"{qname.split('.')[-1]} writes via {detail} without "
                "write-temp-then-rename; a torn file is visible to "
                "concurrent readers", op="write", annotation=annotation))


def _open_mode(node: ast.Call) -> str:
    mode = None
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        mode = node.args[1].value
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            mode = keyword.value.value
    if not isinstance(mode, str):
        return ""
    return mode.replace("t", "").replace("+b", "b+")


def _check_process_lifecycle(model: RepoModel,
                             out: List[Finding]) -> None:
    for qname in sorted(model.functions):
        function = model.functions[qname]
        handles: Dict[str, Tuple[int, str]] = {}
        for stmt in _walk_function(function.node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Call)):
                continue
            call = stmt.value
            factory = None
            if isinstance(call.func, ast.Attribute):
                factory = call.func.attr
            elif isinstance(call.func, ast.Name):
                factory = call.func.id
            if factory in _PROC_FACTORIES:
                handles[stmt.targets[0].id] = (stmt.lineno, "process")
            elif factory in _QUEUE_FACTORIES:
                handles[stmt.targets[0].id] = (stmt.lineno, "queue")
        if not handles:
            continue
        started: Set[str] = set()
        reaped: Set[str] = set()
        escaped: Set[str] = set()
        for node in _walk_function(function.node):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id in handles:
                    name = node.func.value.id
                    if node.func.attr == "start":
                        started.add(name)
                    elif node.func.attr in _REAP_METHODS:
                        reaped.add(name)
                for arg in list(node.args) + [k.value for k in
                                              node.keywords]:
                    if isinstance(arg, ast.Name) and arg.id in handles:
                        escaped.add(arg.id)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                    and node.value is not None:
                # only the handle itself (possibly inside a container
                # literal) escapes; `return queue.get()` returns a value
                stack = [node.value]
                while stack:
                    leaf = stack.pop(0)
                    if isinstance(leaf, ast.Name) and leaf.id in handles:
                        escaped.add(leaf.id)
                    elif isinstance(leaf, (ast.Tuple, ast.List, ast.Set)):
                        stack.extend(leaf.elts)
                    elif isinstance(leaf, ast.Dict):
                        stack.extend(v for v in leaf.values
                                     if v is not None)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and isinstance(node.value, ast.Name) \
                            and node.value.id in handles:
                        escaped.add(node.value.id)
        for name, (line, kind) in sorted(handles.items()):
            if name in escaped or name in reaped:
                continue
            if kind == "process" and name not in started:
                continue
            annotation = _annotation_for(
                model, function.module, line, "PROC_LIFECYCLE")
            noun = ("started process never joined" if kind == "process"
                    else "queue never closed")
            out.append(_finding(
                "FS603", function, line,
                f"{qname.split('.')[-1]}: local {kind} {name!r} — {noun} "
                "and the handle does not escape",
                op=name, annotation=annotation))


def check_fork_safety(model: Optional[RepoModel] = None) -> List[Finding]:
    """All FS findings for the analyzed package (audited => suppressed)."""
    if model is None:
        model = analyze_package()
    reached = worker_reachable(model)
    findings: List[Finding] = []
    _check_shared_globals(model, reached, findings)
    _check_atomic_writes(model, reached, findings)
    _check_process_lifecycle(model, findings)
    findings.sort(key=lambda f: (f.rule, f.module_path, f.op, f.file,
                                 f.line))
    return findings

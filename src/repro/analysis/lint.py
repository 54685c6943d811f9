"""AST-based repository linter with repo-specific correctness rules.

Run as ``python -m repro.analysis.lint [paths...]`` (or ``repro lint``).
With no paths it lints the defaults from ``pyproject.toml``'s
``[tool.repro.lint]`` table, falling back to ``src tests benchmarks
examples``.  Exit status is 0 when clean, 1 when any rule fired.

Rules
-----
``REP101`` bare ``np.random.*`` call
    Module-level NumPy randomness (``np.random.rand``, ``np.random.seed``,
    ...) bypasses the seeded generators in :mod:`repro.nn.random` and makes
    experiments irreproducible.  ``np.random.default_rng`` /
    ``np.random.Generator`` / ``np.random.SeedSequence`` are the sanctioned
    constructors.

``REP102`` ``.data`` mutation outside sanctioned helpers
    Assigning to ``tensor.data`` (or a slice of it) mutates a tensor that
    may already be recorded on an autograd tape, silently corrupting
    gradients.  Only the engine itself, the optimizers, state-dict loading
    and gradcheck are allowed to do this (see ``SANCTIONED_DATA_FILES``).

``REP103`` float32 literal in library code
    The substrate is float64 end to end; a stray ``np.float32`` or
    ``dtype="float32"`` introduces silent mixed-precision promotion in hot
    paths.

``REP104`` missing ``__all__`` in public library module
    Every public module under ``src/`` must declare its export surface so
    the API is auditable and star-imports stay bounded.

``REP105`` bare ``except:`` in library code
    A bare handler swallows ``KeyboardInterrupt``/``SystemExit`` and every
    programming error alike — fatal in a serving loop that must degrade
    *selectively* (see :mod:`repro.runtime`).  Catch a concrete exception
    type, or ``Exception`` if a broad guard is genuinely required.

``REP106`` mutable default argument
    ``def f(x=[])`` / ``={}`` / ``=set()`` binds one shared object at
    definition time; any in-place mutation leaks across calls.  Default to
    ``None`` and construct inside the body.

``REP107`` ``Module`` subclass overriding ``forward`` without ``contract()``
    Shape contracts (:mod:`repro.analysis.spec`) are the static interface
    of every layer; a ``forward`` override with no matching ``contract``
    silently drops that layer out of ``repro check-model`` coverage.

``REP108`` blocking concurrency call without an explicit timeout
    In a module that reaches for ``multiprocessing`` / ``threading`` /
    ``concurrent.futures`` / ``queue`` / ``subprocess``, a bare
    ``.join()`` / ``.get()`` / ``.result()`` / ``.wait()`` (no arguments,
    no ``timeout=``) blocks forever on a hung worker — exactly the
    failure mode the fleet orchestrator exists to survive.  Pass an
    explicit timeout and handle expiry.

``REP109`` bare ``print()`` in library code
    ``print`` in ``src/`` is telemetry that no one can collect, filter or
    replay.  Route operator-facing output through the structured event
    log (:mod:`repro.obs.events`) or through the CLI's output helper
    (``repro.cli._out``); only the CLI layer — whose job *is* printing —
    carries the ``# noqa: REP109`` escape.

``REP110`` ``np.empty`` / ``np.empty_like`` without immediate initialization
    Uninitialized allocations read whatever bytes the allocator hands
    back; any code path that skips an element silently computes on
    garbage that *usually* looks plausible.  The allocation is accepted
    only when the very next statement provably fills the whole array — a
    subscript store into the same name (``buf[:] = ...``, ``buf[order] =
    ...``) or ``buf.fill(value)``.  Loop-filled buffers should use
    ``np.zeros`` or carry an explicit ``# noqa: REP110`` after review.

``REP111`` remediation action without a declared timeout/idempotency
    Every :class:`~repro.runtime.remediation.actions.Action` subclass in
    ``src/`` must declare a positive literal ``timeout_ticks`` and
    ``idempotent = True`` — the registration decorator enforces this at
    import time, and the lint enforces it statically so a violation never
    reaches an import.  The rule also flags ``time.sleep(<literal>)``
    inside a ``for``/``while`` body in library code: a bare sleep-retry
    loop is an unbounded, untracked remediation — use the tick-driven
    :class:`~repro.runtime.remediation.actions.ActionRunner` timeout
    machinery (or the orchestrator's deadline plumbing) instead.

``REP112`` bare stdlib ``random.*`` call
    The stdlib ``random`` module is one hidden global stream, exactly
    like bare ``np.random.*`` (REP101): any draw from it makes the
    calling function irreproducible and invisible to seed threading.
    Library code under ``src/`` must take an explicit
    ``numpy.random.Generator`` parameter (or construct a local
    ``random.Random(seed)``); only the ``Random`` / ``SystemRandom``
    constructors are allowed through.  Names imported *from* the module
    (``from random import shuffle``) are flagged at the import, so the
    draws cannot hide behind a bare name.

``REP113`` unbounded queue in library code
    An unbounded queue is backpressure deferred until OOM: a producer
    that outruns its consumer grows the queue silently instead of
    surfacing an explicit, retryable rejection (the serving gateway's
    whole admission story).  In ``src/``, ``queue.Queue()`` /
    ``asyncio.Queue()`` / ``multiprocessing.Queue()`` (and the Lifo /
    Priority / Joinable variants) must pass a positive ``maxsize``;
    ``SimpleQueue`` has no capacity parameter and is flagged outright.
    A synchronous ``.put(item)`` on a bounded queue must also pass
    ``timeout=`` (or ``block=False`` / use ``put_nowait``) — otherwise a
    full queue blocks the producer forever, REP108's failure mode
    through the other end of the pipe.  ``await queue.put(...)`` inside
    ``async def`` is exempt: asyncio's bounded put *is* the
    backpressure.

``REP114`` event kind not declared in the schema registry
    The event log is only replayable because every ``kind`` string has a
    declared field schema in ``repro.obs.events.EVENT_KINDS`` — the
    report, the ops console, and the remediation controller all dispatch
    on it.  An ``emit("new_kind", ...)`` whose kind is missing from the
    registry produces events that every offline consumer silently drops.
    In ``src/``, any ``emit`` / ``emit_event`` / ``._emit`` / ``.emit``
    / ``.append`` call whose first argument is a string literal must use
    a kind declared in ``EVENT_KINDS``.  Variable kinds (forwarding
    wrappers) are exempt — they are the plumbing, not the call site.

A ``# noqa: REP102`` comment (or a bare ``# noqa``) on the offending line
suppresses a violation — reserved for code that deliberately exercises the
forbidden pattern, e.g. tests of the tape-mutation guard itself.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = ["Violation", "lint_source", "lint_paths", "main", "RULES",
           "emitted_event_kinds"]

RULES = {
    "REP101": "bare np.random.* call (use repro.nn.random / default_rng)",
    "REP102": ".data mutation of a tensor outside sanctioned helpers",
    "REP103": "float32 literal in library code (substrate is float64)",
    "REP104": "public library module without __all__",
    "REP105": "bare except: in library code (catch a concrete type)",
    "REP106": "mutable default argument (shared across calls)",
    "REP107": "Module subclass overrides forward but defines no contract()",
    "REP108": "blocking concurrency call without an explicit timeout",
    "REP109": "bare print() in library code (use repro.obs.events or the "
              "CLI output helper)",
    "REP110": "np.empty/np.empty_like not fully initialized by the next "
              "statement",
    "REP111": "remediation action without declared timeout/idempotency, or "
              "a bare time.sleep retry loop in library code",
    "REP112": "bare stdlib random.* call in library code (thread an "
              "explicit numpy Generator instead)",
    "REP113": "unbounded queue (no maxsize) or blocking put() without a "
              "timeout in library code",
    "REP114": "emitted event kind not declared in the "
              "repro.obs.events.EVENT_KINDS schema registry",
}

# np.random attributes that are constructors of seeded generators, not
# draws from the hidden global stream.  The effect analyzer imports this
# table and ALLOWED_STD_RANDOM, so REP101/REP112 and its RNG_GLOBAL sites
# agree on what counts as a draw.
ALLOWED_NP_RANDOM = frozenset({"default_rng", "Generator", "SeedSequence",
                               "BitGenerator", "PCG64", "Philox", "SFC64",
                               "MT19937"})

# Files allowed to assign to ``<tensor>.data``: the autograd engine itself,
# in-place parameter updates, state loading, and numerical perturbation.
SANCTIONED_DATA_FILES = (
    "nn/tensor.py",
    "nn/optim.py",
    "nn/modules/base.py",
    "nn/serialization.py",
    "nn/gradcheck.py",
)

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _numpy_aliases(tree: ast.AST) -> set:
    """Names the module binds to the numpy package (``np``, ``numpy``)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for item in node.names:
                    if item.name == "random":
                        aliases.add(f"{item.asname or 'random'}#random")
    return aliases


def _is_np_random(node: ast.expr, aliases: set) -> bool:
    """True when ``node`` is ``np.random`` / ``numpy.random`` (or an alias)."""
    if isinstance(node, ast.Attribute) and node.attr == "random":
        return isinstance(node.value, ast.Name) and node.value.id in aliases
    if isinstance(node, ast.Name):
        return f"{node.id}#random" in aliases
    return False


def _check_bare_random(tree: ast.AST, path: str, out: List[Violation]) -> None:
    aliases = _numpy_aliases(tree)
    if not aliases:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr not in ALLOWED_NP_RANDOM
                and _is_np_random(func.value, aliases)):
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP101",
                f"np.random.{func.attr}() draws from the unseeded global "
                "stream; use repro.nn.random.default_rng() or pass a "
                "Generator",
            ))


def _data_target(node: ast.expr) -> ast.Attribute | None:
    """The ``<expr>.data`` attribute inside an assignment target, if any."""
    if isinstance(node, ast.Attribute) and node.attr == "data":
        return node
    if isinstance(node, ast.Subscript):
        return _data_target(node.value)
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            found = _data_target(element)
            if found is not None:
                return found
    return None


def _check_data_mutation(tree: ast.AST, path: str, out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if any(normalized.endswith(allowed) for allowed in SANCTIONED_DATA_FILES):
        return
    for node in ast.walk(tree):
        targets: Iterable[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        else:
            continue
        for target in targets:
            attr = _data_target(target)
            if attr is None:
                continue
            # ``self.data = ...`` inside a non-Tensor class is common and
            # unrelated; only flag when the object looks like a tensor
            # access, i.e. anything that is not a dataclass-style
            # ``self.data`` plain assignment.
            if (isinstance(attr.value, ast.Name) and attr.value.id == "self"
                    and isinstance(node, ast.Assign)
                    and not isinstance(target, ast.Subscript)):
                continue
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP102",
                "mutating `.data` can silently corrupt gradients of a "
                "tensor already on the autograd tape; use sanctioned "
                "helpers (optimizer step, load_state_dict) instead",
            ))


def _check_float32(tree: ast.AST, path: str, out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("float32", "single")
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP103",
                "np.float32 in library code mixes precisions with the "
                "float64 substrate; drop the dtype or use float64",
            ))
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if (keyword.arg == "dtype"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value == "float32"):
                    out.append(Violation(
                        path, keyword.value.lineno, keyword.value.col_offset,
                        "REP103",
                        'dtype="float32" in library code mixes precisions '
                        "with the float64 substrate",
                    ))


def _has_public_definitions(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                return True
    return False


def _check_missing_all(tree: ast.Module, path: str, out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    name = Path(path).name
    if name.startswith("_") and name != "__init__.py":
        return
    if not _has_public_definitions(tree):
        return
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return
    out.append(Violation(
        path, 1, 0, "REP104",
        "public library module defines classes/functions but no __all__",
    ))


def _check_bare_except(tree: ast.AST, path: str, out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP105",
                "bare except: swallows KeyboardInterrupt/SystemExit and "
                "every bug alike; catch a concrete exception type",
            ))


# Calls whose result is a fresh mutable container every evaluation — as a
# *default* they are evaluated once, so the container is shared anyway.
_MUTABLE_FACTORY_CALLS = {"list", "dict", "set", "bytearray"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORY_CALLS):
        return True
    return False


def _check_mutable_default(tree: ast.AST, path: str,
                           out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                out.append(Violation(
                    path, default.lineno, default.col_offset, "REP106",
                    f"mutable default argument in {node.name}() is evaluated "
                    "once and shared across calls; default to None and "
                    "construct inside the body",
                ))


def _module_bases(node: ast.ClassDef) -> set:
    """Base-class names of a class definition (``Module``, ``nn.Module``)."""
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _check_forward_without_contract(tree: ast.AST, path: str,
                                    out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if "Module" not in _module_bases(node):
            continue
        methods = {item.name for item in node.body
                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if "forward" in methods and "contract" not in methods:
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP107",
                f"{node.name} overrides forward but defines no contract(); "
                "add a contract() so repro check-model covers the layer",
            ))


# Modules whose import marks a file as "does concurrency", gating REP108.
_CONCURRENCY_MODULES = {"multiprocessing", "threading", "concurrent",
                        "queue", "subprocess"}

# Zero-argument forms of these methods block without bound on a wedged
# worker/future/queue; an explicit timeout (keyword or positional) is the
# only way out.
_BLOCKING_METHODS = {"join", "get", "result", "wait"}


def _imports_concurrency(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.split(".")[0] in _CONCURRENCY_MODULES:
                    return True
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in _CONCURRENCY_MODULES:
                return True
    return False


def _check_blocking_without_timeout(tree: ast.AST, path: str,
                                    out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    if not _imports_concurrency(tree):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _BLOCKING_METHODS):
            continue
        # ``"".join(parts)`` / ``mapping.get(key)`` pass arguments; the
        # forever-blocking concurrency forms are the bare zero-argument
        # calls (``process.join()``, ``future.result()``, ``queue.get()``).
        if node.args or node.keywords:
            continue
        out.append(Violation(
            path, node.lineno, node.col_offset, "REP108",
            f".{func.attr}() with no timeout blocks forever on a hung "
            "worker; pass an explicit timeout and handle expiry",
        ))


def _check_bare_print(tree: ast.AST, path: str, out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP109",
                "bare print() in library code is telemetry no one can "
                "collect; emit a structured event (repro.obs.events) or "
                "route through the CLI output helper",
            ))


def _is_np_empty_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("empty", "empty_like")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy"))


def _fully_initializes(stmt: ast.stmt, name: str) -> bool:
    """True when ``stmt`` provably writes the entire array bound to ``name``.

    Accepted forms: a plain subscript store (``buf[:] = ...``,
    ``buf[...] = ...``, ``buf[order] = ...`` — any single subscript
    assignment, since the repo's idiom uses full-extent index arrays) and
    ``buf.fill(value)``.  Augmented stores (``buf[:] += ...``) *read* the
    uninitialized memory and are deliberately not accepted.
    """
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        return (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == name)
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        return (isinstance(func, ast.Attribute) and func.attr == "fill"
                and isinstance(func.value, ast.Name)
                and func.value.id == name)
    return False


def _check_uninitialized_empty(tree: ast.AST, path: str,
                               out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    flagged = {id(node): node for node in ast.walk(tree)
               if _is_np_empty_call(node)}
    if not flagged:
        return
    # Sanction ``buf = np.empty(...)`` immediately followed by a statement
    # that fills ``buf`` completely; everything else stays flagged.
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            statements = getattr(node, field, None)
            if not isinstance(statements, list):
                continue
            for position, stmt in enumerate(statements):
                if not (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and _is_np_empty_call(stmt.value)):
                    continue
                follower = (statements[position + 1]
                            if position + 1 < len(statements) else None)
                if follower is not None and _fully_initializes(
                        follower, stmt.targets[0].id):
                    flagged.pop(id(stmt.value), None)
    for call in flagged.values():
        out.append(Violation(
            path, call.lineno, call.col_offset, "REP110",
            f"np.{call.func.attr}() allocates uninitialized memory and the "
            "next statement does not fully initialize it; use np.zeros, "
            "fill immediately, or justify with # noqa: REP110",
        ))


def _class_level_assignments(node: ast.ClassDef) -> dict:
    """Class-body ``name = value`` bindings (plain and annotated)."""
    assigns: dict = {}
    for item in node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = item.value
        elif (isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name)
              and item.value is not None):
            assigns[item.target.id] = item.value
    return assigns


def _is_positive_int_literal(node: ast.expr | None) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)
            and node.value >= 1)


def _check_remediation_actions(tree: ast.AST, path: str,
                               out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    # (a) Action subclasses must declare the obligations the runtime
    # registry enforces — statically, so the violation never imports.
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if "Action" not in _module_bases(node):
            continue
        assigns = _class_level_assignments(node)
        if not _is_positive_int_literal(assigns.get("timeout_ticks")):
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP111",
                f"remediation action {node.name} must declare a positive "
                "literal timeout_ticks; an unbounded action wedges the "
                "control loop",
            ))
        idempotent = assigns.get("idempotent")
        if not (isinstance(idempotent, ast.Constant)
                and idempotent.value is True):
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP111",
                f"remediation action {node.name} must declare "
                "idempotent = True; timed-out actions are retried and must "
                "be safe to re-run",
            ))
    # (b) time.sleep(<literal>) inside a loop body: a bare sleep-retry
    # loop is an unbounded remediation outside the timeout machinery.
    flagged: set = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "sleep"
                    and isinstance(inner.func.value, ast.Name)
                    and inner.func.value.id == "time"
                    and inner.args
                    and isinstance(inner.args[0], ast.Constant)
                    and id(inner) not in flagged):
                flagged.add(id(inner))
                out.append(Violation(
                    path, inner.lineno, inner.col_offset, "REP111",
                    "time.sleep(<literal>) inside a loop is a bare retry "
                    "loop with no deadline; use tick-based timeouts "
                    "(ActionRunner) or the orchestrator's deadline plumbing",
                ))


# stdlib random attributes that construct independent streams rather
# than draw from the hidden module-global one.
ALLOWED_STD_RANDOM = frozenset({"Random", "SystemRandom"})


def _check_bare_std_random(tree: ast.AST, path: str,
                           out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "random":
                    aliases.add(item.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            # `from repro.nn import random` binds the repo module, not
            # the stdlib one — only a plain `from random import X`
            # (absolute, top-level) is the stdlib stream.
            if node.module == "random" and node.level == 0:
                for item in node.names:
                    if item.name not in ALLOWED_STD_RANDOM:
                        out.append(Violation(
                            path, node.lineno, node.col_offset, "REP112",
                            f"`from random import {item.name}` pulls a "
                            "draw from the unseeded module-global "
                            "stream; thread a numpy Generator parameter "
                            "instead",
                        ))
    if not aliases:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
                and func.attr not in ALLOWED_STD_RANDOM):
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP112",
                f"random.{func.attr}() draws from the unseeded "
                "module-global stream; thread a numpy Generator "
                "parameter (or a local random.Random(seed)) instead",
            ))


# Queue constructors that take a capacity bound; SimpleQueue never does.
_QUEUE_MODULES = {"queue", "asyncio", "multiprocessing"}
_BOUNDED_QUEUES = {"Queue", "LifoQueue", "PriorityQueue", "JoinableQueue"}


def _queue_class_of(node: ast.Call, aliases: dict, named: dict):
    """The queue class a call constructs, or None."""
    func = node.func
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in aliases
            and func.attr in _BOUNDED_QUEUES | {"SimpleQueue"}):
        return func.attr
    if isinstance(func, ast.Name) and func.id in named:
        return named[func.id]
    return None


def _async_spans(tree: ast.AST) -> set:
    """ids of every node nested inside an ``async def`` body."""
    spans: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            for inner in ast.walk(node):
                spans.add(id(inner))
    return spans


def _check_unbounded_queue(tree: ast.AST, path: str,
                           out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    aliases: dict = {}          # local name -> queue-bearing module
    named: dict = {}            # from-imported class name -> class
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.split(".")[0] in _QUEUE_MODULES:
                    aliases[item.asname or item.name.split(".")[0]] = \
                        item.name
        elif isinstance(node, ast.ImportFrom):
            if (node.level == 0 and node.module
                    and node.module.split(".")[0] in _QUEUE_MODULES):
                for item in node.names:
                    if item.name in _BOUNDED_QUEUES | {"SimpleQueue"}:
                        named[item.asname or item.name] = item.name
    if not aliases and not named:
        return
    in_async = _async_spans(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        queue_class = _queue_class_of(node, aliases, named)
        if queue_class == "SimpleQueue":
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP113",
                "SimpleQueue has no capacity bound; use Queue(maxsize=...) "
                "so a stalled consumer surfaces as backpressure, not OOM",
            ))
            continue
        if queue_class is not None:
            bound = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "maxsize":
                    bound = keyword.value
            unbounded = bound is None or (
                isinstance(bound, ast.Constant)
                and isinstance(bound.value, int) and bound.value <= 0)
            if unbounded:
                out.append(Violation(
                    path, node.lineno, node.col_offset, "REP113",
                    f"{queue_class}() without a positive maxsize grows "
                    "without limit under load; pass an explicit bound and "
                    "reject (with retry-after) when it fills",
                ))
            continue
        # Synchronous blocking put: full bounded queue wedges the
        # producer forever.  Awaited puts in async code are exempt —
        # asyncio's bounded put *is* the backpressure mechanism.
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "put"
                and node.args and id(node) not in in_async):
            keywords = {keyword.arg for keyword in node.keywords}
            if not keywords & {"timeout", "block"}:
                out.append(Violation(
                    path, node.lineno, node.col_offset, "REP113",
                    ".put(item) with no timeout blocks forever on a full "
                    "queue; pass timeout= (or block=False / put_nowait) "
                    "and handle the Full verdict",
                ))


# Names whose *call* is an event emission when the first argument is a
# string literal.  ``emit``/``emit_event`` cover the module-level helper
# (and its conventional import alias); ``.emit``/``._emit`` cover
# EventLog and the per-component wrapper methods; ``.append`` covers the
# EventLog spelling only when keywords are present (a plain
# ``list.append("x")`` never passes keywords).
_EMIT_NAMES = {"emit", "emit_event"}
_EMIT_ATTRS = {"emit", "_emit"}


def _declared_event_kinds() -> frozenset:
    # Imported lazily so lint_source stays usable on machines where the
    # obs package (or its transitive deps) is not importable.
    try:
        from repro.obs.events import EVENT_KINDS
    except Exception:
        return frozenset()
    return frozenset(EVENT_KINDS)


def emitted_event_kinds(tree: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    """Every emit call site in ``tree`` whose kind is a string literal,
    as ``(call node, kind)``.  Variable kinds (forwarding wrappers) are
    the plumbing, not the call site, and are not yielded."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            is_emit = func.id in _EMIT_NAMES
        elif isinstance(func, ast.Attribute):
            is_emit = func.attr in _EMIT_ATTRS or (
                func.attr == "append" and bool(node.keywords))
        else:
            is_emit = False
        if is_emit:
            yield node, first.value


def _check_undeclared_event_kind(tree: ast.AST, path: str,
                                 out: List[Violation]) -> None:
    normalized = path.replace("\\", "/")
    if "/src/" not in f"/{normalized}":
        return
    declared = _declared_event_kinds()
    if not declared:
        return
    for node, kind in emitted_event_kinds(tree):
        if kind not in declared:
            out.append(Violation(
                path, node.lineno, node.col_offset, "REP114",
                f"event kind {kind!r} is not declared in "
                "repro.obs.events.EVENT_KINDS; offline consumers drop "
                "undeclared kinds — add it to the schema registry",
            ))


_CHECKS = (_check_bare_random, _check_bare_std_random,
           _check_data_mutation, _check_float32,
           _check_missing_all, _check_bare_except, _check_mutable_default,
           _check_forward_without_contract, _check_blocking_without_timeout,
           _check_bare_print, _check_uninitialized_empty,
           _check_remediation_actions, _check_unbounded_queue,
           _check_undeclared_event_kind)


_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _suppressed(violation: Violation, lines: Sequence[str]) -> bool:
    """True when the violation's line carries a matching ``# noqa`` comment."""
    if not 1 <= violation.line <= len(lines):
        return False
    match = _NOQA.search(lines[violation.line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True  # bare "# noqa" silences everything on the line
    return violation.code in {c.strip().upper() for c in codes.split(",")}


def lint_source(source: str, path: str = "<string>",
                select: Sequence[str] | None = None) -> List[Violation]:
    """Lint one module's source text; returns violations sorted by line.

    A ``# noqa: REP102`` comment on the offending line (or a bare
    ``# noqa``) suppresses the violation — for the handful of places that
    *test* the forbidden patterns.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Violation(path, error.lineno or 1, error.offset or 0,
                          "REP000", f"syntax error: {error.msg}")]
    violations: List[Violation] = []
    for check in _CHECKS:
        check(tree, path, violations)
    lines = source.splitlines()
    violations = [v for v in violations if not _suppressed(v, lines)]
    if select:
        violations = [v for v in violations if v.code in select]
    return sorted(violations, key=lambda v: (v.line, v.col, v.code))


def _iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for entry in paths:
        root = Path(entry)
        if root.is_file() and root.suffix == ".py":
            yield root
        elif root.is_dir():
            yield from sorted(root.rglob("*.py"))
        else:
            raise FileNotFoundError(f"lint path does not exist: {entry}")


def lint_paths(paths: Sequence[str],
               select: Sequence[str] | None = None) -> List[Violation]:
    """Lint every ``.py`` file under the given files/directories."""
    violations: List[Violation] = []
    for file_path in _iter_python_files(paths):
        violations.extend(
            lint_source(file_path.read_text(encoding="utf-8"),
                        str(file_path), select=select)
        )
    return violations


def _default_paths() -> List[str]:
    """Paths from ``[tool.repro.lint] paths`` in pyproject.toml, if present."""
    pyproject = Path("pyproject.toml")
    if pyproject.is_file():
        try:
            import tomllib
        except ImportError:  # pragma: no cover - python < 3.11
            tomllib = None
        if tomllib is not None:
            config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
            configured = (config.get("tool", {}).get("repro", {})
                          .get("lint", {}).get("paths"))
            if configured:
                return [p for p in configured if Path(p).exists()]
    return [p for p in DEFAULT_PATHS if Path(p).exists()]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.lint",
        description="repo-specific AST lint (reproducibility + tape safety)",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: [tool.repro.lint] "
                             "paths, else src tests benchmarks examples)")
    parser.add_argument("--select", nargs="+", metavar="CODE",
                        help="only report these rule codes")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, description in sorted(RULES.items()):
            print(f"{code}: {description}")  # noqa: REP109 - lint's own CLI output
        return 0

    if args.select:
        unknown = sorted(set(args.select) - set(RULES))
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}; "  # noqa: REP109 - lint's own CLI output
                  f"available: {', '.join(sorted(RULES))}", file=sys.stderr)
            return 2

    paths = args.paths or _default_paths()
    if not paths:
        print("no lintable paths found", file=sys.stderr)  # noqa: REP109 - lint's own CLI output
        return 2
    try:
        violations = lint_paths(paths, select=args.select)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)  # noqa: REP109 - lint's own CLI output
        return 2
    for violation in violations:
        print(violation)  # noqa: REP109 - lint's own CLI output
    checked = sum(1 for _ in _iter_python_files(paths))
    status = "clean" if not violations else f"{len(violations)} violation(s)"
    print(f"linted {checked} file(s) under {' '.join(paths)}: {status}")  # noqa: REP109 - lint's own CLI output
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Interprocedural effect inference over the repository's own AST.

This is the front half of the determinism analyzer (DESIGN.md §14): it
parses every module of a package, builds a module-level call graph, and
infers an **effect signature** per function from a small lattice of
effect atoms:

``RNG_GLOBAL``
    A draw from a hidden global random stream (bare ``np.random.*`` or
    stdlib ``random.*``).  Irreproducible by construction.
``RNG_SEEDED``
    A draw from an explicitly threaded ``numpy.random.Generator`` (a
    parameter or attribute named ``rng``/``generator``, or a local
    ``default_rng(...)``).  *Allowed* under the pure-modulo-seed
    contract — this atom is informational.
``TIME``
    A wall-clock read (``time.time``/``perf_counter``/``monotonic``,
    ``datetime.now``, ...), including bare references passed as
    callables and calls through an attribute whose default is a clock
    function (the ``EventLog(clock=time.time)`` pattern).
``FS_ORDER``
    A directory listing whose order the OS does not define
    (``os.listdir``, ``glob.glob``, ``Path.iterdir/glob/rglob``) that is
    not provably passed through ``sorted``.
``UNORDERED_ITER``
    Iteration over a ``set``/``frozenset``-typed value of non-literal
    origin in an order-sensitive position (a ``for`` loop, a
    comprehension not wrapped in an order-insensitive consumer, or an
    argument to ``list``/``tuple``/``sum``/``join``/...).  Dict views
    are deliberately exempt: CPython dicts are insertion-ordered, while
    set order depends on ``PYTHONHASHSEED`` across processes.
``ENV``
    An ``os.environ`` / ``os.getenv`` read.
``ID_HASH``
    An ``id(...)`` call — object identities differ across runs, so any
    value derived from them (ordering, keys that leak into output) is
    irreproducible.

Atoms are inferred per function from the AST (*intrinsic* sites), then
propagated through resolved calls to a fixpoint, so a root such as
``MaceTrainer.fit`` reports every atom reachable through its whole call
tree with a provenance chain down to the intrinsic site.

Call resolution is deliberately conservative-but-useful: direct calls,
``self``/``cls`` methods (with class-hierarchy dispatch for overrides),
attribute calls through inferred types (parameter annotations,
single-assignment locals, ``self.x = Class()`` attributes, module
globals, return-type annotations), ``with`` statements (edges to
``__enter__``/``__exit__``), and ``super()``.  Unresolvable calls are
skipped — the analyzer is a reviewed gate, not a soundness proof (the
same stance as the interval analyzer's envelope seeding).

Audited sites carry an ``# effects: ok <ATOM> reason=...`` comment on
the offending line (the PR-3 ``# analyzer: ok`` pattern): the effect is
*declared*, not silenced — it still appears in reports, marked audited,
and :mod:`repro.analysis.purity` gates the audited set against
``det_baseline.json``.  Annotations are read from real comment tokens
(``tokenize``), so the marker appearing in a docstring is inert.
Unknown atoms, missing reasons, and annotations matching no detected
site are surfaced as DET508 by the purity pass.
"""

from __future__ import annotations

import ast
import io
import tokenize
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ATOMS",
    "FORK_ATOMS",
    "ANNOTATION_MARKER",
    "EffectSite",
    "EffectAnnotation",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "RepoModel",
    "analyze_package",
    "parse_annotations",
]

ATOMS = ("RNG_GLOBAL", "RNG_SEEDED", "TIME", "FS_ORDER", "UNORDERED_ITER",
         "ENV", "ID_HASH")

# Atom tokens used by the fork-safety pass (repro.analysis.forksafety);
# declared here so annotation validation accepts them.
FORK_ATOMS = ("FORK_GLOBAL", "ATOMIC_WRITE", "PROC_LIFECYCLE")

ANNOTATION_MARKER = "# effects: ok"
_ANNOTATION_RE = re.compile(
    r"#\s*effects:\s*ok\s+(?P<atom>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s+reason=(?P<reason>\S.*)$")
_ANNOTATION_HINT = re.compile(r"#\s*effects\s*:")

# Wall-clock reads.  ``time.sleep`` is excluded: it affects wall time,
# never a computed value.
_TIME_REFS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock_gettime",
    "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

# ``np.random`` attributes that construct seeded generators rather than
# draw from the hidden global stream (mirrors lint REP101).
_ALLOWED_NP_RANDOM = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "Philox", "SFC64", "MT19937",
})
_ALLOWED_STD_RANDOM = frozenset({"Random", "SystemRandom"})

_SEEDED_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence",
})
# Receiver names that identify an explicitly threaded generator.
_RNG_RECEIVERS = frozenset({"rng", "_rng", "generator", "bit_generator",
                            "random_state"})

_LISTING_CALLS = frozenset({"os.listdir", "os.scandir", "os.walk",
                            "glob.glob", "glob.iglob"})
_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

# Consumers whose result does not depend on iteration order.
_ORDER_INSENSITIVE = frozenset({"sorted", "set", "frozenset", "len",
                                "min", "max", "any", "all"})
# Consumers that materialize or fold in iteration order (``sum`` over
# floats is order-sensitive: float addition is not associative).
_ORDER_SENSITIVE = frozenset({"list", "tuple", "sum", "enumerate",
                              "iter", "reversed"})

_SET_TYPE = "#set"  # inference marker for set/frozenset-typed values


@dataclass
class EffectSite:
    """One intrinsic effect occurrence in the source."""

    atom: str
    file: str
    line: int
    function: str  # qualified name of the containing function
    detail: str    # human-readable description, e.g. "time.perf_counter()"
    audited: bool = False
    reason: str = ""

    def to_dict(self) -> dict:
        return {"atom": self.atom, "file": self.file, "line": self.line,
                "function": self.function, "detail": self.detail,
                "audited": self.audited, "reason": self.reason}


@dataclass
class EffectAnnotation:
    """One ``# effects: ok`` comment found in a module."""

    file: str
    line: int
    atom: str
    reason: str
    malformed: bool = False
    problem: str = ""
    consumed: bool = False


@dataclass
class FunctionInfo:
    """One function or method, with its resolved calls and effect sites."""

    qname: str
    module: str
    name: str
    cls: Optional[str]  # qualified class name for methods
    file: str
    line: int
    node: ast.AST = field(repr=False, default=None)
    calls: List[Tuple[str, int]] = field(default_factory=list)
    sites: List[EffectSite] = field(default_factory=list)
    returns: Set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """One class definition with resolved bases and attribute types."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef = field(repr=False, default=None)
    base_names: List[str] = field(default_factory=list)  # raw dotted names
    bases: List[str] = field(default_factory=list)       # resolved qnames
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    time_attrs: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One parsed module: AST, imports, globals, comment annotations."""

    qname: str
    path: str
    tree: ast.Module = field(repr=False, default=None)
    imports: Dict[str, str] = field(default_factory=dict)
    global_types: Dict[str, Set[str]] = field(default_factory=dict)
    global_exprs: Dict[str, List[ast.expr]] = field(default_factory=dict)
    annotations: Dict[int, EffectAnnotation] = field(default_factory=dict)
    parents: Dict[int, ast.AST] = field(default_factory=dict, repr=False)
    functions: List[str] = field(default_factory=list)
    classes: List[str] = field(default_factory=list)


class RepoModel:
    """The analyzed package: modules, classes, functions, call graph."""

    def __init__(self, package: str, root: Path):
        self.package = package
        self.root = root
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.subclasses: Dict[str, List[str]] = {}
        self._effects: Dict[str, Set[Tuple[str, bool]]] = {}

    # -- queries -------------------------------------------------------

    def annotations(self) -> List[EffectAnnotation]:
        out: List[EffectAnnotation] = []
        for module in self.modules.values():
            out.extend(module.annotations.values())
        return sorted(out, key=lambda a: (a.file, a.line))

    def signature(self, qname: str) -> Dict[str, str]:
        """Fixpoint effect signature: atom -> ``"active"`` | ``"audited"``.

        An atom reachable through any un-audited site is ``active``;
        one reachable only through audited sites is ``audited``.
        """
        merged: Dict[str, str] = {}
        for atom, audited in self._effects.get(qname, ()):
            if not audited:
                merged[atom] = "active"
            else:
                merged.setdefault(atom, "audited")
        return merged

    def reachable(self, root_qname: str
                  ) -> Tuple[List[str], Dict[str, Tuple[str, int]]]:
        """BFS over the call graph from ``root_qname``.

        Returns ``(order, parent)`` where ``parent[callee]`` is the
        ``(caller, call_line)`` edge on the first (shortest) path —
        the provenance chain used in findings.
        """
        if root_qname not in self.functions:
            return [], {}
        order = [root_qname]
        parent: Dict[str, Tuple[str, int]] = {}
        queue = [root_qname]
        seen = {root_qname}
        while queue:
            current = queue.pop(0)
            for callee, line in self.functions[current].calls:
                if callee in seen or callee not in self.functions:
                    continue
                seen.add(callee)
                parent[callee] = (current, line)
                order.append(callee)
                queue.append(callee)
        return order, parent

    def chain(self, root_qname: str, target: str,
              parent: Dict[str, Tuple[str, int]]
              ) -> List[Tuple[str, int, str]]:
        """``(file, line, qname)`` frames from the root down to ``target``."""
        hops: List[Tuple[str, int, str]] = []
        current = target
        while current != root_qname and current in parent:
            caller, line = parent[current]
            hops.append((self.functions[caller].file, line, current))
            current = caller
        root = self.functions.get(root_qname)
        if root is not None:
            hops.append((root.file, root.line, root_qname))
        return list(reversed(hops))

    def mro(self, class_qname: str) -> List[str]:
        """Linearized ancestry (self first); tolerant of unresolved bases."""
        out: List[str] = []
        stack = [class_qname]
        while stack:
            current = stack.pop(0)
            if current in out or current not in self.classes:
                continue
            out.append(current)
            stack.extend(self.classes[current].bases)
        return out

    def resolve_method(self, class_qname: str, method: str
                       ) -> Optional[FunctionInfo]:
        for ancestor in self.mro(class_qname):
            info = self.classes[ancestor].methods.get(method)
            if info is not None:
                return info
        return None

    def override_methods(self, class_qname: str, method: str
                         ) -> List[FunctionInfo]:
        """``method`` as defined by every (transitive) repo subclass."""
        out: List[FunctionInfo] = []
        stack = list(self.subclasses.get(class_qname, ()))
        seen: Set[str] = set()
        while stack:
            sub = stack.pop(0)
            if sub in seen:
                continue
            seen.add(sub)
            info = self.classes[sub].methods.get(method)
            if info is not None:
                out.append(info)
            stack.extend(self.subclasses.get(sub, ()))
        return out


# ----------------------------------------------------------------------
# Comment annotations
# ----------------------------------------------------------------------

def parse_annotations(source: str, path: str) -> Dict[int, EffectAnnotation]:
    """Extract ``# effects: ok`` annotations from real comment tokens.

    Only COMMENT tokens count — the marker inside a docstring or string
    literal is inert, so the analyzer's own documentation cannot create
    stale-annotation findings.
    """
    annotations: Dict[int, EffectAnnotation] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except tokenize.TokenError:
        return annotations
    valid_atoms = set(ATOMS) | set(FORK_ATOMS)
    for line, text in comments:
        if not _ANNOTATION_HINT.search(text):
            continue
        match = _ANNOTATION_RE.search(text)
        if match is None:
            annotations[line] = EffectAnnotation(
                file=path, line=line, atom="", reason="", malformed=True,
                problem="expected '# effects: ok <ATOM> reason=<text>'")
            continue
        atom = match.group("atom")
        if atom not in valid_atoms:
            annotations[line] = EffectAnnotation(
                file=path, line=line, atom=atom, reason="", malformed=True,
                problem=f"unknown effect atom {atom!r}")
            continue
        annotations[line] = EffectAnnotation(
            file=path, line=line, atom=atom,
            reason=match.group("reason").strip())
    return annotations


# ----------------------------------------------------------------------
# Module scanning
# ----------------------------------------------------------------------

def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_qname(root: Path, package: str, path: Path) -> str:
    relative = path.relative_to(root).with_suffix("")
    parts = [package] + list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _collect_imports(nodes: Sequence[ast.stmt], module_qname: str,
                     out: Dict[str, str]) -> None:
    for node in nodes:
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                target = item.name if item.asname else item.name.split(".")[0]
                out[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None and node.level == 0:
                continue
            base = node.module or ""
            if node.level:
                # relative import: resolve against the current module
                parts = module_qname.split(".")
                parts = parts[:len(parts) - node.level]
                base = ".".join(parts + ([node.module] if node.module else []))
            for item in node.names:
                if item.name == "*":
                    continue
                out[item.asname or item.name] = f"{base}.{item.name}"


def _iter_scope_statements(body: Sequence[ast.stmt]):
    """Statements of one scope, not descending into nested def/class."""
    stack = list(body)
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for child_field in ("body", "orelse", "finalbody", "handlers"):
            children = getattr(node, child_field, None)
            if isinstance(children, list):
                for child in children:
                    if isinstance(child, ast.ExceptHandler):
                        stack.extend(child.body)
                    elif isinstance(child, ast.stmt):
                        stack.append(child)


def _walk_function(node: ast.AST):
    """All nodes of a function, including nested defs, excluding classes.

    Nested functions (closures) are treated as part of the enclosing
    function's extent — e.g. ``trace._module_paths``'s inner ``walk``
    helper — because they execute inside its dynamic extent.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop(0)
        if isinstance(current, ast.ClassDef):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


class _Analyzer:
    """Builds a :class:`RepoModel` in phases (types, then calls/sites)."""

    def __init__(self, model: RepoModel):
        self.model = model

    # -- phase 1: registration ----------------------------------------

    def register_module(self, path: Path, source: str) -> None:
        model = self.model
        qname = _module_qname(model.root, model.package, path)
        tree = ast.parse(source, filename=str(path))
        info = ModuleInfo(qname=qname, path=str(path), tree=tree)
        info.annotations = parse_annotations(source, str(path))
        _collect_imports(
            [n for n in ast.walk(tree)
             if isinstance(n, (ast.Import, ast.ImportFrom))],
            qname, info.imports)
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                info.parents[id(child)] = node
        model.modules[qname] = info

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(info, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._register_class(info, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._register_global(info, node)
        # module globals rebound inside functions via ``global X``
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared: Set[str] = set()
            for stmt in _walk_function(node):
                if isinstance(stmt, ast.Global):
                    declared.update(stmt.names)
                elif isinstance(stmt, ast.Assign) and declared:
                    for target in stmt.targets:
                        if (isinstance(target, ast.Name)
                                and target.id in declared):
                            info.global_exprs.setdefault(
                                target.id, []).append(stmt.value)

    def _register_global(self, info: ModuleInfo,
                         node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
            annotation = None
        else:
            targets = [node.target]
            value = node.value
            annotation = node.annotation
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if value is not None:
                info.global_exprs.setdefault(target.id, []).append(value)
            if annotation is not None:
                types = self._annotation_types(annotation, info)
                if types:
                    info.global_types.setdefault(
                        target.id, set()).update(types)

    def _register_function(self, info: ModuleInfo, node: ast.AST,
                           cls: Optional[str]) -> FunctionInfo:
        qname = (f"{cls}.{node.name}" if cls
                 else f"{info.qname}.{node.name}")
        function = FunctionInfo(
            qname=qname, module=info.qname, name=node.name, cls=cls,
            file=info.path, line=node.lineno, node=node)
        self.model.functions[qname] = function
        if cls is None:
            info.functions.append(qname)
        return function

    def _register_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{info.qname}.{node.name}"
        cls = ClassInfo(qname=qname, module=info.qname, name=node.name,
                        node=node)
        cls.base_names = [d for d in (_dotted(b) for b in node.bases)
                          if d is not None]
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[item.name] = self._register_function(
                    info, item, cls=qname)
        self.model.classes[qname] = cls
        info.classes.append(qname)

    # -- name resolution ----------------------------------------------

    def _resolve_name(self, dotted: str, info: ModuleInfo,
                      extra_imports: Optional[Dict[str, str]] = None
                      ) -> Optional[str]:
        """Absolute dotted target of a possibly-imported name chain."""
        head, _, rest = dotted.partition(".")
        target = None
        if extra_imports and head in extra_imports:
            target = extra_imports[head]
        elif head in info.imports:
            target = info.imports[head]
        elif f"{info.qname}.{head}" in self.model.functions:
            target = f"{info.qname}.{head}"
        elif f"{info.qname}.{head}" in self.model.classes:
            target = f"{info.qname}.{head}"
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def _annotation_types(self, annotation: ast.expr, info: ModuleInfo
                          ) -> Set[str]:
        """Repo class qnames referenced anywhere inside an annotation."""
        types: Set[str] = set()
        nodes = [annotation]
        while nodes:
            node = nodes.pop(0)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    nodes.append(ast.parse(node.value, mode="eval").body)
                except SyntaxError:
                    continue
                continue
            dotted = _dotted(node)
            if dotted is not None:
                resolved = self._resolve_name(dotted, info)
                if resolved in self.model.classes:
                    types.add(resolved)
                if dotted in ("set", "frozenset", "Set", "FrozenSet"):
                    types.add(_SET_TYPE)
                continue
            nodes.extend(ast.iter_child_nodes(node))
        return types

    # -- phase 2: type inference fixpoint -----------------------------

    def infer_types(self, rounds: int = 8) -> None:
        model = self.model
        # resolve class bases + subclass map (stable, one shot)
        for cls in model.classes.values():
            info = model.modules[cls.module]
            for raw in cls.base_names:
                resolved = self._resolve_name(raw, info)
                if resolved in model.classes:
                    cls.bases.append(resolved)
                    model.subclasses.setdefault(resolved, []).append(
                        cls.qname)
        for subs in model.subclasses.values():
            subs.sort()
        for _ in range(rounds):
            changed = False
            for module in model.modules.values():
                for name, exprs in module.global_exprs.items():
                    types = module.global_types.setdefault(name, set())
                    before = len(types)
                    for expr in exprs:
                        types.update(self._infer(expr, module, None, {}))
                    changed |= len(types) != before
            for cls in model.classes.values():
                changed |= self._infer_class_attrs(cls)
            for function in model.functions.values():
                changed |= self._infer_returns(function)
            if not changed:
                break

    def _param_types(self, function: FunctionInfo) -> Dict[str, Set[str]]:
        info = self.model.modules[function.module]
        node = function.node
        types: Dict[str, Set[str]] = {}
        args = list(node.args.posonlyargs) + list(node.args.args) + \
            list(node.args.kwonlyargs)
        for arg in args:
            if arg.annotation is not None:
                found = self._annotation_types(arg.annotation, info)
                if found:
                    types[arg.arg] = found
        if function.cls is not None and args:
            types.setdefault(args[0].arg, set()).add(function.cls)
        return types

    def _local_types(self, function: FunctionInfo) -> Dict[str, Set[str]]:
        """Single forward pass over assignments; params seed the scope."""
        info = self.model.modules[function.module]
        types = dict(self._param_types(function))
        for stmt in _walk_function(function.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                inferred = self._infer(stmt.value, info, function, types)
                if inferred:
                    types.setdefault(
                        stmt.targets[0].id, set()).update(inferred)
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                found = self._annotation_types(stmt.annotation, info)
                if found:
                    types.setdefault(stmt.target.id, set()).update(found)
        return types

    def _infer_class_attrs(self, cls: ClassInfo) -> bool:
        changed = False
        for method in cls.methods.values():
            info = self.model.modules[method.module]
            locals_ = self._local_types(method)
            for stmt in _walk_function(method.node):
                value = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign) \
                        and stmt.value is not None:
                    target, value = stmt.target, stmt.value
                else:
                    continue
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                types = cls.attr_types.setdefault(target.attr, set())
                before = len(types)
                types.update(self._infer(value, info, method, locals_))
                if isinstance(stmt, ast.AnnAssign):
                    types.update(
                        self._annotation_types(stmt.annotation, info))
                changed |= len(types) != before
                # the EventLog(clock=time.time) pattern: a parameter
                # whose default is a clock, stored on self
                if isinstance(value, ast.Name) and \
                        self._param_time_default(method, value.id):
                    if target.attr not in cls.time_attrs:
                        cls.time_attrs.add(target.attr)
                        changed = True
        return changed

    def _param_time_default(self, function: FunctionInfo,
                            param: str) -> bool:
        node = function.node
        info = self.model.modules[function.module]
        args = list(node.args.args)
        defaults = list(node.args.defaults)
        pairs = list(zip(args[len(args) - len(defaults):], defaults))
        pairs += [(a, d) for a, d in
                  zip(node.args.kwonlyargs, node.args.kw_defaults)
                  if d is not None]
        for arg, default in pairs:
            if arg.arg != param:
                continue
            dotted = _dotted(default)
            if dotted is None:
                continue
            resolved = self._resolve_name(dotted, info) or dotted
            if resolved in _TIME_REFS:
                return True
        return False

    def _infer_returns(self, function: FunctionInfo) -> bool:
        info = self.model.modules[function.module]
        node = function.node
        before = len(function.returns)
        if getattr(node, "returns", None) is not None:
            function.returns.update(
                self._annotation_types(node.returns, info))
        locals_ = self._local_types(function)
        for stmt in _walk_function(node):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                function.returns.update(
                    self._infer(stmt.value, info, function, locals_))
        return len(function.returns) != before

    def _infer(self, expr: ast.expr, info: ModuleInfo,
               function: Optional[FunctionInfo],
               locals_: Dict[str, Set[str]], depth: int = 0) -> Set[str]:
        """Types of an expression: repo class qnames and/or ``#set``."""
        if depth > 6 or expr is None:
            return set()
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return {_SET_TYPE}
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._infer(expr.left, info, function, locals_,
                                depth + 1)
                    | self._infer(expr.right, info, function, locals_,
                                  depth + 1)) & {_SET_TYPE}
        if isinstance(expr, ast.IfExp):
            return (self._infer(expr.body, info, function, locals_,
                                depth + 1)
                    | self._infer(expr.orelse, info, function, locals_,
                                  depth + 1))
        if isinstance(expr, ast.Await):
            return self._infer(expr.value, info, function, locals_,
                               depth + 1)
        if isinstance(expr, ast.Name):
            if expr.id in locals_:
                return set(locals_[expr.id])
            if expr.id in info.global_types:
                return set(info.global_types[expr.id])
            resolved = self._resolve_name(expr.id, info)
            if resolved in self.model.classes:
                return set()  # the class object itself, not an instance
            return set()
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) \
                    and expr.value.id in ("self", "cls") \
                    and function is not None and function.cls is not None:
                for ancestor in self.model.mro(function.cls):
                    types = self.model.classes[ancestor].attr_types.get(
                        expr.attr)
                    if types:
                        return set(types)
                return set()
            dotted = _dotted(expr)
            if dotted is not None:
                resolved = self._resolve_name(dotted, info)
                if resolved is not None:
                    module = self.model.modules.get(
                        resolved.rsplit(".", 1)[0])
                    if module is not None:
                        name = resolved.rsplit(".", 1)[1]
                        return set(module.global_types.get(name, ()))
            return set()
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return {_SET_TYPE}
                if func.id == "sorted":
                    return set()
                resolved = self._resolve_name(func.id, info)
                if resolved in self.model.classes:
                    return {resolved}
                if resolved in self.model.functions:
                    return set(self.model.functions[resolved].returns)
                return set()
            if isinstance(func, ast.Attribute):
                if func.attr == "copy":
                    return self._infer(func.value, info, function,
                                       locals_, depth + 1) & {_SET_TYPE}
                dotted = _dotted(func)
                if dotted is not None:
                    resolved = self._resolve_name(dotted, info)
                    if resolved in self.model.classes:
                        return {resolved}
                    if resolved in self.model.functions:
                        return set(
                            self.model.functions[resolved].returns)
                receiver = self._infer(func.value, info, function,
                                       locals_, depth + 1)
                out: Set[str] = set()
                for typ in receiver:
                    if typ == _SET_TYPE:
                        continue
                    method = self.model.resolve_method(typ, func.attr)
                    if method is not None:
                        out.update(method.returns)
                return out
        return set()

    # -- phase 3: calls + intrinsic sites -----------------------------

    def extract(self) -> None:
        for function in self.model.functions.values():
            self._extract_function(function)

    def _local_imports(self, function: FunctionInfo) -> Dict[str, str]:
        extra: Dict[str, str] = {}
        _collect_imports(
            [n for n in _walk_function(function.node)
             if isinstance(n, (ast.Import, ast.ImportFrom))],
            function.module, extra)
        return extra

    def _extract_function(self, function: FunctionInfo) -> None:
        info = self.model.modules[function.module]
        extra = self._local_imports(function)
        locals_ = self._local_types(function)
        seen_sites: Set[Tuple[str, int]] = set()
        seen_calls: Set[Tuple[str, int]] = set()

        def resolve(dotted: str) -> Optional[str]:
            return self._resolve_name(dotted, info, extra)

        def add_site(atom: str, node: ast.AST, detail: str) -> None:
            line = getattr(node, "lineno", function.line)
            if (atom, line) in seen_sites:
                return
            seen_sites.add((atom, line))
            annotation = info.annotations.get(line)
            audited = (annotation is not None and not annotation.malformed
                       and annotation.atom == atom)
            if audited:
                annotation.consumed = True
            function.sites.append(EffectSite(
                atom=atom, file=function.file, line=line,
                function=function.qname, detail=detail, audited=audited,
                reason=annotation.reason if audited else ""))

        def add_call(callee: Optional[FunctionInfo], node: ast.AST) -> None:
            if callee is None:
                return
            line = getattr(node, "lineno", function.line)
            key = (callee.qname, line)
            if key not in seen_calls:
                seen_calls.add(key)
                function.calls.append(key)

        def receiver_calls(types: Set[str], method: str,
                           node: ast.AST) -> None:
            for typ in sorted(types):
                if typ == _SET_TYPE:
                    continue
                add_call(self.model.resolve_method(typ, method), node)
                for override in self.model.override_methods(typ, method):
                    add_call(override, node)

        for node in _walk_function(function.node):
            # ---- external effect references (calls or bare refs) ----
            dotted = _dotted(node) if isinstance(
                node, (ast.Attribute, ast.Name)) else None
            if dotted is not None and not isinstance(
                    self.model.modules[function.module].parents.get(
                        id(node)), ast.Attribute):
                resolved = resolve(dotted) or dotted
                self._external_site(resolved, node, add_site)
            if not isinstance(node, (ast.Call, ast.For, ast.AsyncFor,
                                     ast.comprehension, ast.With,
                                     ast.AsyncWith)):
                continue
            # ---- with: edges to __enter__/__exit__ ------------------
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    types = self._infer(item.context_expr, info,
                                        function, locals_)
                    receiver_calls(types, "__enter__", node)
                    receiver_calls(types, "__exit__", node)
                continue
            # ---- unordered iteration --------------------------------
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _SET_TYPE in self._infer(node.iter, info, function,
                                            locals_):
                    add_site("UNORDERED_ITER", node,
                             "for-loop over a set (hash order)")
                continue
            if isinstance(node, ast.comprehension):
                if _SET_TYPE in self._infer(node.iter, info, function,
                                            locals_) \
                        and not self._order_insensitive_context(
                            node.iter, info):
                    add_site("UNORDERED_ITER", node.iter,
                             "comprehension over a set (hash order)")
                continue
            # ---- calls ----------------------------------------------
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "id" and len(node.args) == 1:
                    add_site("ID_HASH", node, "id() of a live object")
                elif func.id in _ORDER_SENSITIVE:
                    for arg in node.args[:1]:
                        if _SET_TYPE in self._infer(arg, info, function,
                                                    locals_):
                            add_site(
                                "UNORDERED_ITER", node,
                                f"{func.id}() over a set (hash order)")
                resolved = resolve(func.id)
                if resolved in self.model.functions:
                    add_call(self.model.functions[resolved], node)
                elif resolved in self.model.classes:
                    init = self.model.resolve_method(resolved, "__init__")
                    add_call(init, node)
                elif func.id in locals_:
                    # calling an instance directly: edge to __call__
                    receiver_calls(locals_[func.id], "__call__", node)
                continue
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "join" and node.args and _SET_TYPE in \
                    self._infer(node.args[0], info, function, locals_):
                add_site("UNORDERED_ITER", node,
                         "str.join over a set (hash order)")
            call_dotted = _dotted(func)
            if call_dotted is not None:
                resolved = resolve(call_dotted) or call_dotted
                if resolved in self.model.functions:
                    add_call(self.model.functions[resolved], node)
                    continue
                if resolved in self.model.classes:
                    init = self.model.resolve_method(resolved, "__init__")
                    add_call(init, node)
                    continue
                if self._seeded_rng_call(resolved, call_dotted):
                    add_site("RNG_SEEDED", node,
                             f"draw from threaded generator "
                             f"({call_dotted})")
                if resolved in _LISTING_CALLS and \
                        not self._listing_is_sorted(node, function, info):
                    add_site("FS_ORDER", node,
                             f"{resolved}() order is OS-defined")
            if func.attr in _LISTING_METHODS and call_dotted is None \
                    or (func.attr in _LISTING_METHODS
                        and (resolve(call_dotted) or call_dotted)
                        not in self.model.functions):
                if not self._listing_is_sorted(node, function, info):
                    add_site("FS_ORDER", node,
                             f".{func.attr}() order is OS-defined")
            # super().m()
            if isinstance(func.value, ast.Call) \
                    and isinstance(func.value.func, ast.Name) \
                    and func.value.func.id == "super" \
                    and function.cls is not None:
                for ancestor in self.model.mro(function.cls)[1:]:
                    method = self.model.classes[ancestor].methods.get(
                        func.attr)
                    if method is not None:
                        add_call(method, node)
                        break
                continue
            # time-carrying attribute call (self._clock())
            if isinstance(func.value, ast.Name) \
                    and func.value.id == "self" \
                    and function.cls is not None:
                for ancestor in self.model.mro(function.cls):
                    if func.attr in self.model.classes[
                            ancestor].time_attrs:
                        add_site("TIME", node,
                                 f"calls self.{func.attr} "
                                 "(wall-clock default)")
                        break
            # receiver-typed method dispatch
            receiver = self._infer(func.value, info, function, locals_)
            if receiver:
                receiver_calls(receiver, func.attr, node)
                # the receiver may hold a callable instance under this
                # attribute (``self.model(...)`` -> MaceModel.__call__)
                instance = self._infer(func, info, function, locals_)
                receiver_calls(instance, "__call__", node)
            elif isinstance(func.value, ast.Name) and (
                    func.value.id in _RNG_RECEIVERS
                    or func.value.id.endswith("rng")):
                add_site("RNG_SEEDED", node,
                         f"draw from threaded generator "
                         f"({func.value.id}.{func.attr})")
            elif isinstance(func.value, ast.Attribute) and (
                    func.value.attr in _RNG_RECEIVERS
                    or func.value.attr.endswith("rng")):
                add_site("RNG_SEEDED", node,
                         f"draw from threaded generator "
                         f"(.{func.value.attr}.{func.attr})")

    def _seeded_rng_call(self, resolved: str, dotted: str) -> bool:
        """``self.rng.normal(...)``-style draws on a named generator."""
        if resolved in _SEEDED_CONSTRUCTORS:
            return False  # already reported by the reference scan
        parts = dotted.split(".")
        return len(parts) >= 2 and (parts[-2] in _RNG_RECEIVERS
                                    or parts[-2].endswith("rng"))

    def _external_site(self, resolved: str, node: ast.AST,
                       add_site) -> None:
        if resolved in _TIME_REFS:
            add_site("TIME", node, f"reads {resolved}")
        elif resolved == "os.environ" or resolved.startswith("os.environ.") \
                or resolved == "os.getenv":
            add_site("ENV", node, f"reads {resolved}")
        elif resolved.startswith("numpy.random."):
            if resolved in _SEEDED_CONSTRUCTORS:
                add_site("RNG_SEEDED", node, f"constructs {resolved}")
                return
            tail = resolved.split(".", 2)[2]
            if "." not in tail and tail not in _ALLOWED_NP_RANDOM:
                add_site("RNG_GLOBAL", node,
                         f"np.random.{tail} draws from the hidden "
                         "global stream")
        elif resolved.startswith("random."):
            tail = resolved.split(".", 1)[1]
            if "." not in tail and tail not in _ALLOWED_STD_RANDOM:
                add_site("RNG_GLOBAL", node,
                         f"random.{tail} draws from the hidden "
                         "global stream")
        elif resolved in _SEEDED_CONSTRUCTORS:
            add_site("RNG_SEEDED", node, f"constructs {resolved}")

    def _order_insensitive_context(self, node: ast.AST,
                                   info: ModuleInfo) -> bool:
        """True when the nearest enclosing call folds order away."""
        current = info.parents.get(id(node))
        hops = 0
        while current is not None and hops < 8:
            if isinstance(current, ast.Call):
                if isinstance(current.func, ast.Name) \
                        and current.func.id in _ORDER_INSENSITIVE:
                    return True
                return False
            if isinstance(current, ast.stmt):
                return False
            current = info.parents.get(id(current))
            hops += 1
        return False

    def _listing_is_sorted(self, call: ast.Call, function: FunctionInfo,
                           info: ModuleInfo) -> bool:
        """Listing cleared by ``sorted(...)`` directly or via its name.

        Accepted: the call (or the comprehension containing it) is an
        argument of ``sorted``/another order-insensitive consumer, or
        the enclosing statement assigns a name that is later passed to
        ``sorted(name)`` in the same function.
        """
        if self._order_insensitive_context(call, info):
            return True
        # find the enclosing simple assignment, if any
        current: ast.AST = call
        stmt = None
        hops = 0
        while current is not None and hops < 12:
            if isinstance(current, ast.stmt):
                stmt = current
                break
            current = info.parents.get(id(current))
            hops += 1
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            return False
        target = stmt.targets[0].id
        for node in _walk_function(function.node):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in _ORDER_INSENSITIVE \
                    and node.args \
                    and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id == target:
                return True
        return False

    # -- phase 4: effect fixpoint -------------------------------------

    def fixpoint_effects(self) -> None:
        model = self.model
        effects: Dict[str, Set[Tuple[str, bool]]] = {}
        callers: Dict[str, List[str]] = {}
        for function in model.functions.values():
            effects[function.qname] = {
                (site.atom, site.audited) for site in function.sites}
            for callee, _ in function.calls:
                callers.setdefault(callee, []).append(function.qname)
        pending = sorted(effects)
        while pending:
            current = pending.pop(0)
            function = model.functions[current]
            merged = set(effects[current])
            for callee, _ in function.calls:
                merged.update(effects.get(callee, ()))
            if merged != effects[current]:
                effects[current] = merged
                for caller in callers.get(current, ()):
                    if caller not in pending:
                        pending.append(caller)
        model._effects = effects


def analyze_package(root: Optional[str | Path] = None,
                    package: Optional[str] = None) -> RepoModel:
    """Parse and analyze every module of a package directory.

    ``root`` defaults to the installed ``repro`` package.  Returns a
    :class:`RepoModel` with per-function calls, intrinsic effect sites,
    fixpoint effect signatures, and comment annotations; the purity and
    fork-safety passes consume it.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).parent
    root = Path(root)
    if package is None:
        package = root.name
    model = RepoModel(package=package, root=root)
    analyzer = _Analyzer(model)
    for path in sorted(root.rglob("*.py")):
        analyzer.register_module(path, path.read_text(encoding="utf-8"))
    analyzer.infer_types()
    analyzer.extract()
    analyzer.fixpoint_effects()
    return model

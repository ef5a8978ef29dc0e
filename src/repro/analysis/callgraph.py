"""Whole-program call graph over the ``repro`` package.

The determinism analyzer (:mod:`repro.analysis.purity`) needs to answer
"can this serialization sink transitively execute that wall-clock read?"
— a question about the *call graph*, not about any single module.  This
module builds that graph statically, in three passes:

1. **Index** — every module under the root is parsed once; its import
   table (``import time``, ``from repro.x import y as z``, relative
   forms), module-level functions, classes (methods, resolved base
   names, and instance-attribute types harvested from ``self.x =
   ClassName(...)`` assignments and annotated class fields) go into a
   per-module symbol table.
2. **Resolve** — every function body is walked and each call site is
   resolved to a dotted qualname: direct names through the import
   table, ``self.method()`` through the enclosing class and its known
   bases, and attribute calls through a small expression typer
   (parameter annotations, ``x = ClassName(...)`` locals, instance
   attribute types, and known return annotations), so
   ``RunLedger(path).append(record)`` resolves to
   ``repro.obs.runlog.RunLedger.append`` without executing anything.
   Calls into stdlib or builtins resolve to their external dotted names
   (``time.time``, ``builtins.id``) and become graph leaves.
3. **Dispatch** — name-based registries break static edges (the grid
   executor invokes cell functions via
   :func:`repro.runner.experiments.cell_function`), so module-level
   ``register("name", fn)`` calls are collected per module and
   declared dispatchers receive synthetic edges to every registered
   function (``@registered:<module>`` in the dispatch table).

Besides call sites, each function node records the local facts the
purity pass classifies as nondeterminism sources that are not calls:
iteration over set-typed expressions outside an order-insensitive
consumer, ``os.environ`` subscript reads, and true division landing in
``*_bytes``/``*_size``/``*_traffic`` bindings.

Nested functions and lambdas are inlined into their enclosing
function's node: their calls and facts accrue to the parent, which is
the sound over-approximation for taint purposes (the closure can run
whenever the parent does).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.errors import ReproError

#: Annotation heads that type a value as an unordered set.
_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)

#: Order-insensitive consumers: iterating a set *inside* these is fine
#: because the result does not depend on iteration order.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "sum", "min", "max", "len", "any", "all", "set", "frozenset"}
)

#: Consumers that materialize iteration order into an ordered value.
_ORDER_MATERIALIZING = frozenset({"list", "tuple"})

#: Binding-name suffixes that denote byte counts.
_BYTE_NAME_SUFFIXES = ("_bytes", "_size", "_traffic")


class CallGraphError(ReproError):
    """The call-graph builder was pointed at an unusable tree."""


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge out of a function body."""

    callee: str
    line: int


@dataclass(frozen=True)
class FunctionNode:
    """One defined function or method and everything it does."""

    qualname: str
    module: str
    rel_path: str
    line: int
    calls: Tuple[CallSite, ...]
    #: Lines iterating a set-typed expression into an ordered consumer.
    set_iterations: Tuple[int, ...] = ()
    #: Lines reading ``os.environ`` via subscript.
    env_reads: Tuple[int, ...] = ()
    #: Lines where true division lands in a byte-count binding.
    float_byte_divisions: Tuple[int, ...] = ()


class CallGraph:
    """The resolved whole-program graph: nodes plus registry edges."""

    def __init__(
        self,
        functions: Mapping[str, FunctionNode],
        registrations: Mapping[str, Tuple[str, ...]],
        module_count: int,
    ) -> None:
        self.functions: Dict[str, FunctionNode] = dict(functions)
        #: Module qualname -> qualnames registered via ``register(...)``.
        self.registrations: Dict[str, Tuple[str, ...]] = dict(registrations)
        self.module_count = module_count

    def node(self, qualname: str) -> FunctionNode:
        try:
            return self.functions[qualname]
        except KeyError:
            raise CallGraphError(f"no function {qualname!r} in the call graph")

    def __contains__(self, qualname: object) -> bool:
        return qualname in self.functions

    def __len__(self) -> int:
        return len(self.functions)

    @property
    def edge_count(self) -> int:
        return sum(len(node.calls) for node in self.functions.values())

    def internal_callees(self, qualname: str) -> Tuple[CallSite, ...]:
        """Call sites whose callee is another defined function."""
        return tuple(
            site for site in self.node(qualname).calls if site.callee in self.functions
        )

    def callers_of(self, qualname: str) -> Tuple[str, ...]:
        """Defined functions with an edge to ``qualname``, sorted."""
        return tuple(
            sorted(
                caller
                for caller, node in self.functions.items()
                if any(site.callee == qualname for site in node.calls)
            )
        )


# ---------------------------------------------------------------------------
# Pass 1: per-module indexing
# ---------------------------------------------------------------------------

@dataclass
class _ClassIndex:
    qualname: str
    #: Base-class names resolved through the module scope (dotted).
    bases: Tuple[str, ...]
    #: Method name -> definition line.
    methods: Dict[str, int] = field(default_factory=dict)
    #: Attribute name -> dotted type name (``self.x = T(...)`` or ``x: T``).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class _ModuleIndex:
    name: str
    rel_path: str
    tree: ast.Module
    #: Local alias -> dotted target (``z`` -> ``repro.runner.grid.ExperimentCell``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level function name -> definition node.
    functions: Dict[str, Union[ast.FunctionDef, ast.AsyncFunctionDef]] = field(
        default_factory=dict
    )
    classes: Dict[str, _ClassIndex] = field(default_factory=dict)
    #: Qualnames registered through module-level ``register("k", fn)``.
    registrations: List[str] = field(default_factory=list)

    def scope_resolve(self, name: str) -> Optional[str]:
        """Resolve a bare name in module scope to a dotted qualname."""
        if name in self.imports:
            return self.imports[name]
        if name in self.classes:
            return f"{self.name}.{name}"
        if name in self.functions:
            return f"{self.name}.{name}"
        return None


def _module_name(rel: Path, package: str) -> str:
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package] + parts) if parts else package


def _relative_base(module: str, is_package: bool, level: int) -> str:
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    # level 1 is the containing package itself; each extra level climbs.
    climb = level - 1
    if climb >= len(parts):
        return parts[0] if parts else module
    return ".".join(parts[: len(parts) - climb])


def _index_imports(index: _ModuleIndex, is_package: bool) -> None:
    for stmt in ast.walk(index.tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname is not None:
                    index.imports[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``.
                    root = alias.name.split(".", 1)[0]
                    index.imports[root] = root
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None:
                base = _relative_base(index.name, is_package, stmt.level or 1)
            elif stmt.level:
                prefix = _relative_base(index.name, is_package, stmt.level)
                base = f"{prefix}.{stmt.module}"
            else:
                base = stmt.module
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound = alias.asname if alias.asname is not None else alias.name
                index.imports[bound] = f"{base}.{alias.name}"


def float_byte_names(
    node: Union[ast.Assign, ast.AnnAssign, ast.AugAssign],
) -> List[str]:
    """The byte-count names (``*_bytes``, ``*_size``, ``*_traffic``) that
    ``node`` assigns a true division to — the ``float-byte-arith`` lint
    rule and the purity analysis's float-byte source both read this."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
        divides = True
    else:
        divides = node.value is not None and any(
            isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
            for sub in ast.walk(node.value)
        )
    if not divides:
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return [name for name in names if name.endswith(_BYTE_NAME_SUFFIXES)]


#: Annotation wrappers to unwrap when looking for the instance type.
_WRAPPER_ANNOTATIONS = frozenset(
    {"Optional", "Union", "Final", "ClassVar", "Annotated"}
)


def _annotation_classes(node: Optional[ast.expr]) -> List[str]:
    """Dotted names this annotation can denote an *instance* of.

    Unwraps ``Optional``/``Union``/``X | None``/quoted forms; does NOT
    descend into container type parameters (``Dict[str, Link]`` yields
    ``["Dict"]``, not ``Link`` — the value is a dict, not a link).
    """
    if node is None:
        return []
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                return []
            return _annotation_classes(parsed.body)
        return []  # e.g. the ``None`` half of ``X | None``
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = _dotted_name(node)
        return [dotted] if dotted is not None else []
    if isinstance(node, ast.Subscript):
        head = _dotted_name(node.value)
        if head is None:
            return []
        if head.split(".")[-1] in _WRAPPER_ANNOTATIONS:
            return _annotation_classes(node.slice)
        return [head]
    if isinstance(node, ast.Tuple):
        out: List[str] = []
        for elt in node.elts:
            out.extend(_annotation_classes(elt))
        return out
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_classes(node.left) + _annotation_classes(node.right)
    return []


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute/name chain to its dotted string, else None."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _scope_dotted(index: _ModuleIndex, dotted: str) -> str:
    """Resolve a dotted name's head through the module scope."""
    head, _, rest = dotted.partition(".")
    base = index.scope_resolve(head)
    if base is None:
        return dotted
    return f"{base}.{rest}" if rest else base


def _index_class(index: _ModuleIndex, node: ast.ClassDef) -> None:
    info = _ClassIndex(
        qualname=f"{index.name}.{node.name}",
        bases=tuple(
            _scope_dotted(index, dotted)
            for dotted in (_dotted_name(base) for base in node.bases)
            if dotted is not None
        ),
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = stmt.lineno
            for inner in ast.walk(stmt):
                if (
                    isinstance(inner, ast.Assign)
                    and len(inner.targets) == 1
                    and isinstance(inner.targets[0], ast.Attribute)
                    and isinstance(inner.targets[0].value, ast.Name)
                    and inner.targets[0].value.id == "self"
                    and isinstance(inner.value, ast.Call)
                ):
                    typed = _dotted_name(inner.value.func)
                    if typed is not None:
                        info.attr_types.setdefault(
                            inner.targets[0].attr, _scope_dotted(index, typed)
                        )
                elif (
                    isinstance(inner, ast.AnnAssign)
                    and isinstance(inner.target, ast.Attribute)
                    and isinstance(inner.target.value, ast.Name)
                    and inner.target.value.id == "self"
                ):
                    heads = _annotation_classes(inner.annotation)
                    if heads:
                        info.attr_types.setdefault(
                            inner.target.attr, _scope_dotted(index, heads[0])
                        )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            # Class-level annotated fields (dataclasses included).
            heads = _annotation_classes(stmt.annotation)
            if heads:
                info.attr_types.setdefault(
                    stmt.target.id, _scope_dotted(index, heads[0])
                )
    index.classes[node.name] = info


def _index_registrations(index: _ModuleIndex) -> None:
    for stmt in index.tree.body:
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
            and stmt.value.func.id == "register"
            and len(stmt.value.args) == 2
            and isinstance(stmt.value.args[1], ast.Name)
        ):
            resolved = index.scope_resolve(stmt.value.args[1].id)
            if resolved is not None:
                index.registrations.append(resolved)


def _index_module(path: Path, root: Path, package: str) -> _ModuleIndex:
    rel = path.relative_to(root)
    name = _module_name(rel, package)
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as error:
        raise CallGraphError(f"cannot parse {rel.as_posix()}: {error}")
    index = _ModuleIndex(name=name, rel_path=rel.as_posix(), tree=tree)
    _index_imports(index, is_package=rel.name == "__init__.py")
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            _index_class(index, stmt)
    _index_registrations(index)
    return index


# ---------------------------------------------------------------------------
# Pass 2: per-function call resolution
# ---------------------------------------------------------------------------

class _FunctionWalker(ast.NodeVisitor):
    """Resolves one function body's calls and nondeterminism facts."""

    def __init__(
        self,
        module: _ModuleIndex,
        classes: Mapping[str, _ClassIndex],
        return_types: Mapping[str, str],
        class_name: Optional[str],
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    ) -> None:
        self.module = module
        self.classes = classes
        self.return_types = return_types
        self.class_name = class_name
        self.calls: List[CallSite] = []
        self.set_iterations: List[int] = []
        self.env_reads: List[int] = []
        self.float_byte_divisions: List[int] = []
        #: Local name -> dotted type name.
        self.var_types: Dict[str, str] = {}
        #: Local names bound to set-typed values.
        self.set_vars: Set[str] = set()
        self._bind_parameters(func)

    # -- typing helpers ------------------------------------------------

    def _bind_parameters(
        self, func: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        args = func.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            heads = _annotation_classes(arg.annotation)
            for head in heads:
                if head.split(".")[-1] in _SET_ANNOTATIONS:
                    self.set_vars.add(arg.arg)
                resolved = self._resolve_type_name(head)
                if resolved is not None:
                    self.var_types.setdefault(arg.arg, resolved)
                    break

    def _resolve_type_name(self, dotted: str) -> Optional[str]:
        """A dotted annotation head to a known class qualname."""
        head, _, rest = dotted.partition(".")
        base = self.module.scope_resolve(head)
        candidate = (base + ("." + rest if rest else "")) if base else dotted
        if candidate in self.classes:
            return candidate
        return None

    def _class_attr_type(self, class_qual: str, attr: str) -> Optional[str]:
        info = self._class_info(class_qual)
        seen: Set[str] = set()
        while info is not None and info.qualname not in seen:
            seen.add(info.qualname)
            if attr in info.attr_types:
                return info.attr_types[attr]
            info = self._first_known_base(info)
        return None

    def _class_info(self, qualname: str) -> Optional[_ClassIndex]:
        return self.classes.get(qualname)

    def _first_known_base(self, info: _ClassIndex) -> Optional[_ClassIndex]:
        # Bases are stored pre-resolved in their defining module's scope.
        for base in info.bases:
            if base in self.classes:
                return self.classes[base]
        return None

    def _method_owner(self, class_qual: str, method: str) -> Optional[str]:
        """The class (self or ancestor) defining ``method``."""
        info = self._class_info(class_qual)
        seen: Set[str] = set()
        while info is not None and info.qualname not in seen:
            seen.add(info.qualname)
            if method in info.methods or method in info.attr_types:
                return info.qualname
            info = self._first_known_base(info)
        return None

    def _type_of(self, node: ast.expr) -> Optional[str]:
        """Dotted type name of an expression, where statically knowable."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.class_name is not None:
                return f"{self.module.name}.{self.class_name}"
            return self.var_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base_type = self._type_of(node.value)
            if base_type is not None and base_type in self.classes:
                return self._class_attr_type(base_type, node.attr)
            return None
        if isinstance(node, ast.Call):
            callee = self._resolve_callee(node.func)
            if callee is None:
                return None
            if callee in self.classes:
                return callee
            # Known function: use its return annotation when it names
            # a known class.  Stored values are pre-resolved; bare
            # non-class names ("Dict", "int") type nothing.
            returns = self.return_types.get(callee)
            if returns is not None:
                if returns in self.classes or "." in returns:
                    return returns
                return None
            # External constructor-ish dotted name (``random.Random``).
            tail = callee.split(".")[-1]
            if tail[:1].isupper():
                return callee
            return None
        return None

    # -- call resolution -----------------------------------------------

    def _resolve_callee(self, func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            resolved = self.module.scope_resolve(func.id)
            if resolved is not None:
                return resolved
            if hasattr(builtins, func.id):
                return f"builtins.{func.id}"
            return None
        if isinstance(func, ast.Attribute):
            value_type = self._type_of(func.value)
            if value_type is not None:
                if value_type in self.classes:
                    owner = self._method_owner(value_type, func.attr)
                    return f"{owner or value_type}.{func.attr}"
                return f"{value_type}.{func.attr}"
            dotted = _dotted_name(func)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                base = self.module.scope_resolve(head)
                if base is not None:
                    full = f"{base}.{rest}" if rest else base
                    # ``Class.method`` through an imported class name.
                    if base in self.classes and rest:
                        owner = self._method_owner(base, rest.split(".")[0])
                        if owner is not None:
                            return f"{owner}.{rest}"
                    return full
            return None
        return None

    def visit_Call(self, node: ast.Call) -> None:
        # ``(a if cond else b)()`` can invoke either branch; both edges.
        candidates = (
            [node.func.body, node.func.orelse]
            if isinstance(node.func, ast.IfExp)
            else [node.func]
        )
        for candidate in candidates:
            callee = self._resolve_callee(candidate)
            if callee is not None:
                self.calls.append(CallSite(callee=callee, line=node.lineno))
        # ``list(setexpr)`` / ``tuple(setexpr)`` / ``sep.join(setexpr)``
        # materialize set order into an ordered value.
        materializes = (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_MATERIALIZING
        ) or (isinstance(node.func, ast.Attribute) and node.func.attr == "join")
        if materializes and node.args and self._is_set_expr(node.args[0]):
            self.set_iterations.append(node.lineno)
        # A comprehension fed straight into an order-insensitive reducer
        # (``sum(x for x in some_set)``) cannot leak iteration order.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_INSENSITIVE
        ):
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    for generator in arg.generators:
                        generator._order_insensitive = True  # type: ignore[attr-defined]
        self.generic_visit(node)

    # -- set-typed expression detection --------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _note_set_binding(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        if value is None or not isinstance(target, ast.Name):
            return
        if self._is_set_expr(value):
            self.set_vars.add(target.id)
        elif target.id in self.set_vars:
            self.set_vars.discard(target.id)

    def _note_type_binding(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        if value is None or not isinstance(target, ast.Name):
            return
        typed = self._type_of(value)
        if typed is not None:
            self.var_types[target.id] = typed

    def _check_iteration(self, iter_expr: ast.expr) -> None:
        if self._is_set_expr(iter_expr):
            self.set_iterations.append(iter_expr.lineno)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if not getattr(node, "_order_insensitive", False):
            self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- assignments: type/set tracking + float-byte fact ---------------

    def _check_float_byte(
        self, node: Union[ast.Assign, ast.AnnAssign, ast.AugAssign]
    ) -> None:
        if float_byte_names(node):
            self.float_byte_divisions.append(node.lineno)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_set_binding(target, node.value)
            self._note_type_binding(target, node.value)
        self._check_float_byte(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        heads = _annotation_classes(node.annotation)
        if isinstance(node.target, ast.Name):
            if any(h.split(".")[-1] in _SET_ANNOTATIONS for h in heads):
                self.set_vars.add(node.target.id)
            for head in heads:
                resolved = self._resolve_type_name(head)
                if resolved is not None:
                    self.var_types[node.target.id] = resolved
                    break
            self._note_set_binding(node.target, node.value)
            self._note_type_binding(node.target, node.value)
        self._check_float_byte(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_float_byte(node)
        self.generic_visit(node)

    # -- env reads ------------------------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        dotted = _dotted_name(node.value)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            base = self.module.scope_resolve(head) or head
            full = f"{base}.{rest}" if rest else base
            if full == "os.environ" and isinstance(node.ctx, ast.Load):
                self.env_reads.append(node.lineno)
        self.generic_visit(node)


def _collect_return_types(modules: Sequence[_ModuleIndex]) -> Dict[str, str]:
    returns: Dict[str, str] = {}
    for module in modules:
        for name, func in module.functions.items():
            heads = _annotation_classes(func.returns)
            if heads:
                returns[f"{module.name}.{name}"] = _scope_dotted(module, heads[0])
        for cls_name, info in module.classes.items():
            cls_node = _find_class_node(module.tree, cls_name)
            if cls_node is None:
                continue
            for stmt in cls_node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    heads = _annotation_classes(stmt.returns)
                    if heads:
                        returns[f"{info.qualname}.{stmt.name}"] = _scope_dotted(
                            module, heads[0]
                        )
    return returns


def _find_class_node(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == name:
            return stmt
    return None


def _walk_function(
    module: _ModuleIndex,
    classes: Mapping[str, _ClassIndex],
    return_types: Mapping[str, str],
    class_name: Optional[str],
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> FunctionNode:
    walker = _FunctionWalker(module, classes, return_types, class_name, func)
    for stmt in func.body:
        walker.visit(stmt)
    owner = f"{module.name}.{class_name}." if class_name else f"{module.name}."
    return FunctionNode(
        qualname=f"{owner}{func.name}",
        module=module.name,
        rel_path=module.rel_path,
        line=func.lineno,
        calls=tuple(walker.calls),
        set_iterations=tuple(walker.set_iterations),
        env_reads=tuple(walker.env_reads),
        float_byte_divisions=tuple(walker.float_byte_divisions),
    )


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def build_callgraph(
    root: Optional[Union[str, Path]] = None,
    package: str = "repro",
    dispatch: Optional[Mapping[str, Sequence[str]]] = None,
) -> CallGraph:
    """Build the whole-program call graph under ``root``.

    ``dispatch`` adds synthetic edges for name-based registries: each
    key is a dispatcher qualname, each value a list of callee qualnames
    or ``@registered:<module>`` tokens expanding to that module's
    collected ``register(...)`` calls.
    """
    anchor = Path(root) if root is not None else default_root()
    if not anchor.is_dir():
        raise CallGraphError(f"call-graph root {anchor} is not a directory")
    modules = [
        _index_module(path, anchor, package)
        for path in sorted(anchor.rglob("*.py"))
    ]
    classes: Dict[str, _ClassIndex] = {}
    for module in modules:
        for info in module.classes.values():
            classes[info.qualname] = info
    return_types = _collect_return_types(modules)

    functions: Dict[str, FunctionNode] = {}
    registrations: Dict[str, Tuple[str, ...]] = {}
    for module in modules:
        if module.registrations:
            registrations[module.name] = tuple(module.registrations)
        for func in module.functions.values():
            node = _walk_function(module, classes, return_types, None, func)
            functions[node.qualname] = node
        for cls_name in module.classes:
            cls_node = _find_class_node(module.tree, cls_name)
            if cls_node is None:
                continue
            for stmt in cls_node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    node = _walk_function(
                        module, classes, return_types, cls_name, stmt
                    )
                    functions[node.qualname] = node

    for dispatcher, targets in (dispatch or {}).items():
        if dispatcher not in functions:
            continue
        extra: List[CallSite] = []
        for target in targets:
            if target.startswith("@registered:"):
                module_name = target.split(":", 1)[1]
                extra.extend(
                    CallSite(callee=qualname, line=0)
                    for qualname in registrations.get(module_name, ())
                )
            else:
                extra.append(CallSite(callee=target, line=0))
        node = functions[dispatcher]
        functions[dispatcher] = FunctionNode(
            qualname=node.qualname,
            module=node.module,
            rel_path=node.rel_path,
            line=node.line,
            calls=node.calls + tuple(extra),
            set_iterations=node.set_iterations,
            env_reads=node.env_reads,
            float_byte_divisions=node.float_byte_divisions,
        )

    return CallGraph(functions, registrations, module_count=len(modules))

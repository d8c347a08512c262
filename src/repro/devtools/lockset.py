"""Static lockset race analyzer: guarded-by inference over threaded classes.

:mod:`repro.devtools.locktrace` observes the lock schedules a test run
happens to execute; this module is its static complement, in the style
of Eraser (Savage et al. 1997) and RacerD (Blackshear et al. 2018).  It
parses each module's AST, builds a per-class call graph and field-access
map, and infers for every ``self._*`` field the set of locks held on
each read and write path — tracking ``with self._lock:`` scopes,
``Condition`` monitors, helper methods only ever called while a lock is
held, and methods handed to spawned threads.  A field whose writes are
consistently guarded but that is read bare somewhere is a race on every
schedule that interleaves there — no unlucky timing required, which is
exactly the class of bug runtime tooling only catches by luck.

==========  ============================================================
rule        meaning
==========  ============================================================
``DT701``   inconsistent lockset: a field written under a lock is read
            without that lock held
``DT702``   bare write to a guarded field (guard annotated, or inferred
            from the field's other writes)
``DT703``   unannotated mutable field shared between a spawned thread
            and the class's public surface with no lock at all (includes
            mutable state passed in a ``Thread(args=...)`` tuple)
``DT704``   lock-scope leak: ``.acquire()`` with an early return/raise
            before ``.release()`` — use ``with`` or ``try/finally``
==========  ============================================================

Declaring intent
----------------
Two machine-checked annotations make the locking discipline explicit:

- a trailing ``# guarded-by: _lock`` comment on the line where a field
  is initialised declares its guard; every later read/write must hold
  ``self._lock`` (``# guarded-by: none`` declares a field deliberately
  unguarded — a monotonic flag, a single-writer counter — and exempts
  it);
- the :func:`guarded_by` decorator on a helper method declares the
  caller contract "invoked only while these locks are held"; the body
  is analyzed with them in the lockset (``ViewerSession._apply_delta``
  is the in-tree example).

The line-scoped ``# lint: disable=DT701`` pragma from
:mod:`repro.devtools.lint` silences a single finding.

Baseline
--------
Grandfathered findings live in the committed ``lint_baseline.json``
shared by the deep analyzers, keyed by ``path:rule:Class.field`` —
line-number independent, so unrelated edits do not churn it.  Every
entry carries a written justification.

Part of ``repro lint`` / ``make lint``, whose driver reads and parses
each file once and hands it to :func:`check`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.devtools.lint import Finding, SourceFile, deep_files, unsuppressed

__all__ = [
    "LOCKSET_RULES",
    "guarded_by",
    "analyze_source",
    "analyze_paths",
    "check",
]

LOCKSET_RULES: dict[str, str] = {
    "DT701": "field written under a lock but read without it",
    "DT702": "bare write to a guarded field",
    "DT703": "unannotated shared mutable field on a threaded class",
    "DT704": "lock acquired but not released on every path",
}

_LOCK_CTORS = {"threading.Lock", "threading.RLock", "threading.Condition"}
_THREAD_CTOR = "threading.Thread"
#: method calls that mutate the receiver: ``self._items.append(x)`` is a
#: write to ``_items`` for lockset purposes
_MUTATOR_METHODS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "move_to_end", "pop", "popitem", "popleft", "remove",
    "setdefault", "sort", "update",
}
_MUTABLE_CTOR_NAMES = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter",
}
_GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*|none)")
_INIT_METHODS = {"__init__", "__post_init__", "__new__"}


def guarded_by(*locks: str):
    """Declare that callers invoke this method only while holding the
    named lock attribute(s) (e.g. ``@guarded_by("_lock")``).

    At runtime this is a no-op marker (the names are recorded on
    ``__guarded_by__``); the static analyzer reads the decorator and
    checks the body with those locks in the held set — and checks every
    internal call site actually holds them.
    """
    if not locks or not all(isinstance(name, str) for name in locks):
        raise TypeError("guarded_by takes one or more lock attribute names")

    def mark(fn):
        fn.__guarded_by__ = tuple(locks)
        return fn

    return mark


# -- per-method simulation ----------------------------------------------------


@dataclass
class _Access:
    """One read or write of ``self.<field>``, with the *relative*
    lockset (locks acquired inside the method, on top of its entry
    set)."""

    field: str
    line: int
    write: bool
    locks: frozenset[str]
    method: str


@dataclass
class _MethodInfo:
    name: str
    accesses: list[_Access]
    #: (callee name, relative lockset at the call site, line)
    calls: list[tuple[str, frozenset[str], int]]
    decorated_locks: tuple[str, ...]
    is_public: bool
    is_property: bool


class _MethodSim:
    """Walk one method body tracking the set of class locks held."""

    def __init__(self, cls: "_ClassScan", method_name: str, func):
        self.cls = cls
        self.name = method_name
        self.func = func
        args = func.args.posonlyargs + func.args.args
        self.self_name = args[0].arg if args else "self"
        self.accesses: list[_Access] = []
        self.calls: list[tuple[str, frozenset[str], int]] = []

    def run(self) -> None:
        self._block(self.func.body, frozenset())

    # -- statement walking ----------------------------------------------------

    def _block(self, stmts, held: frozenset[str]) -> None:
        manual: set[str] = set()
        for i, stmt in enumerate(stmts):
            now = held | frozenset(manual)
            lock = self._lock_op(stmt, "acquire")
            if lock is not None:
                self._check_scope_leak(stmts, i, lock, stmt)
                manual.add(lock)
                continue
            lock = self._lock_op(stmt, "release")
            if lock is not None:
                manual.discard(lock)
                continue
            self._stmt(stmt, now)

    def _stmt(self, stmt, held: frozenset[str]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                lname = self._lock_name(item.context_expr)
                if lname is not None:
                    inner = inner | {lname}
                else:
                    self._exprs(item.context_expr, held)
            self._block(stmt.body, inner)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a closure runs later, under whatever locks its eventual
            # caller holds — analyzed as its own entry point
            self.cls.add_nested(f"{self.name}.<locals>.{stmt.name}", stmt)
        elif isinstance(stmt, ast.ClassDef):
            pass  # nested classes are out of scope
        elif isinstance(stmt, ast.If):
            self._exprs(stmt.test, held)
            self._block(stmt.body, held)
            self._block(stmt.orelse, held)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exprs(stmt.iter, held)
            self._exprs(stmt.target, held)
            self._block(stmt.body, held)
            self._block(stmt.orelse, held)
        elif isinstance(stmt, ast.While):
            self._exprs(stmt.test, held)
            self._block(stmt.body, held)
            self._block(stmt.orelse, held)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body, held)
            for handler in stmt.handlers:
                self._block(handler.body, held)
            self._block(stmt.orelse, held)
            self._block(stmt.finalbody, held)
        else:
            self._exprs(stmt, held)

    # -- expression scanning --------------------------------------------------

    def _exprs(self, node, held: frozenset[str]) -> None:
        """Record field accesses / call edges in an expression subtree,
        without descending into deferred bodies (lambdas, nested defs)."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return
        if isinstance(node, ast.Attribute) and self._is_self(node.value):
            self._self_attribute(node, held)
        elif isinstance(node, ast.Call):
            self._call(node, held)
        for child in ast.iter_child_nodes(node):
            self._exprs(child, held)

    def _is_self(self, node) -> bool:
        return isinstance(node, ast.Name) and node.id == self.self_name

    def _self_attribute(self, node: ast.Attribute, held) -> None:
        name = node.attr
        if name in self.cls.lock_fields:
            return  # the lock objects themselves are not shared data
        if name in self.cls.method_names:
            parent = self.cls.module.parents.get(node)
            if not (isinstance(parent, ast.Call) and parent.func is node):
                # a bound-method reference escaping as a callback: its
                # body must be safe with no caller-held locks
                self.cls.callbacks.add(name)
            return
        self.accesses.append(
            _Access(field=name, line=node.lineno, write=self._is_write(node),
                    locks=held, method=self.name)
        )

    def _is_write(self, node: ast.Attribute) -> bool:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return True
        parents = self.cls.module.parents
        parent = parents.get(node)
        if isinstance(parent, ast.Subscript) and parent.value is node:
            return isinstance(parent.ctx, (ast.Store, ast.Del))
        if (
            isinstance(parent, ast.Attribute)
            and parent.value is node
            and parent.attr in _MUTATOR_METHODS
        ):
            grand = parents.get(parent)
            return isinstance(grand, ast.Call) and grand.func is parent
        return False

    def _call(self, node: ast.Call, held) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and self._is_self(func.value)
            and func.attr in self.cls.method_names
        ):
            self.calls.append((func.attr, held, node.lineno))
        if self.cls.module.dotted(func) == _THREAD_CTOR:
            self.cls.threaded = True
            self._thread_ctor(node)

    def _thread_ctor(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg == "target":
                target = kw.value
                if (
                    isinstance(target, ast.Attribute)
                    and self._is_self(target.value)
                    and target.attr in self.cls.method_names
                ):
                    self.cls.thread_targets.add(target.attr)
            elif kw.arg == "args" and isinstance(kw.value, (ast.Tuple, ast.List)):
                for elt in kw.value.elts:
                    if (
                        isinstance(elt, ast.Attribute)
                        and self._is_self(elt.value)
                        and elt.attr not in self.cls.method_names
                        and elt.attr not in self.cls.lock_fields
                    ):
                        self.cls.escaped_fields.setdefault(elt.attr, elt.lineno)

    # -- manual acquire/release + DT704 ---------------------------------------

    def _lock_op(self, stmt, op: str) -> str | None:
        """The lock field name when ``stmt`` is ``self.<lock>.<op>()``."""
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            return None
        func = stmt.value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == op
            and isinstance(func.value, ast.Attribute)
            and self._is_self(func.value.value)
            and func.value.attr in self.cls.lock_fields
        ):
            return func.value.attr
        return None

    def _has_release(self, node, lock: str) -> bool:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "release"
                and isinstance(sub.func.value, ast.Attribute)
                and self._is_self(sub.func.value.value)
                and sub.func.value.attr == lock
            ):
                return True
        return False

    def _check_scope_leak(self, stmts, i: int, lock: str, acquire_stmt) -> None:
        for stmt in stmts[i + 1:]:
            if isinstance(stmt, ast.Try) and any(
                self._has_release(s, lock) for s in stmt.finalbody
            ):
                return
            if self._has_release(stmt, lock):
                return
            if any(
                isinstance(n, (ast.Return, ast.Raise, ast.Break, ast.Continue))
                for n in ast.walk(stmt)
            ):
                self.cls.report(
                    acquire_stmt.lineno, "DT704", self.name,
                    f"self.{lock}.acquire() can exit this scope without "
                    f"release (early return/raise before the release); use "
                    f"'with self.{lock}:' or release in a finally",
                )
                return
        self.cls.report(
            acquire_stmt.lineno, "DT704", self.name,
            f"self.{lock}.acquire() is never released in this scope; use "
            f"'with self.{lock}:' or release in a finally",
        )

    def _lock_name(self, expr) -> str | None:
        if (
            isinstance(expr, ast.Attribute)
            and self._is_self(expr.value)
            and expr.attr in self.cls.lock_fields
        ):
            return expr.attr
        return None


# -- per-class analysis -------------------------------------------------------


class _ClassScan:
    """Lockset analysis of one class: discovery, simulation, inference."""

    def __init__(self, module: "_ModuleScan", node: ast.ClassDef):
        self.module = module
        self.node = node
        self.findings: list[Finding] = []
        self.lock_fields: set[str] = set()
        self.method_names: set[str] = set()
        self.methods: dict[str, _MethodInfo] = {}
        self.thread_targets: set[str] = set()
        self.callbacks: set[str] = set()
        self.threaded = False
        #: field -> first line it was handed to a Thread(args=...) tuple
        self.escaped_fields: dict[str, int] = {}
        #: field -> declared guard ("none" = deliberately unguarded)
        self.annotations: dict[str, str] = {}
        #: field -> (decl line, initialised from a mutable container)
        self.declared: dict[str, tuple[int, bool]] = {}
        self._funcs: list[tuple[str, ast.AST]] = []
        self._pending_nested: list[tuple[str, ast.AST]] = []

    def report(self, line: int, rule: str, context: str, message: str) -> None:
        where = f"{self.node.name}.{context}"
        self.findings.append(Finding.keyed(
            self.module.path, line, rule, f"{where}: {message}", where))

    def add_nested(self, name: str, func) -> None:
        self._pending_nested.append((name, func))

    # -- discovery ------------------------------------------------------------

    def _discover(self) -> None:
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_static_or_classmethod(stmt):
                    continue
                self.method_names.add(stmt.name)
                self._funcs.append((stmt.name, stmt))
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self._declare(stmt.target.id, stmt.lineno,
                              self._mutable_value(stmt.value))
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._declare(target.id, stmt.lineno,
                                      self._mutable_value(stmt.value))
        # lock fields + instance attributes: scan every method body for
        # `self.X = threading.Lock()` assignments and `with self.X:` uses
        for _, func in self._funcs:
            args = func.args.posonlyargs + func.args.args
            self_name = args[0].arg if args else "self"
            for sub in ast.walk(func):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == self_name
                        ):
                            if (
                                isinstance(sub.value, ast.Call)
                                and self.module.dotted(sub.value.func)
                                in _LOCK_CTORS
                            ):
                                self.lock_fields.add(target.attr)
                            self._declare(target.attr, sub.lineno,
                                          self._mutable_value(sub.value))
                elif isinstance(sub, (ast.With, ast.AsyncWith)):
                    for item in sub.items:
                        ctx = item.context_expr
                        if (
                            isinstance(ctx, ast.Attribute)
                            and isinstance(ctx.value, ast.Name)
                            and ctx.value.id == self_name
                        ):
                            # anything used as `with self.X:` acts as a
                            # lock even if its constructor is opaque
                            self.lock_fields.add(ctx.attr)

    @staticmethod
    def _is_static_or_classmethod(func) -> bool:
        for deco in func.decorator_list:
            name = deco.id if isinstance(deco, ast.Name) else getattr(
                deco, "attr", None)
            if name in ("staticmethod", "classmethod"):
                return True
        return False

    def _declare(self, name: str, line: int, mutable: bool) -> None:
        guard = self.module.guard_comments.get(line)
        if guard is not None:
            self.annotations.setdefault(name, guard)
        prev = self.declared.get(name)
        if prev is None:
            self.declared[name] = (line, mutable)
        elif mutable and not prev[1]:
            self.declared[name] = (prev[0], True)

    def _mutable_value(self, value) -> bool:
        if value is None:
            return False
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            dotted = self.module.dotted(value.func)
            if dotted and dotted.split(".")[-1] in _MUTABLE_CTOR_NAMES:
                return True
            # dataclasses.field(default_factory=list)
            if dotted and dotted.split(".")[-1] == "field":
                for kw in value.keywords:
                    if kw.arg == "default_factory":
                        factory = self.module.dotted(kw.value)
                        if factory and factory.split(".")[-1] in \
                                _MUTABLE_CTOR_NAMES:
                            return True
        return False

    @staticmethod
    def _decorated_locks(func) -> tuple[str, ...]:
        for deco in func.decorator_list:
            if isinstance(deco, ast.Call):
                name = deco.func.id if isinstance(deco.func, ast.Name) \
                    else getattr(deco.func, "attr", None)
                if name == "guarded_by":
                    return tuple(
                        arg.value for arg in deco.args
                        if isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                    )
        return ()

    @staticmethod
    def _is_property(func) -> bool:
        for deco in func.decorator_list:
            if isinstance(deco, ast.Name) and deco.id == "property":
                return True
            if isinstance(deco, ast.Attribute) and deco.attr in (
                "setter", "getter", "deleter"
            ):
                return True
        return False

    # -- interprocedural entry locksets ---------------------------------------

    def _simulate(self) -> None:
        queue = list(self._funcs)
        while queue:
            name, func = queue.pop(0)
            sim = _MethodSim(self, name, func)
            sim.run()
            is_dunder = name.startswith("__") and name.endswith("__")
            self.methods[name] = _MethodInfo(
                name=name,
                accesses=sim.accesses,
                calls=sim.calls,
                decorated_locks=self._decorated_locks(func),
                is_public=not name.startswith("_") or is_dunder,
                is_property=self._is_property(func),
            )
            if self._pending_nested:
                for nested_name, nested in self._pending_nested:
                    self.method_names.add(nested_name)
                    queue.append((nested_name, nested))
                self._pending_nested = []

    def _entry_locksets(self) -> dict[str, frozenset[str]]:
        """Fixpoint over the internal call graph: a private helper's
        entry lockset is the intersection of what its callers hold."""
        entry: dict[str, frozenset[str] | None] = {}
        fixed: set[str] = set()
        for name, info in self.methods.items():
            if info.decorated_locks:
                entry[name] = frozenset(info.decorated_locks)
                fixed.add(name)
            elif (
                info.is_public
                or info.is_property
                or name in self.thread_targets
                or name in self.callbacks
                or "<locals>" in name
            ):
                entry[name] = frozenset()
                fixed.add(name)
            else:
                entry[name] = None
        # a private method nothing in the class calls is an external
        # entry point (another class or module drives it): entry = {}
        called = {
            callee for info in self.methods.values()
            for callee, _held, _line in info.calls
        }
        for name in self.methods:
            if entry[name] is None and name not in called:
                entry[name] = frozenset()
        changed = True
        while changed:
            changed = False
            for name, info in self.methods.items():
                if entry[name] is None or name in _INIT_METHODS:
                    continue  # init-time calls don't weaken a helper
                base = entry[name]
                for callee, rel_held, _ in info.calls:
                    if callee in fixed or callee not in entry:
                        continue
                    effective = base | rel_held
                    current = entry[callee]
                    new = effective if current is None \
                        else current & effective
                    if new != current:
                        entry[callee] = new
                        changed = True
        return {name: (held if held is not None else frozenset())
                for name, held in entry.items()}

    def _reachable(self, roots: set[str]) -> set[str]:
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            name = frontier.pop()
            info = self.methods.get(name)
            if info is None:
                continue
            for callee, _held, _line in info.calls:
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    # -- rules ----------------------------------------------------------------

    def run(self) -> list[Finding]:
        self._discover()
        self._simulate()
        entry = self._entry_locksets()

        init_reach = self._reachable(
            {m for m in self.methods if m in _INIT_METHODS}
        )
        noninit_roots = {
            m for m, info in self.methods.items()
            if m not in _INIT_METHODS and (
                info.is_public or info.is_property or info.decorated_locks
                or m in self.thread_targets or m in self.callbacks
                or "<locals>" in m
            )
        }
        noninit_reach = self._reachable(noninit_roots)
        exempt = set(_INIT_METHODS) | (init_reach - noninit_reach)

        thread_ctx = self._reachable(self.thread_targets | self.callbacks)
        external_ctx = self._reachable(
            {m for m, info in self.methods.items()
             if m not in _INIT_METHODS
             and (info.is_public or info.is_property)}
        )

        # the decorator is a caller contract: every internal call site of
        # a @guarded_by method must actually hold the declared locks
        for name, info in self.methods.items():
            if name in exempt:
                continue
            for callee, rel_held, line in info.calls:
                callee_info = self.methods.get(callee)
                if callee_info is None or not callee_info.decorated_locks:
                    continue
                missing = sorted(
                    set(callee_info.decorated_locks) - (entry[name] | rel_held)
                )
                if missing:
                    self.report(
                        line, "DT701", callee,
                        f"called from {name}() without self.{missing[0]} "
                        f"(declared @guarded_by({missing[0]!r}))",
                    )

        fields: dict[str, list[_Access]] = {}
        for name, info in self.methods.items():
            held0 = entry[name]
            for acc in info.accesses:
                if acc.method in exempt:
                    continue
                fields.setdefault(acc.field, []).append(
                    _Access(field=acc.field, line=acc.line, write=acc.write,
                            locks=held0 | acc.locks, method=acc.method)
                )
        for field_name, accesses in sorted(fields.items()):
            self._check_field(field_name, accesses, thread_ctx, external_ctx)
        self.findings.sort(key=lambda f: (f.line, f.rule))
        return self.findings

    def _check_field(self, name, accesses, thread_ctx, external_ctx) -> None:
        annotation = self.annotations.get(name)
        if annotation == "none":
            return
        writes = [a for a in accesses if a.write]
        reads = [a for a in accesses if not a.write]
        seen: set[tuple[str, int]] = set()

        def once(rule: str, line: int, message: str) -> None:
            if (rule, line) not in seen:
                seen.add((rule, line))
                self.report(line, rule, name, message)

        if annotation is not None:
            for a in writes:
                if annotation not in a.locks:
                    once("DT702", a.line,
                         f"written in {a.method}() without self."
                         f"{annotation} (declared '# guarded-by: "
                         f"{annotation}')")
            for a in reads:
                if annotation not in a.locks:
                    once("DT701", a.line,
                         f"read in {a.method}() without self.{annotation} "
                         f"(declared '# guarded-by: {annotation}')")
            return

        locked_writes = [a for a in writes if a.locks]
        if locked_writes:
            for a in writes:
                if not a.locks:
                    guards = sorted(set().union(
                        *(w.locks for w in locked_writes)))
                    once("DT702", a.line,
                         f"written in {a.method}() with no lock held, but "
                         f"other writes hold self.{'/self.'.join(guards)}")
            guard = frozenset.intersection(
                *(a.locks for a in locked_writes))
            if guard:
                label = sorted(guard)[0]
                for a in reads:
                    if not guard & a.locks:
                        once("DT701", a.line,
                             f"read in {a.method}() without self.{label}, "
                             f"which every write holds; take the lock or "
                             f"annotate the field")
            return

        # no locking evidence at all: shared-with-a-thread escape check
        if not self.threaded:
            return
        _, mutable = self.declared.get(name, (0, False))
        if not mutable:
            return
        touched_by_thread = any(a.method in thread_ctx for a in accesses)
        touched_outside = any(
            a.method in external_ctx and a.method not in
            (thread_ctx - external_ctx) for a in accesses
        )
        escaped = name in self.escaped_fields
        if (touched_by_thread and touched_outside) or escaped:
            line = (self.escaped_fields.get(name)
                    or min(a.line for a in accesses))
            how = ("passed to a spawned thread via Thread(args=...)"
                   if escaped else
                   "shared between a spawned thread and the public surface")
            once("DT703", line,
                 f"mutable field {how} with no lock ever held; guard it "
                 f"and annotate with '# guarded-by: <lock>' (or declare "
                 f"'# guarded-by: none' with a comment saying why)")


# -- per-module scan --------------------------------------------------------


class _ModuleScan:
    """One file: guard comments, then every class."""

    def __init__(self, src: SourceFile):
        self.tree = src.tree
        self.path = src.path
        self.parents = src.parents
        self.dotted = src.dotted
        self.guard_comments: dict[int, str] = {}
        for line, text in src.comments.items():
            m = _GUARD_RE.search(text)
            if m:
                self.guard_comments[line] = m.group(1)

    def run(self) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(_ClassScan(self, node).run())
        return findings


# -- public API ---------------------------------------------------------------


def check(files: list[SourceFile]) -> list[Finding]:
    """The DT7xx pass over every file, pragmas not yet applied."""
    return [f for src in files for f in _ModuleScan(src).run()]


def analyze_source(source: str, path: str = "<string>") -> list[Finding]:
    """Analyze one source string; returns findings not pragma-disabled."""
    files = [SourceFile(source, path)]
    return unsuppressed(check(files), files)


def analyze_paths(paths) -> list[Finding]:
    """Analyze every ``.py`` under ``paths``.

    ``tests``, ``benchmarks``, ``examples`` and fixture corpora are
    pruned from tree traversal; explicitly named files are always
    analyzed.
    """
    files = deep_files(paths)
    return unsuppressed(check(files), files)

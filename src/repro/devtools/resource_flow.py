"""Static resource-lifecycle analyzer: leak/double-close/use-after-close.

:mod:`repro.devtools.lockset` proves lock discipline statically; this
module does the same for *resource* discipline, in the style of Infer's
Pulse.  It parses each module's AST and simulates every function along
its exception edges, tracking acquire/release pairs for the resource
kinds this codebase actually owns: sockets and
``FramedConnection``/``TcpConnection`` endpoints, ``threading.Thread``
start/join, ``SharedMemory`` create/close/unlink, file handles,
``Channel`` pairs, daemon-like objects (brokers, relays, pools,
servers), session handles returned by ``broker.join(...)``, and cache
pins.  A call that can raise while an acquired resource is live — with
no enclosing ``try`` that releases it in a handler or ``finally`` — is
a leak on that exception edge, which is exactly how long-lived daemon
tiers bleed fds and threads under churn.

**Ownership transfer counts as release**: passing a resource to another
call (``ViewerSession(conn)``, ``Thread(args=(q,))``), storing it in a
container or ``self`` field, or returning/yielding it hands the
lifecycle to the new owner, so broker→pump and ingest→player handoffs
do not false-positive.

==========  ============================================================
rule        meaning
==========  ============================================================
``DT801``   leak on an exception path: an acquired resource is not
            released (or handed off) on a raising edge — includes
            constructor leaks (``__init__`` acquires, then raises) and
            overwriting an owned field without releasing the old value
``DT802``   double close/unlink: the same verb applied twice to the
            same resource on one path
``DT803``   use after close: a non-lifecycle method called on a
            resource after ``close()``/``unlink()``/``leave()``
``DT804``   close-graph completeness: a daemon-like class (one with a
            ``close``/``stop``/``shutdown``/``kill`` method) acquires a
            resource into a field that nothing reachable from its
            shutdown surface ever releases
==========  ============================================================

Declaring intent
----------------
Two machine-checked comment annotations teach the analyzer ownership:

- ``# owns: _peers`` (in a class body) declares a field that holds
  resources even though the analyzer cannot see the acquire — its
  release is then checked by DT804;
- ``# borrows: _slot_of`` declares a field that only *references*
  resources owned elsewhere, exempting it from DT804.

Both accept a comma-separated name list and optional ``--`` prose.  The
line-scoped ``# lint: disable=DT801`` pragma from
:mod:`repro.devtools.lint` silences a single finding.

Baseline
--------
Grandfathered findings live in the committed ``lint_baseline.json``
shared by the deep analyzers, keyed by ``path:rule:Class.context``
(line-independent); every entry carries a written justification.

Part of ``repro lint`` / ``make lint``, whose driver reads and parses
each file once and hands it to :func:`check`.  The static pass is
complemented at runtime by :mod:`repro.devtools.locktrace`'s
``ThreadLeakGuard``, which catches the leaks that only manifest on real
schedules.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.devtools.lint import Finding, SourceFile, deep_files, unsuppressed

__all__ = [
    "RESOURCE_RULES",
    "ResourceKind",
    "analyze_source",
    "analyze_paths",
    "check",
]

RESOURCE_RULES: dict[str, str] = {
    "DT801": "resource leaked on an exception path",
    "DT802": "double close/unlink of the same resource",
    "DT803": "use of a resource after it was closed",
    "DT804": "daemon-like class whose close() graph never releases an "
             "acquired field",
}

#: method names that make a class "daemon-like" (it owns a shutdown
#: surface) and that, called on ``self`` from an except handler, count
#: as cleaning up every field resource
CLOSE_VERBS = frozenset({"close", "stop", "shutdown", "kill"})

#: verbs that release *some* kind of resource — used when scanning a
#: class's close graph for field releases (the field's own kind narrows
#: this in the per-method simulation)
_ANY_RELEASE_VERBS = frozenset(
    {"close", "stop", "shutdown", "kill", "leave", "join", "unlink",
     "terminate", "unpin"}
)

#: verbs that mark a name closed for the DT802/DT803 passes
_MARKING_VERBS = frozenset({"close", "unlink", "leave"})

#: lifecycle/query methods that are fine on an already-closed resource
_SAFE_AFTER_CLOSE = frozenset(
    {"close", "unlink", "join", "is_alive", "leave", "kill", "stop",
     "shutdown", "terminate", "unpin", "release", "is_closed", "closed",
     "empty", "qsize", "done", "cancel"}
)

#: calls (canonical dotted names) that cannot meaningfully raise —
#: they never interrupt a live resource's path to its release
_SAFE_CALLS = frozenset(
    {"len", "isinstance", "issubclass", "repr", "str", "int", "float",
     "bool", "bytes", "min", "max", "abs", "round", "sorted", "list",
     "dict", "set", "tuple", "frozenset", "enumerate", "zip", "range",
     "id", "hash", "format", "print", "getattr", "hasattr", "setattr",
     "type", "sum", "any", "all", "map", "filter", "callable", "vars",
     "divmod", "super", "time.monotonic", "time.perf_counter",
     "time.sleep", "threading.Event", "threading.Lock",
     "threading.RLock", "threading.Condition"}
)

#: method names (by attribute) that cannot meaningfully raise: container
#: mutators, synchronization primitives, and the repo's counter surfaces
_SAFE_METHODS = frozenset(
    {"append", "appendleft", "add", "extend", "insert", "clear",
     "discard", "update", "setdefault", "copy", "get", "items", "keys",
     "values", "set", "is_set", "wait", "notify", "notify_all",
     "acquire", "release", "locked", "is_alive", "note_sent",
     "note_received", "note_retransmit", "unlog_received",
     "_count_reject"}
)

_OWNS_RE = re.compile(
    r"\b(owns|borrows):\s*"
    r"([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)"
)

_INIT_LIKE = frozenset({"__init__", "__post_init__", "start"})


# -- resource kinds -----------------------------------------------------------


@dataclass(frozen=True)
class ResourceKind:
    """One class of tracked resource: its release verbs and whether an
    unreleased instance on a raising edge is a real leak (in-process
    queue pairs are GC-collectable, OS handles are not)."""

    name: str
    release_verbs: frozenset[str]
    leaks_on_exception: bool = True


KIND_FILE = ResourceKind("file handle", frozenset({"close"}))
KIND_SOCKET = ResourceKind("socket", frozenset({"close", "detach"}))
KIND_THREAD = ResourceKind("thread", frozenset({"join"}))
KIND_PROCESS = ResourceKind(
    "process", frozenset({"join", "terminate", "kill", "close"})
)
KIND_SHM = ResourceKind(
    "shared-memory segment", frozenset({"close", "unlink"})
)
KIND_CHANNEL = ResourceKind(
    "channel", frozenset({"close"}), leaks_on_exception=False
)
KIND_CONNECTION = ResourceKind(
    "in-process connection", frozenset({"close"}), leaks_on_exception=False
)
KIND_TCP = ResourceKind("tcp connection", frozenset({"close"}))
KIND_DAEMON = ResourceKind(
    "daemon object", frozenset({"close", "stop", "shutdown", "kill"})
)
KIND_HANDLE = ResourceKind(
    "session handle", frozenset({"leave", "close", "kill"})
)
#: kind assigned to ``# owns:`` fields whose acquire is invisible
KIND_OWNED = ResourceKind("declared-owned resource", _ANY_RELEASE_VERBS)

#: exact canonical dotted names -> kind
_CTOR_FULL = {
    "open": KIND_FILE,
    "socket.socket": KIND_SOCKET,
    "socket.create_connection": KIND_SOCKET,
}
#: last dotted component -> kind (constructors imported under any path)
_CTOR_LAST = {
    "Thread": KIND_THREAD,
    "Process": KIND_PROCESS,
    "SharedMemory": KIND_SHM,
    "Channel": KIND_CHANNEL,
    "FaultyChannel": KIND_CHANNEL,
    "FramedConnection": KIND_CONNECTION,
    "FaultyConnection": KIND_CONNECTION,
    "TcpConnection": KIND_TCP,
    "connect_daemon": KIND_TCP,
    "create_connection": KIND_SOCKET,
    "SessionBroker": KIND_DAEMON,
    "FrameRelay": KIND_DAEMON,
    "EncodePool": KIND_DAEMON,
    "DisplayDaemon": KIND_DAEMON,
    "TcpDaemonServer": KIND_DAEMON,
    "TimelinePrefetcher": KIND_DAEMON,
    "ViewerHandle": KIND_HANDLE,
}
#: constructors whose ``daemon=True`` keyword waives tracking entirely:
#: a daemonic thread/process dies with the parent by design
_DAEMONIZABLE = (KIND_THREAD, KIND_PROCESS)


# -- small AST helpers --------------------------------------------------------


def _attr_path(node: ast.AST) -> list[str] | None:
    """``self._listener.close`` -> ``["self", "_listener", "close"]``;
    None when the chain is not rooted at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def _direct_names(expr: ast.AST, out: set[str]) -> None:
    """Dotted paths whose *value itself* flows somewhere: ``x``,
    ``self.daemon``, elements of tuples/lists, either arm of an
    ``IfExp``.  ``seg._name`` yields ``seg._name`` (not ``seg``) — a
    derived attribute is not the resource."""
    if isinstance(expr, (ast.Name, ast.Attribute)):
        path = _attr_path(expr)
        if path is not None:
            out.add(".".join(path))
    elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for elt in expr.elts:
            _direct_names(elt, out)
    elif isinstance(expr, ast.Starred):
        _direct_names(expr.value, out)
    elif isinstance(expr, ast.Dict):
        for value in expr.values:
            _direct_names(value, out)
    elif isinstance(expr, ast.IfExp):
        _direct_names(expr.body, out)
        _direct_names(expr.orelse, out)


def _walk_no_defs(node: ast.AST):
    """Pre-order (source-order) walk that does not descend into
    deferred bodies; source order matters for alias tracking."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
            continue
        yield from _walk_no_defs(child)


# -- per-module scan ----------------------------------------------------------


class _ModuleScan:
    """One file: ownership comments, module-local daemon
    classes, return-kind summaries, then the per-scope passes."""

    def __init__(self, src: SourceFile):
        self.tree = src.tree
        self.path = src.path
        self.dotted = src.dotted
        #: line -> ("owns"|"borrows", [field names]) from comments
        self.ownership: dict[int, tuple[str, list[str]]] = {}
        for line, text in src.comments.items():
            m = _OWNS_RE.search(text)
            if m:
                self.ownership[line] = (
                    m.group(1), [n.strip() for n in m.group(2).split(",")])
        #: module-local classes with a shutdown surface act like the
        #: curated daemon constructors (e.g. faultrun._ResilientViewer)
        self.local_daemons: set[str] = {
            node.name
            for node in self.tree.body
            if isinstance(node, ast.ClassDef) and any(
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name in CLOSE_VERBS
                for stmt in node.body
            )
        }
        #: module function name -> kind it returns (transfer-by-return)
        self.returns: dict[str, ResourceKind] = {}
        self.findings: list[Finding] = []

    # -- acquire-expression classification ------------------------------------

    def acquire_kind(self, expr: ast.AST) -> ResourceKind | None:
        """The resource kind acquired by ``expr``, or None."""
        if not isinstance(expr, ast.Call):
            return None
        dotted = self.dotted(expr.func)
        kind: ResourceKind | None = None
        if dotted is not None:
            last = dotted.split(".")[-1]
            kind = _CTOR_FULL.get(dotted) or _CTOR_LAST.get(last)
            if kind is None and last in self.local_daemons:
                kind = KIND_DAEMON
            if kind is None:
                kind = self.returns.get(last) if last == dotted else None
        if kind is None and isinstance(expr.func, ast.Attribute):
            attr = expr.func.attr
            if (
                attr == "join"
                and expr.keywords
                and not isinstance(expr.func.value, ast.Constant)
            ):
                # broker.join(name, fault_plan=..., ...) returns a
                # session handle; str.join / Thread.join never take
                # keyword arguments
                kind = KIND_HANDLE
            elif attr == "accept":
                kind = KIND_SOCKET
        if kind in _DAEMONIZABLE and any(
            kw.arg == "daemon"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in expr.keywords
        ):
            return None
        return kind

    def safe_call(self, call: ast.Call) -> bool:
        dotted = self.dotted(call.func)
        if dotted is not None and (
            dotted in _SAFE_CALLS or dotted.split(".")[-1] in _SAFE_CALLS
        ):
            return True
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _SAFE_METHODS
        )

    def may_raise(self, stmt: ast.AST) -> int | None:
        """First line in ``stmt`` that can raise, or None."""
        for node in _walk_no_defs(stmt):
            if isinstance(node, (ast.Raise, ast.Assert)):
                return node.lineno
            if isinstance(node, ast.Call) and not self.safe_call(node):
                return node.lineno
        return None

    # -- driving --------------------------------------------------------------

    def report(self, line: int, rule: str, context: str,
               message: str) -> None:
        self.findings.append(Finding.keyed(
            self.path, line, rule, f"{context}: {message}", context))

    def run(self) -> list[Finding]:
        funcs = [n for n in self.tree.body
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        classes = [n for n in self.tree.body
                   if isinstance(n, ast.ClassDef)]
        # pass A: summaries (return kinds first, so `conn =
        # connect_daemon(...)`-style acquires resolve in pass B)
        summaries = [_summarize_function(self, None, f) for f in funcs]
        for summary in summaries:
            if summary.returns_kind is not None:
                self.returns[summary.name] = summary.returns_kind
        class_scans = [_ClassScan(self, node) for node in classes]
        # pass B: per-scope simulation + class-level rules
        for f in funcs:
            _FlowSim(self, None, f, f.name).run()
            _ClosePass(self, f, f.name).run()
        for scan in class_scans:
            scan.check()
        self.findings.sort(key=lambda f: (f.line, f.rule))
        return self.findings


# -- pass A: per-function summary ---------------------------------------------


@dataclass
class _FuncSummary:
    name: str
    #: fields assigned an acquire expression: field -> (kind, line)
    field_acquires: dict[str, tuple[ResourceKind, int]] = field(
        default_factory=dict)
    #: fields whose resources this method releases: field -> first line
    released_fields: dict[str, int] = field(default_factory=dict)
    #: self-method call targets
    self_calls: set[str] = field(default_factory=set)
    returns_kind: ResourceKind | None = None
    pin_line: int | None = None
    has_unpin: bool = False


def _summarize_function(module: _ModuleScan, cls_name: str | None,
                        func,
                        class_returns: dict[str, ResourceKind] | None = None,
                        ) -> _FuncSummary:
    """Linear scan: field acquires, alias-aware field releases, call
    edges, pin/unpin use, and the kind of a returned local."""
    out = _FuncSummary(name=func.name)
    args = func.args.posonlyargs + func.args.args
    self_name = args[0].arg if (cls_name is not None and args) else None
    local_kinds: dict[str, ResourceKind] = {}
    #: local name -> field it aliases (x = self.F, for x in self.F, ...)
    alias: dict[str, str] = {}
    #: locals whose ownership moved into a self field; returning one of
    #: these hands the caller a borrow, not the resource itself
    stored_to_field: set[str] = set()

    def acquire_kind(value: ast.AST) -> ResourceKind | None:
        kind = module.acquire_kind(value)
        if kind is None and class_returns and isinstance(value, ast.Call):
            path = _attr_path(value.func)
            if (path is not None and self_name is not None
                    and len(path) == 2 and path[0] == self_name):
                kind = class_returns.get(path[1])
        return kind

    def field_of(path: list[str]) -> str | None:
        """The field a dotted path is rooted in, via self or an alias."""
        if self_name is not None and len(path) >= 2 and path[0] == self_name:
            return path[1]
        return alias.get(path[0])

    def alias_source(value: ast.AST) -> str | None:
        """The field ``value`` reads: ``self.F``, ``list(self.F)``,
        ``self.F.values()/items()/keys()``, or an existing alias."""
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Attribute) and value.func.attr in (
                "values", "items", "keys"
            ):
                return alias_source(value.func.value)
            if (
                isinstance(value.func, ast.Name)
                and value.func.id in ("list", "tuple", "sorted", "reversed")
                and value.args
            ):
                return alias_source(value.args[0])
            return None
        path = _attr_path(value)
        return field_of(path) if path else None

    for node in _walk_no_defs(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            value = node.value
            kind = acquire_kind(value) if value is not None else None
            src = alias_source(value) if value is not None else None
            for target in targets:
                if isinstance(target, ast.Name):
                    if kind is not None:
                        local_kinds[target.id] = kind
                        alias.pop(target.id, None)
                    elif src is not None:
                        alias[target.id] = src
                elif isinstance(target, ast.Attribute):
                    path = _attr_path(target)
                    if (
                        path is not None
                        and self_name is not None
                        and len(path) == 2
                        and path[0] == self_name
                    ):
                        stored = kind
                        if stored is None and isinstance(value, ast.Name):
                            stored = local_kinds.get(value.id)
                        if stored is not None:
                            out.field_acquires.setdefault(
                                path[1], (stored, node.lineno))
                        if isinstance(value, ast.Name):
                            stored_to_field.add(value.id)
                elif isinstance(target, ast.Subscript):
                    path = _attr_path(target.value)
                    f = field_of(path) if path else None
                    if f is not None:
                        stored = kind
                        if stored is None and isinstance(value, ast.Name):
                            stored = local_kinds.get(value.id)
                        if stored is not None:
                            out.field_acquires.setdefault(
                                f, (stored, node.lineno))
                elif isinstance(target, (ast.Tuple, ast.List)):
                    if isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Attribute
                    ) and value.func.attr == "pair":
                        base = module.dotted(value.func.value)
                        pair_kind = _CTOR_LAST.get(
                            base.split(".")[-1]) if base else None
                        if pair_kind is not None:
                            for elt in target.elts:
                                if isinstance(elt, ast.Name):
                                    local_kinds[elt.id] = pair_kind
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            src = alias_source(node.iter)
            if src is not None:
                names = [node.target] if isinstance(node.target, ast.Name) \
                    else list(getattr(node.target, "elts", []))
                for elt in names:
                    if isinstance(elt, ast.Name):
                        alias[elt.id] = src
        elif isinstance(node, ast.Call):
            path = _attr_path(node.func)
            if path is not None:
                verb = path[-1]
                if verb in ("pin", "get_pinned") and out.pin_line is None:
                    out.pin_line = node.lineno
                if verb == "unpin":
                    out.has_unpin = True
                if (
                    self_name is not None
                    and len(path) == 2
                    and path[0] == self_name
                ):
                    out.self_calls.add(verb)
                f = field_of(path[:-1]) if len(path) >= 2 else None
                if f is not None and verb in _ANY_RELEASE_VERBS:
                    prev = out.released_fields.get(f)
                    if prev is None or node.lineno < prev:
                        out.released_fields[f] = node.lineno
            # a container-append of a kind-tracked local owns the
            # resource into that field: self._all_slots.append(slot)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "add", "appendleft")
            ):
                recv = _attr_path(node.func.value)
                f = field_of(recv) if recv else None
                if f is not None:
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and \
                                arg.id in local_kinds:
                            out.field_acquires.setdefault(
                                f, (local_kinds[arg.id], node.lineno))
            # passing a field (or an alias of it) to a helper transfers
            # its contents: _teardown(self._viewers, ...)
            if not module.safe_call(node):
                handed: set[str] = set()
                for arg in node.args:
                    _direct_names(arg, handed)
                for kw in node.keywords:
                    _direct_names(kw.value, handed)
                for name in handed:
                    f = field_of(name.split("."))
                    if f is not None:
                        prev = out.released_fields.get(f)
                        if prev is None or node.lineno < prev:
                            out.released_fields[f] = node.lineno
        elif isinstance(node, ast.Return) and node.value is not None:
            kind = acquire_kind(node.value)
            if kind is None and isinstance(node.value, ast.Name):
                if node.value.id not in stored_to_field:
                    kind = local_kinds.get(node.value.id)
            if kind is not None:
                out.returns_kind = kind
    return out


# -- pass B: per-class rules --------------------------------------------------


class _ClassScan:
    """One class: summaries for every method, then DT801 simulation per
    method, the overwrite rule, the pin rule, and DT804."""

    def __init__(self, module: _ModuleScan, node: ast.ClassDef):
        self.module = module
        self.node = node
        self.methods: dict[str, ast.AST] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt
        self.summaries: dict[str, _FuncSummary] = {
            name: _summarize_function(module, node.name, f)
            for name, f in self.methods.items()
        }
        #: method -> kind returned, for self._helper() acquires
        self.returns: dict[str, ResourceKind] = {
            name: s.returns_kind
            for name, s in self.summaries.items()
            if s.returns_kind is not None
        }
        if self.returns:
            # second pass: methods that store the result of an acquiring
            # helper (slot = self._acquire_slot_locked(...)) own it too
            self.summaries = {
                name: _summarize_function(module, node.name, f, self.returns)
                for name, f in self.methods.items()
            }
        self.owned_annotated: set[str] = set()
        self.borrowed: set[str] = set()
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
        for line, (which, names) in module.ownership.items():
            if node.lineno <= line <= end:
                (self.owned_annotated if which == "owns"
                 else self.borrowed).update(
                    n[5:] if n.startswith("self.") else n for n in names)
        self.daemon_like = bool(CLOSE_VERBS & set(self.methods))

    # -- aggregate views ------------------------------------------------------

    def field_kind(self, name: str) -> ResourceKind | None:
        for s in self.summaries.values():
            if name in s.field_acquires:
                return s.field_acquires[name][0]
        return KIND_OWNED if name in self.owned_annotated else None

    def releases_field(self, method: str, name: str,
                       before: int | None = None) -> bool:
        s = self.summaries.get(method)
        if s is None or name not in s.released_fields:
            return False
        return before is None or s.released_fields[name] < before

    def _close_graph(self) -> set[str]:
        roots = {m for m in self.methods
                 if m in CLOSE_VERBS or m in ("__exit__", "__del__")}
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            name = frontier.pop()
            for callee in self.summaries[name].self_calls:
                if callee in self.methods and callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    # -- rules ----------------------------------------------------------------

    def check(self) -> None:
        cls = self.node.name
        for name, func in self.methods.items():
            _FlowSim(self.module, self, func, f"{cls}.{name}").run()
            _ClosePass(self.module, func, f"{cls}.{name}").run()
        self._check_overwrites()
        self._check_pins()
        if self.daemon_like:
            self._check_close_graph()

    def _check_overwrites(self) -> None:
        """DT801: reassigning an owned field without releasing the old
        value first (the reconnect-leak shape)."""
        cls = self.node.name
        for name, func in self.methods.items():
            if name in _INIT_LIKE:
                continue
            summary = self.summaries[name]
            local_kinds: dict[str, ResourceKind] = {}
            for node in _walk_no_defs(func):
                if not isinstance(node, ast.Assign):
                    continue
                kind = self.module.acquire_kind(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name) and kind is not None:
                        local_kinds[target.id] = kind
                        continue
                    if not isinstance(target, ast.Attribute):
                        continue
                    path = _attr_path(target)
                    if path is None or len(path) != 2:
                        continue
                    fname = path[1]
                    stored = kind
                    if stored is None and isinstance(node.value, ast.Name):
                        stored = local_kinds.get(node.value.id)
                    if stored is None or not stored.leaks_on_exception:
                        continue
                    owned = self.field_kind(fname)
                    if owned is None or fname in self.borrowed:
                        continue
                    if not self.releases_field(name, fname,
                                               before=node.lineno):
                        self.module.report(
                            node.lineno, "DT801", f"{cls}.{name}.{fname}",
                            f"self.{fname} ({owned.name}) is overwritten "
                            f"without releasing the previous value; close "
                            f"the old one before rebinding the field",
                        )

    def _check_pins(self) -> None:
        """DT801: a class that pins cache entries but never unpins
        (skipped for the class that *provides* pin/unpin)."""
        if {"pin", "unpin"} <= set(self.methods):
            return
        pin_lines = [s.pin_line for s in self.summaries.values()
                     if s.pin_line is not None]
        if not pin_lines:
            return
        if any(s.has_unpin for s in self.summaries.values()):
            return
        self.module.report(
            min(pin_lines), "DT801", f"{self.node.name}.pin",
            "cache entries are pinned here but no method of this class "
            "ever unpins; pins leak refcounts until the cache dies",
        )

    def _check_close_graph(self) -> None:
        """DT804: every leaky field acquire must be released by a
        method reachable from the shutdown surface."""
        cls = self.node.name
        owned: dict[str, tuple[ResourceKind, int]] = {}
        for s in self.summaries.values():
            for fname, (kind, line) in s.field_acquires.items():
                if kind.leaks_on_exception:
                    owned.setdefault(fname, (kind, line))
        for fname in self.owned_annotated:
            owned.setdefault(fname, (KIND_OWNED, self.node.lineno))
        graph = self._close_graph()
        for fname, (kind, line) in sorted(owned.items(),
                                          key=lambda kv: kv[1][1]):
            if fname in self.borrowed:
                continue
            if any(self.releases_field(m, fname) for m in graph):
                continue
            self.module.report(
                line, "DT804", f"{cls}.{fname}",
                f"self.{fname} ({kind.name}) is acquired here but "
                f"nothing reachable from "
                f"{'/'.join(sorted(CLOSE_VERBS & set(self.methods)))}() "
                f"releases it; release it on shutdown, or annotate the "
                f"field '# borrows: {fname}' if ownership lives elsewhere",
            )


# -- pass B: DT801 exception-edge simulation ----------------------------------


@dataclass
class _Res:
    """One live tracked resource in a function simulation."""

    name: str          # "fh" or "self._listener"
    kind: ResourceKind
    line: int          # acquire line
    is_field: bool = False


class _FlowSim:
    """Walk one function in source order, tracking live resources and
    the stack of enclosing ``try`` statements that could save them."""

    def __init__(self, module: _ModuleScan, cls: _ClassScan | None,
                 func, qualname: str):
        self.module = module
        self.cls = cls
        self.func = func
        self.qualname = qualname
        args = func.args.posonlyargs + func.args.args
        self.self_name = args[0].arg if (cls is not None and args) else None
        self.tracked: dict[str, _Res] = {}
        self.try_stack: list[ast.Try] = []
        self.reported: set[str] = set()

    def run(self) -> None:
        self._block(self.func.body)
        for res in list(self.tracked.values()):
            if res.kind.leaks_on_exception and not res.is_field:
                self._leak(res, f"acquired here is never released or "
                                f"handed off in this scope")

    # -- reporting ------------------------------------------------------------

    def _leak(self, res: _Res, why: str) -> None:
        if res.name in self.reported:
            return
        self.reported.add(res.name)
        self.tracked.pop(res.name, None)
        var = res.name.split(".")[-1]
        self.module.report(
            res.line, "DT801", f"{self.qualname}.{var}",
            f"{res.name} ({res.kind.name}) {why}; release it in a "
            f"finally or hand ownership off first",
        )

    # -- acquire / release / transfer matching --------------------------------

    def _acquire_kind(self, expr: ast.AST) -> ResourceKind | None:
        kind = self.module.acquire_kind(expr)
        if kind is not None:
            return kind
        # self._helper() whose summary says it returns a resource
        if (
            self.cls is not None
            and isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id == self.self_name
        ):
            return self.cls.returns.get(expr.func.attr)
        return None

    def _resolves(self, node: ast.AST, res: _Res) -> bool:
        """Does ``node``'s subtree release or take ownership of res?"""
        root = res.name.split(".")
        for sub in _walk_no_defs(node):
            if isinstance(sub, ast.Call):
                path = _attr_path(sub.func)
                if (
                    path is not None
                    and len(path) > len(root)
                    and path[:len(root)] == root
                    and path[-1] in res.kind.release_verbs
                ):
                    return True
                # a shutdown verb on self tears the whole object down,
                # releasing every field it owns
                if (
                    res.is_field
                    and path is not None
                    and len(path) == 2
                    and path[0] == self.self_name
                    and (path[1] in CLOSE_VERBS
                         or (self.cls is not None
                             and self.cls.releases_field(
                                 path[1], res.name.split(".")[-1])))
                ):
                    return True
                handed: set[str] = set()
                for arg in sub.args:
                    _direct_names(arg, handed)
                for kw in sub.keywords:
                    _direct_names(kw.value, handed)
                if res.name in handed and not self.module.safe_call(sub):
                    return True
                # a container mutator cannot raise, but it does take
                # ownership of what it stores
                if (
                    res.name in handed
                    and path is not None
                    and path[-1] in ("append", "add", "appendleft", "insert")
                ):
                    return True
            elif isinstance(sub, ast.Assign):
                targets_store = any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in sub.targets
                )
                renamed = any(
                    isinstance(t, ast.Name) for t in sub.targets
                ) and isinstance(sub.value, ast.Name) \
                    and sub.value.id == res.name
                if targets_store or renamed:
                    handed = set()
                    _direct_names(sub.value, handed)
                    if res.name in handed:
                        return True
            elif isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(sub, "value", None)
                if value is not None:
                    handed = set()
                    _direct_names(value, handed)
                    if res.name in handed:
                        return True
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    handed = set()
                    _direct_names(item.context_expr, handed)
                    if res.name in handed:
                        return True
        return False

    def _protected(self, res: _Res) -> bool:
        """An enclosing try releases res in a handler or finally (for
        field resources, a handler calling a shutdown verb on self
        counts: it tears the whole object down)."""
        for t in self.try_stack:
            for stmt in t.finalbody:
                if self._resolves(stmt, res):
                    return True
            for handler in t.handlers:
                for stmt in handler.body:
                    if self._resolves(stmt, res):
                        return True
                if res.is_field and self._handler_shuts_down(handler, res):
                    return True
        return False

    def _handler_shuts_down(self, handler: ast.ExceptHandler,
                            res: _Res) -> bool:
        fname = res.name.split(".")[-1]
        for sub in _walk_no_defs(handler):
            if not (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == self.self_name):
                continue
            verb = sub.func.attr
            if verb in CLOSE_VERBS:
                return True
            if self.cls is not None and self.cls.releases_field(verb, fname):
                return True
        return False

    # -- statement walking ----------------------------------------------------

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # deferred bodies are their own scopes
        if isinstance(stmt, ast.Try):
            # handlers run when the body raised partway: resources the
            # body acquired may never have been bound, so handlers are
            # simulated against the state at try entry
            pre = dict(self.tracked)
            self.try_stack.append(stmt)
            self._block(stmt.body)
            self.try_stack.pop()
            post = self.tracked
            for handler in stmt.handlers:
                self.tracked = dict(pre)
                self._block(handler.body)
            self.tracked = post
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                handed: set[str] = set()
                _direct_names(item.context_expr, handed)
                for name in handed & set(self.tracked):
                    del self.tracked[name]  # context manager releases it
            self._block(stmt.body)
            return
        if isinstance(stmt, ast.If):
            # the branches are exclusive: each is simulated from the
            # pre-branch state, and a resource stays live afterwards if
            # either path left it live
            self._leaf_effects(stmt.test, hazard_node=stmt.test)
            pre = dict(self.tracked)
            self._block(stmt.body)
            post_body = self.tracked
            self.tracked = dict(pre)
            self._block(stmt.orelse)
            merged = dict(post_body)
            merged.update(self.tracked)
            self.tracked = {k: v for k, v in merged.items()
                            if k not in self.reported}
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._leaf_effects(stmt.iter, hazard_node=stmt.iter)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._leaf_effects(stmt.test, hazard_node=stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        # leaf statement: resolve, hazard-check, then acquire
        self._leaf_effects(stmt, hazard_node=stmt)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            for res in list(self.tracked.values()):
                if res.kind.leaks_on_exception and not self._protected(res):
                    self._leak(
                        res,
                        f"acquired here leaks on the early "
                        f"{'return' if isinstance(stmt, ast.Return) else 'raise'}"
                        f" at line {stmt.lineno}",
                    )
            return
        self._acquires(stmt)

    def _leaf_effects(self, node: ast.AST, hazard_node: ast.AST) -> None:
        for res in list(self.tracked.values()):
            if self._resolves(node, res):
                del self.tracked[res.name]
        hazard = self.module.may_raise(hazard_node)
        if hazard is None:
            return
        for res in list(self.tracked.values()):
            if res.kind.leaks_on_exception and not self._protected(res):
                self._leak(
                    res,
                    f"acquired here can leak: line {hazard} may raise "
                    f"before it is released",
                )

    def _acquires(self, stmt: ast.AST) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            value = stmt.value
            if value is None:
                return
            kind = self._acquire_kind(value)
            for target in targets:
                if isinstance(target, ast.Name):
                    self.tracked.pop(target.id, None)
                    if kind is not None and kind.leaks_on_exception:
                        self.tracked[target.id] = _Res(
                            target.id, kind, stmt.lineno)
                elif (
                    isinstance(target, ast.Attribute)
                    and kind is not None
                    and kind.leaks_on_exception
                    and self.self_name is not None
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self.self_name
                    and self.func.name in _INIT_LIKE
                ):
                    fname = f"{self.self_name}.{target.attr}"
                    if self.cls is None or \
                            target.attr not in self.cls.borrowed:
                        self.tracked[fname] = _Res(
                            fname, kind, stmt.lineno, is_field=True)
                elif isinstance(target, ast.Tuple):
                    # sock, peer = listener.accept() / a, b = X.pair()
                    if isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Attribute
                    ) and value.func.attr == "accept":
                        first = target.elts[0] if target.elts else None
                        if isinstance(first, ast.Name):
                            self.tracked[first.id] = _Res(
                                first.id, KIND_SOCKET, stmt.lineno)


# -- pass B: DT802 double-close / DT803 use-after-close -----------------------


class _ClosePass:
    """Track names marked closed on each straight-line path; branches
    are explored with a copy of the state, so only same-path double
    closes and uses fire."""

    def __init__(self, module: _ModuleScan, func, qualname: str):
        self.module = module
        self.func = func
        self.qualname = qualname
        self.reported: set[tuple[str, str]] = set()

    def run(self) -> None:
        self._block(self.func.body, {})

    def _block(self, stmts, state: dict[str, tuple[str, int]]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Try):
                self._block(stmt.body, state)
                for handler in stmt.handlers:
                    self._block(handler.body, dict(state))
                self._block(stmt.orelse, state)
                self._block(stmt.finalbody, state)
            elif isinstance(stmt, ast.If):
                self._scan(stmt.test, state)
                self._block(stmt.body, dict(state))
                self._block(stmt.orelse, dict(state))
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                head = stmt.iter if isinstance(
                    stmt, (ast.For, ast.AsyncFor)) else stmt.test
                self._scan(head, state)
                self._block(stmt.body, dict(state))
                self._block(stmt.orelse, dict(state))
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan(item.context_expr, state)
                self._block(stmt.body, state)
            else:
                self._scan(stmt, state)

    def _scan(self, node: ast.AST, state: dict[str, tuple[str, int]]) -> None:
        for sub in _walk_no_defs(node):
            if isinstance(sub, ast.Assign):
                # rebinding a name forgets its (and its attributes')
                # closed state
                for target in sub.targets:
                    path = _attr_path(target)
                    if path is not None:
                        prefix = ".".join(path)
                        for key in [k for k in state
                                    if k == prefix
                                    or k.startswith(prefix + ".")]:
                            del state[key]
            elif isinstance(sub, ast.Call):
                path = _attr_path(sub.func)
                if path is None or len(path) < 2:
                    continue
                base = ".".join(path[:-1])
                verb = path[-1]
                closed = state.get(base)
                if closed is not None:
                    verb0, line0 = closed
                    if verb == verb0 and verb in ("close", "unlink"):
                        self._report(
                            base, "DT802", sub.lineno,
                            f"{base}.{verb}() called again — already "
                            f"{verb}{'d' if verb.endswith('e') else 'ed'} "
                            f"at line {line0}",
                        )
                        continue
                    if verb not in _SAFE_AFTER_CLOSE:
                        self._report(
                            base, "DT803", sub.lineno,
                            f"{base}.{verb}() after {base}.{verb0}() at "
                            f"line {line0}",
                        )
                        continue
                if verb in _MARKING_VERBS and not sub.args:
                    state[base] = (verb, sub.lineno)

    def _report(self, base: str, rule: str, line: int, message: str) -> None:
        if (base, rule) in self.reported:
            return
        self.reported.add((base, rule))
        var = base.split(".")[-1]
        self.module.report(line, rule, f"{self.qualname}.{var}", message)


# -- public API ---------------------------------------------------------------


def check(files: list[SourceFile]) -> list[Finding]:
    """The DT8xx pass over every file, pragmas not yet applied."""
    return [f for src in files for f in _ModuleScan(src).run()]


def analyze_source(source: str, path: str = "<string>") -> list[Finding]:
    """Analyze one source string; returns findings not pragma-disabled."""
    files = [SourceFile(source, path)]
    return unsuppressed(check(files), files)


def analyze_paths(paths) -> list[Finding]:
    """Analyze every ``.py`` under ``paths`` (tests/benchmarks/examples
    pruned from tree traversal; explicit files always analyzed)."""
    files = deep_files(paths)
    return unsuppressed(check(files), files)

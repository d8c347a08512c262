"""The one lint driver: repo-specific rules plus the three deep analyzers.

The general-purpose linters this repo could run do not know its
conventions: that every swallowed exception must be counted (the
handshake-reject pattern from the TCP daemon), that polling loops must
sleep on an ``Event``/``Condition`` rather than busy-wait, that the
deterministic fault/codec paths must never read the wall clock or the
global RNG, and that control-message dispatch must stay in sync with
:data:`repro.daemon.protocol.CONTROL_TAGS`.  This module encodes those
conventions as checkable rules:

==========  ============================================================
rule        meaning
==========  ============================================================
``DT101``   bare/broad ``except`` that neither re-raises nor accounts
            for the error (counter increment / recorded reject)
``DT201``   ``time.sleep`` inside a ``while`` loop — a busy-wait poll;
            wait on a ``Condition``/``Event`` instead
``DT301``   ``threading.Thread(...)`` with no ``daemon=`` keyword and no
            ``.join(...)`` in the enclosing scope — a leak-by-default
``DT401``   wall-clock or global-RNG call (``time.time``, ``random.*``,
            ``np.random.*``) inside a deterministic fault/codec path
``DT501``   dispatch on a control ``tag`` literal that is not in the
            protocol registry (typo'd or unregistered opcode) — covers
            ``==``/``!=`` compares and ``in``/``not in`` membership
            tests over tag tuples
``DT502``   an ``if/elif`` chain over ``.tag`` — or over message kinds
            via ``isinstance(msg, FrameMessage)``-style tests — with no
            ``else``: the dispatch silently ignores unknown opcodes
``DT601``   mutable default argument (list/dict/set literal or call)
==========  ============================================================

It is also the only driver of the deep analyzers: the ``DT701``–``DT704``
lockset race analyzer (:mod:`repro.devtools.lockset`), the
``DT801``–``DT804`` resource-lifecycle analyzer
(:mod:`repro.devtools.resource_flow`) and the ``DT901``–``DT904``
protocol-conformance analyzer (:mod:`repro.devtools.protoflow`).  It
walks the paths once and reads, parses and tokenizes each file once
(:class:`SourceFile`); every pass is a plain function over those files,
and the ``# lint: disable=`` filter is applied here, in one place.  The
deep analyzers skip ``tests/``, ``benchmarks/`` and ``examples/`` in
tree walks; files named explicitly are always analyzed.  Their findings
carry a line-independent key, and grandfathered ones live in the one
committed ``lint_baseline.json`` (``--baseline`` / ``--no-baseline`` /
``--update-baseline``).  ``--json`` emits the findings machine-readably;
``--sarif FILE`` additionally writes them as SARIF 2.1.0 for
code-scanning upload; ``--emit-proto-dot FILE`` renders the protocol
spec automata to Graphviz and exits; ``--fail-on-stale`` turns stale
baseline entries into a failing exit.  See ``docs/devtools.md``.

Escape hatch: append ``# lint: disable=DT201`` (comma-separated ids, or
``all``) to the offending line.  Run with ``repro lint [paths...]`` or
``make lint``; exit status is non-zero when findings remain.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

__all__ = [
    "Baseline",
    "Finding",
    "RULES",
    "SourceFile",
    "lint_source",
    "lint_paths",
    "main",
]

RULES: dict[str, str] = {
    "DT101": "broad except without re-raise or accounting counter",
    "DT201": "time.sleep busy-wait inside a while loop",
    "DT301": "threading.Thread without daemon= or a join in scope",
    "DT401": "wall clock / global RNG in a deterministic path",
    "DT501": "control tag not in the protocol registry",
    "DT502": "tag/kind dispatch chain without an else fallback",
    "DT601": "mutable default argument",
}

#: baseline of grandfathered DT7xx-DT9xx findings, resolved against the
#: working directory (the repo root for ``make``/CI invocations)
DEFAULT_BASELINE = "lint_baseline.json"

#: modules whose behaviour must be a pure function of their inputs and
#: seeds: the fault injector (reproducible WAN traces), the codecs
#: (golden-bytes format stability), the relay tier (deterministic
#: failover/replay traces), and the encode pool (exact crash replay).
#: DT401 applies only here.
DETERMINISTIC_PATH_MARKERS = (
    "repro/compress/",
    "repro/net/faults.py",
    "repro/relay/",
    "repro/serve/encode_pool.py",
)

#: directories never linted (fixture corpus deliberately violates rules)
EXCLUDED_DIR_NAMES = {"lint_fixtures", "__pycache__", ".git", ".pytest_cache"}

#: directories the deep analyzers also prune from tree walks: test,
#: bench and example code spawns threads and opens resources
#: deliberately and is exercised under the *runtime* tracer instead
DEEP_SKIPPED_DIR_NAMES = frozenset(
    {"tests", "benchmarks", "examples"} | EXCLUDED_DIR_NAMES
)

_PRAGMA_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")

_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
}
_SEEDED_RNG_CTORS = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
}
_MUTABLE_CTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "collections.deque",
    "collections.defaultdict",
    "collections.OrderedDict",
    "collections.Counter",
}
#: call names that count as "accounting for" a swallowed exception
_ACCOUNTING_HINTS = ("count", "note", "record", "reject", "log")


def _control_tags() -> frozenset[str]:
    from repro.daemon.protocol import CONTROL_TAGS

    return CONTROL_TAGS


def baseline_path(path: str) -> str:
    """Stable path form for baseline keys: relative to the package root
    when possible, so absolute vs relative invocations agree."""
    posix = Path(path).as_posix()
    idx = posix.rfind("src/repro/")
    if idx >= 0:
        return posix[idx + len("src/"):]
    return posix


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.  Deep-analyzer
    findings also carry a line-independent baseline ``key``."""

    path: str
    line: int
    rule: str
    message: str
    key: str | None = None

    @classmethod
    def keyed(cls, path: str, line: int, rule: str, message: str,
              context: str) -> "Finding":
        """A baselinable finding keyed ``repro/<module>:RULE:<context>``."""
        return cls(path, line, rule, message,
                   key=f"{baseline_path(path)}:{rule}:{context}")

    def __str__(self) -> str:  # "path:line: DTxxx message" (editor-clickable)
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class Baseline:
    """Grandfathered findings: baseline key -> written justification."""

    entries: dict[str, str]

    COMMENT = (
        "Grandfathered DT7xx-DT9xx analyzer findings; every entry needs a "
        "written justification. Regenerate with "
        "`repro lint --update-baseline` (see docs/devtools.md)."
    )

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """The committed baseline; empty when the file is absent."""
        if not path.is_file():
            return cls(entries={})
        data = json.loads(path.read_text())
        return cls(entries=dict(data.get("grandfathered", {})))

    def filter(
        self, findings: list[Finding]
    ) -> tuple[list[Finding], list[str]]:
        """Split findings into (new, baselined-keys-that-matched)."""
        matched = [f.key for f in findings if f.key in self.entries]
        fresh = [f for f in findings if f.key not in self.entries]
        return fresh, matched

    def stale_keys(self, findings: list[Finding]) -> list[str]:
        """Baseline entries that no longer fire (candidates to drop)."""
        live = {f.key for f in findings}
        return sorted(k for k in self.entries if k not in live)

    @classmethod
    def write(cls, path: Path, findings: list[Finding],
              previous: "Baseline | None" = None) -> None:
        """Write the keyed findings, keeping surviving justifications."""
        prev = previous.entries if previous is not None else {}
        keyed = sorted((f for f in findings if f.key is not None),
                       key=lambda f: f.key)
        payload = {
            "comment": cls.COMMENT,
            "grandfathered": {
                f.key: prev.get(f.key,
                                "TODO: justify this entry or fix the bug")
                for f in keyed
            },
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")


# -- one read/parse/tokenize per file -----------------------------------------


def _comments(source: str) -> dict[int, str]:
    """line -> text of its comment token (docstrings excluded)."""
    comments: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except tokenize.TokenError:
        pass  # syntax trouble surfaces as the ast.parse error instead
    return comments


def _aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted name, from the file's imports."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:  # `import x.y` binds the root name `x`
                    root = a.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    # conventional alias even without an import statement in scope
    aliases.setdefault("np", "numpy")
    return aliases


class SourceFile:
    """One ``.py`` file as every pass sees it: read, ``ast.parse``d and
    tokenized once, with import aliases and pragmas resolved."""

    def __init__(self, source: str, path: str = "<string>"):
        self.path = path
        self.tree = ast.parse(source, filename=path)
        #: line -> comment text; the passes read their annotations here
        self.comments = _comments(source)
        self.aliases = _aliases(self.tree)
        self._disabled: dict[int, set[str]] = {}
        for line, text in self.comments.items():
            m = _PRAGMA_RE.search(text)
            if m:
                self._disabled[line] = {
                    part.strip().upper() for part in m.group(1).split(",")
                }

    @classmethod
    def read(cls, path: Path) -> "SourceFile":
        return cls(path.read_text(), str(path))

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return parents

    def dotted(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(parts))

    def suppresses(self, finding: Finding) -> bool:
        """Whether a ``# lint: disable=`` pragma covers ``finding``."""
        ids = self._disabled.get(finding.line, ())
        return finding.rule in ids or "ALL" in ids


def iter_python_files(paths):
    """``(path, deep)`` for every ``.py`` under ``paths``: ``deep`` says
    whether the DT7xx-DT9xx analyzers see it too.  Explicitly named files
    are always linted and analyzed."""
    for raw in paths:
        p = Path(raw)
        if p.is_file() and p.suffix == ".py":
            yield p, True
        elif p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                parts = set(sub.parts)
                if not EXCLUDED_DIR_NAMES & parts:
                    yield sub, not DEEP_SKIPPED_DIR_NAMES & parts


def deep_files(paths) -> list[SourceFile]:
    """The files under ``paths`` in the deep analyzers' scope."""
    return [SourceFile.read(p) for p, deep in iter_python_files(paths)
            if deep]


def unsuppressed(findings: list[Finding],
                 files: list[SourceFile]) -> list[Finding]:
    """The one ``# lint: disable=`` filter: ``findings`` minus the
    pragma-disabled ones, sorted by (path, line, rule).  The sort is
    stable, so each pass's own order breaks ties."""
    by_path = {src.path: src for src in files}
    kept = [f for f in findings if not by_path[f.path].suppresses(f)]
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


class _Analyzer:
    """One file's DT1xx-DT6xx pass over its shared parse."""

    def __init__(self, src: SourceFile, deterministic: bool | None = None):
        self.tree = src.tree
        self.path = src.path
        self.parents = src.parents
        self.dotted = src.dotted
        self.findings: list[Finding] = []
        if deterministic is None:
            deterministic = any(
                marker in Path(src.path).as_posix()
                for marker in DETERMINISTIC_PATH_MARKERS
            )
        self.deterministic = deterministic

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(path=self.path, line=node.lineno, rule=rule, message=message)
        )

    def _enclosing(self, node: ast.AST, kinds) -> ast.AST | None:
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, kinds):
                return cur
            cur = self.parents.get(cur)
        return None

    # -- rules ---------------------------------------------------------------

    def run(self) -> list[Finding]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ExceptHandler):
                self._check_broad_except(node)
            elif isinstance(node, ast.Call):
                self._check_sleep_poll(node)
                self._check_thread_join(node)
                if self.deterministic:
                    self._check_wallclock(node)
            elif isinstance(node, ast.Compare):
                self._check_tag_literal(node)
            elif isinstance(node, ast.If):
                self._check_tag_chain(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_mutable_defaults(node)
        return self.findings

    # DT101 ------------------------------------------------------------------

    def _is_broad_type(self, node: ast.AST | None) -> bool:
        if node is None:
            return True  # bare except
        if isinstance(node, ast.Tuple):
            return any(self._is_broad_type(el) for el in node.elts)
        return self.dotted(node) in ("Exception", "BaseException")

    def _accounts_for_error(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, (ast.Raise, ast.AugAssign)):
                return True
            if isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name and (
                    name == "append"
                    or any(hint in name.lower() for hint in _ACCOUNTING_HINTS)
                ):
                    return True
        return False

    def _check_broad_except(self, node: ast.ExceptHandler) -> None:
        if self._is_broad_type(node.type) and not self._accounts_for_error(node):
            what = "bare except" if node.type is None else "broad except"
            self._report(
                node,
                "DT101",
                f"{what} that neither re-raises nor accounts for the error; "
                "narrow the exception or count it "
                "(handshake-reject pattern: see TcpDaemonServer._handshake)",
            )

    # DT201 ------------------------------------------------------------------

    def _check_sleep_poll(self, node: ast.Call) -> None:
        if self.dotted(node.func) != "time.sleep":
            return
        cur = self.parents.get(node)
        while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            if isinstance(cur, ast.While):
                self._report(
                    node,
                    "DT201",
                    "time.sleep inside a while loop is a busy-wait poll; "
                    "wait on a threading.Event/Condition with a timeout",
                )
                return
            cur = self.parents.get(cur)

    # DT301 ------------------------------------------------------------------

    def _check_thread_join(self, node: ast.Call) -> None:
        if self.dotted(node.func) != "threading.Thread":
            return
        if any(kw.arg == "daemon" for kw in node.keywords):
            return
        scope = self._enclosing(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) or self.tree
        for other in ast.walk(scope):
            if (
                isinstance(other, ast.Call)
                and isinstance(other.func, ast.Attribute)
                and other.func.attr == "join"
            ):
                return
        self._report(
            node,
            "DT301",
            "thread spawned without daemon= and never joined in this "
            "scope; pass daemon=True or join it on shutdown",
        )

    # DT401 ------------------------------------------------------------------

    def _check_wallclock(self, node: ast.Call) -> None:
        name = self.dotted(node.func)
        if name is None:
            return
        offending = (
            name in _WALLCLOCK_CALLS
            or (
                (name.startswith("random.") or name.startswith("numpy.random."))
                and name not in _SEEDED_RNG_CTORS
            )
        )
        if offending:
            self._report(
                node,
                "DT401",
                f"{name} in a deterministic fault/codec path; use a seeded "
                "random.Random/np.random.default_rng or take time as input",
            )

    # DT501 ------------------------------------------------------------------

    @staticmethod
    def _tag_literals(node: ast.Compare) -> list[str]:
        """String literals a ``.tag`` test dispatches on: ``==``/``!=``
        compares plus ``in``/``not in`` membership over literal
        tuples/lists/sets."""
        if len(node.ops) != 1:
            return []
        op = node.ops[0]
        left, right = node.left, node.comparators[0]
        if isinstance(op, (ast.Eq, ast.NotEq)):
            for attr, lit in ((left, right), (right, left)):
                if (
                    isinstance(attr, ast.Attribute)
                    and attr.attr == "tag"
                    and isinstance(lit, ast.Constant)
                    and isinstance(lit.value, str)
                ):
                    return [lit.value]
            return []
        if (
            isinstance(op, (ast.In, ast.NotIn))
            and isinstance(left, ast.Attribute)
            and left.attr == "tag"
            and isinstance(right, (ast.Tuple, ast.List, ast.Set))
        ):
            return [
                el.value for el in right.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            ]
        return []

    def _check_tag_literal(self, node: ast.Compare) -> None:
        for tag in self._tag_literals(node):
            if tag not in _control_tags():
                self._report(
                    node,
                    "DT501",
                    f"control tag {tag!r} is not in "
                    "repro.daemon.protocol.CONTROL_TAGS; register it or "
                    "fix the typo",
                )

    # DT502 ------------------------------------------------------------------

    def _test_is_tag_dispatch(self, test: ast.AST) -> bool:
        """Positive dispatch tests only: equality and membership (a
        negated guard filters, it does not dispatch)."""
        return any(
            isinstance(n, ast.Compare)
            and len(n.ops) == 1
            and isinstance(n.ops[0], (ast.Eq, ast.In))
            and self._tag_literals(n)
            for n in ast.walk(test)
        )

    @staticmethod
    def _test_is_kind_dispatch(test: ast.AST) -> bool:
        """An ``isinstance(msg, FrameMessage)``-style test over the
        protocol message kinds (any ``*Message`` class name)."""
        for n in ast.walk(test):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance"
                and len(n.args) == 2
            ):
                kinds = n.args[1]
                elts = kinds.elts if isinstance(kinds, ast.Tuple) \
                    else [kinds]
                for el in elts:
                    base = el.attr if isinstance(el, ast.Attribute) \
                        else getattr(el, "id", "")
                    if base.endswith("Message"):
                        return True
        return False

    def _check_tag_chain(self, node: ast.If) -> None:
        parent = self.parents.get(node)
        if isinstance(parent, ast.If) and parent.orelse == [node]:
            return  # not the head of the chain
        tag_branches = 0
        kind_branches = 0
        cur: ast.AST = node
        while isinstance(cur, ast.If):
            if self._test_is_tag_dispatch(cur.test):
                tag_branches += 1
            elif self._test_is_kind_dispatch(cur.test):
                kind_branches += 1
            if len(cur.orelse) == 1 and isinstance(cur.orelse[0], ast.If):
                cur = cur.orelse[0]
            else:
                break
        if (
            (tag_branches >= 2 or kind_branches >= 2)
            and isinstance(cur, ast.If)
            and not cur.orelse
        ):
            what = "tag" if tag_branches >= 2 else "message-kind"
            self._report(
                node,
                "DT502",
                f"{what} dispatch chain has no else fallback: unknown "
                "opcodes are silently ignored; count or reject them "
                "explicitly",
            )

    # DT601 ------------------------------------------------------------------

    def _check_mutable_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and self.dotted(default.func) in _MUTABLE_CTORS
            )
            if mutable:
                self._report(
                    default,
                    "DT601",
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                )


def check(files: list[SourceFile],
          deterministic: bool | None = None) -> list[Finding]:
    """The DT1xx-DT6xx pass over every file, pragmas not yet applied."""
    return [f for src in files
            for f in _Analyzer(src, deterministic=deterministic).run()]


def lint_source(source: str, path: str = "<string>",
                deterministic: bool | None = None) -> list[Finding]:
    """Lint one source string; returns findings not pragma-disabled.

    ``deterministic`` forces DT401 on/off; ``None`` derives it from
    ``path`` against :data:`DETERMINISTIC_PATH_MARKERS`.
    """
    files = [SourceFile(source, path)]
    return unsuppressed(check(files, deterministic), files)


def lint_paths(paths: list[str | Path]) -> list[Finding]:
    """Lint every ``.py`` under ``paths`` (fixture corpora excluded)."""
    files = [SourceFile.read(p) for p, _ in iter_python_files(paths)]
    return unsuppressed(check(files), files)


def _sarif_report(findings, catalogue) -> dict:
    """The combined findings as a SARIF 2.1.0 log for code scanning."""
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "rules": [
                    {"id": rule_id,
                     "shortDescription": {"text": catalogue[rule_id]}}
                    for rule_id in sorted(catalogue)
                ],
            }},
            "results": [
                {
                    "ruleId": f.rule,
                    "level": "warning",
                    "message": {"text": f.message},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": Path(f.path).as_posix(),
                            },
                            "region": {"startLine": f.line},
                        },
                    }],
                }
                for f in findings
            ],
        }],
    }


def main(argv: list[str] | None = None) -> int:
    # imported lazily: the analyzers import this module for
    # Finding/SourceFile
    from repro.devtools import lockset, protoflow, resource_flow

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repo-specific concurrency/protocol lint pass, plus "
                    "the DT7xx static lockset race analyzer, the DT8xx "
                    "resource-lifecycle analyzer, and the DT9xx "
                    "protocol-conformance analyzer",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to lint (default: src tests)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline file of grandfathered analyzer "
                             f"findings (default: {DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline and report everything")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from current findings "
                             "(kept justifications survive) and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as machine-readable JSON")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write the findings as SARIF 2.1.0 to "
                             "FILE (for code-scanning upload)")
    parser.add_argument("--emit-proto-dot", metavar="FILE",
                        help="write the protocol spec automata as Graphviz "
                             "DOT to FILE and exit")
    parser.add_argument("--fail-on-stale", action="store_true",
                        help="exit non-zero when the baseline contains "
                             "entries that no longer fire")
    args = parser.parse_args(argv)
    catalogue = {**RULES, **lockset.LOCKSET_RULES,
                 **resource_flow.RESOURCE_RULES, **protoflow.PROTOFLOW_RULES}
    if args.list_rules:
        for rule_id in sorted(catalogue):
            print(f"{rule_id}  {catalogue[rule_id]}")
        return 0
    if args.emit_proto_dot:
        Path(args.emit_proto_dot).write_text(protoflow.render_dot())
        print(f"wrote {args.emit_proto_dot}")
        return 0

    files: list[SourceFile] = []
    deep: list[SourceFile] = []
    for path, in_deep_scope in iter_python_files(args.paths):
        files.append(SourceFile.read(path))
        if in_deep_scope:
            deep.append(files[-1])
    raw = unsuppressed(check(files) + lockset.check(deep)
                       + resource_flow.check(deep) + protoflow.check(deep),
                       files)
    baseline = (Baseline(entries={}) if args.no_baseline
                else Baseline.load(Path(args.baseline)))
    if args.update_baseline:
        Baseline.write(Path(args.baseline), raw, previous=baseline)
        n_keyed = sum(1 for f in raw if f.key is not None)
        print(f"wrote {args.baseline}: {n_keyed} grandfathered finding(s)")
        return 0

    findings, matched = baseline.filter(raw)
    baselined = Counter(f.rule for f in raw if f.key in baseline.entries)
    stale = baseline.stale_keys(raw)
    stale_fails = bool(stale) and args.fail_on_stale

    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(_sarif_report(findings, catalogue), indent=2) + "\n")

    if args.json:
        print(json.dumps({
            "findings": [
                {"file": f.path, "line": f.line, "rule": f.rule,
                 "message": f.message}
                for f in findings
            ],
            "counts": dict(Counter(f.rule for f in findings)),
            "files": len(files),
            "baselined": dict(sorted(baselined.items())),
            "stale": stale,
        }, indent=2))
        return 1 if findings or stale_fails else 0

    for f in findings:
        print(f)
    if stale:
        print("note: stale baseline entrie(s) no longer fire: "
              + ", ".join(stale))
    suffix = f", {len(matched)} baselined" if matched else ""
    if findings:
        print(f"\n{len(findings)} finding(s) in {len(files)} file(s){suffix}")
        return 1
    if stale_fails:
        print("stale baseline entries present (see notes above); "
              "regenerate with --update-baseline")
        return 1
    print(f"clean: {len(files)} file(s), 0 findings{suffix}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

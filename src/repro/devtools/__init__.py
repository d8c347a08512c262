"""Repo-specific correctness tooling: static lint + runtime lock tracing.

The serving stack is genuinely concurrent — broker pump threads,
condition-variable channels, retrying connections, daemon accept and
handshake threads — which is exactly the code where Python's dynamism
hides deadlocks, thread leaks, and silently-swallowed errors until they
bite under load.  This package keeps that debt from accumulating:

- :mod:`repro.devtools.lint` — an AST-based checker with repo-specific
  rules, and the one driver of every static pass (``repro lint`` /
  ``make lint`` run it over ``src`` and ``tests``; a new finding fails
  CI);
- :mod:`repro.devtools.lockset` — an interprocedural static lockset
  race analyzer (Eraser/RacerD style): infers which lock guards each
  ``self._*`` field and reports inconsistent locksets, bare writes to
  annotated fields, unannotated shared mutable state on threaded
  classes, and lock-scope leaks (rules ``DT701``–``DT704``, run by
  ``repro lint`` behind the committed ``lint_baseline.json``), next to
  the DT8xx :mod:`~repro.devtools.resource_flow` and DT9xx
  :mod:`~repro.devtools.protoflow` analyzers;
- :mod:`repro.devtools.locktrace` — instrumented lock wrappers that
  record the lock-acquisition graph at runtime, detect lock-order
  inversions and locks held across blocking channel operations, plus
  thread-leak guards the integration suite runs under.

See ``docs/devtools.md`` for the rule catalogue and report format.
"""

from repro.devtools.lint import Finding, lint_paths, lint_source
from repro.devtools.lockset import analyze_paths, analyze_source, guarded_by
from repro.devtools.locktrace import LockTracer, ThreadLeakGuard

__all__ = [
    "Finding",
    "lint_paths",
    "lint_source",
    "analyze_paths",
    "analyze_source",
    "guarded_by",
    "LockTracer",
    "ThreadLeakGuard",
]

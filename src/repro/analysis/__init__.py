"""Correctness tooling for the reproduction: ``simlint`` + sanitizer.

Two layers keep the determinism discipline of :mod:`repro.simkernel`
enforceable as the codebase grows (see ``docs/STATIC_ANALYSIS.md``):

* :mod:`repro.analysis.linter` -- an AST-based static linter with rules
  ``SL001``-``SL006`` targeting wall-clock calls, coroutine misuse, heap
  encapsulation, float-time equality, raw unit literals, and shared
  mutable state;
* :mod:`repro.analysis.sanitizer` -- a runtime supervisor
  (:class:`SanitizedSimulator`) that watches a live run for event-order
  ties, corrupt delays, post-run scheduling, leaked resource slots, and
  RNG draws that bypass the registry.

Run both from the command line: ``python -m repro.analysis lint src/``
and ``python -m repro.analysis sanitize``.
"""

from repro.analysis.linter import (findings_to_dict, format_json, format_text,
                                   lint_paths, lint_source)
from repro.analysis.rules import Finding, LintContext, Rule, all_rules
from repro.analysis.sanitizer import (SanitizedSimulator, SanitizerError,
                                      SanitizerFinding, SanitizerReport)

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "SanitizedSimulator",
    "SanitizerError",
    "SanitizerFinding",
    "SanitizerReport",
    "all_rules",
    "findings_to_dict",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_source",
]

"""Correctness tooling for the reproduction: ``simlint`` + ``simflow``.

The byte-identity gates (reruns against the goldens, serial against the
fabric, lowered against scalar) catch most determinism hazards; these
two analyzers keep the rules for the ones those gates cannot see (see
``docs/STATIC_ANALYSIS.md``, which records the planted mutant behind
every rule):

* :mod:`repro.analysis.linter` -- an AST-based static linter with rules
  ``SL001`` (a random stream built or drawn outside the registry),
  ``SL004`` (float-time equality) and ``SL005`` (raw unit literals);
* :mod:`repro.analysis.flow` -- an interprocedural effect analysis with
  rules ``SF003`` (unordered iteration feeding the event stream) and
  ``SF004`` (purity contracts).

Both judge the model closure
(:func:`repro.experiments.executor.model_modules`); run them from the
command line with ``python -m repro.analysis self-check``.
"""

from repro.analysis.linter import (findings_to_dict, format_json, format_text,
                                   lint_paths, lint_source)
from repro.analysis.rules import Finding, LintContext, Rule, all_rules

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "findings_to_dict",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_source",
]

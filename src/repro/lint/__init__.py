"""``repro.lint`` — AST-based invariant analyzer for the repro codebase.

Mechanically enforces the contracts the stack's reliability rests on:
atomic-write discipline (REP001), fault-site coverage (REP002),
error-taxonomy completeness (REP004), lock discipline (REP005) and
schema-version discipline (REP006); REP003 is retired.  See
``docs/INVARIANTS.md`` for the rule reference and suppression workflow.
"""

from repro.lint.core import (
    Baseline,
    BaselineEntry,
    DEFAULT_BASELINE_NAME,
    Finding,
    LintReport,
    LintUsageError,
    META_RULE_ID,
    Project,
    Rule,
    RULE_REGISTRY,
    all_rules,
    register_rule,
    rules_by_id,
    run_lint,
)
from repro.lint.fault_sites import (
    build_registry,
    extract_fault_sites,
    render_markdown,
    write_registry,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintReport",
    "LintUsageError",
    "META_RULE_ID",
    "Project",
    "RULE_REGISTRY",
    "Rule",
    "all_rules",
    "build_registry",
    "extract_fault_sites",
    "register_rule",
    "render_markdown",
    "rules_by_id",
    "run_lint",
    "write_registry",
]

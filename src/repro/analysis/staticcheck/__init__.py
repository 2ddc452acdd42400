"""Repo-specific AST linter for determinism and soundness conventions.

Nine rules, registered like schedulers (``@rule`` mirrors
``@register``), runnable as ``sfs-experiment lint`` or
``python -m repro.analysis.staticcheck``:

======  ==============================================================
SFS001  no module-level / unseeded RNG draws in simulation code
SFS002  no wall-clock reads in simulation code
SFS003  no set iteration feeding sort-free ordered output
SFS004  registry hygiene: docstring + unique sane name per entry
SFS005  no float ``==``/``!=`` on tag/surplus arithmetic
SFS006  Scenario/SweepCell payloads must stay pickle-safe
SFS007  example scenario configs must pass schema validation
SFS008  no call chain from sim code to unseeded RNG / wall clock
SFS009  no unordered iteration order escaping into sim code
======  ==============================================================

SFS001-SFS007 run per file; SFS008/SFS009 need the whole project call
graph (``lint --project``, :mod:`.project`). Waive a single finding
inline with
``# sfs-lint: disable=SFSnnn``, or freeze a legacy set with
``lint --write-baseline`` / ``--baseline``. See docs/CORRECTNESS.md.
"""

from repro.analysis.staticcheck.rules import (
    RULES,
    SIM_SCOPES,
    LintRule,
    Violation,
    disabled_ids_by_line,
    make_rules,
    rule,
    rule_ids,
)
from repro.analysis.staticcheck import checks  # noqa: F401  (registers rules)
from repro.analysis.staticcheck.engine import (
    DEFAULT_ROOTS,
    discover_files,
    find_repo_root,
    lint_paths,
    lint_source,
    main,
    render_json,
    render_text,
)
from repro.analysis.staticcheck.project import project_violations

__all__ = [
    "RULES",
    "SIM_SCOPES",
    "LintRule",
    "Violation",
    "DEFAULT_ROOTS",
    "disabled_ids_by_line",
    "discover_files",
    "find_repo_root",
    "lint_paths",
    "lint_source",
    "main",
    "make_rules",
    "project_violations",
    "render_json",
    "render_text",
    "rule",
    "rule_ids",
]

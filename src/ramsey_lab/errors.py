"""Error types shared across the library.

The CLI maps these onto process exit codes, so constructive operations must
raise the precise class: bad inputs are ValueError, violated mathematical
hypotheses are HypothesisViolation (a blue edge where a construction needs
a red one among them), a deadline that passes is SearchBudgetExceeded, and
a completed search that contradicts a guaranteed existence statement is
ProofGap (never silently swallowed).
"""

from __future__ import annotations

from typing import Any


class HypothesisViolation(ValueError):
    """An operation's mathematical hypothesis fails on the given instance.

    Carries an optional machine-readable witness (e.g. the offending edge or
    a forbidden monochromatic embedding) under .witness.
    """

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class ProofGap(RuntimeError):
    """A guaranteed construction could not be completed.

    This signals an implementation bug or a genuine counterexample; the
    offending instance is attached under .instance, and the CLI writes it
    to `--dir` as `<subcommand>.proofgap.json`.
    """

    def __init__(self, message: str, instance: Any):
        super().__init__(message)
        self.instance = instance


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of its budget before it could answer.

    One source raises it: copy enumeration past its deadline, which
    `decide_arrowing` turns into an UNKNOWN verdict with nothing partial
    cached.  The arrowing search's own node and time budgets end in that
    verdict without it.
    """

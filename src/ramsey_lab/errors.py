"""Error types shared across the library.

The CLI maps these onto process exit codes, so constructive operations must
raise the precise class: bad inputs are ValueError, violated mathematical
hypotheses are HypothesisViolation (BlueEdgeEncountered among them), and a
completed search that contradicts a guaranteed existence statement is
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
    """Copy enumeration ran past its deadline.

    `decide_arrowing` turns this into an UNKNOWN verdict; nothing partial
    is cached.
    """


class BlueEdgeEncountered(HypothesisViolation):
    """An edge required to be red by an explicit construction is blue.

    The offending edge is the witness, also under .edge; the caller may
    hunt the monochromatic structure that this implies via the embedder.
    """

    def __init__(self, message: str, edge: Any):
        super().__init__(message, witness=edge)
        self.edge = edge

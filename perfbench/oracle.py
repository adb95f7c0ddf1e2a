"""Expected rows from the frozenset reference, computed outside the timed phase.

The benchmark process evaluates each distinct request once, through the
layer replay of ``tracing.py`` with the engine pinned to the ``frozenset``
backend, the naive transcription of the paper's definitions that the
differential tests also trust.  The replay builds the model, evaluates and
assembles the rows itself, so the expected rows share no code with the
runner, the pool or the service whose output they check.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.experiments.registry import scenario_names

from tracing import NullRecorder, TracedReplay


class Oracle:
    """Expected rows ``[label, count, satisfiable, valid, holds_at_focus]``."""

    def __init__(self) -> None:
        self._replay = TracedReplay(NullRecorder(), backend="frozenset")
        self._rows: Dict[str, list] = {}

    def rows(
        self,
        scenario: str,
        params: dict,
        formulas: Optional[List[List[str]]],
        minimize: bool = False,
    ) -> list:
        key = json.dumps([scenario, params, formulas, minimize], sort_keys=True)
        rows = self._rows.get(key)
        if rows is None:
            rows = self._replay.run(scenario, params, formulas, minimize)
            self._rows[key] = rows
        return rows

    @staticmethod
    def scenario_names() -> List[str]:
        return list(scenario_names())

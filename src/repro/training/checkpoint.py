"""Checkpoint/restore for the event-driven cluster engine.

The elastic/failure machinery needs a notion of "last consensus state": the
model and optimizer as of the most recent applied synchronization round.  The
async engine captures a :class:`ClusterCheckpoint` into a
:class:`CheckpointStore` every time averaged gradients are applied; a trainer
recovering from an outage restores from the store — resuming from the last
consensus step instead of step 0 — and the restore transfer is charged
through the cost model as ``migration`` time.

Because the simulated trainers share one model replica, a restore between
two sync rounds is numerically a no-op (the replica *is* the consensus
state); the value of the layer is the provenance it pins — ``step`` > 0 at
restore, asserted by the acceptance tests.

A checkpoint pickles cleanly (audited in ``tests/test_pickle_audit.py``), as
a replacement process would need, and compares equal after a round trip via
numpy-aware ``__eq__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np


def _state_equal(a: Any, b: Any) -> bool:
    """Recursive equality over nested dicts of arrays/scalars."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False
        return all(_state_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    return bool(a == b)


@dataclass(eq=False)
class ClusterCheckpoint:
    """One consensus snapshot: model + optimizer state at a sync round.

    ``step`` is the number of applied synchronization rounds at capture time
    and ``time_s`` the latest trainer clock then; both feed the recovery
    provenance (``restored_from_step``) the tests assert on.
    """

    step: int
    time_s: float
    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def capture(cls, model, optimizer, step: int, time_s: float) -> "ClusterCheckpoint":
        return cls(
            step=int(step),
            time_s=float(time_s),
            model_state=model.state_dict(),
            optimizer_state=optimizer.state_dict(),
        )

    def restore_into(self, model, optimizer) -> None:
        model.load_state_dict(self.model_state)
        optimizer.load_state_dict(self.optimizer_state)

    def nbytes(self) -> int:
        """Payload size of the model state (the restore transfer the cost
        model charges); optimizer buffers ride along for free in-process."""
        return int(sum(v.nbytes for v in self.model_state.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterCheckpoint):
            return NotImplemented
        return (
            self.step == other.step
            and self.time_s == other.time_s
            and _state_equal(self.model_state, other.model_state)
            and _state_equal(self.optimizer_state, other.optimizer_state)
        )


class CheckpointStore:
    """Holds the latest consensus checkpoint.

    One store per run; the engine calls :meth:`update` after every applied
    sync round and :meth:`restore` when a failed trainer recovers.
    """

    def __init__(self) -> None:
        self.latest: Optional[ClusterCheckpoint] = None

    def update(self, model, optimizer, step: int, time_s: float) -> ClusterCheckpoint:
        self.latest = ClusterCheckpoint.capture(model, optimizer, step, time_s)
        return self.latest

    def restore(self, model, optimizer) -> ClusterCheckpoint:
        """Load the latest checkpoint into *model*/*optimizer*.

        Raises ``RuntimeError`` when no checkpoint exists yet (a recovery
        before the first sync round resumes from step 0 by definition, and
        the engine skips the restore path).
        """
        if self.latest is None:
            raise RuntimeError("no checkpoint captured yet")
        self.latest.restore_into(model, optimizer)
        return self.latest

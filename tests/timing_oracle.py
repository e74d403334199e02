"""Reference timing policies the timing differential tests compare against.

:class:`SerialTimingPolicy` and :class:`OverlappedTimingPolicy` are the two
policies of ``repro.training.pipelines`` as they were before they called
``repro.perf.model``, moved here verbatim: Eqs. 2-5 and Eq. 9 written out
inline, in the float-op order the production policies must keep to the bit.

It imports nothing from ``repro``; ``timing`` is any object with the
:class:`~repro.training.telemetry.StepTiming` fields and ``clock`` any object
with ``advance(seconds, component)``.
"""

from __future__ import annotations


class SerialTimingPolicy:
    """Eq. 2: sample, fetch, then train; the RPC beyond the copy stalls (Eq. 9)."""

    name = "serial"
    overlaps_preparation = False

    def account(self, timing, trainer_step: int, clock) -> None:
        critical = timing.sampling + max(timing.rpc, timing.copy) + timing.ddp
        clock.advance(timing.sampling, "sampling")
        clock.advance(timing.copy, "copy")
        clock.advance(max(0.0, timing.rpc - timing.copy), "rpc")
        clock.advance(timing.ddp, "ddp")
        timing.prepare = 0.0
        timing.hidden = 0.0
        timing.critical_path = critical


class OverlappedTimingPolicy:
    """Eqs. 3-5: preparation of the next minibatch overlaps DDP training."""

    name = "overlapped"
    overlaps_preparation = True

    def account(self, timing, trainer_step: int, clock) -> None:
        prepare = (
            timing.sampling
            + timing.lookup
            + max(timing.scoring + timing.eviction, max(timing.rpc, timing.copy))
        )
        timing.prepare = prepare
        if trainer_step == 0:
            critical = prepare + max(prepare, timing.ddp)
        else:
            critical = max(prepare, timing.ddp)
        timing.hidden = min(prepare, timing.ddp)
        clock.advance(timing.ddp, "ddp")
        clock.advance(max(0.0, critical - timing.ddp), "stall")
        timing.critical_path = critical

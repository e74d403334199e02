"""Both timing policies against their inline twins in ``tests/timing_oracle.py``.

The production policies get Eqs. 2-5 and 9 by calling ``repro.perf.model``;
the oracle writes the same sums and maxes out inline.  For any non-negative
finite components — exact ties such as ``rpc == copy`` or ``prepare == ddp``
included — a policy must set ``critical_path``, ``prepare`` and ``hidden`` and
charge every clock component bit for bit as its twin does.  The look-ahead
model's one-worker steady state is the overlapped policy's steady step.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import timing_oracle
from repro.distributed.clock import SimClock
from repro.perf.lookahead import steady_state_step_time
from repro.training.pipelines import OverlappedTimingPolicy, SerialTimingPolicy
from repro.training.telemetry import StepTiming

COMPONENTS = ("sampling", "lookup", "scoring", "eviction", "rpc", "copy", "ddp")
POLICIES = [
    (SerialTimingPolicy, timing_oracle.SerialTimingPolicy),
    (OverlappedTimingPolicy, timing_oracle.OverlappedTimingPolicy),
]


@st.composite
def step_components(draw) -> dict:
    """Component seconds drawn from a pool of at most three values, so ties are common."""
    finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(finite, min_size=1, max_size=3))
    values = {name: draw(st.sampled_from(pool)) for name in COMPONENTS}
    if draw(st.booleans()):  # prepare == ddp exactly
        values["ddp"] = _account(timing_oracle.OverlappedTimingPolicy(), values, 1)[0].prepare
    return values


def _account(policy, values: dict, trainer_step: int):
    timing, clock = StepTiming(**values), SimClock()
    policy.account(timing, trainer_step, clock)
    return timing, clock


def _bits(timing: StepTiming, clock: SimClock) -> dict:
    out = {f"timing.{name}": value.hex() for name, value in timing.as_dict().items()}
    out.update({f"clock.{name}": value.hex() for name, value in clock.breakdown().items()})
    out["clock.time"] = clock.time.hex()
    return out


@settings(max_examples=300, deadline=None)
@given(step_components(), st.sampled_from([0, 1, 7]))
def test_policies_match_inline_oracle_bit_for_bit(values, trainer_step):
    for policy, oracle in POLICIES:
        timing, clock = _account(policy(), values, trainer_step)
        assert _bits(timing, clock) == _bits(*_account(oracle(), values, trainer_step)), policy.name
    if trainer_step:  # ``timing`` is the overlapped policy's steady step
        assert steady_state_step_time(timing.prepare, timing.ddp, 1) == timing.critical_path

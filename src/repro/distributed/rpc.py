"""Simulated RPC layer between trainers and partition feature servers.

In DistDGL every remote feature request travels over an RPC channel to the
owning machine's server.  Here the "network" is in-process, but the channel
records exactly what a real one would: how many requests were issued, how many
feature rows moved, how many bytes that represents, and — via the
:class:`~repro.distributed.cost_model.CostModel` — how long those transfers
would have taken.  Trainer-side stall time for communication is then derived
using the paper's Eq. 9 (``t_communication = t_RPC − t_copy``).

Two channel implementations are registered in :data:`RPC_CHANNELS`:

* ``"per-call"`` — :class:`RPCChannel`, the default: every ``remote_pull``
  issues one wire request per owning partition it touches.
* ``"batched"`` — :class:`BatchedRPCChannel`, the DistDGL-style batched KV
  client: all trainers on a machine share one per-step
  :class:`CoalescingWindow`; within a window duplicate ids are merged (served
  from the window cache without re-fetching) and pulls to an already-contacted
  owner ride the open wire request instead of opening a new one.

:class:`RPCStats` counts both views: ``requests``/``nodes_fetched`` are the
**wire** level (what actually crossed the network, after coalescing) while
``logical_requests``/``nodes_requested`` are the **logical** level (what the
sources asked for) — the split that keeps Fig. 11's RPC-reduction accounting
honest.  ``as_dict`` keeps the historical four-key schema (golden fixtures pin
it); ``as_extended_dict`` adds the logical counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.distributed.cost_model import BYTES_PER_FEATURE, CostModel
from repro.distributed.kvstore import KVStore
from repro.utils.registry import Registry
from repro.utils.validation import sorted_lookup


@dataclass
class RPCStats:
    """Cumulative per-trainer RPC counters (wire level + logical level)."""

    requests: int = 0                # wire requests issued (per-owner groups)
    nodes_fetched: int = 0           # rows that moved over the wire
    bytes_fetched: int = 0
    simulated_time_s: float = 0.0
    logical_requests: int = 0        # non-empty remote_pull calls from sources
    nodes_requested: int = 0         # rows requested logically (pre-coalescing)

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "nodes_fetched": self.nodes_fetched,
            "bytes_fetched": self.bytes_fetched,
            "simulated_time_s": self.simulated_time_s,
        }

    def as_extended_dict(self) -> Dict[str, float]:
        out = self.as_dict()
        out["logical_requests"] = self.logical_requests
        out["nodes_requested"] = self.nodes_requested
        return out

    def merge(self, other: "RPCStats") -> "RPCStats":
        return RPCStats(
            requests=self.requests + other.requests,
            nodes_fetched=self.nodes_fetched + other.nodes_fetched,
            bytes_fetched=self.bytes_fetched + other.bytes_fetched,
            simulated_time_s=self.simulated_time_s + other.simulated_time_s,
            logical_requests=self.logical_requests + other.logical_requests,
            nodes_requested=self.nodes_requested + other.nodes_requested,
        )


class RPCChannel:
    """A trainer's handle for pulling remote features from partition servers.

    Parameters
    ----------
    servers:
        Mapping from partition id to that partition's :class:`KVStore`.
    local_part:
        The partition co-located with this trainer; pulls from it are memory
        copies, not RPCs (and raise if routed through :meth:`remote_pull`).
    cost_model:
        Used to convert transfer sizes into simulated seconds.
    """

    def __init__(
        self,
        servers: Dict[int, KVStore],
        local_part: int,
        cost_model: Optional[CostModel] = None,
    ):
        self.servers = servers
        self.local_part = int(local_part)
        self.cost_model = cost_model or CostModel.cpu()
        self.stats = RPCStats()

    # ------------------------------------------------------------------ #
    def local_pull(self, global_ids: np.ndarray) -> Tuple[np.ndarray, float]:
        """Copy locally owned feature rows; returns (rows, simulated_copy_time).

        Precondition: *global_ids* is a 1-D int64 array (see :meth:`KVStore.pull`).
        """
        store = self.servers[self.local_part]
        rows = store.pull(global_ids)
        copy_time = self.cost_model.time_copy(len(global_ids), store.feature_dim)
        return rows, copy_time

    def remote_pull(
        self, global_ids: np.ndarray, owners: np.ndarray
    ) -> Tuple[np.ndarray, float, RPCStats]:
        """Pull remotely owned rows, grouped per owning partition.

        Parameters
        ----------
        global_ids:
            Global node ids to fetch (must not be owned locally).
        owners:
            Owning partition id per node (same length as ``global_ids``).

        Precondition: both are 1-D int64 arrays, validated where the ids
        entered the data path (see :meth:`KVStore.pull`); alignment and
        local ownership are still checked here, unknown owners and ids an
        owner does not hold still raise ``KeyError``.

        Returns
        -------
        (rows, simulated_time, delta_stats):
            ``rows`` aligns with ``global_ids``; ``simulated_time`` is the RPC
            wall time charged to the calling trainer; ``delta_stats`` is the
            increment recorded for this call.
        """
        global_ids, owners = self._validate_remote_pull(global_ids, owners)
        if len(global_ids) == 0:
            return self._empty_pull_result()

        dim = self.servers[self.local_part].feature_dim
        rows, contacted = self._pull_by_owner(global_ids, owners, dim)
        num_requests = len(contacted)
        simulated = self.cost_model.time_rpc(len(global_ids), dim, num_requests=num_requests)
        delta = RPCStats(
            requests=num_requests,
            nodes_fetched=int(len(global_ids)),
            bytes_fetched=int(len(global_ids) * dim * BYTES_PER_FEATURE),
            simulated_time_s=simulated,
            logical_requests=1,
            nodes_requested=int(len(global_ids)),
        )
        self.stats = self.stats.merge(delta)
        return rows, simulated, delta

    def begin_step(self, step: int) -> None:
        """Mark the start of a pipeline step (no-op for per-call channels)."""

    def reset_stats(self) -> None:
        self.stats = RPCStats()

    # ------------------------------------------------------------------ #
    # Shared remote-pull plumbing (both channel implementations use these,
    # so validation and error behavior cannot drift between them).
    # ------------------------------------------------------------------ #
    def _validate_remote_pull(
        self, global_ids: np.ndarray, owners: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if len(global_ids) != len(owners):
            raise ValueError("global_ids and owners must align")
        if np.any(owners == self.local_part):
            raise ValueError("remote_pull received locally owned nodes; use local_pull")
        return global_ids, owners

    def _empty_pull_result(self) -> Tuple[np.ndarray, float, "RPCStats"]:
        dim = self.servers[self.local_part].feature_dim
        return np.zeros((0, dim), dtype=np.float32), 0.0, RPCStats()

    def _pull_by_owner(
        self, global_ids: np.ndarray, owners: np.ndarray, dim: int
    ) -> Tuple[np.ndarray, List[int]]:
        """Rows aligned with *global_ids*, one server pull per distinct owner
        (ascending), and those owners.  A lone owner's rows come back as its
        server returned them, with no mask or scatter."""
        contacted = sorted(set(owners.tolist()))
        if len(contacted) == 1:
            return self._pull_from_owner(contacted[0], global_ids), contacted
        rows = np.empty((len(global_ids), dim), dtype=np.float32)
        for owner in contacted:
            mask = owners == owner
            rows[mask] = self._pull_from_owner(owner, global_ids[mask])
        return rows, contacted

    def _pull_from_owner(self, owner: int, ids: np.ndarray) -> np.ndarray:
        server = self.servers.get(owner)
        if server is None:
            raise KeyError(f"no server registered for partition {owner}")
        return server.pull(ids)


class CoalescingWindow:
    """Per-machine, per-step cache of remote rows and contacted owners.

    One window is shared by every :class:`BatchedRPCChannel` on a machine.
    The training engines open a new window once per global pipeline step via
    :meth:`BatchedRPCChannel.begin_step`; until the first ``begin_step`` the
    window is inactive and the owning channels fall back to per-call
    semantics (so one-time initialization pulls are accounted unchanged).
    """

    def __init__(self) -> None:
        self._step: Optional[int] = None
        self._ids = np.zeros(0, dtype=np.int64)
        self._rows: Optional[np.ndarray] = None
        self._owners: Set[int] = set()

    @property
    def active(self) -> bool:
        return self._step is not None

    def begin_step(self, step: int) -> None:
        """Open the window for *step*, discarding the previous step's state."""
        if step != self._step:
            self._step = step
            self._ids = np.zeros(0, dtype=np.int64)
            self._rows = None
            self._owners = set()

    def deactivate(self) -> None:
        """Return to the inactive (per-call) state; used by cluster reset."""
        self._step = None
        self._ids = np.zeros(0, dtype=np.int64)
        self._rows = None
        self._owners = set()

    # ------------------------------------------------------------------ #
    def contains(self, global_ids: np.ndarray) -> np.ndarray:
        return sorted_lookup(self._ids, global_ids)[1]

    def owner_contacted(self, owner: int) -> bool:
        return owner in self._owners

    def note_owner(self, owner: int) -> None:
        self._owners.add(owner)

    def add(self, global_ids: np.ndarray, rows: np.ndarray) -> None:
        """Insert newly fetched rows (sorted-unique, previously absent) into the cache."""
        if len(global_ids) == 0:
            return
        if self._rows is None:
            self._ids = global_ids.copy()
            self._rows = rows.copy()
            return
        # Both sides are sorted, so a positional merge insert keeps the cache
        # ordered in O(cache + new) without re-sorting it on every pull.  The
        # window resets every step, and a step sees at most a couple of pulls
        # per trainer, so rebuilding the arrays per add stays cheap.
        insert_at = np.searchsorted(self._ids, global_ids)
        self._ids = np.insert(self._ids, insert_at, global_ids)
        self._rows = np.insert(self._rows, insert_at, rows, axis=0)

    def rows_for(self, global_ids: np.ndarray) -> np.ndarray:
        """Rows aligned with *global_ids*; every id must already be cached."""
        idx, cached = sorted_lookup(self._ids, global_ids)
        if not cached.all():
            raise KeyError(f"window cache is missing nodes {global_ids[~cached][:5].tolist()}")
        return self._rows.take(idx, axis=0)


class BatchedRPCChannel(RPCChannel):
    """Owner-coalescing RPC channel (DistDGL-style batched KV access).

    Within one step window (shared per machine), ``remote_pull``:

    * serves ids already fetched this window from the window cache — no wire
      traffic, no bytes, no time;
    * merges duplicate ids within the call before fetching;
    * groups the remaining ids per owner and only counts a **wire request**
      for owners not yet contacted this window — later pulls to the same
      owner ride the open request (latency charged once per owner per step,
      bandwidth charged for every row that actually moves).

    The rows returned are identical to :class:`RPCChannel`'s, so training
    numerics are unchanged; only the wire accounting and simulated time
    differ.  Logical counters record what the sources asked for.
    """

    def __init__(
        self,
        servers: Dict[int, KVStore],
        local_part: int,
        cost_model: Optional[CostModel] = None,
        window: Optional[CoalescingWindow] = None,
    ):
        super().__init__(servers, local_part, cost_model=cost_model)
        self.window = window if window is not None else CoalescingWindow()

    def begin_step(self, step: int) -> None:
        self.window.begin_step(step)

    def remote_pull(
        self, global_ids: np.ndarray, owners: np.ndarray
    ) -> Tuple[np.ndarray, float, RPCStats]:
        if not self.window.active:
            # Outside a step window (e.g. prefetcher initialization): behave
            # exactly like the per-call channel.
            return super().remote_pull(global_ids, owners)
        global_ids, owners = self._validate_remote_pull(global_ids, owners)
        if len(global_ids) == 0:
            return self._empty_pull_result()

        dim = self.servers[self.local_part].feature_dim
        window = self.window
        new_mask = ~window.contains(global_ids)
        num_new = 0
        opened = 0
        if new_mask.any():
            new_ids, new_owners = global_ids[new_mask], owners[new_mask]
            # The stack's misses and the prefetcher's pulls arrive sorted and
            # unique; only other callers' ids need np.unique.
            if not (new_ids[1:] > new_ids[:-1]).all():
                new_ids, first = np.unique(new_ids, return_index=True)
                new_owners = new_owners[first]
            fetched, contacted = self._pull_by_owner(new_ids, new_owners, dim)
            for owner in contacted:
                if not window.owner_contacted(owner):
                    window.note_owner(owner)
                    opened += 1
            window.add(new_ids, fetched)
            num_new = len(new_ids)

        simulated = self.cost_model.time_rpc_batched(num_new, dim, opened)
        rows = window.rows_for(global_ids)
        delta = RPCStats(
            requests=opened,
            nodes_fetched=num_new,
            bytes_fetched=int(num_new * dim * BYTES_PER_FEATURE),
            simulated_time_s=simulated,
            logical_requests=1,
            nodes_requested=int(len(global_ids)),
        )
        self.stats = self.stats.merge(delta)
        return rows, simulated, delta


# --------------------------------------------------------------------------- #
# Registry: channels constructible by name from ClusterConfig / CLI
# --------------------------------------------------------------------------- #
RPC_CHANNELS = Registry("rpc channel")


@RPC_CHANNELS.register("per-call", aliases=("plain", "unbatched"))
def _build_per_call(
    servers: Dict[int, KVStore],
    local_part: int,
    cost_model: Optional[CostModel] = None,
    window: Optional[CoalescingWindow] = None,
) -> RPCChannel:
    return RPCChannel(servers, local_part, cost_model=cost_model)


@RPC_CHANNELS.register("batched", aliases=("coalesced",))
def _build_batched(
    servers: Dict[int, KVStore],
    local_part: int,
    cost_model: Optional[CostModel] = None,
    window: Optional[CoalescingWindow] = None,
) -> BatchedRPCChannel:
    return BatchedRPCChannel(servers, local_part, cost_model=cost_model, window=window)


def build_rpc_channel(
    name: str,
    servers: Dict[int, KVStore],
    local_part: int,
    cost_model: Optional[CostModel] = None,
    window: Optional[CoalescingWindow] = None,
) -> RPCChannel:
    """Build a registered RPC channel by name (see :data:`RPC_CHANNELS`)."""
    return RPC_CHANNELS.build(
        name, servers, local_part, cost_model=cost_model, window=window
    )


def merge_rpc_stats(stats: List[RPCStats]) -> RPCStats:
    """Sum a sequence of :class:`RPCStats` in order (left fold of ``merge``)."""
    total = RPCStats()
    for entry in stats:
        total = total.merge(entry)
    return total


def aggregate_rpc_stats(channels: List[RPCChannel]) -> RPCStats:
    """Sum RPC statistics across all trainers' channels."""
    return merge_rpc_stats([channel.stats for channel in channels])

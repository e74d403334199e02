"""Reference implementations the RPC miss-path differential compares against.

These are the halo miss path as it was before each hop stopped re-deriving
what the previous hop knew:

* :class:`OracleKVStore` — ``KVStore.pull`` testing membership with two
  ``np.any`` passes over ``np.minimum``-clipped positions, then gathering by
  fancy indexing;
* :class:`OracleCoalescingWindow` — ``CoalescingWindow.contains`` /
  ``rows_for`` in the same clipped form;
* :class:`OracleRPCChannel` / :class:`OracleBatchedRPCChannel` — per-owner
  grouping through ``np.unique`` of the owners, a zero-filled row matrix
  scattered by mask, and (batched) an unconditional ``np.unique`` of the new
  ids.

Only the miss path is overridden; argument validation and the empty result
are inherited.  The batched oracle takes its per-owner pull (and its
inactive-window fallback) from the per-call oracle and the rest from
``BatchedRPCChannel``.  A store with no rows or an empty window raised a bare
``IndexError`` here; the differential draws neither, and
``tests/test_rpc_differential.py`` pins the ``KeyError`` the real classes raise.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.cost_model import BYTES_PER_FEATURE
from repro.distributed.kvstore import KVStore
from repro.distributed.rpc import BatchedRPCChannel, CoalescingWindow, RPCChannel, RPCStats


class OracleKVStore(KVStore):
    """``KVStore`` with the two-pass clipped membership test."""

    def pull(self, global_ids, *, remote: bool = False):
        if len(global_ids) == 0:
            return np.zeros((0, self.feature_dim), dtype=np.float32)
        idx = np.searchsorted(self._ids, global_ids)
        if np.any(idx >= self.num_rows) or np.any(self._ids[np.minimum(idx, self.num_rows - 1)] != global_ids):
            missing = global_ids[
                (idx >= self.num_rows)
                | (self._ids[np.minimum(idx, self.num_rows - 1)] != global_ids)
            ][:5]
            raise KeyError(
                f"KVStore for partition {self.part_id} does not own nodes {missing.tolist()}"
            )
        rows = self._rows[idx]
        nbytes = rows.size * BYTES_PER_FEATURE
        if remote:
            self.stats.remote_pulls += 1
            self.stats.remote_rows += len(global_ids)
            self.stats.bytes_served_remote += int(nbytes)
        else:
            self.stats.local_pulls += 1
            self.stats.local_rows += len(global_ids)
        return rows


class OracleCoalescingWindow(CoalescingWindow):
    """``CoalescingWindow`` with the clipped membership test."""

    def contains(self, global_ids):
        if len(self._ids) == 0:
            return np.zeros(len(global_ids), dtype=bool)
        idx = np.minimum(np.searchsorted(self._ids, global_ids), len(self._ids) - 1)
        return self._ids[idx] == global_ids

    def rows_for(self, global_ids):
        idx = np.searchsorted(self._ids, global_ids)
        bad = (idx >= len(self._ids)) | (
            self._ids[np.minimum(idx, max(0, len(self._ids) - 1))] != global_ids
        )
        if np.any(bad):
            missing = global_ids[bad][:5]
            raise KeyError(f"window cache is missing nodes {missing.tolist()}")
        return self._rows[idx]


class OracleRPCChannel(RPCChannel):
    """Per-call channel grouping owners with ``np.unique`` and a mask scatter."""

    def remote_pull(self, global_ids, owners):
        global_ids, owners = self._validate_remote_pull(global_ids, owners)
        if len(global_ids) == 0:
            return self._empty_pull_result()

        dim = self.servers[self.local_part].feature_dim
        rows = np.zeros((len(global_ids), dim), dtype=np.float32)
        unique_owners = np.unique(owners)
        num_requests = 0
        for owner in unique_owners:
            mask = owners == owner
            rows[mask] = self._pull_from_owner(int(owner), global_ids[mask])
            num_requests += 1

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

    def _pull_from_owner(self, owner, ids):
        server = self.servers.get(owner)
        if server is None:
            raise KeyError(f"no server registered for partition {owner}")
        return server.pull(ids, remote=True)


class OracleBatchedRPCChannel(OracleRPCChannel, BatchedRPCChannel):
    """Batched channel deduplicating every new-id batch with ``np.unique``."""

    def remote_pull(self, global_ids, owners):
        if not self.window.active:
            return super().remote_pull(global_ids, owners)
        global_ids, owners = self._validate_remote_pull(global_ids, owners)
        if len(global_ids) == 0:
            return self._empty_pull_result()

        dim = self.servers[self.local_part].feature_dim
        window = self.window
        new_mask = ~window.contains(global_ids)
        num_new = 0
        opened = 0
        if np.any(new_mask):
            unique_new, first = np.unique(global_ids[new_mask], return_index=True)
            unique_owners = owners[new_mask][first]
            fetched = np.zeros((len(unique_new), dim), dtype=np.float32)
            for owner in np.unique(unique_owners):
                mask = unique_owners == owner
                fetched[mask] = self._pull_from_owner(int(owner), unique_new[mask])
                if not window.owner_contacted(int(owner)):
                    window.note_owner(int(owner))
                    opened += 1
            window.add(unique_new, fetched)
            num_new = int(len(unique_new))

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

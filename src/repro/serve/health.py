"""Per-shard heartbeats and health states for the streaming service.

A shard is ``live`` while it keeps completing work, ``stale`` when it has
not heartbeated within ``stale_after`` seconds, ``respawning`` while the
Supervisor is retrying a failed attempt, and ``dead`` once its retries
are exhausted.  The board is bookkeeping only — pure dicts and floats,
cheap enough to run unconditionally — and is *surfaced* through
:class:`~repro.serve.service.ServeReport` and the live ``health``
section of the record stream.

State machine per shard::

    live ──(no beat for stale_after)──▶ stale
    live/stale ──(attempt failed, retry scheduled)──▶ respawning
    respawning ──(attempt succeeded)──▶ live
    any ──(attempts exhausted)──▶ dead          (terminal)

``stale`` is derived, not stored: it is computed from the last beat at
read time, so an idle-but-healthy service degrades to ``stale`` in the
dashboard without anyone ticking a state machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: Every state a shard can report, in rough order of concern.
HEALTH_STATES = ("live", "stale", "respawning", "dead")


@dataclass
class _ShardRecord:
    state: str = "live"
    last_beat: float = 0.0  # monotonic time of the last completed work
    beats: int = 0
    respawns: int = 0


@dataclass
class ShardHealthBoard:
    """Heartbeat ledger for a fixed set of shards (0..shards-1)."""

    shards: int
    stale_after: float = 5.0
    _records: dict[int, _ShardRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stale_after <= 0:
            raise ValueError(
                f"stale_after must be positive, got {self.stale_after}"
            )
        now = time.monotonic()
        # Shards start live from "now": they have not had a chance to
        # beat yet, and a service that never dispatches to some shard
        # will show it decaying to stale — which is the honest answer.
        self._records = {
            shard: _ShardRecord(last_beat=now) for shard in range(int(self.shards))
        }

    # ------------------------------------------------------------------
    def beat(self, shard: int) -> None:
        """A shard completed work; dead shards stay dead."""
        record = self._records[shard]
        record.beats += 1
        record.last_beat = time.monotonic()
        if record.state != "dead":
            record.state = "live"

    def respawning(self, shard: int) -> None:
        """An attempt failed and the Supervisor scheduled a retry."""
        record = self._records[shard]
        record.respawns += 1
        if record.state != "dead":
            record.state = "respawning"

    def dead(self, shard: int) -> None:
        """The shard exhausted its attempts (terminal)."""
        self._records[shard].state = "dead"

    # ------------------------------------------------------------------
    def state_of(self, shard: int, now: float | None = None) -> str:
        record = self._records[shard]
        if record.state == "live":
            now = time.monotonic() if now is None else now
            if now - record.last_beat > self.stale_after:
                return "stale"
        return record.state

    def states(self, now: float | None = None) -> dict[int, str]:
        now = time.monotonic() if now is None else now
        return {shard: self.state_of(shard, now) for shard in self._records}

    def respawn_counts(self) -> dict[int, int]:
        return {shard: record.respawns for shard, record in self._records.items()}

    def snapshot(self, now: float | None = None) -> dict[str, dict]:
        """JSON-ready view for the live ``health`` section."""
        now = time.monotonic() if now is None else now
        return {
            str(shard): {
                "state": self.state_of(shard, now),
                "beats": record.beats,
                "respawns": record.respawns,
                "seconds_since_beat": round(max(0.0, now - record.last_beat), 3),
            }
            for shard, record in self._records.items()
        }

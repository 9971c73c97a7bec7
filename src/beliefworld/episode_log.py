"""Episode logs: line-delimited records with stable ordering, and metrics.

One record per frame-with-event, serialized as JSON with sorted keys so a
log file is byte-stable and hashable.  Record kinds:

``header``
    once, frame 0: ``scenario``, ``seed``, ``mode``, ``backend``,
    ``agents``, ``cooldown``, ``frame_budget``, ``reveal_fraction``, the
    consensus ``rules``, ``consensus_rounds`` and ``consensus_fallbacks``.
``decision``
    one per decision tick, as :meth:`AgentMind.decide` builds it:
    ``tick``, ``snapshot_hash`` of the beliefs decided on, the current
    ``plan``, the pairwise miscoordination ``reports``, the plans the inbox
    ``declared``, ``comm_allowed`` (the cooldown's verdict), the
    ``decision`` taken (``idle``, ``act`` with its ``action``, or
    ``communicate`` with its ``message``) and the tick's reasoner
    ``fallbacks``.
``message_sent``
    a broadcast: ``text`` and ``recipients``.
``action_start`` / ``action_done``
    a physical action starting or completing: ``action``.
``action_rejected``
    an action the simulator refused: ``action`` and ``detail``.
``done``
    once: completion ``reason``, ``transported`` and ``total_targets``.

All metrics are recomputed from the records alone; there is no hidden
state to disagree with the persisted file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path


class LogError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (log line {line})")
        self.line = line


@dataclass
class EpisodeLog:
    records: list[dict] = field(default_factory=list)

    def append(self, frame: int, agent: str | None, kind: str, payload: dict) -> None:
        self.records.append(
            {"frame": frame, "agent": agent, "kind": kind, "payload": payload}
        )

    def to_text(self) -> str:
        return "".join(
            json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
            for record in self.records
        )

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def read(cls, path: str | Path) -> "EpisodeLog":
        log = cls()
        for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogError(f"bad JSON: {exc.msg}", lineno) from None
            if not isinstance(record, dict) or "kind" not in record:
                raise LogError("record is not an event object", lineno)
            log.records.append(record)
        return log

    def of_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["kind"] == kind]


@dataclass(frozen=True)
class EpisodeMetrics:
    transport_rate: float
    frames_used: int
    decision_ticks: int
    comm_tokens: int
    comm_chars: int
    messages_sent: int
    rejected_actions: int
    reasoner_fallbacks: int

    def to_dict(self) -> dict:
        return asdict(self)


def metrics(log: EpisodeLog) -> EpisodeMetrics:
    """Compute episode metrics exactly from the log records.

    Communication cost counts whitespace-delimited tokens over every sent
    message; rejected actions count the ``action_rejected`` records; a
    missing or malformed terminal record is an error.
    """
    done = log.of_kind("done")
    if len(done) != 1:
        line = len(log.records)
        raise LogError("log must contain exactly one done record", line)
    payload = done[0]["payload"]
    try:
        total = int(payload["total_targets"])
        transported = int(payload["transported"])
        frames_used = int(done[0]["frame"])
    except (KeyError, TypeError, ValueError):
        raise LogError("done record lacks transport counts", len(log.records)) from None
    if total <= 0:
        raise LogError("done record reports no targets", len(log.records))

    comm_tokens = comm_chars = messages_sent = 0
    for record in log.of_kind("message_sent"):
        text = record["payload"].get("text", "")
        messages_sent += 1
        comm_tokens += len(text.split())
        comm_chars += len(text)

    decisions = log.of_kind("decision")
    fallbacks = sum(int(r["payload"].get("fallbacks", 0)) for r in decisions)
    for header in log.of_kind("header"):
        fallbacks += int(header["payload"].get("consensus_fallbacks", 0))

    return EpisodeMetrics(
        transport_rate=transported / total,
        frames_used=frames_used,
        decision_ticks=len(decisions),
        comm_tokens=comm_tokens,
        comm_chars=comm_chars,
        messages_sent=messages_sent,
        rejected_actions=len(log.of_kind("action_rejected")),
        reasoner_fallbacks=fallbacks,
    )

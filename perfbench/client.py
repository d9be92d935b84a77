"""The wire client the service workloads share, and the direct-session
oracle their outputs are checked against.

A client sends one JSON envelope through the service's own
``serve_jsonl`` entry point and awaits its reply, so every request goes
through wire decode, admission, the queue hand-off and encode, in
process and on the service's event loop (no sockets, no threads).
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterable

from perfbench import checks
from perfbench.harness import Outcome


class WireClient:
    """Sends requests to one service and keeps the run's request counts:
    each request's latency and label, submits offered, shed replies by
    reason, and error replies as failures."""

    def __init__(self, service, outcome: Outcome):
        self.service = service
        self.out = outcome

    async def send(
        self,
        tenant: str,
        kind: str,
        payload: str,
        seq: int | None = None,
        label: str | None = None,
    ) -> dict[str, Any]:
        """Send one record (``payload`` is its JSON text, ``kind`` its
        wire kind) and return the reply.  ``label`` names the request's
        population in the latency histogram (default: ``kind``)."""
        import repro.service.server as server_mod

        out = self.out
        if seq is None:
            envelope = '{"tenant": "%s", "request": %s}' % (tenant, payload)
        else:
            envelope = '{"tenant": "%s", "seq": %d, "request": %s}' % (tenant, seq, payload)
        box: list[str] = []
        t0 = time.perf_counter()
        await server_mod.serve_jsonl(self.service, (envelope,), box.append)
        out.latencies.append(time.perf_counter() - t0)
        out.kinds.append(label or kind)
        reply = json.loads(box[0])["reply"]
        if kind == "submit_task":
            out.submits_offered += 1
        if reply["kind"] == "shed":
            out.shed += 1
            out.shed_reasons[reply["reason"]] = out.shed_reasons.get(reply["reason"], 0) + 1
        elif reply["kind"] == "error":
            out.failed += 1
            out.failures.append(f"{tenant}{'' if seq is None else f' #{seq}'}: error reply {reply}")
        return reply


def direct_assignments(method: str, config, records: Iterable[Any]) -> list[tuple]:
    """The assignments an uninterrupted direct ``DispatchSession`` decides
    when fed ``records`` (wire records, without the opening one) in order:
    every drain's, then what a ``Finish`` leaves to drain."""
    from repro.api.session import DispatchSession
    from repro.api.wire import Drain, Finish

    session = DispatchSession(method, config)
    found: list[tuple] = []
    for record in records:
        outcome = session.apply(record)
        if isinstance(record, Drain):
            found.extend(checks.as_tuple(a) for a in outcome)
        elif isinstance(record, Finish):
            found.extend(checks.as_tuple(a) for a in session.drain())
    session.close()
    return found

"""Closed-loop clients over the public ``ServeServer`` API.

One process, one event loop, one thread.  ``clients`` callers each
send their next request, in trace order, as soon as the previous one
returns.  A request is *due* the moment the server finished its
caller's previous one.  Every latency is timed from that instant, so
time the event loop adds before the caller can send (the server's
synchronous ``step()`` runs on the same loop) shows up in TTFT.  How
late each send went out is recorded too.

Nothing here reads server internals.  Outcomes come back through
``ServeServer.generate`` and its structured errors only, and every
request sent is accounted for: completed, shed, expired or errored.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.load import RequestSpec
from repro.serve import DeadlineExceeded, GenerationConfig, Overloaded, ServeServer

OUTCOMES = ("completed", "shed", "expired", "error")


@dataclass
class Outcome:
    """What became of one scripted request."""

    index: int
    outcome: str
    #: Seconds after the run start the request was due / actually sent.
    due_s: float
    sent_s: float
    #: Time to first token and end-to-end latency, both from ``due_s``.
    ttft_s: Optional[float] = None
    latency_s: Optional[float] = None
    tokens: Optional[List[int]] = None
    error: Optional[str] = None

    @property
    def late_s(self) -> float:
        return self.sent_s - self.due_s

    @property
    def tbt_s(self) -> Optional[float]:
        """Mean time between output tokens after the first."""
        if self.tokens is None or len(self.tokens) < 2:
            return None
        return (self.latency_s - self.ttft_s) / (len(self.tokens) - 1)


@dataclass
class RunResult:
    #: In trace order.
    outcomes: List[Outcome]
    #: From the start of the run to the last reply.
    wall_s: float

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcomes if o.outcome == outcome)


async def _one(server: ServeServer, spec: RequestSpec, out: Outcome) -> None:
    try:
        res = await server.generate(
            spec.prompt,
            GenerationConfig(max_new_tokens=spec.max_new_tokens, temperature=0.0),
            deadline_s=spec.deadline_s,
            tier=spec.tier,
        )
    except Overloaded as e:
        out.outcome, out.error = "shed", repr(e)
    except DeadlineExceeded as e:
        out.outcome, out.error = "expired", repr(e)
    except Exception as e:  # counted as failed; the repr is kept for the report
        out.outcome, out.error = "error", repr(e)
    else:
        # The server stamps its clock at submit, which happens
        # synchronously at ``sent_s``; rebase its timings onto ``due_s``.
        out.outcome = "completed"
        out.tokens = list(res.tokens)
        out.ttft_s = out.sent_s + res.ttft_s - out.due_s
        out.latency_s = out.sent_s + res.latency_s - out.due_s


async def drive(server: ServeServer, trace: Sequence[RequestSpec], clients: int) -> RunResult:
    """Run ``trace`` to the end through ``clients`` callers against a
    started ``server``; raises if any request sent lacks an outcome."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    outcomes: List[Outcome] = []
    queue = iter(range(len(trace)))

    async def client() -> None:
        due = 0.0
        for i in queue:
            out = Outcome(i, "pending", due_s=due, sent_s=loop.time() - t0)
            outcomes.append(out)
            await _one(server, trace[i], out)
            # The next request is due when this reply was ready on the
            # server, however long the loop took to hand it back.
            due = due + out.latency_s if out.latency_s is not None else loop.time() - t0

    await asyncio.gather(*(client() for _ in range(clients)))
    lost = [o.index for o in outcomes if o.outcome not in OUTCOMES]
    if lost or len(outcomes) != len(trace):
        raise RuntimeError(f"requests lost: {lost}")
    outcomes.sort(key=lambda o: o.index)
    return RunResult(outcomes, loop.time() - t0)


def serve_trace(engine, trace: Sequence[RequestSpec], clients: int,
                max_batch_tokens: int = 512) -> RunResult:
    """Start a ``ServeServer`` over ``engine``, drive ``trace``, stop it."""

    async def main() -> RunResult:
        server = ServeServer(engine, max_batch_tokens=max_batch_tokens)
        await server.start()
        try:
            return await drive(server, trace, clients)
        finally:
            await server.stop()

    return asyncio.run(main())

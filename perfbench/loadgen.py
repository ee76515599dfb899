"""Open-loop HTTP load generator: two connection threads, one process.

Every job is sent at its scheduled time whether or not earlier jobs have
finished, so a slow server builds a queue instead of slowing the
offered load.  After ``POST /v1/jobs`` is accepted the client asks for
``GET /v1/jobs/<id>/result`` at once and then every ``poll_interval``
seconds until the result is in hand.  A job's latency runs from its
scheduled send time to that moment, so time a send waited for a busy
connection counts; how late sends went out is reported separately as
the generator's own lag.
"""

from __future__ import annotations

import heapq
import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from workloads import Job

_POST, _GET = 0, 1

#: connection threads sending and polling (``nproc`` = 2)
CONNECTIONS = 2
#: jobs unresolved this long after the last scheduled send are timeouts
GRACE_S = 30.0
#: head start between building the schedule and its first send
LEAD_S = 0.2


@dataclass
class Outcome:
    job: Job
    job_id: Optional[int] = None
    send_lag: Optional[float] = None
    done_at: Optional[float] = None
    polls: int = 0
    payload: Optional[dict] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.payload is not None and self.error is None


class _Schedule:
    """Due operations shared by the connection threads."""

    def __init__(self, jobs: List[Job], t0: float):
        self.cond = threading.Condition()
        self.heap: list = []
        self.seq = itertools.count()
        self.remaining = len(jobs)
        self.outcomes = [Outcome(job) for job in jobs]
        for outcome in self.outcomes:
            self.push(t0 + outcome.job.at, _POST, outcome)

    def push(self, due: float, kind: int, outcome: Outcome) -> None:
        heapq.heappush(self.heap, (due, kind, next(self.seq), outcome))

    def finish(self, outcome: Outcome, error: Optional[str] = None) -> None:
        with self.cond:
            if error is not None:
                outcome.error = error
            self.remaining -= 1
            self.cond.notify_all()

    def next_due(self, deadline: float):
        """Block until an operation is due; ``None`` when all are done."""
        with self.cond:
            while True:
                if self.remaining == 0:
                    return None
                now = time.perf_counter()
                if now > deadline:
                    return None
                if self.heap and self.heap[0][0] <= now:
                    return heapq.heappop(self.heap)
                wait = self.heap[0][0] - now if self.heap else 0.05
                self.cond.wait(min(wait, deadline - now))


def request(host, port, method: str, path: str, body: Optional[bytes] = None):
    """One request on its own connection.

    The server writes a response's headers and body in two sends, so on
    a kept-alive connection every response waits out the client's
    delayed ACK (about 40 ms on Linux); a fresh connection per request
    avoids that stall, as ``urllib`` clients do.
    """
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _connection_loop(host, port, schedule: _Schedule, poll_interval, deadline):
    while True:
        op = schedule.next_due(deadline)
        if op is None:
            return
        due, kind, _, outcome = op
        try:
            if kind == _POST:
                outcome.send_lag = time.perf_counter() - due
                status, data = request(
                    host, port, "POST", "/v1/jobs",
                    json.dumps(outcome.job.body()).encode(),
                )
                if status != 202:
                    schedule.finish(outcome, f"POST {status}")
                    continue
                outcome.job_id = json.loads(data)["job_id"]
                with schedule.cond:
                    schedule.push(time.perf_counter(), _GET, outcome)
                    schedule.cond.notify_all()
                continue
            outcome.polls += 1
            status, data = request(
                host, port, "GET", f"/v1/jobs/{outcome.job_id}/result"
            )
            if status == 409:
                with schedule.cond:
                    schedule.push(time.perf_counter() + poll_interval, _GET, outcome)
                    schedule.cond.notify_all()
                continue
            if status != 200:
                schedule.finish(outcome, f"GET {status}")
                continue
            outcome.done_at = time.perf_counter()
            outcome.payload = json.loads(data)
            schedule.finish(outcome)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            schedule.finish(outcome, f"{type(exc).__name__}: {exc}")


def run_open_loop(host: str, port: int, jobs: List[Job], poll_interval: float):
    """Send ``jobs`` at their ``at`` offsets; returns ``(outcomes, t0)``."""
    t0 = time.perf_counter() + LEAD_S
    schedule = _Schedule(jobs, t0)
    deadline = t0 + max((j.at for j in jobs), default=0.0) + GRACE_S
    threads = [
        threading.Thread(
            target=_connection_loop,
            args=(host, port, schedule, poll_interval, deadline),
            daemon=True,
        )
        for _ in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=deadline - time.perf_counter() + GRACE_S)
    for outcome in schedule.outcomes:
        if outcome.payload is None and outcome.error is None:
            outcome.error = "timeout"
    return schedule.outcomes, t0


def run_closed_loop(host: str, port: int, jobs: List[Job], poll_interval: float):
    """Send ``jobs`` one at a time, each after the previous result."""
    outcomes = []
    for job in jobs:
        outcome = Outcome(job)
        outcomes.append(outcome)
        status, data = request(
            host, port, "POST", "/v1/jobs", json.dumps(job.body()).encode()
        )
        if status != 202:
            outcome.error = f"POST {status}"
            continue
        outcome.job_id = json.loads(data)["job_id"]
        while True:
            outcome.polls += 1
            status, data = request(
                host, port, "GET", f"/v1/jobs/{outcome.job_id}/result"
            )
            if status != 409:
                break
            time.sleep(poll_interval)
        if status == 200:
            outcome.payload = json.loads(data)
        else:
            outcome.error = f"GET {status}"
    return outcomes

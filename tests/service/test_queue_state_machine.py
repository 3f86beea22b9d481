"""The durable job queue as a hypothesis state machine.

Random sequences of the operations the service performs on its queue —
submit, resubmit, claim, complete, fail, retry, cancel and recover (on the
live queue or by a restart over the same spool) — run against a model of
each job's state and backoff deadline.  After every step the queue must
agree with the model, and :meth:`DurableJobQueue.depth`, which the load
shedder reads on every request, must equal a recount of the non-terminal
jobs.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.exceptions import QueueFullError
from repro.service.models import Job, JobState
from repro.service.queue import DurableJobQueue

JOB_IDS = [f"{index:016x}" for index in range(5)]
MAX_DEPTH = 3
TERMINAL = (JobState.DONE, JobState.DEAD)


class QueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.spool = tempfile.mkdtemp(prefix="queue-machine-")
        self.queue = DurableJobQueue(self.spool, max_depth=MAX_DEPTH)
        #: job id -> [state, not_before_s]
        self.model: dict = {}
        self.now = 0.0

    def teardown(self):
        shutil.rmtree(self.spool, ignore_errors=True)

    def _ids(self, *states) -> list:
        return sorted(job_id for job_id, (state, _) in self.model.items() if state in states)

    def _active(self) -> int:
        return sum(1 for state, _ in self.model.values() if state not in TERMINAL)

    def _move(self, job_id: str, state: str, **kwargs) -> None:
        job = self.queue.transition(job_id, state, **kwargs)
        self.model[job_id][0] = state
        if "not_before_s" in kwargs:
            self.model[job_id][1] = kwargs["not_before_s"]
        assert job.state == state

    # ------------------------------------------------------------------ rules
    @rule(job_id=st.sampled_from(JOB_IDS))
    def submit(self, job_id):
        try:
            job, created = self.queue.submit(
                Job(job_id=job_id, experiment="table1", options=None)
            )
        except QueueFullError as error:
            assert job_id not in self.model
            assert error.depth == self._active() >= MAX_DEPTH
            return
        assert created == (job_id not in self.model)
        if created:
            self.model[job_id] = [JobState.QUEUED, 0.0]
        assert job.state == self.model[job_id][0]

    @precondition(lambda self: self._ids(*TERMINAL))
    @rule(data=st.data())
    def resubmit(self, data):
        job_id = data.draw(st.sampled_from(self._ids(*TERMINAL)))
        job = self.queue.resubmit(job_id)
        assert job.state == JobState.QUEUED and job.not_before_s == 0.0
        self.model[job_id] = [JobState.QUEUED, 0.0]

    @rule()
    def claim(self):
        eligible = [
            job_id
            for job_id in self._ids(JobState.QUEUED)
            if self.model[job_id][1] <= self.now
        ]
        expected = min(
            eligible,
            key=lambda job_id: (self.queue.get(job_id).created_s, job_id),
            default=None,
        )
        job = self.queue.claim_next(now_s=self.now)
        assert (job and job.job_id) == expected
        if job is not None:
            assert job.state == JobState.RUNNING
            self.model[job.job_id][0] = JobState.RUNNING

    @precondition(lambda self: self._ids(JobState.RUNNING))
    @rule(data=st.data())
    def complete(self, data):
        self._move(data.draw(st.sampled_from(self._ids(JobState.RUNNING))), JobState.DONE)

    @precondition(lambda self: self._ids(JobState.RUNNING))
    @rule(data=st.data())
    def fail(self, data):
        job_id = data.draw(st.sampled_from(self._ids(JobState.RUNNING)))
        self._move(job_id, JobState.FAILED, error="boom", charge_attempt=True)

    @precondition(lambda self: self._ids(JobState.FAILED))
    @rule(data=st.data(), backoff_s=st.sampled_from([0.0, 5.0]))
    def retry(self, data, backoff_s):
        job_id = data.draw(st.sampled_from(self._ids(JobState.FAILED)))
        self._move(job_id, JobState.QUEUED, not_before_s=self.now + backoff_s)

    @precondition(lambda self: self._ids(JobState.QUEUED, JobState.RUNNING))
    @rule(data=st.data())
    def cancel(self, data):
        job_id = data.draw(st.sampled_from(self._ids(JobState.QUEUED, JobState.RUNNING)))
        self._move(job_id, JobState.DEAD, error="cancelled")

    @rule(seconds=st.sampled_from([1.0, 10.0]))
    def tick(self, seconds):
        self.now += seconds

    @rule(restart=st.booleans())
    def recover(self, restart):
        if restart:
            self.queue = DurableJobQueue(self.spool, max_depth=MAX_DEPTH)
        else:
            self.queue.recover()
        for entry in self.model.values():
            if entry[0] in (JobState.RUNNING, JobState.FAILED):
                entry[0] = JobState.QUEUED
            if entry[0] == JobState.QUEUED:
                entry[1] = 0.0

    # ------------------------------------------------------------- invariants
    @invariant()
    def depth_equals_a_recount(self):
        jobs = self.queue.jobs()
        assert self.queue.depth() == sum(1 for job in jobs if not job.terminal)
        assert self.queue.depth() == self._active()

    @invariant()
    def records_match_the_model(self):
        assert {job.job_id: [job.state, job.not_before_s] for job in self.queue.jobs()} == (
            self.model
        )


TestQueueMachine = QueueMachine.TestCase
TestQueueMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)

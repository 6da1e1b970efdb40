"""Reliable (at-least-once) event queues.

Principle 2.4: process steps are connected by events, delivered by
"reliable message queue specifications and products, such as the Java
Message Service.  For unreliable messaging, at-least-once delivery can
be used with idempotence."

:class:`ReliableQueue` implements the at-least-once contract on the
simulator: a delivered message that is not acknowledged (handler returns
``False`` or raises) is redelivered after a timeout, up to a retry cap,
after which it parks on a dead-letter list for operator attention.
Duplicate deliveries are *expected* under this contract — pair consumers
with :class:`~repro.queues.idempotence.IdempotentReceiver`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.core.policy import RetryPolicy, TimeoutPolicy
from repro.queues.message import Message, next_message_id
from repro.sim.scheduler import Simulator

Handler = Callable[[Message], bool]

#: Reusable no-op context for the tracing-off delivery path.
_NULL_CTX = nullcontext()


@dataclass
class QueueStats:
    """Counters describing a queue's delivery behaviour."""

    enqueued: int = 0
    delivered: int = 0
    acked: int = 0
    redelivered: int = 0
    dead_lettered: int = 0
    handler_failures: int = 0
    deadline_expired: int = 0


class ReliableQueue:
    """An at-least-once topic queue on the simulator.

    Args:
        sim: The simulator providing time and scheduling.
        name: Diagnostic name.
        delivery_delay: Virtual time between enqueue and the delivery
            attempt (models broker/network hop).
        retry: The :class:`~repro.core.policy.RetryPolicy` governing
            redelivery of unacked messages: ``base_delay``/``backoff``
            set the redelivery wait, ``max_attempts`` the dead-letter
            cap, and an attached budget sheds redeliveries under retry
            storms.  Default: 5 fixed attempts, 10.0 apart.
        timeout: The :class:`~repro.core.policy.TimeoutPolicy` whose
            ``overall`` limit becomes the default message deadline — a
            message still undelivered past its deadline is parked with a
            ``deadline_expired`` verdict instead of being retried.
        ack_loss_probability: Probability that a *successful* handler
            run's ack is lost (consumer crashed after processing, before
            acknowledging) — the classic source of duplicates that
            motivates idempotent receivers.

    Example:
        >>> sim = Simulator()
        >>> queue = ReliableQueue(sim)
        >>> seen = []
        >>> queue.subscribe("greeting", lambda m: seen.append(m.payload) or True)
        >>> _ = queue.enqueue("greeting", {"text": "hi"})
        >>> _ = sim.run()
        >>> seen
        [{'text': 'hi'}]
    """

    #: Default redelivery behaviour (the historical constructor values).
    DEFAULT_RETRY = RetryPolicy(max_attempts=5, base_delay=10.0)

    def __init__(
        self,
        sim: Simulator,
        name: str = "queue",
        delivery_delay: float = 0.0,
        ack_loss_probability: float = 0.0,
        tracer=None,
        metrics=None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[TimeoutPolicy] = None,
    ):
        self.sim = sim
        self.name = name
        self.delivery_delay = delivery_delay
        self.retry_policy = retry if retry is not None else self.DEFAULT_RETRY
        self.timeout_policy = timeout if timeout is not None else TimeoutPolicy.none()
        # Hot-path cache: a trivial policy redelivers after a constant
        # wait, exactly like the pre-policy queue — no per-delivery
        # policy evaluation.
        self._fixed_redelivery: Optional[float] = (
            self.retry_policy.base_delay if self.retry_policy.is_trivial else None
        )
        self._default_deadline_in = self.timeout_policy.overall
        #: Deadline stamped onto enqueues that do not carry their own —
        #: the process engine sets this while a step (and its commit-time
        #: outbox publish) runs, so follow-up events inherit the
        #: triggering message's deadline.
        self.ambient_deadline: Optional[float] = None
        self.ack_loss_probability = ack_loss_probability
        self.stats = QueueStats()
        self.dead_letters: list[Message] = []
        self._handlers: dict[str, list[Handler]] = {}
        self._rng = sim.fork_rng()
        self._acked_ids: set[str] = set()
        # Observability handles default from the simulator (one traced
        # simulator => every queue on it is traced).
        self.tracer = tracer if tracer is not None else sim.tracer
        self.metrics = metrics if metrics is not None else sim.metrics
        if self.metrics is not None:
            counter = self.metrics.counter
            self._m_enqueued = counter("queue.enqueued", queue=name)
            self._m_delivered = counter("queue.delivered", queue=name)
            self._m_redelivered = counter("queue.redelivered", queue=name)
            self._m_dead = counter("queue.dead_lettered", queue=name)
            self._m_deadline = counter("queue.deadline_expired", queue=name)
        else:
            self._m_enqueued = self._m_delivered = None
            self._m_redelivered = self._m_dead = self._m_deadline = None

    def subscribe(self, topic: str, handler: Handler) -> None:
        """Register ``handler`` for ``topic``.

        The handler returns ``True`` to acknowledge; ``False`` or an
        exception triggers redelivery.  Multiple handlers on one topic
        each receive the message; the message is acked only when *all*
        acknowledge in the same attempt.
        """
        self._handlers.setdefault(topic, []).append(handler)

    def enqueue(
        self,
        topic: str,
        payload: Mapping[str, Any],
        message_id: Optional[str] = None,
        causation_id: str = "",
        deadline: Optional[float] = None,
    ) -> Message:
        """Enqueue a message for delivery to ``topic`` subscribers.

        Enqueue is always a *local* operation (principle 2.6's note:
        queue operations are never distributed transactions).

        ``deadline`` (absolute virtual time) bounds how long delivery
        may be retried; unset, it falls back to the ambient deadline of
        the step currently running (if any), then to the queue's
        ``timeout.overall`` policy.
        """
        tracer = self.tracer
        trace_id = span_id = ""
        if tracer is not None:
            span = tracer.start_span(
                "queue.enqueue", node=self.name, topic=topic,
            )
            tracer.end_span(span)
            trace_id, span_id = span.trace_id, span.span_id
        if deadline is None:
            deadline = self.ambient_deadline
            if deadline is None and self._default_deadline_in is not None:
                deadline = self.sim.now + self._default_deadline_in
        message = Message(
            message_id=message_id or next_message_id(),
            topic=topic,
            payload=dict(payload),
            enqueue_time=self.sim.now,
            causation_id=causation_id,
            trace_id=trace_id,
            span_id=span_id,
            deadline=deadline,
        )
        self.stats.enqueued += 1
        if self._m_enqueued is not None:
            self._m_enqueued.inc()
        self._schedule_delivery(message, self.delivery_delay)
        return message

    def _schedule_delivery(self, message: Message, delay: float) -> None:
        self.sim.schedule(
            delay,
            lambda: self._deliver(message),
            label=f"{self.name}:{message.topic}",
        )

    def _deliver(self, message: Message) -> None:
        if message.message_id in self._acked_ids:
            return
        if message.deadline is not None and self.sim.now > message.deadline:
            # The operation this event belongs to has already missed its
            # deadline: retrying would waste work the caller gave up on.
            self.stats.deadline_expired += 1
            self.dead_letters.append(message)
            if self._m_deadline is not None:
                self._m_deadline.inc()
            return
        handlers = self._handlers.get(message.topic, [])
        message.attempts += 1
        self.stats.delivered += 1
        if self._m_delivered is not None:
            self._m_delivered.inc()
        tracer = self.tracer
        span = None
        if tracer is not None and message.span_id:
            # Handlers run inside a delivery span chained to the enqueue
            # span, so consumer-side work joins the producer's trace.
            span = tracer.start_span(
                "queue.deliver",
                parent=message.span_id,
                node=self.name,
                topic=message.topic,
                attempt=message.attempts,
            )
        success = bool(handlers)
        with tracer.resume(span.span_id) if span is not None else _NULL_CTX:
            for handler in handlers:
                try:
                    if not handler(message):
                        success = False
                except Exception:
                    self.stats.handler_failures += 1
                    success = False
        if success and self.ack_loss_probability > 0 and self._rng.coin(
            self.ack_loss_probability
        ):
            # Processing happened but the ack was lost: at-least-once
            # semantics say redeliver; idempotent receivers absorb it.
            success = False
        if success:
            self.stats.acked += 1
            self._acked_ids.add(message.message_id)
            if span is not None:
                tracer.end_span(span, status="acked")
        elif not self.retry_policy.allows_retry(message.attempts):
            self.stats.dead_lettered += 1
            self.dead_letters.append(message)
            if self._m_dead is not None:
                self._m_dead.inc()
            if span is not None:
                tracer.end_span(span, status="dead_lettered")
        else:
            self.stats.redelivered += 1
            if self._m_redelivered is not None:
                self._m_redelivered.inc()
            if span is not None:
                tracer.end_span(span, status="redelivering")
            wait = (
                self._fixed_redelivery
                if self._fixed_redelivery is not None
                else self.retry_policy.delay(message.attempts, self._rng)
            )
            self._schedule_delivery(message, wait)

    @property
    def pending_ack(self) -> int:
        """Messages enqueued but neither acked nor parked (dead-letter
        cap or expired deadline)."""
        return (
            self.stats.enqueued
            - self.stats.acked
            - self.stats.dead_lettered
            - self.stats.deadline_expired
        )

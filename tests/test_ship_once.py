"""Ship once: an efficiency invariant with exact fault-free expectations.

"Was the work necessary?"  Idempotent apply makes at-least-once
shipping *safe*; it does not make it free.  Each replica node owns one
send cursor per destination, pushes and probe answers both start from
it, so a fault-free run puts every event on the wire exactly once — no
store rejects a duplicate and the network carries exactly the rows the
replicas received.  The probe stays as the repair path: a frame lost in
flight is re-shipped once the peer still lacks it a whole probe period
after it was sent, and the repair costs no more than the lost run plus
what was shipped behind it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.merge.deltas import Delta
from repro.replication.batching import BatchPolicy
from repro.replication.replica import converged

SHIP_INTERVAL = 10.0
LATENCY = 2.0


def build(mode: str, replicas: int, *, seed: int = 5, loss: float = 0.0, **options):
    return (
        Cluster.build(seed=seed)
        .with_network(latency=LATENCY, loss_probability=loss)
        .with_replicas(replicas, mode=mode, **options)
        .create()
    )


def nodes_of(group):
    if hasattr(group, "replica_list"):
        return group.replica_list()
    return [group.master, *group.slaves.values()]


def schedule_writes(cluster, count: int, spacing: float) -> None:
    """``count`` deltas of 1..count on seven keys, ``spacing`` apart;
    active/active spreads them round-robin over its replicas."""
    group = cluster.replication
    writers = [node.node_id for node in nodes_of(group)]

    def write(index: int) -> None:
        target = ("acct", f"k{index % 7}", Delta.add("bal", index + 1))
        if hasattr(group, "replicas"):
            group.write_delta(writers[index % len(writers)], *target)
        else:
            group.write_delta(*target)

    for index in range(count):
        cluster.sim.schedule_at(
            index * spacing, lambda i=index: write(i), label="write"
        )


def total_balance(node) -> int:
    return sum(fields["bal"] for fields in node.observable_state().values())


# ---------------------------------------------------------------------- #
# Fault-free: every event crosses the wire once
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "mode, replicas, options, spacing",
    [
        # Writes keep arriving across seven ship rounds, so every round
        # pushes a run while the previous one's probe is answered.
        ("master_slave", 4, {"ship_interval": SHIP_INTERVAL}, 0.37),
        (
            "master_slave",
            4,
            {"ship_interval": SHIP_INTERVAL, "batching": BatchPolicy(max_batch=8)},
            0.37,
        ),
        # "async": one slave, the primary/backup pair.
        ("master_slave", 2, {"ship_interval": SHIP_INTERVAL}, 0.37),
        # Eager propagation: the burst lands before the first gossip
        # round, which must then find nothing left to send.
        ("active_active", 3, {}, 0.05),
    ],
    ids=["master_slave", "master_slave_max8", "async", "active_active"],
)
def test_fault_free_burst_ships_every_event_once(mode, replicas, options, spacing):
    writes = 200
    cluster = build(mode, replicas, **options)
    schedule_writes(cluster, writes, spacing)
    cluster.sim.run(until=300.0)

    nodes = nodes_of(cluster.replication)
    assert converged(nodes)
    assert total_balance(nodes[0]) == writes * (writes + 1) // 2
    assert [node.store.duplicates_rejected for node in nodes] == [0] * len(nodes)
    received = sum(node.events_received for node in nodes)
    assert received == writes * (replicas - 1)
    assert cluster.network.stats.frame_payloads == received
    assert cluster.network.stats.dropped == 0


def test_probe_in_the_push_round_is_answered_past_the_cursor():
    """The mechanism, on two nodes: a probe whose vector predates the
    push ships only what was written since the push."""
    cluster = build("master_slave", 2, ship_interval=SHIP_INTERVAL)
    group = cluster.replication
    master = group.master
    (slave,) = group.slaves.values()
    for index in range(5):
        group.write_delta("acct", "k", Delta.add("bal", 1))
    cluster.sim.run(until=SHIP_INTERVAL)  # push of 1..5 and the probe leave
    assert master._sent[slave.node_id] == {"master": 5}
    group.write_delta("acct", "k", Delta.add("bal", 1))  # lands before the probe
    cluster.sim.run(until=SHIP_INTERVAL + LATENCY)
    # The probe said "I have 0"; the answer was 6 alone, not 1..6.
    assert cluster.network.stats.frame_payloads == 6
    assert master._sent[slave.node_id] == {"master": 6}
    cluster.sim.run(until=SHIP_INTERVAL + 2 * LATENCY)
    assert slave.store.version_vector.get("master") == 6
    assert slave.store.duplicates_rejected == 0


# ---------------------------------------------------------------------- #
# Repair: a frame lost in flight
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("lost_frame", [1, 3, 4])
def test_frame_lost_in_flight_is_repaired_within_two_ship_intervals(lost_frame):
    """Drop exactly the k-th ``events`` frame on its way to the slave —
    after the master's send succeeded, so only the probes can tell."""
    writes = 60
    cluster = build(
        "master_slave",
        2,
        ship_interval=SHIP_INTERVAL,
        batching=BatchPolicy(max_batch=8),
    )
    group = cluster.replication
    (slave,) = group.slaves.values()
    sim = cluster.sim
    frames: list[tuple[float, int]] = []  # (arrival time, rows) of every events frame
    lost: dict[str, float] = {}
    handle = slave.handle_message

    def lossy(source, message):
        if message.get("type") == "events":
            frames.append((sim.now, len(message["frame"])))
            if len(frames) == lost_frame:
                lost["at"] = sim.now
                return
        handle(source, message)

    slave.handle_message = lossy
    schedule_writes(cluster, writes, 0.5)  # the last write lands at t=29.5

    while not lost:
        sim.run(until=sim.now + 1.0)
    written_by_loss = group.master.store.origin_seq
    deadline = lost["at"] + 2 * SHIP_INTERVAL
    sim.run(until=deadline)
    # Two ship intervals on, the hole is closed: the slave holds at
    # least everything that existed when the frame vanished, gap-free.
    assert slave.store.version_vector.get("master") >= written_by_loss
    assert not slave.store._reorder_buffer
    sim.run(until=300.0)
    assert converged([group.master, slave])
    assert total_balance(slave) == writes * (writes + 1) // 2

    # What the repair cost: the lost run again, plus at most the rows
    # that were shipped behind it before the loss was noticed (those sat
    # in the reorder buffer and are the only duplicates).
    lost_rows = frames[lost_frame - 1][1]
    reshipped = sum(rows for _at, rows in frames) - writes
    first_sent_after = writes - sum(rows for _at, rows in frames[:lost_frame])
    assert reshipped <= lost_rows + first_sent_after
    assert slave.store.duplicates_rejected == reshipped - lost_rows


def test_repair_waits_for_the_second_probe_not_a_timer():
    """The loss rule, step by step: the probe that travels with the lost
    push cannot tell (its vector predates the push); the next one can."""
    cluster = build("master_slave", 2, ship_interval=SHIP_INTERVAL)
    pair = cluster.replication
    primary, (backup,) = pair.master, pair.slaves.values()
    handle = backup.handle_message
    dropped = []

    def lossy(source, message):
        if message.get("type") == "events" and not dropped:
            dropped.append(message)
            return
        handle(source, message)

    backup.handle_message = lossy
    pair.write_insert("order", "o1", {"total": 9})
    cluster.sim.run(until=SHIP_INTERVAL + 2 * LATENCY)
    # First round: pushed, lost, probe answered with nothing to add.
    assert len(dropped) == 1
    assert primary._sent["slave-1"] == {"master": 1}
    assert backup.store.get("order", "o1") is None
    assert cluster.network.stats.frame_payloads == 1
    cluster.sim.run(until=2 * SHIP_INTERVAL + 2 * LATENCY)
    # Second round's probe still says 0 < the 1 sent a round ago: re-ship.
    assert cluster.network.stats.frame_payloads == 2
    assert backup.store.get("order", "o1").fields["total"] == 9
    assert backup.store.duplicates_rejected == 0


# ---------------------------------------------------------------------- #
# Any loss rate, any frame size: the repair path converges
# ---------------------------------------------------------------------- #


@settings(max_examples=20, deadline=None)
@given(
    scheme=st.sampled_from(
        [("master_slave", 3), ("master_slave", 2), ("active_active", 3)]
    ),
    loss=st.floats(min_value=0.0, max_value=0.3),
    max_batch=st.sampled_from([None, 1, 4, 16]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_lossy_runs_converge_and_lose_no_acked_write(scheme, loss, max_batch, seed):
    mode, replicas = scheme
    writes = 40
    options = {"batching": BatchPolicy(max_batch=max_batch)}
    if mode != "active_active":
        options["ship_interval"] = 5.0
    cluster = build(mode, replicas, seed=seed, loss=loss, **options)
    schedule_writes(cluster, writes, 0.7)
    cluster.sim.run(until=2500.0)  # the drain: 99 gossip rounds at 20-30 % loss

    nodes = nodes_of(cluster.replication)
    assert converged(nodes)
    # Every write was acknowledged at commit; none may be missing anywhere.
    assert total_balance(nodes[0]) == writes * (writes + 1) // 2
    if cluster.network.stats.dropped == 0 and mode != "active_active":
        assert [node.store.duplicates_rejected for node in nodes] == [0] * len(nodes)

"""Mixed consistency from one metadata-driven infrastructure.

Reproduces sections 3.1/3.2: "a system that takes business application
requirements and automatically delivers appropriate consistency levels
based on metadata."  One cluster — a master/slave deployment plus a
warehouse extract — serves three data classes at three levels, chosen
by a policy table declared once on the builder:

* ``book_stock``  — STRONG   (fulfilment must not oversell)
* ``book_order``  — BOUNDED_STALENESS (entry reads may lag the master)
* ``sales_report``— EXTRACT  (analytics run on periodic extracts)

Every read is ``cluster.read(entity_type, key)``: the application names
the data class, and the policy supplies the level.

Run with::

    python examples/mixed_consistency.py
"""

from __future__ import annotations

from repro import Cluster, ConsistencyLevel, ConsistencyPolicy

POLICIES = (
    ConsistencyPolicy("book_stock", ConsistencyLevel.STRONG,
                      rationale="fulfilment must not oversell"),
    ConsistencyPolicy("book_order", ConsistencyLevel.BOUNDED_STALENESS,
                      rationale="entry reads tolerate shipping lag",
                      max_staleness=10.0),
    ConsistencyPolicy("sales_report", ConsistencyLevel.EXTRACT,
                      rationale="analytics run on periodic extracts"),
)


def show(cluster: Cluster, label: str, entity_type: str, key: str) -> str:
    """One policy-routed read: the delivered level and what it held."""
    result = cluster.read(entity_type, key)
    value = result.fields if result else None
    return f"   {label:<19}: {result.delivered_level.value:<18} {value}"


def main() -> None:
    cluster = (
        Cluster.build(seed=5)
        .with_network(latency=2.0)
        .with_replicas(2, mode="master_slave", ship_interval=10.0)
        .with_warehouse(interval=30.0)
        .with_consistency(*POLICIES)
        .create()
    )
    sim = cluster.sim
    group = cluster.replication
    warehouse = cluster.warehouse

    print("consistency metadata (the policy table, 3.2):")
    for policy in POLICIES:
        staleness = (
            f", max_staleness={policy.max_staleness}" if policy.max_staleness else ""
        )
        print(f"   {policy.entity_type:<13} -> {policy.level.value:<18} "
              f"({policy.rationale}{staleness})")

    # Writes go to the master; the policy table only shapes reads.
    print("\nwriting stock, an order, and a daily report row...")
    group.write_insert("book_stock", "moby", {"copies": 5})
    group.write_insert("book_order", "o-1", {"customer": "ada", "status": "entered"})
    group.write_insert("sales_report", "today", {"revenue": 60})

    print("\nimmediately after the writes:")
    print(show(cluster, "STRONG  stock read", "book_stock", "moby"))
    print(show(cluster, "BOUNDED order read", "book_order", "o-1")
          + " (slave hasn't received it yet)")
    print(show(cluster, "EXTRACT report read", "sales_report", "today")
          + " (no extract taken yet)")

    sim.run(until=15.0)
    print(f"\nafter one shipping interval (t={sim.now:.0f}):")
    print(show(cluster, "BOUNDED order read", "book_order", "o-1"))
    print(f"   slave lag: {group.slave_lag_events('slave-1')} events")

    sim.run(until=35.0)
    print(f"\nafter the first warehouse extract (t={sim.now:.0f}):")
    print(show(cluster, "EXTRACT report read", "sales_report", "today"))
    print(f"   extract staleness  : {warehouse.staleness:.0f} time units "
          "(bounded by the interval)")

    print("\none infrastructure, three consistency levels — chosen by")
    print("metadata, not by hand-wired application code (3.1).")


if __name__ == "__main__":
    main()

"""Successor replication, takeover promotion and rebalance (PR 6).

The first of the three mechanisms that close Section 5.2.2's failure
sketch (the driver holds the other two, retry and degradation): with
``replication_factor=k`` every controller-side write (transaction
records, decisions, epoch records, producer-index entries,
peer-coordinator records, the allocator's counter) also ships to the
key's next ``k - 1`` live ring successors as priced ``replicate``
messages.  After :meth:`DhtUpdateStore.fail_host` wipes a host, the
takeover owner serves each record from its replica (promoting it to
primary and re-replicating on first access — :func:`record`);
:meth:`DhtUpdateStore.recover_host` rejoins the ring and a ``rebalance``
sweep re-ships every record the returning host should hold,
re-establishing the invariant.

Everything here is written once over the role table
(:data:`repro.store.dht.wire.ROLES`).  Three shipments are not rows and
stay special:

* ``txn_decision`` — a *delta* (one participant's ``(tid, verdict)``
  list and version, one message per successor — :func:`ship_delta`)
  applied to whichever copy of each transaction record a host holds;
* ``producer_rows`` — a publish batch's ``(row, tid)`` producer-index
  entries at one value controller, the same kind of delta, each entry
  filed like a one-row ``producer`` copy;
* ``epoch_counter`` — the allocator's bare integer, merged by ``max``.
  It is read through :func:`allocator_counter` and deliberately *not*
  promoted on read: promoting it would add ``replicate`` messages after
  every takeover.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.net.simnet import Message, Network
from repro.store.dht import wire

_COUNTER_SLOT = ("epoch_counter", 0)


def _primaries(host, role: str) -> Dict[Any, Any]:
    """The host table holding ``role``'s primary records."""
    return getattr(host, wire.ROLES[role].table)


def _send_copy(
    host,
    network: Network,
    target: str,
    role: str,
    key: Any,
    state: Any,
    fragments: int = 1,
    size_bytes: int = 0,
) -> None:
    """The one place a ``replicate`` message is built."""
    network.send(
        host.name,
        target,
        "replicate",
        fragments=fragments,
        size_bytes=size_bytes,
        role=role,
        key=key,
        state=state,
    )


def ship(
    host, network: Network, role: str, key: Any, state: Any, *cost: int
) -> None:
    """Ship one copy to each live successor of the key (priced).  Called
    directly only for the ``epoch_counter``, which is not a role-table
    row."""
    if host.replication < 2:
        return
    for target in host.ring.owners(wire.ring_key(role, key), host.replication):
        if target != host.name:
            _send_copy(host, network, target, role, key, state, *cost)


def ship_delta(
    host, network: Network, role: str, key: Any, entries, ring_key, entry_bytes: int
) -> None:
    """Ship a batch of just-written ``(key, value)`` entries to the live
    successors as one priced ``role`` delta each.  Every entry's record
    is this owner's (the driver batches by owner), so the successors of
    the first entry's ``ring_key`` are every entry's."""
    if host.replication < 2 or not entries:
        return
    for target in host.ring.owners(ring_key(entries[0][0]), host.replication):
        if target != host.name:
            _send_copy(
                host, network, target, role, key, entries,
                **wire.batch_sizing(len(entries), entry_bytes),
            )


def replicate(host, network: Network, role: str, key: Any) -> None:
    """Write-time replication of the primary record at ``(role, key)``."""
    if host.replication > 1:  # nothing to detach or price for k = 1
        row = wire.ROLES[role]
        held = _primaries(host, role)[key]
        ship(host, network, role, key, row.detach(held), *row.cost(held))


def allocator_counter(host) -> int:
    """The effective epoch counter: primary or surviving replica."""
    return max(host.epoch_counter, host.replicas.get(_COUNTER_SLOT, 0))


def held_copy(host, role: str, key: Any):
    """Whichever copy of ``(role, key)`` this host holds — primary
    first, then replica — without promoting anything; ``None`` if
    neither."""
    found = _primaries(host, role).get(key)
    if found is None:
        found = host.replicas.get((role, key))
    return found


def _install(
    held: Dict[Any, Any], slot: Any, role: str, state: Any, on_tie: bool
) -> None:
    """File a copy at ``held[slot]`` unless the copy already there is
    more advanced — or, when ``on_tie`` is false, equally advanced.
    Merges keep the most advanced copy when several holders re-ship the
    same record."""
    existing = held.get(slot)
    advance = wire.ROLES[role].advance
    if existing is not None and advance is not None:
        ahead = advance(state) - advance(existing)
        if ahead < 0 or (ahead == 0 and not on_tie):
            return
    held[slot] = state


def on_replicate(host, network: Network, message: Message) -> None:
    """File a shipped copy as primary or replica, by current ownership."""
    payload = message.payload
    role, key, state = payload["role"], payload["key"], payload["state"]
    if role == "txn_decision":
        # A decision delta, keyed by (participant, version): apply each
        # verdict to whichever copy of its record this host holds.
        for tid, verdict in state:
            held = held_copy(host, "txn", tid)
            if held is not None:  # as ``on_record_decision`` files it
                held["stamps"][key[0]] = key[1], verdict != "carried"
                held["decisions"][key[0]] = "applied" if verdict == "carried" else verdict
    elif role == "epoch_counter":
        # The allocator's bare integer: merged by max wherever it is kept.
        if host.ring.owner(wire.ALLOCATOR_KEY) == host.name:
            host.epoch_counter = max(host.epoch_counter, state)
        else:
            host.replicas[_COUNTER_SLOT] = max(
                host.replicas.get(_COUNTER_SLOT, 0), state
            )
    elif role == "producer_rows":
        # A producer-index delta: each row is filed as its own copy.
        for row, tid in state:
            _file(host, "producer", row, tid)
    else:
        _file(host, role, key, state)


def _file(host, role: str, key: Any, state: Any) -> None:
    """File a copy as primary or replica, by current ownership."""
    if host.ring.owner(wire.ring_key(role, key)) == host.name:
        # An equally advanced shipment never displaces a primary ...
        _install(_primaries(host, role), key, role, state, on_tie=False)
    else:
        # ... but refreshes a replica.
        _install(host.replicas, (role, key), role, state, on_tie=True)


def on_rebalance(host, network: Network, message: Message) -> None:
    """Re-establish the replication invariant after a host returns.

    The driver broadcasts one ``rebalance`` per live host naming the
    recovered ``target``; each host re-ships every record the target
    should now hold (as owner or replica successor) and re-files its
    own copies — promoting, demoting, or handing them off — under
    the new ownership map.  Shipments are priced like write-time
    replication, so recovery cost shows up in the network counters.
    """
    target = message.payload["target"]

    def place(role, key, state, *cost):
        """Ship ``target`` its copy of one record under the new map."""
        owners = host.ring.owners(wire.ring_key(role, key), host.replication)
        if target in owners and target != host.name:
            _send_copy(host, network, target, role, key, state, *cost)
        return owners

    for role, row in wire.ROLES.items():
        held = _primaries(host, role)
        for key, entry in list(held.items()):
            owners = place(role, key, row.detach(entry), *row.cost(entry))
            if host.name not in owners:
                if target in owners:  # handed off, not lost
                    del held[key]
            elif owners[0] != host.name:
                _install(
                    host.replicas, (role, key), role, held.pop(key), on_tie=True
                )
    counter = allocator_counter(host)
    if counter:
        owners = place("epoch_counter", 0, counter)
        if owners[0] == host.name:
            host.epoch_counter = counter
        else:
            host.epoch_counter = 0
            host.replicas.pop(_COUNTER_SLOT, None)
            if host.name in owners:
                host.replicas[_COUNTER_SLOT] = counter
    # Re-file held replicas under the new ownership map.
    for (role, key), state in list(host.replicas.items()):
        if role == "epoch_counter":
            continue  # handled with the counter above
        owners = place(role, key, state, *wire.ROLES[role].cost(state))
        if host.name not in owners:
            if target in owners:
                del host.replicas[(role, key)]
        elif owners[0] == host.name:
            state = host.replicas.pop((role, key))
            _install(_primaries(host, role), key, role, state, on_tie=False)


def record(host, network: Network, role: str, key: Any):
    """The primary record at ``(role, key)``, or ``None``.

    A key this host now owns but only holds as a replica is served by
    promoting the replica to primary and re-replicating it, so the copy
    count recovers (the original owner is down, so the successor chain
    shifted)."""
    held = _primaries(host, role)
    found = held.get(key)
    if (
        found is None
        and (role, key) in host.replicas
        and host.ring.owner(wire.ring_key(role, key)) == host.name
    ):
        found = held[key] = host.replicas.pop((role, key))
        replicate(host, network, role, key)
    return found

"""The DHT-based distributed update store (Section 5.2.2, Figures 6-7).

The paper built this on FreePastry with all nodes on one server and at
least 500 microseconds charged per message.  Here the DHT is simulated on
:mod:`repro.net`: the participants' host nodes form a consistent-hashing
ring, and the store's logical roles are mapped onto them by key ownership:

* the **epoch allocator** owns the predesignated key ``"epoch-allocator"``
  and hands out the epoch counter;
* the **epoch controller** for epoch ``e`` owns ``"epoch:e"`` and records
  which transactions were published in ``e`` and whether the epoch is
  complete;
* the **transaction controller** for transaction ``X`` owns ``"txn:X"``
  and stores the transaction, its antecedents, its publish order, each
  peer's decision about it, and — because trust conditions live in the
  store — answers requests with the requester's priority for ``X``;
* the **value controller** for a row value owns ``"value:R:row"`` and
  maintains the producer index used to compute antecedents at publish
  time (an addition over the paper's prose, which does not say where
  ``ante`` is computed; DESIGN.md discusses this substitution);
* the **peer coordinator** for participant ``p`` owns ``"peer:p"`` and
  records ``p``'s reconciliation epochs.

Publication follows Figure 6 message-for-message; retrieval follows
Figure 7, including controller-side forwarding of antecedent requests so
the reconciling peer never chases chains itself.

The package is built around two literal tables — the role table
(:data:`repro.store.dht.wire.ROLES`: one row per replicated record type)
and the protocol table (``HANDLERS`` in :mod:`~repro.store.dht.host`,
:data:`repro.store.dht.wire.REPLIES`: each kind's handler and reply
stated once); docs/ARCHITECTURE.md ("DHT store") has the module map.
"""

from repro.store.dht.driver import DhtUpdateStore

__all__ = ["DhtUpdateStore"]

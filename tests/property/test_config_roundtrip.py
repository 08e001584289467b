"""Property: generated configs round-trip through dicts *exactly*.

``ConfederationConfig`` documents ``from_dict(to_dict(cfg)) == cfg`` and
JSON-safety of the dict form; the unit tests pin a handful of shapes.
Here Hypothesis generates whole valid configs — including nested
``WorkloadConfig`` and ``FaultPlan`` values with crashes, message faults
and restarts — and checks the contract for all of them, with a
``json.dumps``/``json.loads`` detour to prove nothing in the dict form
depends on Python-only types (tuples, int keys) surviving
serialisation.

The strategies generate within each dataclass's validated domain
(``at_epoch >= 1``, ``recover_at_epoch > at_epoch``, probabilities in
[0, 1], restart participants drawn from the peer set), so every
generated config also passes ``validate()`` — pinned as a property of
its own, because a config that round-trips but fails validation would
be useless in a file.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.confed.config import ConfederationConfig
from repro.errors import ConfigError
from repro.net.faults import FaultPlan, HostCrash, MessageFault, ParticipantRestart
from repro.workload.generator import WorkloadConfig

# Nested composites (config → plan → crashes/faults) make the very
# first draws slow enough to trip the too_slow health check on a cold
# cache; the suite's own runtime stays in single-digit seconds.
_SETTINGS = settings(
    max_examples=100, suppress_health_check=[HealthCheck.too_slow]
)

_PEER_IDS = st.integers(min_value=1, max_value=20)


@st.composite
def host_crashes(draw) -> HostCrash:
    at_epoch = draw(st.integers(min_value=1, max_value=30))
    recovers = draw(st.booleans())
    recover_at = (
        draw(st.integers(min_value=at_epoch + 1, max_value=at_epoch + 20))
        if recovers
        else None
    )
    return HostCrash(
        host=f"host:{draw(st.integers(min_value=0, max_value=9))}",
        at_epoch=at_epoch,
        recover_at_epoch=recover_at,
    )


def message_faults() -> st.SearchStrategy[MessageFault]:
    return st.builds(
        MessageFault,
        kind=st.sampled_from(
            ("txn_stored", "decision_recorded", "begin_publishing", "txn_data")
        ),
        action=st.sampled_from(("drop", "duplicate", "delay")),
        probability=st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False
        ),
        times=st.none() | st.integers(min_value=1, max_value=50),
        delay_factor=st.floats(
            min_value=0.0, max_value=16.0, allow_nan=False
        ),
    )


@st.composite
def fault_plans(draw, peers) -> FaultPlan:
    restarts = ()
    if peers:
        restarts = tuple(
            ParticipantRestart(
                participant=draw(st.sampled_from(sorted(peers))),
                at_epoch=draw(st.integers(min_value=1, max_value=30)),
            )
            for _ in range(draw(st.integers(min_value=0, max_value=3)))
        )
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        crashes=tuple(draw(st.lists(host_crashes(), max_size=3))),
        messages=tuple(draw(st.lists(message_faults(), max_size=4))),
        restarts=restarts,
    )


def workload_configs() -> st.SearchStrategy[WorkloadConfig]:
    return st.builds(
        WorkloadConfig,
        transaction_size=st.integers(min_value=1, max_value=8),
        insert_fraction=st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False
        ),
        xref_mean=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        zipf_s=st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
        organisms=st.integers(min_value=1, max_value=20),
        proteins_per_organism=st.integers(min_value=1, max_value=500),
        functions=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**31),
    )


@st.composite
def confederation_configs(draw) -> ConfederationConfig:
    peers = tuple(sorted(draw(st.sets(_PEER_IDS, max_size=6))))
    trust = None
    if peers and draw(st.booleans()):
        trust = {
            pid: {
                other: draw(st.integers(min_value=0, max_value=5))
                for other in draw(
                    st.sets(st.sampled_from(peers), max_size=len(peers))
                )
            }
            for pid in draw(st.sets(st.sampled_from(peers), max_size=3))
        }
    faults = draw(st.none() | fault_plans(peers))
    return ConfederationConfig(
        store=draw(st.sampled_from(("memory", "central", "durable", "dht"))),
        store_options=draw(
            st.dictionaries(
                st.sampled_from(("hosts", "replication_factor", "path")),
                st.integers(min_value=1, max_value=8) | st.text(max_size=8),
                max_size=2,
            )
        ),
        instance_backend=draw(st.sampled_from(("memory", "sqlite"))),
        peers=peers,
        trust=trust,
        trust_priority=draw(st.integers(min_value=0, max_value=5)),
        network_centric=draw(st.sampled_from(("client", "store"))),
        workload=draw(st.none() | workload_configs()),
        reconciliation_interval=draw(st.integers(min_value=0, max_value=10)),
        rounds=draw(st.integers(min_value=0, max_value=10)),
        final_reconcile=draw(st.booleans()),
        schedule_mode=draw(st.sampled_from(("serial", "async"))),
        schedule_workers=draw(
            st.none() | st.integers(min_value=1, max_value=32)
        ),
        faults=faults,
    )


@given(confederation_configs())
@_SETTINGS
def test_config_roundtrips_exactly(config):
    assert ConfederationConfig.from_dict(config.to_dict()) == config


@given(confederation_configs())
@_SETTINGS
def test_config_survives_a_json_detour(config):
    wire = json.dumps(config.to_dict())
    assert ConfederationConfig.from_dict(json.loads(wire)) == config


@given(confederation_configs())
@_SETTINGS
def test_generated_configs_validate(config):
    assert config.validate() is config
    rebuilt = ConfederationConfig.from_dict(config.to_dict())
    assert rebuilt.validate() is rebuilt


@given(confederation_configs(), st.integers(min_value=-8, max_value=0))
@_SETTINGS
def test_non_positive_worker_counts_never_validate(config, workers):
    """An in-flight cap below one is meaningless for every concurrent
    schedule; with ``schedule_mode="async"`` the same config must also
    be rejected before it ever reaches the event loop."""
    broken = ConfederationConfig.from_dict(
        dict(config.to_dict(), schedule_mode="async", schedule_workers=workers)
    )
    with pytest.raises(ConfigError, match="schedule_workers"):
        broken.validate()


@given(confederation_configs())
@_SETTINGS
def test_dict_form_is_canonical(config):
    """to_dict is a pure function of the config: the round-tripped
    config renders the identical dict (idempotent serialisation)."""
    assert ConfederationConfig.from_dict(config.to_dict()).to_dict() == (
        config.to_dict()
    )

"""Replication strategy behaviour."""

from __future__ import annotations

import pytest

from repro.errors import ReplicationError
from repro.replication.policy import ActionKind, RequestObservation
from repro.replication.strategies import HotspotReplication, NoReplication


def obs(site: str, time: float) -> RequestObservation:
    return RequestObservation(site=site, time=time)


class TestStaticStrategies:
    def test_no_replication_never_acts(self):
        policy = NoReplication()
        assert policy.on_request(obs("root/a", 1.0), ["root/home"]) == []


class TestHotspot:
    def make(self, **kwargs) -> HotspotReplication:
        defaults = dict(create_rate=1.0, destroy_rate=0.1, window=10.0, max_replicas=3)
        defaults.update(kwargs)
        return HotspotReplication(**defaults)

    def test_validation(self):
        with pytest.raises(ReplicationError):
            HotspotReplication(create_rate=1.0, destroy_rate=1.0)
        with pytest.raises(ReplicationError):
            HotspotReplication(max_replicas=0)

    def test_cold_site_no_action(self):
        policy = self.make()
        actions = policy.on_request(obs("root/a", 0.0), ["root/home"])
        assert actions == []

    def test_hot_site_triggers_create(self):
        policy = self.make()
        actions = []
        for i in range(12):
            actions = policy.on_request(obs("root/a", i * 0.5), ["root/home"])
        creates = [a for a in actions if a.kind is ActionKind.CREATE]
        assert creates and creates[0].site == "root/a"

    def test_existing_replica_not_recreated(self):
        policy = self.make()
        for i in range(12):
            actions = policy.on_request(
                obs("root/a", i * 0.5), ["root/home", "root/a"]
            )
        assert all(a.kind is not ActionKind.CREATE for a in actions)

    def test_capacity_respected(self):
        policy = self.make(max_replicas=2)
        current = ["root/home", "root/b"]
        for i in range(12):
            actions = policy.on_request(obs("root/a", i * 0.5), current)
        # root/b stays (its stats are cold → destroy), but no create for a.
        assert all(a.kind is not ActionKind.CREATE for a in actions)

    def test_cold_replica_destroyed(self):
        policy = self.make()
        # root/a got traffic long ago; now quiet.
        for i in range(12):
            policy.on_request(obs("root/a", i * 0.5), ["root/home"])
        actions = policy.on_request(obs("root/b", 100.0), ["root/home", "root/a"])
        destroys = [a for a in actions if a.kind is ActionKind.DESTROY]
        assert destroys and destroys[0].site == "root/a"

    def test_home_site_never_destroyed(self):
        policy = self.make()
        actions = policy.on_request(obs("root/b", 100.0), ["root/home"])
        assert all(a.site != "root/home" for a in actions)


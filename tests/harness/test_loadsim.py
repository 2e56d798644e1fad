"""Load simulation: saturation under a flash crowd, relief with
dynamic replication — §1's motivation, measured."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.harness.loadsim import CROWD_SITE, run_crowd
from repro.replication.strategies import HotspotReplication, NoReplication


@pytest.fixture(scope="module")
def single_server():
    return run_crowd(NoReplication)


@pytest.fixture(scope="module")
def hotspot():
    return run_crowd(
        lambda: HotspotReplication(create_rate=1.0, destroy_rate=0.01, window=15.0)
    )


class TestLoadSimulation:
    def test_all_requests_served_genuine(self, single_server):
        report, _ = single_server
        assert report.count > 100
        assert report.failures == 0

    def test_crowd_saturates_single_server(self, single_server):
        """Without replication, crowd-phase latency at Cornell is far
        above the quiet-phase latency (queue build-up)."""
        report, placements = single_server
        quiet = report.latency_summary(site=CROWD_SITE, start=0.0, end=30.0)
        crowd = report.latency_summary(site=CROWD_SITE, start=40.0, end=60.0)
        assert crowd.mean > 3 * quiet.mean
        assert report.max_wait > 0.5
        assert placements == 1  # the home replica only

    def test_hotspot_replication_relieves_crowd(self, single_server, hotspot):
        """With the hotspot policy in the loop, the crowd triggers a
        replica at Cornell and peak latency collapses."""
        report, placements = hotspot
        assert placements >= 2  # home, then pushed during the crowd
        with_tail = report.latency_summary(site=CROWD_SITE, start=45.0, end=60.0)
        without_tail = single_server[0].latency_summary(
            site=CROWD_SITE, start=45.0, end=60.0
        )
        assert with_tail.mean < without_tail.mean / 2

    def test_report_filters(self, single_server):
        report, _ = single_server
        with pytest.raises(ReproError):
            report.latency_summary(site="root/mars")

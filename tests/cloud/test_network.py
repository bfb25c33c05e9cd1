"""Tests for the pairwise network model."""

import numpy as np
import pytest

from repro.cloud.network import NetworkModel
from repro.common.errors import ValidationError


@pytest.fixture()
def net(catalog):
    return NetworkModel(catalog)


class TestIntraRegionLinks:
    def test_slower_endpoint_dominates(self, net):
        dist = net.link_distribution("m1.medium", "m1.xlarge")
        assert dist.mean() == net.catalog.type("m1.medium").network.mean()

    def test_symmetric(self, net):
        a = net.link_distribution("m1.medium", "m1.large")
        b = net.link_distribution("m1.large", "m1.medium")
        assert a.mean() == b.mean()

    def test_fig7_ordering(self, net):
        """large<->large is faster and tighter than medium<->large."""
        ll = net.link_distribution("m1.large", "m1.large")
        ml = net.link_distribution("m1.medium", "m1.large")
        assert ll.mean() > ml.mean()
        assert ll.coefficient_of_variation() < ml.coefficient_of_variation()

    def test_sampled_link_below_both_endpoints(self, net, rng):
        samples = net.sample_link("m1.medium", "m1.large", rng, 500)
        assert np.all(samples > 0)
        # The sampled min is (stochastically) below each endpoint's mean.
        assert samples.mean() <= net.catalog.type("m1.medium").network.mean() * 1.02

    def test_scalar_sample(self, net, rng):
        assert isinstance(net.sample_link("m1.small", "m1.small", rng), float)


class TestCrossRegion:
    def test_wan_slower_than_lan(self, net):
        wan = net.cross_region_distribution("us-east-1", "ap-southeast-1")
        lan = net.link_distribution("m1.small", "m1.small")
        assert wan.mean() < lan.mean()

    def test_same_region_rejected(self, net):
        with pytest.raises(ValidationError):
            net.cross_region_distribution("us-east-1", "us-east-1")

    def test_unknown_region_rejected(self, net):
        with pytest.raises(ValidationError):
            net.cross_region_distribution("us-east-1", "nowhere")

    def test_sampled_wan_positive(self, net, rng):
        samples = net.sample_cross_region("us-east-1", "ap-southeast-1", rng, 1000)
        assert np.all(samples > 0)

    def test_custom_wan_distribution(self, catalog):
        from repro.distributions import Deterministic

        net = NetworkModel(catalog, wan=Deterministic(5e6))
        assert net.mean_cross_region_bandwidth("us-east-1", "ap-southeast-1") == 5e6

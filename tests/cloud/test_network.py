"""Tests for the pairwise network model."""

import numpy as np
import pytest

from repro.cloud.network import NetworkModel
from repro.common.errors import ValidationError


@pytest.fixture()
def net(catalog):
    return NetworkModel(catalog)


class TestIntraRegionLinks:
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
        lan = net.catalog.type("m1.small").network  # a link between two equal endpoints
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

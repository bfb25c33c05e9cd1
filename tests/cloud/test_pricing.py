"""Tests for the pricing model."""

import pytest

from repro.cloud.pricing import PricingModel
from repro.common.errors import ValidationError


@pytest.fixture()
def pricing(catalog):
    return PricingModel(catalog)


class TestTaskCosts:
    def test_billed_cost_rounds_up(self, pricing):
        assert pricing.billed_instance_cost(1800.0, "m1.small") == pytest.approx(0.044)
        assert pricing.billed_instance_cost(3601.0, "m1.small") == pytest.approx(0.088)

    def test_regional_pricing(self, pricing):
        us = pricing.unit_price("m1.small", "us-east-1")
        sg = pricing.unit_price("m1.small", "ap-southeast-1")
        assert sg > us


class TestTransfer:
    def test_intra_region_free(self, pricing):
        assert pricing.transfer_cost(1e12, "us-east-1", "us-east-1") == 0.0

    def test_cross_region_priced_per_gb(self, pricing, catalog):
        cost = pricing.transfer_cost(10e9, "us-east-1", "ap-southeast-1")
        assert cost == pytest.approx(10 * catalog.region("us-east-1").transfer_out_per_gb)

    def test_uses_source_egress_price(self, pricing):
        a = pricing.transfer_cost(1e9, "us-east-1", "ap-southeast-1")
        b = pricing.transfer_cost(1e9, "ap-southeast-1", "us-east-1")
        # Same default egress price both ways in the EC2 catalog.
        assert a == pytest.approx(b)

    def test_negative_bytes_rejected(self, pricing):
        with pytest.raises(ValidationError):
            pricing.transfer_cost(-1.0, "us-east-1", "ap-southeast-1")

    def test_unknown_region_rejected(self, pricing):
        with pytest.raises(ValidationError):
            pricing.transfer_cost(1.0, "us-east-1", "mars-1")

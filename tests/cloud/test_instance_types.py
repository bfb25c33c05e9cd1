"""Tests for the instance catalog and regions."""

import pytest

from repro.common.errors import ValidationError
from repro.cloud.instance_types import EC2_REGIONS, Catalog, InstanceType, Region, ec2_catalog
from repro.distributions import NormalDistribution


class TestEc2Catalog:
    def test_four_paper_types(self, catalog):
        assert catalog.type_names == ("m1.small", "m1.medium", "m1.large", "m1.xlarge")

    def test_sorted_by_price(self, catalog):
        prices = [catalog.price(n) for n in catalog.type_names]
        assert prices == sorted(prices)

    def test_paper_prices(self, catalog):
        assert catalog.price("m1.small") == 0.044
        assert catalog.price("m1.xlarge") == 0.350

    def test_singapore_premium(self, catalog):
        """Section 3.3: ~33% price difference on m1.small."""
        ratio = catalog.price("m1.small", "ap-southeast-1") / catalog.price("m1.small")
        assert ratio == pytest.approx(1.33, abs=0.03)

    def test_table2_distributions(self, catalog):
        small = catalog.type("m1.small")
        assert small.seq_io.mean() / 1e6 == pytest.approx(129.3 * 0.79, rel=1e-6)
        assert small.rand_io.mean() == pytest.approx(150.3)
        xlarge = catalog.type("m1.xlarge")
        assert xlarge.rand_io.std() == pytest.approx(146.4)

    def test_network_variance_shrinks_with_size(self, catalog):
        networks = [catalog.type(n).network for n in catalog.type_names]
        cvs = [d.std() / d.mean() for d in networks]
        assert cvs[0] > cvs[-1]

    def test_cheapest_fastest(self, catalog):
        assert catalog.cheapest().name == "m1.small"
        assert catalog.fastest().name == "m1.xlarge"

    def test_index_roundtrip(self, catalog):
        for i, name in enumerate(catalog.type_names):
            assert catalog.index_of(name) == i
            assert catalog[i].name == name

    def test_unknown_lookups(self, catalog):
        with pytest.raises(ValidationError):
            catalog.type("t2.micro")
        with pytest.raises(ValidationError):
            catalog.index_of("t2.micro")
        with pytest.raises(ValidationError):
            catalog.region("eu-west-1")

    def test_default_region_selection(self):
        cat = ec2_catalog(default_region="ap-southeast-1")
        assert cat.price("m1.small") == EC2_REGIONS["ap-southeast-1"]["m1.small"]


class TestValidation:
    def _itype(self, name="x", speed=1.0):
        dist = NormalDistribution(100.0, 1.0)
        return InstanceType(
            name=name, cpu_speed=speed, vcpus=1, mem_gb=1.0,
            seq_io=dist, rand_io=dist, network=dist,
        )

    def test_duplicate_type_rejected(self):
        with pytest.raises(ValidationError):
            Catalog(
                [self._itype("a"), self._itype("a")],
                [Region("r", {"a": 1.0})],
                default_region="r",
            )

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValidationError):
            Catalog([], [Region("r", {})], default_region="r")

    def test_region_missing_price_rejected(self):
        with pytest.raises(ValidationError):
            Catalog([self._itype("a")], [Region("r", {})], default_region="r")

    def test_unknown_default_region_rejected(self):
        with pytest.raises(ValidationError):
            Catalog([self._itype("a")], [Region("r", {"a": 1.0})], default_region="q")

    def test_negative_price_rejected(self):
        with pytest.raises(ValidationError):
            Region("r", {"a": -1.0})

    def test_bad_cpu_speed_rejected(self):
        with pytest.raises(ValidationError):
            self._itype(speed=0.0)

"""CC registry: name resolution, parameter forwarding, per-flow instances."""

import pytest

from repro.cc import ALGORITHMS, make_cc_factory
from repro.cc.dcqcn import Dcqcn
from repro.cc.fncc import Fncc
from repro.cc.hpcc import Hpcc
from repro.cc.rocc import Rocc


class TestRegistry:
    def test_all_expected_algorithms_present(self):
        assert set(ALGORITHMS) == {"hpcc", "fncc", "dcqcn", "rocc"}

    def test_factory_builds_right_class(self):
        for name, cls in [("hpcc", Hpcc), ("fncc", Fncc), ("dcqcn", Dcqcn), ("rocc", Rocc)]:
            cc = make_cc_factory(name)(None, None)
            assert isinstance(cc, cls)

    def test_case_insensitive(self):
        assert isinstance(make_cc_factory("FNCC")(None, None), Fncc)

    def test_fresh_instance_per_flow(self):
        factory = make_cc_factory("fncc")
        assert factory(None, None) is not factory(None, None)

    def test_params_forwarded_to_config(self):
        cc = make_cc_factory("fncc", beta=0.8, alpha=1.2)(None, None)
        assert cc.config.beta == 0.8
        assert cc.config.alpha == 1.2

    def test_shared_config_across_instances(self):
        factory = make_cc_factory("hpcc", eta=0.9)
        a, b = factory(None, None), factory(None, None)
        assert a.config is b.config

    def test_unknown_name_rejected(self):
        with pytest.raises(
            ValueError, match=r"unknown CC .*\['dcqcn', 'fncc', 'hpcc', 'rocc'\]"
        ):
            make_cc_factory("tcp-reno")

    def test_bad_param_rejected(self):
        with pytest.raises(TypeError):
            make_cc_factory("hpcc", nonsense=1)

    def test_rocc_takes_no_params(self):
        with pytest.raises(ValueError):
            make_cc_factory("rocc", q_ref=5)

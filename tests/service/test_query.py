"""Query parsing: vocabulary, validation and store-key parity.

The whole point of :func:`repro.service.parse_point_query` is that a
service query resolves to *exactly* the key a campaign run computes
for the same coordinates — that parity is what makes the store a
shared cache between ``repro serve`` and ``repro campaign run``.
"""

import time

import pytest

from repro.campaign import Campaign
from repro.service import parse_point_query
from repro.store import canonical_json, point_key

from tests.service.conftest import TINY_POINT, tiny_query


def campaign_key(trial=0, **campaign_kwargs):
    """The key a campaign run would compute for the tiny point."""
    kwargs = dict(name="reference", benchmark=TINY_POINT["benchmark"],
                  shuffle_gbs=(TINY_POINT["shuffle_gb"],),
                  networks=(TINY_POINT["network"],),
                  slaves=TINY_POINT["slaves"],
                  params=dict(TINY_POINT["params"]),
                  trials=trial + 1)
    kwargs.update(campaign_kwargs)
    campaign = Campaign(**kwargs)
    point = campaign.points()[trial]
    return point_key(point.config, campaign.cluster_spec(),
                     jobconf=campaign.jobconf(),
                     fault_plan=campaign.fault_plan)


class TestKeyParity:
    def test_key_matches_campaign_run_key(self):
        assert parse_point_query(tiny_query()).key == campaign_key()

    def test_trial_changes_the_key(self):
        base = parse_point_query(tiny_query())
        trial1 = parse_point_query(tiny_query(trial=1))
        assert trial1.key != base.key
        assert trial1.key == campaign_key(trial=1)

    def test_runtime_changes_the_key(self):
        yarn = parse_point_query(tiny_query(runtime="yarn"))
        assert yarn.key != parse_point_query(tiny_query()).key
        assert yarn.key == campaign_key(runtime="yarn")

    def test_defaults_match_campaign_defaults(self):
        """benchmark/cluster/runtime/trial defaults mirror Campaign's."""
        explicit = parse_point_query(tiny_query(
            benchmark="MR-AVG", cluster="a", runtime="mrv1", trial=0))
        minimal = parse_point_query({
            "shuffle_gb": TINY_POINT["shuffle_gb"],
            "network": TINY_POINT["network"],
            "slaves": TINY_POINT["slaves"],
            "params": dict(TINY_POINT["params"]),
        })
        assert minimal.key == explicit.key


class TestTrialDerivation:
    """A query derives only its own trial, through the same per-point
    helper ``Campaign.points()`` runs, so its cost does not grow with
    the trial number."""

    @pytest.mark.parametrize("seeded", [False, True])
    def test_keys_match_campaign_points(self, seeded):
        params = dict(TINY_POINT["params"])
        if seeded:
            params["seed"] = 4242
        campaign = Campaign(
            name="oracle", benchmark=TINY_POINT["benchmark"],
            shuffle_gbs=(TINY_POINT["shuffle_gb"],),
            networks=(TINY_POINT["network"],),
            slaves=TINY_POINT["slaves"], params=params, trials=6)
        points = campaign.points()
        for trial in range(6):
            query = parse_point_query(tiny_query(params=params, trial=trial))
            want = points[trial]
            assert query.config == want.config
            assert query.key == point_key(
                want.config, campaign.cluster_spec(),
                jobconf=campaign.jobconf(), fault_plan=campaign.fault_plan)

    def test_huge_trial_parses_in_constant_time(self, monkeypatch):
        def refuse(_campaign):
            raise AssertionError("the query expanded the whole grid")

        # Expanding 10**9 trials would exhaust memory long before any
        # time limit: fail at once instead.
        monkeypatch.setattr(Campaign, "points", refuse)
        started = time.perf_counter()
        query = parse_point_query(tiny_query(trial=10**9))
        assert time.perf_counter() - started < 0.1
        assert query.point.trial == 10**9
        assert query.config.seed == 20140901 + 10**9 * 9973


class TestSharedSpecs:
    """``cluster_spec()``/``jobconf()`` hand out one frozen instance
    per exact value, so the identity-keyed key-fragment memo hits."""

    def test_equal_campaigns_share_instances(self):
        first, second = (parse_point_query(tiny_query()).campaign
                         for _ in range(2))
        assert first.cluster_spec() is second.cluster_spec()
        assert first.jobconf() is second.jobconf()
        assert first.jobconf() is not Campaign(
            name="x", shuffle_gbs=(1.0,), networks=("1GigE",),
            runtime="yarn").jobconf()

    def test_value_equal_spellings_stay_apart(self):
        specs = [Campaign(name="x", shuffle_gbs=(1.0,),
                          networks=("1GigE",), slaves=slaves).cluster_spec()
                 for slaves in (2, 2.0, True, 1)]
        texts = [canonical_json(spec) for spec in specs]
        assert len({id(spec) for spec in specs}) == 4
        assert len(set(texts)) == 4
        keys = {parse_point_query(tiny_query(slaves=slaves)).key
                for slaves in (2, 2.0)}
        assert len(keys) == 2


class TestValidation:
    @pytest.mark.parametrize("body, fragment", [
        ("not a dict", "JSON object"),
        ([1, 2], "JSON object"),
        ({"network": "1GigE"}, "shuffle_gb"),
        ({"shuffle_gb": 1.0}, "network"),
        (tiny_query(flavor="spicy"), "unknown query keys"),
        (tiny_query(shuffle_gb=0), "> 0"),
        (tiny_query(shuffle_gb="four"), "must be a number"),
        (tiny_query(trial=-1), ">= 0"),
        (tiny_query(trial=True), "integer"),
        (tiny_query(trial="two"), "integer"),
        (tiny_query(params=[1]), "params must be an object"),
        (tiny_query(fault_plan="break stuff"), "fault_plan"),
    ])
    def test_malformed_bodies_raise_value_error(self, body, fragment):
        with pytest.raises(ValueError) as excinfo:
            parse_point_query(body)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("overrides", [
        {"benchmark": "MR-BOGUS"},
        {"network": "carrier-pigeon"},
        {"cluster": "z"},
        {"runtime": "mrv9"},
    ])
    def test_unknown_vocabulary_raises_value_error(self, overrides):
        """Campaign's own vocabulary checks surface as ValueError."""
        with pytest.raises(ValueError):
            parse_point_query(tiny_query(**overrides))


class TestDescribe:
    def test_describe_names_the_coordinates(self):
        query = parse_point_query(tiny_query(trial=2))
        doc = query.describe()
        assert doc["benchmark"] == "MR-AVG"
        assert doc["shuffle_gb"] == pytest.approx(0.02)
        assert doc["network"] == "1GigE"
        assert doc["slaves"] == 2
        assert doc["trial"] == 2
        assert "faulty" not in doc

    def test_signature_groups_compatible_queries(self):
        a = parse_point_query(tiny_query())
        b = parse_point_query(tiny_query(shuffle_gb=0.03, trial=1))
        other = parse_point_query(tiny_query(runtime="yarn"))
        assert a.signature == b.signature
        assert a.signature != other.signature

"""Campaign specs and the skip-on-hit runner."""

import json

import pytest

from repro.campaign import (
    Campaign,
    load_campaign,
    load_campaigns,
    run_campaign,
)
from repro.campaign.spec import TRIAL_SEED_STRIDE
from repro.core.config import BenchmarkConfig
from repro.core.suite import clear_result_cache
from repro.faults import FaultPlan
from repro.store import ResultStore

TINY = dict(
    name="tiny",
    shuffle_gbs=(0.02, 0.04),
    networks=("1GigE", "ipoib-qdr"),
    params={"num_maps": 4, "num_reduces": 2,
            "key_size": 256, "value_size": 256},
    slaves=2,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_result_cache()
    yield
    clear_result_cache()


class TestSpec:
    def test_round_trips_through_dict(self):
        campaign = Campaign(**TINY)
        assert Campaign.from_dict(campaign.to_dict()) == campaign

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign keys"):
            Campaign.from_dict(dict(TINY, shufle_gbs=[4.0]))

    def test_validation(self):
        with pytest.raises(ValueError, match="shuffle_gbs"):
            Campaign(name="x", shuffle_gbs=(), networks=("1GigE",))
        with pytest.raises(ValueError, match="runtime"):
            Campaign(**dict(TINY, runtime="hadoop3"))
        with pytest.raises(ValueError, match="label"):
            Campaign(**dict(TINY, variants=({"key_size": 50},)))
        with pytest.raises(ValueError, match="trials"):
            Campaign(**dict(TINY, trials=0))

    def test_points_expansion_order(self):
        campaign = Campaign(**dict(TINY, trials=2))
        points = campaign.points()
        assert len(points) == 2 * 2 * 2  # sizes × networks × trials
        # variant → size → network → trial nesting:
        assert [(p.shuffle_gb, p.network, p.trial) for p in points[:4]] == [
            (0.02, "1GigE", 0), (0.02, "1GigE", 1),
            (0.02, "ipoib-qdr", 0), (0.02, "ipoib-qdr", 1),
        ]

    def test_trial_seeds_stride(self):
        campaign = Campaign(**dict(TINY, trials=2))
        t0, t1 = campaign.points()[:2]
        assert t0.config.seed == BenchmarkConfig.seed
        assert t1.config.seed == BenchmarkConfig.seed + TRIAL_SEED_STRIDE

    def test_variants_overlay_params(self):
        campaign = Campaign(**dict(
            TINY, variants=({"label": "small", "key_size": 50},
                            {"label": "big", "key_size": 5120}),
        ))
        points = campaign.points()
        assert len(points) == 2 * 2 * 2  # variants × sizes × networks
        assert points[0].variant == "small"
        assert points[0].config.key_size == 50
        assert points[0].config.value_size == 256  # params still apply
        assert points[-1].variant == "big"
        assert points[-1].config.key_size == 5120


class TestLoading:
    def test_load_single_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(Campaign(**TINY).to_dict()))
        assert load_campaign(path) == Campaign(**TINY)

    def test_load_collection_and_pick(self, tmp_path):
        a = Campaign(**dict(TINY, name="a"))
        b = Campaign(**dict(TINY, name="b"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"campaigns": [a.to_dict(), b.to_dict()]}))
        assert load_campaigns(path) == [a, b]
        assert load_campaign(path, name="b") == b
        with pytest.raises(ValueError, match="pass name="):
            load_campaign(path)
        with pytest.raises(KeyError):
            load_campaign(path, name="zzz")

    def test_invalid_json_is_friendly(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{ nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_campaigns(path)

    def test_toml_form(self, tmp_path):
        text = (
            'name = "tiny"\n'
            'shuffle_gbs = [0.02]\n'
            'networks = ["1GigE"]\n'
            "[params]\n"
            "num_maps = 4\n"
        )
        path = tmp_path / "c.toml"
        path.write_text(text)
        try:
            import tomllib  # noqa: F401 — availability probe
        except ImportError:
            with pytest.raises(ValueError, match="tomllib"):
                load_campaign(path)
        else:
            campaign = load_campaign(path)
            assert campaign.name == "tiny"
            assert campaign.params == {"num_maps": 4}

    def test_fault_plan_round_trips(self, tmp_path):
        plan = FaultPlan(task_failure_probability=0.05)
        campaign = Campaign(**dict(TINY, fault_plan=plan))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(campaign.to_dict()))
        assert load_campaign(path).fault_plan == plan

    def test_shipped_specs_load(self):
        """The repo's own campaign specs must stay valid."""
        import pathlib

        spec_dir = (pathlib.Path(__file__).resolve().parents[2]
                    / "benchmarks" / "campaigns")
        specs = sorted(spec_dir.glob("*.json"))
        assert specs, f"no shipped campaign specs in {spec_dir}"
        for spec in specs:
            for campaign in load_campaigns(spec):
                assert campaign.points()


class TestRunner:
    def test_cold_then_warm(self, tmp_path):
        campaign = Campaign(**TINY)
        root = str(tmp_path / "store")
        cold = run_campaign(campaign, store=root)
        assert cold.executed == 4
        assert cold.from_store == 0

        clear_result_cache()  # fresh-process equivalent
        warm = run_campaign(campaign, store=root)
        assert warm.executed == 0
        assert warm.from_store == 4
        for a, b in zip(cold.points, warm.points):
            assert (a.result.execution_time.hex()
                    == b.result.execution_time.hex())
        assert ResultStore(root).stats()["puts"] == 4

    def test_progress_callback(self, tmp_path):
        events = []
        run_campaign(Campaign(**TINY), store=str(tmp_path / "store"),
                     progress=events.append)
        assert len(events) == 4
        assert events[0].index == 1 and events[-1].index == 4
        assert all(e.total == 4 for e in events)
        assert all(not e.cached for e in events)
        assert "GB" in events[0].render()

    def test_runs_without_a_store(self):
        outcome = run_campaign(Campaign(**dict(TINY, shuffle_gbs=(0.02,),
                                               networks=("1GigE",))))
        assert outcome.executed == 1
        assert outcome.from_store == 0

    def test_records_are_tagged_for_the_book(self, tmp_path):
        root = str(tmp_path / "store")
        run_campaign(Campaign(**dict(TINY, figure="Fig. X")), store=root)
        records = list(ResultStore(root).records())
        assert len(records) == 4
        for _key, record in records:
            meta = record["tags"]["tiny"]
            assert meta["figure"] == "Fig. X"
            assert meta["baseline"] == "1GigE"
            assert "shuffle_gb" in meta and "network" in meta

    def test_path_root_is_opened_for_the_tag_pass(self, tmp_path):
        """``store=Path(...)`` works like a string root: a warm point
        gains the second campaign's tag."""
        one = dict(TINY, shuffle_gbs=(0.02,), networks=("1GigE",))
        root = tmp_path / "store"
        assert run_campaign(Campaign(**one), store=root).executed == 1
        clear_result_cache()
        again = run_campaign(Campaign(**dict(one, name="again")),
                             store=root)
        assert again.from_store == 1
        [(_key, record)] = ResultStore(root).records()
        assert set(record["tags"]) == {"tiny", "again"}

    @pytest.mark.parametrize("batch", [True, False])
    def test_value_equal_spellings_are_distinct_points(self, tmp_path,
                                                       batch):
        """``seed`` 7 and 7.0 are equal values but distinct store keys:
        each point is written under its own key, with provenance that
        hashes back to it."""
        campaign = Campaign(**dict(
            TINY, shuffle_gbs=(0.02,), networks=("1GigE",),
            variants=({"label": "int", "seed": 7},
                      {"label": "float", "seed": 7.0})))
        points = campaign.points()
        assert points[0].config == points[1].config
        root = str(tmp_path / "store")
        result = run_campaign(campaign, store=root, batch=batch)
        keys = [p.key for p in result.points]
        assert len(set(keys)) == 2
        store = ResultStore(root)
        assert store.verify().clean
        assert sorted(store.keys()) == sorted(keys)
        for point in result.points:
            record = store.fetch_record(point.key)
            assert record["result"]["config"]["seed"] == point.point.config.seed
            assert type(record["provenance"]["config"]["seed"]) is type(
                point.point.config.seed)

        clear_result_cache()
        warm = run_campaign(campaign, store=root, batch=batch)
        assert warm.executed == 0 and warm.from_store == 2

    def test_sweep_result_shapes_figures(self, tmp_path):
        outcome = run_campaign(Campaign(**TINY),
                               store=str(tmp_path / "store"))
        sweep = outcome.sweep_result()
        assert sweep.networks() == ["1GigE", "IPoIB-QDR(32Gbps)"]
        assert sorted(sweep.sizes()) == [0.02, 0.04]
        with pytest.raises(KeyError, match="variant"):
            outcome.sweep_result(variant="nope")

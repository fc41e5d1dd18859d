"""Batch scheduler tests: equivalence classes, parity, robustness.

The batch path (``repro.campaign.batch`` + the executor's grouped
units) promises results indistinguishable from the strict per-point
loop: hex-exact simulated times, byte-identical store records, and the
same retry/timeout/quarantine semantics per point. These tests pin
that contract against the 40 golden points, trial-heavy sweeps, the
chaos hooks, and the CLI surface (``--profile``, ``store stats``).
"""

import json
from pathlib import Path

import pytest

from repro.campaign import Campaign, RetryPolicy, run_campaign
from repro.campaign.batch import plan_batches
from repro.campaign.chaos import (
    ENV_CHAOS_ATTEMPTS,
    ENV_CHAOS_CRASH,
    ENV_CHAOS_HANG,
    ENV_CHAOS_HANG_SECS,
)
from repro.campaign.executor import (
    STATUS_FAILED,
    STATUS_OK,
    CampaignExecutor,
)
from repro.core.config import BenchmarkConfig
from repro.core.suite import MicroBenchmarkSuite, clear_result_cache
from repro.faults import FaultPlan
from repro.hadoop.cluster import cluster_a
from repro.hadoop.job import JobConf
from repro.sim.trace import Tracer
from repro.store import ResultStore

from tests.store.conftest import record_texts

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_times.json"

with GOLDEN_PATH.open() as _handle:
    GOLDEN = json.load(_handle)

POINTS = GOLDEN["points"]

SMALL = {"num_maps": 4, "num_reduces": 2, "key_size": 256,
         "value_size": 256}

#: Trial-heavy MR-AVG sweep: 2 sizes x 1 network x 5 trials = 10
#: points in exactly 2 equivalence classes (MR-AVG is seed-free).
TRIALS10 = dict(
    name="avg-trials",
    benchmark="MR-AVG",
    shuffle_gbs=(0.02, 0.04),
    networks=("1GigE",),
    trials=5,
    slaves=2,
    params=dict(SMALL),
)


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    clear_result_cache()
    for var in (ENV_CHAOS_CRASH, ENV_CHAOS_HANG, ENV_CHAOS_HANG_SECS,
                ENV_CHAOS_ATTEMPTS):
        monkeypatch.delenv(var, raising=False)
    yield
    clear_result_cache()


def _golden_config(point):
    return BenchmarkConfig.from_shuffle_size(
        point["shuffle_gb"] * 1e9,
        pattern=point["pattern"],
        network=point["network"],
        num_maps=GOLDEN["num_maps"],
        num_reduces=GOLDEN["num_reduces"],
        key_size=GOLDEN["key_size"],
        value_size=GOLDEN["value_size"],
    )


def _golden_suite(version, fault_plan=None):
    return MicroBenchmarkSuite(cluster=cluster_a(2),
                               jobconf=JobConf(version=version),
                               fault_plan=fault_plan)


def _suite_for(campaign, store=None):
    return MicroBenchmarkSuite(cluster=campaign.cluster_spec(),
                               jobconf=campaign.jobconf(),
                               store=store)


class FlakySuite:
    """Wrap a suite so simulate_point fails the first N calls per key."""

    def __init__(self, suite, failures, exc=RuntimeError("injected")):
        self._suite = suite
        self._budget = dict(failures)
        self._exc = exc

    def __getattr__(self, name):
        return getattr(self._suite, name)

    def simulate_point(self, config):
        key = self._suite.store_key(config)
        if self._budget.get(key, 0) > 0:
            self._budget[key] -= 1
            raise self._exc
        return self._suite.simulate_point(config)


class TestGoldenIdentity:
    """The batch path must reproduce all 40 pinned times bit-for-bit."""

    @pytest.mark.parametrize(
        "version", sorted({p["version"] for p in POINTS}))
    def test_batch_reproduces_golden_times(self, version):
        points = [p for p in POINTS if p["version"] == version]
        configs = [_golden_config(p) for p in points]
        report = CampaignExecutor(
            _golden_suite(version), batch=True).execute(configs)
        assert report.batched and report.executed == len(points)
        for point, outcome in zip(points, report.outcomes):
            assert (outcome.result.execution_time.hex()
                    == point["execution_time_hex"])

    @pytest.mark.parametrize(
        "version", sorted({p["version"] for p in POINTS}))
    def test_batch_with_tracer_is_golden(self, version):
        """A harness tracer must not perturb batched simulations."""
        points = [p for p in POINTS
                  if p["version"] == version and p["shuffle_gb"] == 1.0]
        configs = [_golden_config(p) for p in points]
        tracer = Tracer()
        report = CampaignExecutor(
            _golden_suite(version), batch=True,
            tracer=tracer).execute(configs)
        for point, outcome in zip(points, report.outcomes):
            assert (outcome.result.execution_time.hex()
                    == point["execution_time_hex"])
        assert any(ev.name == "batch-plan" for ev in tracer.events)

    @pytest.mark.parametrize(
        "version", sorted({p["version"] for p in POINTS}))
    def test_batch_with_noop_fault_plan_is_golden(self, version):
        """An empty FaultPlan keeps batched runs bit-identical."""
        points = [p for p in POINTS
                  if p["version"] == version and p["shuffle_gb"] == 1.0]
        configs = [_golden_config(p) for p in points]
        report = CampaignExecutor(
            _golden_suite(version, fault_plan=FaultPlan()),
            batch=True).execute(configs)
        for point, outcome in zip(points, report.outcomes):
            assert (outcome.result.execution_time.hex()
                    == point["execution_time_hex"])


class TestLoopParity:
    # These tests compare key -> stored record text maps read from the
    # databases, and check each map's size so an empty store can never
    # pass the comparison.
    def test_trials_collapse_with_byte_identical_store(self, tmp_path):
        campaign = Campaign(**TRIALS10)
        loop = run_campaign(campaign,
                            store=ResultStore(tmp_path / "loop"),
                            batch=False)
        clear_result_cache()
        batch = run_campaign(campaign,
                             store=ResultStore(tmp_path / "batch"),
                             batch=True)
        assert loop.completed and batch.completed
        assert loop.executed == batch.executed == 10
        assert not loop.batched and batch.batched
        assert batch.unique_simulations == 2
        assert ([o.result.execution_time.hex() for o in loop.outcomes]
                == [o.result.execution_time.hex() for o in batch.outcomes])
        loop_texts = record_texts(tmp_path / "loop")
        batch_texts = record_texts(tmp_path / "batch")
        assert len(loop_texts) == 10
        assert loop_texts == batch_texts
        counters = ("puts", "hits", "misses")
        loop_stats = ResultStore(tmp_path / "loop").stats()
        batch_stats = ResultStore(tmp_path / "batch").stats()
        assert ({k: loop_stats[k] for k in counters}
                == {k: batch_stats[k] for k in counters})

    def test_rand_trials_do_not_collapse(self, tmp_path):
        """MR-RAND matrices are seed-dependent: every trial is unique."""
        campaign = Campaign(**dict(TRIALS10, name="rand-trials",
                                   benchmark="MR-RAND",
                                   shuffle_gbs=(0.02,), trials=3))
        result = run_campaign(campaign,
                              store=ResultStore(tmp_path / "store"),
                              batch=True)
        assert result.completed and result.executed == 3
        assert result.unique_simulations == 3

    def test_jobs_4_batch_matches_jobs_1(self, tmp_path):
        campaign = Campaign(**TRIALS10)
        serial = run_campaign(campaign,
                              store=ResultStore(tmp_path / "j1"),
                              batch=True, jobs=1)
        clear_result_cache()
        parallel = run_campaign(campaign,
                                store=ResultStore(tmp_path / "j4"),
                                batch=True, jobs=4)
        assert serial.completed and parallel.completed
        assert serial.executed == parallel.executed == 10
        assert (serial.unique_simulations
                == parallel.unique_simulations == 2)
        serial_texts = record_texts(tmp_path / "j1")
        assert len(serial_texts) == 10
        assert serial_texts == record_texts(tmp_path / "j4")
        assert (ResultStore(tmp_path / "j1").stats()["puts"]
                == ResultStore(tmp_path / "j4").stats()["puts"] == 10)


class TestResidueSignatures:
    def test_armed_failure_coins_keep_the_seed(self):
        """Per-trial seeds only matter once failure coins are armed."""
        campaign = Campaign(**dict(TRIALS10, shuffle_gbs=(0.02,),
                                   trials=3))
        configs = [p.config for p in campaign.points()]
        healthy = _suite_for(campaign)
        assert plan_batches(healthy, configs, range(3)).unique == 1
        armed = MicroBenchmarkSuite(
            cluster=campaign.cluster_spec(),
            jobconf=JobConf(version=campaign.runtime,
                            task_failure_probability=0.25))
        assert plan_batches(armed, configs, range(3)).unique == 3

    def test_fault_plans_gate_on_noop(self):
        campaign = Campaign(**dict(TRIALS10, shuffle_gbs=(0.02,),
                                   trials=3))
        configs = [p.config for p in campaign.points()]
        noop = MicroBenchmarkSuite(cluster=campaign.cluster_spec(),
                                   jobconf=campaign.jobconf(),
                                   fault_plan=FaultPlan())
        assert plan_batches(noop, configs, range(3)).unique == 1
        active = MicroBenchmarkSuite(
            cluster=campaign.cluster_spec(),
            jobconf=campaign.jobconf(),
            fault_plan=FaultPlan(fetch_failure_probability=0.1))
        assert plan_batches(active, configs, range(3)).unique == 3

    def test_network_aliases_share_a_class(self):
        campaign = Campaign(**dict(
            TRIALS10, shuffle_gbs=(0.02,), trials=1,
            networks=("ipoib-qdr", "IPoIB-QDR(32Gbps)")))
        configs = [p.config for p in campaign.points()]
        assert plan_batches(_suite_for(campaign),
                            configs, range(2)).unique == 1


class TestRobustnessComposition:
    """PR5 semantics must survive the batch path unchanged."""

    def test_flaky_representative_retries_whole_group_ok(self, tmp_path):
        campaign = Campaign(**dict(TRIALS10, shuffle_gbs=(0.02,),
                                   trials=3))
        suite = _suite_for(campaign, ResultStore(tmp_path / "store"))
        configs = [p.config for p in campaign.points()]
        flaky = FlakySuite(suite, {suite.store_key(configs[0]): 1})
        report = CampaignExecutor(
            flaky, policy=RetryPolicy(retries=1, backoff=0.0),
            batch=True).execute(configs)
        assert report.executed == 3 and report.failed == 0
        assert report.unique_simulations == 1
        assert all(o.status == STATUS_OK and o.attempts == 2
                   for o in report.outcomes)

    def test_exhausted_group_quarantines_every_member(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = Campaign(**dict(TRIALS10, shuffle_gbs=(0.02,),
                                   trials=3))
        suite = _suite_for(campaign, store)
        configs = [p.config for p in campaign.points()]
        flaky = FlakySuite(suite, {suite.store_key(configs[0]): 99})
        report = CampaignExecutor(
            flaky, policy=RetryPolicy(retries=1, backoff=0.0),
            batch=True, campaign="grp").execute(configs)
        assert report.failed == 3 and report.executed == 0
        assert all(o.status == STATUS_FAILED and o.attempts == 2
                   for o in report.outcomes)
        assert set(store.quarantine()) == {o.key for o in report.outcomes}

    def test_crashed_group_quarantines_then_resume_fills_gap(
            self, tmp_path, monkeypatch):
        """A worker SIGKILL'd mid-batch takes down only its group, and
        resume rebuilds the gap byte-identically to a clean run."""
        campaign = Campaign(**dict(TRIALS10, name="chaos-batch",
                                   trials=3))
        clean = run_campaign(campaign,
                             store=ResultStore(tmp_path / "clean"),
                             batch=True)
        assert clean.completed and clean.unique_simulations == 2
        clear_result_cache()

        configs = [p.config for p in campaign.points()]
        plan = plan_batches(_suite_for(campaign), configs,
                            range(len(configs)))
        victim = plan.groups[1]
        monkeypatch.setenv(ENV_CHAOS_CRASH, str(victim.representative))
        monkeypatch.setenv(ENV_CHAOS_ATTEMPTS, "99")
        store = ResultStore(tmp_path / "store")
        result = run_campaign(campaign, store=store, batch=True, jobs=2,
                              policy=RetryPolicy(retries=1, backoff=0.0))
        assert result.failed == len(victim.members)
        assert result.executed == len(configs) - len(victim.members)
        crashed_keys = {result.outcomes[i].key for i in victim.members}
        assert set(store.quarantine()) == crashed_keys
        assert store.verify().clean  # survivors landed whole

        monkeypatch.delenv(ENV_CHAOS_CRASH)
        monkeypatch.delenv(ENV_CHAOS_ATTEMPTS)
        clear_result_cache()
        store.quarantine_clear()
        resumed = run_campaign(campaign, store=store, batch=True)
        assert resumed.completed
        assert resumed.executed == len(victim.members)
        assert resumed.unique_simulations == 1
        resumed_texts = record_texts(tmp_path / "store")
        assert len(resumed_texts) == len(configs)
        assert resumed_texts == record_texts(tmp_path / "clean")


class TestProfileSurface:
    def test_profile_in_result_and_checkpoint(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = Campaign(**TRIALS10)
        result = run_campaign(campaign, store=store, batch=True)
        for stage in ("expand", "store-lookup", "shared-setup",
                      "simulate", "record"):
            assert result.profile.get(stage, -1.0) >= 0.0
        assert result.batched is True
        assert result.unique_simulations == 2
        checkpoint = store.read_checkpoint(campaign.name)
        assert checkpoint["batched"] is True
        assert checkpoint["unique_simulations"] == 2
        assert {"store-lookup", "simulate"} <= set(checkpoint["profile"])

    def test_cli_profile_prints_stage_breakdown(self, tmp_path, capsys):
        from repro.core.cli import repro_main

        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(Campaign(**TRIALS10).to_dict()))
        rc = repro_main(["campaign", "run", str(spec),
                         "--store", str(tmp_path / "store"),
                         "--profile", "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stage breakdown:" in out
        for stage in ("expand", "store-lookup", "simulate", "record"):
            assert stage in out
        assert "batch plan: 10 cold point(s) -> 2 unique simulation(s)" in out

    def test_cli_store_stats_reports_hit_rate(self, tmp_path, capsys):
        from repro.core.cli import repro_main

        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(Campaign(**TRIALS10).to_dict()))
        store_root = str(tmp_path / "store")
        assert repro_main(["campaign", "run", str(spec),
                           "--store", store_root, "--quiet"]) == 0
        capsys.readouterr()
        assert repro_main(["store", "stats", "--store", store_root]) == 0
        out = capsys.readouterr().out
        assert "hit_rate" in out
        assert "%" in out or "n/a" in out

"""CampaignExecutor unit tests: policy, retries, fail-fast, outcomes.

Process-level failure injection (SIGKILL, hangs, SIGINT) lives in
``test_chaos.py``; these tests exercise the executor's control flow
with in-process fault injection, so they are fast and deterministic.
"""

import pytest

from repro.campaign import Campaign
from repro.campaign.executor import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    CampaignExecutor,
    RetryPolicy,
)
from repro.core.suite import MicroBenchmarkSuite, clear_result_cache
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


def make_suite(store=None):
    campaign = Campaign(**TINY)
    return campaign, MicroBenchmarkSuite(
        cluster=campaign.cluster_spec(),
        jobconf=campaign.jobconf(),
        store=store,
    )


def grid(campaign):
    points = campaign.points()
    return [p.config for p in points], [p.label() for p in points]


class FlakySuite:
    """Wrap a suite so simulate_point fails the first N calls per key."""

    def __init__(self, suite, failures, exc=RuntimeError("injected")):
        self._suite = suite
        self._budget = dict(failures)  # key -> remaining failures
        self._exc = exc
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._suite, name)

    def simulate_point(self, config):
        key = self._suite.store_key(config)
        self.calls.append(key)
        if self._budget.get(key, 0) > 0:
            self._budget[key] -= 1
            raise self._exc
        return self._suite.simulate_point(config)


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.retries == 0 and policy.timeout is None

    @pytest.mark.parametrize("kwargs", [
        {"retries": -1},
        {"backoff": -0.5},
        {"backoff_factor": 0.5},
        {"timeout": 0},
        {"timeout": -3},
    ])
    def test_invalid_policies_raise(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delay_progression_caps(self):
        policy = RetryPolicy(retries=5, backoff=1.0, backoff_factor=2.0,
                             max_backoff=3.0)
        assert [policy.delay(a) for a in (1, 2, 3, 4)] == [1.0, 2.0, 3.0, 3.0]

    def test_zero_backoff_means_no_wait(self):
        assert RetryPolicy(retries=2, backoff=0.0).delay(3) == 0.0

    def test_keyed_delay_is_deterministic_decorrelated_jitter(self):
        """Same (key, attempt) → same delay; different keys differ."""
        policy = RetryPolicy(retries=5, backoff=1.0, backoff_factor=2.0,
                             max_backoff=8.0)
        for attempt in (1, 2, 3):
            base = policy.delay(attempt)
            jittered = policy.delay(attempt, key="point-a")
            # Pinned to [base/2, base]: never longer than the legacy
            # wait, never less than half of it.
            assert base / 2 <= jittered <= base
            assert jittered == policy.delay(attempt, key="point-a")
        spread = {policy.delay(2, key=f"point-{i}") for i in range(16)}
        assert len(spread) > 8  # the whole point: keys decorrelate

    def test_keyed_delay_with_zero_backoff_stays_zero(self):
        assert RetryPolicy(retries=1, backoff=0.0).delay(1, key="k") == 0.0


class TestInlineExecution:
    def test_all_points_succeed(self, tmp_path):
        campaign, suite = make_suite(ResultStore(tmp_path / "store"))
        configs, labels = grid(campaign)
        report = CampaignExecutor(suite).execute(configs, labels)
        assert report.executed == 4
        assert report.from_store == report.failed == report.skipped == 0
        assert not report.interrupted
        assert all(o.status == STATUS_OK and o.attempts == 1
                   for o in report.outcomes)

    def test_second_pass_is_all_cached(self, tmp_path):
        campaign, suite = make_suite(ResultStore(tmp_path / "store"))
        configs, labels = grid(campaign)
        CampaignExecutor(suite).execute(configs, labels)
        clear_result_cache()
        report = CampaignExecutor(suite).execute(configs, labels)
        assert report.from_store == 4 and report.executed == 0
        assert all(o.status == STATUS_CACHED for o in report.outcomes)

    def test_retry_recovers_flaky_point(self, tmp_path):
        campaign, suite = make_suite(ResultStore(tmp_path / "store"))
        configs, labels = grid(campaign)
        flaky_key = suite.store_key(configs[1])
        flaky = FlakySuite(suite, {flaky_key: 2})
        executor = CampaignExecutor(
            flaky, policy=RetryPolicy(retries=2, backoff=0.0))
        report = executor.execute(configs, labels)
        assert report.executed == 4 and report.failed == 0
        assert report.outcomes[1].attempts == 3
        assert report.outcomes[0].attempts == 1

    def test_exhausted_retries_quarantine(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign, suite = make_suite(store)
        configs, labels = grid(campaign)
        bad_key = suite.store_key(configs[2])
        flaky = FlakySuite(suite, {bad_key: 99},
                           exc=RuntimeError("synthetic failure"))
        executor = CampaignExecutor(
            flaky, policy=RetryPolicy(retries=1, backoff=0.0),
            campaign="tiny")
        report = executor.execute(configs, labels)
        assert report.executed == 3 and report.failed == 1
        outcome = report.outcomes[2]
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 2
        assert "synthetic failure" in outcome.error
        assert "RuntimeError" in outcome.traceback
        ledger = store.quarantine()
        assert set(ledger) == {bad_key}
        entry = ledger[bad_key]
        assert entry["campaign"] == "tiny"
        assert entry["attempts"] == 2
        assert "synthetic failure" in entry["error"]

    def test_fail_fast_skips_the_rest(self, tmp_path):
        campaign, suite = make_suite(ResultStore(tmp_path / "store"))
        configs, labels = grid(campaign)
        bad_key = suite.store_key(configs[0])
        flaky = FlakySuite(suite, {bad_key: 99})
        executor = CampaignExecutor(flaky, fail_fast=True)
        report = executor.execute(configs, labels)
        assert report.failed == 1 and report.skipped == 3
        assert [o.status for o in report.outcomes] == [
            STATUS_FAILED, STATUS_SKIPPED, STATUS_SKIPPED, STATUS_SKIPPED]

    def test_retries_do_not_change_results(self, tmp_path):
        campaign, suite = make_suite(ResultStore(tmp_path / "store"))
        configs, labels = grid(campaign)
        baseline = CampaignExecutor(suite).execute(configs, labels)
        clear_result_cache()
        _campaign2, suite2 = make_suite(ResultStore(tmp_path / "store2"))
        flaky = FlakySuite(suite2, {suite2.store_key(c): 1 for c in configs})
        report = CampaignExecutor(
            flaky, policy=RetryPolicy(retries=1, backoff=0.0)).execute(
                configs, labels)
        for a, b in zip(baseline.outcomes, report.outcomes):
            assert (a.result.execution_time.hex()
                    == b.result.execution_time.hex())

    def test_progress_fires_for_every_point(self, tmp_path):
        campaign, suite = make_suite(ResultStore(tmp_path / "store"))
        configs, labels = grid(campaign)
        seen = []
        executor = CampaignExecutor(suite, progress=seen.append)
        executor.execute(configs, labels)
        assert len(seen) == 4
        assert {o.label for o in seen} == set(labels)

    def test_jobs_must_be_positive(self, tmp_path):
        _campaign, suite = make_suite()
        with pytest.raises(ValueError, match="jobs"):
            CampaignExecutor(suite, jobs=0)


class TestIsolatedExecution:
    """The supervised-process path, without chaos (happy paths)."""

    def test_forced_isolation_matches_inline(self, tmp_path):
        campaign, suite = make_suite(ResultStore(tmp_path / "a"))
        configs, labels = grid(campaign)
        inline = CampaignExecutor(suite).execute(configs, labels)
        clear_result_cache()
        _c2, suite2 = make_suite(ResultStore(tmp_path / "b"))
        # A timeout isolates every attempt, even at jobs=1.
        isolated = CampaignExecutor(
            suite2, policy=RetryPolicy(timeout=60)).execute(configs, labels)
        assert isolated.executed == 4
        for a, b in zip(inline.outcomes, isolated.outcomes):
            assert (a.result.execution_time.hex()
                    == b.result.execution_time.hex())

    def test_parallel_jobs_record_every_point(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign, suite = make_suite(store)
        configs, labels = grid(campaign)
        report = CampaignExecutor(suite, jobs=2).execute(configs, labels)
        assert report.executed == 4
        assert store.stats()["puts"] == 4
        assert store.verify().clean

    def test_checkpoint_written_after_execute(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign, suite = make_suite(store)
        configs, labels = grid(campaign)
        CampaignExecutor(suite, campaign="tiny").execute(configs, labels)
        checkpoint = store.read_checkpoint("tiny")
        assert checkpoint["total"] == 4
        assert checkpoint["interrupted"] is False
        assert len(checkpoint["completed"]) == 4
        assert checkpoint["failed"] == [] and checkpoint["skipped"] == []

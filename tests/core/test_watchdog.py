"""Tests for trial budgets and the parallel-executor watchdog.

The chaos bodies below register themselves as trial kinds and then
kill or hang their own worker process; the tests always drive them
through :class:`ParallelTrialExecutor` with an explicit ``fork``
context (so the in-test registrations are inherited) and at least two
specs (so the executor does not take its serial fast path inside the
pytest process).
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.runner import (
    ParallelTrialExecutor,
    RunnerError,
    TrialPlan,
    TrialRunner,
    TrialSpec,
    body_factory,
    execute_trial,
)
from repro.errors import TrialBudgetError
from repro.sim.ledger import CostCategory
from repro.sim.faults import FaultKind

FORK = multiprocessing.get_context("fork")


def faas_spec(trial=0, seed=0, budget_ns=0.0):
    return TrialSpec.make(kind="faas", platform="tdx", secure=True,
                          workload="cpustress", runtime="lua",
                          trial=trial, seed=seed, budget_ns=budget_ns)


def small_plan(trials=2, seed=0):
    return TrialPlan.matrix(
        kind="faas", platforms=("tdx",), workloads=("cpustress",),
        runtimes=("lua",), trials=trials, seed=seed,
    )


def dump(results):
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


@body_factory("chaos-kill")
def _chaos_kill_body(spec):
    """SIGKILL the worker on first execution, run clean afterwards.

    ``sentinel`` (a path in the spec params) marks "already died once";
    ``mode=always`` kills unconditionally — the poison pill no respawn
    can save.
    """
    sentinel = spec.params["sentinel"]
    mode = spec.params.get("mode", "once")

    def body(kernel):
        if mode == "always" or not os.path.exists(sentinel):
            with open(sentinel, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return {"survived": True}

    return body


@body_factory("chaos-hang")
def _chaos_hang_body(spec):
    """Hang the worker (wall clock) on first execution."""
    sentinel = spec.params["sentinel"]

    def body(kernel):
        if not os.path.exists(sentinel):
            with open(sentinel, "w"):
                pass
            time.sleep(600)   # far beyond any test timeout: only the
                              # watchdog's pool kill gets us out
        return {"survived": True}

    return body


@body_factory("chaos-faas")
def _chaos_faas_body(spec):
    """Deterministic seeded work that SIGKILLs its worker once mid-sweep.

    Unlike ``chaos-kill`` this body produces a *non-trivial* result —
    seeded draws, a fault-plan coin flip, a ledger charge — so the
    resume tests below can assert bit-identity of real payloads, not
    just survival.  ``kill_trial`` picks which trial murders its
    worker (guarded by ``sentinel`` so the respawned attempt runs
    clean and converges on the uninterrupted result).
    """
    sentinel = spec.params["sentinel"]
    kill_trial = spec.params.get("kill_trial", -1)

    def body(kernel):
        ctx = kernel.ctx
        # the factory is memoized without the trial index, so the body
        # recovers it from the trial's rng stream label (".../{trial}")
        trial = int(ctx.rng.label.rsplit("/", 1)[1])
        if trial == kill_trial and not os.path.exists(sentinel):
            with open(sentinel, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        draws = [ctx.rng.child(f"work/{i}").uniform(0.0, 1.0)
                 for i in range(4)]
        slow = bool(ctx.faults is not None
                    and ctx.faults.triggers(FaultKind.PCS_TIMEOUT, "/chaos"))
        ctx.charge(CostCategory.CPU,
                   5_000_000.0 * (2.0 if slow else 1.0) * (1.0 + sum(draws)))
        return {"draws": draws, "slow": slow}

    return body


def chaos_spec(kind, tmp_path, trial=0, **params):
    params = {"sentinel": str(tmp_path / f"sentinel-{trial}"), **params}
    return TrialSpec.make(kind=kind, platform="tdx", secure=True,
                          workload="chaos", trial=trial, seed=0,
                          params=params)


class TestTrialBudget:
    def test_negative_budget_rejected(self):
        with pytest.raises(RunnerError):
            faas_spec(budget_ns=-1.0)

    def test_zero_budget_does_not_change_hash(self):
        assert (faas_spec(budget_ns=0.0).content_hash()
                == faas_spec().content_hash())

    def test_budget_changes_hash(self):
        assert (faas_spec(budget_ns=1e9).content_hash()
                != faas_spec().content_hash())

    def test_generous_budget_result_identical(self):
        plain = execute_trial(faas_spec())
        budgeted = execute_trial(faas_spec(budget_ns=plain.total_ns * 10))
        assert budgeted.to_dict() == plain.to_dict()

    def test_tiny_budget_degrades_without_faults(self):
        result = execute_trial(faas_spec(budget_ns=1.0))
        assert result.degraded
        assert result.output is None
        # the watchdog fires at the deadline: the doomed attempt burned
        # exactly the budget, charged as startup waste
        assert result.total_ns == pytest.approx(1.0)
        names = [span.name for span in result.trace.spans]
        assert "failure" in names

    def test_budget_exhaustion_retries_under_faults(self):
        # an *active* fault plan (nonzero rate) selects the retry path;
        # the budget bust then counts as a retryable failure per attempt
        from dataclasses import replace

        from repro.sim.faults import FaultPlan

        spec = replace(
            faas_spec(budget_ns=1.0),
            faults=FaultPlan.parse("vm-crash=0.001,seed=1").to_spec(),
        )
        result = execute_trial(spec)
        assert result.degraded
        assert result.attempts == 3   # every attempt re-busts the budget

    def test_runner_budget_applies_to_whole_plan(self):
        results = TrialRunner(budget_ns=1.0).run(small_plan(trials=2))
        assert all(r.degraded for r in results)

    def test_budgeted_serial_vs_parallel_identical(self):
        plan = small_plan(trials=2)
        serial = TrialRunner(budget_ns=1.0).run(plan)
        parallel = TrialRunner(jobs=2, budget_ns=1.0).run(plan)
        assert dump(serial) == dump(parallel)

    def test_budget_error_carries_waste(self):
        error = TrialBudgetError("over", wasted_ns=42.0)
        assert error.wasted_ns == 42.0


class TestWorkerDeathRespawn:
    def test_dead_worker_respawned_and_work_completes(self, tmp_path):
        specs = [chaos_spec("chaos-kill", tmp_path, trial=0),
                 chaos_spec("chaos-kill", tmp_path, trial=1)]
        executor = ParallelTrialExecutor(jobs=2, mp_context=FORK)
        results = executor.map(execute_trial, specs)
        assert len(results) == 2
        assert [r.output for r in results] == [{"survived": True}] * 2
        # both workers really did die once
        assert all(os.path.exists(s.params["sentinel"]) for s in specs)

    def test_poison_spec_surfaces_pending_trial_names(self, tmp_path):
        specs = [chaos_spec("chaos-kill", tmp_path, trial=0, mode="always"),
                 chaos_spec("chaos-kill", tmp_path, trial=1)]
        executor = ParallelTrialExecutor(jobs=2, mp_context=FORK,
                                         max_respawns=1)
        with pytest.raises(RunnerError, match=r"pending trials: chaos#0"):
            executor.map(execute_trial, specs)

    def test_results_survive_from_journal_after_respawn(self, tmp_path):
        """The journal re-derives completed work across a pool respawn."""
        from repro.core.journal import TrialJournal

        plan = TrialPlan(specs=(
            chaos_spec("chaos-kill", tmp_path, trial=0),
            chaos_spec("chaos-kill", tmp_path, trial=1),
        ))
        with TrialJournal(tmp_path / "j.jsonl") as journal:
            runner = TrialRunner(journal=journal)
            runner.executor = ParallelTrialExecutor(jobs=2, mp_context=FORK)
            results = runner.run(plan)
            assert journal.recorded == 2
        assert all(r.output == {"survived": True} for r in results)


def manager_threads():
    return {thread for thread in threading.enumerate()
            if type(thread).__name__ == "_ExecutorManagerThread"}


class TestPoolTeardown:
    def test_map_returns_after_the_pool_manager_exits(self):
        # a manager thread still tearing down at interpreter exit races
        # concurrent.futures' exit hook and prints a traceback to stderr
        before = manager_threads()
        executor = ParallelTrialExecutor(jobs=2, mp_context=FORK)
        results = executor.map(execute_trial,
                               [faas_spec(trial=0), faas_spec(trial=1)])
        assert len(results) == 2
        assert manager_threads() <= before


class TestResumeUnderFaults:
    """``--resume`` journal replay across a pool-watchdog respawn.

    The sweep runs under an *active* :class:`FaultPlan` (nonzero
    rates, so the retry path is selected) while one trial SIGKILLs its
    worker mid-sweep.  The watchdog respawns the pool, the journal
    preserves the completed prefix, and both the recovered sweep and a
    later journal-only resume must be bit-identical to an
    uninterrupted run.
    """

    FAULTS = "vm-crash=0.3,pcs-timeout=0.5,seed=7"

    def faulted_plan(self, tmp_path, trials=4, kill_trial=2):
        shared = str(tmp_path / "sentinel-shared")
        specs = tuple(
            chaos_spec("chaos-faas", tmp_path, trial=t,
                       kill_trial=kill_trial, sentinel=shared)
            for t in range(trials)
        )
        # params feed the content hash, so the sentinel path must be
        # identical across runs for the journal to recognize the specs
        return TrialPlan(specs=specs).with_faults(self.FAULTS)

    def test_resumed_sweep_bit_identical_to_uninterrupted(self, tmp_path):
        from repro.core.journal import TrialJournal

        plan = self.faulted_plan(tmp_path)
        sentinel = plan.specs[0].params["sentinel"]

        # uninterrupted baseline: pre-arm the sentinel so nothing dies
        with open(sentinel, "w"):
            pass
        baseline = dump(TrialRunner().run(plan))
        os.unlink(sentinel)

        # interrupted run: trial 2 SIGKILLs its worker mid-sweep; the
        # watchdog respawns the pool and the sweep completes
        with TrialJournal(tmp_path / "sweep.jsonl") as journal:
            runner = TrialRunner(journal=journal)
            runner.executor = ParallelTrialExecutor(jobs=2, mp_context=FORK)
            recovered = dump(runner.run(plan))
            assert journal.recorded == len(plan.specs)
        assert os.path.exists(sentinel)   # the worker really died once
        assert recovered == baseline

        # resume: a fresh runner against the same journal replays all
        # trials without executing anything (sentinel stays un-rearmed,
        # so any re-execution of trial 2 would kill its worker again)
        os.unlink(sentinel)
        with TrialJournal(tmp_path / "sweep.jsonl") as journal:
            resumed = dump(TrialRunner(journal=journal).run(plan))
            assert journal.replayed == len(plan.specs)
            assert journal.recorded == 0
        assert not os.path.exists(sentinel)   # proof: nothing re-ran
        assert resumed == baseline

    def test_faults_actually_active_in_resumed_results(self, tmp_path):
        # guard against the fault plan silently not applying: the
        # sweep's results must carry injected-fault records
        plan = self.faulted_plan(tmp_path, kill_trial=-1)
        results = TrialRunner().run(plan)
        assert any(r.faults_injected for r in results)
        assert any(r.output["slow"] for r in results)


class TestHeartbeatWatchdog:
    def test_bad_heartbeat_rejected(self):
        with pytest.raises(RunnerError):
            ParallelTrialExecutor(jobs=2, heartbeat_s=0.0)

    def test_bad_max_respawns_rejected(self):
        with pytest.raises(RunnerError):
            ParallelTrialExecutor(jobs=2, max_respawns=-1)

    def test_hung_worker_killed_and_work_retried(self, tmp_path):
        specs = [chaos_spec("chaos-hang", tmp_path, trial=0),
                 chaos_spec("chaos-hang", tmp_path, trial=1)]
        executor = ParallelTrialExecutor(jobs=2, mp_context=FORK,
                                         heartbeat_s=1.0)
        results = executor.map(execute_trial, specs)
        assert [r.output for r in results] == [{"survived": True}] * 2

    def test_permanently_stalled_pool_gives_up_loudly(self, tmp_path):
        # with max_respawns=0 the very first missed heartbeat is fatal:
        # the executor reports the stall instead of respawning
        specs = [chaos_spec("chaos-hang", tmp_path, trial=0),
                 chaos_spec("chaos-hang", tmp_path, trial=1)]
        executor = ParallelTrialExecutor(jobs=2, mp_context=FORK,
                                         heartbeat_s=0.5, max_respawns=0)
        with pytest.raises(RunnerError, match="no worker heartbeat"):
            executor.map(execute_trial, specs)

"""Tests for the fig10 supply-chain experiment harness."""

import hashlib
import json

import pytest

from repro.attest.crypto import _KEYPAIR_CACHE, derived_keypair
from repro.core.runner import TrialRunner
from repro.experiments import run_fig10
from repro.sim.rng import SimRng

CELLS = ("eager-secure", "eager-normal", "lazy-secure", "lazy-normal")
QUICK = dict(trials=1, vms=2, accesses=4)


@pytest.fixture(scope="module")
def fig10():
    return run_fig10(**QUICK)


class TestFig10:
    def test_covers_the_whole_matrix(self, fig10):
        expected = {f"{platform}/{cell}"
                    for platform in ("tdx", "sev-snp") for cell in CELLS}
        assert set(fig10.rows) == expected
        for row in fig10.rows.values():
            assert row["cold_boot_ns"] > 0.0
            assert row["warm_boot_ns"] > 0.0
            assert row["chunks_fetched"] > 0

    def test_headline_separations_hold(self, fig10):
        for platform in ("tdx", "sev-snp"):
            for side in ("secure", "normal"):
                assert (fig10.rows[f"{platform}/lazy-{side}"]["cold_boot_ns"]
                        < fig10.rows[f"{platform}/eager-{side}"]
                        ["cold_boot_ns"])
            for strategy in ("eager", "lazy"):
                assert (fig10.rows[f"{platform}/{strategy}-secure"]
                        ["cold_boot_ns"]
                        > fig10.rows[f"{platform}/{strategy}-normal"]
                        ["cold_boot_ns"])

    def test_counters_reconcile_with_request_logs(self, fig10):
        assert fig10.reconciled
        assert fig10.metrics["counters"]["supply.reconciled"] == 1

    def test_resumption_only_on_secure_cells(self, fig10):
        for cell, row in fig10.rows.items():
            if cell.endswith("-secure"):
                assert row["resumed"] > 0
            else:
                assert row["resumed"] == 0

    def test_chunk_faults_only_on_lazy_cells(self, fig10):
        for cell, row in fig10.rows.items():
            if "/lazy-" in cell:
                assert row["chunk_faults"] > 0
            else:
                assert row["chunk_faults"] == 0

    def test_warm_relaunch_is_cheaper_on_secure(self, fig10):
        for platform in ("tdx", "sev-snp"):
            for strategy in ("eager", "lazy"):
                row = fig10.rows[f"{platform}/{strategy}-secure"]
                assert row["warm_boot_ns"] < row["cold_boot_ns"]

    def test_render_mentions_the_headlines(self, fig10):
        text = fig10.render()
        assert "confidential supply chain" in text
        assert "session resumptions" in text
        assert "reconcile" in text

    def test_serial_vs_parallel_snapshots_identical(self):
        serial = run_fig10(runner=TrialRunner(), **QUICK)
        parallel = run_fig10(runner=TrialRunner(jobs=2), **QUICK)
        assert (json.dumps(serial.metrics, sort_keys=True)
                == json.dumps(parallel.metrics, sort_keys=True))


#: sha256 of ``run_fig10(seed=0)``'s render plus its canonical metrics
#: JSON, and the fingerprints of the 12 infrastructure keys it
#: generates, keyed by (parent stream label, child label).  Recorded
#: before the RSA and keystream kernels were rewritten; any change to
#: a key, a signature or a sealed byte moves them.
FIG10_SEED0_DIGEST = (
    "3781f0ba079c998e89c48ed11bbc9c12cb3ceeb5f87c5d645b4e8f5372d58604")
FIG10_SEED0_KEYS = {
    ("launch-attestor/sev-snp", "ca/AMD Root Key (ARK)"):
        "a66709c72e5d9672d97eace8",
    ("launch-attestor/sev-snp", "ca/AMD SEV Key (ASK)"):
        "21f30e85475d15365b5a2b61",
    ("launch-attestor/sev-snp", "vcek/epyc-9124-chip-0"):
        "25b803e53598245b52f64f7a",
    ("launch-attestor/tdx", "ak"): "435bb743f42fab159e7607a3",
    ("launch-attestor/tdx", "pck-key"): "c4f0f0d729e7af32441756e1",
    ("launch-attestor/tdx/intel-pcs", "ca/Intel PCK Platform CA"):
        "63dab38db6d8d76d30a33b79",
    ("launch-attestor/tdx/intel-pcs", "ca/Intel SGX Root CA"):
        "db2ce7571589c98fcc3f5770",
    ("launch-attestor/tdx/intel-pcs", "tcb-signing"):
        "72c6cccf706dee208f8aee0a",
    ("supply-infra/sev-snp/eager/secure/publisher", "publisher"):
        "3a5eef4754f17cc2d200306f",
    ("supply-infra/sev-snp/lazy/secure/publisher", "publisher"):
        "1722e492e985e4e765ef1d95",
    ("supply-infra/tdx/eager/secure/publisher", "publisher"):
        "d9e0968a124fbbfffe02fae1",
    ("supply-infra/tdx/lazy/secure/publisher", "publisher"):
        "f1c4fff63196060c21dbf6ca",
}


@pytest.fixture(scope="module")
def fig10_seed0():
    return run_fig10(seed=0)


class TestKnownAnswers:
    def test_seed0_render_and_metrics_digest(self, fig10_seed0):
        text = fig10_seed0.render() + "\n" + json.dumps(
            fig10_seed0.metrics, sort_keys=True, separators=(",", ":"))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == FIG10_SEED0_DIGEST)

    def test_seed0_infrastructure_keys(self, fig10_seed0):
        generated = {(seed, parent, child)
                     for seed, parent, child, _ in _KEYPAIR_CACHE}
        fingerprints = {}
        for parent, child in FIG10_SEED0_KEYS:
            assert (0, parent, child) in generated
            pair = derived_keypair(SimRng(0, parent), child)
            fingerprints[parent, child] = pair.public.fingerprint()
        assert fingerprints == FIG10_SEED0_KEYS

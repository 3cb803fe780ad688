"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench

Each workload must emit every metric BENCHMARK.json names, with its unit,
and no failed operation; the traced run's per-kind call counts must repeat
exactly between two runs with the same seed.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload, trace, seed=1):
    """The metrics and the stamp of one tiny run."""
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert f"{workload} failed_ratio 0 ratio" in lines
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[len("stamp "):])
    return out["metrics"], stamp


def assert_declared(metrics, kind):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    metrics, _ = result(workload, trace=0)
    assert_declared(metrics, "end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    (first, stamp), (second, _) = result(workload, trace=1), result(workload, trace=1)
    assert_declared(first, "per_layer")
    counts = {k for k in first if ".calls." in k}
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["crypto.exp.calls.login"]["value"] == 7
    assert first["ledger.append.calls.login"]["value"] == 1
    assert first["oprf.evaluate.calls.guess_limited"]["value"] == 0
    assert first["trace.overhead"]["value"] > 0
    if workload == "cli-deploy":
        # unseal decodes every user's metadata once per command
        users = stamp["users_per_traced_login"]
        assert first["wire.decode_metadata.calls.login"]["value"] == pytest.approx(users, abs=1e-9)
        assert first["ledger.open.ms"]["value"] > 0


def test_guess_timed_from_server_phase1(monkeypatch):
    """A guess's latency leaves out the attacker's client_auth_init; a
    login's keeps it."""
    sys.path.insert(0, str(HERE))
    import run

    p, _ = run.load_pdid()
    spec = dataclasses.replace(run.SPECS["auth-traffic"], **run.TINY)
    dep = run.setup_memory(p, spec, seed=1)
    delay = 0.2
    init = p.actors.client_auth_init

    def slow_init(*args):
        time.sleep(delay)
        return init(*args)

    monkeypatch.setattr(p.actors, "client_auth_init", slow_init)
    guess = dep.model.plan("guess", dep.clock())
    assert guess.label == "guess_limited"
    outcome, latency = dep.execute(guess)
    assert outcome == "rate-limited" and latency < delay / 2
    login = dep.model.plan("login", dep.clock())
    outcome, latency = dep.execute(login)
    assert outcome == "ok" and latency > delay


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

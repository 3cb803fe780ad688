"""The command-line harness: exit codes, JSON output, deployments on disk."""

import getpass
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import pdid
from pdid import actors, cli
from pdid.contract import GpmContract
from pdid.errors import PdidError
from pdid.ledger import Ledger


@pytest.fixture
def config_path(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.PASSWORD_ENV, "the password")
    return str(tmp_path / "deploy.json")


def run(args, capsys):
    code = cli.main(args)
    return code, capsys.readouterr().out


def run_json(args, capsys):
    code, out = run(["--json"] + args, capsys)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# Lifecycle commands.
# ---------------------------------------------------------------------------


def test_init_register_login_update_cycle(config_path, capsys, monkeypatch):
    code, out = run_json(["--config", config_path, "init"], capsys)
    assert code == 0
    assert out["status"] == "initialized"
    assert len(bytes.fromhex(out["contract_public_key"])) == 32

    code, out = run_json(["--config", config_path, "register", "--username", "al"], capsys)
    assert code == 0 and out["status"] == "registered"

    code, out = run_json(
        ["--config", config_path, "login", "--username", "al", "--server", "s.example"],
        capsys,
    )
    assert code == 0
    assert out["status"] == "authenticated"
    assert out["keys_match"] is True
    assert len(out["session_key_fingerprint"]) == 16

    monkeypatch.setenv(cli.NEW_PASSWORD_ENV, "after rotation")
    code, out = run_json(["--config", config_path, "update", "--username", "al"], capsys)
    assert code == 0 and out["status"] == "password-updated"

    # Old password now fails with the collapsed public code.
    code, out = run_json(["--config", config_path, "login", "--username", "al"], capsys)
    assert code == 1
    assert out == {"status": "failed", "error": "authentication-failed"}

    monkeypatch.setenv(cli.PASSWORD_ENV, "after rotation")
    code, out = run_json(["--config", config_path, "login", "--username", "al"], capsys)
    assert code == 0 and out["status"] == "authenticated"


def test_init_is_idempotent_and_forceable(config_path, capsys):
    code, first = run_json(["--config", config_path, "init"], capsys)
    assert code == 0 and first["status"] == "initialized"
    code, again = run_json(["--config", config_path, "init"], capsys)
    assert code == 0 and again["status"] == "already-initialized"
    code, forced = run_json(["--config", config_path, "init", "--force"], capsys)
    assert code == 0 and forced["status"] == "initialized"
    assert forced["contract_public_key"] != first["contract_public_key"]


DEFAULT_CONFIG = """{
  "ledger_path": "ledger.log",
  "sealed_state_path": "gpm.sealed",
  "contract_pk_path": "contract_pk.hex",
  "sealing_key_path": "sealing.key",
  "n_nodes": 4,
  "f": 1,
  "rate_limit_attempts": 10,
  "rate_limit_window_secs": 60.0
}
"""


def test_init_writes_the_default_config_byte_for_byte(config_path, capsys):
    assert run(["--config", config_path, "init"], capsys)[0] == 0
    assert Path(config_path).read_text() == DEFAULT_CONFIG


def test_init_creates_missing_deployment_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.PASSWORD_ENV, "the password")
    nested = str(tmp_path / "deep" / "deploy" / "pdid.json")
    code, out = run_json(["--config", nested, "init"], capsys)
    assert code == 0 and out["status"] == "initialized"
    code, _ = run_json(["--config", nested, "register", "--username", "cy"], capsys)
    assert code == 0


def test_unreadable_state_path_is_a_usage_error(config_path, capsys):
    run(["--config", config_path, "init"], capsys)
    os.remove(os.path.join(os.path.dirname(config_path), "ledger.log"))
    code = cli.main(["--config", config_path, "login", "--username", "al"])
    assert code == 2


def test_register_twice_fails_by_design(config_path, capsys):
    run(["--config", config_path, "init"], capsys)
    assert run(["--config", config_path, "register", "--username", "bo"], capsys)[0] == 0
    code, out = run_json(["--config", config_path, "register", "--username", "bo"], capsys)
    assert code == 1
    assert out["error"] == "username-taken"


def test_unknown_user_and_wrong_password_indistinguishable(config_path, capsys, monkeypatch):
    run(["--config", config_path, "init"], capsys)
    run(["--config", config_path, "register", "--username", "real"], capsys)
    monkeypatch.setenv(cli.PASSWORD_ENV, "not the password")
    _, wrong_pw = run_json(["--config", config_path, "login", "--username", "real"], capsys)
    _, no_user = run_json(["--config", config_path, "login", "--username", "ghost"], capsys)
    assert wrong_pw == no_user == {"status": "failed", "error": "authentication-failed"}


def test_concurrent_saves_do_not_collide(config_path, capsys):
    # Each thread stands for one command process saving the same deployment.
    run(["--config", config_path, "init"], capsys)
    errors = []

    def save_loop():
        dep = cli.load_deployment(cli.load_config(config_path))
        try:
            for _ in range(200):
                dep.save()
        except Exception as exc:  # collected, asserted below
            errors.append(exc)
        finally:
            dep.ledger.close()

    threads = [threading.Thread(target=save_loop) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(os.listdir(os.path.dirname(config_path))) == [
        "contract_pk.hex", "deploy.json", "gpm.sealed", "ledger.log", "sealing.key",
    ]


def test_failed_save_leaves_no_temp_file(config_path, capsys, monkeypatch):
    run(["--config", config_path, "init"], capsys)
    dep = cli.load_deployment(cli.load_config(config_path))
    before = sorted(os.listdir(os.path.dirname(config_path)))

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        dep.save()
    dep.ledger.close()
    assert sorted(os.listdir(os.path.dirname(config_path))) == before


@pytest.mark.parametrize("damaged", ["sealing_key_path", "sealed_state_path"])
def test_load_deployment_closes_the_ledger_when_it_fails(config_path, capsys, monkeypatch, damaged):
    run(["--config", config_path, "init"], capsys)
    config = cli.load_config(config_path)
    path = getattr(config, damaged)
    data = bytearray(Path(path).read_bytes())
    data[-1] ^= 0x01
    Path(path).write_bytes(bytes(data))
    closed = []
    close = Ledger.close
    monkeypatch.setattr(Ledger, "close", lambda self: closed.append(self) or close(self))
    with pytest.raises(PdidError):
        cli.load_deployment(config)
    assert len(closed) == 1


def test_failed_attempts_persist_across_processes(tmp_path, capsys, monkeypatch):
    # Each CLI call reloads sealed state; rate-limit counters must survive.
    config = str(tmp_path / "deploy.json")
    monkeypatch.setenv(cli.PASSWORD_ENV, "pw")
    run(["--config", config, "init"], capsys)
    cfg = cli.Config.load(config)
    with open(config, "w") as fh:
        json.dump({"rate_limit_attempts": 2, "rate_limit_window_secs": 3600.0}, fh)
    run(["--config", config, "register", "--username", "rl"], capsys)
    monkeypatch.setenv(cli.PASSWORD_ENV, "bad")
    assert run(["--config", config, "login", "--username", "rl"], capsys)[0] == 1
    assert run(["--config", config, "login", "--username", "rl"], capsys)[0] == 1
    code, out = run_json(["--config", config, "login", "--username", "rl"], capsys)
    assert code == 1 and out["error"] == "rate-limited"
    assert os.path.exists(cfg.ledger_path)


# ---------------------------------------------------------------------------
# Usage errors.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        '{"n_nodes": 4,',
        '["n_nodes", 4]',
        '{"rate_limit_attempts": "ten"}',
        '{"n_nodes": "4"}',
        '{"f": true}',
        '{"rate_limit_window_secs": "60"}',
        '{"ledger_path": 5}',
    ],
    ids=["invalid-json", "array", "attempts-string", "nodes-string", "f-bool",
         "window-string", "path-number"],
)
def test_bad_config_is_a_usage_error_before_any_ledger_write(config_path, capsys, text):
    assert run(["--config", config_path, "init"], capsys)[0] == 0
    ledger = Path(config_path).parent / "ledger.log"
    before = ledger.read_bytes()
    Path(config_path).write_text(text)
    for command in (["register", "--username", "al"], ["login", "--username", "al"], ["init"]):
        assert cli.main(["--config", config_path] + command) == 2
        assert capsys.readouterr().err.startswith("error: config")
    assert ledger.read_bytes() == before


@pytest.mark.parametrize(
    "text",
    [
        '{"n_nodes": 5}',
        '{"n_nodes": 256, "f": 85}',
        '{"n_nodes": -2, "f": -1}',
        '{"rate_limit_attempts": 0}',
        '{"rate_limit_window_secs": -5}',
        '{"rate_limit_window_secs": 0}',
        '{"rate_limit_window_secs": NaN}',
        '{"rate_limit_window_secs": Infinity}',
    ],
    ids=["nodes-not-3f+1", "nodes-over-255", "f-negative", "attempts-zero", "window-negative",
         "window-zero", "window-nan", "window-infinite"],
)
def test_out_of_range_config_is_a_usage_error_before_any_file_is_touched(
    config_path, capsys, text
):
    Path(config_path).write_text(text)
    assert cli.main(["--config", config_path, "init"]) == 2
    assert capsys.readouterr().err.startswith("error: config")
    assert os.listdir(os.path.dirname(config_path)) == [os.path.basename(config_path)]
    # On a live deployment too: no command changes its files.
    Path(config_path).unlink()
    assert run(["--config", config_path, "init"], capsys)[0] == 0

    def deployment():
        return {p: p.read_bytes() for p in Path(config_path).parent.iterdir() if str(p) != config_path}

    before = deployment()
    Path(config_path).write_text(text)
    for command in (["register", "--username", "al"], ["login", "--username", "al"], ["init"]):
        assert cli.main(["--config", config_path] + command) == 2
        assert capsys.readouterr().err.startswith("error: config")
    assert deployment() == before


def test_missing_deployment_is_usage_error(config_path, capsys):
    code = cli.main(["--config", config_path, "login", "--username", "x"])
    assert code == 2


def test_bad_scenario_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["attack", "not-a-scenario"])
    assert exc.value.code == 2


def test_bench_without_iterations_is_usage_error(capsys):
    assert cli.main(["bench", "--iterations", "0"]) == 2


def test_no_password_source_is_usage_error(config_path, capsys, monkeypatch):
    run(["--config", config_path, "init"], capsys)
    monkeypatch.delenv(cli.PASSWORD_ENV, raising=False)
    monkeypatch.setattr(getpass, "getpass", lambda prompt: (_ for _ in ()).throw(EOFError()))
    code = cli.main(["--config", config_path, "register", "--username", "np"])
    assert code == 2


# ---------------------------------------------------------------------------
# Attack and bench commands.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", cli.ATTACK_SCENARIOS)
def test_attack_scenarios_hold(scenario, capsys):
    code, out = run_json(["attack", scenario], capsys)
    assert code == 0
    assert out["defense_held"] is True
    assert out["expected"] and out["observed"]


def test_bench_json_structure(capsys):
    code, out = run_json(["bench", "--iterations", "5"], capsys)
    assert code == 0
    assert out["iterations"] == 5
    for phase in (
        "client_register",
        "gpm_register",
        "client_auth_total",
        "server_auth_total",
        "gpm_auth",
        "login_roundtrip",
    ):
        stats = out["timings_ms"][phase]
        assert stats["median_ms"] > 0
        assert stats["mean_ms"] > 0
        assert stats["stdev_ms"] >= 0
    assert out["reference_ms"] == {
        "client_register": 7.0,
        "client_auth_total": 10.0,
        "server_auth_total": 1.63,
        "gpm_register": 6.54,
        "gpm_auth": 19.0,
    }
    sizes = out["sizes_bytes"]
    assert sizes["metadata_record"] == 267
    assert sizes["client_ephemeral_state"] == 97
    assert out["derived"]["server_auths_per_sec"] > 0
    assert isinstance(out["noise_flags"], list)
    assert out["reference_sizes_bytes"]["metadata_record"] == 260


def test_bench_sizes_are_the_observed_login_bytes(capsys):
    _, out = run_json(["bench", "--iterations", "2"], capsys)
    ledger = Ledger()
    gpm = GpmContract.create(ledger.tx_included)
    username = b"bench-user-000000"  # as long as the bench's own users
    cli.run_register(gpm, ledger, username, b"pw")
    seen = {}
    cli.run_login(gpm, ledger, username, b"pw", b"srv", observe=seen.__setitem__)
    sizes = out["sizes_bytes"]
    assert sizes["user_auth_init"] == len(seen["user->server"])
    assert sizes["auth_tx_payload"] == len(seen["server->ledger"])
    assert sizes["gpm_reply_ciphertext"] == len(seen["gpm->server"])
    assert sizes["server_to_user"] == len(seen["server->user"])


def test_bench_login_stages_are_disjoint_parts_of_the_round_trip(capsys):
    _, out = run_json(["bench", "--iterations", "5"], capsys)
    t = out["timings_ms"]
    assert t["ledger_append"]["mean_ms"] > 0
    stages = (
        "client_auth_init", "server_phase1", "ledger_append",
        "gpm_auth", "server_phase2", "client_auth_finish",
    )
    assert sum(t[s]["mean_ms"] for s in stages) <= t["login_roundtrip"]["mean_ms"]


def test_import_loads_no_module_a_command_does_not_run():
    # Fresh interpreter: whatever the site set-up loaded before the import
    # does not count against it.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pdid.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pdid.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "pdid.cli" in loaded
    assert loaded.isdisjoint({
        "dataclasses",
        "inspect",
        "statistics",
        "getpass",
        "pdid.adversary",
        "cryptography.hazmat.primitives.serialization",
    })


def test_benchmark_entry_points_stay_bound():
    # perfbench/run.py and perfbench/tracing.py look these up on pdid.cli.
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(cli.run_register) == ["gpm", "ledger", "username", "password"]
    assert params(cli.run_update) == [
        "gpm", "ledger", "username", "old_password", "new_password",
    ]
    assert cli.run_login is actors.run_login
    assert callable(cli.load_config) and callable(cli.load_deployment)
    assert callable(cli.Deployment.__dict__["save"])


# ---------------------------------------------------------------------------
# Seeded determinism.
# ---------------------------------------------------------------------------


def test_seed_flag_reproduces_whole_deployment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.PASSWORD_ENV, "pw")
    outs = []
    for sub in ("a", "b"):
        base = tmp_path / sub
        base.mkdir()
        config = str(base / "deploy.json")
        run(["--seed", "99", "--config", config, "init"], capsys)
        run(["--config", config, "--seed", "100", "register", "--username", "determi"], capsys)
        _, out = run_json(["--config", config, "--seed", "101", "login", "--username", "determi"], capsys)
        outs.append(out["session_key_fingerprint"])
    assert outs[0] == outs[1]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "pdid" in capsys.readouterr().out

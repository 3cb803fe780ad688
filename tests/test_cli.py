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


def test_init_never_leaves_the_sealing_key_readable_by_others(config_path, monkeypatch):
    # Under a umask that lets group and others read new files, every file
    # that holds the key bytes, looked at before each chmod and rename and
    # at the end, is readable by its owner alone.
    directory = os.path.dirname(config_path)
    seen = []

    def look():
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            seen.append((name, os.stat(path).st_mode & 0o777, Path(path).read_bytes()))

    for name in ("chmod", "replace"):
        call = getattr(os, name)
        monkeypatch.setattr(os, name, lambda *a, _call=call: look() or _call(*a))
    umask = os.umask(0o022)
    try:
        assert cli.main(["--config", config_path, "init"]) == 0
    finally:
        os.umask(umask)
    look()
    key = Path(cli.load_config(config_path).sealing_key_path).read_bytes()
    modes = {(name, mode) for name, mode, data in seen if data == key}
    assert ("sealing.key", 0o600) in modes
    assert all(mode & 0o077 == 0 for _, mode in modes), modes


def test_every_replaced_file_goes_through_one_writer(config_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.NEW_PASSWORD_ENV, "new password")
    replaced = []
    write = pdid.ledger.replace_file

    def spy(path, parts):
        replaced.append(os.path.basename(path))
        write(path, parts)

    monkeypatch.setattr(pdid.ledger, "replace_file", spy)
    monkeypatch.setattr(cli, "replace_file", spy)
    umask = os.umask(0o022)
    try:
        for command, files in [
            (["init"], ["sealing.key", "gpm.sealed"]),
            (["register", "--username", "al"], ["gpm.sealed", "ledger.log.idx"]),
            (["login", "--username", "al"], ["gpm.sealed", "ledger.log.idx"]),
            (["update", "--username", "al"], ["gpm.sealed", "ledger.log.idx"]),
        ]:
            del replaced[:]
            assert run(["--config", config_path] + command, capsys)[0] == 0
            assert replaced == files, command
    finally:
        os.umask(umask)
    directory = os.path.dirname(config_path)
    for name in ("sealing.key", "gpm.sealed", "ledger.log.idx"):
        assert os.stat(os.path.join(directory, name)).st_mode & 0o777 == 0o600


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


@pytest.mark.parametrize("command", [
    ["init", "--force"], ["login", "--username", "al"], ["register", "--username", "bo"],
    ["update", "--username", "al"],
])
def test_failed_save_still_closes_the_ledger(config_path, capsys, monkeypatch, command):
    # `pdid` ends in os._exit, so nothing is closed after main returns.
    monkeypatch.setenv(cli.NEW_PASSWORD_ENV, "new password")
    run(["--config", config_path, "init"], capsys)
    run(["--config", config_path, "register", "--username", "al"], capsys)
    closed = []
    close = Ledger.close
    monkeypatch.setattr(Ledger, "close", lambda self: closed.append(self) or close(self))

    def refuse(self):
        raise OSError("disk full")

    monkeypatch.setattr(cli.Deployment, "save", refuse)
    assert cli.main(["--config", config_path] + command) == 2
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
        "pdid.bench",
        "cryptography.hazmat.primitives.serialization",
        # The stdlib's own OpenSSL binding and what loads it: crypto hashes
        # through `cryptography` and reads os.urandom.
        "hashlib",
        "_hashlib",
        "hmac",
        "secrets",
    })


def test_commands_load_no_stdlib_openssl(tmp_path):
    # A whole deployment's life in one fresh interpreter, then its modules.
    code = (
        "import sys\n"
        "from pdid import cli\n"
        f"config = {str(tmp_path / 'deploy.json')!r}\n"
        "for command in (['init'], ['register', '--username', 'al'],\n"
        "                ['login', '--username', 'al'], ['update', '--username', 'al']):\n"
        "    assert cli.main(['--config', config] + command) == 0, command\n"
        "print(sorted({'hashlib', '_hashlib', 'hmac', 'secrets'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pdid.__file__)),
               PDID_PASSWORD="pw", PDID_NEW_PASSWORD="pw2")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
# The `pdid` process: `python -m pdid.cli` ends through os._exit.
# ---------------------------------------------------------------------------


def pdid_process(*args, password="pw", new_password=None):
    # Piped stdout block-buffered, as in a deployment, so a lost flush shows.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PDID_") and k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pdid.__file__))
    env[cli.PASSWORD_ENV] = password
    if new_password is not None:
        env[cli.NEW_PASSWORD_ENV] = new_password
    return subprocess.run(
        [sys.executable, "-m", "pdid.cli", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def reply(proc, code):
    """The one complete JSON object a command piped to stdout."""
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.endswith("}\n")
    out = json.loads(proc.stdout)
    assert isinstance(out, dict)
    return out


def assert_reopens_through_index(config, users, records):
    # The sealed state unseals; a fresh index covers every record, so the
    # reopen parses only the last one, to check the index, and holds none.
    dep = cli.load_deployment(cli.load_config(config))
    try:
        assert dep.gpm.user_count() == users
        assert len(dep.ledger) == records
        if records:
            assert os.path.exists(dep.config.ledger_path + ".idx")
            assert dep.ledger._base == records
            assert len(dep.ledger._payloads) == 0
    finally:
        dep.ledger.close()


def test_pdid_process_output_and_files_are_complete_at_exit(tmp_path):
    config = str(tmp_path / "deploy.json")
    base = ["--config", config, "--json"]

    out = reply(pdid_process(*base, "init"), 0)
    assert out["status"] == "initialized"
    assert_reopens_through_index(config, users=0, records=0)
    assert Path(config).read_text() == DEFAULT_CONFIG
    assert len((tmp_path / "sealing.key").read_bytes()) == 32
    assert (tmp_path / "contract_pk.hex").read_text() == out["contract_public_key"] + "\n"

    out = reply(pdid_process(*base, "register", "--username", "al"), 0)
    assert out == {"status": "registered", "username": "al"}
    assert_reopens_through_index(config, users=1, records=1)

    out = reply(pdid_process(*base, "login", "--username", "al"), 0)
    assert out["status"] == "authenticated" and out["keys_match"] is True
    assert_reopens_through_index(config, users=1, records=2)

    out = reply(pdid_process(*base, "login", "--username", "al", password="wrong"), 1)
    assert out == {"status": "failed", "error": "authentication-failed"}
    assert_reopens_through_index(config, users=1, records=3)

    out = reply(pdid_process(*base, "update", "--username", "al", new_password="pw2"), 0)
    assert out == {"status": "password-updated", "username": "al"}
    assert_reopens_through_index(config, users=1, records=4)

    out = reply(pdid_process(*base, "login", "--username", "al", password="pw2"), 0)
    assert out["keys_match"] is True
    assert_reopens_through_index(config, users=1, records=5)
    assert sorted(os.listdir(tmp_path)) == [
        "contract_pk.hex", "deploy.json", "gpm.sealed", "ledger.log", "ledger.log.idx",
        "sealing.key",
    ]


def test_pdid_process_seals_the_charge_of_a_failed_update(tmp_path):
    # A wrong old password is charged like a wrong login; each `pdid update`
    # must seal that charge, or updates would be an unlimited guessing oracle.
    config = tmp_path / "deploy.json"
    cap = 3
    config.write_text(json.dumps({"rate_limit_attempts": cap, "rate_limit_window_secs": 3600.0}))
    base = ["--config", str(config), "--json"]
    reply(pdid_process(*base, "init"), 0)
    reply(pdid_process(*base, "register", "--username", "al"), 0)
    errors = [
        reply(pdid_process(*base, "update", "--username", "al", password="wrong",
                           new_password="new"), 1)["error"]
        for _ in range(cap + 1)
    ]
    assert errors == ["authentication-failed"] * cap + ["rate-limited"]
    dep = cli.load_deployment(cli.load_config(str(config)))
    try:
        assert len(dep.gpm._attempts[b"al"]) == cap
    finally:
        dep.ledger.close()


def test_pdid_process_usage_errors_exit_2(tmp_path):
    # Through main's return value, then through argparse's SystemExit.
    proc = pdid_process("--config", str(tmp_path / "none.json"), "login", "--username", "x")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: config not found")
    proc = pdid_process("login")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "usage: pdid" in proc.stderr


def test_pdid_process_version_and_help_exit_0():
    proc = pdid_process("--version")
    assert proc.returncode == 0 and proc.stdout == f"pdid {pdid.__version__}\n"
    proc = pdid_process("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: pdid")


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

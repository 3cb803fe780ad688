"""Command-line harness: deploy a ledger plus contract, then drive
registration, login, password update, attack scenarios, and benchmarks
against it. The protocol flows are `actors.run_register`, `run_login` and
`run_update`; the attack drills are `adversary.run_attack`, and the
benchmark is `bench.run_benchmark`, each imported by its command.

Deployment state lives in four files named by a JSON config (`Config`):
the ledger record file, the sealed contract state, the sealing key, and the
contract public key exported as hex, each apart from the others, the
ledger's index and the config. Passwords are read from environment
variables (PDID_PASSWORD, PDID_NEW_PASSWORD) or an interactive prompt,
never from argv. Exit codes: 0 success, 1 protocol failure, 2 usage error.

`register`, `login` and `update` run their flow through `_run_flow`,
which seals the contract state whether or not the flow failed, then closes
the ledger: a wrong password is charged to the username's rate window, and
a charge left unsealed would be forgotten by the next command. The flow's
record is on the ledger before the save, so a failed save is reported
beside the flow's own result or error, as `save_error`, not in its place.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Callable, List, NamedTuple, NoReturn, Optional, Union

from . import __version__, crypto
from .actors import run_login, run_register, run_update
from .contract import DEFAULT_RATE_LIMIT, GpmContract
from .errors import AuthRejected, PdidError
from .ledger import Ledger, replace_file

PASSWORD_ENV = "PDID_PASSWORD"
NEW_PASSWORD_ENV = "PDID_NEW_PASSWORD"

ATTACK_SCENARIOS = (
    "duplicate-register",
    "offline-gpm",
    "malicious-server-tamper",
    "replay",
    "online-guess",
)


class UsageError(Exception):
    """Bad invocation or missing deployment; maps to exit code 2."""


class SaveFailed(Exception):
    """A flow ran, then its sealed state could not be saved. Its args are
    the flow's outcome (its result, or the PdidError it raised) and the
    save's error."""


# ---------------------------------------------------------------------------
# Config and deployment state.
# ---------------------------------------------------------------------------


# The JSON types a config value may have, by the type of its default, and
# their name. A bool is refused where an int or number is asked, though
# Python counts it as an int.
_JSON_TYPES = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number")}


class Config(NamedTuple):
    """Deployment settings: the four file paths, ledger shape and rate
    limit. A key a config file does not give takes its default here; `pdid
    init` writes them all, in this order."""

    ledger_path: str = "ledger.log"
    sealed_state_path: str = "gpm.sealed"
    contract_pk_path: str = "contract_pk.hex"
    sealing_key_path: str = "sealing.key"
    n_nodes: int = 4
    f: int = 1
    rate_limit_attempts: int = DEFAULT_RATE_LIMIT[0]
    rate_limit_window_secs: float = DEFAULT_RATE_LIMIT[1]

    @staticmethod
    def load(path: str) -> "Config":
        """Read a config file, refusing anything but a JSON object of known
        keys with values of their types and in their ranges, and paths that
        are empty or name one file twice; relative paths are taken from the
        file's directory."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config not found: {path} (run init first)") from None
        except ValueError as exc:
            raise UsageError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        unknown = set(raw) - set(Config._fields)
        if unknown:
            raise UsageError(f"config {path} has unknown keys: {sorted(unknown)}")
        for key, value in raw.items():
            kinds, name = _JSON_TYPES[type(Config._field_defaults[key])]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise UsageError(f"config key {key} must be {name}, not {json.dumps(value)}")
        cfg = Config(**raw)
        if not (0 <= cfg.f and cfg.n_nodes == 3 * cfg.f + 1 <= 255):
            raise UsageError(f"config keys n_nodes and f must have n_nodes = 3f + 1 <= 255, "
                             f"not {cfg.n_nodes} and {cfg.f}")
        if cfg.rate_limit_attempts < 1:
            raise UsageError("config key rate_limit_attempts must be at least 1")
        if not 0 < cfg.rate_limit_window_secs < float("inf"):
            raise UsageError("config key rate_limit_window_secs must be positive and finite")
        paths = {key: value for key, value in cfg._asdict().items() if isinstance(value, str)}
        base = os.path.dirname(os.path.abspath(path))
        cfg = cfg._replace(**{key: os.path.join(base, value) for key, value in paths.items()})
        # A path naming another's file would overwrite it; an empty one names the directory.
        files = [path, cfg.ledger_path + ".idx", *(getattr(cfg, key) for key in paths)]
        if "" in paths.values() or len({os.path.abspath(file) for file in files}) < len(files):
            raise UsageError(f"config paths must be non-empty and name four different files, none "
                             f"of them the config or the ledger's index: {json.dumps(paths)}")
        return cfg


load_config = Config.load


class Deployment(NamedTuple):
    """An opened deployment: its config, ledger, unsealed contract and
    sealing key. As a context manager it seals the contract state on exit,
    whether or not the block failed, then closes the ledger in every case."""

    config: Config
    ledger: Ledger
    gpm: GpmContract
    sealing_key: bytes

    def save(self) -> None:
        replace_file(self.config.sealed_state_path, [self.gpm.seal(self.sealing_key)])

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            self.save()
        finally:
            self.ledger.close()


def load_deployment(config: Config) -> Deployment:
    for required in (
        config.ledger_path,
        config.sealed_state_path,
        config.sealing_key_path,
    ):
        if not os.path.exists(required):
            raise UsageError(f"missing deployment file: {required} (run init first)")
    ledger = Ledger.open(config.ledger_path)
    try:
        with open(config.sealing_key_path, "rb") as fh:
            sealing_key = fh.read()
        with open(config.sealed_state_path, "rb") as fh:
            sealed = fh.read()
        gpm = GpmContract.unseal(
            sealed,
            sealing_key,
            tx_verifier=ledger.tx_included,
            rate_limit=(config.rate_limit_attempts, config.rate_limit_window_secs),
        )
    except BaseException:
        ledger.close()
        raise
    return Deployment(config, ledger, gpm, sealing_key)


def _run_flow(config: Config, flow: Callable[[Deployment], dict]) -> dict:
    """`flow`'s result on the opened deployment, which is then sealed and
    closed (`Deployment.__exit__`). A save that fails raises SaveFailed
    with the flow's outcome."""
    dep = load_deployment(config)
    outcome: Union[dict, PdidError, None] = None
    try:
        with dep:
            try:
                outcome = flow(dep)
            except PdidError as exc:
                outcome = exc
    except (OSError, PdidError) as exc:
        if outcome is None:  # the flow's own error, not the save's
            raise
        raise SaveFailed(outcome, exc) from exc
    if isinstance(outcome, PdidError):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# Command plumbing.
# ---------------------------------------------------------------------------


def _get_password(env_var: str, prompt: str) -> bytes:
    value = os.environ.get(env_var)
    if value is not None:
        return os.fsencode(value)  # the bytes the environment holds
    import getpass

    try:
        return getpass.getpass(prompt).encode("utf-8")
    except (EOFError, getpass.GetPassWarning) as exc:  # pragma: no cover
        raise UsageError(f"set {env_var} or provide a terminal for the prompt") from exc


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def _error_code(exc: PdidError) -> str:
    # Unknown-user and wrong-password collapse to one opaque code.
    if isinstance(exc, AuthRejected):
        return AuthRejected.public_code
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def _failure(exc: PdidError) -> dict:
    return {"status": "failed", "error": _error_code(exc)}


def cmd_init(args) -> dict:
    config_path = args.config
    parent = os.path.dirname(os.path.abspath(config_path))
    os.makedirs(parent, exist_ok=True)
    if not os.path.exists(config_path):
        with open(config_path, "w") as fh:
            json.dump(Config()._asdict(), fh, indent=2)
            fh.write("\n")
    config = load_config(config_path)
    already = os.path.exists(config.ledger_path) and os.path.exists(
        config.sealed_state_path
    )
    if already and not args.force:
        # Idempotent rerun: leave the live deployment untouched.
        return {
            "status": "already-initialized",
            "config": config_path,
            "ledger": config.ledger_path,
        }
    ledger = Ledger.create(config.ledger_path, config.n_nodes, config.f)
    # Not a `with Deployment`: nothing is sealed unless the key file was written.
    try:
        gpm = GpmContract.create(ledger.tx_included)
        sealing_key = crypto.random_bytes(crypto.KEY_LEN)
        replace_file(config.sealing_key_path, [sealing_key])
        Deployment(config, ledger, gpm, sealing_key).save()
        with open(config.contract_pk_path, "w") as fh:
            fh.write(gpm.public_key.hex() + "\n")
    finally:
        ledger.close()
    return {
        "status": "initialized",
        "config": config_path,
        "ledger": config.ledger_path,
        "nodes": config.n_nodes,
        "fault_tolerance": config.f,
        "contract_public_key": gpm.public_key.hex(),
    }


def cmd_register(args) -> dict:
    config = load_config(args.config)
    password = _get_password(PASSWORD_ENV, "password: ")

    def flow(dep: Deployment) -> dict:
        run_register(dep.gpm, dep.ledger, os.fsencode(args.username), password)
        return {"status": "registered", "username": args.username}

    return _run_flow(config, flow)


def cmd_login(args) -> dict:
    config = load_config(args.config)
    password = _get_password(PASSWORD_ENV, "password: ")
    server = os.fsencode(args.server)

    def flow(dep: Deployment) -> dict:
        client_key, server_key = run_login(
            dep.gpm, dep.ledger, os.fsencode(args.username), password, server
        )
        fingerprint = crypto.hash_parts("session-key-fingerprint", [client_key]).hex()[:16]
        return {
            "status": "authenticated",
            "username": args.username,
            # A byte that is not UTF-8 shows as \xff, which any stdout can print.
            "server": server.decode("utf-8", "backslashreplace"),
            "keys_match": client_key == server_key,
            "session_key_fingerprint": fingerprint,
        }

    return _run_flow(config, flow)


def cmd_update(args) -> dict:
    config = load_config(args.config)
    old_password = _get_password(PASSWORD_ENV, "current password: ")
    new_password = _get_password(NEW_PASSWORD_ENV, "new password: ")

    def flow(dep: Deployment) -> dict:
        run_update(dep.gpm, dep.ledger, os.fsencode(args.username), old_password, new_password)
        return {"status": "password-updated", "username": args.username}

    return _run_flow(config, flow)


def cmd_attack(args) -> dict:
    from . import adversary

    return adversary.run_attack(args.scenario)


def cmd_bench(args) -> dict:
    if args.iterations < 1:
        raise UsageError("--iterations must be at least 1")
    from . import bench

    return bench.run_benchmark(args.iterations)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdid",
        description="Password-authenticated identities over a confidential ledger contract.",
    )
    parser.add_argument("--config", default="pdid.json", help="deployment config path")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed all randomness deterministically (INSECURE, testing only)",
    )
    parser.add_argument(
        "--json", dest="as_json", action="store_true", help="machine-readable output"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create ledger, contract state, and key files")
    p.add_argument(
        "--force", action="store_true", help="recreate even if a deployment exists"
    )

    p = sub.add_parser("register", help="register a username under a password")
    p.add_argument("--username", required=True)

    p = sub.add_parser("login", help="authenticate and confirm a session key")
    p.add_argument("--username", required=True)
    p.add_argument("--server", default="server.example")

    p = sub.add_parser("update", help="change the password for a username")
    p.add_argument("--username", required=True)

    p = sub.add_parser("attack", help="run an adversarial scenario")
    p.add_argument("scenario", choices=ATTACK_SCENARIOS)

    p = sub.add_parser("bench", help="measure per-stage timings and sizes")
    p.add_argument("--iterations", type=int, default=50)

    return parser


_COMMANDS = {
    "init": cmd_init,
    "register": cmd_register,
    "login": cmd_login,
    "update": cmd_update,
    "attack": cmd_attack,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None:
        crypto.set_insecure_seed(args.seed)
    try:
        result = _COMMANDS[args.command](args)
    except SaveFailed as failed:
        outcome, error = failed.args
        payload = outcome if isinstance(outcome, dict) else _failure(outcome)
        usage = isinstance(error, OSError)  # exit 2, as when nothing ran
        _emit(dict(payload, save_error=str(error) if usage else _error_code(error)), args.as_json)
        return 2 if usage else 1
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PdidError as exc:
        _emit(_failure(exc), args.as_json)
        return 1
    _emit(result, args.as_json)
    if args.command == "attack" and not result.get("defense_held", False):
        return 1
    return 0


def entry() -> NoReturn:
    """The `pdid` program: `main`, then exit with its code and no interpreter
    teardown, which would cost a command 14-20 ms of freeing what the
    process is about to drop. Every file a command writes is closed before
    `main` returns, and pdid registers no atexit callback, so only the
    standard streams need flushing. An exception out of `main`, argparse's
    SystemExit included, takes the normal exit."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()

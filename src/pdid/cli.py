"""Command-line harness: deploy a ledger plus contract, then drive
registration, login, password update, attack scenarios, and benchmarks
against it. The protocol flows are `actors.run_register`, `run_login` and
`run_update`; the attack drills are `adversary.run_attack`.

Deployment state lives in files named by a JSON config: the ledger record
file, the sealed contract state, the sealing key, and the contract public
key exported as hex. Passwords are read from environment variables
(PDID_PASSWORD, PDID_NEW_PASSWORD) or an interactive prompt, never from
argv. Exit codes: 0 success, 1 protocol failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Optional

from . import __version__, actors, crypto
from .actors import run_login, run_register, run_update
from .contract import GpmContract
from .errors import AuthRejected, PdidError
from .ledger import Ledger
from .wire import UpdatePlaintext

PASSWORD_ENV = "PDID_PASSWORD"
NEW_PASSWORD_ENV = "PDID_NEW_PASSWORD"

# Reference timings (milliseconds) and sizes (bytes) from the original
# evaluation of this design, reported alongside measurements for comparison.
REFERENCE_MS = {
    "client_register": 7.0,
    "client_auth_total": 10.0,
    "server_auth_total": 1.63,
    "gpm_register": 6.54,
    "gpm_auth": 19.0,
}
REFERENCE_SIZES = {
    "metadata_record": 260,
    "client_ephemeral_state": 97,
    "message_band": (74, 300),
}


ATTACK_SCENARIOS = (
    "duplicate-register",
    "offline-gpm",
    "malicious-server-tamper",
    "replay",
    "online-guess",
)


class UsageError(Exception):
    """Bad invocation or missing deployment; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config and deployment state.
# ---------------------------------------------------------------------------


# Each config key's JSON type, in the order `pdid init` writes them. A
# bool is refused where an int or number is asked, though Python counts
# it as an int.
_CONFIG_TYPES = {
    "ledger_path": (str, "a string"),
    "sealed_state_path": (str, "a string"),
    "contract_pk_path": (str, "a string"),
    "sealing_key_path": (str, "a string"),
    "n_nodes": (int, "an integer"),
    "f": (int, "an integer"),
    "rate_limit_attempts": (int, "an integer"),
    "rate_limit_window_secs": ((int, float), "a number"),
}


class Config:
    """Deployment settings: file paths, ledger shape and rate limit."""

    __slots__ = tuple(_CONFIG_TYPES)

    def __init__(
        self,
        ledger_path: str = "ledger.log",
        sealed_state_path: str = "gpm.sealed",
        contract_pk_path: str = "contract_pk.hex",
        sealing_key_path: str = "sealing.key",
        n_nodes: int = 4,
        f: int = 1,
        rate_limit_attempts: int = 10,
        rate_limit_window_secs: float = 60.0,
    ) -> None:
        self.ledger_path = ledger_path
        self.sealed_state_path = sealed_state_path
        self.contract_pk_path = contract_pk_path
        self.sealing_key_path = sealing_key_path
        self.n_nodes = n_nodes
        self.f = f
        self.rate_limit_attempts = rate_limit_attempts
        self.rate_limit_window_secs = rate_limit_window_secs

    @classmethod
    def load(cls, path: str) -> "Config":
        """Read a config file, refusing anything but a JSON object of known
        keys with values of their types; relative paths are taken from the
        file's directory."""
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        unknown = set(raw) - set(_CONFIG_TYPES)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            kind, name = _CONFIG_TYPES[key]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise UsageError(f"config key {key} must be {name}, not {json.dumps(value)}")
        cfg = cls(**raw)
        base = os.path.dirname(os.path.abspath(path))
        for attr in (
            "ledger_path",
            "sealed_state_path",
            "contract_pk_path",
            "sealing_key_path",
        ):
            value = getattr(cfg, attr)
            if not os.path.isabs(value):
                setattr(cfg, attr, os.path.join(base, value))
        return cfg

    def write_defaults(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({key: getattr(self, key) for key in self.__slots__}, fh, indent=2)
            fh.write("\n")


class Deployment:
    """An opened deployment: its config, ledger, unsealed contract and
    sealing key."""

    __slots__ = ("config", "ledger", "gpm", "sealing_key")

    def __init__(
        self, config: Config, ledger: Ledger, gpm: GpmContract, sealing_key: bytes
    ) -> None:
        self.config = config
        self.ledger = ledger
        self.gpm = gpm
        self.sealing_key = sealing_key

    def save(self) -> None:
        # A temp file of its own, so concurrent commands never rename away each other's.
        sealed = self.gpm.seal(self.sealing_key)
        path = self.config.sealed_state_path
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=os.path.basename(path) + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(sealed)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def load_config(path: str) -> Config:
    if not os.path.exists(path):
        raise UsageError(f"config not found: {path} (run init first)")
    return Config.load(path)


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


# ---------------------------------------------------------------------------
# Benchmark.
# ---------------------------------------------------------------------------


def _stats(samples: List[float]) -> dict:
    import statistics

    ms = [s * 1000 for s in samples]
    return {
        "mean_ms": statistics.fmean(ms),
        "median_ms": statistics.median(ms),
        "stdev_ms": statistics.pstdev(ms) if len(ms) > 1 else 0.0,
    }


LOGIN_STAGES = (
    "client_auth_init",
    "server_phase1",
    "ledger_append",
    "gpm_auth",
    "server_phase2",
    "client_auth_finish",
)


def run_benchmark(iterations: int = 50) -> dict:
    """Time every protocol stage over fresh users and report sizes.

    Each login is one `run_login`: its observer stamps the end of each of
    the six `LOGIN_STAGES`, and the bytes it is handed give the message
    sizes. Measured numbers sit next to the reference timings so
    regressions and instantiation differences stay visible.
    """
    ledger = Ledger()
    gpm = GpmContract.create(ledger.tx_included)
    raw: Dict[str, List[float]] = defaultdict(list)
    server_id = b"bench.example"
    perf = time.perf_counter
    stamps: List[float] = []
    seen: Dict[str, Optional[bytes]] = {}

    def observe(stage: str, data: Optional[bytes]) -> None:
        stamps.append(perf())
        seen[stage] = data

    for i in range(iterations):
        username = f"bench-user-{i:06d}".encode()
        password = f"bench-pw-{i}".encode()

        t0 = perf()
        tx = actors.client_register(username, password, gpm.public_key)
        t1 = perf()
        proof = ledger.append(tx)
        t2 = perf()
        gpm.new_pdid(tx, proof)
        t3 = perf()
        raw["client_register"].append(t1 - t0)
        raw["gpm_register"].append(t3 - t2)

        stamps[:] = [perf()]
        run_login(gpm, ledger, username, password, server_id, observe=observe)
        stamps.append(perf())
        # Seven spans; the last, key confirmation, counts in the round trip only.
        stage = dict(zip(LOGIN_STAGES, (b - a for a, b in zip(stamps, stamps[1:]))))
        for name, secs in stage.items():
            raw[name].append(secs)
        raw["client_auth_total"].append(stage["client_auth_init"] + stage["client_auth_finish"])
        raw["server_auth_total"].append(stage["server_phase1"] + stage["server_phase2"])
        raw["login_roundtrip"].append(stamps[-1] - stamps[0])

    # Byte sizes from the last user's messages, frozen-format widths.
    state_len = len(actors.client_auth_init(username, password)[0].ephemeral_state_bytes())
    meta = actors.build_metadata(password)
    update_pt = UpdatePlaintext(username, password, meta)
    auth_tx, reply = seen["server->ledger"], seen["gpm->server"]
    sizes = {
        "user_auth_init": len(seen["user->server"]),
        "server_to_user": len(seen["server->user"]),
        "registration_plaintext": len(tx.payload) - crypto.PKE_OVERHEAD,
        "update_plaintext": len(update_pt.encode()),
        "metadata_record": len(meta.encode()),
        "client_ephemeral_state": state_len,
        "register_tx_payload": len(tx.payload),
        "auth_tx_payload": len(auth_tx),
        "gpm_reply_ciphertext": len(reply),
        "gpm_auth_request_plaintext": len(auth_tx) - crypto.PKE_OVERHEAD,
        "gpm_auth_response_plaintext": len(reply) - crypto.PKE_OVERHEAD,
    }

    timings = {name: _stats(samples) for name, samples in raw.items()}
    noise_flags = sorted(
        name for name, st in timings.items() if st["stdev_ms"] > st["mean_ms"]
    )
    server_mean_s = timings["server_auth_total"]["mean_ms"] / 1000
    return {
        "iterations": iterations,
        "timings_ms": timings,
        "noise_flags": noise_flags,
        "derived": {
            "server_auths_per_sec": 1.0 / server_mean_s if server_mean_s else None,
            "server_auth_total_median_ms": timings["server_auth_total"]["median_ms"],
            "gpm_auth_median_ms": timings["gpm_auth"]["median_ms"],
            "gpm_register_median_ms": timings["gpm_register"]["median_ms"],
            "login_roundtrip_median_ms": timings["login_roundtrip"]["median_ms"],
        },
        "sizes_bytes": sizes,
        "reference_ms": REFERENCE_MS,
        "reference_sizes_bytes": {
            "metadata_record": REFERENCE_SIZES["metadata_record"],
            "client_ephemeral_state": REFERENCE_SIZES["client_ephemeral_state"],
            "plaintext_message_band": list(REFERENCE_SIZES["message_band"]),
        },
    }


# ---------------------------------------------------------------------------
# Command plumbing.
# ---------------------------------------------------------------------------


def _get_password(env_var: str, prompt: str) -> bytes:
    value = os.environ.get(env_var)
    if value is not None:
        return value.encode("utf-8")
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
    name = type(exc).__name__
    out = [name[0].lower()]
    for ch in name[1:]:
        if ch.isupper():
            out.append("-")
            out.append(ch.lower())
        else:
            out.append(ch)
    return "".join(out)


def cmd_init(args) -> dict:
    config_path = args.config
    parent = os.path.dirname(os.path.abspath(config_path))
    os.makedirs(parent, exist_ok=True)
    if not os.path.exists(config_path):
        Config().write_defaults(config_path)
    config = Config.load(config_path)
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
    gpm = GpmContract.create(
        ledger.tx_included,
        rate_limit=(config.rate_limit_attempts, config.rate_limit_window_secs),
    )
    sealing_key = crypto.random_bytes(crypto.KEY_LEN)
    with open(config.sealing_key_path, "wb") as fh:
        fh.write(sealing_key)
    os.chmod(config.sealing_key_path, 0o600)
    Deployment(config, ledger, gpm, sealing_key).save()
    with open(config.contract_pk_path, "w") as fh:
        fh.write(gpm.public_key.hex() + "\n")
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
    dep = load_deployment(config)
    try:
        run_register(dep.gpm, dep.ledger, args.username.encode(), password)
        dep.save()
    finally:
        dep.ledger.close()
    return {"status": "registered", "username": args.username}


def cmd_login(args) -> dict:
    config = load_config(args.config)
    password = _get_password(PASSWORD_ENV, "password: ")
    dep = load_deployment(config)
    try:
        client_key, server_key = run_login(
            dep.gpm, dep.ledger, args.username.encode(), password, args.server.encode()
        )
    finally:
        # Persist even on failure: the contract already counted the attempt.
        dep.save()
        dep.ledger.close()
    fingerprint = crypto.hash_parts("session-key-fingerprint", [client_key]).hex()[:16]
    return {
        "status": "authenticated",
        "username": args.username,
        "server": args.server,
        "keys_match": client_key == server_key,
        "session_key_fingerprint": fingerprint,
    }


def cmd_update(args) -> dict:
    config = load_config(args.config)
    old_password = _get_password(PASSWORD_ENV, "current password: ")
    new_password = _get_password(NEW_PASSWORD_ENV, "new password: ")
    dep = load_deployment(config)
    try:
        run_update(dep.gpm, dep.ledger, args.username.encode(), old_password, new_password)
        dep.save()
    finally:
        dep.ledger.close()
    return {"status": "password-updated", "username": args.username}


def cmd_attack(args) -> dict:
    from . import adversary

    return adversary.run_attack(args.scenario)


def cmd_bench(args) -> dict:
    if args.iterations < 1:
        raise UsageError("--iterations must be at least 1")
    return run_benchmark(args.iterations)


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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PdidError as exc:
        _emit({"status": "failed", "error": _error_code(exc)}, args.as_json)
        return 1
    _emit(result, args.as_json)
    if args.command == "attack" and not result.get("defense_held", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

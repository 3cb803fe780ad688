"""Layered benchmark for pdid: protocol traffic in-process, whole CLI
commands against an on-disk deployment, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload auth-traffic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every workload is a closed loop with one client and one operation in
flight. Operations come in shuffled blocks whose mix of kinds is fixed per
workload, so a slow phase of the machine hits every kind alike. The seed
drives usernames, passwords, the mix and its order; the program keeps its
own OS randomness. A model of the contract (who holds which password, and
each username's sliding rate window) predicts every outcome in advance, and
each operation whose outcome differs counts as failed.

With `--trace 0` the last stdout line carries the end-to-end metrics named
in BENCHMARK.json, their times scaled to a reference speed of the machine
(`at_reference_speed`); the wall-clock values are in the `stamp` line.
With `--trace 1` a fixed number of blocks runs with tracing alternately off
and on (see tracing.py), and the line carries the per-layer metrics;
LAYERS.md says which end-to-end metric each should move. Traced spans are
written to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import string
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / ".out"

SERVER_ID = b"bench.example"
STEP_S = 0.25  # simulated seconds between in-process operations
CLI_WINDOW_S = 3600.0  # longer than any run, so wall-clock windows never slide mid-run
MAX_CLI_USERS = 225  # the sealed state cannot frame many more users
CHECK_UPDATED = 8  # updated users whose old and new passwords are checked after a pass
SETUP_REPS = 3
FIRST_CALL_REPS = 3
ALPHABET = string.ascii_lowercase + string.digits
REFERENCE_EVERY_S = 0.25  # between samples of the reference work in a timed pass
REFERENCE_PER_SETUP = 8  # samples of it before each set-up
REFERENCE_S = 1.5e-3  # its median time, to which every run's times are scaled
_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF

perf = time.perf_counter


@dataclasses.dataclass(frozen=True)
class Spec:
    deploy: str  # "memory" or "cli"
    block: Dict[str, int]  # kind -> operations per shuffled block
    users: int  # honest population registered at set-up
    targets: int  # usernames the attacker guesses at, outside the honest rotation
    records: int = 0  # ledger length after set-up (cli only)
    trace_blocks: int = 1  # traced blocks in a traced run (as many run untraced)


SPECS = {
    "auth-traffic": Spec(
        "memory",
        {"login": 11, "login_wrong": 2, "guess": 4, "register": 1, "update": 2},
        users=200, targets=2, trace_blocks=20,
    ),
    "enroll": Spec(
        "memory",
        {"register": 7, "update": 5, "update_wrong": 2, "login": 3, "login_wrong": 1, "guess": 2},
        users=100, targets=1, trace_blocks=30,
    ),
    "cli-deploy": Spec(
        "cli",
        {"login": 5, "login_wrong": 4, "guess": 4, "register": 3, "update": 4},
        users=200, targets=1, records=20_000, trace_blocks=2,
    ),
}
TINY = {"users": 12, "records": 300, "trace_blocks": 1}


class BenchmarkError(Exception):
    """The run cannot measure what the workload describes."""


# ---------------------------------------------------------------------------
# Operations and the outcome oracle.
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    kind: str  # what the client does
    label: str  # kind as reported, refined by the predicted outcome
    username: str
    password: str
    new_password: Optional[str]
    expect: str  # "ok", "wrong-password" or "rate-limited"


class Model:
    """The benchmark's own account of the deployment: registered users,
    their current passwords, and each username's rate window, kept by the
    contract's rule (`rate_limit` attempts per `window` seconds; every
    admitted login and every failed update is charged)."""

    def __init__(self, seed: int, cap: int, window: float, max_users: Optional[int]) -> None:
        self.rng = random.Random(seed)
        self.cap, self.window, self.max_users = cap, window, max_users
        self.passwords: Dict[str, str] = {}
        self.rotation: List[str] = []
        self.targets: List[str] = []
        self.attempts: Dict[str, deque] = {}
        self.first_password: Dict[str, str] = {}  # users updated in this pass
        self._turn = self._guess_turn = 0

    def _secret(self) -> str:
        return "".join(self.rng.choice(ALPHABET) for _ in range(12))

    def _admit(self, username: str, now: float, charge: bool) -> bool:
        times = self.attempts.setdefault(username, deque())
        while times and now - times[0] > self.window:
            times.popleft()
        if len(times) >= self.cap:
            return False
        if charge:
            times.append(now)
        return True

    def enrol(self, target: bool = False) -> Op:
        while True:
            username = "u" + "".join(self.rng.choice(ALPHABET) for _ in range(6))
            if username not in self.passwords:
                break
        password = self._secret()
        self.passwords[username] = password
        (self.targets if target else self.rotation).append(username)
        return Op("register", "register", username, password, None, "ok")

    def block(self, mix: Dict[str, int]) -> List[str]:
        kinds = [kind for kind, n in mix.items() for _ in range(n)]
        self.rng.shuffle(kinds)
        return kinds

    def plan(self, kind: str, now: float) -> Op:
        """Draw the next operation of `kind` and predict its outcome."""
        if kind == "register" and self.max_users is not None and len(self.passwords) >= self.max_users:
            kind = "login"
        if kind == "register":
            return self.enrol()
        if kind == "guess":
            username = self.targets[self._guess_turn % len(self.targets)]
            self._guess_turn += 1
            if self._admit(username, now, charge=True):
                return Op(kind, "guess_admitted", username, self._secret(), None, "wrong-password")
            return Op(kind, "guess_limited", username, self._secret(), None, "rate-limited")
        username = self.rotation[self._turn % len(self.rotation)]
        self._turn += 1
        current = self.passwords[username]
        typo = current[:-1] + ("x" if current[-1] != "x" else "y")
        if kind == "update":
            if not self._admit(username, now, charge=False):
                return Op(kind, "update.limited", username, current, self._secret(), "rate-limited")
            new = self._secret()
            self.first_password.setdefault(username, current)
            self.passwords[username] = new
            return Op(kind, kind, username, current, new, "ok")
        password, expect = {
            "login": (current, "ok"),
            "login_wrong": (typo, "wrong-password"),
            "update_wrong": (typo, "wrong-password"),
        }[kind]
        new = self._secret() if kind == "update_wrong" else None
        if not self._admit(username, now, charge=True):
            return Op(kind, f"{kind}.limited", username, password, new, "rate-limited")
        return Op(kind, kind, username, password, new, expect)

    def login(self, username: str, password: str, now: float) -> Op:
        """A check login with a chosen password, predicted like any other."""
        expect = "ok" if password == self.passwords[username] else "wrong-password"
        if not self._admit(username, now, charge=True):
            expect = "rate-limited"
        return Op("login", "check", username, password, None, expect)


# ---------------------------------------------------------------------------
# Executors: one operation in, (outcome, latency in seconds) out.
# ---------------------------------------------------------------------------


class Direct:
    """Runs operations through the public functions of actors, ledger and
    contract, as the protocol roles would in one process."""

    def __init__(self, pdid, ledger, gpm) -> None:
        self.p, self.ledger, self.gpm = pdid, ledger, gpm

    def __call__(self, op: Op) -> Tuple[str, float]:
        p = self.p
        start = perf()
        try:
            if op.kind == "register":
                p.cli.run_register(self.gpm, self.ledger, op.username, op.password)
            elif op.kind in ("update", "update_wrong"):
                p.cli.run_update(self.gpm, self.ledger, op.username, op.password, op.new_password)
            else:
                client, init = p.actors.client_auth_init(op.username, op.password)
                if op.kind == "guess":
                    # The blind step is the attacker's own work; a guess costs
                    # the system from the server's phase 1 onwards.
                    start = perf()
                if not self._finish_login(op, client, init):
                    return "confirm-failed", perf() - start
            outcome = "ok"
        except p.errors.WrongPassword:
            outcome = "wrong-password"
        except p.errors.RateLimited:
            outcome = "rate-limited"
        except p.errors.PdidError as exc:
            outcome = type(exc).__name__
        return outcome, perf() - start

    def _finish_login(self, op: Op, client, init) -> bool:
        """The rest of a login after `client_auth_init`; true when both
        confirmation tags verify under equal session keys."""
        actors = self.p.actors
        server, tx = actors.server_auth_phase1(SERVER_ID, init, self.gpm.public_key)
        reply = self.gpm.auth_pdid(tx, self.ledger.append(tx))
        server_key, sent = actors.server_auth_phase2(server, reply)
        client_key = actors.client_auth_finish(client, op.password, SERVER_ID, sent)
        transcript = actors.transcript_digest(SERVER_ID, init, sent)
        client_tag = actors.key_confirm("client", client_key, transcript)
        server_tag = actors.key_confirm("server", server_key, transcript)
        return (
            client_key == server_key
            and actors.verify_confirm(server_key, transcript, client_tag, "client")
            and actors.verify_confirm(client_key, transcript, server_tag, "server")
        )


class Cli:
    """Runs each operation as one `python -m pdid.cli --json` process, or,
    while the tracer is active, through tracing.py with the same arguments."""

    COMMAND = {"login": "login", "login_wrong": "login", "guess": "login",
               "register": "register", "update": "update", "update_wrong": "update"}

    def __init__(self, config: Path, tracer=None) -> None:
        self.config, self.tracer = config, tracer
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PDID_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.import_ms: List[float] = []

    def __call__(self, op: Op) -> Tuple[str, float]:
        argv = ["--config", str(self.config), "--json", self.COMMAND[op.kind], "--username", op.username]
        env = dict(self.env, PDID_PASSWORD=op.password)
        if op.new_password is not None:
            env["PDID_NEW_PASSWORD"] = op.new_password
        spans_path = self.config.parent / "spans.json"
        traced = self.tracer is not None and self.tracer.active
        if traced:
            prog = [sys.executable, str(HERE / "tracing.py"), str(spans_path)]
        else:
            prog = [sys.executable, "-m", "pdid.cli"]
        start = perf()
        proc = subprocess.run(prog + argv, env=env, capture_output=True, text=True, timeout=150)
        latency = perf() - start
        if traced:
            with open(spans_path) as fh:
                dump = json.load(fh)
            self.tracer.adopt(dump["spans"])
            self.import_ms.append(dump["import_ms"])
        return self._outcome(proc), latency

    @staticmethod
    def _outcome(proc: subprocess.CompletedProcess) -> str:
        try:
            reply = json.loads(proc.stdout)
        except ValueError:
            return f"exit-{proc.returncode}"
        if proc.returncode == 0 and reply.get("status") in ("registered", "password-updated"):
            return "ok"
        if proc.returncode == 0 and reply.get("status") == "authenticated":
            return "ok" if reply.get("keys_match") is True else "keys-differ"
        if proc.returncode == 1 and reply.get("error") == "authentication-failed":
            return "wrong-password"
        if proc.returncode == 1 and reply.get("error") == "rate-limited":
            return "rate-limited"
        return f"exit-{proc.returncode}-{reply.get('error')}"


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


class SimClock:
    """The in-process contract's clock; the benchmark steps it per operation."""

    def __init__(self) -> None:
        self.now = 1_000_000.0

    def __call__(self) -> float:
        return self.now

    def tick(self) -> float:
        self.now += STEP_S
        return self.now


class Deployment(NamedTuple):
    model: Model
    execute: Callable[[Op], Tuple[str, float]]
    clock: Callable[[], float]  # returns the time of the next operation
    ledger: object = None  # memory only
    config: Optional[Path] = None  # cli only; the deployment's files sit beside it


def _expect(execute, op: Op) -> None:
    outcome, _ = execute(op)
    if outcome != op.expect:
        raise BenchmarkError(f"set-up {op.kind} gave {outcome}, expected {op.expect}")


def _populate(model: Model, execute, spec: Spec, clock) -> None:
    """Register the honest population and the targets, then let the
    attacker use up each target's rate window, as an ongoing attack would."""
    for _ in range(spec.users):
        _expect(execute, model.enrol())
    for _ in range(spec.targets):
        _expect(execute, model.enrol(target=True))
    for _ in range(spec.targets * model.cap):
        _expect(execute, model.plan("guess", clock()))


def setup_memory(p, spec: Spec, seed: int) -> Deployment:
    cap, window = p.contract.DEFAULT_RATE_LIMIT
    model = Model(seed, cap, window, None)
    clock = SimClock()
    ledger = p.ledger.Ledger()
    gpm = p.contract.GpmContract.create(ledger.tx_included, clock=clock)
    execute = Direct(p, ledger, gpm)
    _populate(model, execute, spec, clock.tick)
    return Deployment(model, execute, clock.tick, ledger)


def setup_cli(p, spec: Spec, seed: int) -> Deployment:
    """`pdid init` into a fresh directory, then the population, the
    attacker's opening guesses and opaque AUTH records up to `spec.records`,
    all through the public API; finally the state is sealed."""
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        config = workdir / "pdid.json"
        config.write_text(json.dumps({"rate_limit_window_secs": CLI_WINDOW_S}))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "pdid.cli", "--config", str(config), "init"],
            env=env, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"pdid init failed: {proc.stderr.strip()}")
        dep = p.cli.load_deployment(p.cli.load_config(str(config)))
        try:
            cap, window = dep.gpm.rate_limit
            model = Model(seed, cap, window, MAX_CLI_USERS)
            _populate(model, Direct(p, dep.ledger, dep.gpm), spec, time.time)
            # Filler has the size of a real auth payload (the last guess's).
            size = len(dep.ledger.transaction_at(len(dep.ledger) - 1).payload)
            Transaction, AUTH = p.ledger.Transaction, p.wire.TxKind.AUTH
            while len(dep.ledger) < spec.records:
                dep.ledger.append(Transaction(AUTH, model.rng.randbytes(size)))
            dep.save()
        finally:
            dep.ledger.close()
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return Deployment(model, Cli(config), time.time, config=config)


def teardown(dep: Optional[Deployment]) -> None:
    if dep is not None and dep.config is not None:
        shutil.rmtree(dep.config.parent, ignore_errors=True)


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------


class Record(NamedTuple):
    label: str
    ok: bool
    latency: float
    users: int  # registered users when the operation was planned


def reference_time() -> float:
    """Seconds taken by fixed pure-Python big-integer and hashing work that
    owes nothing to the program; timed through a run, it tracks how fast the
    shared machine runs at the moment."""
    start = perf()
    x = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
    for _ in range(3000):
        x = (x * x + 3) % _P
    digest = pow(x, _P - 2, _P).to_bytes(32, "big")
    for _ in range(20):
        digest = hashlib.sha256(digest).digest()
    return perf() - start


def run_pass(dep: Deployment, spec: Spec, seconds: Optional[float] = None,
             blocks: Optional[int] = None, tracer=None,
             reference: Optional[List[float]] = None) -> Tuple[List[Record], float]:
    """Run shuffled blocks of the mix: for `seconds` (and at least one whole
    block), or for exactly `blocks` blocks. With a `reference` list, the
    reference work runs every REFERENCE_EVERY_S between operations; its time
    is kept out of the returned elapsed seconds."""
    records: List[Record] = []
    start = perf()
    spent = 0.0  # on reference work
    last = -REFERENCE_EVERY_S
    done = 0
    while blocks is None or done < blocks:
        for kind in dep.model.block(spec.block):
            if reference is not None and perf() - start - last >= REFERENCE_EVERY_S:
                reference.append(reference_time())
                spent += reference[-1]
                last = perf() - start
            op = dep.model.plan(kind, dep.clock())
            if tracer is None:
                outcome, latency = dep.execute(op)
            else:
                with tracer.operation(op.label):
                    outcome, latency = dep.execute(op)
            records.append(Record(op.label, outcome == op.expect, latency, len(dep.model.passwords)))
            if blocks is None and done >= 1 and perf() - start >= seconds:
                return records, perf() - start - spent
        done += 1
    return records, perf() - start - spent


def check_updates(p, dep: Deployment) -> List[Record]:
    """Untimed: a sample of updated users must log in with the new password
    and be refused with the old one."""
    model = dep.model
    sample = sorted(model.first_password)[:CHECK_UPDATED]
    if dep.config is not None:  # cli: check against the sealed state, in-process
        cli_dep = p.cli.load_deployment(p.cli.load_config(str(dep.config)))
        execute = Direct(p, cli_dep.ledger, cli_dep.gpm)
    else:
        cli_dep, execute = None, dep.execute
    try:
        records = []
        for username in sample:
            for password in (model.passwords[username], model.first_password[username]):
                op = model.login(username, password, dep.clock())
                outcome, _ = execute(op)
                records.append(Record(op.label, outcome == op.expect, 0.0, len(model.passwords)))
        return records
    finally:
        if cli_dep is not None:
            cli_dep.ledger.close()


def build(p, spec: Spec, seed: int, reps: int,
          reference: Optional[List[float]] = None) -> Tuple[Deployment, List[float]]:
    """Set up `reps` times, keeping the last deployment; with a `reference`
    list, sample the reference work before each set-up."""
    setup = setup_cli if spec.deploy == "cli" else setup_memory
    times, dep = [], None
    for _ in range(reps):
        teardown(dep)
        if reference is not None:
            reference.extend(reference_time() for _ in range(REFERENCE_PER_SETUP))
        start = perf()
        dep = setup(p, spec, seed)
        times.append(perf() - start)
    return dep, times


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

END_TO_END_KINDS = ("login", "login_wrong", "guess_limited", "register", "update")


def peak_rss_mb(spec: Spec) -> float:
    who = resource.RUSAGE_CHILDREN if spec.deploy == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(records: List[Record], elapsed: float, setup_s: float, spec: Spec):
    """Wall-clock end-to-end metrics, plus p90s printed before the result."""
    samples: Dict[str, List[float]] = {}
    for r in records:
        if r.ok:
            samples.setdefault(r.label, []).append(r.latency * 1e3)
    metrics = {"setup_s": setup_s, "ops_per_s": len(records) / elapsed, "peak_rss_mb": peak_rss_mb(spec)}
    extra = {}
    for kind in END_TO_END_KINDS:
        values = samples.get(kind)
        if not values:
            raise BenchmarkError(f"no successful {kind} operation in the run")
        metrics[f"{kind}.p50_ms"] = statistics.median(values)
        if len(values) >= 100:  # p90 only with at least ten samples beyond it
            extra[f"{kind}.p90_ms"] = statistics.quantiles(values, n=10)[-1]
    counts = {label: len(v) for label, v in sorted(samples.items())}
    return metrics, extra, counts


def at_reference_speed(wall: Dict[str, float], reference: List[float]) -> Dict[str, float]:
    """Times multiplied by REFERENCE_S over the median of `reference`, rates
    divided by it: what they would read while the machine does the reference
    work in REFERENCE_S. Memory is not scaled."""
    scale = REFERENCE_S / statistics.median(reference)
    out = {}
    for name, value in wall.items():
        if name == "ops_per_s":
            out[name] = value / scale
        elif name.endswith(("_ms", "_s")):
            out[name] = value * scale
        else:
            out[name] = value
    return out


def interpreter_ms() -> float:
    times = []
    for _ in range(5):
        start = perf()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append((perf() - start) * 1e3)
    return statistics.median(times)


def calibrate(p, seed: int) -> Dict[str, float]:
    """Median µs per call of each crypto primitive, alone, on inputs drawn
    from the seed."""
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
    from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

    c = p.crypto
    rng = random.Random(seed)
    scalars = [c.Scalar(rng.randrange(1, c.GROUP_ORDER)) for _ in range(40)]
    points = [c.base_exp(s) for s in scalars]
    box_secret = rng.randbytes(32)
    box_public = X25519PrivateKey.from_private_bytes(box_secret).public_key().public_bytes(
        Encoding.Raw, PublicFormat.Raw
    )
    messages = [rng.randbytes(200) for _ in range(100)]
    boxes = [c.pk_encrypt(box_public, m) for m in messages]
    key = rng.randbytes(32)
    sealed = [c.aead_encrypt(key, m[:98]) for m in messages]
    seed_bytes = rng.randbytes(32)
    sig_public = c.sig_public(seed_bytes)
    sigs = [c.sign(seed_bytes, m) for m in messages]
    cases = {
        "exp": [(points[i], scalars[-1 - i]) for i in range(40)],
        "base_exp": [(s,) for s in scalars * 2],
        "hash_to_group": [("bench", [m]) for m in messages[:60]],
        "decode_element": [(pt.encode(),) for pt in points] * 5,
        "pk_encrypt": [(box_public, m) for m in messages],
        "pk_decrypt": [(box_secret, b) for b in boxes],
        "aead_encrypt": [(key, m[:98]) for m in messages] * 2,
        "aead_decrypt": [(key, s) for s in sealed] * 2,
        "sign": [(seed_bytes, m) for m in messages],
        "verify": [(sig_public, m, s) for m, s in zip(messages, sigs)],
    }
    out = {}
    for name, calls in cases.items():
        fn = getattr(c, name)
        times = []
        for args in calls:
            start = perf()
            fn(*args)
            times.append(perf() - start)
        out[f"crypto.{name}.iso_us"] = statistics.median(times) * 1e6
    return out


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def load_pdid():
    """Import the program from this checkout's src/ and make its one-time
    set-up happen; returns the modules and the seconds it took."""
    start = perf()
    sys.path.insert(0, str(SRC))
    import cryptography
    import pdid.cli
    from pdid import actors, contract, crypto, errors, ledger, wire

    crypto.hash_to_group("warm-up", [b""])
    crypto.exp(crypto.base_exp(crypto.random_scalar()), crypto.random_scalar())
    p = argparse.Namespace(actors=actors, cli=pdid.cli, contract=contract, crypto=crypto,
                           errors=errors, ledger=ledger, wire=wire,
                           crypto_version=cryptography.__version__)
    return p, perf() - start


def first_call_s() -> float:
    """Median seconds that `load_pdid` takes in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); from run import load_pdid; print(load_pdid()[1])"
    times = []
    for _ in range(FIRST_CALL_REPS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def timed_run(p, spec: Spec, seed: int, seconds: float):
    setup_ref: List[float] = []
    run_ref: List[float] = []
    first_call = first_call_s()
    dep, setup_times = build(p, spec, seed, SETUP_REPS, reference=setup_ref)
    try:
        records, elapsed = run_pass(dep, spec, seconds=seconds, reference=run_ref)
        checks = check_updates(p, dep)
    finally:
        teardown(dep)
    setup_s = first_call + statistics.median(setup_times)
    wall, extra, counts = end_to_end(records, elapsed, setup_s, spec)
    metrics = at_reference_speed(wall, run_ref)
    metrics["setup_s"] = at_reference_speed({"setup_s": setup_s}, setup_ref)["setup_s"]
    stamp = {
        "reference_ms": {"setup": statistics.median(setup_ref) * 1e3, "run": statistics.median(run_ref) * 1e3},
        "wall_clock": wall, "samples": counts,
    }
    return records + checks, metrics, at_reference_speed(extra, run_ref), stamp


def traced_run(p, spec: Spec, seed: int, workload: str):
    """Blocks alternate between tracing off and on over one deployment, so a
    slow phase of the machine hits both alike; per-layer metrics."""
    from tracing import Tracer, aggregate

    metrics = calibrate(p, seed)
    metrics["cli.interpreter_ms"] = interpreter_ms()
    tracer = Tracer()
    tracer.install()  # before any ledger exists: the contract keeps ledger.tx_included
    dep, _ = build(p, spec, seed, 1)
    records: Dict[bool, List[Record]] = {False: [], True: []}
    elapsed = {False: 0.0, True: 0.0}
    try:
        if spec.deploy == "cli":
            dep = dep._replace(execute=Cli(dep.config, tracer))
            ledger_file = dep.config.parent / "ledger.log"
            ledger_before = ledger_file.stat().st_size
        else:
            ledger_before = len(dep.ledger)
        for i in range(2 * spec.trace_blocks):
            traced = tracer.active = i % 2 == 1
            recs, secs = run_pass(dep, spec, blocks=1, tracer=tracer if traced else None)
            records[traced] += recs
            elapsed[traced] += secs
        tracer.active = False  # the checks below are not part of the traced traffic
        ops = len(records[False]) + len(records[True])
        if spec.deploy == "cli":
            metrics["ledger.bytes_per_op"] = (ledger_file.stat().st_size - ledger_before) / ops
            metrics["contract.sealed_bytes"] = (dep.config.parent / "gpm.sealed").stat().st_size
            metrics["cli.import_ms"] = statistics.median(dep.execute.import_ms)
        else:
            appended = dep.ledger.snapshot()[ledger_before:]
            metrics["ledger.bytes_per_op"] = sum(4 + len(tx.encode()) for tx in appended) / ops
        checks = check_updates(p, dep)
    finally:
        tracer.active = False
        teardown(dep)

    metrics.update(aggregate(tracer.spans, tracer.labels))
    rate = {on: len(records[on]) / elapsed[on] for on in (False, True)}
    metrics["trace.overhead"] = rate[True] / rate[False]
    for stage in ("load_deployment", "run_login", "save"):
        if f"cli.{stage}.ms" in metrics:
            metrics[f"cli.{stage}_ms"] = metrics[f"cli.{stage}.ms"]
    users = [r.users for r in records[True] if r.label == "login"]
    stamp = {"users_per_traced_login": sum(users) / len(users)}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return records[False] + records[True] + checks, metrics, stamp


def declared(kind: str) -> List[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SPECS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few users and records, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "pdid" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'pdid'} and {ROOT / 'BENCHMARK.json'} are both needed", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in SPECS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
            status |= subprocess.run(cmd).returncode
        return status

    spec = SPECS[args.workload]
    if args.size == "tiny":
        spec = dataclasses.replace(spec, **TINY)
    load_start = os.getloadavg()
    p, _ = load_pdid()
    try:
        if args.trace:
            records, metrics, measured = traced_run(p, spec, args.seed, args.workload)
            extra = {}
        else:
            records, metrics, extra, measured = timed_run(p, spec, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(not r.ok for r in records)
    # Per-layer metrics of code the workload does not run read 0.
    names = declared("per_layer" if args.trace else "end_to_end")
    result = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in names}
    for name, entry in result.items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    for name, value in extra.items():
        print(f"{args.workload} {name} {value:.6g} ms")
    print(f"{args.workload} failed_ratio {failed / len(records):.6g} ratio")
    stamp = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "python": sys.version.split()[0], "cryptography": p.crypto_version,
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(), **measured,
    }
    print("stamp " + json.dumps(stamp))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The contract against the benchmark's outcome model, over random sequences
of registrations, logins, updates, guesses, clock steps and seal/unseal
round trips.

The oracle is `Model` from `perfbench/run.py`, the one account of who holds
which password and of each username's sliding rate window that the
benchmark also predicts its outcomes with. It is loaded from its file, so
the model has one copy and this test needs no package for it.

After every step, the ledger is also folded through a second contract with
the same keypair, each record decided by `apply` alone at the time it was
appended: the live contract's users and its rate windows, pruned to now,
must be that fold's.
"""

import importlib.util
import sys
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from pdid import actors
from pdid.contract import GpmContract
from pdid.errors import PdidError, RateLimited, WrongPassword
from pdid.ledger import Ledger

CAP = 3
WINDOW = 60.0
SERVER_ID = b"model.example"
SEALING_KEY = bytes(range(32))


def _load_model() -> type:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while building `Spec`.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.Model


Model = _load_model()


def live_windows(gpm: GpmContract, now: float) -> dict:
    """The contract's rate windows pruned to `now`, without pruning them."""
    live = {}
    for username, times in gpm._attempts.items():
        kept = [t for t in times if now - t <= WINDOW]
        if kept:
            live[username] = kept
    return live


class ContractMachine(RuleBasedStateMachine):
    """One in-process ledger and contract on a manual clock, cap 3."""

    @initialize(seed=st.integers(0, 2**16))
    def deploy(self, seed):
        self.now = 1_000_000.0
        self.ledger = Ledger()
        self.gpm = GpmContract.create(
            self.ledger.tx_included, clock=lambda: self.now, rate_limit=(CAP, WINDOW)
        )
        self.model = Model(seed, CAP, WINDOW, max_users=None)
        self.appended_at = []  # the clock when each ledger record was appended
        self.fold = GpmContract(
            self.gpm._keypair, tx_verifier=self.ledger.tx_included, rate_limit=(CAP, WINDOW)
        )
        self.folded = 0  # ledger records decided by the fold so far
        for op in (self.model.enrol(), self.model.enrol(target=True)):
            assert self._run(op) == op.expect

    def _run(self, op) -> str:
        outcome = self._outcome(op)
        self.appended_at += [self.now] * (len(self.ledger) - len(self.appended_at))
        return outcome

    def _outcome(self, op) -> str:
        try:
            if op.kind == "register":
                actors.run_register(self.gpm, self.ledger, op.username, op.password)
            elif op.kind in ("update", "update_wrong"):
                actors.run_update(
                    self.gpm, self.ledger, op.username, op.password, op.new_password
                )
            else:
                actors.run_login(self.gpm, self.ledger, op.username, op.password, SERVER_ID)
        except WrongPassword:
            return "wrong-password"
        except RateLimited:
            return "rate-limited"
        return "ok"

    @rule(kind=st.sampled_from(
        ["register", "login", "login_wrong", "update", "update_wrong", "guess"]
    ))
    def operate(self, kind):
        op = self.model.plan(kind, self.now)
        assert self._run(op) == op.expect, op

    @rule(step=st.sampled_from([1.0, 30.0, WINDOW + 1.0]))
    def advance_clock(self, step):
        self.now += step

    @rule()
    def seal_and_unseal(self):
        blob = self.gpm.seal(SEALING_KEY)
        self.gpm = GpmContract.unseal(
            blob,
            SEALING_KEY,
            tx_verifier=self.ledger.tx_included,
            clock=lambda: self.now,
            rate_limit=(CAP, WINDOW),
        )

    @invariant()
    def state_is_the_fold_of_the_ledger(self):
        # One fold per example, carried forward record by record: `apply`
        # is deterministic, so this is the fold of the whole ledger.
        for seq in range(self.folded, len(self.ledger)):
            try:
                self.fold.apply(self.ledger.transaction_at(seq), self.appended_at[seq])
            except PdidError:
                pass
        self.folded = len(self.ledger)
        assert self.fold._users == self.gpm._users
        assert live_windows(self.fold, self.now) == live_windows(self.gpm, self.now)


ContractMachine.TestCase.settings = settings(
    derandomize=True, deadline=None, max_examples=30, stateful_step_count=40
)
TestContractModel = ContractMachine.TestCase

"""Spans around the public functions of every `pdid` module, and the
per-layer numbers derived from them.

`Tracer.install()` replaces each function named in `FUNCTIONS` in every
loaded `pdid` module namespace that binds it (so `oprf`'s by-name import of
`exp` is traced as well as `crypto.exp`), and each method named in `METHODS`
on its class. Install before any `Ledger` exists: the contract keeps
`ledger.tx_included` as a bound method.

Each span is `[name, start, end, parent, op]`: `parent` is the index of the
enclosing span (-1 for none) and `op` the id of the benchmark operation it
belongs to (None outside operations). Spans stay in memory until the run
ends.

Run as a script, this file is the traced stand-in for `python -m pdid.cli`:

    python3 perfbench/tracing.py SPANS_OUT [pdid cli arguments...]

It times `import pdid.cli`, installs the wrappers, calls
`pdid.cli.main(argv)`, writes `{"import_ms": ..., "spans": [...]}` to
SPANS_OUT and exits with the command's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

FUNCTIONS: Dict[str, List[str]] = {
    "crypto": [
        "exp", "base_exp", "hash_to_group", "decode_element", "pk_encrypt",
        "pk_decrypt", "aead_encrypt", "aead_decrypt", "sign", "verify",
    ],
    "oprf": ["blind", "evaluate", "unblind", "oprf_eval"],
    "wire": ["decode_expected", "decode_metadata"],
    "actors": [
        "client_auth_init", "server_auth_phase1", "server_auth_phase2",
        "client_auth_finish", "client_register", "client_update",
        "transcript_digest", "key_confirm", "verify_confirm",
    ],
    "cli": ["load_deployment", "run_login"],
}
METHODS: Dict[str, Dict[str, List[str]]] = {
    "ledger": {"Ledger": ["append", "tx_included", "open"]},
    "contract": {"GpmContract": ["new_pdid", "auth_pdid", "update_pdid", "seal", "unseal"]},
    "cli": {"Deployment": ["save"]},
}
CONFIRM = ("actors.transcript_digest", "actors.key_confirm", "actors.verify_confirm")

perf = time.perf_counter


class Tracer:
    """In-memory span recorder; records only while `active` is true."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.labels: Dict[int, str] = {}  # op id -> kind label
        self.active = False
        self._stack: List[int] = []
        self._op: Optional[int] = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every listed function and method in the loaded pdid modules."""
        loaded = [m for n, m in list(sys.modules.items()) if n == "pdid" or n.startswith("pdid.")]
        for mod_name, names in FUNCTIONS.items():
            module = sys.modules.get(f"pdid.{mod_name}")
            if module is None:
                continue
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for namespace in loaded:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
        for mod_name, classes in METHODS.items():
            module = sys.modules.get(f"pdid.{mod_name}")
            if module is None:
                continue
            for cls_name, names in classes.items():
                cls = getattr(module, cls_name)
                for meth in names:
                    raw = cls.__dict__[meth]
                    label = f"{mod_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(label, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(label, raw))

    @contextmanager
    def operation(self, label: str):
        """Root span of one benchmark operation; wrapped calls inside it
        carry its op id."""
        op = len(self.labels)
        self.labels[op] = label
        span = ["op", 0.0, 0.0, -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = op
        span[1] = perf()
        try:
            yield
        finally:
            span[2] = perf()
            self._stack.pop()
            self._op = None

    def adopt(self, child_spans: List[list]) -> None:
        """Attach spans recorded in a child process to the current operation."""
        parent = self._stack[-1] if self._stack else -1
        base = len(self.spans)
        for name, start, end, child_parent, _ in child_spans:
            self.spans.append(
                [name, start, end, parent if child_parent < 0 else base + child_parent, self._op]
            )


def aggregate(spans: List[list], labels: Dict[int, str]) -> Dict[str, float]:
    """Per-layer numbers from one traced pass.

    - `<fn>.calls.<kind>`: calls per operation of that kind (exact counts);
    - `<fn>.us` / `<fn>.ms`: mean inclusive time per call;
    - `<fn>.self_us`: mean time per call minus time in traced callees;
    - `crypto.share`: time in outermost crypto calls over operation time;
    - `contract.evaluated_ratio`: auth transactions that reached OPRF
      evaluation over auth transactions the contract was handed;
    - `actors.confirm.us`: key-confirmation time per login.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    ops_per_kind: Dict[str, int] = {}
    for label in labels.values():
        ops_per_kind[label] = ops_per_kind.get(label, 0) + 1

    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    self_total: Dict[str, float] = {}
    per_kind: Dict[tuple, int] = {}
    op_time = crypto_time = confirm_time = 0.0
    auth_calls = evaluated = 0
    for i, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "op":
            op_time += dur
            continue
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_total[name] = self_total.get(name, 0.0) + dur - children[i]
        if op is not None:
            key = (name, labels[op])
            per_kind[key] = per_kind.get(key, 0) + 1
            if name.startswith("crypto.") and not (parent_name or "").startswith("crypto."):
                crypto_time += dur
            if name in CONFIRM and parent_name not in CONFIRM and labels[op] == "login":
                confirm_time += dur
        if name == "contract.auth_pdid":
            auth_calls += 1
        elif name == "oprf.evaluate" and parent_name == "contract.auth_pdid":
            evaluated += 1

    out: Dict[str, float] = {}
    for name, n in calls.items():
        out[f"{name}.us"] = total[name] / n * 1e6
        out[f"{name}.ms"] = total[name] / n * 1e3
        out[f"{name}.self_us"] = self_total[name] / n * 1e6
    for (name, kind), n in per_kind.items():
        out[f"{name}.calls.{kind}"] = n / ops_per_kind[kind]
    out["crypto.share"] = crypto_time / op_time if op_time else 0.0
    out["contract.evaluated_ratio"] = evaluated / auth_calls if auth_calls else 0.0
    logins = ops_per_kind.get("login", 0)
    out["actors.confirm.us"] = confirm_time / logins * 1e6 if logins else 0.0
    return out


def _drive(spans_out: str, argv: List[str]) -> int:
    start = perf()
    import pdid.cli as cli

    import_ms = (perf() - start) * 1e3
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        with open(spans_out, "w") as fh:
            json.dump({"import_ms": import_ms, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(_drive(sys.argv[1], sys.argv[2:]))

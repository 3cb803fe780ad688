"""`pdid bench`: per-stage protocol timings and message sizes, in one
process over an in-memory ledger, next to the reference numbers of the
original evaluation. Acceptance criteria 7 and 8 read its JSON; the
benchmark of record is `perfbench/run.py`. Imported only by that command.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional

from . import actors, crypto
from .contract import GpmContract
from .ledger import Ledger
from .wire import UpdatePlaintext

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


# The iterations run as BLOCKS consecutive blocks. A stage is flagged as
# noisy when its samples spread wider than their mean, or when its slowest
# block median exceeds its fastest by more than BLOCK_SPREAD: a phase in
# which the machine ran slow.
BLOCKS = 3
BLOCK_SPREAD = 1.25


def _stats(samples: List[float]) -> dict:
    ms = [s * 1000 for s in samples]
    bounds = [len(ms) * i // BLOCKS for i in range(BLOCKS + 1)]
    blocks = [ms[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    return {
        "mean_ms": statistics.fmean(ms),
        "median_ms": statistics.median(ms),
        "stdev_ms": statistics.pstdev(ms) if len(ms) > 1 else 0.0,
        "block_medians_ms": [statistics.median(block) for block in blocks],
    }


def _noisy(st: dict) -> bool:
    medians = st["block_medians_ms"]
    return st["stdev_ms"] > st["mean_ms"] or max(medians) > BLOCK_SPREAD * min(medians)


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
    sizes. Each stage also reports the medians of its BLOCKS consecutive
    blocks of iterations, and `noise_flags` names the stages `_noisy`
    finds. Measured numbers sit next to the reference timings so
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
        actors.run_login(gpm, ledger, username, password, server_id, observe=observe)
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
    noise_flags = sorted(name for name, st in timings.items() if _noisy(st))
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

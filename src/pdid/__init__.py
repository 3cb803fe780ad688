"""Password-derived identities over a confidential ledger contract.

A three-party protocol: users hold only a password, servers hold no
password-derived secrets at rest, and a contract running over a
byzantine-fault-tolerant ledger holds the per-user record that makes
offline guessing impossible for anyone below the fault threshold.

Layers, bottom to top (import the module you need, e.g.
`from pdid import actors`):

- `crypto`: prime-order group, hashing, PRF, AEAD, public-key
  encryption, signatures.
- `oprf`: blinded pseudorandom password evaluation.
- `wire`: fixed binary encodings for every message and record.
- `ledger`: the simulated BFT ledger with inclusion proofs.
- `contract`: the identity contract (register, authenticate, update).
- `actors`: client-side and server-side protocol roles, and the
  `run_register` / `run_login` / `run_update` drivers that carry each flow
  through a ledger and a contract.
- `adversary`: attack probes, the passive trace observer, and the
  `pdid attack` drills built on them.
- `bench`: the `pdid bench` stage timings and message sizes.
- `cli`: deployment config and files, and the `pdid` commands.
"""

__version__ = "1.0.0"

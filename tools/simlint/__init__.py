"""simlint: determinism lint for the repro tree.

Grown out of the original ``detlint`` rule set.  Two layers:

- :mod:`simlint.perline` — the original per-line rules (wall-clock
  reads, unseeded randomness, iteration-order hazards, ...) with the
  same ``# detlint: ignore[...]`` inline suppression syntax;
- four whole-program passes over a project model
  (:mod:`simlint.model`): :mod:`simlint.taint` (host values reaching
  sim context), :mod:`simlint.checkpoint_cov` (checkpoint field
  coverage), :mod:`simlint.ownership` (hold/release and pin/unpin
  balance) and :mod:`simlint.counterkeys` (counter-name registry).

Run it as ``python tools/simlint`` (see :mod:`simlint.cli`) or through
``repro lint``; ``--only perline`` runs the per-line subset.  Pure stdlib by design — it must run anywhere the
tests run, including CI images before any pip install.
"""

from __future__ import annotations

from simlint.cli import main

__all__ = ["main"]

"""sfq-lint v2: streamfreq's whole-program domain-invariant checker.

Package layout:
  tokenizer.py      comment/string/raw-string-aware code view
  findings.py       Finding record + NOLINT-with-reason suppression
  file_rules.py     the 11 per-file rules (ported from v1)
  repo_rules.py     derived inputs + whole-tree checks (orphan-module)
  include_graph.py  include graph + layer-DAG enforcement (layer-dag)
  locks.py          lock-order cycles + blocking-under-lock
  hotpath.py        // sfq-hot-path purity enforcement
  cli.py            driver (modes, --json, fixture self-check)

Run it from the repository root as `PYTHONPATH=tools python3 -m sfq_lint`.
"""

from .cli import main  # noqa: F401
from .findings import Finding  # noqa: F401

"""The suite-major CheckResult hash over frozen_corpus(100), against its pin.

sha256 over repr((item, suite, name, tag, lhs, rhs, status)) of every
CheckResult, all four suites, suite by suite and item by item within a suite.
Every change that leaves the results alone leaves this hash alone; a change
that moves a row has to move the pin with it, on purpose.

Run from the repository root (about 25 s on a 2-core x86_64 box):

    PYTHONPATH=src python tests/frozen_corpus_hash.py

It prints the row count and the hash, and exits 1 unless both match the pin.
The file name keeps it out of the pytest collection; `test_verify` pins the
same recipe over frozen_corpus(2).
"""

from __future__ import annotations

import hashlib
import sys

from energylab.verify import (VerifyConfig, frozen_corpus, run_algorithm_audits,
                              run_identity_suite, run_inequality_suite, run_ratio_report)

SEEDS = 100
ROWS = 27_346
DIGEST = "13f4f3764c2e99b3438d50247cf46e32099de2079c7552296f06ddf94874ebc1"


def suite_major_rows(items):
    """(item name, tag, hashed key) of every CheckResult over the items, suite-major."""
    cfg = VerifyConfig()
    suites = (("identity", lambda it: run_identity_suite(it.A, it.B, cfg)),
              ("inequality", lambda it: run_inequality_suite(it.A, it.B, cfg)),
              ("ratio", lambda it: run_ratio_report(it.A, cfg)),
              ("algorithms", run_algorithm_audits))
    for suite, run in suites:
        for it in items:
            for r in run(it):
                yield it.name, r.tag, repr((it.name, suite, r.name, r.tag, r.lhs, r.rhs,
                                            r.status)).encode()


def main() -> int:
    h = hashlib.sha256()
    rows = 0
    for _, _, key in suite_major_rows(frozen_corpus(seeds=SEEDS)):
        h.update(key)
        rows += 1
    print(f"frozen_corpus({SEEDS}): {rows} rows, sha256 {h.hexdigest()}")
    if rows != ROWS or h.hexdigest() != DIGEST:
        print(f"expected {ROWS} rows, sha256 {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write bench/audit_reference.json: the audit total of every pinned audit case.

Run from the root of a checkout of the commit whose totals are to be
pinned:

    python3 bench/pin_audit_reference.py

The audit-dense workload compares every audit it makes with these totals,
so they are taken once, from the package as first benchmarked, and kept.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, import_package, machine_info
from workloads import AUDIT_REFERENCE, audit_case, audit_cases, audit_key, write_audit_case


def main() -> int:
    mg = import_package()
    workdir = ROOT / ".bench_work" / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True)
    totals = {}
    try:
        for key in audit_cases():
            stem = workdir / audit_key(*key).replace("/", "-")
            report = mg.audit(*write_audit_case(mg, audit_case(*key), stem))
            totals[audit_key(*key)] = report.value
            print(audit_key(*key), repr(report.value), len(report.active_pairs), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine = machine_info()
    document = {
        "git_commit": machine["git_commit"],
        "source_sha256": machine["source_sha256"],
        "totals": totals,
    }
    AUDIT_REFERENCE.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

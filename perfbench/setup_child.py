"""Set-up time of one workload in a fresh interpreter.

Prints the seconds from the first line of this script to ready: ``import
tpl3`` plus the fixed objects the workload's calls start from.  Run with the
checkout's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python3 perfbench/setup_child.py classify-mix
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import tpl3  # noqa: E402

workload = sys.argv[1]
if workload.startswith("classify"):
    tpl3.a3_bracket()
    for family in tpl3.FAMILY_IDS:
        params = {name: 1 for name in tpl3.FAMILY_PARAMS[family]}
        tpl3.instantiate_family(tpl3.FamilyInstance.make(family, **params))
elif workload == "spaces":
    import inputs

    for parts in inputs.STRUCTURED.values():
        table, n = inputs.direct_sum(parts)
        tpl3.TriBracket(n, {k: tpl3.Vector(v) for k, v in table.items()})
elif workload == "cli-docs":
    import tpl3.cli

    tpl3.cli.build_parser()
else:
    sys.exit(f"unknown workload {workload!r}")
print(time.perf_counter() - t0)

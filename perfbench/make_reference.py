"""Regenerate reference.json: the summary.json values every workload produces.

    python3 perfbench/make_reference.py

Runs each workload once through child.py, with seed 0, and records per call
either every ``summary.json`` field or the refusal (exception type and
message prefix) the call ended in.  The summaries do not depend on the seed,
so the benchmark checks every seed against this one reference.  Every numeric
field needs a tolerance in ``checks.TOLERANCES``; the script stops if one has
none.  Only rerun this when a change is meant to alter the program's answers,
and say so in the change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import REFERENCE, TOLERANCES, is_number  # noqa: E402
from run import run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def collect(workload, work):
    calls = run_child(workload, 0, work, workload)["calls"]
    entries = {}
    for call in calls:
        if call["error"] is not None:
            # keep the exception type and the message up to its first number
            head = call["error"].split(", got")[0]
            entries[call["name"]] = {"refused": head}
            continue
        if call["status"] != 0:
            sys.exit(f"{workload}/{call['name']} exited {call['status']}")
        summary_path = work / workload / call["name"] / "summary.json"
        if summary_path.is_file():
            summary = json.loads(summary_path.read_text())
            missing = [k for k, v in summary.items() if is_number(v) and k not in TOLERANCES]
            if missing:
                sys.exit(f"no tolerance stated for {missing}")
            entries[call["name"]] = {"summary": summary}
        else:
            entries[call["name"]] = {}
    return entries


def main():
    parent = HERE.parent / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=parent))
    try:
        workloads = {name: collect(name, work) for name in WORKLOADS}
    finally:
        shutil.rmtree(work)
        try:
            parent.rmdir()
        except OSError:
            pass
    REFERENCE.write_text(json.dumps(workloads, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Record the pinned reference of every workload and input id.

Usage (from the repository root, at the commit that defines the
reference): python3 perfbench/pin.py [workload ...]

Each input id's search runs once with jobs=1 through the same worker as
the benchmark; its candidate log and best per-cell indices are written to
``reference/<workload>.json``.  A parallel workload is checked against
this serial reference, which tests schedule independence.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, SRC, WORK, read_outputs, run_child
from workloads import NUM_INPUTS, WORKLOADS, write_inputs


def pin(name: str) -> dict:
    wl = WORKLOADS[name]
    work = WORK / "pin" / name
    inputs = {}
    for ident in range(NUM_INPUTS):
        write_inputs(wl, ident, work / "data")
        spec = {"workload": name, "input_id": ident, "src": str(SRC),
                "data_dir": str(work / "data"), "jobs": 1, "mode": "search"}
        run_child(spec, work / "round")
        records, best, _ = read_outputs(work / "round")
        inputs[str(ident)] = {"best": list(best), "records": records}
        print(f"{name} input {ident}: {len(records)} candidates, best {best}",
              flush=True)
    return {"workload": name, "record": ["phase", "index", "n_param", "feasible",
                                         "singular", "score"],
            "inputs": inputs}


def main(names: list[str]) -> int:
    REFERENCE.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        ref = pin(name)
        with open(REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
            fh.write("{\n")
            fh.write(f' "workload": {json.dumps(ref["workload"])},\n')
            fh.write(f' "record": {json.dumps(ref["record"])},\n')
            fh.write(' "inputs": {\n')
            items = list(ref["inputs"].items())
            for n, (ident, entry) in enumerate(items):
                rows = ",\n   ".join(json.dumps(r) for r in entry["records"])
                fh.write(f'  "{ident}": {{"best": {json.dumps(entry["best"])}, '
                         f'"records": [\n   {rows}]}}')
                fh.write(",\n" if n + 1 < len(items) else "\n")
            fh.write(" }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

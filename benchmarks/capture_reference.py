"""Regenerate reference.json: the outputs the benchmark checks ops against.

Run from the root of a checkout whose tests pass:

    python3 benchmarks/capture_reference.py

Records, for every item of the ``sweep`` and ``design`` workloads, the value
its op produces (sweep.csv norms; the chosen eps1, eps2 and objective).  The
``oracle`` workload needs none: it checks against ``hinf_norm``.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    reference = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in ("sweep", "design"):
            wl = workloads.build(name, 0, scratch)
            reference[name] = {}
            for item in sorted(wl.items):
                value = wl.observe(item, wl.run(item))
                value.pop("code", None)
                value.pop("output", None)
                reference[name][item] = value
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

"""Set-up probe: what a fresh ``repro run`` pays before its second step.

Run in a fresh interpreter by ``run.py``::

    python3 perfbench/probe_setup.py <workload> <seed>

The clock starts before ``import repro.cli`` and stops when the first
simulated step has returned, so it covers the import, the network
build, ``Simulator(...)`` (backend compile and ring sizing) and the
lazy plan binding of the first step. Prints one JSON object with the
total and its four parts, in seconds.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (what every ``repro run`` imports first)

    import cases

    imported = time.perf_counter()
    case = cases.CASES[name]
    network, _ = cases.build(case, seed)
    built = time.perf_counter()
    simulator = cases.make_simulator(case, network, seed)
    initialised = time.perf_counter()
    simulator.run(1)
    stepped = time.perf_counter()
    print(json.dumps({
        "setup_s": stepped - start,
        "cli.import_s": imported - start,
        "workloads.build_s": built - imported,
        "simulator.init_s": initialised - built,
        "simulator.first_step_s": stepped - initialised,
    }))


if __name__ == "__main__":
    main()

"""Rewrite pins.json: each workload's outputs at the default seed.

Run from the root of a checkout, only when a change is meant to alter a
workload's output (for example a new stimulus sampler), and say so in
the change::

    python3 perfbench/repin.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cases  # noqa: E402
from run import run_episode  # noqa: E402


def main() -> None:
    pins = {}
    for name, case in cases.CASES.items():
        pins[name] = [
            run_episode(case, seed)[0]
            for seed in cases.network_seeds(case, cases.DEFAULT_SEED)
        ]
        print(name, *(pin["spike_digest"] for pin in pins[name]), flush=True)
    with open(cases.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

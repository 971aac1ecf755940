"""Record the simulate workloads' reference summaries in reference.json.

    python3 perfbench/record_reference.py

The benchmark compares every Monte Carlo report it produces with these
values.  Re-record only with a library change that is meant to alter the
simulation's numbers, and say so in that change.
"""

from __future__ import annotations

import json
from dataclasses import replace

from run import prepare

MASTER_SEEDS = range(32)


def main() -> None:
    prepare()
    from massimpute import simulation
    from workloads import REFERENCE_FILE, SIM_CONFIGS, summary

    doc = {}
    for name, config in SIM_CONFIGS.items():
        base = simulation.SimConfig(model_id="I", threads=1, **config)
        doc[name] = {
            "config": config,
            "seeds": {
                str(seed): summary(
                    simulation.run_monte_carlo(replace(base, master_seed=seed)))
                for seed in MASTER_SEEDS
            },
        }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

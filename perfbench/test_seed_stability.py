#!/usr/bin/env python3
"""Seed-stability test of the benchmark's workloads.

    python3 perfbench/test_seed_stability.py

The seed may choose which nodes, partners, times and victims a workload
uses, never how much work it does. For each workload this runs SEEDS at
reduced size and checks that every work count stays within its tolerance
across the seeds (0 = equal on every seed), and that one seed run twice
gives identical counts and the same delivery digest. Builds the benchmark
first, as run.py does. Takes about two minutes.
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
# Message-count multiplier. soak64 runs at full size: its size is set by
# its fault schedule, and its recoveries take whole virtual seconds.
SCALE = {"ring512": 0.1, "bulk64": 0.2, "soak64": 1.0}
# Largest allowed (max - min) / median of each count across SEEDS.
TOLERANCE = {
    "ring512": {"deliveries": 0, "net.packets": 0, "mcp.fragments": 0,
                "mcp.retransmissions": 0, "sim.events": 0.02},
    "bulk64": {"deliveries": 0, "net.packets": 0, "mcp.fragments": 0,
               "mcp.retransmissions": 0, "sim.events": 0.02},
    "soak64": {"faults.nic-hang": 0, "faults.cable-down": 0,
               "faults.cable-up": 0, "faults.sram-flip": 0,
               "faults.fault-window": 0, "faults.node-join": 0,
               "faults.node-drain": 0, "faults.node-replace": 0,
               "core.recoveries": 0, "faultinject.windows": 0.15,
               "deliveries": 0.05, "sim.events": 0.15, "mapper.remaps": 1.0},
}


class SeedStability(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = os.path.join(run.build(), "perfbench")

    def run_workload(self, workload, seed):
        res = run.run_process(self.binary, workload, seed,
                              ["--scale", str(SCALE[workload])])
        self.assertEqual(res["error"], "", "%s seed %d" % (workload, seed))
        self.assertEqual(res["delivered"], res["posted"])
        return res

    def check(self, workload):
        results = [self.run_workload(workload, s) for s in SEEDS]
        for name, tol in TOLERANCE[workload].items():
            values = [r["counts"][name] for r in results]
            spread = (max(values) - min(values)) / max(1, statistics.median(values))
            print("%s %-22s %s spread %.4f" % (workload, name, values, spread),
                  file=sys.stderr)
            self.assertLessEqual(spread, tol, "%s %s over seeds %s: %s" %
                                 (workload, name, SEEDS, values))
        again = self.run_workload(workload, SEEDS[0])
        self.assertEqual(again["counts"], results[0]["counts"])
        self.assertEqual(again["digest"], results[0]["digest"])
        # A different seed places the work differently.
        self.assertNotEqual(results[1]["digest"], results[0]["digest"])

    def test_ring512(self):
        self.check("ring512")

    def test_bulk64(self):
        self.check("bulk64")

    def test_soak64(self):
        self.check("soak64")


if __name__ == "__main__":
    unittest.main()

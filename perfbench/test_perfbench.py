"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; builds the driver like run.py does.
"""

import json
import subprocess
import unittest

import run

ROOT = run.HERE.parent


def fingerprints(binary, workload, seed):
    """Digests through the program's own run(RunSpec) path."""
    out = subprocess.run([str(binary), "fingerprints", "--workload", workload,
                          "--seed", str(seed)], capture_output=True,
                         text=True, check=True).stdout
    return [line.split()[3] for line in out.splitlines()]


def stored(workload, seed):
    digests = {}
    for line in run.EXPECTED.read_text().splitlines():
        fields = line.split()
        if (not line.startswith("#") and fields[0] == workload
                and int(fields[1]) == seed):
            digests[int(fields[2])] = fields[3]
    return [digests[i] for i in sorted(digests)]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain = run.build("plain", hostprof=False)
        cls.traced = run.build("hostprof", hostprof=True)

    def test_same_seed_reproduces_fingerprint(self):
        first = fingerprints(self.plain, "gups-sw", 21)
        self.assertEqual(first, fingerprints(self.plain, "gups-sw", 21))
        # The benchmark's own composition, checked against run(RunSpec)
        # for a seed the store does not hold.
        doc = run.drive(self.plain, "gups-sw", 21, 0)
        self.assertEqual(doc["expected_source"], "run(RunSpec)")
        self.assertEqual(doc["expected"], first)
        # A warm-up round, then one round on each allowed CPU.
        self.assertEqual(len(doc["rounds"]), 1 + doc["nproc"])
        self.assertTrue(all(not r["failures"] for r in doc["rounds"]))

    def test_different_seed_changes_fingerprint(self):
        self.assertNotEqual(fingerprints(self.plain, "gups-sw", 21),
                            fingerprints(self.plain, "gups-sw", 22))

    def test_store_matches_program(self):
        for workload in ("gups-sw", "2dc-hw", "sweep"):
            with self.subTest(workload=workload):
                self.assertEqual(fingerprints(self.plain, workload, 1),
                                 stored(workload, 1))

    def test_traced_run_reproduces_untraced_and_maps_every_zone(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                spans = run.build_root() / f"test-spans-{workload}.json"
                doc = run.drive(self.traced, workload, 2, 0, spans_out=spans)
                self.assertEqual(doc["expected_source"], "stored")
                # Armed rounds are checked against the same digests as
                # the plain rounds they alternate with.
                self.assertTrue(run.timed(doc, "armed"))
                self.assertTrue(all(not r["failures"]
                                    for r in doc["rounds"]))
                self.assertEqual(run.unmapped_zones(doc), [])
                self.assertGreater(sum(z["hits"]
                                       for z in doc["zones"].values()), 0)
                names = {event["name"] for event in
                         json.loads(spans.read_text())["traceEvents"]}
                self.assertLessEqual({"makeWorkload", "Gpu::Gpu",
                                      "installWalkBackend", "Gpu::run",
                                      "collectResult", "job"}, names)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()

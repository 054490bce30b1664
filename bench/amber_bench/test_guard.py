#!/usr/bin/env python3
"""Checks the answer and input guard of amber_bench (expected.json).

    python3 test_guard.py PATH/TO/amber_bench

Runs the smoke hot-star workload for seed 1 three times against copies
of expected.json: unaltered (must pass), with the stored answer digest
altered (must exit non-zero), and with the stored list fingerprint
altered (must abort non-zero without printing a result).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = None


def flip(hex_digest):
    """The same digest with its last hex digit changed."""
    last = "0" if hex_digest[-1] != "0" else "1"
    return hex_digest[:-1] + last


class GuardTest(unittest.TestCase):
    def run_with(self, alter):
        with open(os.path.join(HERE, "expected.json")) as fh:
            doc = json.load(fh)
        entry = next(e for e in doc["entries"]
                     if e["workload"] == "hot-star" and e["seed"] == 1
                     and e["mode"] == "smoke")
        alter(entry)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "expected.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            return subprocess.run(
                [BINARY, "--smoke", "--workload", "hot-star", "--seed", "1",
                 "--expected", path, "--out", tmp],
                capture_output=True, text=True, timeout=120)

    def test_stored_digest_passes(self):
        p = self.run_with(lambda e: None)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        self.assertIn('"correct":true', p.stdout.splitlines()[-1])

    def test_altered_digest_fails(self):
        p = self.run_with(
            lambda e: e.update(answer_digest=flip(e["answer_digest"])))
        self.assertNotEqual(p.returncode, 0)
        self.assertIn('"correct":false', p.stdout.splitlines()[-1])
        self.assertIn("differs from stored", p.stderr)

    def test_altered_fingerprint_aborts(self):
        p = self.run_with(
            lambda e: e.update(list_fingerprint=flip(e["list_fingerprint"])))
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)
        self.assertIn("does not match", p.stderr)


if __name__ == "__main__":
    BINARY = sys.argv.pop(1)
    unittest.main()

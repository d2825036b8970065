"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import hashlib
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import LAUNCHER, WORKLOADS, CheckFailed, run_cli  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        ordered = list(range(1, 101))
        self.assertEqual(run.percentile(ordered, 0.5), 50)
        self.assertEqual(run.percentile(ordered, 0.9), 90)
        self.assertEqual(run.percentile([7], 0.9), 7)

    def test_ten_samples_beyond_the_tail(self):
        self.assertTrue(run.tail_supported(100, 0.9))
        self.assertFalse(run.tail_supported(99, 0.9))
        self.assertFalse(run.tail_supported(999, 0.99))
        self.assertTrue(run.tail_supported(1000, 0.99))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        synthetic = [
            ["op", 0.0, 10.0, None, 0],
            ["a", 1.0, 5.0, 0, 0],
            ["b", 2.0, 3.0, 1, 0],
            ["a", 6.0, 9.0, 0, 0],
            ["op", 20.0, 21.0, None, 1],
        ]
        self.assertEqual(spans.self_times(synthetic), {"op": 4.0, "a": 6.0, "b": 1.0})

    def test_adopted_spans_hang_under_the_open_span(self):
        tracer = spans.Tracer()
        root = tracer.begin("op")
        tracer.adopt([["cli.main", 1.0, 2.0, None, None], ["words.parse_word", 1.2, 1.5, 0, None]], 7)
        tracer.end(root)
        self.assertEqual([s[3] for s in tracer.spans], [None, 0, 1])
        self.assertEqual([s[4] for s in tracer.spans[1:]], [7, 7])

    def test_bareiss_steps(self):
        self.assertEqual(spans.bareiss_steps(1), 0)
        self.assertEqual(spans.bareiss_steps(3), 4 + 1)


def declared_metrics(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)[kind]]


def input_digest(name, seed, rounds=3):
    workload = WORKLOADS[name](run.ROOT, seed)
    return hashlib.sha256(repr([workload.next_round() for _ in range(rounds)]).encode()).hexdigest()


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            with self.subTest(name):
                self.assertEqual(input_digest(name, 3), input_digest(name, 3))
                self.assertNotEqual(input_digest(name, 3), input_digest(name, 4))


class Tracing(unittest.TestCase):
    def boundary_objects(self):
        return {
            (module_name, func): mod.__dict__.get(func)
            for module_name, mod in sys.modules.items()
            if module_name == "braidcalc" or module_name.startswith("braidcalc.")
            for _, func, _ in spans.BOUNDARIES
        }

    def test_wrappers_restored_after_a_traced_run(self):
        workload, _, _ = run.setup("conjugacy_audit", 0)
        before = self.boundary_objects()
        tracer, exact, traced, plain = run.traced_run(workload, 0.2)
        self.assertEqual(self.boundary_objects(), before)
        self.assertFalse([k for k, v in before.items() if hasattr(v, "__wrapped__")])
        self.assertEqual(exact["b3.oracle.calls"], run.PREFIX_OPS)
        self.assertGreaterEqual(traced.attempted, run.PREFIX_OPS)
        self.assertEqual(traced.failed + plain.failed, 0)
        reported = run.per_layer(tracer, exact, traced, plain, 1.0, cli=False)
        self.assertEqual(sorted(reported), sorted(declared_metrics("per_layer")))

    def test_launcher_stdout_matches_the_cli(self):
        workload = WORKLOADS["cli_session"](run.ROOT, 0)
        argvs = [argv for argv, _, _ in workload.next_round()]
        argvs.append(["invariants", "s0"])  # a usage error
        for argv in argvs:
            with self.subTest(argv=argv):
                plain = run_cli(run.ROOT, workload.env, [sys.executable, "-m", "braidcalc.cli"] + argv)
                record = os.path.join(workload.tower_dir, "test-spans.json")
                traced = run_cli(run.ROOT, workload.env, [sys.executable, LAUNCHER, record] + argv)
                os.remove(record)
                self.assertEqual(plain, traced)


class WrongOutput(unittest.TestCase):
    def test_stubbed_wrong_output_counts_as_failed(self):
        workload, _, _ = run.setup("conjugacy_audit", 0)
        b3 = workload.m["b3"]
        workload.op = lambda inp: (b3.NotConjugate("stub"), True)
        with self.assertRaises(CheckFailed):
            workload.check(workload.next_round()[0], workload.op(None))
        loop = run.Loop(workload)
        loop.run(0, run.PREFIX_OPS)
        self.assertEqual(loop.failed, loop.attempted)
        metrics = run.end_to_end(loop, loop.failed, [1.0], cli=False)
        self.assertEqual(metrics["ok_ratio"][0], 0.0)
        self.assertEqual(sorted(metrics), sorted(declared_metrics("end_to_end")))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of run.py. Run from the repository root:

    python3 perfbench/test_run.py            # all tests (builds the worker)
    cargo test --manifest-path perfbench/Cargo.toml   # the worker's own tests

Set TENSORTEE_CLI_JSON to the output of
`tensortee run --all --fast --json --seed 42` to also check that the
registry goldens are the digests of what the CLI prints.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(list(range(99)), 0.9))
        self.assertAlmostEqual(run.percentile(list(range(101)), 0.9), 90.0)
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertAlmostEqual(run.percentile(list(range(21)), 0.5), 10.0)

    def test_call_rows_refuse_p90_below_100_calls(self):
        units = [{"class": "a", "ms": 1.0, "iterations": 10} for _ in range(99)]
        result = {"units": units, "counts": {"iterations": 990}}
        with self.assertRaises(run.BenchError):
            run.call_rows("serve", result, "us_per_iter", 1e3)
        result["units"].append(dict(units[0]))
        result["counts"]["iterations"] = 1000
        rows = run.call_rows("serve", result, "us_per_iter", 1e3)
        self.assertAlmostEqual(rows["serve.us_per_iter.a"], 100.0)


class DeclaredNames(unittest.TestCase):
    def test_result_line_refuses_names_not_in_benchmark_json(self):
        for trace in (0, 1):
            units = run.declared(trace)
            metrics = {name: 1.0 for name in units}
            out = json.loads(run.result_line(metrics, units, True, 1, 0))
            self.assertEqual(set(out["metrics"]), set(units))
            with self.assertRaises(run.BenchError):
                run.result_line({**metrics, "extra": 1.0}, units, True, 1, 0)
            with self.assertRaises(run.BenchError):
                run.result_line({k: v for k, v in list(metrics.items())[1:]}, units, True, 1, 0)

    def test_end_to_end_names_are_what_an_untraced_run_prints(self):
        self.assertEqual(set(run.declared(0)), {"setup_s", "wall_s", "peak_rss_mb"})


class WorkerChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def test_a_perturbed_golden_is_detected(self):
        perturbed = os.path.join(run.OUT, "perturbed-goldens")
        shutil.rmtree(perturbed, ignore_errors=True)
        shutil.copytree(run.GOLDENS, perturbed)
        path = os.path.join(perturbed, "fleet_trace.txt")
        with open(path) as f:
            lines = f.read().splitlines()
        kind, key, value, scope = lines[1].split()
        flipped = ("0" if value[0] != "0" else "1") + value[1:]
        lines[1] = f"{kind} {key} {flipped} {scope}"
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        result = run.run_pass(self.exe, "fleet_trace", run.GOLDEN_SEED, goldens=perturbed)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(run.problems([result], run.GOLDEN_SEED)[0].split(":")[0], "fleet_trace")
        clean = run.run_pass(self.exe, "fleet_trace", run.GOLDEN_SEED)
        self.assertEqual(clean["failed"], 0)
        self.assertEqual(run.problems([clean, clean], run.GOLDEN_SEED), [])

    def test_traced_run_prints_every_declared_per_layer_metric(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "fleet_trace", "--trace", "1"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), list(run.declared(1)))

    @unittest.skipUnless(os.environ.get("TENSORTEE_CLI_JSON"), "TENSORTEE_CLI_JSON not set")
    def test_registry_goldens_are_digests_of_the_cli_output(self):
        with open(os.environ["TENSORTEE_CLI_JSON"]) as f:
            text = f.read().strip()
        decoder, i, cli = json.JSONDecoder(), 1, {}
        while text[i] != "]":
            obj, end = decoder.raw_decode(text, i)
            cli[obj["id"]] = fnv1a(text[i:end].encode())
            i = end + (text[end] == ",")
        with open(os.path.join(run.GOLDENS, "registry_fast.txt")) as f:
            golden = {l.split()[1]: l.split()[2] for l in f if l.startswith("unit ")}
        self.assertEqual(golden, cli)


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


if __name__ == "__main__":
    unittest.main()

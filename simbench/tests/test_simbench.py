"""Self-tests of the simulator benchmark.

    python3 -m unittest discover -s simbench/tests -v

Run from the repository root.  The smoke tests build simbench into
.bench_build/simbench (about a minute the first time) and run every
workload once, with the traced run, on a tuning seed and on the
held-out seed.
"""

import copy
import importlib.util
import json
import re
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("simbench_run",
                                               HERE.parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_rep(workload):
    """A repetition that passes every check of @p workload."""
    sim = {name: 0.0 for name, _, _ in run.SIM_LAYER}
    sim["simcore.events"] = 1000.0
    if workload == "dc_zipf":
        sim.update({"chk.dc.drained": 1, "chk.dc.issued": 10,
                    "chk.dc.completed": 8, "dc.failures": 1,
                    "dc.rejected": 1, "chk.dc.warm_misses": 5,
                    "chk.dc.cache_objects": 4})
    elif workload == "pvfs_rw":
        sim.update({"chk.pvfs.drained": 1, "chk.pvfs.bad_ops": 0,
                    "chk.pvfs.bench_read_bytes": 4096,
                    "chk.pvfs.client_read_bytes": 4096,
                    "chk.pvfs.bench_write_bytes": 8192,
                    "chk.pvfs.client_write_bytes": 8192})
    else:
        sim.update({"chk.stream.capacity_bytes": 1000,
                    "chk.stream.tx_a": 500, "chk.stream.tx_b": 400,
                    "chk.stream.rx_a": 300, "chk.stream.rx_b": 450,
                    "chk.stream.sent_a": 448, "chk.stream.sent_b": 384})
    return {"traced": False, "attempted": 10, "failed": 0,
            "host": {"build_s": 0.01, "start_s": 0.02, "run_s": 0.3,
                     "teardown_s": 0.04},
            "sim": sim}


def process_lines(reps, peak_kib=2048):
    """What one simbench process per repetition prints."""
    lines = []
    for r in reps:
        lines.append(json.dumps({"kind": "context", "build_type": "Release",
                                 "compiler": "test", "optimized": True,
                                 "sanitized": False}))
        lines.append(json.dumps(dict(r, kind="rep")))
        ref = r.get("ref_s", (run.REF_SECONDS, run.REF_SECONDS))
        lines.append(json.dumps({"kind": "end", "peak_rss_kib": peak_kib,
                                 "ref_before_s": ref[0],
                                 "ref_after_s": ref[1]}))
    return lines


class DeclaredMetrics(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [n for n, _, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
            self.assertIn(better, ("higher", "lower"))

    def test_benchmark_json_matches_run_py(self):
        decl = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in decl["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in decl["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in decl["per_layer"]],
            list(run.PER_LAYER))

    def test_result_reports_exactly_the_declared_metrics(self):
        for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            rep = fake_rep("stream_ioat")
            reps = [rep]
            if trace:
                traced = copy.deepcopy(rep)
                traced["traced"] = True
                traced["trace_ticks"] = {c: 1 for c in run.TRACE_CATS}
                reps.append(traced)
            result, _ = run.evaluate("stream_ioat", trace, process_lines(reps))
            self.assertEqual(list(result["metrics"]),
                             [n for n, _, _ in declared])


class HostSpeed(unittest.TestCase):
    def test_host_times_scale_with_the_reference_kernel(self):
        reps = [fake_rep("pvfs_rw") for _ in range(3)]
        nominal, _ = run.evaluate("pvfs_rw", 0, process_lines(reps))
        for r in reps:
            # A host four times faster, before and after the repetition.
            r["ref_s"] = (run.REF_SECONDS / 4, run.REF_SECONDS / 4)
        fast, _ = run.evaluate("pvfs_rw", 0, process_lines(reps))
        for name in ("wall_s", "setup_s"):
            self.assertAlmostEqual(fast["metrics"][name]["value"],
                                   4 * nominal["metrics"][name]["value"])
        self.assertEqual(fast["metrics"]["peak_rss_mib"],
                         nominal["metrics"]["peak_rss_mib"])

    def test_reference_times_around_a_repetition_combine_geometrically(self):
        rep = fake_rep("stream_ioat")
        rep["ref_s"] = (run.REF_SECONDS / 2, run.REF_SECONDS * 2)
        result, _ = run.evaluate("stream_ioat", 0, process_lines([rep]))
        self.assertAlmostEqual(result["metrics"]["wall_s"]["value"],
                               0.3 + 0.04)

    def test_nominal_host_reports_measured_seconds(self):
        result, _ = run.evaluate("dc_zipf", 0,
                                 process_lines([fake_rep("dc_zipf")]))
        self.assertAlmostEqual(result["metrics"]["wall_s"]["value"],
                               0.3 + 0.04)


class Checker(unittest.TestCase):
    def test_fabricated_valid_reps_pass(self):
        for w in run.WORKLOADS:
            self.assertEqual(run.check_rep(w, fake_rep(w)), [], w)

    def test_rejects_broken_request_conservation(self):
        rep = fake_rep("dc_zipf")
        rep["sim"]["chk.dc.completed"] -= 1  # one request vanished
        self.assertTrue(run.check_rep("dc_zipf", rep))
        result, _ = run.evaluate("dc_zipf", 0, process_lines([rep]))
        self.assertFalse(result["correct"])

    def test_rejects_pvfs_byte_mismatch(self):
        rep = fake_rep("pvfs_rw")
        rep["sim"]["chk.pvfs.client_write_bytes"] += 4096
        self.assertTrue(run.check_rep("pvfs_rw", rep))

    def test_rejects_stream_receiving_more_than_sent(self):
        rep = fake_rep("stream_bypass")
        rep["sim"]["chk.stream.rx_b"] = rep["sim"]["chk.stream.tx_a"] + 1
        self.assertTrue(run.check_rep("stream_bypass", rep))

    def test_rejects_dead_letters(self):
        rep = fake_rep("stream_ioat")
        rep["sim"]["net.dead_letters"] = 1
        self.assertTrue(run.check_rep("stream_ioat", rep))

    def test_rejects_repetitions_that_disagree(self):
        a, b = fake_rep("pvfs_rw"), fake_rep("pvfs_rw")
        b["sim"]["simcore.events"] += 1
        result, context = run.evaluate("pvfs_rw", 0, process_lines([a, b]))
        self.assertFalse(result["correct"])
        self.assertIn("simulated outcome differs between repetitions",
                      context["violations"])

    def test_refuses_debug_and_sanitizer_builds(self):
        self.assertIsNone(run.refuse_reason(
            {"build_type": "Release", "optimized": True, "sanitized": False}))
        self.assertTrue(run.refuse_reason(
            {"build_type": "Debug", "optimized": False, "sanitized": False}))
        self.assertTrue(run.refuse_reason(
            {"build_type": "Release", "optimized": True, "sanitized": True}))


class Smoke(unittest.TestCase):
    """One short traced run of every workload, checked end to end."""

    results = {}

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise AssertionError("simbench failed to build")
        for w in run.WORKLOADS:
            lines = run.run_reps(w, 1, 0, True)
            cls.results[w] = run.evaluate(w, 1, lines)

    def metric(self, workload, name):
        return self.results[workload][0]["metrics"][name]["value"]

    def test_every_workload_passes_its_checks(self):
        for w, (result, context) in self.results.items():
            self.assertTrue(result["correct"], (w, context["violations"]))
            self.assertEqual(result["failed"], 0, w)
            self.assertGreater(result["attempted"], 0, w)

    def test_held_out_seed_passes_the_same_checks(self):
        for w in run.WORKLOADS:
            lines = run.run_reps(w, run.HELD_OUT_SEED, 0, False)
            result, context = run.evaluate(w, 0, lines)
            self.assertTrue(result["correct"], (w, context["violations"]))
            self.assertEqual(result["failed"], 0, w)

    def test_trace_fractions_partition_request_time(self):
        for w in run.WORKLOADS:
            total = sum(self.metric(w, "trace.%s_frac" % c.replace("-", "_"))
                        for c in run.TRACE_CATS)
            self.assertAlmostEqual(total, 1.0, places=9, msg=w)
            self.assertGreater(self.metric(w, "trace.overhead"), 0.0, w)

    def test_layer_isolation(self):
        for w in run.WORKLOADS:
            for name, _, _ in run.SIM_LAYER:
                value = self.metric(w, name)
                layer = name.split(".")[0]
                if layer == "xpt" and w != "stream_bypass":
                    self.assertEqual(value, 0, (w, name))
                elif layer == "dc" and w != "dc_zipf":
                    self.assertEqual(value, 0, (w, name))
                elif layer == "pvfs" and w != "pvfs_rw":
                    self.assertEqual(value, 0, (w, name))
                elif layer == "sock" and not w.startswith("stream"):
                    self.assertEqual(value, 0, (w, name))
        self.assertGreater(self.metric("stream_bypass", "xpt.poll_passes"), 0)
        self.assertGreater(self.metric("stream_bypass", "xpt.rx_bursts"), 0)
        self.assertEqual(self.metric("stream_bypass", "tcp.rx_segments"), 0)
        self.assertEqual(self.metric("stream_bypass", "dma.bytes"), 0)
        for w in ("dc_zipf", "stream_ioat", "pvfs_rw"):
            self.assertGreater(self.metric(w, "tcp.rx_segments"), 0, w)
            self.assertGreater(self.metric(w, "dma.bytes"), 0, w)
        self.assertGreater(self.metric("dc_zipf", "dc.tps"), 0)
        self.assertGreater(self.metric("pvfs_rw", "pvfs.read_mbps"), 0)

    def test_dma_work_concentrates_on_streams(self):
        def dma_rate(w):
            return self.metric(w, "dma.bytes") / self.metric(w, "simcore.sim_s")
        self.assertLess(dma_rate("dc_zipf"), 0.1 * dma_rate("stream_ioat"))


if __name__ == "__main__":
    unittest.main()

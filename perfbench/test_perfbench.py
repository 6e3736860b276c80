"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import re
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

BOUNDS_NS = [1000 << i for i in range(28)]


def hist(count, total_ns, buckets=None):
    b = buckets or [0] * (len(BOUNDS_NS) + 1)
    if buckets is None and count:
        b[5] = count
    return {"count": count, "total_ns": total_ns, "min_ns": 1 if count else 0,
            "max_ns": total_ns, "bounds_ns": BOUNDS_NS, "buckets": b}


def snapshot_without_deleted_layers():
    """A snapshot as the program writes it once the concrete rung, shared
    src encodings and the solver portfolio are gone: no tv.srcenc.*,
    tv.concrete.*, sat.portfolio.* or stage.ctv keys at all."""
    return {
        "schema": "alive-mutate-telemetry/v1",
        "counters": {
            "mutants": 100, "checks": 100, "tv.fastpath": 20,
            "verdict.valid": 78, "verdict.unknown": 2,
            "sat.conflicts": 5000, "sat.propagations": 90000,
            "tv.cache.hit": 10, "tv.cache.miss": 70,
            "tv.static.proved": 60, "tv.static.bailout": 10,
        },
        "histograms": {
            "stage.tv": hist(80, 2_000_000_000), "tv.valid": hist(78, 1_000_000_000),
            "tv.unknown": hist(2, 1_000_000_000), "tv.invalid": hist(0, 0),
            "stage.stv": hist(70, 1_000_000), "stage.mutate": hist(100, 5_000_000),
            "stage.opt": hist(100, 20_000_000), "stage.analysis": hist(900, 2_000_000),
            "stage.parse": hist(4, 100_000), "stage.preprocess": hist(4, 300_000_000),
            "stage.interp": hist(0, 0),
        },
    }


DELETED = ["tv.srcenc.hit_share", "tv.srcenc.proved_share", "tv.concrete.s",
           "tv.concrete.diverged", "sat.portfolio.races"]


class DeletedLayers(unittest.TestCase):
    def test_metrics_of_deleted_layers_print_as_absent(self):
        layers = run.per_layer(snapshot_without_deleted_layers(), 3.0)
        for name in DELETED:
            self.assertIsNone(layers[name][0], name)
        layers[run.TRACING_OVERHEAD[0]] = (0.05, "ratio")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run.print_layers(run.WORKLOADS["slice"], layers, 3.0)
        for name in DELETED:
            line = next(l for l in buf.getvalue().splitlines() if l.split()[0] == name)
            self.assertIn("absent", line)
        doc = run.json_metrics(layers)
        self.assertTrue(all(isinstance(m["value"], (int, float)) for m in doc.values()))

    def test_remaining_layers_still_read(self):
        snap = snapshot_without_deleted_layers()
        layers = run.per_layer(snap, 3.0)
        self.assertEqual(layers["tv.cache.hit_share"][0], 10 / 80)
        self.assertEqual(layers["tv.static.proved_share"][0], 60 / 70)
        # A zero counter of a layer that is still there reads 0, not absent.
        self.assertEqual(layers["verdict.invalid"][0], 0)
        self.assertEqual(layers["opt.crashes"][0], 0)
        self.assertAlmostEqual(layers["loop.other_s"][0], 3.0 - (2.0 + 0.005 + 0.02 + 0.0001 + 0.3))
        c = run.counts(snap)
        self.assertEqual(c["tv.queries"], 80)
        self.assertEqual(run.decided_share(c), 78 / 80)


# The only flags the benchmark may pass. Everything else a CLI defines, in
# particular every acceleration switch, stays at its default.
ALLOWED_FLAGS = {"budget", "only", "tvbudget", "seed", "workers", "gen", "count", "repo", "metrics-out"}


def go_sources(directory):
    """The text of every non-test .go file under directory, so that the
    checks below survive code moving between files or packages."""
    for dirpath, _, files in os.walk(os.path.join(run.ROOT, directory)):
        for name in files:
            if name.endswith(".go") and not name.endswith("_test.go"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    yield f.read()


def cli_flags(directory):
    return {f for text in go_sources(directory) for f in re.findall(r'flag\.\w+\("([\w-]+)"', text)}


def struct_fields(struct):
    """The fields of every struct named struct under internal/; a struct that
    is gone contributes none."""
    fields = set()
    for text in go_sources("internal"):
        for body in re.findall(r"^type %s struct \{(.*?)\n\}" % struct, text, re.S | re.M):
            fields |= set(re.findall(r"^\t(\w+)\b", body, re.M))
    return fields


def benchmark_sources():
    for dirpath, _, files in os.walk(run.HERE):
        for name in files:
            if name.endswith((".py", ".md", ".txt")):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    yield name, f.read()


class KnobFree(unittest.TestCase):
    """The benchmark runs the commands at their defaults: it must keep
    running after any acceleration layer and its switch are deleted."""

    def test_commands_pass_only_allowed_flags(self):
        used = {"repo", "metrics-out"}  # added by command_args and traced_run
        for w in run.WORKLOADS.values():
            used |= {a[1:] for a in w.args + w.probe if a.startswith("-")}
        self.assertLessEqual(used, ALLOWED_FLAGS)

    def test_sources_name_no_acceleration_flag_or_option_field(self):
        flags = cli_flags("cmd/fuzz-campaign") | cli_flags("cmd/bench-throughput")
        forbidden_flags = flags - ALLOWED_FLAGS
        fields = struct_fields("Options") | struct_fields("BugConfig")
        self.assertTrue(forbidden_flags and fields)
        for name, text in benchmark_sources():
            for f in forbidden_flags:
                self.assertIsNone(re.search(r"(?<![\w-])-%s(?![\w-])" % re.escape(f), text),
                                  "%s names the flag -%s" % (name, f))
            for f in fields:
                self.assertIsNone(re.search(r"\.%s\b|\b%s\s*:" % (f, f), text),
                                  "%s names the option field %s" % (name, f))


    def test_struct_that_is_gone_contributes_no_fields(self):
        self.assertEqual(struct_fields("NoSuchStruct"), set())


class Parsing(unittest.TestCase):
    def test_percentile_interpolates_inside_bucket(self):
        b = [0] * (len(BOUNDS_NS) + 1)
        b[1], b[2] = 50, 50  # (1us, 2us] and (2us, 4us]
        snap = {"histograms": {"stage.tv": dict(hist(100, 0, b), min_ns=1500, max_ns=3900)}}
        self.assertAlmostEqual(run.percentile_ms(snap, "stage.tv", 0.5), 0.002)
        self.assertAlmostEqual(run.percentile_ms(snap, "stage.tv", 0.99), (2000 + 1900 * 49 / 50) / 1e6)

    def test_parse_res(self):
        res = run.parse_res(
            "Total: 2\n"
            "Alive-mutate lst:[(0.5, 'test0.ll'), (1.5e-01, 'test1.ll')]\n"
            "Discrete tools lst:[(1, 'test0.ll'), (0.3, 'test1.ll')]\n"
            "Total not-verified:0\nNot-verified files:[]\n"
            "Total invalid file:0\nInvalid files:[]\n")
        self.assertEqual(res["integrated"], {"test0.ll": 0.5, "test1.ll": 0.15})
        self.assertEqual(res["discrete"], {"test0.ll": 1.0, "test1.ll": 0.3})
        self.assertEqual((res["Total"], res["Total not-verified"], res["Total invalid file"]), (2, 0, 0))

    def test_throughput_metrics_use_per_file_medians(self):
        reps = [{"integrated": {"a": 1.0, "b": 2.0}, "discrete": {"a": 2.0, "b": 1.0}},
                {"integrated": {"a": 3.0, "b": 2.0}, "discrete": {"a": 4.0, "b": 3.0}}]
        m = run.throughput_metrics(run.WORKLOADS["throughput"], reps)
        self.assertAlmostEqual(m["mutants_per_s"], 200 / 4.0)  # medians a=2, b=2
        self.assertAlmostEqual(m["speedup_min"], 1.0)  # b: 2 / 2
        self.assertAlmostEqual(m["speedup_geomean"], (1.5 * 1.0) ** 0.5)  # a: 3 / 2

    def test_campaign_table_drops_progress_lines(self):
        out = " 55129 found after 335 mutants (0.7s)\n     0 NOT FOUND (8.2s)\n\nLLVM BUGS\nTotals: 1/2\n"
        self.assertEqual(run.campaign_table(out), "LLVM BUGS\nTotals: 1/2\n")


class BenchmarkJSON(unittest.TestCase):
    def test_metrics_and_workloads_match_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            b = json.load(f)
        self.assertEqual([w["name"] for w in b["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in b["end_to_end"]}, run.END_TO_END)
        for w in run.WORKLOADS.values():
            self.assertLessEqual(set(run.NOT_MEASURED[w.tool]), set(run.END_TO_END))
        layers = {n: u for n, u, _, _ in run.LAYERS}
        layers[run.TRACING_OVERHEAD[0]] = run.TRACING_OVERHEAD[1]
        self.assertEqual({m["name"]: m["unit"] for m in b["per_layer"]}, layers)


if __name__ == "__main__":
    unittest.main()

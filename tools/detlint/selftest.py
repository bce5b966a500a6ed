#!/usr/bin/env python3
"""Self-test for detlint (tools/detlint/detlint.py).

Each rule has a known-bad fixture and a clean twin in
tools/detlint/fixtures/. The bad fixtures mark every seeded violation
with a ``// BAD`` comment; the golden expectation is derived from
those markers, so fixture and expectation cannot drift apart. The
fixtures are copied into a temporary tree at paths inside each rule's
scope (detlint scoping is path-based), then scanned with the text
backend — the one that must work everywhere, including containers
without clang. When libclang is importable the bad fixtures are
additionally cross-checked against the AST backend.

Run directly (``python3 tools/detlint/selftest.py``) or via ctest
(``detlint_selftest``).
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import detlint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

#: fixture file -> (destination inside the temp tree, rule the BAD
#: markers assert). Destinations sit inside the rule's path scope.
PLACEMENTS = {
    "det001_bad.cc": ("src/sim/det001_bad.cc", "DET-001"),
    "det001_clean.cc": ("src/sim/det001_clean.cc", "DET-001"),
    "det002_bad.cc": ("src/harness/det002_bad.cc", "DET-002"),
    "det002_clean.cc": ("src/harness/det002_clean.cc", "DET-002"),
    "det003_bad.cc": ("src/stats/det003_bad.cc", "DET-003"),
    "det003_clean.cc": ("src/stats/det003_clean.cc", "DET-003"),
    "det004_bad.hh": ("src/workload/det004_bad.hh", "DET-004"),
    "det004_clean.hh": ("src/workload/det004_clean.hh", "DET-004"),
    "conc001_bad.hh": ("src/sim/conc001_bad.hh", "CONC-001"),
    "conc001_clean.hh": ("src/sim/conc001_clean.hh", "CONC-001"),
    "ff001_bad.hh": ("src/soe/ff001_bad.hh", "FF-001"),
    "ff001_clean.hh": ("src/soe/ff001_clean.hh", "FF-001"),
    "ff002_bad.cc": ("src/cpu/ff002_bad.cc", "FF-002"),
    "ff002_clean.cc": ("src/cpu/ff002_clean.cc", "FF-002"),
    "err001_bad.cc": ("src/core/err001_bad.cc", "ERR-001"),
    "err001_clean.cc": ("src/core/err001_clean.cc", "ERR-001"),
    "stat001_bad.cc": ("src/stats/stat001_bad.cc", "STAT-001"),
    "stat001_clean.cc": ("src/stats/stat001_clean.cc", "STAT-001"),
    "stat002_bad.cc": ("src/stats/stat002_bad.cc", "STAT-002"),
    "stat002_clean.cc": ("src/stats/stat002_clean.cc", "STAT-002"),
    "rawstring_bad.cc": ("src/sim/rawstring_bad.cc", "ERR-001"),
    "rawstring_clean.cc": ("src/sim/rawstring_clean.cc", "ERR-001"),
}


def fixture_text(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
        return f.read()


def golden_lines(name):
    """Line numbers of every '// BAD' marker in a fixture."""
    return [lineno
            for lineno, line in enumerate(
                fixture_text(name).splitlines(), start=1)
            if "// BAD" in line]


class TreeFixture(unittest.TestCase):
    """Copies fixtures into a scoped temp tree once per class."""

    @classmethod
    def setUpClass(cls):
        cls.root = tempfile.mkdtemp(prefix="detlint_selftest_")
        for src, (dest, _rule) in PLACEMENTS.items():
            full = os.path.join(cls.root, dest)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            shutil.copyfile(os.path.join(FIXTURES, src), full)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.root, ignore_errors=True)

    def scan(self, relpath, backend="text"):
        return detlint.check_file(self.root, relpath, backend, None)


class BadFixturesFire(TreeFixture):
    """Every seeded violation produces exactly one finding of the
    fixture's rule, at the marked line, and nothing else."""

    def assert_golden(self, fixture, backend="text"):
        dest, rule = PLACEMENTS[fixture]
        findings = self.scan(dest, backend=backend)
        got = sorted((f.rule, f.line) for f in findings)
        want = sorted((rule, ln) for ln in golden_lines(fixture))
        self.assertEqual(
            got, want,
            f"{fixture} [{backend}]: findings do not match the "
            f"// BAD markers")

    def test_det001(self):
        self.assert_golden("det001_bad.cc")

    def test_det002(self):
        self.assert_golden("det002_bad.cc")

    def test_det003(self):
        self.assert_golden("det003_bad.cc")

    def test_det004(self):
        self.assert_golden("det004_bad.hh")

    def test_conc001(self):
        self.assert_golden("conc001_bad.hh")

    def test_ff001(self):
        self.assert_golden("ff001_bad.hh")

    def test_ff002(self):
        self.assert_golden("ff002_bad.cc")

    def test_err001(self):
        self.assert_golden("err001_bad.cc")

    def test_stat001(self):
        self.assert_golden("stat001_bad.cc")

    def test_stat002(self):
        self.assert_golden("stat002_bad.cc")

    def test_rawstring(self):
        # Raw string literals full of violation-looking text are
        # ignored; the real exit() after them is found at the
        # marked line.
        self.assert_golden("rawstring_bad.cc")

    def test_bad_fixtures_have_markers(self):
        # A fixture with zero markers would make the tests above
        # vacuously assert "no findings" — guard against that.
        for fixture, (_dest, _rule) in PLACEMENTS.items():
            if "_bad." in fixture:
                self.assertGreaterEqual(
                    len(golden_lines(fixture)), 1,
                    f"{fixture}: expected at least 1 BAD marker")


class CleanTwinsStaySilent(TreeFixture):
    def test_clean_twins(self):
        for fixture, (dest, _rule) in PLACEMENTS.items():
            if "_clean." not in fixture:
                continue
            findings = self.scan(dest)
            self.assertEqual(
                [], [f.format() for f in findings],
                f"{fixture}: clean twin must produce no findings")


class ScopingAndSuppression(TreeFixture):
    def test_det002_whitelisted_accessor(self):
        # The same getenv-calling code is legal at the single
        # whitelisted path.
        dest = detlint.DET002_WHITELIST[0]
        full = os.path.join(self.root, dest)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        shutil.copyfile(
            os.path.join(FIXTURES, "det002_bad.cc"), full)
        self.assertEqual([], self.scan(dest))

    def test_det003_out_of_scope(self):
        # Unordered containers are only flagged in stats-feeding
        # code; the same file under src/cpu/ is out of scope.
        dest = "src/cpu/det003_elsewhere.cc"
        full = os.path.join(self.root, dest)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        shutil.copyfile(
            os.path.join(FIXTURES, "det003_bad.cc"), full)
        self.assertEqual([], self.scan(dest))

    def test_skip_file_directive(self):
        dest = "src/sim/det001_skipped.cc"
        full = os.path.join(self.root, dest)
        with open(full, "w", encoding="utf-8") as f:
            f.write("// detlint: skip-file\n"
                    + fixture_text("det001_bad.cc"))
        self.assertEqual([], self.scan(dest))

    def test_line_allow_directive(self):
        dest = "src/sim/det001_allowed.cc"
        full = os.path.join(self.root, dest)
        with open(full, "w", encoding="utf-8") as f:
            f.write("unsigned long s()\n"
                    "{\n"
                    "    return time(nullptr); // NOLINT(DET-001)\n"
                    "}\n")
        self.assertEqual([], self.scan(dest))

    def test_conc001_requires_optin(self):
        # The same partially-annotated class without the opt-in
        # directive: CONC-001 stays quiet (DET-004 still applies but
        # the fixture's members are initialized).
        text = fixture_text("conc001_bad.hh").replace(
            "// detlint: conc-optin", "//")
        dest = "src/sim/conc001_not_opted.hh"
        with open(os.path.join(self.root, dest), "w",
                  encoding="utf-8") as f:
            f.write(text)
        self.assertEqual([], self.scan(dest))


def line_containing(text, needle):
    """1-based line number of the first line containing needle."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"no line contains {needle!r}")


#: fixture -> canonical destination for the cross-file (tree) rules.
#: ERR-002/ERR-003 anchor on these exact paths.
TREE_CLEAN = {
    "tree/errors_clean.hh": "src/sim/errors.hh",
    "tree/errors_clean.cc": "src/sim/errors.cc",
    "tree/cli_verbs_clean.cc": "src/harness/cli_verbs.cc",
    "tree/cli_main_clean.cc": "tools/soefair_cli.cc",
}
TREE_BAD = {
    "tree/errors_bad.hh": "src/sim/errors.hh",
    "tree/errors_clean.cc": "src/sim/errors.cc",
    "tree/raise_bad.cc": "src/harness/raise_bad.cc",
    "tree/cli_verbs_bad.cc": "src/harness/cli_verbs.cc",
    "tree/cli_main_bad.cc": "tools/soefair_cli.cc",
}


class TreeRules(unittest.TestCase):
    """ERR-002 / ERR-003: cross-file rules over miniature trees with
    the anchor files at their canonical paths."""

    def scan(self, mapping, edits=None):
        root = tempfile.mkdtemp(prefix="detlint_tree_")
        self.addCleanup(shutil.rmtree, root, ignore_errors=True)
        for src, dest in mapping.items():
            text = fixture_text(src)
            if edits and dest in edits:
                text = edits[dest](text)
            full = os.path.join(root, dest)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(text)
        findings, _records = detlint.scan_tree(
            root, sorted(mapping.values()), "text", None)
        return findings

    def test_clean_tree_is_silent(self):
        self.assertEqual(
            [], [f.format() for f in self.scan(TREE_CLEAN)])

    def test_bad_tree_fires_exactly_the_seeded_findings(self):
        hh = fixture_text("tree/errors_bad.hh")
        orphan = line_containing(hh, "class OrphanError")
        codeless = line_containing(hh, "class CodelessError")
        raise_line = line_containing(
            fixture_text("tree/raise_bad.cc"), "MythicalError")
        verbs = fixture_text("tree/cli_verbs_bad.cc")
        drain = line_containing(verbs, '"drain"')
        ghost = line_containing(verbs, '"ghost"')
        orphan_dispatch = line_containing(
            fixture_text("tree/cli_main_bad.cc"), 'cmd == "orphan"')
        want = sorted([
            # OrphanError: missing exitCode() AND kind-name mapping.
            ("src/sim/errors.hh", orphan, "ERR-002"),
            ("src/sim/errors.hh", orphan, "ERR-002"),
            ("src/sim/errors.hh", codeless, "ERR-002"),
            ("src/harness/raise_bad.cc", raise_line, "ERR-002"),
            ("src/harness/cli_verbs.cc", drain, "ERR-003"),
            ("src/harness/cli_verbs.cc", ghost, "ERR-003"),
            ("tools/soefair_cli.cc", orphan_dispatch, "ERR-003"),
        ])
        got = sorted(
            (f.path, f.line, f.rule) for f in self.scan(TREE_BAD))
        self.assertEqual(want, got)

    def test_deleting_a_doc_entry_fires_err003(self):
        # The acceptance demo: drop one verb's documented exit code
        # from the otherwise-clean registry and the cross-check
        # notices the now-undocumented reachable code.
        edits = {"src/harness/cli_verbs.cc":
                 lambda t: t.replace(
                     "; 22 admission control rejected", "")}
        findings = self.scan(TREE_CLEAN, edits)
        self.assertEqual(
            ["ERR-003"], [f.rule for f in findings])
        self.assertIn("exit with code 22", findings[0].message)
        self.assertIn("drain", findings[0].message)

    def test_deleting_a_kind_mapping_fires_err002(self):
        edits = {"src/sim/errors.cc":
                 lambda t: t.replace("case QuotaError::code:", "")}
        findings = self.scan(TREE_CLEAN, edits)
        self.assertEqual(["ERR-002"], [f.rule for f in findings])
        self.assertIn("QuotaError", findings[0].message)

    def test_deleting_a_credit_line_fires_ff002(self):
        # The fast-forward acceptance demo: remove one stall
        # counter's bulk-credit line from the clean fixture and
        # FF-002 fires at the counter's tick-path increment.
        root = tempfile.mkdtemp(prefix="detlint_ff002_")
        self.addCleanup(shutil.rmtree, root, ignore_errors=True)
        text = fixture_text("ff002_clean.cc")
        broken = "\n".join(
            line for line in text.splitlines()
            if "fullStallCycles += skipped;" not in line) + "\n"
        self.assertNotEqual(text, broken)
        dest = "src/cpu/ff002_widget.cc"
        full = os.path.join(root, dest)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(broken)
        findings = detlint.check_file(root, dest, "text", None)
        self.assertEqual(["FF-002"], [f.rule for f in findings])
        self.assertEqual(
            line_containing(broken, "fullStallCycles += 1;"),
            findings[0].line)


class CrlfRegression(unittest.TestCase):
    """CRLF line endings must not change what fires or where."""

    CASES = ("ff002_bad.cc", "err001_bad.cc", "det004_bad.hh",
             "rawstring_bad.cc")

    def test_crlf_findings_identical(self):
        for fixture in self.CASES:
            dest, rule = PLACEMENTS[fixture]
            root = tempfile.mkdtemp(prefix="detlint_crlf_")
            self.addCleanup(shutil.rmtree, root, ignore_errors=True)
            full = os.path.join(root, dest)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            crlf = fixture_text(fixture).replace("\n", "\r\n")
            with open(full, "w", encoding="utf-8", newline="") as f:
                f.write(crlf)
            findings = detlint.check_file(root, dest, "text", None)
            got = sorted((f.rule, f.line) for f in findings)
            want = sorted((rule, ln) for ln in golden_lines(fixture))
            self.assertEqual(
                want, got,
                f"{fixture}: CRLF version diverged from LF version")


class AutofixMode(unittest.TestCase):
    """--fix rewrites DET-004 initializers, leaves every other finding
    to a human, is idempotent, and preserves line endings."""

    SRC = ("#include \"sim/annotations.hh\"\n"
           "\n"
           "namespace soefair\n"
           "{\n"
           "\n"
           "struct Sample\n"
           "{\n"
           "    int count;\n"
           "    double mean;\n"
           "    bool valid;\n"
           "    void *cookie;\n"
           "};\n"
           "\n"
           "} // namespace soefair\n")

    CONC_SRC = ("// detlint: conc-optin\n"
                "#include \"sim/annotations.hh\"\n"
                "\n"
                "struct Shared\n"
                "{\n"
                "    int unguarded = 0;\n"
                "};\n")

    def make_tree(self, text, dest="src/mem/fix_me.hh"):
        root = tempfile.mkdtemp(prefix="detlint_fix_")
        self.addCleanup(shutil.rmtree, root, ignore_errors=True)
        full = os.path.join(root, dest)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        return root, dest, full

    def test_fix_initializers(self):
        root, dest, full = self.make_tree(self.SRC)
        before = detlint.check_file(root, dest, "text", None)
        self.assertEqual({"DET-004"}, {f.rule for f in before})
        fixed, unfixable = detlint.apply_fixes(root, before)
        self.assertEqual(4, fixed)
        self.assertEqual(0, unfixable)
        with open(full, encoding="utf-8") as f:
            text = f.read()
        self.assertIn("int count = 0;", text)
        self.assertIn("double mean = 0.0;", text)
        self.assertIn("bool valid = false;", text)
        self.assertIn("void *cookie = nullptr;", text)
        self.assertEqual(
            [], detlint.check_file(root, dest, "text", None))

    def test_fix_leaves_conc001_reported(self):
        # Which capability guards a member is a human's call: --fix
        # must not write a placeholder tag that silences CONC-001.
        root, dest, full = self.make_tree(self.CONC_SRC,
                                          dest="src/sim/shared.hh")
        before = detlint.check_file(root, dest, "text", None)
        self.assertEqual(["CONC-001"], [f.rule for f in before])
        self.assertEqual((0, 1), detlint.apply_fixes(root, before))
        with open(full, encoding="utf-8", newline="") as f:
            self.assertEqual(self.CONC_SRC, f.read())
        # End to end: the scan still fails after `--fix`.
        gate = ["--root", root, "--backend", "text"]
        self.assertEqual(0, detlint.main(gate + ["--fix"]))
        self.assertEqual(1, detlint.main(gate))

    def test_fix_is_idempotent(self):
        root, dest, full = self.make_tree(self.SRC)
        detlint.apply_fixes(
            root, detlint.check_file(root, dest, "text", None))
        with open(full, encoding="utf-8", newline="") as f:
            once = f.read()
        fixed, unfixable = detlint.apply_fixes(
            root, detlint.check_file(root, dest, "text", None))
        self.assertEqual(0, fixed)
        with open(full, encoding="utf-8", newline="") as f:
            twice = f.read()
        self.assertEqual(once, twice,
                         "--fix applied twice must be a no-op")

    def test_fix_preserves_crlf(self):
        crlf = self.SRC.replace("\n", "\r\n")
        root, dest, full = self.make_tree(crlf)
        detlint.apply_fixes(
            root, detlint.check_file(root, dest, "text", None))
        with open(full, encoding="utf-8", newline="") as f:
            text = f.read()
        self.assertNotIn("\n", text.replace("\r\n", ""),
                         "fix introduced a bare LF into a CRLF file")
        self.assertIn("int count = 0;\r\n", text)


class ReportArtifacts(unittest.TestCase):
    """--json and the $GITHUB_STEP_SUMMARY drift diff, end-to-end
    through main()."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="detlint_report_")
        self.addCleanup(shutil.rmtree, self.root,
                        ignore_errors=True)
        dest = os.path.join(self.root, "src", "core")
        os.makedirs(dest)
        shutil.copyfile(os.path.join(FIXTURES, "err001_bad.cc"),
                        os.path.join(dest, "err001_bad.cc"))
        self.baseline = os.path.join(self.root, "baseline.txt")

    def run_main(self, *extra):
        return detlint.main(["--root", self.root, "--backend",
                             "text", "--baseline", self.baseline,
                             *extra])

    def test_json_report(self):
        import json
        path = os.path.join(self.root, "detlint.json")
        self.assertEqual(1, self.run_main("--json", path))
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
        self.assertEqual("detlint", report["tool"])
        self.assertEqual("text", report["backend"])
        self.assertIn("ERR-001", report["rules"])
        self.assertEqual(len(golden_lines("err001_bad.cc")),
                         report["counts"]["total"])
        self.assertEqual(report["counts"]["total"],
                         report["counts"]["new"])
        for finding in report["findings"]:
            self.assertEqual("ERR-001", finding["rule"])
            self.assertEqual("src/core/err001_bad.cc",
                             finding["path"])

    def test_step_summary_diff(self):
        summary = os.path.join(self.root, "summary.md")
        old = os.environ.get("GITHUB_STEP_SUMMARY")
        os.environ["GITHUB_STEP_SUMMARY"] = summary
        try:
            self.assertEqual(1, self.run_main())
        finally:
            if old is None:
                del os.environ["GITHUB_STEP_SUMMARY"]
            else:
                os.environ["GITHUB_STEP_SUMMARY"] = old
        with open(summary, encoding="utf-8") as f:
            text = f.read()
        self.assertIn("detlint baseline drift", text)
        self.assertIn("new finding(s)", text)
        self.assertIn("+ src/core/err001_bad.cc", text)

class BaselineGate(unittest.TestCase):
    """End-to-end through main(): new findings fail, baselined
    findings pass, stale baseline entries are reported but pass."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="detlint_gate_")
        dest = os.path.join(self.root, "src", "harness")
        os.makedirs(dest)
        shutil.copyfile(os.path.join(FIXTURES, "det002_bad.cc"),
                        os.path.join(dest, "det002_bad.cc"))
        self.baseline = os.path.join(self.root, "baseline.txt")

    def tearDown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def run_main(self, *extra):
        return detlint.main(["--root", self.root, "--backend", "text",
                             "--baseline", self.baseline, *extra])

    def test_new_findings_fail(self):
        self.assertEqual(1, self.run_main())

    def test_baselined_findings_pass(self):
        self.assertEqual(0, self.run_main("--update-baseline"))
        self.assertEqual(0, self.run_main())

    def test_stale_baseline_entries_still_pass(self):
        self.assertEqual(0, self.run_main("--update-baseline"))
        with open(self.baseline, "a", encoding="utf-8") as f:
            f.write("src/harness/gone.cc:1: DET-002: stale entry\n")
        self.assertEqual(0, self.run_main())

    def test_fixing_a_finding_keeps_passing(self):
        self.assertEqual(0, self.run_main("--update-baseline"))
        # "Fix" the file: drop the second getenv call.
        path = os.path.join(self.root, "src", "harness",
                            "det002_bad.cc")
        with open(path, encoding="utf-8") as f:
            text = f.read()
        text = text.replace('v = getenv("SOEFAIR_FALLBACK");',
                            'v = "";')
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        self.assertEqual(0, self.run_main())


@unittest.skipUnless(detlint.libclang_available(),
                     "libclang python bindings not importable")
class LibclangCrossCheck(TreeFixture):
    """Best-effort AST backend must agree on the seeded call-site
    rules (DET-001/002/003 are token-identical across backends)."""

    def test_det001(self):
        BadFixturesFire.assert_golden(
            self, "det001_bad.cc", backend="libclang")

    def test_det002(self):
        BadFixturesFire.assert_golden(
            self, "det002_bad.cc", backend="libclang")


if __name__ == "__main__":
    unittest.main(verbosity=2)

#!/usr/bin/env python3
"""Self-test for tools/simlint.py (the v4 shard-escape & contract engine).

Covers:
  * every known-bad fixture trips *exactly* its expected rule(s), including
    the v4 set: HIB022 shard-escape (direct and field-sensitive), HIB023
    callback-lifetime (by-ref capture, early release, release-via-helper),
    HIB024 contract propagation, HIB025 layering;
  * the clean fixtures produce nothing — each v4 rule has a clean twin
    exercising the sanctioned shapes next to the violation, and
    tokenizer_torture.h packs raw strings containing `//`, multi-line block
    comments, `#if 0` regions, digit separators, and UTF-8 literals;
  * the v4 witness chains are root-first (shard entry point / caller def
    first, contract declaration or escape site last);
  * HIB018 subsumes a same-line HIB017: one allocation, one finding;
  * the interproc fixture directory trips HIB018/HIB019/HIB020 with the exact
    cross-file witness chains (call path / taint path) in the text output;
  * the advertised rule set and the fixture set stay in sync;
  * suppression semantics: NOLINT silences the rule, a stale NOLINT is HIB099,
    clang-tidy NOLINTs are ignored;
  * SARIF output is structurally sound and interproc findings carry codeFlows;
  * --fix repairs HIB001 guards and HIB009 conversions and is idempotent.

Run from anywhere; registered in ctest as `simlint_selftest`.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SIMLINT = os.path.join(HERE, "simlint.py")
FIXTURES = os.path.join(HERE, "simlint_fixtures")

# fixture -> exact ordered list of expected rules (most have exactly one).
EXPECTED = {
    "bad_guard.h": ["HIB001"],
    "bad_iostream.h": ["HIB002"],
    "bad_raw_io.cc": ["HIB003"],
    "bad_units.h": ["HIB004"],
    "bad_assert.cc": ["HIB005"],
    "bad_static_mutable.cc": ["HIB006"],
    "bad_raw_unit_fn.cc": ["HIB007"],
    "bad_value_escape.cc": ["HIB008"],
    "bad_hand_conversion.cc": ["HIB009"],
    "bad_raw_output.cc": ["HIB010"],
    "bad_unordered_iter.cc": ["HIB011"],
    "bad_pointer_key.cc": ["HIB012"],
    "bad_wall_clock.cc": ["HIB013"],
    "bad_float_accum.cc": ["HIB014"],
    "bad_uninit_member.cc": ["HIB015"],
    "bad_catch.cc": ["HIB016"],
    "bad_hot_alloc.cc": ["HIB017", "HIB017"],
    "bad_handle_reuse.cc": ["HIB021"],
    "bad_shard_escape.cc": ["HIB022", "HIB022"],
    "bad_callback_lifetime.cc": ["HIB023", "HIB023", "HIB023"],
    "bad_contract.cc": ["HIB024", "HIB024"],
    "bad_raw_deser.cc": ["HIB026", "HIB026"],
    "layering/disk/bad_layering.cc": ["HIB025"],
    # One hot-path allocation, one finding: the HIB018 witness chain
    # subsumes the syntactic HIB017 on the same line.
    "dedupe_subsumed.cc": ["HIB018"],
    "unused_suppression.cc": ["HIB099"],
    "fixable_hand_conversion.cc": ["HIB009"],
}
CLEAN = ["clean.h", "tokenizer_torture.h", "clean_shard_escape.cc",
         "clean_callback_lifetime.cc", "clean_contract.cc",
         "clean_raw_deser.cc", "layering/disk/clean_layering.cc"]

# Per-file v4 witness chains: (fixture, line) -> ordered note substrings.
V4_CHAINS = {
    ("bad_shard_escape.cc", 16): [
        "shard entry point 'RunExperiment' defined here",
        "'RunExperiment' calls 'Registry::Track' here",
        "address of shard-owned 's' stored into member 'Registry::sim_'",
        "static 'g_registry' keeps a 'Registry' alive across shard runs",
    ],
    ("bad_callback_lifetime.cc", 39): [
        "callback capturing 'h' scheduled here",
        "'h' passed to 'Controller::Finish' here",
        "'Controller::Finish' releases its handle parameter here",
    ],
    ("bad_contract.cc", 19): [
        "caller 'Caller' defined here",
        "'Caller' calls 'Engine::Step' here without establishing the context",
        "'Engine::Step' declares HIB_THREAD_CONTEXT(kShardContext) here",
    ],
}

# The interproc fixtures only make sense scanned together: the roots
# (hot_submit.cc, shard_entry.cc) are clean in isolation and the helpers are
# only findings because the roots reach them.  (file, line, rule) in output
# order for a whole-directory scan.
INTERPROC_DIR = os.path.join(FIXTURES, "interproc")
INTERPROC_EXPECTED = [
    ("alloc_helper.cc", 12, "HIB018"),
    ("alloc_helper.cc", 13, "HIB018"),
    ("shard_static.cc", 13, "HIB019"),
    ("taint_helper.cc", 9, "HIB013"),
    ("taint_sink.cc", 20, "HIB020"),
    ("taint_sink.cc", 21, "HIB020"),
]

# finding line -> exact ordered witness-chain note substrings.
INTERPROC_CHAINS = {
    ("alloc_helper.cc", 13): [
        "hot_submit.cc:12: dispatch root 'ArrayController::Submit' defined here",
        "hot_submit.cc:14: 'ArrayController::Submit' calls 'Planner::PlanTargets' here",
        "alloc_helper.cc:13: allocation here",
    ],
    ("shard_static.cc", 13): [
        "shard_entry.cc:10: shard entry point 'RunExperiment' defined here",
        "shard_entry.cc:13: 'RunExperiment' calls 'CounterSink::Count' here",
        "shard_static.cc:13: static 'g_hits'",
    ],
    ("taint_sink.cc", 20): [
        "taint_helper.cc:9: nondeterministic source 'time()' read here",
        "taint_sink.cc:19: 't' derives from tainted call 'NowTicks(...)' here",
        "taint_sink.cc:20: sink here",
    ],
}

FINDING_RE = re.compile(r"^(\S+):(\d+): \[(HIB\d+)\] ")
NOTE_RE = re.compile(r"^    note: (.*)$")


def run_simlint(*argv, raw=False):
    proc = subprocess.run([sys.executable, SIMLINT, *argv],
                          capture_output=True, text=True)
    findings = [FINDING_RE.match(line) for line in proc.stdout.splitlines()]
    rules = [m.group(3) for m in findings if m]
    if raw:
        return proc.returncode, rules, proc.stdout
    return proc.returncode, rules


def check_fixtures(failures):
    for name, want in sorted(EXPECTED.items()):
        code, rules = run_simlint(os.path.join(FIXTURES, name))
        if code == 0:
            failures.append(f"{name}: expected nonzero exit, got 0")
        if rules != want:
            failures.append(f"{name}: expected exactly {want}, got {rules}")
    for name in CLEAN:
        code, rules = run_simlint(os.path.join(FIXTURES, name))
        if code != 0 or rules:
            failures.append(f"{name}: expected clean exit, got code={code} rules={rules}")


def check_interproc(failures):
    # One whole-directory scan: the cross-TU rules need all six files modelled
    # together before reachability exists at all.
    code, _, stdout = run_simlint(INTERPROC_DIR, raw=True)
    if code == 0:
        failures.append("interproc: expected nonzero exit for the fixture dir")

    lines = stdout.splitlines()
    got = []
    notes = {}  # (file, line) of finding -> list of note texts
    current = None
    for line in lines:
        m = FINDING_RE.match(line)
        if m:
            current = (os.path.basename(m.group(1)), int(m.group(2)))
            got.append((current[0], current[1], m.group(3)))
            notes.setdefault(current, [])
            continue
        n = NOTE_RE.match(line)
        if n and current is not None:
            notes[current].append(n.group(1))
        elif current is not None and line.strip():
            current = None
    if got != INTERPROC_EXPECTED:
        failures.append(f"interproc: expected {INTERPROC_EXPECTED}, got {got}")
        return

    # Witness chains must spell out the whole path, root first.  The HIB018
    # chain in particular is the acceptance case HIB017 cannot see: the root
    # lives in hot_submit.cc, the allocation in alloc_helper.cc.
    for key, want in INTERPROC_CHAINS.items():
        have = notes.get(key, [])
        if len(have) != len(want):
            failures.append(f"interproc {key}: expected {len(want)} witness "
                            f"steps, got {len(have)}: {have}")
            continue
        for step, (w, h) in enumerate(zip(want, have)):
            if w not in h:
                failures.append(f"interproc {key} step {step}: "
                                f"expected {w!r} in {h!r}")

    # Scanned alone, the helper files are exactly as invisible as they are to
    # HIB017: per-file analysis of alloc_helper.cc must not produce HIB018.
    code, rules = run_simlint(os.path.join(INTERPROC_DIR, "alloc_helper.cc"))
    if "HIB018" in rules:
        failures.append("interproc: HIB018 fired without the hot-path root "
                        f"in scope (per-file rules: {rules})")


def check_v4_chains(failures):
    # The v4 rules carry root-first witness chains even in per-file scans
    # (the roots and the violations live in one fixture file).
    for (name, want_line), want in sorted(V4_CHAINS.items()):
        _code, _rules, stdout = run_simlint(os.path.join(FIXTURES, name),
                                            raw=True)
        notes = []
        collecting = False
        for line in stdout.splitlines():
            m = FINDING_RE.match(line)
            if m:
                collecting = int(m.group(2)) == want_line
                continue
            n = NOTE_RE.match(line)
            if n and collecting:
                notes.append(n.group(1))
            elif line.strip():
                collecting = False
        if len(notes) != len(want):
            failures.append(f"v4 chain {name}:{want_line}: expected "
                            f"{len(want)} witness steps, got {len(notes)}: "
                            f"{notes}")
            continue
        for step, (w, h) in enumerate(zip(want, notes)):
            if w not in h:
                failures.append(f"v4 chain {name}:{want_line} step {step}: "
                                f"expected {w!r} in {h!r}")


def check_rule_sync(failures):
    # Every advertised rule must have a fixture proving it still fires.
    listing = subprocess.run([sys.executable, SIMLINT, "--list-rules"],
                             capture_output=True, text=True).stdout
    advertised = set(re.findall(r"^(HIB\d+)", listing, flags=re.M))
    covered = set(r for rules in EXPECTED.values() for r in rules)
    covered |= set(rule for _, _, rule in INTERPROC_EXPECTED)
    if advertised != covered:
        failures.append(f"rules without fixtures: {sorted(advertised - covered)}; "
                        f"fixtures for unknown rules: {sorted(covered - advertised)}")


def check_suppressions(failures):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        # NOLINT on the finding line silences the rule.
        path = os.path.join(tmp, "suppressed.cc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('#include <cassert>\n'
                     'void F(bool ok) { assert(ok); }  // NOLINT(HIB005)\n')
        code, rules = run_simlint(path)
        if code != 0 or rules:
            failures.append(f"NOLINT(HIB005) not honoured: code={code} rules={rules}")

        # NOLINTNEXTLINE applies to the following line only.
        path = os.path.join(tmp, "nextline.cc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('#include <cassert>\n'
                     '// NOLINTNEXTLINE(HIB005)\n'
                     'void F(bool ok) { assert(ok); }\n')
        code, rules = run_simlint(path)
        if code != 0 or rules:
            failures.append(f"NOLINTNEXTLINE not honoured: code={code} rules={rules}")

        # A clang-tidy NOLINT is not ours: ignored, and never flagged HIB099.
        path = os.path.join(tmp, "tidy.cc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('struct S { S(int) {} };  '
                     '// NOLINT(google-explicit-constructor)\n')
        code, rules = run_simlint(path)
        if code != 0 or rules:
            failures.append(f"clang-tidy NOLINT misclaimed: code={code} rules={rules}")

        # NOLINT for the wrong rule: the finding survives AND the
        # suppression is reported stale.
        path = os.path.join(tmp, "wrongrule.cc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('#include <cassert>\n'
                     'void F(bool ok) { assert(ok); }  // NOLINT(HIB013)\n')
        code, rules = run_simlint(path)
        if sorted(rules) != ["HIB005", "HIB099"]:
            failures.append(f"wrong-rule NOLINT: expected [HIB005, HIB099], got {rules}")


def check_sarif(failures):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "out.sarif")
        subprocess.run([sys.executable, SIMLINT, "--sarif", out,
                        os.path.join(FIXTURES, "bad_assert.cc")],
                       capture_output=True, text=True)
        try:
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            failures.append(f"sarif: unreadable output: {err}")
            return
        try:
            if doc["version"] != "2.1.0":
                failures.append(f"sarif: version {doc['version']}")
            run = doc["runs"][0]
            driver = run["tool"]["driver"]
            if driver["name"] != "simlint":
                failures.append("sarif: wrong driver name")
            rule_ids = {r["id"] for r in driver["rules"]}
            results = run["results"]
            if not results:
                failures.append("sarif: no results for a known-bad fixture")
            for res in results:
                if res["ruleId"] not in rule_ids:
                    failures.append(f"sarif: result rule {res['ruleId']} not declared")
                loc = res["locations"][0]["physicalLocation"]
                if not loc["artifactLocation"]["uri"]:
                    failures.append("sarif: empty artifact uri")
                if loc["region"]["startLine"] < 1:
                    failures.append("sarif: non-positive startLine")
        except (KeyError, IndexError) as err:
            failures.append(f"sarif: missing structure: {err!r}")


def check_codeflows(failures):
    # Interproc findings must export their witness chains as SARIF codeFlows
    # so code scanning UIs can render the path.
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "out.sarif")
        subprocess.run([sys.executable, SIMLINT, "--sarif", out,
                        INTERPROC_DIR], capture_output=True, text=True)
        try:
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            failures.append(f"codeflows: unreadable sarif: {err}")
            return
        try:
            results = doc["runs"][0]["results"]
            flows = [r for r in results if r.get("codeFlows")]
            if not flows:
                failures.append("codeflows: no result carries codeFlows")
                return
            hib018 = [r for r in flows if r["ruleId"] == "HIB018"]
            if not hib018:
                failures.append("codeflows: no HIB018 result carries codeFlows")
                return
            locs = hib018[0]["codeFlows"][0]["threadFlows"][0]["locations"]
            if len(locs) < 2:
                failures.append(f"codeflows: chain too short ({len(locs)} steps)")
            uris = []
            for step in locs:
                loc = step["location"]
                phys = loc["physicalLocation"]
                uri = phys["artifactLocation"]["uri"]
                uris.append(uri)
                if phys["region"]["startLine"] < 1:
                    failures.append("codeflows: non-positive startLine in step")
                if not loc["message"]["text"]:
                    failures.append("codeflows: step without a message")
            # Root-first ordering across files: the chain starts at the hot
            # root and ends at the allocation.
            if not uris[0].endswith("hot_submit.cc"):
                failures.append(f"codeflows: chain starts at {uris[0]}, "
                                "expected hot_submit.cc")
            if not uris[-1].endswith("alloc_helper.cc"):
                failures.append(f"codeflows: chain ends at {uris[-1]}, "
                                "expected alloc_helper.cc")
        except (KeyError, IndexError) as err:
            failures.append(f"codeflows: missing structure: {err!r}")


def check_fix(failures):
    # --fix must repair the fixable fixtures inside the repo tree (the guard
    # check derives the expected macro from the repo-relative path) and must
    # be a no-op the second time.
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        guard = os.path.join(tmp, "bad_guard.h")
        conv = os.path.join(tmp, "fixable_hand_conversion.cc")
        shutil.copy(os.path.join(FIXTURES, "bad_guard.h"), guard)
        shutil.copy(os.path.join(FIXTURES, "fixable_hand_conversion.cc"), conv)

        code, rules = run_simlint("--fix", guard, conv)
        if code != 0 or rules:
            failures.append(f"--fix pass 1: expected clean after fixing, "
                            f"got code={code} rules={rules}")
        before = open(guard).read() + open(conv).read()
        code, rules = run_simlint("--fix", guard, conv)
        after = open(guard).read() + open(conv).read()
        if code != 0 or rules:
            failures.append(f"--fix pass 2: expected clean, got code={code} rules={rules}")
        if before != after:
            failures.append("--fix is not idempotent: second pass changed the files")
        if "ToSeconds(Ms(uptime_ms))" not in open(conv).read():
            failures.append("--fix did not rewrite the hand conversion through units.h")


def main():
    failures = []
    check_fixtures(failures)
    check_interproc(failures)
    check_v4_chains(failures)
    check_rule_sync(failures)
    check_suppressions(failures)
    check_sarif(failures)
    check_codeflows(failures)
    check_fix(failures)

    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print(f"ok: {len(EXPECTED)} bad fixtures tripped exactly their rules; "
          f"{len(INTERPROC_EXPECTED)} interproc findings with witness chains; "
          f"{len(CLEAN)} clean fixtures clean; suppressions, SARIF codeFlows "
          "and --fix behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())

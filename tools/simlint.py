#!/usr/bin/env python3
"""simlint v4: shard-escape & contract analysis for the Hibernator simulator.

The v1 engine matched regexes against raw lines; v2 tokenizes the C++
(comment-, string-, raw-string- and preprocessor-aware), builds a per-file
declaration model plus a cross-file symbol index, and runs the rules on
tokens and declarations.  That removes the classic regex false positives
(rules firing inside comments, strings, `#if 0` regions) and enables checks
that need to know what a name *is* (HIB011/HIB014 resolve the container type
behind an identifier before flagging iteration over it).

v3 adds a cross-TU **call graph** on top of the v2 models: every function
and method body (lambdas attributed to their enclosing function, so a
callback registered inside `F` contributes edges from `F`), call sites
resolved through the symbol index (receiver type -> class -> method), virtual
calls fanned out to every overrider via the recorded base-class lists, and
function-like `#define` macros treated as call-graph nodes so `HIB_LOG(...)`
reaches `LogMessage`.  Four interprocedural rules run on the graph
(HIB018-HIB021 below); their findings carry the full witness chain — the
call path or taint path from root to violation — rendered as indented
`note:` lines in text output and as SARIF `codeFlows`.

v4 teaches the engine the annotation vocabulary from
src/util/thread_annotations.h (HIB_SHARD_LOCAL, HIB_THREAD_CONTEXT(...),
HIB_GUARDED_BY(...), HIB_REQUIRES_LIVE(handle)) — the same spellings clang's
-Wthread-safety enforces when the build sets -DHIB_THREAD_SAFETY=ON, so the
contracts are checked twice: structurally here on every compiler, and by the
compiler itself under clang.  On top of the annotations and the v3 call
graph, v4 runs a field-sensitive escape analysis (HIB022), generalises the
callback-lifetime check across function boundaries (HIB023), propagates
declared contracts caller-by-caller with root-first witness chains (HIB024),
and pins the layering DAG the include graph must respect (HIB025).

Style / hygiene rules (ported from v1):

  HIB001 include-guard   Headers must use the guard derived from their path:
                         src/disk/disk.h -> HIBERNATOR_SRC_DISK_DISK_H_.
  HIB002 iostream-header No `#include <iostream>` in headers; only the
                         diagnostics sinks src/util/log.h and src/util/check.h
                         may pull it in.
  HIB003 raw-io          No std::cout / std::cerr / printf-family calls in
                         library or test code outside src/util/log.* and
                         src/util/table.* (and src/util/check.h).  CLI entry
                         points under bench/ and examples/ are exempt.
  HIB004 units-alias     No raw `double`/`float` declarations whose name says
                         they hold a unit (`*_ms`, `*_joules`, `*_watts`):
                         use the aliases from src/util/units.h.
  HIB005 bare-assert     No bare `assert()`: use HIB_CHECK / HIB_DCHECK.
  HIB006 static-mutable  No mutable static-duration variables in library code.
  HIB007 raw-unit-fn     Quantity-named functions must not take or return raw
                         `double`/`float`; use the units.h types.
  HIB008 value-escape    `.value()` is reserved for the I/O and statistics
                         boundaries (units/stats/table/log/trace/obs).
  HIB009 hand-conversion Unit-suffixed identifiers combined with bare
                         conversion literals (`* 1000`, `/ 3600.0`, ...) are
                         hand-rolled unit conversions; use units.h factories.
  HIB010 raw-output      The C output primitives HIB003 misses (fputs, fputc,
                         putchar, putc, fwrite, perror).

Determinism-hazard rules (new in v2 — they guard the bit-identical-parallel
contract the sharded fleet simulator depends on; library code only):

  HIB011 unordered-iter  Iterating a std::unordered_map/unordered_set
                         (range-for or .begin()/.cbegin()) in library code:
                         iteration order depends on hashing/insertion history,
                         so downstream state diverges between runs.  Membership
                         lookups (find/count/contains/operator[]) are fine.
  HIB012 pointer-key     Pointer keys in *ordered* associative containers
                         (std::map<const T*, ...>, std::set<T*>): the order is
                         the allocation order of the heap, different every run.
  HIB013 wall-clock      Ambient time or randomness in library code: time(),
                         clock(), std::chrono::{system,steady,high_resolution}
                         _clock, std::random_device, rand()/srand().  All
                         simulator time is SimTime; all randomness flows from
                         the seeded SplitMix/Xoshiro PRNGs in src/util/random.h.
  HIB014 float-accum     `+=` into a floating/Quantity accumulator inside a
                         loop over an unordered container: float addition is
                         not associative, so a nondeterministic visit order
                         changes the sum bit-for-bit.  Iterate a sorted
                         container or merge in spec order (harness/parallel).
  HIB015 uninit-member   Scalar member (int/double/bool/pointer/alias of one)
                         without a default member initializer in a class with
                         no real user-provided constructor: the value is
                         whatever the allocator left there — the classic
                         run-to-run divergence seed.
  HIB016 exception-sink  `catch` of an exception by value (slices, copies at
                         an unpredictable point) or a catch with an empty
                         body (swallows the error, sim continues on corrupt
                         state).  Catch by reference and handle or rethrow.
  HIB017 hot-alloc       `std::make_shared` or a `new` expression in the
                         per-request layers (src/array, src/sim).  The
                         dispatch hot path is allocation-free by design
                         (SlotPool handles, SmallVector inline storage);
                         heap traffic there is a perf regression.  Setup-time
                         allocation belongs in constructors via make_unique /
                         containers; anything else needs a NOLINT(HIB017)
                         with a justification.

Interprocedural rules (new in v3 — they run on the cross-TU call graph and
report a full witness chain for every finding):

  HIB018 transitive-hot-alloc  Any allocation (new expression, make_shared /
                         make_unique, or container growth via push_back /
                         emplace_back on a std::vector member no reserve()
                         call ever touches) *reachable* from the dispatch
                         roots (ArrayController::Submit, Disk::Submit,
                         EventQueue::FireNext).  Subsumes the path-scoped
                         HIB017, which stays as the fast syntactic tier: a
                         helper in src/util that allocates is invisible to
                         HIB017 the moment the hot path calls it.
  HIB019 static-shard-race  Mutable static-duration or singleton state
                         referenced by any function reachable from the shard
                         entry points (RunAll, FleetSimulator::Run,
                         RunExperiment) without going through the
                         src/harness/parallel.* merge.  Synchronisation does
                         not rescue the bit-identical guarantee — an atomic
                         counter still makes shard results depend on
                         interleaving — so HIB006's atomic/mutex exemptions
                         do not apply here.
  HIB020 determinism-taint  A value derived from a HIB013 source (time(),
                         random_device, a pointer-to-integer cast) flowing
                         through returns and locals into an event timestamp
                         (Schedule/ScheduleAt/ScheduleIn argument), a seed
                         assignment, or any call made from src/sim.
  HIB021 handle-use-after-release  Intra-function def-use on SlotPool
                         handles: any use of a PoolHandle lvalue after
                         Release(handle) on the same lexical path (the
                         released state dies with the enclosing scope and on
                         reassignment).  Pins the reentrant-Submit ordering
                         contract: Release must be the last touch.

Shard-escape & contract rules (new in v4 — annotation-driven):

  HIB022 shard-escape    The address of shard-owned state (a HIB_SHARD_LOCAL
                         class, or one of the known shard-universe types)
                         stored into anything that outlives the shard run:
                         directly into a mutable static, or — field-
                         sensitively — into a member of a class that has a
                         static-duration instance anywhere in the program.
                         Only code reachable from the shard entry points is
                         in scope; the witness chain walks root -> store ->
                         escaping owner.
  HIB023 callback-lifetime  A closure handed to Schedule/ScheduleAt/
                         ScheduleIn that (a) captures a local or parameter by
                         reference — the frame dies before the event queue
                         drains — or (b) captures a PoolHandle by value whose
                         slot is released after the call returns but before
                         the event can fire (directly, or via a callee that
                         releases its handle parameter — the interprocedural
                         generalisation of HIB021).
  HIB024 contract-propagation  A call to a function annotated
                         HIB_THREAD_CONTEXT(ctx) from a caller that neither
                         carries the same annotation nor establishes the
                         context (ThreadContextScope / ctx.Acquire()), or a
                         call passing a PoolHandle to a HIB_REQUIRES_LIVE
                         callee when the caller did not acquire the handle,
                         IsLive-check it, or declare HIB_REQUIRES_LIVE on its
                         own signature.  Witness chains are root-first.
  HIB025 layering        An #include that violates the layer DAG
                         util <- obs/trace <- sim <- disk <- queueing <-
                         array <- policy <- hibernator <- harness.  Upward
                         (or sideways-undeclared) includes are how shard
                         state leaks across subsystem boundaries in the
                         first place.

Serialization rules (new in v4.1 — the trace pipeline's compiled binary
format is checksummed and validated in exactly one place):

  HIB026 raw-deser       `fread()` or `reinterpret_cast` in src/ outside the
                         trace format layer (src/trace/format.*).  Raw
                         pointer-cast deserialization bypasses the bounds,
                         checksum and monotonicity validation the
                         CompiledTraceReader does; parse bytes there, or use
                         std::bit_cast / std::memcpy for local type punning.

Meta:

  HIB099 unused-suppression  A suppression comment whose rule never fired on
                         its target line.  Stale suppressions hide future
                         regressions, so they are findings themselves.

Suppressions (inline, per line):
  ... code ...            // NOLINT(HIB011)
  ... code ...            // NOLINT(HIB011, HIB014)
  // NOLINTNEXTLINE(HIB012)
  ... code ...
Only NOLINT comments that explicitly name HIB rules belong to simlint; bare
`NOLINT` and clang-tidy rule lists are ignored (and never flagged as unused).

Usage:
  tools/simlint.py [paths...]         # files or dirs; default: src tests bench examples
  tools/simlint.py --list-rules
  tools/simlint.py --explain HIB018   # rule rationale + its fixture's minimal repro
  tools/simlint.py --sarif out.sarif  # also write SARIF 2.1.0 (code scanning)
  tools/simlint.py --fix              # apply mechanical fixes (HIB001, HIB009)
  tools/simlint.py --jobs N           # parallel file scanning (default: cpus)

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.
"""

import argparse
import concurrent.futures
import json
import os
import re
import sys

SIMLINT_VERSION = "4.1.1"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATHS = ["src", "tests", "bench", "examples"]
SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")
SKIP_DIR_PATTERNS = re.compile(r"^(build.*|\.git|\.cache|__pycache__|Testing)$")

RULES = {
    "HIB001": ("include-guard", "include guard must be HIBERNATOR_<PATH>_H_"),
    "HIB002": ("iostream-header",
               "#include <iostream> in a header (only src/util/log.h, src/util/check.h)"),
    "HIB003": ("raw-io", "raw stdio outside src/util/log.* / src/util/table.*"),
    "HIB004": ("units-alias",
               "raw double/float where a units.h alias (Duration/Joules/Watts) is meant"),
    "HIB005": ("bare-assert", "bare assert(); use HIB_CHECK / HIB_DCHECK from src/util/check.h"),
    "HIB006": ("static-mutable", "mutable static-duration variable in library code"),
    "HIB007": ("raw-unit-fn", "raw double param/return on a power/energy/latency/duration function"),
    "HIB008": ("value-escape", ".value() escape outside the sanctioned I/O and stats boundaries"),
    "HIB009": ("hand-conversion", "hand-rolled unit conversion; use the units.h factories/accessors"),
    "HIB010": ("raw-output",
               "raw output primitive (fputs/fwrite/perror/...) outside the output boundaries"),
    "HIB011": ("unordered-iter",
               "iteration over an unordered container in library code (nondeterministic order)"),
    "HIB012": ("pointer-key",
               "pointer key in an ordered associative container (address-dependent order)"),
    "HIB013": ("wall-clock",
               "wall-clock time or ambient randomness in library code (breaks replayability)"),
    "HIB014": ("float-accum",
               "float/Quantity accumulation inside an unordered-container loop (order-dependent sum)"),
    "HIB015": ("uninit-member",
               "scalar member without default initializer in a constructor-less class"),
    "HIB016": ("exception-sink", "exception caught by value or silently swallowed"),
    "HIB017": ("hot-alloc",
               "std::make_shared / new expression in the per-request layers "
               "(src/array, src/sim); the hot path is allocation-free"),
    "HIB018": ("transitive-hot-alloc",
               "allocation (new/make_shared/make_unique/unreserved vector growth) "
               "reachable from a dispatch root via the call graph"),
    "HIB019": ("static-shard-race",
               "mutable static/singleton state reachable from a shard entry point "
               "(breaks the bit-identical parallel guarantee)"),
    "HIB020": ("determinism-taint",
               "value derived from a wall-clock/randomness source flows into an "
               "event timestamp, seed, or src/sim call"),
    "HIB021": ("handle-use-after-release",
               "PoolHandle used on a path after Release(handle); Release must be "
               "the last touch of a handle"),
    "HIB022": ("shard-escape",
               "address of shard-owned state stored somewhere that outlives the "
               "shard run (static, or member of a statically-held class)"),
    "HIB023": ("callback-lifetime",
               "scheduled callback captures by reference, or captures a pool "
               "handle whose slot is released before the event queue drains"),
    "HIB024": ("contract-propagation",
               "call into a HIB_THREAD_CONTEXT / HIB_REQUIRES_LIVE contract the "
               "caller neither declares nor establishes"),
    "HIB025": ("layering",
               "#include that violates the layer DAG (util <- obs/trace <- sim "
               "<- disk <- queueing <- array <- policy <- hibernator <- harness)"),
    "HIB026": ("raw-deser",
               "fread / reinterpret_cast deserialization outside the trace "
               "format layer (src/trace/format.*)"),
    "HIB099": ("unused-suppression", "suppression comment that suppresses nothing"),
}

# --- per-rule path scoping (rel-path prefixes) ------------------------------
IOSTREAM_HEADER_ALLOWED = {"src/util/log.h", "src/util/check.h"}
RAW_IO_ALLOWED_PREFIXES = ("src/util/log.", "src/util/table.", "src/util/check.",
                           "bench/", "examples/")
STATIC_MUT_EXEMPT_PREFIXES = ("tests/", "bench/", "examples/")
UNIT_FN_EXEMPT_PREFIXES = ("tests/", "bench/", "examples/", "src/util/units.h")
VALUE_ALLOWED_PREFIXES = ("src/util/units.h", "src/util/stats.", "src/util/table.",
                          "src/util/log.", "src/trace/", "src/obs/",
                          "tests/", "bench/", "examples/")
HAND_CONVERSION_EXEMPT_PREFIXES = ("src/util/units.h", "tests/", "bench/", "examples/")
RAW_OUTPUT_ALLOWED_PREFIXES = RAW_IO_ALLOWED_PREFIXES + ("src/obs/",)
# The determinism family applies to library code; processes that own their
# run (tests, benches, examples) may use wall clocks and unordered iteration.
DETERMINISM_EXEMPT_PREFIXES = ("tests/", "bench/", "examples/")
# The allocation-free hot path: per-request code in these layers must not
# reach for the general-purpose heap (SlotPool / SmallVector instead).  The
# fixtures dir is in scope so the rule's own fixture fires.
HOT_ALLOC_PREFIXES = ("src/array/", "src/sim/", "tools/simlint_fixtures/")
# The interprocedural fixtures exercise HIB018+ via the call graph; keep the
# syntactic HIB017 tier out of them so each fixture trips exactly its rule.
HIB017_EXEMPT_PREFIXES = ("tools/simlint_fixtures/interproc/",)
# Binary deserialization lives in exactly one place: the checksummed trace
# format layer.  Everywhere else in src/, fread-and-pointer-cast parsing
# bypasses the validation CompiledTraceReader does.  The fixtures dir is in
# scope so the rule's own fixture fires.
RAW_DESER_PREFIXES = ("src/", "tools/simlint_fixtures/")
RAW_DESER_EXEMPT_PREFIXES = ("src/trace/format", "tools/simlint_fixtures/interproc/")

# --- interprocedural rule configuration (v3) --------------------------------
# Dispatch roots for HIB018: per-request entry points whose transitive callees
# must stay off the general-purpose heap.
HOT_PATH_ROOTS = (("ArrayController", "Submit"), ("ArrayController", "SubmitRaw"),
                  ("Disk", "Submit"), ("EventQueue", "FireNext"),
                  ("EventQueue", "Pop"))
# Shard entry points for HIB019: everything these reach runs concurrently on
# worker threads and must not touch static state outside the harness merge.
SHARD_ROOTS = (("", "RunAll"), ("FleetSimulator", "Run"), ("", "RunExperiment"))
SHARD_MERGE_PREFIXES = ("src/harness/parallel.",)
# Interprocedural findings stay out of code that owns its process (mirrors the
# determinism family's scoping).
INTERPROC_EXEMPT_PREFIXES = ("tests/", "bench/", "examples/")
# HIB020 sinks: the event-timestamp entry points and seed-looking lvalues.
SCHEDULE_SINKS = {"Schedule", "ScheduleAt", "ScheduleIn"}
SEED_NAME_RE = re.compile(r"(?i)seed")
# Pointer-to-integer casts are a HIB013-class source for HIB020 (addresses
# differ run to run).
INT_CAST_TYPES = {"uintptr_t", "intptr_t", "size_t", "uint64_t", "int64_t",
                  "uint32_t", "int32_t", "long", "unsigned", "int"}

# --- annotation & layering configuration (v4) -------------------------------
# The annotation vocabulary from src/util/thread_annotations.h.  The parser
# strips these from declarations (recording them as function/class facts);
# the set also keeps them from being misread as declarator names.
ANNOTATION_MACROS = {
    "HIB_CAPABILITY", "HIB_THREAD_CONTEXT", "HIB_EXCLUDES_CONTEXT",
    "HIB_GUARDED_BY", "HIB_ACQUIRE_CONTEXT", "HIB_RELEASE_CONTEXT",
    "HIB_SCOPED_CONTEXT", "HIB_NO_THREAD_SAFETY_ANALYSIS",
    "HIB_SHARD_LOCAL", "HIB_REQUIRES_LIVE",
}
# Types that are one shard's universe even without a HIB_SHARD_LOCAL marker
# (the marker on the real classes is the source of truth; this set keeps the
# rule meaningful on files analysed in isolation, fixtures included).
SHARD_OWNED_TYPES = {"Simulator", "EventQueue", "ArrayController", "SlotPool",
                     "MetricsRegistry", "Tracer", "Observability", "Disk"}
# Container calls that store their &-argument with the container's lifetime.
CONTAINER_STORE_CALLS = {"push_back", "emplace_back", "insert", "emplace",
                         "push", "assign"}
# HIB025: allowed *direct* include targets per src/<layer>/ (transitive
# closure of util <- obs/trace <- sim <- disk <- queueing <- array <- policy
# <- hibernator <- harness; same-layer includes are always fine).
LAYER_DAG = {
    "util": (),
    "obs": ("util",),
    "trace": ("util",),
    "sim": ("util", "obs"),
    "disk": ("util", "obs", "trace", "sim"),
    "queueing": ("util", "obs", "trace", "sim", "disk"),
    "array": ("util", "obs", "trace", "sim", "disk", "queueing"),
    "policy": ("util", "obs", "trace", "sim", "disk", "queueing", "array"),
    "hibernator": ("util", "obs", "trace", "sim", "disk", "queueing", "array",
                   "policy"),
    "harness": ("util", "obs", "trace", "sim", "disk", "queueing", "array",
                "policy", "hibernator"),
}
# Layering fixtures mirror the src/<layer>/ shape one directory down.
LAYERING_FIXTURE_PREFIX = "tools/simlint_fixtures/layering/"

UNIT_FN_NAME_RE = re.compile(r"(?i:power|energy|latency|duration|response)|(?:Time|Ms)$")
DIMENSIONLESS_NAME_RE = re.compile(r"(?i:scale|ratio|fraction|factor|util|count|scv|rho)")
UNIT_SUFFIX_NAME_RE = re.compile(r"_(?:ms|sec|seconds|hours|joules|watts|rpm)_?$")
UNITS_DECL_NAME_RE = re.compile(r"_(?:ms|joules|watts)_?$")
CONVERSION_VALUES = {60.0, 1000.0, 3600.0, 1e-3, 3.6e6}

PRINTF_FAMILY = {"printf", "fprintf", "sprintf", "puts"}
RAW_OUTPUT_PRIMS = {"fputs", "fputc", "putchar", "putc", "fwrite", "perror"}
WALL_CLOCK_CALLS = {"time", "clock", "rand", "srand", "gettimeofday",
                    "clock_gettime", "timespec_get", "localtime", "gmtime"}
WALL_CLOCK_IDS = {"system_clock", "steady_clock", "high_resolution_clock",
                  "random_device"}
ORDERED_ASSOC = {"map", "set", "multimap", "multiset"}
UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
FLOATY_TYPE_RE = re.compile(
    r"\b(?:double|float|Duration|SimTime|Joules|Watts|Frequency|AngularVelocity|"
    r"Revolutions|DiskEnergy|Quantity)\b")

SCALAR_TYPES = {
    "int", "bool", "double", "float", "char", "short", "long", "unsigned", "signed",
    "size_t", "ptrdiff_t", "uintptr_t", "intptr_t", "wchar_t", "char8_t", "char16_t",
    "char32_t", "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
}
STATIC_EXEMPT_TYPE_RE = re.compile(
    r"\b(?:const|constexpr|constinit|thread_local)\b"
    r"|\b(?:atomic|mutex|shared_mutex|recursive_mutex|once_flag|condition_variable)\b")

CXX_KEYWORDS = frozenset("""
    alignas alignof and and_eq asm auto bitand bitor bool break case catch char
    char8_t char16_t char32_t class compl concept const consteval constexpr
    constinit const_cast continue co_await co_return co_yield decltype default
    delete do double dynamic_cast else enum explicit export extern false float
    for friend goto if inline int long mutable namespace new noexcept not
    not_eq nullptr operator or or_eq private protected public register
    reinterpret_cast requires return short signed sizeof static static_assert
    static_cast struct switch template this thread_local throw true try
    typedef typeid typename union unsigned using virtual void volatile wchar_t
    while xor xor_eq final override
""".split())

TYPE_INTRO_KEYWORDS = frozenset(
    ["const", "volatile", "constexpr", "constinit", "consteval", "inline", "static",
     "mutable", "extern", "register", "thread_local", "virtual", "explicit",
     "typename", "unsigned", "signed", "long", "short", "struct", "class", "enum"])


# ============================ tokenizer =====================================

# Order matters: raw strings before plain strings; numbers before identifiers
# so digit separators (1'000) never open a char literal.
MASTER_RE = re.compile(
    r"""
      (?P<lcomment>//[^\n]*)
    | (?P<bcomment>/\*.*?\*/)
    | (?P<rawstr>(?:u8|u|U|L)?R"(?P<delim>[^()\s\\]{0,16})\(.*?\)(?P=delim)")
    | (?P<str>(?:u8|u|U|L)?"(?:[^"\\\n]|\\.)*")
    | (?P<char>(?:u8|u|U|L)?'(?:[^'\\\n]|\\.)+?')
    | (?P<num>\.?[0-9](?:[eEpP][+-]|[0-9a-zA-Z_.'])*)
    | (?P<id>[A-Za-z_-\U0010FFFF][0-9A-Za-z_-\U0010FFFF]*)
    | (?P<punct><<=|>>=|->\*|\.\.\.|::|->|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|==|!=|<=|>=|&&|\|\||<<|>>|\#\#|[^\sA-Za-z_0-9])
    """,
    re.VERBOSE | re.DOTALL,
)

PP_DISABLED_VALUES = {"0", "false", "(0)", "(false)"}


def tokenize(text):
    """Returns (tokens, comments, directives).

    tokens:     list of (kind, text, line, col) with kind in
                {'id', 'num', 'str', 'char', 'punct'}.
    comments:   dict line -> concatenated comment text on that line.
    directives: list of (name, rest, line) for active preprocessor lines;
                `#if 0` / `#if false` regions are skipped entirely (their
                contents produce no tokens, comments, or directives).
    """
    tokens = []
    comments = {}
    directives = []
    pos = 0
    line = 1
    line_start = 0  # offset of the current line's first char
    bol = True      # only whitespace seen since the line started
    n = len(text)

    def note_comment(ln, body):
        comments[ln] = comments.get(ln, "") + " " + body

    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            bol = True
            continue
        if ch in " \t\r\f\v":
            pos += 1
            continue
        if ch == "\\" and pos + 1 < n and text[pos + 1] == "\n":
            pos += 2
            line += 1
            line_start = pos
            continue
        if ch == "#" and bol:
            # Preprocessor directive: consume the logical line (honouring
            # backslash continuations), strip any trailing // comment.
            start_line = line
            end = pos
            while end < n:
                nl = text.find("\n", end)
                if nl == -1:
                    nl = n
                if nl > end and text[nl - 1] == "\\":
                    line += 1
                    end = nl + 1
                    continue
                end = nl
                break
            raw = text[pos:end].replace("\\\n", " ")
            body = raw[1:].strip()
            comment_at = body.find("//")
            if comment_at != -1:
                note_comment(start_line, body[comment_at + 2:])
                body = body[:comment_at].rstrip()
            body = re.sub(r"/\*.*?\*/", " ", body)
            parts = body.split(None, 1)
            name = parts[0] if parts else ""
            rest = parts[1] if len(parts) > 1 else ""
            pos = end
            if name == "if" and rest.strip() in PP_DISABLED_VALUES:
                # Skip the disabled region line-by-line until the matching
                # #endif (or the #else branch, which is live).
                depth = 1
                while pos < n and depth > 0:
                    nl = text.find("\n", pos)
                    if nl == -1:
                        nl = n
                    else:
                        line += 1
                    stripped = text[pos:nl].lstrip()
                    pos = nl + 1 if nl < n else n
                    if stripped.startswith("#"):
                        word = stripped[1:].lstrip().split(None, 1)
                        word = word[0] if word else ""
                        if word in ("if", "ifdef", "ifndef"):
                            depth += 1
                        elif word == "endif":
                            depth -= 1
                        elif word in ("else", "elif") and depth == 1:
                            break
                line_start = pos
                bol = True
                continue
            directives.append((name, rest, start_line))
            continue

        m = MASTER_RE.match(text, pos)
        if not m:  # stray byte; skip it
            pos += 1
            bol = False
            continue
        kind = m.lastgroup
        tok = m.group()
        col = pos - line_start + 1
        if kind == "lcomment":
            note_comment(line, tok[2:])
        elif kind == "bcomment":
            note_comment(line, tok[2:-2])
            line += tok.count("\n")
            if "\n" in tok:
                line_start = m.end() - (len(tok) - tok.rfind("\n") - 1)
        elif kind == "rawstr":
            tokens.append(("str", tok, line, col))
            line += tok.count("\n")
            if "\n" in tok:
                line_start = m.end() - (len(tok) - tok.rfind("\n") - 1)
        elif kind == "delim":
            pass
        else:
            if kind == "str" or kind == "char":
                tokens.append((kind, tok, line, col))
            else:
                tokens.append((kind, tok, line, col))
        if kind not in ("lcomment", "bcomment"):
            bol = False
        pos = m.end()
    return tokens, comments, directives


# ============================ suppressions ==================================

SUPPRESS_RE = re.compile(
    r"(?P<nextline>NOLINTNEXTLINE)\s*\((?P<nl_rules>[^)]*)\)"
    r"|NOLINT\s*\((?P<rules>[^)]*)\)")


def parse_suppressions(comments):
    """Returns a list of suppression dicts:
    {decl_line, target_line, rules (sorted list), used (mutable)}.

    Only NOLINT comments that explicitly name HIBxxx rules belong to simlint;
    bare NOLINT and foreign rule lists (clang-tidy's
    `NOLINT(google-explicit-constructor)` etc.) are left alone.
    """
    sups = []
    for ln, body in comments.items():
        for m in SUPPRESS_RE.finditer(body):
            nextline = m.group("nextline") is not None
            ruletext = m.group("nl_rules") if nextline else m.group("rules")
            rules = sorted({r.strip() for r in (ruletext or "").split(",")
                            if r.strip().startswith("HIB")})
            if not rules:
                continue
            sups.append({"decl_line": ln,
                         "target_line": ln + 1 if nextline else ln,
                         "rules": rules, "used": False})
    return sups


# ============================ declaration model =============================

class FileModel:
    """Per-file declaration summary (pickleable via __dict__)."""

    def __init__(self, rel):
        self.rel = rel
        self.classes = []          # {name, line, has_real_ctor, members: [...]}
        self.functions = []        # {name, line, ret, params: [(type, name, line)]}
        self.locals = {}           # identifier -> type string (locals/file scope)
        self.aliases = {}          # using Alias = Type;
        self.context_classes = []  # classes declared here + X from X:: defs
        self.static_decls = []     # {name, line, type} mutable static candidates


def _match_forward(toks, i, opens, closes):
    """Index just past the bracket group starting at toks[i] (which is in
    `opens`).  Treats '>>' as two closes when matching angle brackets."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i][1]
        if t in opens:
            depth += 1
        elif t in closes:
            depth -= 1
            if depth <= 0:
                return i + 1
        i += 1
    return n


def _find_matching_close(toks, i):
    """toks[i] is '(' '[' or '{'; returns index of the matching closer."""
    open_t = toks[i][1]
    close_t = {"(": ")", "[": "]", "{": "}"}[open_t]
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i][1]
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n - 1


def _strip_annotation_tokens(toks):
    """Removes HIB_* annotation macros (and their argument lists) from a
    statement's tokens.  Returns (kept_tokens, annotations) where each
    annotation is [macro_name, [argument identifiers]] — `kShardContext` for
    HIB_THREAD_CONTEXT(kShardContext), the handle name for
    HIB_REQUIRES_LIVE(h)."""
    kept = []
    annotations = []
    i = 0
    n = len(toks)
    while i < n:
        if toks[i][0] == "id" and toks[i][1] in ANNOTATION_MACROS:
            macro = toks[i][1]
            args = []
            i += 1
            if i < n and toks[i][1] == "(":
                depth = 0
                while i < n:
                    t = toks[i][1]
                    if t == "(":
                        depth += 1
                    elif t == ")":
                        depth -= 1
                        if depth == 0:
                            i += 1
                            break
                    elif toks[i][0] == "id":
                        args.append(t)
                    i += 1
            annotations.append([macro, args])
            continue
        kept.append(toks[i])
        i += 1
    return kept, annotations


class Parser:
    """Heuristic single-pass structural parser: classes, members, functions,
    local declarations.  Not a C++ front end — just enough shape recovery for
    the HIB rules, tuned to this repo's idiom."""

    def __init__(self, toks, rel):
        self.toks = toks
        self.model = FileModel(rel)

    def parse(self):
        self._region(0, len(self.toks), class_name=None)
        return self.model

    # -- region = sequence of statements between braces ----------------------
    def _region(self, i, end, class_name):
        toks = self.toks
        current = None
        for c in self.model.classes:
            if c["name"] == class_name:
                current = c
        while i < end:
            kind, text, line, _ = toks[i]
            if text in (";", "}"):
                i += 1
                continue
            if kind == "id" and text in ("public", "private", "protected") \
                    and i + 1 < end and toks[i + 1][1] == ":":
                i += 2
                continue
            if kind == "id" and text == "namespace":
                j = i + 1
                while j < end and toks[j][1] not in ("{", ";", "="):
                    j += 1
                if j >= end or toks[j][1] != "{":
                    i = j + 1
                    continue
                close = _find_matching_close(toks, j)
                self._region(j + 1, close, None)
                i = close + 1
                continue
            if kind == "id" and text == "template":
                if i + 1 < end and toks[i + 1][1] == "<":
                    i = self._skip_angles(i + 1, end)
                else:
                    i += 1
                continue
            if kind == "id" and text in ("class", "struct") \
                    and self._is_class_def(i, end):
                i = self._parse_class(i, end)
                continue
            if kind == "id" and text in ("enum", "union"):
                j = i + 1
                while j < end and toks[j][1] not in ("{", ";"):
                    j += 1
                if j < end and toks[j][1] == "{":
                    j = _find_matching_close(toks, j)
                i = j + 1
                continue
            if kind == "id" and text in ("if", "for", "while", "switch", "catch"):
                j = i + 1
                if j < end and toks[j][1] == "(":
                    j = _find_matching_close(toks, j) + 1
                i = j
                continue
            if kind == "id" and text in ("return", "throw", "goto", "delete",
                                         "case", "break", "continue", "do", "else",
                                         "try", "default", "co_return", "co_yield"):
                while i < end and toks[i][1] not in (";", "{", "}"):
                    i += 1
                if i < end and toks[i][1] == ";":
                    i += 1
                continue
            i = self._statement(i, end, class_name, current)

    def _skip_angles(self, i, end):
        """toks[i] == '<'; returns index past the matching '>' ('>>' counts 2)."""
        depth = 0
        while i < end:
            t = self.toks[i][1]
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif t in (";", "{"):
                return i  # lost: bail out
            i += 1
        return end

    def _is_class_def(self, i, end):
        """class/struct at i introduces a definition (not `struct X* p` etc.)."""
        j = i + 1
        while j < end and (self.toks[j][1] == "[" or self.toks[j][0] == "id"
                           or self.toks[j][1] == "::"):
            if self.toks[j][1] == "[":
                j = _find_matching_close(self.toks, j) + 1
                continue
            if self.toks[j][0] == "id" and self.toks[j][1] in ANNOTATION_MACROS:
                # `class HIB_SHARD_LOCAL Simulator {` / `class HIB_CAPABILITY(x) C {`
                j += 1
                if j < end and self.toks[j][1] == "(":
                    j = _find_matching_close(self.toks, j) + 1
                continue
            if self.toks[j][0] == "id" and self.toks[j][1] not in ("final", "alignas"):
                j += 1
                # after the name: {, : bases, or something else
                while j < end and self.toks[j][1] == "::":
                    j += 2
                if j < end and self.toks[j][0] == "id" and self.toks[j][1] == "final":
                    j += 1
                return j < end and self.toks[j][1] in ("{", ":")
            j += 1
        return False

    def _parse_class(self, i, end):
        toks = self.toks
        j = i + 1
        name = None
        bases = []
        in_bases = False
        adepth = 0
        shard_local = False
        while j < end and toks[j][1] not in ("{", ";"):
            if toks[j][0] == "id" and toks[j][1] in ANNOTATION_MACROS:
                if toks[j][1] == "HIB_SHARD_LOCAL":
                    shard_local = True
                j += 1
                if j < end and toks[j][1] == "(":
                    j = _find_matching_close(toks, j) + 1
                continue
            if toks[j][1] == ":" and toks[j + 1][1] != ":" and not in_bases:
                in_bases = True
                j += 1
                continue
            if toks[j][0] == "id" and toks[j][1] not in ("final", "alignas"):
                if not in_bases:
                    name = toks[j][1]
                elif adepth == 0 and toks[j][1] not in (
                        "public", "private", "protected", "virtual") \
                        and (j + 1 >= end or toks[j + 1][1] != "::"):
                    bases.append(toks[j][1])
            elif toks[j][1] == "<":
                adepth += 1
            elif toks[j][1] == ">":
                adepth = max(0, adepth - 1)
            elif toks[j][1] == ">>":
                adepth = max(0, adepth - 2)
            j += 1
        while j < end and toks[j][1] != "{":
            if toks[j][1] == ";":  # forward declaration
                return j + 1
            j += 1
        if j >= end:
            return end
        close = _find_matching_close(toks, j)
        cls = {"name": name, "line": toks[i][2], "has_real_ctor": False,
               "members": [], "bases": bases, "shard_local": shard_local}
        self.model.classes.append(cls)
        if name:
            self.model.context_classes.append(name)
        self._region(j + 1, close, class_name=name)
        return close + 1

    # -- one declaration/expression statement --------------------------------
    def _statement(self, i, end, class_name, current_class):
        toks = self.toks
        start = i
        head = toks[i][1]
        if head in ("using", "typedef"):
            j = i
            while j < end and toks[j][1] != ";":
                j += 1
            if head == "using" and j - i >= 4 and toks[i + 1][0] == "id" \
                    and toks[i + 2][1] == "=":
                alias = toks[i + 1][1]
                target = " ".join(t[1] for t in toks[i + 3:j])
                self.model.aliases[alias] = target
            return j + 1
        if head in ("friend", "static_assert", "extern"):
            j = i
            while j < end and toks[j][1] not in (";", "{"):
                if toks[j][1] == "(":
                    j = _find_matching_close(toks, j)
                j += 1
            if j < end and toks[j][1] == "{":
                j = _find_matching_close(toks, j)
            return j + 1

        # Scan to the statement end: ';' or a body '{' (an initializer '{'
        # after '=' or after the declarator name is consumed in place).
        j = i
        saw_eq = False
        body_open = -1
        while j < end:
            t = toks[j][1]
            if t == "(" or t == "[":
                j = _find_matching_close(toks, j) + 1
                continue
            if t == "=":
                saw_eq = True
                j += 1
                continue
            if t == "{":
                if saw_eq or (j > i and toks[j - 1][0] == "id" and j - 1 > i
                              and toks[j - 2][1] not in (")",)):
                    prev = toks[j - 1][1]
                    if not saw_eq and prev in (")", "const", "noexcept", "override",
                                               "final", "try"):
                        body_open = j
                        break
                    j = _find_matching_close(toks, j) + 1
                    continue
                body_open = j
                break
            if t == ";":
                break
            if t == "}":
                break
            j += 1
        stmt = toks[start:j]
        stmt_end = j

        if body_open != -1:
            close = _find_matching_close(toks, body_open)
            fn = self._classify(stmt, class_name, current_class, has_body=True)
            if isinstance(fn, dict):
                # Token range of the body (exclusive of the outer braces);
                # lambdas inside it attribute their call sites to this
                # function, which is exactly the registration-context edge
                # the callback rules need.  Constructors start at the
                # statement head so the member-initializer list's calls are
                # theirs too.
                fn["body_range"] = (start if fn.get("is_ctor") else body_open + 1,
                                    close)
            self._region(body_open + 1, close, class_name=None)
            return close + 1
        self._classify(stmt, class_name, current_class, has_body=False)
        return stmt_end + 1

    def _classify(self, stmt, class_name, current_class, has_body):
        if not stmt:
            return
        toks = stmt
        # Strip leading attributes [[...]] and label-ish noise.
        while len(toks) >= 2 and toks[0][1] == "[" and toks[1][1] == "[":
            k = 0
            depth = 0
            while k < len(toks):
                if toks[k][1] == "[":
                    depth += 1
                elif toks[k][1] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            toks = toks[k + 1:]
        if not toks:
            return

        # Strip thread-safety / shard annotations; they are recorded as facts
        # on the declaration, and leaving them in would make the declarator
        # scans below misname the function after its trailing macro.
        toks, annotations = _strip_annotation_tokens(toks)
        if not toks:
            return

        texts = [t[1] for t in toks]
        line = toks[0][2]

        # Constructor?  First id equal to the class name, directly followed by
        # '(' (allowing leading explicit/inline/constexpr), not preceded by '~'.
        if class_name:
            for k, t in enumerate(toks):
                if t[0] != "id":
                    if t[1] == "~":
                        break
                    if t[1] not in (":",):
                        continue
                if t[0] == "id" and t[1] in ("explicit", "inline", "constexpr",
                                             "consteval"):
                    continue
                if t[0] == "id":
                    if t[1] == class_name and k + 1 < len(toks) and toks[k + 1][1] == "(":
                        if current_class is not None:
                            is_real = not ("delete" in texts or "default" in texts)
                            if is_real:
                                current_class["has_real_ctor"] = True
                        # Constructors are call-graph nodes too (a call
                        # spelled `LogMessage(...)` resolves to this).
                        fn = {"name": class_name, "line": t[2], "ret": [],
                              "params": [], "method_class": class_name,
                              "has_body": has_body, "is_virtual": False,
                              "is_ctor": True, "annotations": annotations}
                        self.model.functions.append(fn)
                        return fn
                    break

        # Out-of-class constructor definition (`X::X(...) : inits... {`):
        # the trailing (...) belongs to the last member initializer, so the
        # generic declarator scan below would misname it.  Recognise the
        # `X :: X (` shape directly and record a ctor node.
        for k in range(len(toks) - 3):
            if toks[k][0] == "id" and toks[k + 1][1] == "::" \
                    and toks[k + 2][1] == toks[k][1] and toks[k + 3][1] == "(" \
                    and (k == 0 or toks[k - 1][1] != "~"):
                fn = {"name": toks[k][1], "line": toks[k][2], "ret": [],
                      "params": [], "method_class": toks[k][1],
                      "has_body": has_body, "is_virtual": False,
                      "is_ctor": True, "annotations": annotations}
                self.model.functions.append(fn)
                return fn

        # Function (decl or def): declarator ends with (...) [cv].
        fn = self._try_function(toks, has_body)
        if fn is not None:
            fn["annotations"] = annotations
            if fn["method_class"] is None and class_name:
                fn["method_class"] = class_name  # in-class method definition
            self.model.functions.append(fn)
            if fn.get("method_class"):
                if fn["method_class"] not in self.model.context_classes:
                    self.model.context_classes.append(fn["method_class"])
            return fn

        # Variable / member declaration.
        decl = self._try_var_decl(toks)
        if decl is None:
            return
        name, type_tokens, has_init = decl
        type_str = " ".join(type_tokens)
        is_static = "static" in type_tokens
        if current_class is not None:
            current_class["members"].append(
                {"name": name, "type": type_str, "has_init": has_init,
                 "line": line, "is_static": is_static})
        if type_tokens:
            self.model.locals.setdefault(name, type_str)
        if is_static:
            self.model.static_decls.append({"name": name, "line": line, "type": type_str})

    def _try_function(self, toks, has_body):
        texts = [t[1] for t in toks]
        # Trim trailing "= 0" / "= default" / "= delete" and cv-ish ids.
        endk = len(texts)
        cut = None
        depth = 0
        for k, t in enumerate(texts):
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == "=" and depth == 0:
                cut = k
                break
        if cut is not None:
            endk = cut
        while endk > 0 and texts[endk - 1] in ("const", "noexcept", "override",
                                               "final", "try", "&", "&&"):
            endk -= 1
        if endk == 0 or texts[endk - 1] != ")":
            return None
        # Find the matching '(' for that trailing ')'.
        depth = 0
        openk = None
        for k in range(endk - 1, -1, -1):
            t = texts[k]
            if t == ")":
                depth += 1
            elif t == "(":
                depth -= 1
                if depth == 0:
                    openk = k
                    break
        if openk is None or openk == 0:
            return None
        namek = openk - 1
        if toks[namek][0] != "id" or texts[namek] in CXX_KEYWORDS:
            return None
        if namek >= 1 and texts[namek - 1] == "~":
            return None  # destructor: not a call-graph node, never "called"
        name = texts[namek]
        method_class = None
        retk = namek
        if namek >= 2 and texts[namek - 1] == "::" and toks[namek - 2][0] == "id":
            method_class = texts[namek - 2]
            retk = namek - 2
        ret = [t for t in texts[:retk]
               if t not in ("inline", "static", "virtual", "explicit", "constexpr",
                            "consteval", "friend", "extern")]
        params = self._parse_params(toks[openk + 1:endk - 1])
        is_virtual = "virtual" in texts or "override" in texts or "final" in texts
        return {"name": name, "line": toks[namek][2], "ret": ret, "params": params,
                "method_class": method_class, "has_body": has_body,
                "is_virtual": is_virtual}

    def _parse_params(self, ptoks):
        params = []
        if not ptoks:
            return params
        # split on top-level commas (tracking (), [], {}, <>)
        groups = [[]]
        depth_round = depth_angle = 0
        for t in ptoks:
            x = t[1]
            if x in ("(", "[", "{"):
                depth_round += 1
            elif x in (")", "]", "}"):
                depth_round -= 1
            elif x == "<":
                depth_angle += 1
            elif x == ">":
                depth_angle = max(0, depth_angle - 1)
            elif x == ">>":
                depth_angle = max(0, depth_angle - 2)
            elif x == "," and depth_round == 0 and depth_angle == 0:
                groups.append([])
                continue
            groups[-1].append(t)
        for g in groups:
            if not g:
                continue
            # drop default argument
            for k, t in enumerate(g):
                if t[1] == "=":
                    g = g[:k]
                    break
            if not g:
                continue
            if g[-1][0] == "id" and g[-1][1] not in CXX_KEYWORDS and len(g) > 1:
                pname = g[-1][1]
                ptype = [t[1] for t in g[:-1]]
            else:
                pname = ""
                ptype = [t[1] for t in g]
            params.append((ptype, pname, g[0][2]))
        return params

    def _try_var_decl(self, toks):
        texts = [t[1] for t in toks]
        if any(t in ("new", "delete", "operator", "throw", "return") for t in texts):
            return None
        # locate top-level '=' (assignment/initializer)
        depth = 0
        eqk = None
        for k, t in enumerate(texts):
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == "=" and depth == 0:
                eqk = k
                break
        declarator = texts[:eqk] if eqk is not None else texts[:]
        decl_toks = toks[:eqk] if eqk is not None else toks[:]
        has_init = eqk is not None
        if not declarator:
            return None
        # strip a trailing brace-initializer {...}
        if declarator and declarator[-1] == "}":
            depth = 0
            for k in range(len(declarator) - 1, -1, -1):
                if declarator[k] == "}":
                    depth += 1
                elif declarator[k] == "{":
                    depth -= 1
                    if depth == 0:
                        declarator = declarator[:k]
                        decl_toks = decl_toks[:k]
                        has_init = True
                        break
        # strip trailing array extents [...]
        while declarator and declarator[-1] == "]":
            depth = 0
            for k in range(len(declarator) - 1, -1, -1):
                if declarator[k] == "]":
                    depth += 1
                elif declarator[k] == "[":
                    depth -= 1
                    if depth == 0:
                        declarator = declarator[:k]
                        decl_toks = decl_toks[:k]
                        break
            else:
                break
        if not declarator or declarator[-1] == ")":
            return None
        if decl_toks[-1][0] != "id" or declarator[-1] in CXX_KEYWORDS:
            return None
        name = declarator[-1]
        type_tokens = declarator[:-1]
        if not type_tokens:
            return None  # plain assignment `x = y;`
        # A declaration's type must start with an id/keyword, not an operator.
        first = type_tokens[0]
        if not (re.match(r"[A-Za-z_:~]", first) or first in ("const",)):
            return None
        if "::" == type_tokens[-1]:
            return None
        return name, type_tokens, has_init


# ============================ findings ======================================

class Finding:
    __slots__ = ("path", "line", "col", "rule", "message", "fix", "flow")

    def __init__(self, path, line, rule, message, col=1, fix=None, flow=None):
        self.path = path
        self.line = line
        self.col = col
        self.rule = rule
        self.message = message
        self.fix = fix  # optional (kind, *args) tuple for --fix
        # Witness chain for the interprocedural rules: a list of
        # [path, line, col, message] steps ordered source/root -> finding.
        self.flow = flow or []

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def render(self):
        """Finding line plus its witness chain as indented note: lines."""
        out = [str(self)]
        for step in self.flow:
            out.append(f"    note: {step[0]}:{step[1]}: {step[3]}")
        return "\n".join(out)

    def key(self):
        return (self.path, self.line, self.rule, self.message)


def rel_path(path):
    abspath = os.path.abspath(path)
    if abspath.startswith(REPO_ROOT + os.sep):
        return os.path.relpath(abspath, REPO_ROOT).replace(os.sep, "/")
    return path.replace(os.sep, "/")


def expected_guard(rel):
    stem = rel[:-2] if rel.endswith(".h") else rel
    return "HIBERNATOR_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


# ============================ per-file analysis =============================

def analyze_file(path):
    """Worker entry point: tokenize, model, run index-free checks.

    Returns a pickleable dict with findings plus everything the main process
    needs for the cross-file checks (HIB011/HIB014/HIB015) and suppressions.
    """
    rel = rel_path(path)
    out = {
        "rel": rel,
        "findings": [],       # (line, col, rule, message, fix, flow)
        "suppressions": [],
        "classes": [],
        "aliases": {},
        "locals": {},
        "context_classes": [],
        "rangefors": [],      # (line, col, ident, body_start, body_end)
        "begin_calls": [],    # (line, col, ident)
        "accums": [],         # (line, col, ident)
        "functions": [],      # call-graph nodes with per-body facts (v3)
        "reserved": [],       # member names some .reserve() call touches
        "static_decls": [],   # mutable static-duration declarations (v4)
        "error": None,
    }
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as err:
        out["error"] = f"unreadable: {err}"
        return out

    tokens, comments, directives = tokenize(text)
    out["suppressions"] = parse_suppressions(comments)

    findings = []

    def add(line, col, rule, message, fix=None, flow=None):
        findings.append((line, col, rule, message, fix, flow or []))

    is_header = rel.endswith(".h")
    if is_header:
        check_include_guard(rel, text, directives, add)

    check_directives(rel, is_header, directives, add)
    check_layering(rel, directives, add)

    model = Parser(tokens, rel).parse()
    out["classes"] = model.classes
    out["aliases"] = model.aliases
    out["locals"] = model.locals
    out["context_classes"] = model.context_classes

    check_static_mutable(rel, model, add)
    check_unit_functions(rel, model, add)
    token_checks(rel, tokens, add, out)
    extract_function_facts(rel, tokens, model, directives, out, add)

    out["findings"] = findings
    return out


# ----- v3: per-function fact extraction + HIB021 ----------------------------

MACRO_DEF_RE = re.compile(r"^([A-Za-z_]\w*)\((.*?)\)\s*(.*)$", re.S)
MACRO_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")


def _skip_angle_tokens(tokens, i, end):
    """tokens[i] == '<'; index past the matching '>' ('>>' counts double),
    or i if this is not a balanced template argument list."""
    depth = 0
    j = i
    while j < end:
        t = tokens[j][1]
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}") or depth > 6:
            return i
        j += 1
    return i


def extract_function_facts(rel, tokens, model, directives, out, add):
    """Walks every function body once, recording the facts the
    interprocedural rules consume:

      calls        [name, recv, qual, line, col, arg_ids]
                                                  (recv: `x.F()`; qual: `X::F()`)
      allocs       ["new"|"make"|"growth", detail, line, col]
      det_sources  [desc, line, col]              (HIB013-class sources)
      static_refs  [name, line, col, decl_line]   (mutable statics only)
      sinks        ["schedule", callee, arg_ids, arg_calls, line, col]
      assigns      [lhs, rhs_calls, rhs_ids, line, col]  (in body order)
      addr_stores  [dest_chain, src, line, col]   (`a.b = &x` / `c.push_back(&x)`;
                                                   dest_chain is ["a","b"] / ["c"])
      sched_lambdas [sink, val_ids, ref_ids, ref_all, has_this, line, col,
                     end_line]                    (closures handed to Schedule*)
      releases     [handle, line, col]            (Release(h) sites)
      live_checks  [handle, line, col]            (IsLive(h) sites)
      ctx_establish bool                          (ThreadContextScope /
                                                   <ctx>.Acquire() in the body)

    Function-like #define macros become pseudo-nodes whose calls are the
    identifiers applied in the replacement text (so HIB_LOG(...) has edges to
    LogMessage and GlobalLogLevel).  Also runs HIB021 (handle use after
    release) and the by-reference-capture half of HIB023, which are purely
    intra-function.
    """
    n = len(tokens)

    def tk(i):
        return tokens[i] if 0 <= i < n else ("", "", 0, 0)

    # Mutable statics in this file: file-scope ones match by name anywhere;
    # function-local ones only inside the declaring body (identifiers like
    # `level` are too common for cross-function name matching).
    mutable_statics = []
    for d in model.static_decls:
        tl = d["type"]
        if re.search(r"\b(?:const|constexpr|constinit)\b", tl):
            continue
        mutable_statics.append(d)

    bodies = []
    for fn in model.functions:
        br = fn.get("body_range")
        if br:
            b0, b1 = br
            fn["body_lines"] = (tk(b0)[2] or fn["line"], tk(b1)[2] or fn["line"])
            bodies.append((fn, b0, b1))
        fn.setdefault("calls", [])
        fn.setdefault("allocs", [])
        fn.setdefault("det_sources", [])
        fn.setdefault("static_refs", [])
        fn.setdefault("sinks", [])
        fn.setdefault("assigns", [])
        fn.setdefault("addr_stores", [])
        fn.setdefault("sched_lambdas", [])
        fn.setdefault("releases", [])
        fn.setdefault("live_checks", [])
        fn.setdefault("ctx_establish", False)

    file_static_names = {d["name"]: d for d in mutable_statics
                         if not any(f["body_lines"][0] <= d["line"] <= f["body_lines"][1]
                                    for f, _, _ in bodies)}

    # Function-like macros as pseudo call-graph nodes.
    for name, rest, line in directives:
        if name != "define":
            continue
        m = MACRO_DEF_RE.match(rest)
        if not m or not m.group(3):
            continue
        callees = [c for c in MACRO_CALL_RE.findall(m.group(3))
                   if c not in CXX_KEYWORDS]
        if not callees:
            continue
        out["functions"].append({
            "name": m.group(1), "method_class": None, "line": line,
            "is_virtual": False, "is_macro": True, "has_body": True,
            "params": [], "calls": [[c, None, None, line, 1, []] for c in callees],
            "allocs": [], "det_sources": [], "static_refs": [], "sinks": [],
            "assigns": [], "addr_stores": [], "sched_lambdas": [],
            "releases": [], "live_checks": [], "ctx_establish": False,
            "annotations": []})

    lib = not rel.startswith(DETERMINISM_EXEMPT_PREFIXES)
    interproc_scoped = not rel.startswith(INTERPROC_EXEMPT_PREFIXES)

    for fn, b0, b1 in bodies:
        calls, allocs, det, statics, sinks, assigns = \
            fn["calls"], fn["allocs"], fn["det_sources"], fn["static_refs"], \
            fn["sinks"], fn["assigns"]
        addr_stores, sched_lambdas, releases_fact, live_checks = \
            fn["addr_stores"], fn["sched_lambdas"], fn["releases"], \
            fn["live_checks"]
        param_types = {}
        for p in fn.get("params", []):
            if len(p) >= 2 and p[1]:
                param_types[p[1]] = \
                    p[0] if isinstance(p[0], str) else " ".join(p[0])

        def is_handle_name(name, _pt=param_types):
            t = _pt.get(name) or model.locals.get(name) or ""
            return "PoolHandle" in t
        local_static_names = {d["name"]: d for d in mutable_statics
                              if fn["body_lines"][0] <= d["line"] <= fn["body_lines"][1]}
        depth = 0
        released = {}  # handle name -> [depth, line, col, arg_token_index]
        i = b0
        while i < b1:
            kind, text, line, col = tokens[i]
            if text == "{":
                depth += 1
            elif text == "}":
                depth -= 1
                for h in [h for h, e in released.items() if e[0] > depth]:
                    del released[h]  # the scope the release lived in ended
            elif kind == "id":
                nxt = tk(i + 1)[1]
                prv = tk(i - 1)[1]

                # Mutable static reference (reads, writes, and the local
                # declaration itself).  One record per static per function:
                # the first touch is the witness, more add only noise.
                sd = local_static_names.get(text) or file_static_names.get(text)
                if sd is not None and prv not in (".", "->") \
                        and not any(s[0] == text for s in statics):
                    statics.append([text, line, col, sd["line"]])

                # ThreadContextScope (or <ctx>.Acquire()) establishes the
                # shard context for this function's body (HIB024).
                if text == "ThreadContextScope":
                    fn["ctx_establish"] = True

                # Reassignment revives a released handle; record assigns for
                # the intra-function taint step.
                if nxt == "=" and text not in CXX_KEYWORDS:
                    released.pop(text, None)
                    # `lhs = &x` / `a.b = &x`: an address store (HIB022).  The
                    # destination chain walks back over member accesses.
                    if tk(i + 2)[1] == "&" and tk(i + 3)[0] == "id" \
                            and tk(i + 3)[1] not in CXX_KEYWORDS:
                        chain = [text]
                        k = i - 1
                        while tk(k)[1] in (".", "->") and tk(k - 1)[0] == "id":
                            chain.insert(0, tk(k - 1)[1])
                            k -= 2
                        addr_stores.append([chain, tk(i + 3)[1], line, col])
                    rhs_calls, rhs_ids = [], []
                    j = i + 2
                    d2 = 0
                    while j < b1:
                        t2 = tokens[j][1]
                        if t2 in ("(", "[", "{"):
                            d2 += 1
                        elif t2 in (")", "]", "}"):
                            d2 -= 1
                            if d2 < 0:
                                break
                        elif t2 in (";", ",") and d2 == 0:
                            break
                        elif tokens[j][0] == "id" and t2 not in CXX_KEYWORDS:
                            j2 = j + 1
                            if tk(j2)[1] == "<":
                                j2 = _skip_angle_tokens(tokens, j2, b1)
                            if tk(j2)[1] == "(":
                                rhs_calls.append(t2)
                            else:
                                rhs_ids.append(t2)
                        j += 1
                    assigns.append([text, rhs_calls, rhs_ids, line, col])
                    i += 1
                    continue

                # HIB021: a released handle touched again.
                if text in released and i != released[text][3]:
                    e = released[text]
                    if not rel.startswith(INTERPROC_EXEMPT_PREFIXES):
                        add(line, col, "HIB021",
                            f"'{text}' is used after Release({text}); the pool "
                            "slot may already be reacquired (generation bump) — "
                            "Release must be the last touch of a handle",
                            flow=[[rel, e[1], e[2], f"'{text}' released here"],
                                  [rel, line, col, f"'{text}' used here"]])
                    del released[text]  # one finding per release site

                # Call site (including `F<T>(...)`).
                callpos = None
                if text not in CXX_KEYWORDS:
                    if nxt == "(":
                        callpos = i + 1
                    elif nxt == "<":
                        j2 = _skip_angle_tokens(tokens, i + 1, b1)
                        if j2 > i + 1 and tk(j2)[1] == "(":
                            callpos = j2
                if callpos is not None:
                    recv = qual = None
                    if prv in (".", "->") and tk(i - 2)[0] == "id":
                        recv = tk(i - 2)[1]
                    elif prv == "::" and tk(i - 2)[0] == "id":
                        qual = tk(i - 2)[1]

                    close = _find_matching_close(tokens, callpos)
                    arg_ids, arg_calls = [], []
                    d2 = 0
                    for j in range(callpos + 1, close):
                        t2 = tokens[j][1]
                        if t2 in ("(", "[", "{"):
                            d2 += 1
                        elif t2 in (")", "]", "}"):
                            d2 -= 1
                        elif tokens[j][0] == "id" and t2 not in CXX_KEYWORDS:
                            if tk(j + 1)[1] == "(":
                                arg_calls.append(t2)
                            elif d2 == 0:
                                arg_ids.append(t2)
                    calls.append([text, recv, qual, line, col, arg_ids])

                    # `container.push_back(&x)`: the address now lives as long
                    # as the container (HIB022's field-sensitive store).
                    if text in CONTAINER_STORE_CALLS and recv:
                        for j in range(callpos + 1, close):
                            if tokens[j][1] == "&" and tk(j + 1)[0] == "id" \
                                    and tk(j - 1)[1] in ("(", ","):
                                chain = [recv]
                                k = i - 2  # the receiver token
                                while tk(k - 1)[1] in (".", "->") \
                                        and tk(k - 2)[0] == "id":
                                    chain.insert(0, tk(k - 2)[1])
                                    k -= 2
                                addr_stores.append(
                                    [chain, tk(j + 1)[1], line, col])
                                break

                    # `<ctx>.Acquire()` establishes the context (HIB024).
                    if text == "Acquire" and recv and "Context" in recv:
                        fn["ctx_establish"] = True

                    if text == "reserve" and recv:
                        out["reserved"].append(recv)
                    elif text in ("push_back", "emplace_back") and recv:
                        allocs.append(["growth", recv, line, col])
                    elif text in ("make_shared", "make_unique"):
                        allocs.append(["make", text, line, col])
                    elif text in SCHEDULE_SINKS:
                        sinks.append(["schedule", text, arg_ids, arg_calls,
                                      line, col])
                        # Closure argument: record its captures (HIB023).
                        lb = next((j for j in range(callpos + 1, close)
                                   if tokens[j][1] == "["
                                   and tk(j - 1)[1] in ("(", ",")), None)
                        if lb is not None:
                            rb = _find_matching_close(tokens, lb)
                            val_ids, ref_ids = [], []
                            ref_all = has_this = False
                            k = lb + 1
                            while k < rb:
                                t2 = tokens[k][1]
                                if t2 == "&":
                                    if k + 1 < rb and tokens[k + 1][0] == "id" \
                                            and tokens[k + 1][1] != "this":
                                        ref_ids.append(tokens[k + 1][1])
                                        k += 2
                                        while k < rb and tokens[k][1] != ",":
                                            k += 1
                                        continue
                                    ref_all = True
                                elif t2 == "this":
                                    has_this = True
                                elif tokens[k][0] == "id":
                                    val_ids.append(t2)
                                    k += 1
                                    while k < rb and tokens[k][1] != ",":
                                        k += 1
                                    continue
                                k += 1
                            end_line = tokens[close][2]
                            sched_lambdas.append(
                                [text, val_ids, ref_ids, ref_all, has_this,
                                 line, col, end_line])
                            if (ref_all or ref_ids) and interproc_scoped:
                                what = (f"'&{ref_ids[0]}'" if ref_ids
                                        else "'[&]' (everything)")
                                add(line, col, "HIB023",
                                    f"callback handed to '{text}' captures "
                                    f"{what} by reference; the enclosing frame "
                                    "is gone before the event queue drains — "
                                    "capture by value (handles are 8 bytes) "
                                    "or move ownership into the closure")
                    elif text == "IsLive" and arg_ids:
                        for a in arg_ids:
                            if is_handle_name(a):
                                live_checks.append([a, line, col])
                    elif text == "Release" and len(arg_ids) == 1 \
                            and is_handle_name(arg_ids[0]):
                        h = arg_ids[0]
                        hidx = next((j for j in range(callpos + 1, close)
                                     if tokens[j][1] == h), -1)
                        if h in released:
                            if not rel.startswith(INTERPROC_EXEMPT_PREFIXES):
                                e = released[h]
                                add(line, col, "HIB021",
                                    f"double Release({h}): the handle was "
                                    "already released on this path",
                                    flow=[[rel, e[1], e[2],
                                           f"'{h}' released here"],
                                          [rel, line, col,
                                           f"'{h}' released again here"]])
                        released[h] = [depth, line, col, hidx]
                        releases_fact.append([h, line, col])

                    # Seed-flavoured setter calls count as seed sinks too
                    # (SetSeed(t), Reseed(t), ...).
                    if SEED_NAME_RE.search(text) and (arg_ids or arg_calls):
                        sinks.append(["seedcall", text, arg_ids, arg_calls,
                                      line, col])

                # HIB013-class determinism sources (recorded everywhere;
                # gated by path at finding time).
                if text in WALL_CLOCK_IDS and (prv != "::" or tk(i - 2)[1]
                                               in ("std", "chrono")):
                    det.append([text, line, col])
                elif text in WALL_CLOCK_CALLS and nxt == "(" \
                        and prv not in (".", "->") \
                        and (prv != "::" or tk(i - 2)[1] == "std"):
                    det.append([text + "()", line, col])
                elif text == "new" and prv != "operator":
                    allocs.append(["new", None, line, col])
                elif text == "reinterpret_cast" and nxt == "<":
                    j2 = _skip_angle_tokens(tokens, i + 1, b1)
                    inner = {tokens[j][1] for j in range(i + 2, max(i + 2, j2 - 1))}
                    if inner & INT_CAST_TYPES:
                        det.append(["pointer-to-integer cast", line, col])

            i += 1

        # Seed member assignment is a HIB020 sink; fold assign-shaped sinks
        # out of the generic assign list.
        for lhs, rhs_calls, rhs_ids, line, col in assigns:
            if SEED_NAME_RE.search(lhs):
                sinks.append(["seedassign", lhs, rhs_ids, rhs_calls, line, col])

    # Publish pickle/JSON-clean nodes (drop parser-internal fields).
    for fn in model.functions:
        out["functions"].append({
            "name": fn["name"], "method_class": fn.get("method_class"),
            "line": fn["line"], "is_virtual": fn.get("is_virtual", False),
            "is_macro": False, "has_body": bool(fn.get("body_range")),
            "params": [[" ".join(pt) if not isinstance(pt, str) else pt, pn]
                       for pt, pn, *_ in fn.get("params", [])],
            "calls": fn.get("calls", []), "allocs": fn.get("allocs", []),
            "det_sources": fn.get("det_sources", []),
            "static_refs": fn.get("static_refs", []),
            "sinks": fn.get("sinks", []), "assigns": fn.get("assigns", []),
            "addr_stores": fn.get("addr_stores", []),
            "sched_lambdas": fn.get("sched_lambdas", []),
            "releases": fn.get("releases", []),
            "live_checks": fn.get("live_checks", []),
            "ctx_establish": bool(fn.get("ctx_establish")),
            "annotations": fn.get("annotations", [])})
    out["reserved"] = sorted(set(out["reserved"]))
    # Mutable static declarations, for HIB022's "does anything hold this class
    # statically" step (file-scope only; locals never outlive their frame...
    # except local statics, which do, so both are published).
    out["static_decls"] = [
        {"name": d["name"], "line": d["line"], "type": d["type"]}
        for d in mutable_statics]


def check_include_guard(rel, text, directives, add):
    want = expected_guard(rel)
    ifndef = None
    for name, rest, line in directives:
        if name == "ifndef":
            ifndef = (rest.split()[0] if rest.split() else "", line)
            break
    if ifndef is None:
        add(1, 1, "HIB001", f"missing include guard {want}", ("guard_insert", want))
        return
    got, line = ifndef
    if got != want:
        add(line, 1, "HIB001", f"include guard is {got}, expected {want}",
            ("guard_rename", got, want))
        return
    for name, rest, _ in directives:
        if name == "define" and rest.split() and rest.split()[0] == want:
            return
    add(line, 1, "HIB001", f"#ifndef {want} has no matching #define",
        ("guard_add_define", want, line))


def check_directives(rel, is_header, directives, add):
    if not is_header or rel in IOSTREAM_HEADER_ALLOWED:
        return
    for name, rest, line in directives:
        if name == "include" and rest.strip().startswith("<iostream>"):
            add(line, 1, "HIB002",
                "headers must not include <iostream>; stream through "
                "src/util/log.h instead")


def check_layering(rel, directives, add):
    """HIB025: #include edges between src/<layer>/ dirs must follow the DAG."""
    if rel.startswith("src/"):
        layer = rel.split("/")[1]
    elif rel.startswith(LAYERING_FIXTURE_PREFIX):
        layer = rel[len(LAYERING_FIXTURE_PREFIX):].split("/")[0]
    else:
        return
    allowed = LAYER_DAG.get(layer)
    if allowed is None:
        return  # unknown layer: no contract declared yet
    for name, rest, line in directives:
        if name != "include":
            continue
        m = re.match(r'"src/([A-Za-z0-9_]+)/', rest.strip())
        if not m:
            continue
        target = m.group(1)
        if target == layer or target in allowed or target not in LAYER_DAG:
            continue
        add(line, 1, "HIB025",
            f"src/{layer}/ must not include src/{target}/; the layer DAG is "
            "util <- obs/trace <- sim <- disk <- queueing <- array <- policy "
            "<- hibernator <- harness — pass the dependency down as data or "
            "an interface the lower layer owns")


def check_static_mutable(rel, model, add):
    if rel.startswith(STATIC_MUT_EXEMPT_PREFIXES):
        return
    for decl in model.static_decls:
        if STATIC_EXEMPT_TYPE_RE.search(decl["type"]):
            continue
        add(decl["line"], 1, "HIB006",
            f"mutable static-duration variable '{decl['name']}'; make it "
            "const/constexpr, wrap it in std::atomic/std::mutex, or pass the "
            "state explicitly")


def check_unit_functions(rel, model, add):
    if rel.startswith(UNIT_FN_EXEMPT_PREFIXES):
        return
    for fn in model.functions:
        name = fn["name"]
        if not UNIT_FN_NAME_RE.search(name) or DIMENSIONLESS_NAME_RE.search(name):
            continue
        ret = [t for t in fn["ret"] if t not in ("const", "&", "*", "constexpr")]
        if ret and ret[-1] in ("double", "float"):
            add(fn["line"], 1, "HIB007",
                f"'{name}' returns raw {ret[-1]}; its name says it is a "
                "physical quantity — return a units.h type")
            continue
        for ptype, pname, pline in fn["params"]:
            base = [t for t in ptype if t not in ("const", "&", "*")]
            if base and base[-1] in ("double", "float") \
                    and not DIMENSIONLESS_NAME_RE.search(pname or ""):
                add(pline, 1, "HIB007",
                    f"'{name}' takes raw double '{pname or '<param>'}'; its name "
                    "says it deals in a physical quantity — take a units.h type")
                break


def _num_value(text):
    try:
        return float(text.replace("'", "").rstrip("fFlLuUzZ"))
    except ValueError:
        return None


def token_checks(rel, tokens, add, out):
    """Single linear pass over the token stream for the token-shaped rules,
    plus extraction of the deferred (index-needing) sites."""
    n = len(tokens)
    lib = not rel.startswith(DETERMINISM_EXEMPT_PREFIXES)
    raw_io_ok = rel.startswith(RAW_IO_ALLOWED_PREFIXES)
    raw_out_ok = rel.startswith(RAW_OUTPUT_ALLOWED_PREFIXES)
    value_ok = rel.startswith(VALUE_ALLOWED_PREFIXES)
    conv_ok = rel.startswith(HAND_CONVERSION_EXEMPT_PREFIXES)
    hot_alloc = rel.startswith(HOT_ALLOC_PREFIXES) \
        and not rel.startswith(HIB017_EXEMPT_PREFIXES)
    raw_deser = rel.startswith(RAW_DESER_PREFIXES) \
        and not rel.startswith(RAW_DESER_EXEMPT_PREFIXES)

    def tk(i):
        return tokens[i] if 0 <= i < n else ("", "", 0, 0)

    i = 0
    while i < n:
        kind, text, line, col = tokens[i]

        if kind == "id":
            nxt = tk(i + 1)[1]
            prv = tk(i - 1)[1]
            prv2 = tk(i - 2)[1]

            # HIB003: std::cout/cerr/clog and printf-family calls.
            if not raw_io_ok:
                if text in ("cout", "cerr", "clog") and prv == "::" and prv2 == "std":
                    add(line, col, "HIB003",
                        "raw stdio; route output through HIB_LOG or util/table")
                elif text in PRINTF_FAMILY and nxt == "(" and prv not in (".", "->") \
                        and (prv != "::" or prv2 == "std"):
                    add(line, col, "HIB003",
                        "raw stdio; route output through HIB_LOG or util/table")

            # HIB010: the remaining C output primitives.
            if not raw_out_ok and text in RAW_OUTPUT_PRIMS and nxt == "(" \
                    and prv not in (".", "->") and (prv != "::" or prv2 == "std"):
                add(line, col, "HIB010",
                    "raw output primitive; route output through HIB_LOG, "
                    "util/table, or an src/obs/ exporter")

            # HIB005: bare assert().
            if text == "assert" and nxt == "(" and prv not in (".", "->", "::"):
                add(line, col, "HIB005",
                    "bare assert(); use HIB_CHECK / HIB_DCHECK from src/util/check.h")

            # HIB017: heap allocation in the per-request layers.  Dispatch is
            # allocation-free (SlotPool / SmallVector); make_shared and new
            # expressions there reintroduce per-request heap traffic.
            if hot_alloc:
                if text == "make_shared" \
                        and ((prv == "::" and prv2 == "std") or nxt == "<"):
                    add(line, col, "HIB017",
                        "std::make_shared in a per-request layer; use a "
                        "SlotPool handle (src/array/request_pool.h) or "
                        "setup-time make_unique in a constructor")
                elif text == "new" and prv != "operator":
                    add(line, col, "HIB017",
                        "new expression in a per-request layer; the hot path "
                        "is allocation-free — use SlotPool / SmallVector, or "
                        "NOLINT(HIB017) a justified setup-time allocation")

            # HIB026: raw binary deserialization outside the trace format
            # layer.  fread-into-struct and pointer-cast parsing skip the
            # bounds/checksum validation CompiledTraceReader centralises.
            if raw_deser:
                if text == "fread" and nxt == "(" and prv not in (".", "->") \
                        and (prv != "::" or prv2 == "std"):
                    add(line, col, "HIB026",
                        "raw fread deserialization; binary trace parsing "
                        "belongs in src/trace/format.* where bounds and "
                        "checksums are validated")
                elif text == "reinterpret_cast":
                    add(line, col, "HIB026",
                        "reinterpret_cast deserialization bypasses the "
                        "format layer's validation; use std::bit_cast / "
                        "std::memcpy for local type punning, or parse via "
                        "src/trace/format.*")

            # HIB004: double/float with a unit-suffixed name.
            if prv in ("double", "float") and UNITS_DECL_NAME_RE.search(text) \
                    and "per_ms" not in text:
                alias = "Joules" if "joules" in text else (
                    "Watts" if "watts" in text else "Duration (or SimTime)")
                add(line, col, "HIB004",
                    f"'{prv} {text}' should use the {alias} alias from src/util/units.h")

            # HIB008: .value() escape.
            if text == "value" and prv in (".", "->") and nxt == "(" \
                    and tk(i + 2)[1] == ")" and not value_ok:
                add(line, col, "HIB008",
                    ".value() strips the dimension; stay in the typed world, or "
                    "move the raw-double need to a sanctioned boundary "
                    "(units/stats/table/log/trace)")

            # HIB009: unit-suffixed identifier * / conversion literal.
            if not conv_ok and UNIT_SUFFIX_NAME_RE.search(text):
                if nxt in ("*", "/") and tk(i + 2)[0] == "num" \
                        and _num_value(tk(i + 2)[1]) in CONVERSION_VALUES:
                    add(line, col, "HIB009",
                        "hand-rolled unit conversion; use Seconds()/Hours()/"
                        "ToSeconds() etc. so the scale lives only in units.h",
                        ("conversion",))
                elif prv in ("*", "/") and tk(i - 2)[0] == "num" \
                        and _num_value(tk(i - 2)[1]) in CONVERSION_VALUES:
                    add(tk(i - 2)[2], tk(i - 2)[3], "HIB009",
                        "hand-rolled unit conversion; use Seconds()/Hours()/"
                        "ToSeconds() etc. so the scale lives only in units.h",
                        ("conversion",))

            # HIB013: wall-clock / ambient randomness (library code).
            if lib:
                if text in WALL_CLOCK_IDS and (prv != "::" or prv2 == "std" or prv2 == "chrono"):
                    add(line, col, "HIB013",
                        f"'{text}' is ambient nondeterminism; simulated time is "
                        "SimTime and randomness must flow from the seeded PRNGs "
                        "in src/util/random.h")
                elif text in WALL_CLOCK_CALLS and nxt == "(" \
                        and prv not in (".", "->") and (prv != "::" or prv2 == "std"):
                    add(line, col, "HIB013",
                        f"'{text}()' reads the wall clock / ambient randomness; "
                        "library code must use SimTime and the seeded PRNGs")

            # HIB012: pointer key in an ordered associative container.
            if lib and text in ORDERED_ASSOC and prv == "::" and prv2 == "std" \
                    and nxt == "<":
                j = i + 2
                depth = 1
                saw_ptr = False
                while j < n and depth > 0:
                    t = tokens[j][1]
                    if t == "<":
                        depth += 1
                    elif t == ">":
                        depth -= 1
                    elif t == ">>":
                        depth -= 2
                    elif t == "," and depth == 1:
                        break
                    elif t == "*" and depth == 1:
                        saw_ptr = True
                    j += 1
                if saw_ptr:
                    add(line, col, "HIB012",
                        f"std::{text} keyed by a pointer orders entries by heap "
                        "address (different every run); key by a stable id "
                        "(registration-order index) instead")

            # HIB016: catch-by-value / swallowed exception.
            if lib and text == "catch" and nxt == "(":
                close = _find_matching_close(tokens, i + 1)
                ptoks = tokens[i + 2:close]
                ptexts = [t[1] for t in ptoks]
                if ptexts and ptexts != ["..."] and "&" not in ptexts \
                        and "*" not in ptexts:
                    add(line, col, "HIB016",
                        "exception caught by value (slicing copy); catch by "
                        "const reference")
                bi = close + 1
                if tk(bi)[1] == "{":
                    bclose = _find_matching_close(tokens, bi)
                    if bclose == bi + 1:
                        add(line, col, "HIB016",
                            "swallowed exception: empty catch body lets the "
                            "simulation continue on corrupt state; handle, "
                            "log fatally, or rethrow")
                i = close + 1
                continue

            # Deferred HIB011 sites: range-for and .begin()/.cbegin().
            if lib and text == "for" and nxt == "(":
                close = _find_matching_close(tokens, i + 1)
                colon = None
                depth = 0
                for k in range(i + 2, close):
                    t = tokens[k][1]
                    if t in ("(", "[", "{"):
                        depth += 1
                    elif t in (")", "]", "}"):
                        depth -= 1
                    elif t == ":" and depth == 0 and tokens[k - 1][1] != ":" \
                            and tk(k + 1)[1] != ":":
                        colon = k
                        break
                if colon is not None:
                    expr = tokens[colon + 1:close]
                    ident = None
                    if not any(t[1] == "(" for t in expr):
                        ids = [t for t in expr if t[0] == "id" and t[1] != "this"]
                        if ids:
                            ident = ids[-1][1]
                    body_start_line = tokens[close][2]
                    bi = close + 1
                    if tk(bi)[1] == "{":
                        bclose = _find_matching_close(tokens, bi)
                        body_end_line = tokens[bclose][2]
                    else:
                        k = bi
                        while k < n and tokens[k][1] != ";":
                            k += 1
                        body_end_line = tk(k)[2] or body_start_line
                    if ident:
                        out["rangefors"].append(
                            (line, col, ident, body_start_line, body_end_line))
                i += 1
                continue

            if lib and text in ("begin", "cbegin") and nxt == "(" \
                    and prv in (".", "->") and tk(i - 2)[0] == "id":
                out["begin_calls"].append((line, col, tk(i - 2)[1]))

        elif kind == "punct" and text == "+=" and lib:
            k = i - 1
            # step back over a balanced [...] subscript
            if tk(k)[1] == "]":
                depth = 0
                while k >= 0:
                    t = tk(k)[1]
                    if t == "]":
                        depth += 1
                    elif t == "[":
                        depth -= 1
                        if depth == 0:
                            k -= 1
                            break
                    k -= 1
            if tk(k)[0] == "id":
                out["accums"].append((line, col, tk(k)[1]))

        i += 1


# ============================ cross-file resolution =========================

def build_index(results):
    class_members = {}
    aliases = {}
    member_types = {}
    class_bases = {}
    for r in results:
        for cls in r["classes"]:
            if not cls["name"]:
                continue
            m = class_members.setdefault(cls["name"], {})
            for mem in cls["members"]:
                m[mem["name"]] = mem["type"]
                member_types.setdefault(mem["name"], set()).add(mem["type"])
            for b in cls.get("bases", []):
                class_bases.setdefault(cls["name"], [])
                if b not in class_bases[cls["name"]]:
                    class_bases[cls["name"]].append(b)
        aliases.update(r["aliases"])
    return {"class_members": class_members, "aliases": aliases,
            "member_types": member_types, "class_bases": class_bases}


def resolve_type(name, fileres, index):
    t = fileres["locals"].get(name)
    if t:
        return t
    for cls in fileres["context_classes"]:
        t = index["class_members"].get(cls, {}).get(name)
        if t:
            return t
    types = index["member_types"].get(name)
    if types and len(types) == 1:
        return next(iter(types))
    return None


def resolve_alias(type_str, aliases, depth=0):
    if type_str is None or depth > 4:
        return type_str
    parts = type_str.split()
    base = parts[-1] if parts else type_str
    if base in aliases:
        resolved = resolve_alias(aliases[base], aliases, depth + 1)
        return " ".join(parts[:-1] + [resolved])
    return type_str


def is_scalar_type(type_str, aliases):
    resolved = resolve_alias(type_str, aliases)
    if resolved is None:
        return False
    toks = resolved.replace("std ::", "").replace("std::", "").split()
    toks = [t for t in toks if t not in ("const", "volatile", "mutable", "inline")]
    if not toks:
        return False
    if toks[-1] == "*":
        return True
    if any(t in ("constexpr", "constinit") for t in toks):
        return False
    return all(t in SCALAR_TYPES or t == "*" for t in toks)


def cross_file_checks(results, index):
    """HIB011 / HIB014 / HIB015 need the merged symbol index."""
    aliases = index["aliases"]
    for r in results:
        rel = r["rel"]
        add = lambda line, col, rule, msg: r["findings"].append(
            (line, col, rule, msg, None, []))

        if not rel.startswith(DETERMINISM_EXEMPT_PREFIXES):
            unordered_bodies = []
            for line, col, ident, bstart, bend in r["rangefors"]:
                t = resolve_alias(resolve_type(ident, r, index), aliases)
                if t and UNORDERED_TYPE_RE.search(t):
                    add(line, col, "HIB011",
                        f"range-for over unordered container '{ident}' "
                        f"({t.replace(' ', '')}): iteration order is "
                        "nondeterministic — use a sorted/insertion-ordered "
                        "container or iterate sorted keys")
                    unordered_bodies.append((bstart, bend))
            for line, col, ident in r["begin_calls"]:
                t = resolve_alias(resolve_type(ident, r, index), aliases)
                if t and UNORDERED_TYPE_RE.search(t):
                    add(line, col, "HIB011",
                        f"'{ident}.begin()' walks an unordered container in "
                        "nondeterministic order — use a sorted/insertion-ordered "
                        "container or iterate sorted keys")
            for line, col, ident in r["accums"]:
                if not any(bs <= line <= be for bs, be in unordered_bodies):
                    continue
                t = resolve_alias(resolve_type(ident, r, index), aliases)
                if t and FLOATY_TYPE_RE.search(t):
                    add(line, col, "HIB014",
                        f"'{ident} +=' accumulates a floating/Quantity value "
                        "inside an unordered-container loop: float addition is "
                        "not associative, so the visit order changes the sum — "
                        "iterate in a deterministic order or merge in spec order")

            for cls in r["classes"]:
                if cls["has_real_ctor"]:
                    continue
                for mem in cls["members"]:
                    if mem["has_init"] or mem["is_static"]:
                        continue
                    if is_scalar_type(mem["type"], aliases):
                        cname = cls["name"] or "<anonymous>"
                        add(mem["line"], 1, "HIB015",
                            f"scalar member '{mem['name']}' of '{cname}' has no "
                            "default member initializer; an indeterminate value "
                            "is a run-to-run divergence seed")


# ============================ interprocedural (v3) ==========================

def _node_name(key):
    return f"{key[0]}::{key[1]}" if key[0] else key[1]


def _ancestors(cls, class_bases):
    seen = []
    stack = list(class_bases.get(cls, []))
    while stack:
        b = stack.pop(0)
        if b in seen:
            continue
        seen.append(b)
        stack.extend(class_bases.get(b, []))
    return seen


def build_call_graph(results, index):
    """Merges every file's function nodes into one graph.

    Returns {"nodes", "edges", "resolve"}:
      nodes:   (class, name) -> {"defs": [(fileres, fn)], "is_virtual": bool}
               class is "" for free functions and function-like macros.
      edges:   key -> [(target_key, (rel, line, col, callee_text)), ...]
      resolve: (fileres, fn, name, recv, qual) -> [target keys] — the same
               resolution the edges used, for on-demand queries (taint RHS).

    Resolution order for `recv.F(...)`: the receiver's declared type (params,
    then locals/members via the symbol index, aliases unwound), first known
    class named in it, then that class's bases.  Virtual calls fan out to
    every transitive overrider.  Unresolvable receivers fall back to the
    unique class defining a method of that name (safe: ambiguity means no
    edge, never a wrong-but-plausible one).
    """
    nodes = {}
    for r in results:
        for fn in r["functions"]:
            key = (fn.get("method_class") or "", fn["name"])
            node = nodes.setdefault(key, {"defs": [], "is_virtual": False})
            node["defs"].append((r, fn))
            node["is_virtual"] = node["is_virtual"] or fn.get("is_virtual", False)

    class_bases = index["class_bases"]
    class_set = {c for c, _ in nodes if c}
    descendants = {}
    for c in class_set | set(class_bases):
        for a in _ancestors(c, class_bases):
            descendants.setdefault(a, []).append(c)
    methods_of = {}
    for c, m in nodes:
        if c:
            methods_of.setdefault(m, []).append(c)

    def find_method(cls, name):
        for c in [cls] + _ancestors(cls, class_bases):
            if (c, name) in nodes:
                return (c, name)
        return None

    def unique_method(name):
        cand = methods_of.get(name, [])
        return (cand[0], name) if len(cand) == 1 else None

    def resolve(r, fn, name, recv, qual):
        base = None
        if qual:
            if qual in class_set or qual in class_bases:
                base = find_method(qual, name)
            if base is None and ("", name) in nodes:
                base = ("", name)
        elif recv is None or recv == "this":
            mc = fn.get("method_class") or ""
            if mc:
                base = find_method(mc, name)
            if base is None and ("", name) in nodes:
                base = ("", name)
            if base is None:
                base = unique_method(name)
        else:
            tstr = None
            for p in fn.get("params", []):
                if len(p) >= 2 and p[1] == recv:
                    tstr = p[0]
                    break
            if tstr is None:
                tstr = resolve_type(recv, r, index)
            tstr = resolve_alias(tstr, index["aliases"])
            cls = None
            if tstr:
                for tok in re.findall(r"[A-Za-z_]\w*", tstr):
                    if tok in class_set:
                        cls = tok
                        break
            if cls:
                base = find_method(cls, name)
            if base is None:
                base = unique_method(name)
        if base is None:
            return []
        targets = [base]
        if base[0] and nodes[base]["is_virtual"]:
            for d in sorted(descendants.get(base[0], [])):
                if (d, name) in nodes and (d, name) != base:
                    targets.append((d, name))
        return targets

    edges = {}
    for key in sorted(nodes):
        elist = []
        for r, fn in nodes[key]["defs"]:
            for call in fn.get("calls", []):
                name, recv, qual, line, col = call[:5]
                for tgt in resolve(r, fn, name, recv, qual):
                    elist.append((tgt, (r["rel"], line, col, name)))
        edges[key] = elist
    return {"nodes": nodes, "edges": edges, "resolve": resolve}


def _reach(roots, graph):
    """BFS; returns {key: None | (parent_key, callsite)} for every node
    reachable from the roots that exist in the graph."""
    nodes, edges = graph["nodes"], graph["edges"]
    parents = {}
    queue = []
    for root in roots:
        root = tuple(root)
        if root in nodes and root not in parents:
            parents[root] = None
            queue.append(root)
    qi = 0
    while qi < len(queue):
        cur = queue[qi]
        qi += 1
        for tgt, site in edges.get(cur, []):
            if tgt not in parents:
                parents[tgt] = (cur, site)
                queue.append(tgt)
    return parents


def _chain(key, parents, graph, root_label):
    """Witness steps (root first) from the entry point down to `key`.
    Returns (steps, root_key)."""
    steps = []
    cur = key
    while parents.get(cur) is not None:
        prev, site = parents[cur]
        steps.append([site[0], site[1], site[2],
                      f"'{_node_name(prev)}' calls '{_node_name(cur)}' here"])
        cur = prev
    r, fn = graph["nodes"][cur]["defs"][0]
    for rr, ff in graph["nodes"][cur]["defs"]:
        if ff.get("has_body"):
            r, fn = rr, ff
            break
    steps.append([r["rel"], fn["line"], 1,
                  f"{root_label} '{_node_name(cur)}' defined here"])
    steps.reverse()
    return steps, cur


def interprocedural_checks(results, index):
    """HIB018 / HIB019 / HIB020 on the merged call graph.  Findings land in
    the owning file's findings with a root->site witness chain."""
    graph = build_call_graph(results, index)
    nodes, resolve = graph["nodes"], graph["resolve"]
    by_rel = {r["rel"]: r for r in results}
    reserved = set()
    for r in results:
        reserved.update(r.get("reserved", []))

    def emit(rel, line, col, rule, msg, flow):
        r = by_rel.get(rel)
        if r is not None:
            r["findings"].append((line, col, rule, msg, None, flow))

    # ---- HIB018: transitive hot-path allocation ----
    parents = _reach(HOT_PATH_ROOTS, graph)
    seen = set()
    for key in sorted(parents):
        for r, fn in nodes[key]["defs"]:
            rel = r["rel"]
            if rel.startswith(INTERPROC_EXEMPT_PREFIXES):
                continue
            for akind, detail, line, col in fn.get("allocs", []):
                if (rel, line, col) in seen:
                    continue
                if akind == "growth":
                    t = resolve_alias(resolve_type(detail, r, index),
                                      index["aliases"]) or ""
                    if "vector" not in t or "SmallVector" in t:
                        continue  # SmallVector spill is the sanctioned path
                    if detail in reserved:
                        continue  # some reserve() call sizes this member
                    msg = (f"'{detail}.push_back' grows an unreserved "
                           "std::vector on the dispatch hot path; reserve() it "
                           "at setup or use SmallVector")
                elif akind == "make":
                    msg = (f"'{detail}' allocates on the dispatch hot path; "
                           "hoist to setup or route through SlotPool")
                else:
                    msg = ("new expression reachable from the dispatch hot "
                           "path; the per-request layers are allocation-free "
                           "by design — use SlotPool / SmallVector")
                seen.add((rel, line, col))
                steps, root = _chain(key, parents, graph, "dispatch root")
                steps.append([rel, line, col, "allocation here"])
                emit(rel, line, col, "HIB018",
                     msg + f" (reachable from '{_node_name(root)}')", steps)

    # ---- HIB019: mutable static state reachable from shard entry points ----
    parents = _reach(SHARD_ROOTS, graph)
    seen = set()
    for key in sorted(parents):
        for r, fn in nodes[key]["defs"]:
            rel = r["rel"]
            if rel.startswith(INTERPROC_EXEMPT_PREFIXES) \
                    or rel.startswith(SHARD_MERGE_PREFIXES):
                continue
            for name, line, col, decl_line in fn.get("static_refs", []):
                if (rel, line, col) in seen:
                    continue
                seen.add((rel, line, col))
                steps, root = _chain(key, parents, graph, "shard entry point")
                steps.append([rel, line, col,
                              f"static '{name}' (declared at {rel}:{decl_line}) "
                              "touched here"])
                emit(rel, line, col, "HIB019",
                     f"mutable static '{name}' is reachable from shard entry "
                     f"point '{_node_name(root)}'; even synchronised static "
                     "state makes shard results depend on interleaving — "
                     "communicate through the harness merge "
                     "(src/harness/parallel.h) instead", steps)

    # ---- HIB020: determinism taint into timestamps / seeds / src/sim ----
    tainted = {}  # key -> witness steps, source first
    for key in sorted(nodes):
        for r, fn in nodes[key]["defs"]:
            if fn.get("det_sources"):
                d = fn["det_sources"][0]
                tainted[key] = [[r["rel"], d[1], d[2],
                                 f"nondeterministic source '{d[0]}' read here"]]
                break
    changed = True
    while changed:
        changed = False
        for key in sorted(nodes):
            if key in tainted:
                continue
            for tgt, site in graph["edges"].get(key, []):
                if tgt in tainted:
                    tainted[key] = tainted[tgt] + [
                        [site[0], site[1], site[2],
                         f"'{_node_name(key)}' takes a tainted value from "
                         f"'{_node_name(tgt)}' here"]]
                    changed = True
                    break

    def first_tainted(r, fn, names):
        for cname in names:
            for tgt in resolve(r, fn, cname, None, None):
                if tgt in tainted:
                    return cname, tgt
        return None, None

    seen = set()
    for key in sorted(nodes):
        for r, fn in nodes[key]["defs"]:
            rel = r["rel"]
            if rel.startswith(INTERPROC_EXEMPT_PREFIXES):
                continue
            events = [("assign",) + tuple(a) for a in fn.get("assigns", [])] \
                + [("sink",) + tuple(s) for s in fn.get("sinks", [])]
            events.sort(key=lambda e: (e[-2], e[-1], e[0]))
            local_taint = {}
            for ev in events:
                if ev[0] == "assign":
                    _, lhs, rhs_calls, rhs_ids, line, col = ev
                    cname, tgt = first_tainted(r, fn, rhs_calls)
                    if tgt is not None:
                        local_taint[lhs] = tainted[tgt] + [
                            [rel, line, col,
                             f"'{lhs}' derives from tainted call "
                             f"'{cname}(...)' here"]]
                        continue
                    for rid in rhs_ids:
                        if rid in local_taint:
                            local_taint[lhs] = local_taint[rid] + [
                                [rel, line, col,
                                 f"'{lhs}' derives from tainted '{rid}' here"]]
                            break
                else:
                    _, skind, sname, arg_ids, arg_calls, line, col = ev
                    if (rel, line, col, skind) in seen:
                        continue
                    witness = None
                    via = None
                    cname, tgt = first_tainted(r, fn, arg_calls)
                    if tgt is not None:
                        witness = tainted[tgt]
                        via = f"call '{cname}(...)'"
                    else:
                        for aid in arg_ids:
                            if aid in local_taint:
                                witness = local_taint[aid]
                                via = f"'{aid}'"
                                break
                    if witness is None:
                        continue
                    seen.add((rel, line, col, skind))
                    if skind == "schedule":
                        msg = (f"tainted value reaches event scheduling via "
                               f"{via} in '{sname}(...)'; event timestamps "
                               "must derive from SimTime only")
                    elif skind == "seedassign":
                        msg = (f"seed '{sname}' is assigned a tainted value "
                               f"via {via}; seeds must come from the "
                               "experiment spec")
                    else:
                        msg = (f"tainted value reaches '{sname}(...)' via "
                               f"{via}; seeds must come from the experiment "
                               "spec")
                    emit(rel, line, col, "HIB020", msg,
                         witness + [[rel, line, col, "sink here"]])

            # The src/sim blanket sink: any call to a tainted function from
            # the simulator core is a determinism leak even without a
            # recognised timestamp/seed shape.
            if rel.startswith("src/sim/"):
                for call in fn.get("calls", []):
                    cname, recv, qual, line, col = call[:5]
                    for tgt in resolve(r, fn, cname, recv, qual):
                        if tgt in tainted and (rel, line, col, "sim") not in seen:
                            seen.add((rel, line, col, "sim"))
                            emit(rel, line, col, "HIB020",
                                 f"'{cname}(...)' returns a wall-clock/"
                                 "randomness-derived value inside src/sim; "
                                 "the simulator core must be replayable",
                                 tainted[tgt] + [[rel, line, col, "sink here"]])
                            break

    # ================== v4: shard escape & declared contracts ==============
    aliases = index["aliases"]

    def words(tstr):
        return re.findall(r"[A-Za-z_]\w*", tstr or "")

    # Shard-owned types: the baked-in universe set plus every class that
    # carries HIB_SHARD_LOCAL.
    shard_types = set(SHARD_OWNED_TYPES)
    statics_types = []  # (rel, line, name, type_str) for every mutable static
    for r in results:
        for cls in r["classes"]:
            if cls.get("shard_local") and cls.get("name"):
                shard_types.add(cls["name"])
        for d in r.get("static_decls", []):
            statics_types.append((r["rel"], d["line"], d["name"], d["type"]))

    def value_type(r, fn, name):
        for p in fn.get("params", []):
            if len(p) >= 2 and p[1] == name:
                return resolve_alias(p[0], aliases)
        return resolve_alias(resolve_type(name, r, index), aliases)

    def shard_owned(tstr):
        return any(w in shard_types for w in words(tstr))

    def is_handle_in(r, fn, name):
        for p in fn.get("params", []):
            if len(p) >= 2 and p[1] == name:
                return "PoolHandle" in (p[0] or "")
        return "PoolHandle" in (r["locals"].get(name) or "")

    # Annotation union per node: the header declaration and the out-of-line
    # definition may carry different subsets; either one binds the contract.
    node_ann = {}
    for key in sorted(nodes):
        anns = []
        for r, fn in nodes[key]["defs"]:
            anns.extend(fn.get("annotations", []))
        if anns:
            node_ann[key] = anns

    def ann_of(key, macro):
        return [a for a in node_ann.get(key, []) if a[0] == macro]

    # ---- HIB022: shard-owned state escaping the shard run ----
    parents = _reach(SHARD_ROOTS, graph)
    member_stores = {}  # (owner_class, field) -> first store site
    seen = set()
    for key in sorted(parents):
        for r, fn in nodes[key]["defs"]:
            rel = r["rel"]
            if rel.startswith(INTERPROC_EXEMPT_PREFIXES):
                continue
            static_names = {s[0] for s in fn.get("static_refs", [])}
            mc = key[0]
            members = index["class_members"].get(mc, {}) if mc else {}
            for chain, src, line, col in fn.get("addr_stores", []):
                t = mc if src == "this" else value_type(r, fn, src)
                if not shard_owned(t):
                    continue
                base = chain[0]
                if base in static_names:
                    if (rel, line, col) in seen:
                        continue
                    seen.add((rel, line, col))
                    steps, root = _chain(key, parents, graph,
                                         "shard entry point")
                    steps.append([rel, line, col,
                                  f"address of shard-owned '{src}' stored "
                                  f"into static '{'.'.join(chain)}' here"])
                    emit(rel, line, col, "HIB022",
                         f"address of shard-owned '{src}' escapes into static "
                         f"'{'.'.join(chain)}' (reachable from shard entry "
                         f"point '{_node_name(root)}'); shard state must die "
                         "with the shard run — communicate through the "
                         "harness merge instead", steps)
                elif mc and (base == "this" or base in members):
                    member_stores.setdefault(
                        (mc, chain[-1]), (key, rel, chain, src, line, col))

    # Field-sensitive second step: a member store only escapes if some
    # static-duration object keeps the owning class alive across shard runs.
    for (owner, field), (key, rel, chain, src, line, col) \
            in sorted(member_stores.items()):
        if (rel, line, col) in seen:
            continue
        holder = next(((srel, sline, sname, stype)
                       for srel, sline, sname, stype in sorted(statics_types)
                       if owner in words(stype)), None)
        if holder is None:
            continue
        seen.add((rel, line, col))
        srel, sline, sname, _stype = holder
        steps, root = _chain(key, parents, graph, "shard entry point")
        steps.append([rel, line, col,
                      f"address of shard-owned '{src}' stored into member "
                      f"'{owner}::{field}' here"])
        steps.append([srel, sline, 1,
                      f"static '{sname}' keeps a '{owner}' alive across "
                      "shard runs"])
        emit(rel, line, col, "HIB022",
             f"address of shard-owned '{src}' escapes via member "
             f"'{owner}::{field}': static '{sname}' ({srel}:{sline}) holds a "
             f"'{owner}' that outlives the shard run — shard state must die "
             "with its shard", steps)

    # ---- HIB023(b): pool slot released before the scheduled event fires ----
    # Fixpoint: which functions release one of their own handle parameters
    # (directly, or by forwarding it to a releasing callee)?
    releases_params = set()
    changed = True
    while changed:
        changed = False
        for key in sorted(nodes):
            if key in releases_params:
                continue
            for r, fn in nodes[key]["defs"]:
                pnames = {p[1] for p in fn.get("params", [])
                          if len(p) >= 2 and p[1]}
                if any(h in pnames for h, _, _ in fn.get("releases", [])):
                    releases_params.add(key)
                    changed = True
                    break
                hit = False
                for call in fn.get("calls", []):
                    args = call[5] if len(call) > 5 else []
                    if not any(a in pnames for a in args):
                        continue
                    for tgt in resolve(r, fn, call[0], call[1], call[2]):
                        if tgt in releases_params and tgt != key:
                            releases_params.add(key)
                            changed = hit = True
                            break
                    if hit:
                        break
                if hit:
                    break

    def release_site(key):
        for r, fn in nodes[key]["defs"]:
            if fn.get("releases"):
                _h, line, col = fn["releases"][0]
                return (r["rel"], line, col)
        for r, fn in nodes[key]["defs"]:
            return (r["rel"], fn["line"], 1)
        return None

    for ckey in sorted(nodes):
        for r, fn in nodes[ckey]["defs"]:
            rel = r["rel"]
            if rel.startswith(INTERPROC_EXEMPT_PREFIXES):
                continue
            for sname, val_ids, _refs, _refall, _this, sline, scol, end_line \
                    in fn.get("sched_lambdas", []):
                for h in [v for v in val_ids if is_handle_in(r, fn, v)]:
                    fired = False
                    for rh, rline, rcol in fn.get("releases", []):
                        if rh == h and rline > end_line:
                            emit(rel, rline, rcol, "HIB023",
                                 f"pool handle '{h}' is captured by a "
                                 f"callback scheduled at {rel}:{sline}, but "
                                 "its slot is released here before the event "
                                 "can fire — the generation bump leaves the "
                                 "capture stale; release inside the callback, "
                                 "after its last use",
                                 [[rel, sline, scol,
                                   f"callback capturing '{h}' scheduled here"],
                                  [rel, rline, rcol,
                                   f"'{h}' released here, before the queue "
                                   "drains"]])
                            fired = True
                            break
                    if fired:
                        continue
                    for call in fn.get("calls", []):
                        cname, recv, qual, cline, ccol = call[:5]
                        args = call[5] if len(call) > 5 else []
                        if cline <= end_line or h not in args \
                                or cname == "Release":
                            continue
                        tgt = next((t for t
                                    in resolve(r, fn, cname, recv, qual)
                                    if t in releases_params), None)
                        if tgt is None:
                            continue
                        steps = [[rel, sline, scol,
                                  f"callback capturing '{h}' scheduled here"],
                                 [rel, cline, ccol,
                                  f"'{h}' passed to '{_node_name(tgt)}' here"]]
                        site = release_site(tgt)
                        if site:
                            steps.append([site[0], site[1], site[2],
                                          f"'{_node_name(tgt)}' releases its "
                                          "handle parameter here"])
                        emit(rel, cline, ccol, "HIB023",
                             f"pool handle '{h}' is captured by a callback "
                             f"scheduled at {rel}:{sline}, then passed to "
                             f"'{_node_name(tgt)}', which releases its handle "
                             "parameter — the slot dies before the event "
                             "fires; release inside the callback instead",
                             steps)
                        break

    # ---- HIB024: declared contracts must hold at every call site ----
    def establishes_ctx(key):
        if ann_of(key, "HIB_THREAD_CONTEXT"):
            return True  # annotated callers carry the contract outward
        return any(fn.get("ctx_establish")
                   for _r, fn in nodes[key]["defs"])

    seen = set()
    for ckey in sorted(nodes):
        if establishes_ctx(ckey):
            continue
        for tgt, site in graph["edges"].get(ckey, []):
            req = ann_of(tgt, "HIB_THREAD_CONTEXT")
            if not req:
                continue
            srel, sline, scol, _scallee = site
            if srel.startswith(INTERPROC_EXEMPT_PREFIXES) \
                    or (srel, sline, scol) in seen:
                continue
            seen.add((srel, sline, scol))
            ctx = req[0][1][0] if req[0][1] else "the shard context"
            if ckey in parents:
                steps, _root = _chain(ckey, parents, graph,
                                      "shard entry point")
            else:
                cr, cfn = nodes[ckey]["defs"][0]
                steps = [[cr["rel"], cfn["line"], 1,
                          f"caller '{_node_name(ckey)}' defined here (no "
                          "HIB_THREAD_CONTEXT, no ThreadContextScope)"]]
            dr, dfn = nodes[tgt]["defs"][0]
            steps.append([srel, sline, scol,
                          f"'{_node_name(ckey)}' calls '{_node_name(tgt)}' "
                          "here without establishing the context"])
            steps.append([dr["rel"], dfn["line"], 1,
                          f"'{_node_name(tgt)}' declares "
                          f"HIB_THREAD_CONTEXT({ctx}) here"])
            emit(srel, sline, scol, "HIB024",
                 f"'{_node_name(tgt)}' requires thread context '{ctx}', but "
                 f"caller '{_node_name(ckey)}' neither declares the same "
                 "contract nor establishes it (ThreadContextScope / "
                 ".Acquire()) before the call", steps)

    for ckey in sorted(nodes):
        own_live = {arg for a in ann_of(ckey, "HIB_REQUIRES_LIVE")
                    for arg in a[1]}
        for r, fn in nodes[ckey]["defs"]:
            rel = r["rel"]
            if rel.startswith(INTERPROC_EXEMPT_PREFIXES):
                continue
            acquired = set()
            for lhs, rhs_calls, _rhs_ids, _al, _ac in fn.get("assigns", []):
                if any(c.startswith("Acquire") for c in rhs_calls):
                    acquired.add(lhs)
            checked = {lc[0] for lc in fn.get("live_checks", [])}
            for call in fn.get("calls", []):
                cname, recv, qual, cline, ccol = call[:5]
                args = call[5] if len(call) > 5 else []
                if not args:
                    continue
                tgt = next((t for t in resolve(r, fn, cname, recv, qual)
                            if ann_of(t, "HIB_REQUIRES_LIVE")), None)
                if tgt is None:
                    continue
                for h in args:
                    if not is_handle_in(r, fn, h) or h in acquired \
                            or h in checked or h in own_live:
                        continue
                    if (rel, cline, ccol) in seen:
                        continue
                    seen.add((rel, cline, ccol))
                    dr, dfn = nodes[tgt]["defs"][0]
                    emit(rel, cline, ccol, "HIB024",
                         f"'{_node_name(tgt)}' declares HIB_REQUIRES_LIVE on "
                         f"its handle parameter, but caller "
                         f"'{_node_name(ckey)}' passes '{h}' without "
                         "acquiring it, IsLive-checking it, or declaring "
                         "HIB_REQUIRES_LIVE on its own signature",
                         [[rel, cline, ccol,
                           f"'{h}' passed to '{_node_name(tgt)}' here"],
                          [dr["rel"], dfn["line"], 1,
                           f"'{_node_name(tgt)}' declares HIB_REQUIRES_LIVE "
                           "here"]])
                    break


# ============================ suppression filtering =========================

def apply_suppressions(results):
    final = []
    for r in results:
        rel = r["rel"]
        if r["error"]:
            final.append(Finding(rel, 0, "HIB000", r["error"]))
            continue
        sups = r["suppressions"]
        by_line = {}
        for s in sups:
            by_line.setdefault(s["target_line"], []).append(s)
        # v4: when the interprocedural HIB018 confirms an allocation the
        # syntactic HIB017 also flagged, only the HIB018 finding survives —
        # it carries the witness chain, and two findings on one line are
        # noise.  (Suppressions are still matched first, so a NOLINT(HIB017)
        # on such a line stays "used" rather than going stale.)
        hib018_lines = {f[0] for f in r["findings"] if f[2] == "HIB018"}
        for line, col, rule, msg, fix, flow in r["findings"]:
            suppressed = False
            for s in by_line.get(line, []):
                if rule in s["rules"]:
                    s["used"] = True
                    suppressed = True
            if rule == "HIB017" and line in hib018_lines:
                continue  # subsumed by the interprocedural tier
            if not suppressed:
                final.append(Finding(rel, line, rule, msg, col, fix, flow))
        for s in sups:
            if not s["used"]:
                rules = ", ".join(sorted(s["rules"]))
                final.append(Finding(
                    rel, s["decl_line"], "HIB099",
                    f"unused suppression ({rules}): nothing on the target line "
                    "triggers it — remove the stale comment"))
    return final


# ============================ SARIF output ==================================

def write_sarif(path, findings, files_scanned):
    rules = []
    for rule_id in sorted(RULES):
        name, desc = RULES[rule_id]
        rules.append({
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": desc},
            "fullDescription": {"text": desc},
            "defaultConfiguration": {"level": "error"},
        })
    def location(path, line, col, message=None):
        loc = {
            "physicalLocation": {
                "artifactLocation": {"uri": path, "uriBaseId": "%SRCROOT%"},
                "region": {"startLine": max(1, line),
                           "startColumn": max(1, col)},
            }
        }
        if message is not None:
            loc["message"] = {"text": message}
        return loc

    results = []
    for f in findings:
        res = {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [location(f.path, f.line, f.col)],
        }
        if f.flow:
            res["codeFlows"] = [{
                "threadFlows": [{
                    "locations": [
                        {"location": location(step[0], step[1], step[2], step[3])}
                        for step in f.flow
                    ]
                }]
            }]
        results.append(res)
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "simlint",
                    "version": SIMLINT_VERSION,
                    "informationUri":
                        "https://github.com/hibernator-sim/hibernator"
                        "#verification--static-analysis",
                    "rules": rules,
                }
            },
            "columnKind": "utf16CodeUnits",
            "originalUriBaseIds": {"%SRCROOT%": {"uri": "file://" + REPO_ROOT + "/"}},
            "properties": {"filesScanned": files_scanned},
            "results": results,
        }],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ============================ --fix =========================================

CONVERSION_FIXES = [
    # to-seconds family only: the rewrites below keep the expression a raw
    # double (no .value() escapes) and route the scale through units.h.
    (re.compile(r"\b([A-Za-z_]\w*_ms)\s*/\s*1000(?:\.0+)?(?![\w.])"),
     r"ToSeconds(Ms(\1))"),
    (re.compile(r"\b([A-Za-z_]\w*_hours)\s*\*\s*3600(?:\.0+)?(?![\w.])"),
     r"ToSeconds(Hours(\1))"),
]


def apply_fixes(findings):
    """Applies the mechanical fixes (HIB001 guards, HIB009 to-seconds
    conversions).  Returns (num_fixed, set_of_fixed_finding_keys)."""
    by_file = {}
    for f in findings:
        if f.fix is not None:
            by_file.setdefault(f.path, []).append(f)
    fixed = set()
    for relp, flist in by_file.items():
        path = os.path.join(REPO_ROOT, relp) if not os.path.isabs(relp) else relp
        if not os.path.exists(path):
            path = relp
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines(keepends=True)
        except OSError:
            continue
        changed = False
        for f in sorted(flist, key=lambda x: -x.line):
            kind = f.fix[0]
            if kind == "guard_rename":
                old, want = f.fix[1], f.fix[2]
                pat = re.compile(r"\b" + re.escape(old) + r"\b")
                hits = 0
                for i, ln in enumerate(lines):
                    if pat.search(ln) and re.match(r"\s*#\s*(ifndef|define|endif)|.*//",
                                                   ln):
                        lines[i] = pat.sub(want, ln)
                        hits += 1
                if hits:
                    changed = True
                    fixed.add(f.key())
            elif kind == "guard_add_define":
                want, ifndef_line = f.fix[1], f.fix[2]
                idx = min(ifndef_line, len(lines))
                lines.insert(idx, f"#define {want}\n")
                changed = True
                fixed.add(f.key())
            elif kind == "guard_insert":
                want = f.fix[1]
                insert_at = 0
                for i, ln in enumerate(lines):
                    s = ln.strip()
                    if s.startswith("//") or not s:
                        insert_at = i + 1
                    else:
                        break
                lines.insert(insert_at, f"#ifndef {want}\n#define {want}\n\n")
                if lines and not lines[-1].endswith("\n"):
                    lines[-1] += "\n"
                lines.append(f"\n#endif  // {want}\n")
                changed = True
                fixed.add(f.key())
            elif kind == "conversion":
                i = f.line - 1
                if 0 <= i < len(lines):
                    new = lines[i]
                    for pat, repl in CONVERSION_FIXES:
                        new = pat.sub(repl, new)
                    if new != lines[i]:
                        lines[i] = new
                        changed = True
                        fixed.add(f.key())
        if changed:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(lines))
    return len(fixed), fixed


# ============================ driver ========================================

def gather_files(paths):
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if not SKIP_DIR_PATTERNS.match(d))
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(root, name))
        else:
            print(f"simlint: no such path: {path}", file=sys.stderr)
            sys.exit(2)
    return files


def run_analysis(files, jobs):
    if jobs > 1 and len(files) > 8:
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(analyze_file, files, chunksize=4))
        except (OSError, concurrent.futures.process.BrokenProcessPool):
            results = [analyze_file(p) for p in files]
    else:
        results = [analyze_file(p) for p in files]

    index = build_index(results)
    cross_file_checks(results, index)
    interprocedural_checks(results, index)
    return apply_suppressions(results)


# --- --explain ---------------------------------------------------------------

EXPLAIN = {
    "HIB017": (
        "The dispatch hot path (src/array, src/sim) is allocation-free by "
        "design: requests live in SlotPool slots, scratch state in SmallVector "
        "inline storage.  A make_shared or new expression there reintroduces "
        "per-request heap traffic — the exact regression the pooling work "
        "removed.  HIB017 is the fast syntactic tier: it only sees the "
        "allocation's own file.  Its interprocedural big sibling is HIB018.",
        "bad_hot_alloc.cc"),
    "HIB018": (
        "A hot-path function calling an allocating helper in another file is "
        "invisible to the syntactic HIB017.  HIB018 closes that gap: it walks "
        "the cross-TU call graph from the dispatch roots "
        "(ArrayController::Submit, Disk::Submit, EventQueue::FireNext) and "
        "flags every reachable allocation — new, make_shared/make_unique, and "
        "push_back growth of a std::vector member no reserve() ever sizes.  "
        "Each finding carries the full call chain as its witness.",
        "interproc/alloc_helper.cc"),
    "HIB019": (
        "RunAll / FleetSimulator shards must produce bit-identical results "
        "regardless of worker count or scheduling.  Any mutable static or "
        "singleton state reachable from a shard entry point breaks that: even "
        "an atomic counter makes results depend on thread interleaving.  "
        "Shards may only communicate through the deterministic merge in "
        "src/harness/parallel.h; HIB019 walks the call graph from the shard "
        "entry points and flags every touch of static state outside it.",
        "interproc/shard_static.cc"),
    "HIB020": (
        "HIB013 flags a wall-clock or randomness *source* in the file that "
        "reads it, but the damage happens where the value lands: an event "
        "timestamp, a PRNG seed, or anything inside src/sim.  HIB020 tracks "
        "taint through returns and locals across translation units and "
        "reports the source-to-sink path, so a time() hidden behind two "
        "helpers still cannot reach ScheduleAt.",
        "interproc/taint_sink.cc"),
    "HIB021": (
        "SlotPool generations mean a released handle may refer to a "
        "recycled slot: Get() after Release() is a use-after-free with extra "
        "steps.  The reentrant-Submit ordering contract requires Release to "
        "be the last touch — completion hooks run after the slot is given "
        "back.  HIB021 does intra-function def-use on PoolHandle lvalues and "
        "flags any use lexically after Release(handle) on the same path "
        "(reassignment or leaving the releasing scope clears the state).",
        "bad_handle_reuse.cc"),
    "HIB022": (
        "A Simulator (and everything inside it — EventQueue, SlotPool, "
        "MetricsRegistry, Tracer) is one shard's universe: it is built, run "
        "and destroyed inside one RunAll / FleetSimulator worker slot.  The "
        "moment its address is stored anywhere that outlives the run — a "
        "mutable static directly, or (field-sensitively) a member of a class "
        "some static keeps alive — the next shard, or the merge thread, can "
        "reach freed or foreign-shard state.  HIB022 tracks address-of "
        "stores in shard-reachable code; HIB_SHARD_LOCAL on a class opts it "
        "into the shard-owned set.",
        "bad_shard_escape.cc"),
    "HIB023": (
        "The event queue outlives every stack frame that schedules into it.  "
        "A closure that captures a local or parameter by reference therefore "
        "dangles by construction; and a closure that captures a PoolHandle "
        "by value is only safe while the slot stays live — releasing the "
        "slot after scheduling (directly, or through a callee that releases "
        "its handle parameter: the interprocedural step HIB021 cannot see) "
        "leaves the callback holding a stale generation.  The sanctioned "
        "shape is [this, h] by value with Release as the last statement "
        "*inside* the callback.",
        "bad_callback_lifetime.cc"),
    "HIB024": (
        "HIB_THREAD_CONTEXT(ctx) and HIB_REQUIRES_LIVE(handle) are contracts "
        "clang's -Wthread-safety enforces under -DHIB_THREAD_SAFETY=ON — but "
        "only under clang.  HIB024 makes them portable: every caller of a "
        "context-requiring function must declare the same context or "
        "establish it (ThreadContextScope / .Acquire()), and every caller of "
        "a HIB_REQUIRES_LIVE function must have acquired the handle, "
        "IsLive-checked it, or declared the same contract on its own "
        "signature.  Findings carry root-first witness chains: entry point "
        "-> call path -> unguarded call -> contract declaration.",
        "bad_contract.cc"),
    "HIB025": (
        "The repo's layer DAG — util <- obs/trace <- sim <- disk <- "
        "queueing <- array <- policy <- hibernator <- harness — is what "
        "keeps shard-owned state (HIB022) and contracts (HIB024) auditable: "
        "a lower layer reaching up can smuggle references across subsystem "
        "boundaries no local analysis will see.  HIB025 checks every "
        '#include "src/<layer>/..." edge against the DAG; it reads only the '
        "file's own #include lines.",
        "layering/disk/bad_layering.cc"),
    "HIB026": (
        "The compiled trace format (HIBT) is validated in exactly one place: "
        "src/trace/format.* checks magic, version, four FNV-1a checksums, "
        "block bounds and timestamp monotonicity before any byte becomes a "
        "record.  An fread-into-struct or reinterpret_cast parse anywhere "
        "else reads attacker-shaped bytes with none of those guarantees — "
        "and silently forks the format definition the differential tests "
        "pin.  std::bit_cast and std::memcpy stay legal for local type "
        "punning; whole-file parsing goes through CompiledTraceReader.",
        "bad_raw_deser.cc"),
}


def explain_rule(rule):
    rule = rule.upper()
    if rule not in RULES:
        print(f"simlint: unknown rule {rule}", file=sys.stderr)
        return 2
    name, desc = RULES[rule]
    print(f"{rule} ({name}): {desc}\n")
    rationale, fixture = EXPLAIN.get(rule, (None, None))
    if rationale:
        print(rationale + "\n")
    if fixture is None:
        # The v2 rules' fixtures are named after the rule slug.
        fixture = f"bad_{name.replace('-', '_')}.cc"
        fixtures_dir = os.path.join(REPO_ROOT, "tools", "simlint_fixtures")
        if not os.path.exists(os.path.join(fixtures_dir, fixture)):
            cands = [c for c in sorted(os.listdir(fixtures_dir))
                     if name.split("-")[-1] in c]
            if not cands:
                print("(no minimal repro registered for this rule)")
                return 0
            fixture = cands[0]
    path = os.path.join(REPO_ROOT, "tools", "simlint_fixtures", fixture)
    try:
        with open(path, encoding="utf-8") as fh:
            repro = fh.read()
    except OSError:
        print(f"(fixture {fixture} not found)")
        return 0
    print(f"Minimal repro (tools/simlint_fixtures/{fixture}):\n")
    for ln in repro.rstrip("\n").splitlines():
        print(f"    {ln}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(prog="simlint", add_help=True,
                                     description="Hibernator repo lint "
                                                 "(interprocedural token engine)")
    parser.add_argument("paths", nargs="*", help="files or directories to scan")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--explain", metavar="HIBxxx",
                        help="print a rule's rationale and its fixture's "
                             "minimal repro, then exit")
    parser.add_argument("--sarif", metavar="FILE",
                        help="write findings as SARIF 2.1.0 to FILE")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanical fixes (HIB001 guards, HIB009 "
                             "to-seconds conversions), then report the rest")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel worker processes (default: cpu count)")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    if args.list_rules:
        for rule, (name, description) in sorted(RULES.items()):
            print(f"{rule}  {name:<20} {description}")
        return 0
    if args.explain:
        return explain_rule(args.explain)

    paths = args.paths
    if not paths:
        os.chdir(REPO_ROOT)
        paths = DEFAULT_PATHS
    files = gather_files(paths)
    findings = run_analysis(files, max(1, args.jobs))

    if args.fix:
        num_fixed, fixed_keys = apply_fixes(findings)
        if num_fixed:
            print(f"simlint: fixed {num_fixed} finding(s); re-checking", file=sys.stderr)
            findings = run_analysis(files, max(1, args.jobs))
        else:
            print("simlint: nothing fixable", file=sys.stderr)

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    for finding in findings:
        print(finding.render())
    if args.sarif:
        write_sarif(args.sarif, findings, len(files))
    if findings:
        print(f"simlint: {len(findings)} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

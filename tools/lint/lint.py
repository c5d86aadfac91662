#!/usr/bin/env python3
"""Convention linter for the lac fabric stack.

Enforces the repo's load-bearing conventions -- the ones whose violation
compiles fine today and corrupts an invariant three PRs later:

  stray-kernel-switch   Per-kernel dispatch lives in the registry: no
                        `case KernelKind::...` outside
                        src/fabric/kernel_registry.cpp (PR 5). Tests are
                        exempt -- exhaustive switches over per-kernel pins
                        are the point there.
  registry-complete     Every KernelKind enumerator is registered: a
                        `case` in build_traits(), an entry in kAllKinds,
                        and a sized_request hook in its traits function
                        (the trace/serving layers build traffic via
                        sized_request, so a kind without one is invisible
                        to the workload generators).
  signature-delimiters  CostCache::signature and every registered
                        signature_extra hook put an explicit delimiter
                        literal between adjacent key fields, and each
                        extra opens with a '|' literal (PR 3: "640|4" vs
                        "64|04" style key collisions).
  bench-schema          Every numeric field a bench emits into a
                        BENCH_*.json must carry a unit suffix (_cycles,
                        _nj, _w, _mm2, _ms, _per_s, ... -- or be a named
                        display unit like `gflops`), unless the key is a
                        recognizably dimensionless count/ratio (hits,
                        requests, utilization, speedup, ...). Unit-less
                        quantity keys are how the PR 3 mW-vs-W ambiguity
                        leaks into downstream tooling.
  raw-thread            No raw std::thread construction outside
                        src/common/: concurrency goes through a ThreadPool
                        (submit / post / parallel_for) so the sanitizer
                        lanes and the thread-safety annotations see every
                        thread. Waive a deliberate exception with a
                        `lint-allow(raw-thread)` comment on the line.
  metric-names          Every metric name registered with the PR 9
                        MetricsRegistry (any `"lac.…"` string literal in
                        product code) is dotted lowercase
                        `lac.<layer>.<name>` and its final segment either
                        carries a unit (`_us`, `_ns`, `_cycles`, ...) or
                        is a recognizable dimensionless count (`hits`,
                        `tasks`, `…_jobs`). Literals ending in `.` are
                        prefixes completed at runtime (backend/kernel
                        names) and are shape-checked only. Waive with
                        `lint-allow(metric-name)`.
  hot-alloc             No `new` / `make_unique` / `make_shared` in the
                        sim hot paths (src/sim/, src/kernels/, src/fft/,
                        src/fabric/stream_schedule.cpp): per-step
                        allocation is the regression the PR 10 arena
                        removed. One-time magic-static initializers are
                        exempt; waive a deliberate allocation with a
                        `lint-allow: hot-alloc (reason)` comment on the
                        line or the two lines above it -- the reason is
                        mandatory.
  fma-dispatch          Every file under src/kernels/, src/fft/ or
                        src/fabric/stream_schedule.cpp that issues MAC ops
                        (`.fma(`, `mac_into_acc`, `std::fma`) marks its
                        entry points LAC_FMA_DISPATCH (sim/engine.hpp), so
                        a new kernel does not silently fall back to the
                        libm fma call on every simulated MAC. Waive a file
                        whose MAC ops are not hot with a
                        `lint-allow: fma-dispatch (reason)` comment -- the
                        reason is mandatory.

--artifact FILE validates a runtime artifact instead of sources: a
BENCH_*.json (required `meta` provenance keys; `telemetry` metric names
obey the metric-names rule; histogram objects carry exactly
count/sum/bounds/buckets; a serving-style `modes` array carries the full
per-backend stats schema incl. p50_ms/p99_ms) or a Chrome trace JSON
(`traceEvents` of "X" events with name/cat/ts/dur/pid/tid). This is how
CI holds the bench-schema line on fields that only exist at runtime.

--serving-gate FILE is the pool-capacity gate over a fresh
BENCH_serving.json: the sim pool's requests/s must be at least 1.5x the
serial floor measured in the same run. Both figures come from one run on
one host, so the gate needs no absolute number. On a host with fewer than
4 CPUs the pool has too few workers for the bound to mean anything; the
gate then prints that it skipped and passes.

Exit status 0 = clean, 1 = findings (printed one per line as
file:line: [check] message), 2 = linter could not run.

--self-test seeds one violation of each rule into an in-memory copy of
the tree and asserts the corresponding check reports it (run as the
`lint_selftest` CTest target, so a check that silently stops matching
the codebase fails CI the same way a violation would).
"""

import argparse
import json
import re
import sys
from pathlib import Path

REGISTRY = "src/fabric/kernel_registry.cpp"
REQUEST_HPP = "src/fabric/kernel_request.hpp"
SERVING_CPP = "src/fabric/serving.cpp"

# Directories holding product/tooling code the conventions bind. Tests are
# exempt from stray-kernel-switch (see above) but not from raw-thread,
# except via an explicit waiver.
PRODUCT_DIRS = ("src", "bench", "examples")


def strip_comments(text):
    """Drop // and /* */ comments, preserving line structure and strings."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                out.append(text[i])
                if text[i] == "\\":
                    if i + 1 < n:
                        out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i)
            out.append("\n" * text.count("\n", i, n if j < 0 else j + 2))
            i = n if j < 0 else j + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def matched_body(text, open_brace):
    """Return (body, end) for the brace block opening at text[open_brace]."""
    depth = 0
    i = open_brace
    clean = text  # caller passes comment-stripped text
    while i < len(clean):
        c = clean[i]
        if c in "\"'":
            quote = c
            i += 1
            while i < len(clean):
                if clean[i] == "\\":
                    i += 2
                    continue
                if clean[i] == quote:
                    break
                i += 1
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return clean[open_brace + 1 : i], i
        i += 1
    return clean[open_brace + 1 :], len(clean)


def split_stream_fields(chain):
    """Split an `a << b << c` chain at top-level << into operand strings."""
    fields = []
    depth = 0
    start = 0
    i = 0
    while i < len(chain):
        c = chain[i]
        if c in "\"'":
            quote = c
            i += 1
            while i < len(chain):
                if chain[i] == "\\":
                    i += 2
                    continue
                if chain[i] == quote:
                    break
                i += 1
        elif c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif depth == 0 and chain.startswith("<<", i):
            fields.append(chain[start:i].strip())
            i += 2
            start = i
            continue
        i += 1
    fields.append(chain[start:].strip())
    return fields


def is_literal(field):
    return field.startswith('"') or field.startswith("'")


class Tree:
    """File set the checks run against (real repo or a seeded copy)."""

    def __init__(self, files):
        self.files = files  # {relpath: text}

    @classmethod
    def load(cls, repo):
        files = {}
        for d in PRODUCT_DIRS:
            root = repo / d
            if not root.is_dir():
                continue
            for p in sorted(root.rglob("*")):
                if p.suffix in (".cpp", ".hpp", ".h"):
                    rel = p.relative_to(repo).as_posix()
                    files[rel] = p.read_text(encoding="utf-8", errors="replace")
        return cls(files)


def check_stray_kernel_switch(tree):
    findings = []
    pat = re.compile(r"case\s+[\w:]*KernelKind::")
    for rel, text in tree.files.items():
        if rel == REGISTRY:
            continue
        clean = strip_comments(text)
        for m in pat.finditer(clean):
            findings.append(
                (rel, line_of(clean, m.start()),
                 "switch on KernelKind outside the kernel registry -- "
                 "register per-kernel behaviour in kernel_registry.cpp")
            )
    return findings


def kernel_kinds(tree):
    """Enumerators of `enum class KernelKind` from kernel_request.hpp."""
    text = tree.files.get(REQUEST_HPP, "")
    clean = strip_comments(text)
    m = re.search(r"enum\s+class\s+KernelKind\s*\{", clean)
    if not m:
        return []
    body, _ = matched_body(clean, m.end() - 1)
    return re.findall(r"\b([A-Z]\w*)\b\s*(?:=[^,}]*)?(?:,|$)", body)


def check_registry_complete(tree):
    findings = []
    kinds = kernel_kinds(tree)
    if not kinds:
        return [(REQUEST_HPP, 1, "could not parse enum class KernelKind")]
    reg = strip_comments(tree.files.get(REGISTRY, ""))
    if not reg:
        return [(REGISTRY, 1, "kernel_registry.cpp missing")]

    # build_traits(): one `case KernelKind::X: return x_traits();` per kind.
    dispatch = dict(
        re.findall(r"case\s+KernelKind::(\w+)\s*:\s*return\s+(\w+)\s*\(\)", reg)
    )
    # kAllKinds: the registry's construction-order table.
    all_kinds_m = re.search(r"kAllKinds\[\]\s*=\s*\{", reg)
    all_kinds = (
        set(re.findall(r"KernelKind::(\w+)", matched_body(reg, all_kinds_m.end() - 1)[0]))
        if all_kinds_m
        else set()
    )
    # Traits factory bodies, for the per-kind sized_request requirement.
    bodies = {}
    for fm in re.finditer(r"KernelTraits\s+(\w+)\s*\(\s*\)\s*\{", reg):
        bodies[fm.group(1)] = matched_body(reg, fm.end() - 1)[0]

    for kind in kinds:
        if kind not in dispatch:
            findings.append(
                (REGISTRY, 1,
                 f"KernelKind::{kind} has no `case` in build_traits() -- "
                 "unregistered kinds fail every backend in-band")
            )
            continue
        if kind not in all_kinds:
            findings.append(
                (REGISTRY, 1,
                 f"KernelKind::{kind} missing from kAllKinds[] -- it would "
                 "never be constructed into the registry")
            )
        fn = dispatch[kind]
        body = bodies.get(fn, "")
        if "sized_request" not in body:
            findings.append(
                (REGISTRY, 1,
                 f"{fn}() registers KernelKind::{kind} without a "
                 "sized_request hook -- the trace/serving generators "
                 "cannot build traffic for it")
            )
    return findings


def signature_chains(body):
    """All `os << ...` field sequences in a function/lambda body, in order."""
    fields = []
    for stmt in re.finditer(r"\bos\s*<<(.*?);", body, re.S):
        chain = "os <<" + stmt.group(1)
        fields.extend(split_stream_fields(chain)[1:])  # drop the `os` operand
    return fields


def check_fields(rel, line, fields, require_leading_pipe, findings):
    if require_leading_pipe:
        if not fields or not (is_literal(fields[0]) and
                              fields[0].lstrip('"').startswith("|")):
            findings.append(
                (rel, line,
                 "signature_extra must open with a '|...' literal so "
                 "kind-specific fields cannot run into the shared prefix")
            )
    for a, b in zip(fields, fields[1:]):
        if not is_literal(a) and not is_literal(b):
            findings.append(
                (rel, line,
                 f"adjacent signature fields `{a}` and `{b}` have no "
                 "delimiter literal between them -- distinct requests "
                 "could concatenate onto one cache key")
            )


def check_signature_delimiters(tree):
    findings = []
    serving = strip_comments(tree.files.get(SERVING_CPP, ""))
    m = re.search(r"CostCache::signature\s*\([^)]*\)\s*\{", serving)
    if not m:
        findings.append((SERVING_CPP, 1, "could not find CostCache::signature"))
    else:
        body, _ = matched_body(serving, m.end() - 1)
        check_fields(SERVING_CPP, line_of(serving, m.start()),
                     signature_chains(body), False, findings)

    reg = strip_comments(tree.files.get(REGISTRY, ""))
    for em in re.finditer(r"signature_extra\s*=\s*\[[^\]]*\]\s*\([^)]*\)\s*\{", reg):
        body, _ = matched_body(reg, em.end() - 1)
        check_fields(REGISTRY, line_of(reg, em.start()),
                     signature_chains(body), True, findings)
    return findings


def check_raw_thread(tree):
    findings = []
    # std::thread as a type use (construction/member); `std::thread::x`
    # statics like hardware_concurrency are fine anywhere.
    pat = re.compile(r"std::thread\b(?!::)")
    for rel, text in tree.files.items():
        if rel.startswith("src/common/"):
            continue
        clean = strip_comments(text)
        lines = clean.splitlines()
        raw_lines = text.splitlines()
        for i, line in enumerate(lines):
            if pat.search(line):
                raw = raw_lines[i] if i < len(raw_lines) else ""
                if "lint-allow(raw-thread)" in raw:
                    continue
                findings.append(
                    (rel, i + 1,
                     "raw std::thread outside src/common/ -- dispatch through "
                     "a ThreadPool (submit / post / parallel_for), or waive "
                     "with lint-allow(raw-thread)")
                )
    return findings


# JSON keys inside bench sources: `\"key\": ` inside a C++ string literal.
# Group 2 captures what immediately follows the colon *inside the same
# literal*: an opening quote means a string value, `[`/`{` a nested
# container -- both exempt from the unit rule.
BENCH_JSON_KEY = re.compile(r'\\"([A-Za-z0-9_]+)\\":\s?(\\"|\[|\{)?')

# Unit-bearing final tokens: `energy_nj`, `p99_ms`, `requests_per_s`,
# `avg_power_w`, `energy_delay_mw_per_gflops2` -- and bare display-unit
# names (`cycles`, `watts`, `gflops`).
UNIT_TOKENS = {
    "cycles", "nj", "pj", "w", "mw", "watts", "mm2", "ms", "us", "ns", "s",
    "ghz", "gflops", "gflops2", "bytes", "kb", "mb",
}

# Dimensionless counts/ratios/config echoes: allowed without a suffix.
DIMENSIONLESS_KEYS = {
    "smoke", "n", "nr", "bw", "utilization", "weight", "block",
    "deterministic_across_pool_widths", "fairness_jain",
}
DIMENSIONLESS_TOKENS = {
    "points", "hits", "misses", "rate", "requests", "tenants", "failures",
    "width", "widths", "workers", "iterations", "events", "nodes", "graphs",
    "replays", "chunk", "speedup", "modes", "window", "cpus",
}

# Keys whose values are runtime-composed JSON objects streamed in from a
# helper (`<< meta_json(...)`), so the source-level regex cannot see the
# `{` that proves them non-numeric. Their *contents* are held to the same
# unit rules by the --artifact validation CI runs on the emitted files.
RUNTIME_SECTION_KEYS = {"meta", "telemetry"}


def check_bench_schema(tree):
    findings = []
    for rel, text in tree.files.items():
        if not rel.startswith("bench/"):
            continue
        if "BENCH_" not in text:
            continue  # bench prints tables only; no JSON schema to check
        clean = strip_comments(text)
        raw_lines = text.splitlines()
        for m in BENCH_JSON_KEY.finditer(clean):
            key, value_head = m.group(1), m.group(2)
            if value_head is not None:
                continue  # string-valued or nested object/array field
            if key in RUNTIME_SECTION_KEYS:
                continue  # object streamed from a helper; --artifact checks it
            last = key.rsplit("_", 1)[-1]
            if last in UNIT_TOKENS:
                continue
            if key in DIMENSIONLESS_KEYS or last in DIMENSIONLESS_TOKENS \
                    or "speedup" in key:
                continue
            line = line_of(clean, m.start())
            raw = raw_lines[line - 1] if line <= len(raw_lines) else ""
            if "lint-allow(bench-unit)" in raw:
                continue
            findings.append(
                (rel, line,
                 f"numeric BENCH json field `{key}` has no unit suffix "
                 "(_cycles, _nj, _w, _mm2, _ms, _per_s, ...) and is not a "
                 "known dimensionless count/ratio -- name the unit (or "
                 "waive with lint-allow(bench-unit))")
            )
    return findings


# ---------------------------------------------------------------------------
# metric-names: registry metric literals in product code.

# A metric-name (or metric-name-prefix) string literal: `"lac.` followed by
# dotted segments. Captures the literal's contents up to the closing quote.
METRIC_LITERAL = re.compile(r'"(lac\.[^"\\]*)"')

# Final-segment tokens that read as a count without a unit: the name *is*
# the dimension. Everything else numeric must end in a unit suffix.
METRIC_DIMENSIONLESS_TOKENS = {
    "hits", "misses", "inserts", "requests", "tasks", "jobs", "units",
    "depth", "events", "drops", "errors", "retries", "count", "steals",
    "steps",
}


def metric_name_findings(name, where="metric name"):
    """Rule violations for one full metric name (no trailing dot)."""
    problems = []
    segments = name.split(".")
    if any(not re.fullmatch(r"[a-z][a-z0-9_]*", s) for s in segments):
        problems.append(
            f"{where} `{name}` is not dotted lowercase "
            "`lac.<layer>.<name>` (segments are [a-z][a-z0-9_]*)")
        return problems
    if len(segments) < 3:
        problems.append(
            f"{where} `{name}` needs at least `lac.<layer>.<name>`")
        return problems
    last_token = segments[-1].rsplit("_", 1)[-1]
    if last_token not in UNIT_TOKENS and \
            last_token not in METRIC_DIMENSIONLESS_TOKENS:
        problems.append(
            f"{where} `{name}` final segment carries no unit suffix "
            "(_us, _ns, _cycles, ...) and is not a recognizable "
            "dimensionless count")
    return problems


# ---------------------------------------------------------------------------
# hot-alloc: no per-call allocation in the sim hot paths.

# Directories/files whose code runs per simulated step or per kernel call.
# Construction-time allocation belongs in src/fabric executors and the
# arch/ presets; anything allocating here runs millions of times per bench.
HOT_ALLOC_PATHS = ("src/sim/", "src/kernels/", "src/fft/",
                   "src/fabric/stream_schedule.cpp")
HOT_ALLOC_PATTERN = re.compile(
    r"\bnew\b|std::make_unique\s*<|std::make_shared\s*<")
# Waiver with a mandatory reason, on the flagged line or up to two lines
# above (multi-line comment style).
HOT_ALLOC_WAIVER = re.compile(r"lint-allow:\s*hot-alloc\s*\(\S")


def check_hot_alloc(tree):
    findings = []
    for rel, text in tree.files.items():
        if not any(rel.startswith(p) for p in HOT_ALLOC_PATHS):
            continue
        clean = strip_comments(text)
        lines = clean.splitlines()
        raw_lines = text.splitlines()
        for i, line in enumerate(lines):
            if not HOT_ALLOC_PATTERN.search(line):
                continue
            # One-time magic-static initializers (metric handles) are not
            # hot: they allocate once per process.
            if re.match(r"\s*static\b", line):
                continue
            context = "\n".join(raw_lines[max(0, i - 2) : i + 1])
            if HOT_ALLOC_WAIVER.search(context):
                continue
            findings.append(
                (rel, i + 1,
                 "allocation in a sim hot path -- use the SimArena core "
                 "pool / Scratch freelists, hoist the buffer out of the "
                 "loop, or waive with `lint-allow: hot-alloc (reason)`")
            )
    return findings


# ---------------------------------------------------------------------------
# fma-dispatch: MAC-issuing sim code compiles a hardware-FMA clone.

FMA_DISPATCH_PATHS = ("src/kernels/", "src/fft/",
                      "src/fabric/stream_schedule.cpp")
MAC_OP_PATTERN = re.compile(r"\.fma\s*\(|\bmac_into_acc\s*\(|\bstd::fma\s*\(")
FMA_DISPATCH_WAIVER = re.compile(r"lint-allow:\s*fma-dispatch\s*\(\S")


def check_fma_dispatch(tree):
    findings = []
    for rel, text in tree.files.items():
        if not any(rel.startswith(p) for p in FMA_DISPATCH_PATHS):
            continue
        clean = strip_comments(text)
        op = MAC_OP_PATTERN.search(clean)
        if not op or re.search(r"\bLAC_FMA_DISPATCH\b", clean):
            continue
        if FMA_DISPATCH_WAIVER.search(text):
            continue
        findings.append(
            (rel, line_of(clean, op.start()),
             "MAC ops without an LAC_FMA_DISPATCH entry point -- mark the "
             "function whose inlined MacPipeline ops are hot (sim/engine.hpp), "
             "or waive the file with `lint-allow: fma-dispatch (reason)`")
        )
    return findings


def check_metric_names(tree):
    findings = []
    for rel, text in tree.files.items():
        clean = strip_comments(text)
        raw_lines = text.splitlines()
        for m in METRIC_LITERAL.finditer(clean):
            literal = m.group(1)
            line = line_of(clean, m.start())
            raw = raw_lines[line - 1] if line <= len(raw_lines) else ""
            if "lint-allow(metric-name)" in raw:
                continue
            if literal.endswith("."):
                # Prefix completed at runtime (backend/kernel name): the
                # written segments must still be well-shaped.
                bad = [s for s in literal[:-1].split(".")
                       if not re.fullmatch(r"[a-z][a-z0-9_]*", s)]
                if bad:
                    findings.append(
                        (rel, line,
                         f"metric-name prefix `{literal}` has non-lowercase "
                         f"segment(s) {bad}"))
                continue
            for msg in metric_name_findings(literal):
                findings.append((rel, line, msg))
    return findings


# ---------------------------------------------------------------------------
# --artifact: runtime validation of emitted BENCH/trace JSON.

REQUIRED_META_KEYS = {"git_sha", "build_type", "timestamp", "worker_width"}
HISTOGRAM_KEYS = {"count", "sum", "bounds", "buckets"}
REQUIRED_TRACE_EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}


def validate_telemetry(rel, telemetry, findings):
    if not isinstance(telemetry, dict):
        findings.append((rel, 1, "`telemetry` is not a JSON object"))
        return
    for name, value in telemetry.items():
        for msg in metric_name_findings(name, where="telemetry key"):
            findings.append((rel, 1, msg))
        if isinstance(value, dict):  # histogram
            keys = set(value)
            if keys != HISTOGRAM_KEYS:
                findings.append(
                    (rel, 1,
                     f"telemetry histogram `{name}` keys {sorted(keys)} != "
                     f"{sorted(HISTOGRAM_KEYS)}"))
                continue
            if len(value["buckets"]) != len(value["bounds"]) + 1:
                findings.append(
                    (rel, 1,
                     f"telemetry histogram `{name}` needs "
                     "len(buckets) == len(bounds) + 1 (overflow last)"))
            if sum(value["buckets"]) != value["count"]:
                findings.append(
                    (rel, 1,
                     f"telemetry histogram `{name}` bucket sum "
                     f"{sum(value['buckets'])} != count {value['count']}"))
        elif not isinstance(value, (int, float)):
            findings.append(
                (rel, 1,
                 f"telemetry `{name}` must be a number or a histogram "
                 "object"))


# Per-mode stats schema for serving-style benches: every backend/mode
# entry carries throughput *and* the latency distribution, so the serving
# gate (and any dashboard) never meets a partial record.
REQUIRED_MODE_KEYS = {"backend", "mode", "requests", "wall_ms",
                      "requests_per_s", "p50_ms", "p99_ms"}


def validate_modes(rel, modes, findings):
    if not isinstance(modes, list):
        findings.append((rel, 1, "`modes` is not a JSON array"))
        return
    for i, entry in enumerate(modes):
        if not isinstance(entry, dict):
            findings.append((rel, 1, f"modes[{i}] is not a JSON object"))
            continue
        missing = REQUIRED_MODE_KEYS - set(entry)
        if missing:
            findings.append(
                (rel, 1, f"modes[{i}] is missing {sorted(missing)}"))
            continue
        bad = [k for k in REQUIRED_MODE_KEYS - {"backend", "mode"}
               if not isinstance(entry[k], (int, float))]
        if bad:
            findings.append(
                (rel, 1, f"modes[{i}] non-numeric stats field(s) {sorted(bad)}"))


def validate_bench_artifact(rel, data, findings):
    meta = data.get("meta")
    if not isinstance(meta, dict):
        findings.append(
            (rel, 1, "BENCH json has no `meta` provenance object"))
    else:
        missing = REQUIRED_META_KEYS - set(meta)
        if missing:
            findings.append(
                (rel, 1, f"BENCH `meta` is missing {sorted(missing)}"))
    if "modes" in data:
        validate_modes(rel, data["modes"], findings)
    if "telemetry" in data:
        validate_telemetry(rel, data["telemetry"], findings)


def validate_trace_artifact(rel, data, findings):
    events = data.get("traceEvents")
    if not isinstance(events, list):
        findings.append((rel, 1, "trace json has no `traceEvents` array"))
        return
    for i, ev in enumerate(events):
        missing = REQUIRED_TRACE_EVENT_KEYS - set(ev)
        if missing:
            findings.append(
                (rel, 1, f"traceEvents[{i}] is missing {sorted(missing)}"))
            continue
        if ev["ph"] != "X":
            findings.append(
                (rel, 1,
                 f"traceEvents[{i}] ph `{ev['ph']}` != \"X\" (the exporter "
                 "emits complete events only)"))
        if not all(isinstance(ev[k], (int, float)) and ev[k] >= 0
                   for k in ("ts", "dur")):
            findings.append(
                (rel, 1, f"traceEvents[{i}] ts/dur must be numbers >= 0"))


def validate_artifact_data(rel, data):
    """Findings for one parsed artifact (BENCH or Chrome trace JSON)."""
    findings = []
    if "traceEvents" in data:
        validate_trace_artifact(rel, data, findings)
    else:
        validate_bench_artifact(rel, data, findings)
    return findings


def validate_artifact_file(path):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return [(str(path), 1, f"unreadable artifact: {e}")]
    if not isinstance(data, dict):
        return [(str(path), 1, "artifact root is not a JSON object")]
    return validate_artifact_data(str(path), data)


# ---------------------------------------------------------------------------
# --serving-gate: sim pool capacity over the same run's serial floor.

# On a 4-vCPU host a pool of hardware_concurrency - 1 workers measured
# pool/serial 1.92-2.57 over 10 runs (3 s per side); the same pool forced
# to one worker measured 0.77-0.82 over 5.
SERVING_MIN_POOL_OVER_SERIAL = 1.5
# Keyed on the host's CPU count, not the pool's own size, so a pool that
# quietly runs fewer workers than the host allows still fails.
SERVING_MIN_CPUS = 4


def gate_serving_data(rel, data):
    """(findings, summary, skipped) for one parsed BENCH_serving.json."""
    cpus = data.get("cpus")
    if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 1:
        return [(rel, 1, "serving gate needs a positive integer `cpus`")], "", False
    modes = data.get("modes")
    rps = {}
    for mode in ("serial", "pool"):
        for e in modes if isinstance(modes, list) else []:
            if isinstance(e, dict) and e.get("backend") == "sim" \
                    and e.get("mode") == mode:
                rps[mode] = e.get("requests_per_s")
        if not isinstance(rps.get(mode), (int, float)) or rps[mode] <= 0:
            return [(rel, 1,
                     f"serving gate needs a sim `{mode}` mode with a positive "
                     "requests_per_s")], "", False
    if cpus < SERVING_MIN_CPUS:
        return [], (f"host reports {cpus} CPU(s), fewer than "
                    f"{SERVING_MIN_CPUS}: pool capacity not gated"), True
    ratio = rps["pool"] / rps["serial"]
    summary = (f"sim pool {rps['pool']:.0f} req/s over serial floor "
               f"{rps['serial']:.0f} req/s = {ratio:.3f}x on {cpus} CPUs "
               f"(bound {SERVING_MIN_POOL_OVER_SERIAL}x)")
    if ratio < SERVING_MIN_POOL_OVER_SERIAL:
        return [(rel, 1, summary + " -- below the bound")], summary, False
    return [], summary, False


def gate_serving_file(path):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return [(str(path), 1, f"unreadable artifact: {e}")], "", False
    if not isinstance(data, dict):
        return [(str(path), 1, "artifact root is not a JSON object")], "", False
    return gate_serving_data(str(path), data)


CHECKS = {
    "stray-kernel-switch": check_stray_kernel_switch,
    "bench-schema": check_bench_schema,
    "registry-complete": check_registry_complete,
    "signature-delimiters": check_signature_delimiters,
    "raw-thread": check_raw_thread,
    "metric-names": check_metric_names,
    "hot-alloc": check_hot_alloc,
    "fma-dispatch": check_fma_dispatch,
}


def run_checks(tree, names):
    findings = []
    for name in names:
        for rel, line, msg in CHECKS[name](tree):
            findings.append(f"{rel}:{line}: [{name}] {msg}")
    return findings


def self_test(tree):
    """Seed one violation per check into a copy; every seed must be caught."""
    failures = []

    def seeded(mutate):
        copy = Tree(dict(tree.files))
        mutate(copy.files)
        return copy

    # stray-kernel-switch: a switch on KernelKind in a product file.
    def seed_switch(files):
        files[SERVING_CPP] = files.get(SERVING_CPP, "") + (
            "\nint lint_seed(lac::fabric::KernelKind k) {\n"
            "  switch (k) { case lac::fabric::KernelKind::Gemm: return 1; "
            "default: return 0; }\n}\n"
        )

    # registry-complete: drop the Fft dispatch case.
    def seed_registry(files):
        files[REGISTRY] = re.sub(
            r"case\s+KernelKind::Fft\s*:\s*return\s+fft_traits\s*\(\s*\)\s*;",
            "", files[REGISTRY], count=1)

    # registry-complete: a traits factory without sized_request.
    def seed_sized_request(files):
        files[REGISTRY] = re.sub(r"t\.sized_request", "t.lint_seed",
                                 files[REGISTRY], count=1)

    # signature-delimiters: two adjacent fields with no delimiter.
    def seed_delimiter(files):
        files[REGISTRY] = files[REGISTRY] + (
            "\nnamespace { void lint_seed(lac::fabric::KernelTraits& t) {\n"
            "  t.signature_extra = [](const lac::fabric::KernelRequest& req,\n"
            "                         std::ostream& os) {\n"
            "    os << \"|seed:\" << req.fft_n << req.fft_radix;\n"
            "  };\n} }\n"
        )

    # signature-delimiters: an extra that does not open with '|'.
    def seed_leading_pipe(files):
        files[REGISTRY] = files[REGISTRY] + (
            "\nnamespace { void lint_seed2(lac::fabric::KernelTraits& t) {\n"
            "  t.signature_extra = [](const lac::fabric::KernelRequest& req,\n"
            "                         std::ostream& os) {\n"
            "    os << req.fft_n << ',' << req.fft_radix;\n"
            "  };\n} }\n"
        )

    # bench-schema: a numeric JSON field with no unit suffix.
    def seed_bench_schema(files):
        rel = "bench/bench_serving.cpp"
        files[rel] = files.get(rel, "") + (
            "\nstatic void lint_seed(std::ostream& os) {\n"
            "  os << \"\\\"latency\\\": \" << 1.0;  // BENCH_seed.json\n"
            "}\n"
        )

    # raw-thread: a spawned std::thread outside src/common/.
    def seed_thread(files):
        files["src/sched/trace.cpp"] = files.get("src/sched/trace.cpp", "") + (
            "\nvoid lint_seed() { std::thread t([] {}); t.join(); }\n"
        )

    # metric-names: a unit-less, non-count metric registration in src/.
    def seed_metric_name(files):
        rel = "src/common/thread_pool.cpp"
        files[rel] = files.get(rel, "") + (
            "\nstatic const char* lint_seed = \"lac.pool.latency\";\n"
        )

    # metric-names: an uppercase segment (backend names must be lowered).
    def seed_metric_case(files):
        rel = "src/fabric/serving.cpp"
        files[rel] = files.get(rel, "") + (
            "\nstatic const char* lint_seed = \"lac.serving.GEMM.requests\";\n"
        )

    # hot-alloc: an unwaived per-call allocation in a sim hot path.
    def seed_hot_alloc(files):
        rel = "src/sim/arena.cpp"
        files[rel] = files.get(rel, "") + (
            "\nnamespace { double* lint_seed() { return new double[8]; } }\n"
        )

    # hot-alloc: a waiver without a reason must NOT silence the finding.
    def seed_hot_alloc_bare_waiver(files):
        rel = "src/sim/arena.cpp"
        files[rel] = files.get(rel, "") + (
            "\nnamespace { double* lint_seed() {\n"
            "  // lint-allow: hot-alloc\n"
            "  return new double[8];\n} }\n"
        )

    # fma-dispatch: a MAC-issuing kernel file without the dispatch macro.
    def seed_fma_dispatch(files):
        rel = "src/kernels/lu_kernel.cpp"
        files[rel] = re.sub(r"\bLAC_FMA_DISPATCH\b", "", files[rel])

    # fma-dispatch: a waiver without a reason must NOT silence the finding.
    def seed_fma_dispatch_bare_waiver(files):
        rel = "src/kernels/lu_kernel.cpp"
        files[rel] = "// lint-allow: fma-dispatch\n" + re.sub(
            r"\bLAC_FMA_DISPATCH\b", "", files[rel])

    seeds = [
        ("stray-kernel-switch", seed_switch),
        ("bench-schema", seed_bench_schema),
        ("registry-complete", seed_registry),
        ("registry-complete", seed_sized_request),
        ("signature-delimiters", seed_delimiter),
        ("signature-delimiters", seed_leading_pipe),
        ("raw-thread", seed_thread),
        ("metric-names", seed_metric_name),
        ("metric-names", seed_metric_case),
        ("hot-alloc", seed_hot_alloc),
        ("hot-alloc", seed_hot_alloc_bare_waiver),
        ("fma-dispatch", seed_fma_dispatch),
        ("fma-dispatch", seed_fma_dispatch_bare_waiver),
    ]
    for name, mutate in seeds:
        hits = run_checks(seeded(mutate), [name])
        if not hits:
            failures.append(f"self-test: [{name}] seed `{mutate.__name__}` "
                            "was NOT caught")
        else:
            print(f"self-test: [{name}] {mutate.__name__} caught: {hits[0]}")

    # Artifact-validation seeds: each bad fixture must be caught, and the
    # good fixtures must be clean.
    good_meta = {"git_sha": "abc123", "build_type": "Release",
                 "timestamp": "2026-01-01T00:00:00Z", "worker_width": 8}
    good_hist = {"count": 3, "sum": 4.5, "bounds": [1.0, 2.0],
                 "buckets": [1, 1, 1]}
    artifact_cases = [
        ("good bench", {"meta": good_meta,
                        "telemetry": {"lac.pool.tasks": 7,
                                      "lac.pool.dequeue_wait_us": good_hist}},
         False),
        ("good trace", {"traceEvents": [
            {"name": "x", "cat": "lac", "ph": "X", "ts": 0, "dur": 1,
             "pid": 1, "tid": 0}]}, False),
        ("bench without meta", {"telemetry": {}}, True),
        ("meta missing keys", {"meta": {"git_sha": "abc123"}}, True),
        ("unit-less telemetry key",
         {"meta": good_meta, "telemetry": {"lac.pool.latency": 1.0}}, True),
        ("histogram with extra key",
         {"meta": good_meta,
          "telemetry": {"lac.pool.dequeue_wait_us":
                        dict(good_hist, p99=2.0)}}, True),
        ("histogram bucket/count drift",
         {"meta": good_meta,
          "telemetry": {"lac.pool.dequeue_wait_us":
                        dict(good_hist, count=99)}}, True),
        ("trace with non-X phase", {"traceEvents": [
            {"name": "x", "cat": "lac", "ph": "B", "ts": 0, "dur": 1,
             "pid": 1, "tid": 0}]}, True),
        ("trace event missing keys", {"traceEvents": [{"name": "x"}]}, True),
        ("good serving modes",
         {"meta": good_meta, "modes": [
             {"backend": "sim", "mode": "pool", "requests": 216,
              "wall_ms": 10.0, "requests_per_s": 21600.0, "p50_ms": 0.3,
              "p99_ms": 2.0}]}, False),
        ("serving mode entry missing p99",
         {"meta": good_meta, "modes": [
             {"backend": "sim", "mode": "pool", "requests": 216,
              "wall_ms": 10.0, "requests_per_s": 21600.0,
              "p50_ms": 0.3}]}, True),
        ("serving mode entry non-numeric stat",
         {"meta": good_meta, "modes": [
             {"backend": "sim", "mode": "pool", "requests": 216,
              "wall_ms": 10.0, "requests_per_s": "fast", "p50_ms": 0.3,
              "p99_ms": 2.0}]}, True),
    ]
    for label, data, expect_findings in artifact_cases:
        hits = validate_artifact_data(label, data)
        if bool(hits) != expect_findings:
            failures.append(
                f"self-test: [artifact] `{label}` expected "
                f"{'findings' if expect_findings else 'clean'}, got "
                f"{hits or 'clean'}")
        else:
            print(f"self-test: [artifact] {label}: "
                  f"{'caught: ' + str(hits[0]) if hits else 'clean'}")

    # Serving-gate fixtures: the ratio bound and a missing field must each
    # trip; a small host must come back skipped, not failed or passed.
    def serving_fixture(cpus, serial_rps, pool_rps):
        return {"cpus": cpus, "modes": [
            {"backend": "sim", "mode": "serial", "requests_per_s": serial_rps},
            {"backend": "sim", "mode": "pool", "requests_per_s": pool_rps}]}

    bound = SERVING_MIN_POOL_OVER_SERIAL
    no_cpus = serving_fixture(4, 1000.0, 2000.0)
    del no_cpus["cpus"]
    gate_cases = [
        ("gate pass", serving_fixture(4, 1000.0, 1000.0 * bound + 1.0), "clean"),
        ("gate ratio below bound",
         serving_fixture(4, 1000.0, 1000.0 * bound - 1.0), "findings"),
        ("gate missing pool mode", {"cpus": 4, "modes": [
            {"backend": "sim", "mode": "serial", "requests_per_s": 1000.0}]},
         "findings"),
        ("gate missing cpus", no_cpus, "findings"),
        ("gate small host", serving_fixture(2, 1000.0, 1000.0), "skipped"),
    ]
    for label, data, expect in gate_cases:
        hits, summary, skipped = gate_serving_data(label, data)
        got = "findings" if hits else "skipped" if skipped else "clean"
        if got != expect:
            failures.append(
                f"self-test: [serving-gate] `{label}` expected {expect}, got "
                f"{got}: {hits or summary}")
        else:
            print(f"self-test: [serving-gate] {label}: {got}: "
                  f"{hits[0] if hits else summary}")

    # And the pristine tree must be clean, or the seeds prove nothing.
    pristine = run_checks(tree, list(CHECKS))
    for f in pristine:
        failures.append(f"self-test: pristine tree not clean: {f}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=".", help="repository root")
    ap.add_argument("--check", action="append", choices=sorted(CHECKS),
                    help="run only this check (repeatable; default: all)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every check catches a seeded violation")
    ap.add_argument("--artifact", action="append", metavar="FILE",
                    help="validate an emitted BENCH_*.json or trace JSON "
                         "instead of linting sources (repeatable)")
    ap.add_argument("--serving-gate", metavar="FILE",
                    help="gate a fresh BENCH_serving.json on sim pool "
                         "capacity over the same run's serial floor")
    args = ap.parse_args()

    if args.serving_gate:
        hits, summary, skipped = gate_serving_file(args.serving_gate)
        findings = [f"{rel}:{line}: [serving-gate] {msg}"
                    for rel, line, msg in hits]
        for f in findings:
            print(f)
        if skipped:
            print(f"lint --serving-gate: SKIPPED -- {summary}")
            return 0
        if summary and not findings:
            print(f"{args.serving_gate}: {summary}")
        print(f"lint --serving-gate: {len(findings)} finding(s)"
              + (" -- FAIL" if findings else " -- OK"))
        return 1 if findings else 0

    if args.artifact:
        findings = []
        for path in args.artifact:
            for rel, line, msg in validate_artifact_file(path):
                findings.append(f"{rel}:{line}: [artifact] {msg}")
        for f in findings:
            print(f)
        print(f"lint --artifact: {len(findings)} finding(s) across "
              f"{len(args.artifact)} file(s)"
              + (" -- FAIL" if findings else " -- OK"))
        return 1 if findings else 0

    repo = Path(args.repo).resolve()
    if not (repo / REQUEST_HPP).is_file():
        print(f"lint: {repo} does not look like the lac repo "
              f"(missing {REQUEST_HPP})", file=sys.stderr)
        return 2
    tree = Tree.load(repo)

    if args.self_test:
        failures = self_test(tree)
        for f in failures:
            print(f, file=sys.stderr)
        print(f"lint self-test: {'FAIL' if failures else 'OK'}")
        return 1 if failures else 0

    findings = run_checks(tree, args.check or list(CHECKS))
    for f in findings:
        print(f)
    print(f"lint: {len(findings)} finding(s) across "
          f"{len(tree.files)} files" + (" -- FAIL" if findings else " -- OK"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

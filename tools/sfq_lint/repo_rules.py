"""Repo-level rules: derived rule inputs plus the whole-tree checks.

Ported from sfq-lint v1 unchanged: the Status-method scan that feeds
dropped-status, the failpoint site tables, the concurrent-label check over
tests/CMakeLists.txt, the server opcode registry audit, and the
nodiscard-decl disarmament check. Added since: the orphan-module check
(every src/ header has a caller outside tests, examples and, above the
stream layer, the bench/ experiment drivers).
"""

from __future__ import annotations

import os
import re

from .findings import Finding, report_unless_suppressed
from .include_graph import CXX_EXTENSIONS, classify_include, file_includes
from .tokenizer import code_lines

# Trees whose includes make a module live. Tests and examples are not
# callers: a module only they reach is dead library code.
CALLER_DIRS = ("src", "tools", "sfq_bench")

# The paper's experiment drivers under bench/ call only the workload
# generators: the stream layer exists to feed them, so a bench/ include
# keeps a src/stream/ header live. Every layer above it needs a real caller.
EXPERIMENT_DIR = "bench"
WORKLOAD_LAYER = "src/stream/"


def walk_files(top, extensions):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(extensions):
                yield os.path.join(dirpath, name)


def scan_status_methods(root):
    """Derives the set of Status-returning method names from src/ headers."""
    methods = set()
    decl = re.compile(
        r"(?:\[\[nodiscard\]\]\s+)?(?:virtual\s+)?Status\s+([A-Z]\w*)\s*\("
    )
    for path in walk_files(os.path.join(root, "src"), (".h",)):
        with open(path, encoding="utf-8") as f:
            for line in f:
                m = decl.search(line)
                # `static Status Foo(` lines in status.h are Status's own
                # factories, not fallible operations.
                if m and "static Status" not in line:
                    methods.add(m.group(1))
    return methods


def scan_failpoint_sites(root):
    """Returns (registered, documented) failpoint site-name sets.

    Registered sites come from the BuildKnownSites() table in
    src/util/failpoint.cc; documented sites are the backtick-quoted
    `component.site` tokens in docs/ROBUSTNESS.md. Either set is empty when
    its source file is missing, which disables that half of the rule rather
    than flagging every planted site.
    """
    site_re = re.compile(r'"([a-z_]+\.[a-z_]+)"')
    registered = set()
    try:
        with open(
            os.path.join(root, "src", "util", "failpoint.cc"), encoding="utf-8"
        ) as f:
            m = re.search(r"BuildKnownSites\(\)\s*\{(.*?)\};", f.read(), re.S)
            if m:
                registered = set(site_re.findall(m.group(1)))
    except OSError:
        pass
    documented = set()
    try:
        with open(
            os.path.join(root, "docs", "ROBUSTNESS.md"), encoding="utf-8"
        ) as f:
            documented = set(re.findall(r"`([a-z_]+\.[a-z_]+)`", f.read()))
    except OSError:
        pass
    return frozenset(registered), frozenset(documented)


def check_concurrent_label(cmake_path, src_dir, relprefix):
    """Tests using src/concurrent/ must carry the `concurrent` ctest label."""
    findings = []
    try:
        with open(cmake_path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return findings
    m = re.search(r"set\(STREAMFREQ_TESTS\s*(.*?)\)", text, re.S)
    if not m:
        return findings
    tests = re.findall(r"[\w-]+", m.group(1))
    labelled = set()
    for props in re.finditer(r"set_tests_properties\((.*?)\)", text, re.S):
        body = props.group(1)
        if re.search(r"LABELS\s+\S*concurrent", body):
            labelled.update(re.findall(r"[\w-]+", body.split("PROPERTIES")[0]))
    for test in tests:
        src = os.path.join(src_dir, test + ".cc")
        if not os.path.exists(src):
            continue
        with open(src, encoding="utf-8") as f:
            uses_concurrent = '#include "concurrent/' in f.read()
        if uses_concurrent and test not in labelled:
            line = 1 + text[: text.find(test)].count("\n")
            findings.append(
                Finding(
                    relprefix + "CMakeLists.txt",
                    line,
                    "concurrent-label",
                    f"{test} exercises src/concurrent/ but lacks the "
                    "`concurrent` ctest label, so the TSan step "
                    "(ctest -L concurrent) never runs it.",
                )
            )
    return findings


def check_server_opcode_registry(root):
    """kOpcodeTable must cover the Opcode enum exactly, kOpcodeCount too.

    The wire protocol's invariants (dense opcodes, name round-trips, the
    per-opcode corruption matrix) all quantify over OpcodeTable(); an
    enumerator missing from the table would decode via the enum but
    dispatch nowhere, and a stale kOpcodeCount silently truncates the
    registry span. Both files absent disables the rule (pre-server trees).
    """
    findings = []
    header = os.path.join(root, "src", "server", "protocol.h")
    source = os.path.join(root, "src", "server", "protocol.cc")
    try:
        with open(header, encoding="utf-8") as f:
            header_text = f.read()
        with open(source, encoding="utf-8") as f:
            source_text = f.read()
    except OSError:
        return findings

    enum_match = re.search(
        r"enum\s+class\s+Opcode[^{]*\{(.*?)\};", header_text, re.S
    )
    table_match = re.search(
        r"kOpcodeTable\s*\[[^\]]*\]\s*=\s*\{(.*?)\};", source_text, re.S
    )
    count_match = re.search(r"kOpcodeCount\s*=\s*(\d+)", header_text)
    if not enum_match:
        findings.append(
            Finding("src/server/protocol.h", 1, "server-opcode",
                    "cannot find the `enum class Opcode` definition the "
                    "opcode-registry check quantifies over."))
        return findings
    if not table_match:
        findings.append(
            Finding("src/server/protocol.cc", 1, "server-opcode",
                    "cannot find the kOpcodeTable registry the wire "
                    "protocol dispatches through."))
        return findings

    enumerators = re.findall(r"\b(k[A-Z]\w*)\s*=\s*\d+", enum_match.group(1))
    table_rows = re.findall(r"Opcode\s*::\s*(k[A-Z]\w*)", table_match.group(1))
    enum_line = 1 + header_text[: enum_match.start()].count("\n")
    table_line = 1 + source_text[: table_match.start()].count("\n")

    for name in sorted(set(enumerators) - set(table_rows)):
        findings.append(
            Finding("src/server/protocol.cc", table_line, "server-opcode",
                    f"Opcode::{name} is declared in protocol.h but has no "
                    "kOpcodeTable row: it would decode and then dispatch "
                    "nowhere. Register it (name + needs_tenant)."))
    for name in sorted(set(table_rows) - set(enumerators)):
        findings.append(
            Finding("src/server/protocol.cc", table_line, "server-opcode",
                    f"kOpcodeTable row Opcode::{name} has no matching "
                    "enumerator in protocol.h."))
    seen = set()
    for name in table_rows:
        if name in seen:
            findings.append(
                Finding("src/server/protocol.cc", table_line, "server-opcode",
                        f"kOpcodeTable registers Opcode::{name} twice; "
                        "LookupOpcode/OpcodeName take the first hit and the "
                        "duplicate row is dead."))
        seen.add(name)
    if count_match and int(count_match.group(1)) != len(enumerators):
        findings.append(
            Finding("src/server/protocol.h", enum_line, "server-opcode",
                    f"kOpcodeCount = {count_match.group(1)} but the enum "
                    f"declares {len(enumerators)} opcodes; the registry "
                    "span and the dense-range checks are sized wrong."))
    return findings


def check_nodiscard_decl(root):
    """The enforcement layer must not be quietly disarmed."""
    findings = []
    wanted = [
        ("src/util/status.h", r"class \[\[nodiscard\]\] Status",
         "Status lost its class-level [[nodiscard]]: dropped errors compile "
         "clean again."),
        ("src/util/result.h", r"class \[\[nodiscard\]\] Result",
         "Result lost its class-level [[nodiscard]]: dropped values/errors "
         "compile clean again."),
        ("src/util/macros.h", r"#define SFQ_GUARDED_BY\(",
         "the SFQ_GUARDED_BY annotation macro is gone: the thread-safety "
         "analysis has nothing to check."),
    ]
    for rel, pattern, message in wanted:
        path = os.path.join(root, rel)
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError:
            text = ""
        if not re.search(pattern, text):
            findings.append(Finding(rel, 1, "nodiscard-decl", message))
    return findings


def check_orphan_modules(root):
    """Every src/<layer>/<m>.h needs a caller besides its own .cc."""
    includers = {}
    for sub in CALLER_DIRS + (EXPERIMENT_DIR,):
        for path in walk_files(os.path.join(root, sub), CXX_EXTENSIONS):
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for _, target in file_includes(text.splitlines(),
                                           code_lines(text)):
                includers.setdefault(classify_include(target), set()).add(rel)
    findings = []
    for path in walk_files(os.path.join(root, "src"), (".h",)):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel.count("/") != 2:
            continue
        own_source = rel[: -len(".h")] + ".cc"
        callers = includers.get(rel, set()) - {own_source}
        if not rel.startswith(WORKLOAD_LAYER):
            callers = {c for c in callers
                       if not c.startswith(EXPERIMENT_DIR + "/")}
        if callers:
            continue
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        report_unless_suppressed(
            findings, raw, rel, 0, "orphan-module",
            f"{rel} has no caller: nothing under "
            f"{'/, '.join(CALLER_DIRS)}/ includes it except {own_source}; "
            f"{EXPERIMENT_DIR}/ counts only for {WORKLOAD_LAYER}, and tests "
            "and examples do not count. Give it a real caller or delete it "
            "with its test.")
    return findings

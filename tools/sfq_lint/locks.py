"""Lock-order and blocking-under-lock analyses (rules: lock-order,
blocking-under-lock).

The lock graph has a node per mutex (qualified as `Class::member` where the
owning class is known) and an edge A -> B whenever B is acquired while A is
held. Edges come from two sources:

  * **lexical nesting** — a `MutexLock` constructed inside the scope of
    another `MutexLock` in any function body under `src/`;
  * **declared order** — a `SFQ_ACQUIRED_AFTER(a)` annotation on a Mutex
    member `b` contributes the edge a -> b, so the documented protocol in
    headers (e.g. `SfqServer::stop_mu_` before `mu_`) is checked against
    the code even when the nesting lives in a file the scanner mis-parses.

Any cycle in that graph is a deadlock risk: two threads taking the locks
in opposite orders can each hold one and wait forever for the other.

The blocking-under-lock half walks the same lexical scopes in
`src/server/` and `src/concurrent/` and flags blocking syscalls
(read/write/accept/connect/poll/...), the blocking queue calls (`Reserve`
on a BatchQueue, `Admit` on a ParallelIngestor: both wait for queue
room), and condition-variable waits while a MutexLock is held — except a
CondVar wait on exactly the mutexes currently held's *own* mutex, which
is the one sanctioned blocking-under-lock pattern (the wait releases that
mutex). The queue calls keep the rule that no queue wait happens under a
durable tenant's store lock.

Both are lexical analyses: they see scopes, not data flow, which is
exactly the right fidelity for a lint — the annotated wrappers in
util/mutex.h make real lock usage lexical by construction.
"""

from __future__ import annotations

import re

from .findings import report_unless_suppressed
from .include_graph import _tarjan

MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*([^)]+?)\s*\)")
ACQUIRED_AFTER_RE = re.compile(
    r"\bMutex\s+(\w+)\s+SFQ_ACQUIRED_AFTER\(\s*([^)]+?)\s*\)")
CLASS_RE = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)")
# A qualified method *definition* line: only declaration-looking characters
# may precede `Cls::Method(` (no `=`, `(`, `.`, `"` ...), which keeps call
# sites like `auto x = std::min(` from being mistaken for a method scope.
# The greedy prefix makes the capture the last qualifier before the name,
# so `void streamfreq::SfqServer::Stop()` yields SfqServer.
QUAL_FUNC_RE = re.compile(r"^[\w\s:<>*&\[\]]*\b([A-Za-z_]\w*)::~?\w+\s*\(")
MUTEX_MEMBER_RE = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*(?:;|SFQ_)")
WAIT_RE = re.compile(r"(?:\.|->)\s*Wait(?:For)?\s*\(\s*([^,)]+?)\s*[,)]")
BLOCKING_RE = re.compile(
    r"(?<![\w.>])(?:::\s*)?(read|write|pread|pwrite|readv|writev|recv|"
    r"recvfrom|recvmsg|send|sendto|sendmsg|accept|accept4|connect|poll|"
    r"select)\s*\(")
# The queue calls that wait for room. Commit/Enqueue never block.
QUEUE_WAIT_RE = re.compile(r"\b(Reserve|Admit)\s*\(")

# The server's socket transport lives in src/util/net.*, below dist.
BLOCKING_DIRS = ("src/server/", "src/concurrent/", "src/util/net.")


def scan_mutex_members(files):
    """member name -> sorted list of class names declaring `Mutex <name>`.

    `files` is an iterable of (relpath, raw_lines, code_lines). Used to
    qualify lock expressions like `tenant->mu` with their owning class.
    """
    members = {}
    for _, _, code in files:
        ctx = _ClassTracker()
        for line in code:
            cls = ctx.feed_and_current(line)
            m = MUTEX_MEMBER_RE.match(line)
            if m and cls:
                members.setdefault(m.group(1), set()).add(cls)
    return {k: sorted(v) for k, v in members.items()}


class _ClassTracker:
    """Minimal class/struct scope tracker over code lines."""

    def __init__(self):
        self.depth = 0
        self.stack = []  # (name, depth)
        self.pending = None

    def feed_and_current(self, line):
        """Processes one code line; returns the class context *during* it."""
        current = self.stack[-1][0] if self.stack else None
        m = CLASS_RE.search(line)
        if m and not re.search(r"\b(?:class|struct)\s+\w+\s*;", line):
            self.pending = m.group(1)
        for c in line:
            if c == "{":
                self.depth += 1
                if self.pending:
                    self.stack.append((self.pending, self.depth))
                    self.pending = None
            elif c == "}":
                if self.stack and self.stack[-1][1] == self.depth:
                    self.stack.pop()
                self.depth -= 1
            elif c == ";" and self.pending:
                self.pending = None  # forward declaration
        return current


class LockScanner:
    """Extracts lock-graph edges and blocking-under-lock findings from one
    file, by walking brace scopes with the held-lock stack."""

    def __init__(self, relpath, raw_lines, code, member_classes):
        self.path = relpath
        self.raw = raw_lines
        self.code = code
        self.members = member_classes
        self.check_blocking = relpath.startswith(BLOCKING_DIRS)
        # edge key (from, to) -> (path, 0-based line of the inner acquire)
        self.edges = {}
        self.findings = []

    def scan(self):
        depth = 0
        # context stack: (kind, name, depth) for every open brace
        ctx = []
        pending = None  # ('class'|'func', name)
        locks = []  # (node, scope_depth, line_idx)
        for idx, line in enumerate(self.code):
            events = []
            for pos, c in enumerate(line):
                if c in "{};":
                    events.append((pos, c, None))
            m = CLASS_RE.search(line)
            if m:
                events.append((m.start(), "class", m.group(1)))
            m = QUAL_FUNC_RE.search(line)
            if m:
                events.append((m.start(), "func", m.group(1)))
            for m in MUTEXLOCK_RE.finditer(line):
                events.append((m.start(), "lock", m.group(1)))
            for m in ACQUIRED_AFTER_RE.finditer(line):
                events.append((m.start(), "aa", m.groups()))
            if self.check_blocking:
                for m in WAIT_RE.finditer(line):
                    events.append((m.start(), "wait", m.group(1)))
                for m in BLOCKING_RE.finditer(line):
                    events.append((m.start(), "block", m.group(1)))
                for m in QUEUE_WAIT_RE.finditer(line):
                    events.append((m.start(), "block", m.group(1)))
            events.sort(key=lambda e: e[0])

            for pos, kind, payload in events:
                if kind == "{":
                    depth += 1
                    ctx.append((pending[0], pending[1], depth) if pending
                               else ("block", None, depth))
                    pending = None
                elif kind == "}":
                    if ctx and ctx[-1][2] == depth:
                        ctx.pop()
                    depth -= 1
                    while locks and locks[-1][1] > depth:
                        locks.pop()
                elif kind == ";":
                    pending = None  # `Cls x;` / `class Fwd;` open no scope
                elif kind == "class":
                    pending = ("class", payload)
                elif kind == "func":
                    if pending is None:  # class decl wins over Cls::Method
                        pending = ("func", payload)
                elif kind == "lock":
                    node = self._node(payload, ctx)
                    for held, _, _ in locks:
                        if held != node:
                            self.edges.setdefault(
                                (held, node), (self.path, idx))
                    locks.append((node, depth, idx))
                elif kind == "aa":
                    member, after = payload
                    cls = _enclosing(ctx, "class")
                    lo = self._node(after, ctx)
                    hi = f"{cls}::{member}" if cls else member
                    self.edges.setdefault((lo, hi), (self.path, idx))
                elif kind == "wait":
                    waited = self._node(payload, ctx)
                    others = [n for n, _, _ in locks if n != waited]
                    if others:
                        report_unless_suppressed(
                            self.findings, self.raw, self.path, idx,
                            "blocking-under-lock",
                            f"condition-variable wait on {waited} while "
                            f"also holding {', '.join(others)}: the wait "
                            "releases only its own mutex, so the others "
                            "stay held for an unbounded time.")
                elif kind == "block" and locks:
                    held = ", ".join(n for n, _, _ in locks)
                    report_unless_suppressed(
                        self.findings, self.raw, self.path, idx,
                        "blocking-under-lock",
                        f"blocking call {payload}() while holding {held}; "
                        "move the I/O outside the critical section (copy "
                        "the data out under the lock, then block).")
        return self.edges, self.findings

    def _node(self, expr, ctx):
        """Canonical lock-graph node name for a lock expression."""
        e = re.sub(r"\s+", "", expr).replace("this->", "").lstrip("&*")
        e = e.replace("->", ".")
        if "." in e:
            member = e.rsplit(".", 1)[1]
            owners = self.members.get(member, [])
            if len(owners) == 1:
                return f"{owners[0]}::{member}"
            return e
        cls = _enclosing(ctx, "class") or _enclosing(ctx, "func")
        owners = self.members.get(e, [])
        if cls and (cls in owners or e.endswith("_")):
            return f"{cls}::{e}"
        if len(owners) == 1:
            return f"{owners[0]}::{e}"
        return e


def _enclosing(ctx, kind):
    for k, name, _ in reversed(ctx):
        if k == kind:
            return name
    return None


def analyze(files, texts=None):
    """Runs both lock analyses over `files` [(relpath, raw, code)].

    Returns [Finding]. `texts` maps relpath -> raw_lines for suppression
    lookup at cycle-anchor sites (defaults to the raw lines in `files`).
    """
    texts = texts or {rel: raw for rel, raw, _ in files}
    member_classes = scan_mutex_members(files)
    edges = {}
    findings = []
    for rel, raw, code in files:
        if not rel.endswith((".h", ".cc", ".cpp", ".hpp")):
            continue
        file_edges, file_findings = LockScanner(
            rel, raw, code, member_classes).scan()
        findings += file_findings
        for key, site in file_edges.items():
            edges.setdefault(key, site)

    adj = {}
    for (a, b), _ in edges.items():
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set())
    adj = {k: sorted(v) for k, v in adj.items()}
    for scc in _tarjan(adj):
        if len(scc) == 1 and scc[0] not in adj.get(scc[0], []):
            continue
        cycle = _order_cycle(adj, scc)
        sites = []
        for i, node in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            site = edges.get((node, nxt))
            if site:
                sites.append(f"{site[0]}:{site[1] + 1}")
        first_edge = (cycle[0], cycle[1 % len(cycle)])
        anchor_path, anchor_idx = edges.get(first_edge, sites and (
            sites[0].rsplit(":", 1)[0], int(sites[0].rsplit(":", 1)[1]) - 1
        ) or (files[0][0], 0))
        report_unless_suppressed(
            findings, texts.get(anchor_path, []), anchor_path, anchor_idx,
            "lock-order",
            "lock-order cycle (deadlock risk): "
            + " -> ".join(cycle) + " -> " + cycle[0]
            + "; acquisition sites: " + ", ".join(sites)
            + ". Pick one global order (document it with "
            "SFQ_ACQUIRED_AFTER) and restructure the outlier.")
    return findings


def _order_cycle(adj, scc):
    """Deterministic cycle node order through the SCC's smallest node."""
    start = min(scc)
    in_scc = set(scc)
    stack = [(start, [start])]
    seen = {start}
    while stack:
        node, path = stack.pop()
        for nxt in sorted(adj.get(node, []), reverse=True):
            if nxt == start:
                return path
            if nxt in in_scc and nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + [nxt]))
    return sorted(scc)

#!/usr/bin/env python3
"""pivot_lint: repo-invariant checks the C++ compiler cannot express.

Rules (see DESIGN.md, "Correctness tooling"):

  banned-random     rand()/srand()/std::random_device anywhere except
                    src/common/rng.* — all randomness must flow through the
                    seeded Rng so multi-party protocol runs stay
                    deterministic and reproducible.

  secret-print      printf/std::cout/puts/fprintf(stdout, ...) inside src/.
                    Library code handles shares, ciphertexts, and key
                    material; it must never print to stdout. Diagnostics go
                    to stderr (PIVOT_CHECK) or into Status messages. Tools,
                    benches, examples, and tests are exempt.

  include-guard     Headers under src/, tools/, and bench/ must use the
                    canonical guard PIVOT_<RELPATH>_H_ (src/ is stripped
                    from the prefix: src/net/network.h ->
                    PIVOT_NET_NETWORK_H_; elsewhere the full path is used:
                    bench/bench_util.h -> PIVOT_BENCH_BENCH_UTIL_H_), with
                    a matching #define.

  unchecked-value   .value() on a Result inside src/, tools/, or bench/
                    without a preceding check in the same function (an ok()
                    test, a PIVOT_CHECK, or a PIVOT_ASSIGN_OR_RETURN /
                    PIVOT_RETURN_IF_ERROR). src/common/status.h (the
                    definition site) is exempt.

  unbounded-wait    condition_variable wait() without a timeout, or a raw
                    MessageQueue Pop(), in src/ outside src/net/. Blocking
                    primitives must live behind the network layer, whose
                    waits are bounded by recv_timeout_ms and woken by
                    Abort(); an unbounded wait elsewhere can hang the party
                    mesh forever when a peer dies (see DESIGN.md, "Fault
                    model"). Use wait_for/wait_until or Endpoint Recv.

  raw-std-thread    std::thread (or #include <thread>) in src/ outside
                    src/common/ and src/net/. Compute parallelism must go
                    through the shared ThreadPool (common/thread_pool.h)
                    so fan-out is centrally capped and deterministic;
                    party threads live in the runner behind src/net/
                    channels (see DESIGN.md, "Parallelism model").

  unbounded-retry   an unbounded loop (while (true) / for (;;)) that talks
                    about retrying (retry/retransmit/resend/backoff/nack)
                    with no budget in scope (retry_budget, a deadline, or
                    max_restarts) in src/. Recovery loops must be bounded
                    so a persistent fault exhausts its budget and
                    escalates to the abort path instead of spinning
                    forever (see DESIGN.md, "Fault model").

  raw-socket        raw socket API use — socket(2)/::send/::recv and
                    friends, sockaddr types, or the BSD socket headers —
                    in src/, tools/, or bench/ outside src/net/. All
                    byte-moving goes through the Endpoint abstraction so
                    framing, reliability, supervision, and fault
                    injection cannot be bypassed (see DESIGN.md,
                    "Transport model"). Tests are exempt (they drive
                    SocketNetwork directly).

  raw-process       process-control syscalls — fork/exec*/kill/waitpid
                    and friends, system(3)/popen(3) — in src/, tools/,
                    or bench/ outside src/orchestrator/. Child processes
                    are spawned, signalled, and reaped only through
                    orchestrator/process.h so every child is supervised,
                    its logs captured, and its exit reaped and
                    attributed (see DESIGN.md, "Orchestration model").
                    Tests are exempt (shell-script harnesses kill
                    parties directly).

  seq-frame-home    BuildSeqFrame/ParseSeqFrame used anywhere but
                    src/net/channel.cc (their declarations and
                    definitions in src/net/wire.{h,cc} aside). The
                    reliable-channel core is the one place that frames,
                    buffers and recovers messages for both transports;
                    a second caller is a second copy of that protocol
                    drifting on its own (see DESIGN.md, "Transport
                    model"). Tests are exempt (they probe the codec
                    directly).

  tree-codec-home   Encoding or decoding of a PivotNode field that the
                    model codec carries (threshold_share, leaf_share,
                    leaf_mask, lambda_slices: a line naming one of them
                    next to an Encode*/Decode* call or a ByteWriter/
                    ByteReader Write*/Read*) anywhere but
                    src/pivot/serialize.cc. Model files, training
                    checkpoints and test fingerprints share that one
                    node encoding; a second copy drifts on its own.
                    Tests are not exempt.

  fixed-point-home  frac_bits, value_bits, stat_sec, FixedPointParams or
                    MpcConfig anywhere but src/common/fixed_point.h. The
                    fixed-point format (f, k, κ) is one set of protocol
                    constants (kFracBits, kValueBits, kStatSec) in that
                    header; a second copy, or a setting that overrides
                    it, drifts on its own. Tests are not exempt.

Usage:
  tools/pivot_lint.py [ROOT]            lint the whole tree (default: cwd)
  tools/pivot_lint.py ROOT --files F... lint specific files only

Exit status: 0 if clean, 1 if any finding, 2 on usage error.
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".cc", ".cpp", ".h", ".hpp")
SKIP_DIR_NAMES = {".git", "bench_results", "third_party", "__pycache__"}
SKIP_DIR_PREFIXES = ("build",)

RE_BANNED_RANDOM = re.compile(
    r"(?<![A-Za-z0-9_])(?:srand|rand)\s*\(|(?<![A-Za-z0-9_])random_device\b"
)
RE_SECRET_PRINT = re.compile(
    r"(?<![A-Za-z0-9_])printf\s*\(|std::cout\b|(?<![A-Za-z0-9_])puts\s*\(|"
    r"fprintf\s*\(\s*stdout\b"
)
RE_VALUE_CALL = re.compile(r"\.value\(\)")
RE_VALUE_CHECKED = re.compile(
    r"\bok\s*\(\)|PIVOT_ASSIGN_OR_RETURN|PIVOT_RETURN_IF_ERROR|PIVOT_CHECK"
)
RE_LINE_COMMENT = re.compile(r"//.*$")
RE_UNBOUNDED_WAIT = re.compile(
    r"(?:\.|->)wait\s*\(|(?:\.|->)Pop\s*\(|MessageQueue::Pop\b"
)
RE_UNBOUNDED_LOOP = re.compile(r"while\s*\(\s*(?:true|1)\s*\)|for\s*\(\s*;\s*;")
RE_RAW_STD_THREAD = re.compile(r"\bstd::thread\b|#\s*include\s*<thread>")
RE_RETRY_KEYWORD = re.compile(
    r"retry|retransmit|resend|backoff|nack", re.IGNORECASE)
RE_RETRY_BOUND = re.compile(
    r"budget|deadline|max_restarts", re.IGNORECASE)
# Raw socket surface: the BSD socket headers, the sockaddr family, and
# ::-qualified (or socket(2) itself, bare) syscalls. Lowercase send/recv
# are matched only with explicit :: qualification so Endpoint method
# calls (ep.Send / ep->Recv) and unrelated identifiers never trip it.
RE_RAW_SOCKET = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|sys/un\.h|netinet/[^>]+|arpa/inet\.h)>"
    r"|\bsockaddr(?:_in|_un|_storage)?\b"
    r"|::\s*(?:socket|send|recv|sendto|recvfrom|sendmsg|recvmsg|connect|"
    r"bind|listen|accept|setsockopt|getsockname)\s*\("
    r"|(?<![A-Za-z0-9_:.>])socket\s*\(")
# Process-control surface. Only full identifiers followed by '(' are
# matched, so cv.wait_for(...), kill_sent, force_kill(...) and "SIGKILL"
# strings never trip it; ::-qualified calls still do (':' is outside the
# lookbehind class). Plain wait() is deliberately absent — it collides
# with condition_variable::wait, and waitpid covers the repo.
RE_RAW_PROCESS = re.compile(
    r"(?<![A-Za-z0-9_])(?:fork|vfork|execv|execve|execvp|execvpe|execl|"
    r"execlp|execle|posix_spawn|posix_spawnp|waitpid|wait3|wait4|kill|"
    r"killpg|system|popen)\s*\(")
RE_SEQ_FRAME = re.compile(
    r"(?<![A-Za-z0-9_])(?:BuildSeqFrame|ParseSeqFrame)\b")
SEQ_FRAME_HOMES = ("src/net/channel.cc", "src/net/wire.h", "src/net/wire.cc")
RE_TREE_FIELD = re.compile(
    r"\b(?:threshold_share|leaf_share|leaf_mask|lambda_slices)\b")
RE_CODEC_CALL = re.compile(
    r"(?<![A-Za-z0-9_])(?:Encode|Decode)\w*\s*\(|\.(?:Write|Read)\w+\s*\(")
TREE_CODEC_HOME = "src/pivot/serialize.cc"
RE_FIXED_POINT_KNOB = re.compile(
    r"\b(?:frac_bits|value_bits|stat_sec|FixedPointParams|MpcConfig)\b")
FIXED_POINT_HOME = "src/common/fixed_point.h"


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def is_rng_impl(rel):
    return rel in ("src/common/rng.h", "src/common/rng.cc")


def strip_comment(line):
    """Drop a trailing // comment so commented-out code is not flagged."""
    return RE_LINE_COMMENT.sub("", line)


def expected_guard(rel):
    """src/net/network.h -> PIVOT_NET_NETWORK_H_ (src/ is stripped);
    bench/bench_util.h -> PIVOT_BENCH_BENCH_UTIL_H_ (full path kept)."""
    stem = rel[len("src/"):] if rel.startswith("src/") else rel
    return "PIVOT_" + re.sub(r"[/.\-]", "_", stem).upper() + "_"


def check_banned_random(rel, lines, findings):
    if is_rng_impl(rel):
        return
    for i, line in enumerate(lines, 1):
        if RE_BANNED_RANDOM.search(strip_comment(line)):
            findings.append(Finding(
                rel, i, "banned-random",
                "rand()/srand()/std::random_device outside src/common/rng.*; "
                "use pivot::Rng so runs stay deterministic"))


def check_secret_print(rel, lines, findings):
    if not rel.startswith("src/"):
        return
    for i, line in enumerate(lines, 1):
        if RE_SECRET_PRINT.search(strip_comment(line)):
            findings.append(Finding(
                rel, i, "secret-print",
                "stdout printing in library code (share/ciphertext hygiene); "
                "use stderr or Status messages"))


def check_include_guard(rel, lines, findings):
    if not (rel.startswith(("src/", "tools/", "bench/")) and
            rel.endswith((".h", ".hpp"))):
        return
    want = expected_guard(rel)
    ifndef_idx = None
    guard = None
    for i, line in enumerate(lines, 1):
        m = re.match(r"\s*#ifndef\s+(\S+)", line)
        if m:
            ifndef_idx, guard = i, m.group(1)
            break
    if guard is None:
        findings.append(Finding(rel, 1, "include-guard",
                                f"missing include guard (expected {want})"))
        return
    if guard != want:
        findings.append(Finding(rel, ifndef_idx, "include-guard",
                                f"guard is {guard}, expected {want}"))
        return
    defines = any(re.match(r"\s*#define\s+" + re.escape(want) + r"\b", l)
                  for l in lines)
    if not defines:
        findings.append(Finding(rel, ifndef_idx, "include-guard",
                                f"#ifndef {want} without matching #define"))


def check_unchecked_value(rel, lines, findings):
    if not rel.startswith(("src/", "tools/", "bench/")) or \
            rel == "src/common/status.h":
        return
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        if not RE_VALUE_CALL.search(code):
            continue
        # Scan backwards through the enclosing function (approximated as
        # everything up to the previous column-0 '}' or the file start)
        # looking for an ok() check or a check/propagation macro.
        checked = False
        for j in range(i - 2, -1, -1):
            prev = lines[j]
            if prev.startswith("}"):
                break
            if RE_VALUE_CHECKED.search(strip_comment(prev)):
                checked = True
                break
        if not checked:
            findings.append(Finding(
                rel, i, "unchecked-value",
                ".value() on a Result with no preceding ok() check or "
                "PIVOT_* check macro in the same function"))


def check_unbounded_wait(rel, lines, findings):
    if not rel.startswith("src/") or rel.startswith("src/net/"):
        return
    for i, line in enumerate(lines, 1):
        if RE_UNBOUNDED_WAIT.search(strip_comment(line)):
            findings.append(Finding(
                rel, i, "unbounded-wait",
                "unbounded wait()/raw MessageQueue Pop() outside src/net/; "
                "blocking must go through Endpoint so Abort() and "
                "recv_timeout_ms can wake it"))


def check_raw_std_thread(rel, lines, findings):
    if not rel.startswith("src/"):
        return
    if rel.startswith(("src/common/", "src/net/")):
        return
    for i, line in enumerate(lines, 1):
        if RE_RAW_STD_THREAD.search(strip_comment(line)):
            findings.append(Finding(
                rel, i, "raw-std-thread",
                "raw std::thread outside src/common/ and src/net/; use the "
                "shared ThreadPool (common/thread_pool.h) so fan-out stays "
                "centrally capped and thread-count invariant"))


def check_unbounded_retry(rel, lines, findings):
    if not rel.startswith("src/"):
        return
    # Segment the file at column-0 '}' (function-level approximation, as
    # in check_unchecked_value) and flag segments that contain an
    # unbounded loop and retry vocabulary but never reference a bound.
    boundaries = [0]
    for i, line in enumerate(lines, 1):
        if line.startswith("}"):
            boundaries.append(i)
    boundaries.append(len(lines))
    for start, end in zip(boundaries, boundaries[1:]):
        seg = [strip_comment(l) for l in lines[start:end]]
        loop_line = None
        for off, code in enumerate(seg):
            if RE_UNBOUNDED_LOOP.search(code):
                loop_line = start + off + 1
                break
        if loop_line is None:
            continue
        text = "\n".join(seg)
        if RE_RETRY_KEYWORD.search(text) and not RE_RETRY_BOUND.search(text):
            findings.append(Finding(
                rel, loop_line, "unbounded-retry",
                "unbounded retry/backoff loop with no budget in scope; "
                "bound it (retry_budget, a deadline, or max_restarts) so a "
                "persistent fault escalates instead of spinning forever"))


def check_raw_socket(rel, lines, findings):
    if not rel.startswith(("src/", "tools/", "bench/")):
        return
    if rel.startswith("src/net/"):
        return
    for i, line in enumerate(lines, 1):
        if RE_RAW_SOCKET.search(strip_comment(line)):
            findings.append(Finding(
                rel, i, "raw-socket",
                "raw socket API outside src/net/; all transport goes "
                "through Endpoint/SocketNetwork so framing, reliability, "
                "supervision and fault injection cannot be bypassed"))


def check_raw_process(rel, lines, findings):
    if not rel.startswith(("src/", "tools/", "bench/")):
        return
    if rel.startswith("src/orchestrator/"):
        return
    for i, line in enumerate(lines, 1):
        if RE_RAW_PROCESS.search(strip_comment(line)):
            findings.append(Finding(
                rel, i, "raw-process",
                "process-control syscall outside src/orchestrator/; "
                "fork/exec/kill/waitpid go through orchestrator/process.h "
                "so every child is supervised, logged, and reaped"))


def check_seq_frame_home(rel, lines, findings):
    if rel.startswith("tests/") or rel in SEQ_FRAME_HOMES:
        return
    for i, line in enumerate(lines, 1):
        if RE_SEQ_FRAME.search(strip_comment(line)):
            findings.append(Finding(
                rel, i, "seq-frame-home",
                "BuildSeqFrame/ParseSeqFrame outside src/net/channel.cc; "
                "framing and recovery live in the one reliable-channel "
                "core (ReliableEndpoint) shared by both transports"))


def check_tree_codec_home(rel, lines, findings):
    if rel == TREE_CODEC_HOME:
        return
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        if RE_TREE_FIELD.search(code) and RE_CODEC_CALL.search(code):
            findings.append(Finding(
                rel, i, "tree-codec-home",
                "PivotNode field encoded outside src/pivot/serialize.cc; "
                "model files, checkpoints and fingerprints share the one "
                "PVT2 node codec (SerializePivotTree)"))


def check_fixed_point_home(rel, lines, findings):
    if rel == FIXED_POINT_HOME:
        return
    for i, line in enumerate(lines, 1):
        if RE_FIXED_POINT_KNOB.search(strip_comment(line)):
            findings.append(Finding(
                rel, i, "fixed-point-home",
                "fixed-point format outside src/common/fixed_point.h; use "
                "the protocol constants kFracBits/kValueBits/kStatSec"))


CHECKS = (
    check_banned_random,
    check_secret_print,
    check_include_guard,
    check_unchecked_value,
    check_unbounded_wait,
    check_raw_std_thread,
    check_unbounded_retry,
    check_raw_socket,
    check_raw_process,
    check_seq_frame_home,
    check_tree_codec_home,
    check_fixed_point_home,
)


def lint_file(root, rel):
    path = os.path.join(root, rel)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [Finding(rel, 0, "io", f"cannot read file: {e}")]
    findings = []
    for check in CHECKS:
        check(rel, lines, findings)
    return findings


def collect_files(root):
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in SKIP_DIR_NAMES
            and not any(d.startswith(p) for p in SKIP_DIR_PREFIXES))
        for name in sorted(filenames):
            if name.endswith(CXX_EXTENSIONS):
                out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--files", nargs="*", default=None,
                        help="lint only these paths (relative to ROOT)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"pivot_lint: not a directory: {root}", file=sys.stderr)
        return 2

    rels = (args.files if args.files is not None else collect_files(root))
    findings = []
    for rel in rels:
        rel = rel.replace(os.sep, "/")
        findings.extend(lint_file(root, rel))

    for f in findings:
        print(f)
    if findings:
        print(f"pivot_lint: {len(findings)} finding(s) in "
              f"{len(set(f.path for f in findings))} file(s)",
              file=sys.stderr)
        return 1
    print(f"pivot_lint: OK ({len(rels)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Self-test for pivot_lint.py: feeds known-bad and known-good snippets
through each rule and asserts the expected findings."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pivot_lint  # noqa: E402


def run_lint(files):
    """files: {relpath: content}. Returns (exit_code, [finding_str...])."""
    with tempfile.TemporaryDirectory() as root:
        for rel, content in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        findings = []
        for rel in sorted(files):
            findings.extend(pivot_lint.lint_file(root, rel))
        return findings


def rules(findings):
    return sorted(set(f.rule for f in findings))


GOOD_HEADER = """#ifndef PIVOT_FOO_BAR_H_
#define PIVOT_FOO_BAR_H_
namespace pivot {}
#endif  // PIVOT_FOO_BAR_H_
"""


class BannedRandomTest(unittest.TestCase):
    def test_flags_rand_outside_rng(self):
        findings = run_lint({"src/mpc/engine.cc": "int x = rand();\n"})
        self.assertEqual(rules(findings), ["banned-random"])

    def test_flags_random_device(self):
        findings = run_lint(
            {"src/crypto/keygen.cc": "std::random_device rd;\n"})
        self.assertEqual(rules(findings), ["banned-random"])

    def test_flags_srand_in_tests_too(self):
        findings = run_lint({"tests/foo_test.cc": "srand(42);\n"})
        self.assertEqual(rules(findings), ["banned-random"])

    def test_allows_rng_impl(self):
        findings = run_lint(
            {"src/common/rng.cc": "std::random_device seed_source;\n"})
        self.assertEqual(findings, [])

    def test_ignores_identifiers_containing_rand(self):
        findings = run_lint(
            {"src/mpc/engine.cc": "int operand(int x);\n"
                                  "auto v = Brand(3);\n"})
        self.assertEqual(findings, [])

    def test_ignores_comments(self):
        findings = run_lint(
            {"src/mpc/engine.cc": "// unlike rand(), Rng is seeded\n"})
        self.assertEqual(findings, [])


class SecretPrintTest(unittest.TestCase):
    def test_flags_cout_in_src(self):
        findings = run_lint(
            {"src/crypto/paillier.cc": 'std::cout << share << "\\n";\n'})
        self.assertEqual(rules(findings), ["secret-print"])

    def test_flags_printf_in_src(self):
        findings = run_lint(
            {"src/mpc/engine.cc": 'printf("%llu", cipher);\n'})
        self.assertEqual(rules(findings), ["secret-print"])

    def test_flags_fprintf_stdout(self):
        findings = run_lint(
            {"src/mpc/engine.cc": 'fprintf(stdout, "%llu", c);\n'})
        self.assertEqual(rules(findings), ["secret-print"])

    def test_allows_fprintf_stderr(self):
        findings = run_lint(
            {"src/common/check.cc": 'fprintf(stderr, "check failed");\n'})
        self.assertEqual(findings, [])

    def test_allows_stdout_in_tools_and_bench(self):
        findings = run_lint({
            "tools/cli.cc": 'std::cout << "auc=" << auc;\n',
            "bench/bench_x.cc": 'printf("%.3f s", secs);\n',
        })
        self.assertEqual(findings, [])


class IncludeGuardTest(unittest.TestCase):
    def test_accepts_canonical_guard(self):
        findings = run_lint({"src/foo/bar.h": GOOD_HEADER})
        self.assertEqual(findings, [])

    def test_flags_wrong_guard_name(self):
        bad = GOOD_HEADER.replace("PIVOT_FOO_BAR_H_", "BAR_H")
        findings = run_lint({"src/foo/bar.h": bad})
        self.assertEqual(rules(findings), ["include-guard"])

    def test_flags_missing_guard(self):
        findings = run_lint({"src/foo/bar.h": "namespace pivot {}\n"})
        self.assertEqual(rules(findings), ["include-guard"])

    def test_flags_ifndef_without_define(self):
        bad = "#ifndef PIVOT_FOO_BAR_H_\nnamespace pivot {}\n#endif\n"
        findings = run_lint({"src/foo/bar.h": bad})
        self.assertEqual(rules(findings), ["include-guard"])

    def test_ignores_headers_outside_covered_dirs(self):
        # tests/ and examples/ headers are exempt; bench/ and tools/ are
        # covered (see ToolsAndBenchCoverageTest).
        findings = run_lint({"tests/util.h": "#ifndef WHATEVER_H\n"
                                             "#define WHATEVER_H\n"
                                             "#endif\n"})
        self.assertEqual(findings, [])


class UncheckedValueTest(unittest.TestCase):
    def test_flags_value_without_check(self):
        code = ("int F() {\n"
                "  Result<int> r = Parse();\n"
                "  return r.value();\n"
                "}\n")
        findings = run_lint({"src/net/codec.cc": code})
        self.assertEqual(rules(findings), ["unchecked-value"])

    def test_accepts_value_after_ok_check(self):
        code = ("int F() {\n"
                "  Result<int> r = Parse();\n"
                "  if (!r.ok()) return -1;\n"
                "  return r.value();\n"
                "}\n")
        findings = run_lint({"src/net/codec.cc": code})
        self.assertEqual(findings, [])

    def test_accepts_value_after_pivot_check(self):
        code = ("int F() {\n"
                "  Result<int> r = Parse();\n"
                "  PIVOT_CHECK_MSG(r.ok(), \"parse\");\n"
                "  return r.value();\n"
                "}\n")
        findings = run_lint({"src/net/codec.cc": code})
        self.assertEqual(findings, [])

    def test_check_in_previous_function_does_not_count(self):
        code = ("int G() {\n"
                "  Result<int> a = Parse();\n"
                "  if (!a.ok()) return -1;\n"
                "  return a.value();\n"
                "}\n"
                "int F() {\n"
                "  Result<int> r = Parse();\n"
                "  return r.value();\n"
                "}\n")
        findings = run_lint({"src/net/codec.cc": code})
        self.assertEqual(rules(findings), ["unchecked-value"])
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 8)

    def test_has_value_is_not_value(self):
        code = "bool F() { return opt.has_value(); }\n"
        findings = run_lint({"src/pivot/params.h": code})
        # params.h has no guard in this snippet; restrict to the rule
        self.assertNotIn("unchecked-value", rules(findings))

    def test_status_definition_site_exempt(self):
        code = "lhs = std::move(res).value();\n"
        findings = run_lint({"src/common/status.h": code})
        self.assertNotIn("unchecked-value", rules(findings))

    def test_tests_directory_exempt(self):
        findings = run_lint(
            {"tests/foo_test.cc": "auto v = r.value();\n"})
        self.assertEqual(findings, [])


class UnboundedWaitTest(unittest.TestCase):
    def test_flags_cv_wait_in_src(self):
        code = ("void F() {\n"
                "  std::unique_lock<std::mutex> lk(mu);\n"
                "  cv.wait(lk, [&] { return ready; });\n"
                "}\n")
        findings = run_lint({"src/mpc/engine.cc": code})
        self.assertEqual(rules(findings), ["unbounded-wait"])

    def test_flags_raw_pop_in_src(self):
        findings = run_lint(
            {"src/pivot/trainer.cc": "auto msg = queue->Pop(1000);\n"})
        self.assertEqual(rules(findings), ["unbounded-wait"])

    def test_allows_wait_for_with_timeout(self):
        code = "cv.wait_for(lk, std::chrono::milliseconds(50));\n"
        findings = run_lint({"src/mpc/engine.cc": code})
        self.assertEqual(findings, [])

    def test_allows_wait_inside_net_layer(self):
        code = "cv_.wait(lock, [&] { return poisoned_ || !queue_.empty(); });\n"
        findings = run_lint({"src/net/network.cc": code})
        self.assertEqual(findings, [])

    def test_ignores_tests_and_tools(self):
        findings = run_lint({"tests/net_test.cc": "cv.wait(lk);\n",
                             "tools/cli.cc": "q.Pop(10);\n"})
        self.assertEqual(findings, [])

    def test_ignores_comments(self):
        findings = run_lint(
            {"src/mpc/engine.cc": "// never cv.wait( without a timeout\n"})
        self.assertEqual(findings, [])


class RawStdThreadTest(unittest.TestCase):
    def test_flags_std_thread_in_src(self):
        code = "std::thread worker([&] { Run(); });\n"
        findings = run_lint({"src/pivot/context.cc": code})
        self.assertEqual(rules(findings), ["raw-std-thread"])

    def test_flags_thread_include_in_src(self):
        findings = run_lint({"src/crypto/paillier.cc": "#include <thread>\n"})
        self.assertEqual(rules(findings), ["raw-std-thread"])

    def test_allows_thread_pool_home(self):
        code = "#include <thread>\nstd::thread t;\n"
        findings = run_lint({"src/common/thread_pool.cc": code})
        self.assertEqual(findings, [])

    def test_allows_party_threads_in_net(self):
        code = "std::thread party([&] { RunParty(); });\n"
        findings = run_lint({"src/net/runner_threads.cc": code})
        self.assertEqual(findings, [])

    def test_tests_bench_and_tools_exempt(self):
        code = "#include <thread>\nstd::thread t([] {});\n"
        findings = run_lint({"tests/pool_test.cc": code,
                             "bench/bench_x.cc": code,
                             "tools/cli.cc": code})
        self.assertEqual(findings, [])

    def test_this_thread_is_not_flagged(self):
        code = "std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
        findings = run_lint({"src/pivot/trainer.cc": code})
        self.assertEqual(findings, [])

    def test_ignores_comments(self):
        code = "// replaced the std::thread pool with ThreadPool\n"
        findings = run_lint({"src/pivot/context.cc": code})
        self.assertEqual(findings, [])


class UnboundedRetryTest(unittest.TestCase):
    def test_flags_while_true_retry_without_budget(self):
        code = ("void F() {\n"
                "  while (true) {\n"
                "    if (Retransmit()) break;\n"
                "    SleepBackoff();\n"
                "  }\n"
                "}\n")
        findings = run_lint({"src/net/network.cc": code})
        self.assertEqual(rules(findings), ["unbounded-retry"])

    def test_flags_forever_loop_with_nack(self):
        code = ("void F() {\n"
                "  for (;;) {\n"
                "    SendNack(peer, seq);\n"
                "  }\n"
                "}\n")
        findings = run_lint({"src/net/network.cc": code})
        self.assertEqual(rules(findings), ["unbounded-retry"])

    def test_accepts_loop_referencing_budget(self):
        code = ("void F() {\n"
                "  for (;;) {\n"
                "    if (++evidence > cfg.retry_budget) return;\n"
                "    SendNack(peer, seq);\n"
                "  }\n"
                "}\n")
        findings = run_lint({"src/net/network.cc": code})
        self.assertEqual(findings, [])

    def test_accepts_loop_referencing_deadline(self):
        code = ("void F() {\n"
                "  while (true) {\n"
                "    if (Now() > deadline) return;\n"
                "    Retransmit();\n"
                "  }\n"
                "}\n")
        findings = run_lint({"src/net/network.cc": code})
        self.assertEqual(findings, [])

    def test_accepts_unbounded_loop_without_retry_vocabulary(self):
        code = ("void F() {\n"
                "  while (true) {\n"
                "    Step();\n"
                "  }\n"
                "}\n")
        findings = run_lint({"src/net/network.cc": code})
        self.assertEqual(findings, [])

    def test_bounded_for_loop_not_flagged(self):
        code = ("void F() {\n"
                "  for (int i = 0; i < 3; ++i) {\n"
                "    Retransmit();\n"
                "  }\n"
                "}\n")
        findings = run_lint({"src/net/network.cc": code})
        self.assertEqual(findings, [])

    def test_budget_in_other_function_does_not_count(self):
        code = ("void G() {\n"
                "  if (n > retry_budget) return;\n"
                "}\n"
                "void F() {\n"
                "  while (true) {\n"
                "    Retransmit();\n"
                "  }\n"
                "}\n")
        findings = run_lint({"src/net/network.cc": code})
        self.assertEqual(rules(findings), ["unbounded-retry"])
        self.assertEqual(findings[0].line, 5)

    def test_tests_and_tools_exempt(self):
        code = "while (true) { Retransmit(); }\n"
        findings = run_lint({"tests/x_test.cc": code,
                             "tools/cli.cc": code})
        self.assertEqual(findings, [])

    def test_ignores_commented_retry(self):
        code = ("void F() {\n"
                "  while (true) {\n"
                "    // no retransmit here, just polling\n"
                "    Step();\n"
                "  }\n"
                "}\n")
        findings = run_lint({"src/net/network.cc": code})
        self.assertEqual(findings, [])


class ExpectedGuardTest(unittest.TestCase):
    def test_mapping(self):
        self.assertEqual(pivot_lint.expected_guard("src/net/network.h"),
                         "PIVOT_NET_NETWORK_H_")
        self.assertEqual(pivot_lint.expected_guard("src/common/op_counters.h"),
                         "PIVOT_COMMON_OP_COUNTERS_H_")

    def test_mapping_outside_src_keeps_prefix(self):
        self.assertEqual(pivot_lint.expected_guard("bench/bench_util.h"),
                         "PIVOT_BENCH_BENCH_UTIL_H_")
        self.assertEqual(pivot_lint.expected_guard("tools/arg_parse.h"),
                         "PIVOT_TOOLS_ARG_PARSE_H_")


class ToolsAndBenchCoverageTest(unittest.TestCase):
    """tools/ and bench/ are linted for guards and unchecked .value()."""

    def test_bench_header_needs_canonical_guard(self):
        good = ("#ifndef PIVOT_BENCH_BENCH_UTIL_H_\n"
                "#define PIVOT_BENCH_BENCH_UTIL_H_\n"
                "#endif\n")
        self.assertEqual(run_lint({"bench/bench_util.h": good}), [])
        bad = good.replace("PIVOT_BENCH_BENCH_UTIL_H_", "BENCH_UTIL_H")
        findings = run_lint({"bench/bench_util.h": bad})
        self.assertEqual(rules(findings), ["include-guard"])

    def test_tools_header_missing_guard_flagged(self):
        findings = run_lint({"tools/helper.h": "namespace pivot {}\n"})
        self.assertEqual(rules(findings), ["include-guard"])

    def test_unchecked_value_in_tools_flagged(self):
        findings = run_lint(
            {"tools/cli.cc": "int n = data.value().num_samples();\n"})
        self.assertEqual(rules(findings), ["unchecked-value"])

    def test_checked_value_in_bench_allowed(self):
        findings = run_lint(
            {"bench/bench_x.cc": "if (!r.ok()) std::exit(1);\n"
                                 "double s = r.value().seconds;\n"})
        self.assertEqual(findings, [])

    def test_examples_remain_exempt(self):
        findings = run_lint(
            {"examples/demo.cc": "int n = data.value().num_samples();\n"})
        self.assertEqual(findings, [])


class RawSocketTest(unittest.TestCase):
    def test_flags_socket_header_include(self):
        findings = run_lint(
            {"src/pivot/runner.cc": "#include <sys/socket.h>\n"})
        self.assertEqual(rules(findings), ["raw-socket"])

    def test_flags_netinet_and_unix_headers(self):
        findings = run_lint(
            {"src/serve/session.cc": "#include <netinet/in.h>\n",
             "tools/pivot_cli.cc": "#include <sys/un.h>\n"})
        self.assertEqual(rules(findings), ["raw-socket"])
        self.assertEqual(len(findings), 2)

    def test_flags_socket_call(self):
        findings = run_lint(
            {"src/pivot/runner.cc":
             "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"})
        self.assertEqual(rules(findings), ["raw-socket"])

    def test_flags_qualified_send_recv(self):
        findings = run_lint(
            {"tools/pivot_cli.cc": "::send(fd, buf, n, 0);\n"
                                   "::recv(fd, buf, n, 0);\n"})
        self.assertEqual(rules(findings), ["raw-socket"])
        self.assertEqual(len(findings), 2)

    def test_flags_sockaddr_types(self):
        findings = run_lint(
            {"bench/bench_net.cc": "sockaddr_in addr{};\n"})
        self.assertEqual(rules(findings), ["raw-socket"])

    def test_allows_net_layer_home(self):
        code = ("#include <sys/socket.h>\n"
                "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n"
                "sockaddr_in sin{};\n")
        findings = run_lint({"src/net/socket.cc": code})
        self.assertEqual(findings, [])

    def test_endpoint_methods_not_flagged(self):
        code = ("st = ep.Send(1, msg);\n"
                "r = ep->Recv(0);\n"
                "net.endpoint().Send(2, bytes);\n")
        findings = run_lint({"src/pivot/runner.cc": code})
        self.assertEqual(findings, [])

    def test_identifiers_containing_socket_not_flagged(self):
        code = ("SocketNetwork net(0, 2);\n"
                "websocket_config cfg;\n"
                "Status OpenSocket(int x);\n")
        findings = run_lint({"src/pivot/runner.cc": code})
        self.assertEqual(findings, [])

    def test_tests_exempt(self):
        findings = run_lint(
            {"tests/socket_test.cc": "#include <sys/socket.h>\n"})
        self.assertEqual(findings, [])

    def test_ignores_comments(self):
        findings = run_lint(
            {"src/pivot/runner.cc": "// dials via socket(2) internally\n"})
        self.assertEqual(findings, [])


class RawProcessTest(unittest.TestCase):
    def test_flags_fork_and_exec(self):
        findings = run_lint(
            {"src/pivot/runner.cc": "pid_t pid = fork();\n"
                                    "execv(argv[0], argv.data());\n"})
        self.assertEqual(rules(findings), ["raw-process"])
        self.assertEqual(len(findings), 2)

    def test_flags_qualified_kill_and_waitpid(self):
        findings = run_lint(
            {"tools/pivot_cli.cc": "::kill(pid, SIGTERM);\n"
                                   "::waitpid(-1, &st, WNOHANG);\n"})
        self.assertEqual(rules(findings), ["raw-process"])
        self.assertEqual(len(findings), 2)

    def test_flags_system_and_popen(self):
        findings = run_lint(
            {"bench/bench_x.cc": 'system("rm -rf scratch");\n'
                                 'FILE* f = popen("ls", "r");\n'})
        self.assertEqual(rules(findings), ["raw-process"])
        self.assertEqual(len(findings), 2)

    def test_allows_orchestrator_home(self):
        code = ("const pid_t pid = ::fork();\n"
                "::execv(argv[0], argv.data());\n"
                "::kill(pid, SIGKILL);\n"
                "::waitpid(-1, &wstatus, WNOHANG);\n")
        findings = run_lint({"src/orchestrator/process.cc": code})
        self.assertEqual(findings, [])

    def test_lookalike_identifiers_not_flagged(self):
        code = ("cv.wait_for(lock, 20ms);\n"
                "slot.kill_sent = true;\n"
                "callbacks.force_kill(party, pid, reason);\n"
                'log("SIGKILL delivered");\n'
                "int ecosystem(int x);\n")
        findings = run_lint({"src/pivot/runner.cc": code})
        self.assertEqual(findings, [])

    def test_tests_and_comments_exempt(self):
        findings = run_lint(
            {"tests/chaos_test.cc": "::kill(victim, SIGKILL);\n",
             "src/pivot/runner.cc": "// the orchestrator calls kill(2)\n"})
        self.assertEqual(findings, [])



class SeqFrameHomeTest(unittest.TestCase):
    def test_flags_framing_outside_channel(self):
        findings = run_lint(
            {"src/net/socket.cc": "Bytes f = BuildSeqFrame(seq, msg);\n",
             "src/net/network.cc":
             "if (!ParseSeqFrame(frame, &seq, &payload)) return;\n"})
        self.assertEqual(rules(findings), ["seq-frame-home"])
        self.assertEqual(len(findings), 2)

    def test_flags_outside_src_too(self):
        findings = run_lint(
            {"bench/bench_net.cc": "Bytes f = BuildSeqFrame(0, msg);\n"})
        self.assertEqual(rules(findings), ["seq-frame-home"])

    def test_allows_core_and_codec(self):
        findings = run_lint(
            {"src/net/channel.cc": "Bytes frame = BuildSeqFrame(seq, msg);\n",
             "src/net/wire.cc":
             "Bytes BuildSeqFrame(uint64_t seq, const Bytes& payload) {\n"})
        self.assertEqual(findings, [])

    def test_tests_exempt(self):
        findings = run_lint(
            {"tests/net_test.cc": "Bytes f = BuildSeqFrame(3, p);\n"})
        self.assertEqual(findings, [])

    def test_ignores_comments_and_lookalikes(self):
        code = ("// ReliableEndpoint calls BuildSeqFrame internally\n"
                "Bytes f = MyBuildSeqFrame(1, p);\n")
        findings = run_lint({"src/net/socket.cc": code})
        self.assertEqual(findings, [])


class TreeCodecHomeTest(unittest.TestCase):
    def test_flags_node_encoding_outside_serialize(self):
        findings = run_lint(
            {"src/pivot/trainer.cc":
             "    EncodeU128(nd.threshold_share, w);\n"
             "    w.WriteU64(nd.lambda_slices.size());\n",
             "src/pivot/ensemble.cc":
             "PIVOT_ASSIGN_OR_RETURN(nd.leaf_mask, DecodeCiphertextVector(b));\n"})
        self.assertEqual(rules(findings), ["tree-codec-home"])
        self.assertEqual(len(findings), 3)

    def test_tests_not_exempt(self):
        findings = run_lint(
            {"tests/chaos_test.cc":
             "w.WriteBytes(EncodeCiphertextVector(nd.leaf_mask));\n"})
        self.assertEqual(rules(findings), ["tree-codec-home"])

    def test_allows_the_codec(self):
        findings = run_lint(
            {"src/pivot/serialize.cc":
             "  EncodeU128(n.leaf_share, w);\n"
             "  w.WriteBytes(EncodeCiphertextVector(n.leaf_mask));\n"})
        self.assertEqual(findings, [])

    def test_ignores_field_use_and_comments(self):
        code = ("if (!n.leaf_mask.empty()) return Status::Ok();\n"
                "zs.push_back(tree.nodes[id].leaf_share);\n"
                "// WritePivotNode encodes lambda_slices\n")
        findings = run_lint({"src/pivot/prediction.cc": code})
        self.assertEqual(findings, [])


class FixedPointHomeTest(unittest.TestCase):
    def test_flags_a_second_format(self):
        findings = run_lint(
            {"src/mpc/engine.cc":
             "struct MpcConfig {\n  int frac_bits = 16;\n};\n",
             "src/pivot/context.cc": "  int stat_sec = 40;\n",
             "src/pivot/trainer.cc":
             "  const int k = ctx.params().mpc.value_bits;\n"})
        self.assertEqual(rules(findings), ["fixed-point-home"])
        self.assertEqual(len(findings), 4)

    def test_flags_the_old_struct_anywhere(self):
        findings = run_lint(
            {"tools/cli.cc": "FixedPointParams fp;\n",
             "bench/bench_util.h": "#ifndef PIVOT_BENCH_BENCH_UTIL_H_\n"
             "#define PIVOT_BENCH_BENCH_UTIL_H_\nMpcConfig cfg;\n#endif\n"})
        self.assertEqual(rules(findings), ["fixed-point-home"])
        self.assertEqual(len(findings), 2)

    def test_tests_not_exempt(self):
        findings = run_lint(
            {"tests/secure_gain_test.cc":
             "const int f = eng.config().frac_bits;\n"})
        self.assertEqual(rules(findings), ["fixed-point-home"])

    def test_allows_the_home_constants_and_comments(self):
        findings = run_lint(
            {"src/common/fixed_point.h":
             "#ifndef PIVOT_COMMON_FIXED_POINT_H_\n"
             "#define PIVOT_COMMON_FIXED_POINT_H_\n"
             "struct FixedPointParams { int frac_bits = 16; };\n#endif\n",
             "src/mpc/engine.cc":
             "  return TruncPrVec(prod, kFracBits, kProductBits);\n"
             "  // truncate frac_bits after the product\n"
             "  const int max_frac_bits_seen = 0;\n"})
        self.assertEqual(findings, [])


if __name__ == "__main__":
    unittest.main()

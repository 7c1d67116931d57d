#include "orchestrator/spec.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/thread_pool.h"

namespace pivot {
namespace orch {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

Result<int> ParseInt(const std::string& key, const std::string& value) {
  if (value.empty()) {
    return Status::InvalidArgument("spec: empty value for " + key);
  }
  size_t pos = 0;
  long v = 0;
  bool neg = false;
  if (value[pos] == '-') {
    neg = true;
    ++pos;
  }
  if (pos == value.size()) {
    return Status::InvalidArgument("spec: bad integer for " + key + ": '" +
                                   value + "'");
  }
  for (; pos < value.size(); ++pos) {
    if (value[pos] < '0' || value[pos] > '9') {
      return Status::InvalidArgument("spec: bad integer for " + key + ": '" +
                                     value + "'");
    }
    v = v * 10 + (value[pos] - '0');
    if (v > 2'000'000'000) {
      return Status::InvalidArgument("spec: integer out of range for " + key);
    }
  }
  return static_cast<int>(neg ? -v : v);
}

}  // namespace

Status ValidateFederationSpec(const FederationSpec& spec) {
  if (spec.parties < 1) {
    return Status::InvalidArgument("spec: parties must be >= 1");
  }
  if (spec.super_client < 0 || spec.super_client >= spec.parties) {
    return Status::InvalidArgument(
        "spec: super = " + std::to_string(spec.super_client) +
        " out of range for " + std::to_string(spec.parties) + " parties");
  }
  if (spec.data.empty()) {
    return Status::InvalidArgument("spec: data is required");
  }
  if (spec.out.empty()) {
    return Status::InvalidArgument("spec: out is required");
  }
  if (!spec.addresses.empty() &&
      static_cast<int>(spec.addresses.size()) != spec.parties) {
    return Status::InvalidArgument(
        "spec: got " + std::to_string(spec.addresses.size()) +
        " address entries for " + std::to_string(spec.parties) + " parties");
  }
  for (size_t i = 0; i < spec.addresses.size(); ++i) {
    if (spec.addresses[i].empty()) {
      return Status::InvalidArgument("spec: address." + std::to_string(i) +
                                     " missing (addresses must be "
                                     "contiguous from 0)");
    }
  }
  if (spec.task != "classification" && spec.task != "regression") {
    return Status::InvalidArgument("spec: task must be classification or "
                                   "regression, got '" + spec.task + "'");
  }
  if (spec.protocol != "basic" && spec.protocol != "enhanced") {
    return Status::InvalidArgument("spec: protocol must be basic or "
                                   "enhanced, got '" + spec.protocol + "'");
  }
  if (Status st = ValidateCryptoThreads(spec.crypto_threads); !st.ok()) {
    return Status::InvalidArgument("spec: " + st.message());
  }
  if (spec.max_restarts < 0 || spec.party_max_restarts < 0) {
    return Status::InvalidArgument("spec: restart budgets must be >= 0");
  }
  if (spec.backoff_base_ms < 1 || spec.backoff_max_ms < spec.backoff_base_ms) {
    return Status::InvalidArgument(
        "spec: need 1 <= backoff_base_ms <= backoff_max_ms");
  }
  if (spec.ready_timeout_ms < 1 || spec.stall_timeout_ms < 1 ||
      spec.term_grace_ms < 0 || spec.go_timeout_ms < 1) {
    return Status::InvalidArgument("spec: timeouts must be positive");
  }
  return Status::Ok();
}

Result<FederationSpec> ParseFederationSpec(const std::string& text) {
  FederationSpec spec;
  std::map<int, std::string> addresses;
  size_t start = 0;
  int lineno = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(start, nl - start);
    start = nl + 1;
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("spec line " + std::to_string(lineno) +
                                     ": expected 'key = value', got '" +
                                     line + "'");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));

    if (key.rfind("address.", 0) == 0) {
      PIVOT_ASSIGN_OR_RETURN(int idx, ParseInt(key, key.substr(8)));
      if (idx < 0) {
        return Status::InvalidArgument("spec: bad address index in " + key);
      }
      addresses[idx] = value;
      continue;
    }

    if (key == "parties") {
      PIVOT_ASSIGN_OR_RETURN(spec.parties, ParseInt(key, value));
    } else if (key == "super") {
      PIVOT_ASSIGN_OR_RETURN(spec.super_client, ParseInt(key, value));
    } else if (key == "data") {
      spec.data = value;
    } else if (key == "out") {
      spec.out = value;
    } else if (key == "checkpoint_dir") {
      spec.checkpoint_dir = value;
    } else if (key == "task") {
      spec.task = value;
    } else if (key == "classes") {
      PIVOT_ASSIGN_OR_RETURN(spec.classes, ParseInt(key, value));
    } else if (key == "depth") {
      PIVOT_ASSIGN_OR_RETURN(spec.depth, ParseInt(key, value));
    } else if (key == "splits") {
      PIVOT_ASSIGN_OR_RETURN(spec.splits, ParseInt(key, value));
    } else if (key == "protocol") {
      spec.protocol = value;
    } else if (key == "key_bits") {
      PIVOT_ASSIGN_OR_RETURN(spec.key_bits, ParseInt(key, value));
    } else if (key == "crypto_threads") {
      PIVOT_ASSIGN_OR_RETURN(spec.crypto_threads, ParseInt(key, value));
    } else if (key == "party_max_restarts") {
      PIVOT_ASSIGN_OR_RETURN(spec.party_max_restarts, ParseInt(key, value));
    } else if (key == "max_restarts") {
      PIVOT_ASSIGN_OR_RETURN(spec.max_restarts, ParseInt(key, value));
    } else if (key == "backoff_base_ms") {
      PIVOT_ASSIGN_OR_RETURN(spec.backoff_base_ms, ParseInt(key, value));
    } else if (key == "backoff_max_ms") {
      PIVOT_ASSIGN_OR_RETURN(spec.backoff_max_ms, ParseInt(key, value));
    } else if (key == "ready_timeout_ms") {
      PIVOT_ASSIGN_OR_RETURN(spec.ready_timeout_ms, ParseInt(key, value));
    } else if (key == "stall_timeout_ms") {
      PIVOT_ASSIGN_OR_RETURN(spec.stall_timeout_ms, ParseInt(key, value));
    } else if (key == "term_grace_ms") {
      PIVOT_ASSIGN_OR_RETURN(spec.term_grace_ms, ParseInt(key, value));
    } else if (key == "go_timeout_ms") {
      PIVOT_ASSIGN_OR_RETURN(spec.go_timeout_ms, ParseInt(key, value));
    } else if (key == "cli") {
      spec.cli = value;
    } else {
      return Status::InvalidArgument("spec line " + std::to_string(lineno) +
                                     ": unknown key '" + key + "'");
    }
  }

  if (!addresses.empty()) {
    spec.addresses.assign(spec.parties, "");
    for (const auto& [idx, addr] : addresses) {
      if (idx >= spec.parties) {
        return Status::InvalidArgument(
            "spec: address." + std::to_string(idx) + " out of range for " +
            std::to_string(spec.parties) + " parties");
      }
      spec.addresses[idx] = addr;
    }
  }

  PIVOT_RETURN_IF_ERROR(ValidateFederationSpec(spec));
  return spec;
}

Result<FederationSpec> LoadFederationSpec(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open spec file: " + path);
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  Result<FederationSpec> spec = ParseFederationSpec(text);
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  path + ": " + spec.status().message());
  }
  return spec;
}

int PartyCryptoThreads(const FederationSpec& spec) {
  if (spec.crypto_threads > 0) return spec.crypto_threads;
  return std::max(1, AvailableCpus() / std::max(1, spec.parties));
}

std::vector<std::string> PartyCommand(const FederationSpec& spec, int party,
                                      const std::string& cli, int control_fd,
                                      int go_fd) {
  std::string peers;
  for (size_t j = 0; j < spec.addresses.size(); ++j) {
    if (j > 0) peers += ",";
    peers += spec.addresses[j];
  }
  std::vector<std::string> argv = {
      cli, "party",
      "--party-id", std::to_string(party),
      "--peers", peers,
      "--data", spec.data,
      "--out", spec.out,
      "--super", std::to_string(spec.super_client),
      "--task", spec.task,
      "--depth", std::to_string(spec.depth),
      "--splits", std::to_string(spec.splits),
      "--protocol", spec.protocol,
      "--crypto-threads", std::to_string(PartyCryptoThreads(spec)),
      "--max-restarts", std::to_string(spec.party_max_restarts),
  };
  if (!spec.checkpoint_dir.empty()) {
    argv.push_back("--checkpoint-dir");
    argv.push_back(spec.checkpoint_dir);
  }
  if (spec.classes > 0) {
    argv.push_back("--classes");
    argv.push_back(std::to_string(spec.classes));
  }
  if (spec.key_bits > 0) {
    argv.push_back("--key-bits");
    argv.push_back(std::to_string(spec.key_bits));
  }
  if (control_fd >= 0) {
    argv.push_back("--control-fd");
    argv.push_back(std::to_string(control_fd));
  }
  if (go_fd >= 0) {
    argv.push_back("--go-fd");
    argv.push_back(std::to_string(go_fd));
    argv.push_back("--go-timeout-ms");
    argv.push_back(std::to_string(spec.go_timeout_ms));
  }
  return argv;
}

}  // namespace orch
}  // namespace pivot

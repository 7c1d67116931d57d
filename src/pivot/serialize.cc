#include "pivot/serialize.h"

#include <algorithm>
#include <fstream>

#include "net/codec.h"

namespace pivot {

namespace {

constexpr uint32_t kPivotTreeMagic = 0x50565432;   // "PVT2"
constexpr uint32_t kEnsembleMagic = 0x50564531;    // "PVE1"

// Indices that may be -1 (none) travel as u32 offset by one; the offset
// is applied in unsigned arithmetic, so no input value can overflow.
void WriteIndex(int v, ByteWriter& w) {
  w.WriteU32(static_cast<uint32_t>(v) + 1);
}

Result<int> ReadIndex(ByteReader& r) {
  PIVOT_ASSIGN_OR_RETURN(uint32_t v, r.ReadU32());
  return static_cast<int>(v - 1);
}

// The one PivotNode encoding, shared by model files and training
// checkpoints: every field, shares and ciphertext vectors included.
void WritePivotNode(const PivotNode& n, ByteWriter& w) {
  w.WriteU8(n.is_leaf ? 1 : 0);
  WriteIndex(n.owner, w);
  WriteIndex(n.feature_local, w);
  w.WriteDouble(n.threshold);
  w.WriteDouble(n.leaf_value);
  EncodeU128(n.threshold_share, w);
  EncodeU128(n.leaf_share, w);
  WriteIndex(n.left, w);
  WriteIndex(n.right, w);
  w.WriteBytes(EncodeCiphertextVector(n.leaf_mask));
  w.WriteU64(n.lambda_slices.size());
  for (const auto& slice : n.lambda_slices) {
    w.WriteBytes(EncodeCiphertextVector(slice));
  }
  w.WriteU64(n.lambda_features.size());
  for (const auto& feats : n.lambda_features) {
    w.WriteU64(feats.size());
    for (int f : feats) WriteIndex(f, w);
  }
}

// Vectors grow per decoded element, so a hostile count runs out of buffer
// instead of allocating.
Result<PivotNode> ReadPivotNode(ByteReader& r) {
  PivotNode n;
  PIVOT_ASSIGN_OR_RETURN(uint8_t leaf, r.ReadU8());
  n.is_leaf = leaf != 0;
  PIVOT_ASSIGN_OR_RETURN(n.owner, ReadIndex(r));
  PIVOT_ASSIGN_OR_RETURN(n.feature_local, ReadIndex(r));
  PIVOT_ASSIGN_OR_RETURN(n.threshold, r.ReadDouble());
  PIVOT_ASSIGN_OR_RETURN(n.leaf_value, r.ReadDouble());
  PIVOT_ASSIGN_OR_RETURN(n.threshold_share, DecodeU128(r));
  PIVOT_ASSIGN_OR_RETURN(n.leaf_share, DecodeU128(r));
  PIVOT_ASSIGN_OR_RETURN(n.left, ReadIndex(r));
  PIVOT_ASSIGN_OR_RETURN(n.right, ReadIndex(r));
  PIVOT_ASSIGN_OR_RETURN(Bytes mask, r.ReadBytes());
  PIVOT_ASSIGN_OR_RETURN(n.leaf_mask, DecodeCiphertextVector(mask));
  PIVOT_ASSIGN_OR_RETURN(uint64_t slices, r.ReadU64());
  for (uint64_t i = 0; i < slices; ++i) {
    PIVOT_ASSIGN_OR_RETURN(Bytes enc, r.ReadBytes());
    PIVOT_ASSIGN_OR_RETURN(n.lambda_slices.emplace_back(),
                           DecodeCiphertextVector(enc));
  }
  PIVOT_ASSIGN_OR_RETURN(uint64_t feature_lists, r.ReadU64());
  for (uint64_t i = 0; i < feature_lists; ++i) {
    PIVOT_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
    std::vector<int>& feats = n.lambda_features.emplace_back();
    for (uint64_t j = 0; j < count; ++j) {
      PIVOT_ASSIGN_OR_RETURN(feats.emplace_back(), ReadIndex(r));
    }
  }
  return n;
}

// Node 0 is the root, every child id is greater than its parent's (the
// trainer appends children after their parent; prediction's marker scan
// relies on that order) and every other node hangs off exactly one
// parent: one tree, with no cycle and no shared subtree. A tree still in
// training may leave child slots open (-1).
Status CheckTreeShape(const PivotTree& tree, bool in_progress) {
  const int count = static_cast<int>(tree.nodes.size());
  if (count == 0) return Status::InvalidArgument("corrupt tree: no nodes");
  std::vector<int> parents(count, 0);
  for (int id = 0; id < count; ++id) {
    const PivotNode& n = tree.nodes[id];
    const bool hidden_feature = tree.protocol == Protocol::kEnhanced &&
                                !n.is_leaf && n.feature_local < 0;
    bool selector_ok =
        n.lambda_features.size() == n.lambda_slices.size() &&
        !(hidden_feature && n.lambda_slices.empty());
    for (size_t p = 0; selector_ok && p < n.lambda_slices.size(); ++p) {
      selector_ok = n.lambda_features[p].size() == n.lambda_slices[p].size();
    }
    if (!selector_ok) {
      return Status::InvalidArgument("corrupt tree: bad lambda selector");
    }
    if (n.is_leaf) continue;
    for (int child : {n.left, n.right}) {
      if (in_progress && child < 0) continue;
      if (child <= id || child >= count) {
        return Status::InvalidArgument("corrupt tree: child id out of order");
      }
      ++parents[child];
    }
  }
  if (std::count(parents.begin() + 1, parents.end(), 1) != count - 1) {
    return Status::InvalidArgument("corrupt tree: node without one parent");
  }
  return Status::Ok();
}

Result<PivotTree> DecodePivotTree(const Bytes& data, bool in_progress) {
  ByteReader r(data);
  PIVOT_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kPivotTreeMagic) {
    return Status::InvalidArgument("not a serialized PivotTree (PVT2)");
  }
  PivotTree tree;
  PIVOT_ASSIGN_OR_RETURN(uint8_t protocol, r.ReadU8());
  tree.protocol = protocol ? Protocol::kEnhanced : Protocol::kBasic;
  PIVOT_ASSIGN_OR_RETURN(uint8_t task, r.ReadU8());
  tree.task = task ? TreeTask::kRegression : TreeTask::kClassification;
  PIVOT_ASSIGN_OR_RETURN(uint32_t classes, r.ReadU32());
  tree.num_classes = static_cast<int>(classes);
  PIVOT_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  for (uint64_t i = 0; i < count; ++i) {
    PIVOT_ASSIGN_OR_RETURN(PivotNode n, ReadPivotNode(r));
    tree.nodes.push_back(std::move(n));
  }
  PIVOT_RETURN_IF_ERROR(CheckTreeShape(tree, in_progress));
  return tree;
}

}  // namespace

Bytes SerializePivotTree(const PivotTree& tree) {
  ByteWriter w;
  w.WriteU32(kPivotTreeMagic);
  w.WriteU8(tree.protocol == Protocol::kEnhanced ? 1 : 0);
  w.WriteU8(tree.task == TreeTask::kRegression ? 1 : 0);
  w.WriteU32(static_cast<uint32_t>(tree.num_classes));
  w.WriteU64(tree.nodes.size());
  for (const PivotNode& n : tree.nodes) WritePivotNode(n, w);
  return w.Take();
}

Result<PivotTree> DeserializePivotTree(const Bytes& data) {
  return DecodePivotTree(data, /*in_progress=*/false);
}

Result<PivotTree> DeserializePivotTreeInProgress(const Bytes& data) {
  return DecodePivotTree(data, /*in_progress=*/true);
}

Bytes SerializePivotEnsemble(const PivotEnsemble& model) {
  ByteWriter w;
  w.WriteU32(kEnsembleMagic);
  w.WriteU8(model.task == TreeTask::kRegression ? 1 : 0);
  w.WriteU32(static_cast<uint32_t>(model.num_classes));
  w.WriteDouble(model.learning_rate);
  w.WriteU64(model.forests.size());
  for (const auto& forest : model.forests) {
    w.WriteU64(forest.size());
    for (const PivotTree& tree : forest) {
      w.WriteBytes(SerializePivotTree(tree));
    }
  }
  return w.Take();
}

Result<PivotEnsemble> DeserializePivotEnsemble(const Bytes& data) {
  ByteReader r(data);
  PIVOT_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kEnsembleMagic) {
    return Status::InvalidArgument("not a serialized PivotEnsemble");
  }
  PivotEnsemble model;
  PIVOT_ASSIGN_OR_RETURN(uint8_t task, r.ReadU8());
  model.task = task ? TreeTask::kRegression : TreeTask::kClassification;
  PIVOT_ASSIGN_OR_RETURN(uint32_t classes, r.ReadU32());
  model.num_classes = static_cast<int>(classes);
  PIVOT_ASSIGN_OR_RETURN(model.learning_rate, r.ReadDouble());
  PIVOT_ASSIGN_OR_RETURN(uint64_t forests, r.ReadU64());
  for (uint64_t k = 0; k < forests; ++k) {
    PIVOT_ASSIGN_OR_RETURN(uint64_t trees, r.ReadU64());
    std::vector<PivotTree>& forest = model.forests.emplace_back();
    for (uint64_t t = 0; t < trees; ++t) {
      PIVOT_ASSIGN_OR_RETURN(Bytes blob, r.ReadBytes());
      PIVOT_ASSIGN_OR_RETURN(forest.emplace_back(), DeserializePivotTree(blob));
    }
  }
  return model;
}

Status SaveModelBytes(const Bytes& data, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out.good() ? Status::Ok() : Status::IoError("write failed: " + path);
}

Result<Bytes> LoadModelBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return data;
}

}  // namespace pivot

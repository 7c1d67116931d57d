#ifndef PIVOT_PIVOT_SERIALIZE_H_
#define PIVOT_PIVOT_SERIALIZE_H_

#include <string>

#include "common/bytes.h"
#include "pivot/model.h"

namespace pivot {

// Binary (de)serialization of trained models, so a party can persist its
// model view between the training and prediction stages (the paper's two
// ideal functionalities F_DTT and F_DTP run at different times).
//
// Notes:
//  - A PivotTree serializes this party's *view*: for the enhanced
//    protocol that includes its secret shares, which are as sensitive as
//    a key share — the caller owns protecting the bytes at rest.
//  - The PivotTree codec ('PVT2') is the only PivotNode encoding: it
//    writes every field (leaf masks and lambda selectors included), and
//    training checkpoints embed trees through it. Decoding rejects all
//    but one tree rooted at node 0 with children after their parent.

Bytes SerializePivotTree(const PivotTree& tree);
Result<PivotTree> DeserializePivotTree(const Bytes& data);
// A training checkpoint's tree: as above, but internal nodes may still
// lack children (-1) that are pending on the trainer's work stack.
Result<PivotTree> DeserializePivotTreeInProgress(const Bytes& data);

Bytes SerializePivotEnsemble(const PivotEnsemble& model);
Result<PivotEnsemble> DeserializePivotEnsemble(const Bytes& data);

// File helpers.
Status SaveModelBytes(const Bytes& data, const std::string& path);
Result<Bytes> LoadModelBytes(const std::string& path);

}  // namespace pivot

#endif  // PIVOT_PIVOT_SERIALIZE_H_

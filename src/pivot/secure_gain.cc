#include "pivot/secure_gain.h"

#include "common/check.h"
#include "common/fixed_point.h"

namespace pivot {

Result<SecureGainResult> ComputeSecureGains(
    MpcEngine& eng, const std::vector<std::vector<u128>>& stats,
    const std::vector<u128>& agg, bool regression) {
  const size_t t_count = stats[0].size();
  const size_t label_vectors = (stats.size() - 2) / 2;
  const u128 scale = static_cast<u128>(1) << kFracBits;

  // Reciprocals of all denominators in one batch:
  // [node, n_l(0..T), n_r(0..T)] (+1 ulp epsilon against empty nodes).
  std::vector<u128> denoms = {agg[0]};
  denoms.insert(denoms.end(), stats[0].begin(), stats[0].end());
  denoms.insert(denoms.end(), stats[1].begin(), stats[1].end());
  for (u128& d : denoms) {
    d = eng.AddConstField(MpcEngine::MulPub(d, scale), 1);
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> recips, eng.ReciprocalVec(denoms));
  const u128 recip_node = recips[0];
  auto recip_l = [&](size_t s) { return recips[1 + s]; };
  auto recip_r = [&](size_t s) { return recips[1 + t_count + s]; };

  SecureGainResult out;
  if (regression) {
    // Eqn. 6 with Q_l + Q_r = Q: gain = (S_l·m_l + S_r·m_r - S·m_n)·r_n
    // with means m = S·r. Multiplying S by its mean instead of squaring it
    // keeps every product near mean·S, inside the fixed-point range.
    // `sums` lines up with `recips`: [node, S_l(0..T), S_r(0..T)].
    std::vector<u128> sums = {agg[1]};
    sums.insert(sums.end(), stats[2].begin(), stats[2].end());
    sums.insert(sums.end(), stats[3].begin(), stats[3].end());
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> means,
                           eng.MulFixedVec(sums, recips));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> sq, eng.MulFixedVec(sums, means));
    std::vector<u128> diffs(t_count);
    for (size_t s = 0; s < t_count; ++s) {
      diffs[s] = FpSub(FpAdd(sq[1 + s], sq[1 + t_count + s]), sq[0]);
    }
    PIVOT_ASSIGN_OR_RETURN(
        out.scores,
        eng.MulFixedVec(diffs, std::vector<u128>(t_count, recip_node)));
    return out;
  }

  // Child weights w_l = n_l / n, w_r = n_r / n.
  std::vector<u128> wa, wb;
  wa.reserve(2 * t_count);
  wb.reserve(2 * t_count);
  for (size_t s = 0; s < t_count; ++s) {
    wa.push_back(MpcEngine::MulPub(stats[0][s], scale));
    wb.push_back(recip_node);
  }
  for (size_t s = 0; s < t_count; ++s) {
    wa.push_back(MpcEngine::MulPub(stats[1][s], scale));
    wb.push_back(recip_node);
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> weights, eng.MulFixedVec(wa, wb));

  // p_{l,k} and p_{r,k} for every split and class in one batch.
  std::vector<u128> num, den;
  num.reserve(2 * label_vectors * t_count);
  den.reserve(2 * label_vectors * t_count);
  for (size_t k = 0; k < label_vectors; ++k) {
    for (size_t s = 0; s < t_count; ++s) {
      num.push_back(MpcEngine::MulPub(stats[2 + 2 * k][s], scale));
      den.push_back(recip_l(s));
    }
    for (size_t s = 0; s < t_count; ++s) {
      num.push_back(MpcEngine::MulPub(stats[3 + 2 * k][s], scale));
      den.push_back(recip_r(s));
    }
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> probs, eng.MulFixedVec(num, den));
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> sq, eng.MulFixedVec(probs, probs));
  // sum_k p^2 per split/side.
  std::vector<u128> sum_l(t_count, 0), sum_r(t_count, 0);
  for (size_t k = 0; k < label_vectors; ++k) {
    for (size_t s = 0; s < t_count; ++s) {
      sum_l[s] = FpAdd(sum_l[s], sq[(2 * k) * t_count + s]);
      sum_r[s] = FpAdd(sum_r[s], sq[(2 * k + 1) * t_count + s]);
    }
  }
  // score = w_l·sum_l + w_r·sum_r.
  std::vector<u128> ga, gb;
  for (size_t s = 0; s < t_count; ++s) {
    ga.push_back(weights[s]);
    gb.push_back(sum_l[s]);
  }
  for (size_t s = 0; s < t_count; ++s) {
    ga.push_back(weights[t_count + s]);
    gb.push_back(sum_r[s]);
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> terms, eng.MulFixedVec(ga, gb));
  out.scores.resize(t_count);
  for (size_t s = 0; s < t_count; ++s) {
    out.scores[s] = FpAdd(terms[s], terms[t_count + s]);
  }
  // Node constant sum_k p_k^2 (p_k = g_k / n).
  std::vector<u128> pn_a, pn_b;
  for (size_t k = 0; k < label_vectors; ++k) {
    pn_a.push_back(MpcEngine::MulPub(agg[1 + k], scale));
    pn_b.push_back(recip_node);
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> pk, eng.MulFixedVec(pn_a, pn_b));
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> pk2, eng.MulFixedVec(pk, pk));
  for (u128 v : pk2) out.node_term = FpAdd(out.node_term, v);
  return out;
}

}  // namespace pivot

#include "pivot/secure_gain.h"

#include "common/check.h"
#include "common/fixed_point.h"

namespace pivot {

Result<SecureGainResult> ComputeSecureGains(
    MpcEngine& eng, const std::vector<std::vector<u128>>& stats,
    const std::vector<u128>& agg, bool regression, int num_classes) {
  const int c_ = num_classes;
  const bool regression_ = regression;
    const size_t t_count = stats[0].size();
    const u128 scale = static_cast<u128>(1) << kFracBits;

    // Reciprocals of all denominators in one batch:
    // [node, n_l(0..T), n_r(0..T)] (+1 ulp epsilon against empty nodes).
    std::vector<u128> denoms;
    denoms.reserve(1 + 2 * t_count);
    denoms.push_back(
        eng.AddConstField(MpcEngine::MulPub(agg[0], scale), 1));
    for (size_t s = 0; s < t_count; ++s) {
      denoms.push_back(
          eng.AddConstField(MpcEngine::MulPub(stats[0][s], scale), 1));
    }
    for (size_t s = 0; s < t_count; ++s) {
      denoms.push_back(
          eng.AddConstField(MpcEngine::MulPub(stats[1][s], scale), 1));
    }
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> recips,
                           eng.ReciprocalVec(denoms));
    const u128 recip_node = recips[0];
    auto recip_l = [&](size_t s) { return recips[1 + s]; };
    auto recip_r = [&](size_t s) { return recips[1 + t_count + s]; };

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

    SecureGainResult out;
    if (!regression_) {
      // p_{l,k} and p_{r,k} for every split and class in one batch.
      std::vector<u128> num, den;
      num.reserve(2 * c_ * t_count);
      den.reserve(2 * c_ * t_count);
      for (int k = 0; k < c_; ++k) {
        for (size_t s = 0; s < t_count; ++s) {
          num.push_back(MpcEngine::MulPub(stats[2 + 2 * k][s], scale));
          den.push_back(recip_l(s));
        }
        for (size_t s = 0; s < t_count; ++s) {
          num.push_back(MpcEngine::MulPub(stats[3 + 2 * k][s], scale));
          den.push_back(recip_r(s));
        }
      }
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> probs,
                             eng.MulFixedVec(num, den));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> sq,
                             eng.MulFixedVec(probs, probs));
      // sum_k p^2 per split/side.
      std::vector<u128> sum_l(t_count, 0), sum_r(t_count, 0);
      for (int k = 0; k < c_; ++k) {
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
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> terms,
                             eng.MulFixedVec(ga, gb));
      out.scores.resize(t_count);
      for (size_t s = 0; s < t_count; ++s) {
        out.scores[s] = FpAdd(terms[s], terms[t_count + s]);
      }
      // Node constant sum_k p_k^2 (p_k = g_k / n).
      std::vector<u128> pn_a, pn_b;
      for (int k = 0; k < c_; ++k) {
        pn_a.push_back(MpcEngine::MulPub(agg[1 + k], scale));
        pn_b.push_back(recip_node);
      }
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> pk, eng.MulFixedVec(pn_a, pn_b));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> pk2, eng.MulFixedVec(pk, pk));
      out.node_term = 0;
      for (u128 v : pk2) out.node_term = FpAdd(out.node_term, v);
      return out;
    }

    // Regression (Eqn. 6): score = -(w_l·var_l + w_r·var_r);
    // full gain = var_node + score. S and Q are already fixed-point.
    std::vector<u128> ma, mb;
    // means and E[y^2]: S_l·r_l, S_r·r_r, Q_l·r_l, Q_r·r_r
    for (size_t s = 0; s < t_count; ++s) { ma.push_back(stats[2][s]); mb.push_back(recip_l(s)); }
    for (size_t s = 0; s < t_count; ++s) { ma.push_back(stats[3][s]); mb.push_back(recip_r(s)); }
    for (size_t s = 0; s < t_count; ++s) { ma.push_back(stats[4][s]); mb.push_back(recip_l(s)); }
    for (size_t s = 0; s < t_count; ++s) { ma.push_back(stats[5][s]); mb.push_back(recip_r(s)); }
    // node: S·r_n, Q·r_n
    ma.push_back(agg[1]);
    mb.push_back(recip_node);
    ma.push_back(agg[2]);
    mb.push_back(recip_node);
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> ratios, eng.MulFixedVec(ma, mb));
    // mean^2 terms.
    std::vector<u128> means(ratios.begin(), ratios.begin() + 2 * t_count);
    means.push_back(ratios[4 * t_count]);  // node mean
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> mean_sq,
                           eng.MulFixedVec(means, means));
    // var = E[y^2] - mean^2.
    std::vector<u128> var_l(t_count), var_r(t_count);
    for (size_t s = 0; s < t_count; ++s) {
      var_l[s] = FpSub(ratios[2 * t_count + s], mean_sq[s]);
      var_r[s] = FpSub(ratios[3 * t_count + s], mean_sq[t_count + s]);
    }
    const u128 var_node =
        FpSub(ratios[4 * t_count + 1], mean_sq[2 * t_count]);
    // w·var terms.
    std::vector<u128> va, vb;
    for (size_t s = 0; s < t_count; ++s) { va.push_back(weights[s]); vb.push_back(var_l[s]); }
    for (size_t s = 0; s < t_count; ++s) { va.push_back(weights[t_count + s]); vb.push_back(var_r[s]); }
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> wv, eng.MulFixedVec(va, vb));
    out.scores.resize(t_count);
    for (size_t s = 0; s < t_count; ++s) {
      out.scores[s] = FpNeg(FpAdd(wv[s], wv[t_count + s]));
    }
    out.node_term = FpNeg(var_node);  // full gain = score - node_term
    return out;
  }

}  // namespace pivot

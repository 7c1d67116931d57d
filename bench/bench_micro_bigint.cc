// Micro-benchmarks of the Montgomery kernels behind every Paillier and PSI
// operation, at the moduli the perfbench workloads use: n^2 of a 256-bit
// key (train-wide, serve; 512 bits, 8 limbs), n^2 of a 384-bit key
// (train-splits; 768 bits, 12 limbs) and a 1536-bit PSI group modulus
// (24 limbs) with a 1535-bit exponent. At each modulus it also times the
// schoolbook BigInt paths around the kernels: a product of two residues,
// its division by the modulus (how an operand outside [0, m) is reduced)
// and a modular inverse. The last rows time the Miller-Rabin test key
// generation runs on each Paillier prime. Each row is the median of
// `reps` timed loops. Results go to bench_results/bench_micro_bigint.json.

#include <algorithm>

#include "bench/bench_util.h"
#include "bigint/prime.h"
#include "crypto/paillier.h"

using namespace pivot;
using namespace pivot::bench;

namespace {

// Median over `reps` loops of `inner` calls, in microseconds per call.
template <typename Fn>
double MedianUs(int reps, int inner, const Fn& fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    for (int i = 0; i < inner; ++i) fn();
    us.push_back(timer.ElapsedSeconds() * 1e6 / inner);
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

struct Modulus {
  const char* name;
  BigInt m;
  std::vector<int> exp_bits;  // exponent widths timed for ModExp
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  const int reps = args.tiny ? 3 : 9;
  const int scale = args.tiny ? 1 : 10;  // inner-loop multiplier

  Rng rng(1);
  std::vector<Modulus> moduli;
  // Paillier n^2. ModExp exponents: n (encryption randomness r^n) and
  // twice that (a partial-decryption share is about n·lambda).
  for (int key_bits : {256, 384}) {
    const PaillierKeyPair keys = GeneratePaillierKeyPair(key_bits, rng);
    moduli.push_back({key_bits == 256 ? "paillier_n2_256" : "paillier_n2_384",
                      keys.pk.n_squared(), {key_bits, 2 * key_bits}});
  }
  BigInt group = BigInt::RandomBits(1535, rng) + (BigInt(1) << 1535);
  if (!group.IsOdd()) group += BigInt(1);
  moduli.push_back({"psi_group_1536", group, {1535}});

  std::vector<JsonObject> rows;
  std::printf("%-16s %6s %6s %-12s %8s %12s\n", "modulus", "bits", "limbs",
              "operation", "exp_bits", "us/op");
  auto report_row = [&](const char* name, const BigInt& m, const char* op,
                        int exp_bits, double us) {
    std::printf("%-16s %6d %6zu %-12s %8d %12.3f\n", name, m.BitLength(),
                m.limbs().size(), op, exp_bits, us);
    JsonObject row;
    row.Set("modulus", name)
        .Set("modulus_bits", m.BitLength())
        .Set("limbs", static_cast<uint64_t>(m.limbs().size()))
        .Set("operation", op)
        .Set("exp_bits", exp_bits)
        .Set("us_per_op", us);
    rows.push_back(row);
  };
  for (const Modulus& mod : moduli) {
    const MontgomeryContext ctx(mod.m);
    const BigInt a = BigInt::RandomBelow(mod.m, rng);
    const BigInt b = BigInt::RandomBelow(mod.m, rng);
    const BigInt ma = ctx.ToMontgomery(a);
    const BigInt mb = ctx.ToMontgomery(b);
    const BigInt ab = a * b;
    auto report = [&](const char* op, int exp_bits, double us) {
      report_row(mod.name, mod.m, op, exp_bits, us);
    };
    report("mont_mul", 0,
           MedianUs(reps, 1000 * scale, [&] { (void)ctx.MontMul(ma, mb); }));
    report("mod_mul", 0,
           MedianUs(reps, 1000 * scale, [&] { (void)ctx.ModMul(a, b); }));
    for (int bits : mod.exp_bits) {
      const BigInt exp = BigInt::RandomBits(bits - 1, rng) +
                         (BigInt(1) << (bits - 1));
      const int inner = std::max(1, 2 * scale * 512 / bits);
      report("mod_exp", bits,
             MedianUs(reps, inner, [&] { (void)ctx.ModExp(a, exp); }));
    }
    report("mul", 0, MedianUs(reps, 1000 * scale, [&] { (void)(a * b); }));
    report("divmod", 0,
           MedianUs(reps, 100 * scale, [&] { (void)ab.DivMod(mod.m); }));
    report("mod_inverse", 0, MedianUs(reps, 10 * scale, [&] {
             (void)a.ModInverse(mod.m);
           }));
  }
  // Key generation's primality test (30 rounds) on a prime of each
  // Paillier key's factor width.
  for (int prime_bits : {128, 192}) {
    const BigInt p = GeneratePrime(prime_bits, rng);
    report_row(prime_bits == 128 ? "prime_128" : "prime_192", p,
               "miller_rabin", 0, MedianUs(reps, scale, [&] {
                 (void)IsProbablePrime(p, 30, rng);
               }));
  }

  JsonObject meta;
  meta.Set("reps", reps);
  WriteBenchJson("bench_micro_bigint", meta, rows);
  return 0;
}

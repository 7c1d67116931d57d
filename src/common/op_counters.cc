#include "common/op_counters.h"

#include <sstream>

namespace pivot {

OpCounters& OpCounters::Global() {
  static OpCounters* counters = new OpCounters();
  return *counters;
}

void OpCounters::Reset() {
  ce_.store(0);
  cd_.store(0);
  cs_.store(0);
  cc_.store(0);
  ckpt_writes_.store(0);
  ckpt_write_us_.store(0);
  ckpt_restores_.store(0);
  ckpt_restore_us_.store(0);
  pool_tasks_.store(0);
  batch_calls_.store(0);
  enc_pool_hits_.store(0);
  enc_pool_misses_.store(0);
  serve_requests_.store(0);
  serve_batches_.store(0);
}

OpSnapshot OpSnapshot::Take() {
  const OpCounters& g = OpCounters::Global();
  OpSnapshot s;
  s.ce = g.ciphertext_ops();
  s.cd = g.threshold_decryptions();
  s.cs = g.secure_ops();
  s.cc = g.secure_comparisons();
  s.ckpt_writes = g.checkpoint_writes();
  s.ckpt_write_us = g.checkpoint_write_micros();
  s.ckpt_restores = g.checkpoint_restores();
  s.ckpt_restore_us = g.checkpoint_restore_micros();
  s.pool_tasks = g.pool_tasks();
  s.batch_calls = g.batch_calls();
  s.enc_pool_hits = g.enc_pool_hits();
  s.enc_pool_misses = g.enc_pool_misses();
  s.serve_requests = g.serve_requests();
  s.serve_batches = g.serve_batches();
  return s;
}

OpSnapshot OpSnapshot::Delta(const OpSnapshot& earlier) const {
  OpSnapshot d;
  d.ce = ce - earlier.ce;
  d.cd = cd - earlier.cd;
  d.cs = cs - earlier.cs;
  d.cc = cc - earlier.cc;
  d.ckpt_writes = ckpt_writes - earlier.ckpt_writes;
  d.ckpt_write_us = ckpt_write_us - earlier.ckpt_write_us;
  d.ckpt_restores = ckpt_restores - earlier.ckpt_restores;
  d.ckpt_restore_us = ckpt_restore_us - earlier.ckpt_restore_us;
  d.pool_tasks = pool_tasks - earlier.pool_tasks;
  d.batch_calls = batch_calls - earlier.batch_calls;
  d.enc_pool_hits = enc_pool_hits - earlier.enc_pool_hits;
  d.enc_pool_misses = enc_pool_misses - earlier.enc_pool_misses;
  d.serve_requests = serve_requests - earlier.serve_requests;
  d.serve_batches = serve_batches - earlier.serve_batches;
  return d;
}

std::string OpSnapshot::ToString() const {
  std::ostringstream os;
  os << "Ce=" << ce << " Cd=" << cd << " Cs=" << cs << " Cc=" << cc;
  if (pool_tasks > 0 || batch_calls > 0) {
    os << " pool_tasks=" << pool_tasks << " batch_calls=" << batch_calls
       << " enc_pool=" << enc_pool_hits << "h/" << enc_pool_misses << "m";
  }
  if (serve_requests > 0 || serve_batches > 0) {
    os << " serve=" << serve_requests << "req/" << serve_batches << "batches";
  }
  if (ckpt_writes > 0 || ckpt_restores > 0) {
    os << " ckpt_writes=" << ckpt_writes << "(" << ckpt_write_us << "us)"
       << " ckpt_restores=" << ckpt_restores << "(" << ckpt_restore_us
       << "us)";
  }
  return os.str();
}

}  // namespace pivot

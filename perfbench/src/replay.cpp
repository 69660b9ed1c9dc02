// The gdi layer on its own: a serving workload's request stream replayed
// straight through Transaction / BatchScope, without the scheduler. Reads run
// as BatchScope groups of 32 in one kRead transaction, writes as single
// kWrite transactions; execute and commit are timed on both clocks.
#include "layers.hpp"

namespace perfbench {

using namespace gdi;
using server::OpKind;

namespace {

Status execute_write(Transaction& txn, const server::Request& r, std::uint32_t pt) {
  auto va = txn.find_vertex(r.a);
  if (!va.ok()) return va.status();
  switch (r.op) {
    case OpKind::kUpdateProp:
      return txn.update_property(*va, pt, PropValue{r.value});
    case OpKind::kIncrement: {
      auto p = txn.get_properties(*va, pt);
      if (!p.ok()) return p.status();
      const auto* x = p->empty() ? nullptr : std::get_if<std::int64_t>(&p->front());
      return txn.update_property(*va, pt, PropValue{(x ? *x : 0) + 1});
    }
    case OpKind::kWritePair: {
      auto vb = txn.find_vertex(r.b);
      if (!vb.ok()) return vb.status();
      const Status s = txn.update_property(*va, pt, PropValue{r.value});
      if (is_transaction_critical(s)) return s;
      return txn.update_property(*vb, pt, PropValue{r.value});
    }
    case OpKind::kAddEdge: {
      auto vb = txn.find_vertex(r.b);
      if (!vb.ok()) return vb.status();
      return txn.create_edge(*va, *vb, layout::Dir::kOut).status();
    }
    case OpKind::kGetProps:
    case OpKind::kReadPair:
      break;
  }
  return Status::kInvalidArgument;
}

}  // namespace

void gdi_replay(const std::shared_ptr<Database>& db, rma::Rank& self, std::uint32_t pt,
                const std::vector<const server::Request*>& mine, GdiReplay& out) {
  std::vector<const server::Request*> reads, writes;
  for (const server::Request* r : mine) (server::is_read(r->op) ? reads : writes).push_back(r);
  self.barrier();
  const auto c0 = self.counters();
  Samples em, ew, cm, cw;
  std::uint64_t txns = 0, aborts = 0;
  const auto timed = [&](Samples& m, Samples& w, auto&& fn) {
    const double pw = wall_ns(), pm = self.sim_time_ns();
    const Status s = fn();
    m.add((self.sim_time_ns() - pm) / 1e3);
    w.add((wall_ns() - pw) / 1e3);
    return s;
  };
  // Commit unless execute doomed the transaction; count either failure.
  const auto finish = [&](Transaction& txn, Status es, std::uint64_t tag) {
    ++txns;
    if (is_transaction_critical(es)) {
      ++aborts;
      txn.abort();
      return;
    }
    const Status cs = timed(cm, cw, [&] {
      Span sp("gdi", "commit", tag);
      return txn.commit();
    });
    aborts += is_transaction_critical(cs);
  };
  for (std::size_t i = 0; i < reads.size(); i += 32) {
    Transaction txn(db, self, TxnMode::kRead);
    BatchScope scope = txn.batch();
    std::vector<Future<VertexHandle>> fs;
    for (std::size_t j = i; j < std::min(i + 32, reads.size()); ++j) {
      fs.push_back(scope.find(reads[j]->a));
      if (reads[j]->op == OpKind::kReadPair) fs.push_back(scope.find(reads[j]->b));
    }
    const Status es = timed(em, ew, [&] {
      Span sp("gdi", "execute_reads");
      const Status st = scope.execute();
      for (auto& f : fs)
        if (f.ok()) (void)txn.get_properties(*f, pt);
      return st;
    });
    finish(txn, es, 0);
  }
  for (const server::Request* r : writes) {
    Transaction txn(db, self, TxnMode::kWrite);
    const Status es = timed(em, ew, [&] {
      Span sp("gdi", "execute_write", r->client_tag);
      return execute_write(txn, *r, pt);
    });
    finish(txn, es, r->client_tag);
  }
  if (CommitPipeline* cp = db->commit_pipeline(self)) cp->sync(self);
  const auto d = global_delta(self, c0);
  const auto all_txns = self.allreduce_sum(txns);
  const auto all_aborts = self.allreduce_sum(aborts);
  // Sample sets are per rank; merge them one rank at a time.
  for (int r = 0; r < self.nranks(); ++r) {
    self.barrier();
    if (r == self.id()) {
      out.exec_model.merge(em);
      out.exec_wall.merge(ew);
      out.commit_model.merge(cm);
      out.commit_wall.merge(cw);
    }
  }
  self.barrier();
  if (self.id() == 0) {
    out.counters += d;
    out.txns += all_txns;
    out.aborts += all_aborts;
  }
  self.barrier();
}

void fill_gdi(LayerStats& ls, GdiReplay& g) {
  ls.gdi_execute_model_us = g.exec_model.mean();
  ls.gdi_execute_wall_us = g.exec_wall.mean();
  ls.gdi_commit_model_us = g.commit_model.mean();
  ls.gdi_commit_wall_us = g.commit_wall.mean();
  ls.gdi_abort_frac = ratio(static_cast<double>(g.aborts), static_cast<double>(g.txns));
  ls.gdi_commits_per_epoch = ratio(static_cast<double>(g.counters.gc_enrolled),
                                   static_cast<double>(g.counters.gc_epochs));
  ls.gdi_flushes_per_commit = ratio(static_cast<double>(g.counters.flushes),
                                    static_cast<double>(g.txns - g.aborts));
}

}  // namespace perfbench

// E15 — weak-memory runtime cost, in two tables (M1, M2).
//
// M1 compares the per-event cost of the two instrumentation families under
// the controlled runtime: an Atomic fetch-add (one AtomicRMW event, store
// history append, vector-clock joins for seq_cst) against a Mutex-protected
// plain increment (two lock events, no store history).  Two threads contend
// on one object in both rows, so scheduling overhead is identical and the
// delta is the atomic bookkeeping itself.
//
// M2 measures observable-store-set construction: a writer issues K relaxed
// stores to one location while a reader (never synchronized with it, so the
// happens-before floor stays at the initial store) issues relaxed loads.
// Every load walks the retained history to build its candidate set and asks
// the policy for a StorePick, so ns/load as a function of K is the cost of
// the candidate machinery at that history depth.  Results go to stdout and
// BENCH_mem.json.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "experiments.hpp"
#include "mem/atomic.hpp"
#include "rt/controlled_runtime.hpp"
#include "rt/primitives.hpp"

namespace mtt::bench {
namespace {

struct M1Row {
  std::string primitive;
  std::uint64_t ops = 0;      // total operations across both threads
  std::uint64_t events = 0;   // events those operations emit
  double nsPerOp = 0.0;
  double nsPerEvent = 0.0;
};

/// Runs `body` under a fresh controlled runtime twice, a warm-up and then
/// the timed run, and returns the timed run's seconds.
double timedRun(const std::function<void(rt::Runtime&)>& body,
                std::uint64_t steps) {
  double seconds = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    rt::ControlledRuntime rt;
    rt::RunOptions o;
    o.seed = 1;
    o.maxSteps = steps;
    o.programName = "e15_mem";
    rt::RunResult r;
    seconds = bestWall(1, [&] { r = rt.run(body, o); });
    if (r.status != rt::RunStatus::Completed) {
      throw std::runtime_error("run did not complete cleanly");
    }
  }
  return seconds;
}

/// One M1 row: `body` runs two threads of `opsPerThread` ops each.
M1Row measureM1(const char* primitive, std::uint64_t opsPerThread,
                std::uint64_t eventsPerOp,
                const std::function<void(rt::Runtime&)>& body) {
  const double seconds = timedRun(body, opsPerThread * 16 + 4096);
  M1Row row;
  row.primitive = primitive;
  row.ops = opsPerThread * 2;
  row.events = row.ops * eventsPerOp;
  row.nsPerOp = seconds * 1e9 / static_cast<double>(row.ops);
  row.nsPerEvent = seconds * 1e9 / static_cast<double>(row.events);
  return row;
}

M1Row measureAtomic(std::uint64_t opsPerThread) {
  // One AtomicRMW event per op.
  return measureM1("atomic fetch_add", opsPerThread, 1, [&](rt::Runtime& rr) {
    mem::Atomic<std::uint64_t> counter(rr, "counter", 0);
    auto work = [&] {
      for (std::uint64_t i = 0; i < opsPerThread; ++i) {
        counter.fetchAdd(1, std::memory_order_seq_cst);
      }
    };
    rt::Thread a(rr, "a", work);
    rt::Thread b(rr, "b", work);
    a.join();
    b.join();
  });
}

M1Row measureMutex(std::uint64_t opsPerThread) {
  // MutexLock + MutexUnlock per op.
  return measureM1("mutex increment", opsPerThread, 2, [&](rt::Runtime& rr) {
    rt::Mutex m(rr, "m");
    std::uint64_t counter = 0;
    auto work = [&] {
      for (std::uint64_t i = 0; i < opsPerThread; ++i) {
        m.lock();
        ++counter;
        m.unlock();
      }
    };
    rt::Thread a(rr, "a", work);
    rt::Thread b(rr, "b", work);
    a.join();
    b.join();
  });
}

/// ns per relaxed load with `depth` stores retained in the history.
double measureStoreSet(std::uint64_t depth, std::uint64_t loads) {
  auto body = [&](rt::Runtime& rr) {
    mem::Atomic<std::uint64_t> x(rr, "x", 0);
    rt::Thread writer(rr, "writer", [&] {
      for (std::uint64_t i = 0; i < depth; ++i) {
        x.store(i + 1, std::memory_order_relaxed);
      }
    });
    // The writer runs to completion first so every reader load sees the
    // full depth-(K+1) candidate set; the reader never joins the writer,
    // so no happens-before edge prunes it.
    writer.join();
    std::uint64_t sink = 0;
    rt::Thread reader(rr, "reader", [&] {
      for (std::uint64_t i = 0; i < loads; ++i) {
        sink += x.load(std::memory_order_relaxed);
      }
    });
    reader.join();
    rr.check(sink < ~std::uint64_t{0}, "sink overflow");
  };
  double seconds = timedRun(body, (depth + loads) * 16 + 4096);
  return seconds * 1e9 / static_cast<double>(loads);
}

}  // namespace

bool runE15() {
  const std::uint64_t opsPerThread = 4000;
  const std::uint64_t loads = 2000;

  std::printf("M1: per-event cost, 2 threads x %llu ops each\n",
              static_cast<unsigned long long>(opsPerThread));
  std::vector<M1Row> m1;
  m1.push_back(measureAtomic(opsPerThread));
  m1.push_back(measureMutex(opsPerThread));

  TextTable t1("E15 / M1 / Atomic vs Mutex under the controlled runtime");
  t1.header({"primitive", "ops", "events", "ns/op", "ns/event"});
  std::vector<Json> perEvent;
  for (const M1Row& r : m1) {
    t1.row({r.primitive, std::to_string(r.ops), std::to_string(r.events),
            TextTable::num(r.nsPerOp, 1), TextTable::num(r.nsPerEvent, 1)});
    perEvent.push_back(Json::object(
        {{"primitive", r.primitive}, {"ops", r.ops}, {"events", r.events},
         {"ns_per_op", r.nsPerOp}, {"ns_per_event", r.nsPerEvent}}));
  }
  t1.print();
  const double atomicNs = m1[0].nsPerEvent;
  const double mutexNs = m1[1].nsPerEvent;
  bool sane = atomicNs > 0.0 && mutexNs > 0.0;

  std::printf("\nM2: store-set construction, %llu relaxed loads per row\n",
              static_cast<unsigned long long>(loads));
  TextTable t2("E15 / M2 / ns per load vs retained store-history depth");
  t2.header({"depth", "ns/load"});
  std::vector<Json> storeSet;
  double shallowNs = 0.0, deepNs = 0.0;  // depth 1 and depth 128
  for (std::uint64_t depth : {1u, 8u, 32u, 128u}) {
    const double ns = measureStoreSet(depth, loads);
    if (depth == 1) shallowNs = ns;
    deepNs = ns;
    sane = sane && ns > 0.0;
    t2.row({std::to_string(depth), TextTable::num(ns, 1)});
    storeSet.push_back(Json::object({{"depth", depth}, {"ns_per_load", ns}}));
  }
  t2.print();

  std::printf(
      "\natomic: %.1f ns/event vs mutex: %.1f ns/event (%.2fx); "
      "store-set depth 128: %.1f ns/load vs depth 1: %.1f (%.2fx)\n",
      atomicNs, mutexNs, atomicNs / mutexNs, deepNs, shallowNs,
      deepNs / shallowNs);

  saveJson("E15", "mem",
           {{"ops_per_thread", opsPerThread}, {"loads", loads},
            {"per_event", Json::array(perEvent)},
            {"store_set", Json::array(storeSet)},
            {"atomic_vs_mutex_per_event", atomicNs / mutexNs}});
  return sane;
}

}  // namespace mtt::bench

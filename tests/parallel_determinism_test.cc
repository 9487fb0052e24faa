// Per-component MAP solving is parallelized with a chunked thread pool;
// components are independent and results are merged in component order, so
// a run on a 4-executor pool must be indistinguishable from a sequential
// run: same objective, same flip set (atom values), same diagnostics. The
// ThreadPool tests below pin the contract that lets one process-wide pool
// serve every layer: concurrent, nested and starved ParallelFor calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/resolver.h"
#include "datagen/generators.h"
#include "ground/grounder.h"
#include "mln/solver.h"
#include "psl/solver.h"
#include "rules/library.h"
#include "util/thread_pool.h"

namespace tecore {
namespace {

ground::GroundingResult GroundFootball(size_t players, bool with_inference,
                                       int ground_threads = 0) {
  datagen::FootballDbOptions gen;
  gen.num_players = players;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  auto constraints = rules::FootballConstraints();
  EXPECT_TRUE(constraints.ok());
  rules::RuleSet rules = *constraints;
  if (with_inference) {
    auto inference = rules::FootballInferenceRules();
    EXPECT_TRUE(inference.ok());
    rules.Merge(*inference);
  }
  // 0: the default ComputePool().
  std::unique_ptr<util::ThreadPool> pool;
  if (ground_threads != 0) {
    pool = std::make_unique<util::ThreadPool>(ground_threads);
  }
  ground::GroundingOptions options;
  options.pool = pool.get();
  ground::Grounder grounder(&kg.graph, rules, options);
  auto result = grounder.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

/// Bit-identical network comparison: atom ids, atom payloads, clause
/// order, literals, weights — the parallel-grounding determinism contract,
/// strictly stronger than the canonicalized equivalence check.
void ExpectNetworksBitIdentical(const ground::GroundingResult& a,
                                const ground::GroundingResult& b) {
  ASSERT_EQ(a.network.NumAtoms(), b.network.NumAtoms());
  ASSERT_EQ(a.network.NumClauses(), b.network.NumClauses());
  EXPECT_EQ(a.num_groundings, b.num_groundings);
  EXPECT_EQ(a.num_satisfied_heads, b.num_satisfied_heads);
  EXPECT_EQ(a.rounds, b.rounds);
  for (ground::AtomId id = 0; id < a.network.NumAtoms(); ++id) {
    const ground::GroundAtom& x = a.network.atom(id);
    const ground::GroundAtom& y = b.network.atom(id);
    ASSERT_EQ(x.subject, y.subject) << "atom " << id;
    ASSERT_EQ(x.predicate, y.predicate) << "atom " << id;
    ASSERT_EQ(x.object, y.object) << "atom " << id;
    ASSERT_EQ(x.interval, y.interval) << "atom " << id;
    ASSERT_EQ(x.is_evidence, y.is_evidence) << "atom " << id;
    ASSERT_EQ(x.prior_weight, y.prior_weight) << "atom " << id;
    ASSERT_EQ(x.source_fact, y.source_fact) << "atom " << id;
  }
  for (size_t ci = 0; ci < a.network.NumClauses(); ++ci) {
    const ground::GroundClause& x = a.network.clauses()[ci];
    const ground::GroundClause& y = b.network.clauses()[ci];
    ASSERT_EQ(x.literals, y.literals) << "clause " << ci;
    ASSERT_EQ(x.weight, y.weight) << "clause " << ci;
    ASSERT_EQ(x.hard, y.hard) << "clause " << ci;
    ASSERT_EQ(x.rule_index, y.rule_index) << "clause " << ci;
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SubmitRunsEveryTask) {
  // Declared before the pool: its destructor joins the workers first.
  std::atomic<int> done{0};
  std::promise<void> all_ran;
  util::ThreadPool pool(3);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      if (++done == 32) all_ran.set_value();
    });
  }
  all_ran.get_future().wait();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, ConcurrentCallersEachCoverEveryIndexOnce) {
  // Eight callers share one pool at once; completion is per call, so each
  // call sees exactly its own indices, each exactly once.
  constexpr size_t kCallers = 8;
  constexpr size_t kIndices = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& call_hits : hits) {
    call_hits = std::vector<std::atomic<int>>(kIndices);
  }
  util::ThreadPool pool(4);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kIndices, [&](size_t i) { ++hits[c][i]; });
      // Every index is done by the time this call returns.
      for (size_t i = 0; i < kIndices; ++i) {
        EXPECT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
      }
    });
  }
  for (std::thread& t : callers) t.join();
}

TEST(ThreadPool, ParallelForReturnsWhileEveryWorkerIsBlocked) {
  // Both workers are parked in Submit()ted tasks until the latch opens.
  // ParallelFor must still finish on the calling thread alone instead of
  // waiting for unrelated tasks; the latch opens only afterwards.
  std::promise<void> latch;
  std::shared_future<void> opened = latch.get_future().share();
  std::atomic<int> parked{0};
  std::vector<std::atomic<int>> hits(500);
  util::ThreadPool pool(3);
  for (int w = 0; w < pool.num_threads() - 1; ++w) {
    pool.Submit([&parked, opened] {
      ++parked;
      opened.wait();
    });
  }
  while (parked.load() != pool.num_threads() - 1) std::this_thread::yield();

  auto call = std::async(std::launch::async, [&] {
    pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  });
  const bool returned =
      call.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  latch.set_value();
  call.wait();
  EXPECT_TRUE(returned) << "ParallelFor waited for unrelated blocked tasks";
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 200;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  util::ThreadPool pool(4);
  pool.ParallelFor(kOuter, [&](size_t o) {
    pool.ParallelFor(kInner, [&](size_t i) { ++hits[o * kInner + i]; });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ComputePoolIsOneProcessWidePool) {
  EXPECT_EQ(&util::ComputePool(), &util::ComputePool());
  EXPECT_EQ(util::ComputePool().num_threads(), util::HardwareThreads());
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(util::ResolveThreadCount(0), 1);  // auto
  EXPECT_EQ(util::ResolveThreadCount(1), 1);
  EXPECT_EQ(util::ResolveThreadCount(4), 4);
}

TEST(ParallelDeterminism, GroundingBitIdenticalAcrossThreadCounts) {
  // The chained inference rules force several fixpoint rounds, so this
  // covers the parallel pass + canonical merge across rounds, not just the
  // round-0 evidence join.
  ground::GroundingResult one = GroundFootball(300, true, 1);
  ground::GroundingResult two = GroundFootball(300, true, 2);
  ground::GroundingResult four = GroundFootball(300, true, 4);
  EXPECT_GT(one.rounds, 1);
  ExpectNetworksBitIdentical(one, two);
  ExpectNetworksBitIdentical(one, four);
}

TEST(ParallelDeterminism, GroundingBitIdenticalOnWikidata) {
  datagen::WikidataOptions gen;
  gen.target_facts = 3000;
  auto constraints = rules::WikidataConstraints();
  ASSERT_TRUE(constraints.ok());
  std::vector<ground::GroundingResult> results;
  for (int threads : {1, 2, 4}) {
    datagen::GeneratedKg kg = datagen::GenerateWikidata(gen);
    util::ThreadPool pool(threads);
    ground::GroundingOptions options;
    options.pool = &pool;
    ground::Grounder grounder(&kg.graph, *constraints, options);
    auto result = grounder.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(std::move(*result));
  }
  ExpectNetworksBitIdentical(results[0], results[1]);
  ExpectNetworksBitIdentical(results[0], results[2]);
}

TEST(ParallelDeterminism, EndToEndResolveMatchesAcrossGroundThreads) {
  // Full pipeline determinism: grounding threads and solver threads both
  // vary, output graphs must be byte-identical.
  auto constraints = rules::FootballConstraints();
  ASSERT_TRUE(constraints.ok());
  std::vector<std::string> outputs;
  for (int threads : {1, 4}) {
    datagen::FootballDbOptions gen;
    gen.num_players = 200;
    datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
    util::ThreadPool pool(threads);
    core::ResolveOptions options;
    options.grounding.pool = options.mln.pool = options.psl.pool = &pool;
    core::Resolver resolver(&kg.graph, *constraints, options);
    auto result = resolver.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string rendered;
    for (rdf::FactId id = 0; id < result->consistent_graph.NumFacts(); ++id) {
      rendered += result->consistent_graph.FactToString(id) + "\n";
    }
    outputs.push_back(std::move(rendered));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(ParallelDeterminism, MlnObjectiveAndFlipSetMatchSequential) {
  ground::GroundingResult grounding = GroundFootball(600, false);
  util::ThreadPool one(1), four(4);
  mln::MlnSolverOptions sequential;
  sequential.pool = &one;
  mln::MlnSolverOptions parallel;
  parallel.pool = &four;

  mln::MlnMapSolver seq_solver(grounding.network, sequential);
  auto seq = seq_solver.Solve();
  ASSERT_TRUE(seq.ok());
  mln::MlnMapSolver par_solver(grounding.network, parallel);
  auto par = par_solver.Solve();
  ASSERT_TRUE(par.ok());

  EXPECT_EQ(seq->objective, par->objective);  // bit-identical, not approx
  EXPECT_EQ(seq->violated_weight, par->violated_weight);
  EXPECT_EQ(seq->atom_values, par->atom_values);
  EXPECT_EQ(seq->feasible, par->feasible);
  EXPECT_EQ(seq->optimal, par->optimal);
  EXPECT_EQ(seq->num_components, par->num_components);
  EXPECT_EQ(seq->largest_component, par->largest_component);
  EXPECT_EQ(seq->search_steps, par->search_steps);
  EXPECT_GT(seq->num_components, 1u);
}

TEST(ParallelDeterminism, MlnWalkSatBackendIsDeterministicToo) {
  ground::GroundingResult grounding = GroundFootball(600, false);
  util::ThreadPool one(1), four(4);
  mln::MlnSolverOptions sequential;
  sequential.backend = mln::MlnBackend::kWalkSat;
  sequential.pool = &one;
  mln::MlnSolverOptions parallel = sequential;
  parallel.pool = &four;

  mln::MlnMapSolver seq_solver(grounding.network, sequential);
  auto seq = seq_solver.Solve();
  ASSERT_TRUE(seq.ok());
  mln::MlnMapSolver par_solver(grounding.network, parallel);
  auto par = par_solver.Solve();
  ASSERT_TRUE(par.ok());

  // WalkSAT reseeds per component from the options, so thread interleaving
  // cannot leak into the search trajectory.
  EXPECT_EQ(seq->objective, par->objective);
  EXPECT_EQ(seq->atom_values, par->atom_values);
}

TEST(ParallelDeterminism, PslTruthValuesMatchSequential) {
  ground::GroundingResult grounding = GroundFootball(600, false);
  util::ThreadPool one(1), four(4);
  psl::PslSolverOptions sequential;
  sequential.pool = &one;
  psl::PslSolverOptions parallel;
  parallel.pool = &four;

  psl::PslSolver seq_solver(grounding.network, sequential);
  auto seq = seq_solver.Solve();
  ASSERT_TRUE(seq.ok());
  psl::PslSolver par_solver(grounding.network, parallel);
  auto par = par_solver.Solve();
  ASSERT_TRUE(par.ok());

  EXPECT_EQ(seq->truth_values, par->truth_values);  // bit-identical
  EXPECT_EQ(seq->atom_values, par->atom_values);
  EXPECT_EQ(seq->objective, par->objective);
  EXPECT_EQ(seq->energy, par->energy);
  EXPECT_EQ(seq->repair_flips, par->repair_flips);
  EXPECT_EQ(seq->num_components, par->num_components);
}

TEST(ParallelDeterminism, PslComponentDecompositionMatchesMonolithic) {
  // The consensus problem is separable: per-component ADMM and monolithic
  // ADMM round to the same Boolean state on the decoupled workload.
  ground::GroundingResult grounding = GroundFootball(600, false);
  psl::PslSolverOptions component_options;
  psl::PslSolverOptions monolithic_options;
  monolithic_options.use_components = false;

  psl::PslSolver comp_solver(grounding.network, component_options);
  auto comp = comp_solver.Solve();
  ASSERT_TRUE(comp.ok());
  psl::PslSolver mono_solver(grounding.network, monolithic_options);
  auto mono = mono_solver.Solve();
  ASSERT_TRUE(mono.ok());

  EXPECT_EQ(comp->feasible, mono->feasible);
  // Objectives agree up to rounding noise of the relaxation.
  EXPECT_NEAR(comp->objective, mono->objective,
              0.01 * std::max(1.0, mono->objective));
}

}  // namespace
}  // namespace tecore

#include "engine/engine.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "engine/attribute_order.h"
#include "engine/execution_context.h"
#include "storage/sort.h"
#include "util/cancel.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/timer.h"

namespace lmfao {

namespace {

/// Fingerprint of the compile-relevant options: anything that changes what
/// the three optimization layers produce must be part of the plan-cache
/// key. Scheduler options are execution-only and deliberately excluded.
uint64_t OptionsFingerprint(const EngineOptions& o) {
  uint64_t h = Mix64(0x5f356495u);
  h = HashCombine(h, static_cast<uint64_t>(o.view_generation.merge_views));
  h = HashCombine(h, static_cast<uint64_t>(o.grouping.multi_output));
  h = HashCombine(h, static_cast<uint64_t>(o.plan.factorize));
  h = HashCombine(h, static_cast<uint64_t>(o.plan.freeze_views));
  // The artifact carries its JIT module, so jit-on and jit-off Prepares
  // must not share cache entries (simd_kernels and the jit *mode flavor*
  // are execution-only and deliberately excluded).
  h = HashCombine(h, static_cast<uint64_t>(o.jit.mode != JitMode::kOff));
  return h;
}

/// Exact structural encoding of a batch under the given options: a flat
/// word sequence with size prefixes, so equality of two keys IS structural
/// equality of the batches (group-by sets, root hints, and every factor's
/// attr/kind/threshold-or-slot/dictionary identity, in canonical order).
/// Query names are excluded (they never reach the compiled artifact);
/// parameterized functions encode their slot, not any bound value — which
/// is exactly what lets CART-style workloads share one artifact across
/// re-issued batches that differ only in constants. The plan cache stores
/// this key per entry and verifies it on every hit, so a collision of the
/// 64-bit signature hash degrades to a fresh compile, never to serving
/// another shape's plans.
std::vector<uint64_t> BatchStructuralKey(const QueryBatch& batch,
                                         const EngineOptions& o) {
  std::vector<uint64_t> key;
  key.push_back(OptionsFingerprint(o));
  key.push_back(static_cast<uint64_t>(batch.size()));
  for (const Query& q : batch.queries()) {
    key.push_back(q.group_by.size());
    for (AttrId a : q.group_by) key.push_back(static_cast<uint64_t>(a));
    key.push_back(static_cast<uint64_t>(q.root_hint));
    key.push_back(q.aggregates.size());
    for (const Aggregate& agg : q.aggregates) {
      key.push_back(agg.factors().size());
      for (const Factor& f : agg.factors()) {
        key.push_back(static_cast<uint64_t>(f.attr));
        key.push_back(static_cast<uint64_t>(f.fn.kind()));
        if (f.fn.kind() == FunctionKind::kDictionary) {
          key.push_back(reinterpret_cast<uintptr_t>(f.fn.dict().get()));
        } else if (f.fn.IsParameterized()) {
          key.push_back(1);  // Tag: slot, not literal threshold.
          key.push_back(static_cast<uint64_t>(f.fn.param()));
        } else {
          key.push_back(0);
          const double threshold = f.fn.threshold();
          uint64_t bits;
          std::memcpy(&bits, &threshold, sizeof(bits));
          key.push_back(bits);
        }
      }
    }
  }
  return key;
}

/// The plan-cache signature: a hash of the structural key.
uint64_t KeySignature(const std::vector<uint64_t>& key) {
  uint64_t h = Mix64(0x7b9f4a31u);
  for (uint64_t w : key) h = HashCombine(h, w);
  return h;
}

/// Hash of the bound values of the batch's required parameter slots.
/// Recorded in BatchResult so a delta request can verify its base was
/// computed under the same bindings.
uint64_t ParamFingerprint(const std::vector<ParamId>& required,
                          const ParamPack& params) {
  uint64_t h = Mix64(0x243f6a88u);
  for (ParamId p : required) {
    h = HashCombine(h, static_cast<uint64_t>(p));
    const double v = params.Get(p);
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = HashCombine(h, bits);
  }
  return h;
}

}  // namespace

Engine::Engine(const Catalog* catalog, const JoinTree* tree,
               EngineOptions options)
    : catalog_(catalog), tree_(tree), options_(std::move(options)) {
  LMFAO_CHECK(catalog_ != nullptr);
  LMFAO_CHECK(tree_ != nullptr);
}

void Engine::InvalidateCaches() {
  // Sorted relations first, then — atomically under plan_mu_ — the
  // generation bump and the plan-cache clear. Prepare reads the
  // generation and probes the cache under the same lock, so a racing
  // Prepare either sees the old generation (its handle fails Execute as
  // stale) or the new generation with an already-empty cache; the
  // combination "new generation, stale cache entry" cannot be observed.
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    sorted_cache_.clear();
  }
  std::lock_guard<std::mutex> lock(plan_mu_);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  plan_cache_.clear();
  plan_lru_.clear();
}

Engine::PlanCacheStats Engine::plan_cache_stats() const {
  PlanCacheStats stats;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    stats.sorted_builds = sorted_builds_;
  }
  std::lock_guard<std::mutex> lock(plan_mu_);
  stats.hits = plan_cache_hits_;
  stats.misses = plan_cache_misses_;
  stats.entries = plan_cache_.size();
  stats.jit_hits = jit_hits_;
  stats.jit_compiles = jit_compiles_;
  jit_modules_.erase(
      std::remove_if(jit_modules_.begin(), jit_modules_.end(),
                     [](const std::weak_ptr<JitModule>& w) {
                       return w.expired();
                     }),
      jit_modules_.end());
  for (const std::weak_ptr<JitModule>& w : jit_modules_) {
    const std::shared_ptr<JitModule> m = w.lock();
    if (m == nullptr) continue;
    const JitModule::State s = m->state();
    if (s == JitModule::State::kFailed) ++stats.jit_failures;
    if (s != JitModule::State::kCompiling) {
      stats.jit_compile_ms += m->compile_ms();
    }
  }
  return stats;
}

StatusOr<CompiledBatch> Engine::Compile(const QueryBatch& batch) const {
  // One compile pipeline: the inspection surface extracts the artifacts
  // from the same code path Prepare runs, so displayed plans can never
  // drift from executed plans.
  LMFAO_ASSIGN_OR_RETURN(std::shared_ptr<CompiledArtifact> artifact,
                         CompileArtifact(batch));
  return std::move(artifact->compiled);
}

StatusOr<std::shared_ptr<CompiledArtifact>> Engine::CompileArtifact(
    const QueryBatch& batch) const {
  auto artifact = std::make_shared<CompiledArtifact>();
  artifact->required_params = batch.RequiredParams();
  artifact->num_queries = batch.size();

  Timer phase_timer;
  LMFAO_ASSIGN_OR_RETURN(
      artifact->compiled.workload,
      GenerateViews(batch, *catalog_, *tree_, options_.view_generation));
  artifact->viewgen_seconds = phase_timer.ElapsedSeconds();
  artifact->num_views = artifact->compiled.workload.NumInnerViews();
  for (const ViewInfo& v : artifact->compiled.workload.views) {
    artifact->num_aggregates += static_cast<int>(v.aggregates.size());
  }

  phase_timer.Reset();
  LMFAO_ASSIGN_OR_RETURN(
      artifact->compiled.grouped,
      GroupViews(artifact->compiled.workload, *catalog_, options_.grouping));
  artifact->grouping_seconds = phase_timer.ElapsedSeconds();

  phase_timer.Reset();
  for (const ViewGroup& group : artifact->compiled.grouped.groups) {
    LMFAO_ASSIGN_OR_RETURN(
        std::vector<AttrId> order,
        ComputeAttributeOrder(artifact->compiled.workload, group, *catalog_));
    LMFAO_ASSIGN_OR_RETURN(
        GroupPlan plan,
        BuildGroupPlan(artifact->compiled.workload, group, *catalog_, order,
                       options_.plan));
    artifact->compiled.attr_orders.push_back(std::move(order));
    artifact->compiled.plans.push_back(std::move(plan));
  }
  AssignViewForms(artifact->compiled.workload, artifact->compiled.grouped,
                  options_.plan, &artifact->compiled.plans);
  artifact->plan_seconds = phase_timer.ElapsedSeconds();
  return artifact;
}

StatusOr<PreparedBatch> Engine::Prepare(const QueryBatch& batch) {
  Timer prepare_timer;
  std::vector<uint64_t> structural_key = BatchStructuralKey(batch, options_);
  const uint64_t signature = KeySignature(structural_key);
  const size_t capacity = options_.plan_cache_capacity;

  PreparedBatch prepared;
  prepared.engine_ = this;
  prepared.options_ = options_;
  bool collision = false;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    prepared.generation_ = generation();
    auto it = plan_cache_.find(signature);
    if (it != plan_cache_.end()) {
      if (it->second.structural_key == structural_key) {
        ++plan_cache_hits_;
        if (it->second.artifact->jit != nullptr) ++jit_hits_;
        plan_lru_.splice(plan_lru_.end(), plan_lru_, it->second.lru_pos);
        prepared.artifact_ = it->second.artifact;
        prepared.from_cache_ = true;
        prepared.compile_seconds_ = prepare_timer.ElapsedSeconds();
        return prepared;
      }
      // Signature collision with a structurally different batch (~2^-64):
      // compile fresh and leave the existing entry in place.
      collision = true;
    }
    ++plan_cache_misses_;
  }

  // Compile outside the lock: concurrent Prepares of the same shape may
  // duplicate work, but never block each other on a long compile.
  LMFAO_ASSIGN_OR_RETURN(std::shared_ptr<CompiledArtifact> fresh,
                         CompileArtifact(batch));
  fresh->signature = signature;
  if (options_.jit.mode != JitMode::kOff) {
    // Kick the native backend. Failures at any stage (emission, compiler,
    // dlopen) are non-fatal: execution falls back to the interpreter
    // tiers, and plan_cache_stats() surfaces the failure.
    StatusOr<RuntimeBatchCode> code = GenerateRuntimeBatchCode(
        fresh->compiled.plans, fresh->compiled.workload, *catalog_);
    if (code.ok()) {
      fresh->jit =
          JitModule::Compile(std::move(code).value(), options_.jit);
      std::lock_guard<std::mutex> lock(plan_mu_);
      ++jit_compiles_;
      jit_modules_.push_back(fresh->jit);
    }
  }
  const std::shared_ptr<const CompiledArtifact> artifact = std::move(fresh);
  prepared.artifact_ = artifact;
  if (capacity > 0 && !collision) {
    std::lock_guard<std::mutex> lock(plan_mu_);
    // Insert only while the generation still matches the one this handle
    // carries: if InvalidateCaches ran mid-compile, the artifact stays
    // private to this (already stale) handle and the fresh cache never
    // holds it.
    if (generation() == prepared.generation_ &&
        plan_cache_.find(signature) == plan_cache_.end()) {
      plan_lru_.push_back(signature);
      PlanCacheEntry entry;
      entry.structural_key = std::move(structural_key);
      entry.artifact = artifact;
      entry.lru_pos = std::prev(plan_lru_.end());
      plan_cache_.emplace(signature, std::move(entry));
      while (plan_cache_.size() > capacity) {
        plan_cache_.erase(plan_lru_.front());
        plan_lru_.pop_front();
      }
    }
  }
  prepared.compile_seconds_ = prepare_timer.ElapsedSeconds();
  return prepared;
}

Status PreparedBatch::CheckExecutable(const ParamPack& params) const {
  if (engine_ == nullptr || artifact_ == nullptr) {
    return Status::FailedPrecondition(
        "PreparedBatch::Execute on an empty handle");
  }
  if (engine_->generation() != generation_) {
    return Status::FailedPrecondition(
        "stale PreparedBatch: Engine::InvalidateCaches ran after Prepare; "
        "re-Prepare the batch against the current data");
  }
  for (ParamId p : artifact_->required_params) {
    if (!params.Has(p)) {
      return Status::InvalidArgument(
          "PreparedBatch::Execute: unbound parameter p" + std::to_string(p));
    }
  }
  return Status::OK();
}

StatusOr<BatchResult> PreparedBatch::RunPass(const PassSpec& spec,
                                             const ParamPack& params,
                                             const CancelToken& cancel) const {
  // A failure parked by a void seam during some earlier pass on this
  // thread must not be blamed on this one.
  if (Failpoints::enabled()) Failpoints::ClearParked();
  BatchResult result;
  const CompiledBatch& compiled = artifact_->compiled;

  // Snapshots served to this pass are pinned for its whole duration:
  // the engine's sorted cache may prune an epoch while we still read it.
  struct PinSet {
    std::mutex mu;
    std::vector<std::shared_ptr<const Relation>> pins;
  } pin_set;

  Timer exec_timer;
  ExecBackend backend;
  backend.jit = artifact_->jit.get();
  backend.simd = options_.simd_kernels;
  // The token is owned by the caller's stack frame: every worker the
  // context spawns joins before Run returns, so no reference escapes.
  ExecutionContext context(
      compiled.workload, compiled.grouped, compiled.plans,
      options_.scheduler,
      [this, &spec, &pin_set](
          RelationId node,
          const std::vector<AttrId>& order) -> StatusOr<const Relation*> {
        std::shared_ptr<const Relation> snap;
        if (node != spec.slice_node) {
          LMFAO_ASSIGN_OR_RETURN(
              snap, engine_->SortedRelationAt(node, order, spec.rows.at(node)));
        } else {
          LMFAO_ASSIGN_OR_RETURN(
              snap, engine_->SortedDeltaSlice(node, order, spec.slice_lo,
                                              spec.slice_hi));
        }
        const Relation* raw = snap.get();
        std::lock_guard<std::mutex> lock(pin_set.mu);
        pin_set.pins.push_back(std::move(snap));
        return raw;
      },
      &params, backend, &cancel);
  LMFAO_RETURN_NOT_OK(context.Run(&result.stats));
  result.stats.execute_seconds = exec_timer.ElapsedSeconds();

  // Extract query results.
  result.results.resize(static_cast<size_t>(artifact_->num_queries));
  for (QueryId q = 0; q < artifact_->num_queries; ++q) {
    const ViewId out =
        compiled.workload.query_outputs[static_cast<size_t>(q)];
    QueryResult& qr = result.results[static_cast<size_t>(q)];
    qr.query_id = q;
    qr.group_by = compiled.workload.view(out).key;
    LMFAO_ASSIGN_OR_RETURN(qr.data, context.TakeQueryResult(out));
  }
  return result;
}

StatusOr<BatchResult> PreparedBatch::Execute(
    const ExecRequest& request) const {
  LMFAO_RETURN_NOT_OK(CheckExecutable(request.params));
  Timer total_timer;
  const Catalog& catalog = *engine_->catalog_;
  EpochSnapshot target = request.epoch.has_value() ? *request.epoch
                                                   : catalog.SnapshotEpoch();
  if (target.rows.size() != static_cast<size_t>(catalog.num_relations())) {
    return Status::InvalidArgument(
        "Execute: epoch snapshot tracks " + std::to_string(target.rows.size()) +
        " relations, catalog has " + std::to_string(catalog.num_relations()));
  }
  const uint64_t fingerprint =
      ParamFingerprint(artifact_->required_params, request.params);

  std::vector<PassSpec> passes;
  BatchResult result;
  if (request.delta_base != nullptr) {
    LMFAO_ASSIGN_OR_RETURN(
        passes, DeltaPasses(*request.delta_base, target, fingerprint));
    // The passes fold into a private copy of the base results, returned
    // only on full success: a trip (or any failure) leaves the caller's
    // base untouched and able to seed a later retry.
    result.results = request.delta_base->results;
  } else {
    passes.emplace_back();
    passes.back().rows = target;
  }

  LMFAO_RETURN_NOT_OK(
      RunPasses(passes, request.params, request.limits, &result));
  ExecutionStats& stats = result.stats;
  if (request.delta_base != nullptr) {
    stats.delta_execution = true;
    stats.delta_passes = static_cast<int>(passes.size());
    for (const PassSpec& pass : passes) {
      const RelationId r = pass.slice_node;
      stats.delta_rows += pass.slice_hi - pass.slice_lo;
      for (const GroupPlan& plan : artifact_->compiled.plans) {
        if (r < 64 && ((plan.source_relation_mask >> r) & 1)) {
          ++stats.delta_dirty_groups;
        }
      }
    }
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  // Both flavours carry the identity of a plain execution at the target
  // epoch, so any result can seed a later delta refresh.
  result.epoch = std::move(target);
  result.artifact_signature = artifact_->signature;
  result.param_fingerprint = fingerprint;
  return result;
}

StatusOr<BatchResult> PreparedBatch::ExecuteAt(const EpochSnapshot& epoch,
                                               const ParamPack& params) const {
  ExecRequest request(params);
  request.epoch = epoch;
  return Execute(request);
}

StatusOr<std::vector<PreparedBatch::PassSpec>> PreparedBatch::DeltaPasses(
    const BatchResult& base, const EpochSnapshot& target,
    uint64_t fingerprint) const {
  if (base.artifact_signature != artifact_->signature) {
    return Status::InvalidArgument(
        "Execute: delta base was computed by a different batch shape "
        "(artifact signature mismatch)");
  }
  if (base.param_fingerprint != fingerprint) {
    return Status::InvalidArgument(
        "Execute: delta base was computed under different parameter "
        "bindings; a delta under other parameters is not a delta of it");
  }
  const Catalog& catalog = *engine_->catalog_;
  if (base.epoch.rows.size() != target.rows.size()) {
    return Status::InvalidArgument(
        "Execute: delta base epoch tracks " +
        std::to_string(base.epoch.rows.size()) + " relations, catalog has " +
        std::to_string(target.rows.size()));
  }

  // Multilinearity: summing, over changed relations c_1 < ... < c_k, the
  // batch evaluated with c_i served as its appended slice, c_1..c_{i-1} at
  // their NEW watermarks and c_{i+1}..c_k (and everything unchanged) at the
  // OLD watermarks telescopes to exactly Q(new) - Q(old).
  std::vector<PassSpec> passes;
  EpochSnapshot serve = base.epoch;
  for (RelationId r = 0; r < catalog.num_relations(); ++r) {
    const size_t old_rows = base.epoch.at(r);
    const size_t new_rows = target.at(r);
    if (new_rows < old_rows) {
      return Status::FailedPrecondition(
          "Execute: relation " + catalog.relation(r).name() +
          " at the target epoch is below the delta base's watermark — the "
          "target predates the base, or a non-append mutation happened; "
          "call Engine::InvalidateCaches and re-execute");
    }
    if (new_rows == old_rows) continue;
    PassSpec pass;
    pass.rows = serve;
    pass.slice_node = r;
    pass.slice_lo = old_rows;
    pass.slice_hi = new_rows;
    passes.push_back(std::move(pass));
    // Later terms see this relation's new extent.
    serve.rows[static_cast<size_t>(r)] = new_rows;
  }
  return passes;
}

Status PreparedBatch::RunPasses(const std::vector<PassSpec>& passes,
                                const ParamPack& params,
                                const ExecLimits& limits,
                                BatchResult* result) const {
  CancelToken cancel;
  if (limits.enabled()) {
    cancel.ArmDeadline(limits.deadline_seconds);
    cancel.ArmBudget(limits.max_view_bytes);
  }
  ExecutionStats& stats = result->stats;
  stats = ExecutionStats();
  stats.num_queries = artifact_->num_queries;
  stats.num_views = artifact_->num_views;
  stats.num_aggregates = artifact_->num_aggregates;
  stats.num_groups =
      static_cast<int>(artifact_->compiled.grouped.groups.size());
  // Phase times of the artifact's original compilation; this call itself
  // pays no compile (the Evaluate wrapper overwrites these two fields with
  // its measured Prepare cost).
  stats.viewgen_seconds = artifact_->viewgen_seconds;
  stats.grouping_seconds = artifact_->grouping_seconds;
  stats.plan_seconds = artifact_->plan_seconds;
  stats.plan_cache_hit = true;
  for (const PassSpec& pass : passes) {
    LMFAO_FAILPOINT("engine.pass");
    LMFAO_ASSIGN_OR_RETURN(BatchResult term, RunPass(pass, params, cancel));
    stats.AddPass(term.stats);
    if (result->results.empty()) {
      result->results = std::move(term.results);
      continue;
    }
    Timer merge_timer;
    for (size_t q = 0; q < result->results.size(); ++q) {
      result->results[q].data.MergeAdd(term.results[q].data);
    }
    stats.merge_seconds += merge_timer.ElapsedSeconds();
  }
  return Status::OK();
}

StatusOr<BatchResult> Engine::Evaluate(const QueryBatch& batch,
                                       const ExecRequest& request) {
  Timer total_timer;
  LMFAO_ASSIGN_OR_RETURN(PreparedBatch prepared, Prepare(batch));
  LMFAO_ASSIGN_OR_RETURN(BatchResult result, prepared.Execute(request));
  result.stats.compile_seconds = prepared.compile_seconds();
  result.stats.plan_cache_hit = prepared.from_cache();
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

StatusOr<std::shared_ptr<const Relation>> Engine::SortedRelationAt(
    RelationId node, const std::vector<AttrId>& order, size_t rows) {
  const Relation& base = catalog_->relation(node);
  std::vector<AttrId> sub;
  for (AttrId a : order) {
    if (base.schema().Contains(a)) sub.push_back(a);
  }

  const std::pair<RelationId, std::vector<AttrId>> key{node, sub};
  // The sorted-cache seam, hit before every lookup (hits included):
  // sorting/merging a snapshot is the largest transient allocation the
  // engine itself makes.
  LMFAO_FAILPOINT("engine.sorted_cache");
  std::shared_ptr<const Relation> prefix;  // Largest cached epoch <= rows.
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = sorted_cache_.find(key);
    if (it != sorted_cache_.end() && !it->second.empty()) {
      auto eit = it->second.upper_bound(rows);
      if (eit != it->second.begin()) {
        --eit;
        if (eit->first == rows) return eit->second;
        prefix = eit->second;
      }
    }
  }

  // Build outside the cache lock (duplicated work on a race is harmless).
  // Copy the rows the prefix is missing under a shared hold of the
  // catalog's data mutex: committed rows are immutable, but a concurrent
  // append may reallocate the column vectors mid-copy.
  const size_t lo = prefix ? prefix->num_rows() : 0;
  Relation slice;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_->data_mutex());
    if (rows > base.num_rows()) {
      return Status::InvalidArgument(
          "epoch watermark " + std::to_string(rows) + " beyond relation " +
          base.name() + " (" + std::to_string(base.num_rows()) + " rows)");
    }
    slice = base.SliceRows(lo, rows);
  }

  std::shared_ptr<const Relation> built;
  if (prefix == nullptr) {
    if (!sub.empty()) LMFAO_RETURN_NOT_OK(SortRelation(&slice, sub));
    built = std::make_shared<const Relation>(std::move(slice));
  } else if (sub.empty()) {
    Relation merged(*prefix);
    LMFAO_RETURN_NOT_OK(merged.Append(slice));
    built = std::make_shared<const Relation>(std::move(merged));
  } else {
    // Sort only the appended slice, then stable-merge (prefix first on
    // ties) — bit-identical to sorting all `rows` rows from scratch,
    // because SortPermutation breaks ties by original row index.
    LMFAO_RETURN_NOT_OK(SortRelation(&slice, sub));
    LMFAO_ASSIGN_OR_RETURN(Relation merged,
                           MergeSortedRelations(*prefix, slice, sub));
    built = std::make_shared<const Relation>(std::move(merged));
  }

  std::lock_guard<std::mutex> lock(cache_mu_);
  ++sorted_builds_;
  auto& epochs = sorted_cache_[key];
  auto [eit, inserted] = epochs.emplace(rows, built);
  if (!inserted) return eit->second;  // A racing build won; use its copy.
  // Keep two epochs per (node, order): the one just built and the largest
  // other one. Evicting the oldest outright would drop the new entry when
  // an epoch older than both cached ones is read, and every later read of
  // that epoch would sort it again.
  while (epochs.size() > 2) {
    epochs.erase(epochs.begin() == eit ? std::next(eit) : epochs.begin());
  }
  return built;
}

StatusOr<std::shared_ptr<const Relation>> Engine::SortedDeltaSlice(
    RelationId node, const std::vector<AttrId>& order, size_t lo, size_t hi) {
  const Relation& base = catalog_->relation(node);
  std::vector<AttrId> sub;
  for (AttrId a : order) {
    if (base.schema().Contains(a)) sub.push_back(a);
  }
  Relation slice;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_->data_mutex());
    if (hi > base.num_rows()) {
      return Status::InvalidArgument(
          "delta watermark " + std::to_string(hi) + " beyond relation " +
          base.name());
    }
    slice = base.SliceRows(lo, hi);
  }
  if (!sub.empty()) LMFAO_RETURN_NOT_OK(SortRelation(&slice, sub));
  return std::make_shared<const Relation>(std::move(slice));
}

}  // namespace lmfao

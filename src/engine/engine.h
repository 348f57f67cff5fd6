/// \file engine.h
/// \brief The LMFAO engine: prepare-once / execute-many evaluation of
/// aggregate batches.
///
/// Ties the layers together (Fig. 1): View Generation lowers the batch into
/// a workload of merged directional views; Multi-Output Optimization groups
/// the views and compiles one register program per group; execution runs the
/// groups over the join tree, sequentially or in parallel, and extracts one
/// result map per query.
///
/// The public surface is a prepared-statement-style split:
///
///   - `Engine::Prepare(batch)` runs all three optimization layers once and
///     returns a `PreparedBatch` handle owning the immutable compiled
///     artifact (workload, groups, attribute orders, group plans with leaf
///     factor tables and flattened register programs) plus a frozen
///     snapshot of the engine options.
///   - `PreparedBatch::Execute(request)` runs ONLY the execution layer. It
///     is repeatable and safe to call concurrently from multiple threads:
///     the compiled state is never mutated, and each Execute builds its own
///     ExecutionContext. An `ExecRequest` carries the parameter bindings
///     (Function::IndicatorParam slots resolve against them at group bind
///     time) plus the optional epoch, delta base and limits; a bare
///     ParamPack converts to a plain request.
///   - `Engine::Evaluate(batch, request)` remains as the one-shot
///     convenience wrapper, literally Prepare + Execute.
///
/// Prepare is backed by a *structural plan cache*: batches with equal
/// structure (group-bys, root hints, aggregate signatures — parameterized
/// functions hash their slot, not any bound constant) and equal
/// compile-relevant options share one compiled artifact, so workloads that
/// re-issue the same batch shape with different constants (CART node
/// batches, k-means iterations) compile once and execute many times.
/// `InvalidateCaches()` bumps a generation counter: existing PreparedBatch
/// handles turn stale and fail Execute with FailedPrecondition instead of
/// silently reusing sort/plan caches of mutated relations.

#ifndef LMFAO_ENGINE_ENGINE_H_
#define LMFAO_ENGINE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/grouping.h"
#include "engine/ir.h"
#include "engine/jit.h"
#include "engine/parallel.h"
#include "engine/plan.h"
#include "engine/view_generation.h"
#include "jointree/join_tree.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace lmfao {

class CancelToken;
class Engine;

/// \brief Resource limits governing one execution call.
///
/// Enforced by one CancelToken shared across the call's workers and, for
/// a delta refresh, across all of its passes — the deadline bounds the
/// whole call. Checked at
/// group boundaries, after every publish, and (interpreter tiers) amortized
/// inside the trie iteration. A tripped deadline returns DeadlineExceeded,
/// a tripped memory budget ResourceExhausted; either way the pass unwinds
/// cleanly — consumed views released, partial outputs dropped, the engine's
/// caches and generation untouched — so the same PreparedBatch can be
/// re-executed afterwards. Both fields default to "unlimited"; enabling
/// them costs <2% on untripped executions (bench_e2e_batch LimitOverhead).
struct ExecLimits {
  /// Wall-clock budget in seconds for the whole call; <= 0 = no deadline.
  double deadline_seconds = 0.0;
  /// Budget for live view memory (ViewStore bytes plus in-flight output
  /// maps); 0 = unlimited. A trip on a domain-sharded group retries once
  /// unsharded (lower peak memory) before failing the pass.
  size_t max_view_bytes = 0;

  bool enabled() const {
    return deadline_seconds > 0.0 || max_view_bytes != 0;
  }
};

/// \brief All engine options, including the ablation toggles benchmarked by
/// bench_ablation.
struct EngineOptions {
  ViewGenerationOptions view_generation;
  GroupingOptions grouping;
  PlanOptions plan;
  /// The unified task+domain scheduler (parallel.h). Defaults to
  /// sequential execution (num_threads = 1); any larger thread count runs
  /// the hybrid scheduler.
  SchedulerOptions scheduler;
  /// Maximum distinct batch shapes held by the structural plan cache
  /// (least-recently-used shapes are evicted beyond this; outstanding
  /// PreparedBatch handles keep their artifact alive regardless). 0
  /// disables caching — every Prepare compiles fresh. Execution-only: not
  /// part of the cache key.
  size_t plan_cache_capacity = 64;
  /// Runtime JIT backend (engine/jit.h): Prepare lowers the batch's plans
  /// through the runtime emitter and compiles them into a shared object;
  /// groups whose native function is ready execute it instead of the
  /// interpreter. Defaults from the environment (LMFAO_JIT=off|on|async|
  /// sync, LMFAO_JIT_CC=<compiler>); kOff when unset. The mode (on/off) is
  /// part of the plan-cache key — artifacts carry their module.
  JitOptions jit = JitOptions::FromEnv();
  /// Routes interpreter hot kernels (range sums, scratch product sums,
  /// fused beta runs) through the explicit AVX2 tier (simd_kernels.h).
  /// Bit-identical to the scalar shapes on all inputs, so it defaults on;
  /// execution-only, not part of the cache key.
  bool simd_kernels = true;
};

/// \brief Per-group execution statistics.
struct GroupStats {
  int group_id = -1;
  RelationId node = kInvalidRelation;
  int num_outputs = 0;
  double seconds = 0.0;
  size_t output_entries = 0;
  /// Domain shards the group ran in (1 = unsharded).
  int shards = 1;
  /// Seconds the group waited between becoming ready and starting.
  double wait_seconds = 0.0;
  /// Execution backend the group ran on: "jit" (native compiled function),
  /// "simd" (interpreter with explicit AVX2 kernels), or "interp" (scalar
  /// interpreter). Points at static strings.
  const char* backend = "interp";
  /// True when the group ran below its requested tier or shape: a JIT
  /// module was configured but this group fell back to the interpreter
  /// tiers, or a memory trip forced the once-unsharded retry.
  bool degraded = false;
  /// Live ViewStore bytes right after the group published its outputs and
  /// released its inputs (the view-memory frontier at this point of the
  /// schedule), split into key-side bytes (packed keys, cached hashes,
  /// occupancy) and payload bytes so layout wins stay attributable.
  size_t store_key_bytes = 0;
  size_t store_payload_bytes = 0;

  size_t store_bytes() const { return store_key_bytes + store_payload_bytes; }
};

/// \brief Statistics of one batch evaluation.
///
/// Timing is split along the Prepare/Execute boundary: `compile_seconds`
/// is the optimization-layer time THIS call actually paid (0 when the
/// artifact came from a PreparedBatch or the plan cache), while
/// viewgen/grouping/plan_seconds record the phase breakdown of the
/// artifact's original compilation, whenever it happened.
struct ExecutionStats {
  int num_queries = 0;
  int num_views = 0;        ///< Inner (directional) views after merging.
  int num_aggregates = 0;   ///< Aggregate slots across all views/outputs.
  int num_groups = 0;
  double viewgen_seconds = 0.0;
  double grouping_seconds = 0.0;
  double plan_seconds = 0.0;
  /// Compile time paid by this call (viewgen + grouping + planning, plus
  /// cache bookkeeping). ~0 on a plan-cache hit or a prepared Execute.
  double compile_seconds = 0.0;
  /// True when this call reused a previously compiled artifact (plan-cache
  /// hit, or any Execute of an existing PreparedBatch).
  bool plan_cache_hit = false;
  double execute_seconds = 0.0;
  double total_seconds = 0.0;
  /// Peak number of simultaneously materialized views; eager eviction
  /// keeps this below the workload's total view count on multi-group
  /// workloads.
  size_t peak_live_views = 0;
  /// Peak bytes held by the ViewStore, plus the key/payload split (each
  /// side's own peak, so the two need not sum to peak_view_bytes).
  size_t peak_view_bytes = 0;
  size_t peak_view_key_bytes = 0;
  size_t peak_view_payload_bytes = 0;
  /// Views frozen into sorted-array form (plan-layer freeze decision).
  int num_frozen_views = 0;
  /// \name Delta execution (ExecRequest::delta_base).
  /// @{
  /// True when this result was produced by folding delta passes into a
  /// previous result instead of a full execution.
  bool delta_execution = false;
  /// Delta passes run — one per relation that grew between the base
  /// result's epoch and the refresh epoch (0 = nothing changed, the base
  /// results were returned unchanged).
  int delta_passes = 0;
  /// Total appended rows propagated across all delta passes.
  size_t delta_rows = 0;
  /// Across all delta passes, group executions whose input closure
  /// (GroupPlan::source_relation_mask) contains the pass's delta relation —
  /// the groups that computed true deltas rather than replaying unchanged
  /// inputs.
  int delta_dirty_groups = 0;
  /// Time spent folding the delta passes' outputs into the base results
  /// (ViewMap::MergeAdd).
  double merge_seconds = 0.0;
  /// @}
  /// \name Execution backend (see GroupStats::backend).
  /// @{
  /// Group executions per backend tier this call. Multi-pass executions
  /// accumulate across passes, so the three can sum to a multiple of
  /// num_groups.
  int groups_jit = 0;
  int groups_simd = 0;
  int groups_interp = 0;
  /// "jit" / "simd" / "interp" when every group ran one tier, "mixed"
  /// otherwise (e.g. async JIT still compiling for part of a pass).
  std::string backend = "interp";
  /// \name Resource governance (ExecLimits).
  /// Limit trips observed during the pass — deadline or memory-budget
  /// trips, including injected OOM failpoints and trips the unsharded
  /// retry recovered from — and groups that ran degraded (see
  /// GroupStats::degraded). Multi-pass executions accumulate across passes.
  /// @{
  int limit_trips = 0;
  int degraded_groups = 0;
  /// @}
  /// Recomputes `backend` from the per-tier counters.
  void DeriveBackend() {
    const int kinds = (groups_jit > 0 ? 1 : 0) + (groups_simd > 0 ? 1 : 0) +
                      (groups_interp > 0 ? 1 : 0);
    if (kinds > 1) {
      backend = "mixed";
    } else if (groups_jit > 0) {
      backend = "jit";
    } else if (groups_simd > 0) {
      backend = "simd";
    } else {
      backend = "interp";
    }
  }
  /// @}
  /// Folds one execution pass's figures into this call's totals (every
  /// execution runs one or more passes). Times and counters add, peaks
  /// take the maximum, the pass's group stats are appended, and the
  /// backend label is re-derived.
  void AddPass(const ExecutionStats& pass) {
    execute_seconds += pass.execute_seconds;
    peak_live_views = std::max(peak_live_views, pass.peak_live_views);
    peak_view_bytes = std::max(peak_view_bytes, pass.peak_view_bytes);
    peak_view_key_bytes =
        std::max(peak_view_key_bytes, pass.peak_view_key_bytes);
    peak_view_payload_bytes =
        std::max(peak_view_payload_bytes, pass.peak_view_payload_bytes);
    num_frozen_views += pass.num_frozen_views;
    groups_jit += pass.groups_jit;
    groups_simd += pass.groups_simd;
    groups_interp += pass.groups_interp;
    limit_trips += pass.limit_trips;
    degraded_groups += pass.degraded_groups;
    groups.insert(groups.end(), pass.groups.begin(), pass.groups.end());
    DeriveBackend();
  }
  /// Per group execution of this call, in pass order (multi-pass
  /// executions list every pass's groups).
  std::vector<GroupStats> groups;
};

/// \brief The result of evaluating a batch.
struct BatchResult {
  std::vector<QueryResult> results;  ///< Parallel to the batch's queries.
  ExecutionStats stats;
  /// The epoch this result reflects: per-relation committed row counts at
  /// execution time. A delta request (ExecRequest::delta_base) refreshes a
  /// result from these watermarks to a later epoch by propagating only the
  /// rows in between.
  EpochSnapshot epoch;
  /// Signature of the compiled artifact that produced this result; a delta
  /// request refuses to fold deltas computed under a different batch shape.
  uint64_t artifact_signature = 0;
  /// Hash of the bound parameter values the result was computed under; a
  /// delta request requires the same bindings (a delta under different
  /// parameters is not a delta of this result).
  uint64_t param_fingerprint = 0;
};

/// \brief One execution of a prepared batch: what to bind, at which epoch,
/// from which earlier result, and under which limits.
///
/// Every field but `params` is optional, and the default request is a full
/// execution at the current epoch. Converts implicitly from a ParamPack, so
/// `Execute(params)` is the plain execution under those bindings.
struct ExecRequest {
  ExecRequest() = default;
  ExecRequest(ParamPack p) : params(std::move(p)) {}  // NOLINT

  /// Binds the batch's parameterized functions; every required slot must
  /// be bound.
  ParamPack params;
  /// The epoch to execute at (from Catalog::SnapshotEpoch); unset = the
  /// epoch snapshotted at call start. Reads exactly the rows committed at
  /// that epoch regardless of appends since; it must not exceed the
  /// current watermarks.
  std::optional<EpochSnapshot> epoch;
  /// Refreshes this earlier result of the same batch shape and bindings to
  /// the target epoch instead of recomputing it: only the rows appended
  /// between the two epochs are propagated. Borrowed for the call and
  /// never modified, so one base can seed many refreshes.
  const BatchResult* delta_base = nullptr;
  /// Wall-clock and view-memory budget for the whole call (all passes).
  ExecLimits limits;
};

/// \brief Inspection artifacts (used by the demo-style examples and the
/// structural benchmarks reproducing Fig. 2 / Fig. 3).
struct CompiledBatch {
  Workload workload;
  GroupedWorkload grouped;
  std::vector<std::vector<AttrId>> attr_orders;  ///< Per group.
  std::vector<GroupPlan> plans;                  ///< Per group.
};

/// \brief The immutable product of compiling one batch shape: everything
/// the execution layer needs, plus the structural signature and the cost
/// of the original compile. Shared (by shared_ptr) between the engine's
/// plan cache and every PreparedBatch handle, and never mutated after
/// construction — which is what makes concurrent Executes safe.
struct CompiledArtifact {
  CompiledBatch compiled;
  /// Sorted distinct parameter slots the batch references; Execute
  /// validates all of them are bound before running.
  std::vector<ParamId> required_params;
  /// Structural batch signature + compile-relevant options fingerprint
  /// (the plan-cache key).
  uint64_t signature = 0;
  int num_queries = 0;
  int num_views = 0;
  int num_aggregates = 0;
  /// Phase breakdown of the original compilation.
  double viewgen_seconds = 0.0;
  double grouping_seconds = 0.0;
  double plan_seconds = 0.0;
  /// The batch's JIT module (null when the JIT is off or runtime codegen
  /// was skipped). May still be compiling (async mode): executions probe
  /// its state per group and fall back to the interpreter tiers until it
  /// is ready. Shared with the plan cache, so a cached artifact's module
  /// is reused — the compile is paid once per batch shape.
  std::shared_ptr<JitModule> jit;
};

/// \brief A compiled batch ready for repeated execution.
///
/// Obtained from `Engine::Prepare`. The handle borrows the Engine (which
/// must outlive it) and shares the immutable compiled artifact; copying a
/// PreparedBatch is cheap and copies share the artifact.
///
/// Thread safety: `Execute` / `ExecuteAt` may be called concurrently from
/// any number of threads — each call builds private ExecutionContexts over
/// the shared immutable artifact, and the engine's sorted-relation cache
/// is internally synchronized. `Catalog::Append` may
/// also run concurrently with executions: each execution reads an epoch
/// snapshot, so it observes either none or all of any append.
/// `Engine::InvalidateCaches` (required after *non-append* mutations) must
/// not run while Executes are in flight; it marks this handle stale so
/// *subsequent* Executes fail cleanly.
class PreparedBatch {
 public:
  PreparedBatch() = default;

  /// Runs the execution layer over the compiled artifact as `request`
  /// says. All `required_params` slots must be bound; a batch with no
  /// parameterized functions executes with the default empty pack.
  ///
  /// The execution reads one epoch snapshot — `request.epoch`, or the
  /// epoch snapshotted at call start — so rows appended concurrently
  /// (Catalog::Append) are not observed; the snapshot is recorded in
  /// BatchResult::epoch for later delta refreshes. Every request reduces
  /// to passes over the unchanged compiled plans (see PassSpec):
  ///
  ///   - plain: one full pass at the target epoch.
  ///   - `delta_base`: refreshes the base result (of this same batch shape
  ///     under the same params) to the target epoch, propagating only the
  ///     rows appended since `delta_base->epoch`. Since every aggregate is
  ///     a SUM of products of per-relation factors, the batch is
  ///     multilinear in its relations: for changed relations
  ///     c_1 < ... < c_k,
  ///       Q(R + dR) - Q(R) = sum_i Q(R_new for c_j<c_i, dR_i,
  ///                                  R_old for c_j>c_i)
  ///     so each pass serves one relation as its appended slice, pins the
  ///     others to old/new watermarks, and its query outputs are added into
  ///     a copy of the base results (ViewMap::MergeAdd). The result equals
  ///     a full execution at the target epoch bit-for-bit on integer-exact
  ///     data; a failed (or limit-tripped) refresh leaves the base
  ///     untouched and re-refreshable.
  ///
  /// Both flavours return the same result identity (epoch, artifact
  /// signature, param fingerprint), so a refreshed result can seed a later
  /// refresh. The failpoint `engine.pass` is hit before every pass.
  ///
  /// Resource governance: `request.limits` (when enabled) bound the whole
  /// call's wall-clock and view memory. A tripped limit returns
  /// DeadlineExceeded / ResourceExhausted (message includes per-group
  /// progress), the passes unwind with zero leaked views, and the handle
  /// stays valid — a subsequent Execute with laxer limits succeeds.
  ///
  /// Errors: FailedPrecondition when the handle is stale (InvalidateCaches
  /// ran after Prepare) or, for a delta request, when a relation's target
  /// watermark is below `delta_base->epoch` (a non-append mutation without
  /// InvalidateCaches); InvalidArgument when params are unbound, the epoch
  /// tracks another relation count, or `delta_base` came from a different
  /// batch shape or parameter bindings.
  StatusOr<BatchResult> Execute(const ExecRequest& request = {}) const;

  /// Execute pinned to `epoch` (shorthand for a request with that epoch).
  StatusOr<BatchResult> ExecuteAt(const EpochSnapshot& epoch,
                                  const ParamPack& params = {}) const;

  bool valid() const { return artifact_ != nullptr; }
  /// The artifact accessors below require valid() (checked): an empty or
  /// moved-from handle has no artifact.
  const CompiledBatch& compiled() const {
    LMFAO_CHECK(valid());
    return artifact_->compiled;
  }
  const std::vector<ParamId>& required_params() const {
    LMFAO_CHECK(valid());
    return artifact_->required_params;
  }
  /// The engine options frozen at Prepare time; Execute always uses this
  /// snapshot (later Engine::mutable_options() mutations affect only
  /// future Prepares).
  const EngineOptions& options() const { return options_; }
  uint64_t signature() const {
    LMFAO_CHECK(valid());
    return artifact_->signature;
  }
  /// True when Prepare served this handle from the plan cache.
  bool from_cache() const { return from_cache_; }
  /// Compile time paid by the Prepare call that produced this handle
  /// (~0 when from_cache()).
  double compile_seconds() const { return compile_seconds_; }

 private:
  friend class Engine;

  /// One execution pass over the compiled plans: every relation is served
  /// at the extent `rows` says — except `slice_node` (when valid), which is
  /// served as its committed rows [slice_lo, slice_hi), sorted on their
  /// own. The one seam every request reduces to: a plain execution is a
  /// single pass with no slice, and each delta term slices a relation's
  /// appended rows.
  struct PassSpec {
    EpochSnapshot rows;
    RelationId slice_node = kInvalidRelation;
    size_t slice_lo = 0;
    size_t slice_hi = 0;
  };
  /// Runs one pass governed by `cancel` (which may be unarmed). Only the
  /// pass-dependent stats are filled (see ExecutionStats::AddPass).
  StatusOr<BatchResult> RunPass(const PassSpec& spec, const ParamPack& params,
                                const CancelToken& cancel) const;

  /// The driver every request goes through: a plain execution runs one
  /// pass, a delta refresh one per grown relation. Runs `passes` in order
  /// under ONE token armed from `limits`, so the deadline and budget bound
  /// the whole call rather than each pass, and hits the failpoint
  /// `engine.pass` before every pass. Each pass's query outputs are folded
  /// into `result->results` with ViewMap::MergeAdd in pass order — empty
  /// `result->results` take the first pass's maps as they are — so the
  /// per-key summation order is pass-major and deterministic.
  /// `result->stats` is rebuilt from the artifact's figures plus every pass
  /// (ExecutionStats::AddPass, fold time in merge_seconds); the caller sets
  /// total_seconds. On failure `result` is partially folded and must be
  /// discarded.
  Status RunPasses(const std::vector<PassSpec>& passes,
                   const ParamPack& params, const ExecLimits& limits,
                   BatchResult* result) const;

  /// Validates the handle and the bound params.
  Status CheckExecutable(const ParamPack& params) const;

  /// The telescoping delta terms refreshing `base` to `target`: one pass
  /// per relation that grew, in relation order. Validates that `base` has
  /// this artifact's signature and `fingerprint`, and that no relation
  /// shrank.
  StatusOr<std::vector<PassSpec>> DeltaPasses(const BatchResult& base,
                                              const EpochSnapshot& target,
                                              uint64_t fingerprint) const;

  Engine* engine_ = nullptr;
  std::shared_ptr<const CompiledArtifact> artifact_;
  EngineOptions options_;
  uint64_t generation_ = 0;
  bool from_cache_ = false;
  double compile_seconds_ = 0.0;
};

/// \brief The optimization and execution engine.
///
/// The engine borrows the catalog and join tree; both must outlive it (as
/// must every PreparedBatch handle it hands out — handles borrow the
/// engine).
///
/// Caching: sorted copies of node relations are cached across executions
/// (keyed by relation, sort order, and epoch watermark — appends extend a
/// cached snapshot by sort-and-merge of the appended slice instead of a
/// full re-sort), and compiled artifacts are cached by batch structure
/// (see Prepare) — bounded to `EngineOptions::plan_cache_capacity` shapes
/// with LRU eviction, every hit verified against the exact structural key
/// (a signature-hash collision recompiles instead of serving the wrong
/// plans). Appends through `Catalog::Append` invalidate NOTHING: handles
/// stay valid and executions read epoch snapshots. After any *non-append*
/// mutation, call `InvalidateCaches()` — it drops both caches and bumps
/// the generation counter, so outstanding PreparedBatch handles fail their
/// next Execute instead of reading stale sorted data.
///
/// `mutable_options()` semantics: options are snapshotted into the
/// PreparedBatch at Prepare time. Mutations affect only future Prepares
/// (and Evaluates, which Prepare internally); already-prepared handles
/// keep executing under their snapshot. Compile-relevant options
/// (view_generation, grouping, plan) are part of the plan-cache key, so
/// toggling them never serves a mismatched cached artifact; scheduler
/// options do not key the cache (they are execution-only) but are frozen
/// per handle.
class Engine {
 public:
  Engine(const Catalog* catalog, const JoinTree* tree,
         EngineOptions options = {});

  /// Compiles the batch through all optimization layers without executing.
  StatusOr<CompiledBatch> Compile(const QueryBatch& batch) const;

  /// Compiles the batch (or fetches the structurally equal compiled
  /// artifact from the plan cache) and returns the execute-many handle.
  StatusOr<PreparedBatch> Prepare(const QueryBatch& batch);

  /// One-shot convenience: Prepare + PreparedBatch::Execute(request). The
  /// stats record the compile this call paid.
  StatusOr<BatchResult> Evaluate(const QueryBatch& batch,
                                 const ExecRequest& request = {});

  /// Drops cached sorted relations and compiled artifacts, and bumps the
  /// generation counter: every PreparedBatch handed out so far becomes
  /// stale. Call after mutating relations. Must not run concurrently with
  /// in-flight Executes.
  void InvalidateCaches();

  /// Monotonic cache generation; PreparedBatch handles are valid only for
  /// the generation they were prepared under.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// \brief Plan-cache observability (for benches and tests).
  struct PlanCacheStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
    /// Prepares served a cached artifact that carries a JIT module.
    size_t jit_hits = 0;
    /// JIT module compilations kicked off by Prepare.
    size_t jit_compiles = 0;
    /// Modules that reached a terminal failed state (so far).
    size_t jit_failures = 0;
    /// Total compiler+link wall-clock of terminal modules still alive, ms.
    double jit_compile_ms = 0.0;
    /// Sorted-relation snapshots built for the sorted cache (a full sort
    /// or a prefix extension); a cache hit builds none.
    size_t sorted_builds = 0;
  };
  PlanCacheStats plan_cache_stats() const;

  const EngineOptions& options() const { return options_; }
  /// See the class comment for the post-Prepare mutation contract.
  EngineOptions& mutable_options() { return options_; }

 private:
  friend class PreparedBatch;

  /// Returns the node relation restricted to its first `rows` committed
  /// rows, sorted by the subsequence of `order` present in it. Snapshots
  /// are immutable, shared, and cached per (node, order, rows); extending a
  /// cached smaller epoch costs a sort of the appended slice plus one
  /// linear stable merge (bit-identical to re-sorting from scratch, see
  /// MergeSortedRelations), not a full re-sort. At most two epochs per
  /// (node, order) stay cached: the one just built and the largest other
  /// one, so an older epoch that is re-read stays cached too. Executions
  /// pin the snapshots they read, so pruning never invalidates an
  /// in-flight pass.
  StatusOr<std::shared_ptr<const Relation>> SortedRelationAt(
      RelationId node, const std::vector<AttrId>& order, size_t rows);

  /// Builds rows [lo, hi) of `node` sorted by `order`'s subsequence — the
  /// slice of one delta term. Uncached (slices are small and read once per
  /// consuming group).
  StatusOr<std::shared_ptr<const Relation>> SortedDeltaSlice(
      RelationId node, const std::vector<AttrId>& order, size_t lo,
      size_t hi);

  /// Compiles a fresh artifact (all three layers) for `batch` — the one
  /// compile pipeline behind both Compile and Prepare. The caller sets
  /// the signature before freezing the artifact const.
  StatusOr<std::shared_ptr<CompiledArtifact>> CompileArtifact(
      const QueryBatch& batch) const;

  const Catalog* catalog_;
  const JoinTree* tree_;
  EngineOptions options_;
  /// (node, sort order) -> epoch (row watermark) -> immutable sorted
  /// snapshot. Ordered by epoch so extension finds the largest cached
  /// prefix <= the requested watermark.
  std::map<std::pair<RelationId, std::vector<AttrId>>,
           std::map<size_t, std::shared_ptr<const Relation>>>
      sorted_cache_;
  /// Snapshots built into sorted_cache_ (under cache_mu_).
  size_t sorted_builds_ = 0;
  mutable std::mutex cache_mu_;

  /// Structural plan cache: signature -> (exact structural key, artifact,
  /// LRU position). The signature is a 64-bit hash of the structural key;
  /// every hit verifies the full key, so a hash collision degrades to a
  /// fresh compile instead of silently serving another shape's plans.
  /// Bounded to EngineOptions::plan_cache_capacity shapes, LRU-evicted.
  struct PlanCacheEntry {
    std::vector<uint64_t> structural_key;
    std::shared_ptr<const CompiledArtifact> artifact;
    std::list<uint64_t>::iterator lru_pos;
  };
  std::unordered_map<uint64_t, PlanCacheEntry> plan_cache_;
  /// Signatures in recency order: least-recently-used at the front.
  std::list<uint64_t> plan_lru_;
  size_t plan_cache_hits_ = 0;
  size_t plan_cache_misses_ = 0;
  /// JIT observability (under plan_mu_): kick/hit counters plus weak refs
  /// to every module this engine started, for failure/latency aggregation
  /// in plan_cache_stats() without pinning dead artifacts.
  size_t jit_hits_ = 0;
  size_t jit_compiles_ = 0;
  mutable std::vector<std::weak_ptr<JitModule>> jit_modules_;
  mutable std::mutex plan_mu_;

  /// Bumped (and the plan cache cleared) atomically under plan_mu_, so a
  /// racing Prepare can never pair the new generation with a stale cache
  /// entry.
  std::atomic<uint64_t> generation_{0};
};

}  // namespace lmfao

#endif  // LMFAO_ENGINE_ENGINE_H_

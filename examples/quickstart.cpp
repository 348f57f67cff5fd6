/// \file quickstart.cpp
/// \brief Minimal end-to-end tour of the LMFAO public API:
///   1. define a schema and load (generate) data,
///   2. build a join tree,
///   3. write a batch of group-by aggregates over the join,
///   4. Prepare the batch once — all three optimization layers run here —
///      and Execute the prepared handle (repeatably) to read results,
///   5. re-Execute a *parameterized* batch with new constants, paying no
///      recompile,
///   6. append rows through the catalog's epoch API — which invalidates
///      nothing — and refresh a held result incrementally with a delta
///      request (ExecRequest::delta_base: only the appended rows'
///      contribution is computed).
///
/// Run: ./quickstart

#include <cstdio>

#include "data/favorita.h"
#include "engine/engine.h"

using namespace lmfao;

int main() {
  // 1-2. A ready-made multi-relational database: the paper's Favorita
  // schema (Fig. 2) with synthetic data, plus its join tree.
  FavoritaOptions options;
  options.num_sales = 100000;
  auto data_or = MakeFavorita(options);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  FavoritaData& db = **data_or;
  std::printf("Database:\n%s\n", db.catalog.ToString().c_str());
  std::printf("Join tree:\n%s\n", db.tree.ToString(db.catalog).c_str());

  // 3. A small batch: total units, units by store, promo units by family.
  // The promo indicator threshold is a *parameter slot* (p0), bound at
  // execution time instead of baked into the compiled plan.
  QueryBatch batch;
  {
    Query q;
    q.name = "total_units";
    q.aggregates.push_back(Aggregate::Sum(db.units));
    batch.Add(std::move(q));
  }
  {
    Query q;
    q.name = "units_by_store";
    q.group_by = {db.store};
    q.aggregates.push_back(Aggregate::Sum(db.units));
    q.aggregates.push_back(Aggregate::Count());
    batch.Add(std::move(q));
  }
  {
    Query q;
    q.name = "promo_by_family";
    q.group_by = {db.family};
    q.aggregates.push_back(Aggregate(
        {Factor{db.promo,
                Function::IndicatorParam(FunctionKind::kIndicatorEq, 0)},
         Factor{db.units, Function::Identity()}}));
    batch.Add(std::move(q));
  }
  for (const Query& q : batch.queries()) {
    std::printf("%s;\n", q.ToString(&db.catalog).c_str());
  }

  // 4. Prepare once: view generation, multi-output grouping, and register
  // -program compilation all happen here. The engine never materializes
  // the join. The handle is immutable and can Execute concurrently.
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared_or = engine.Prepare(batch);
  if (!prepared_or.ok()) {
    std::fprintf(stderr, "%s\n", prepared_or.status().ToString().c_str());
    return 1;
  }
  PreparedBatch& prepared = *prepared_or;
  std::printf("\nprepared in %.3f ms (%d param slot%s)\n",
              prepared.compile_seconds() * 1e3,
              static_cast<int>(prepared.required_params().size()),
              prepared.required_params().size() == 1 ? "" : "s");

  // Execute with p0 = 1 (promo items).
  ParamPack params;
  params.Set(0, 1.0);
  auto result_or = prepared.Execute(params);
  if (!result_or.ok()) {
    std::fprintf(stderr, "%s\n", result_or.status().ToString().c_str());
    return 1;
  }
  BatchResult& result = *result_or;
  std::printf("executed %d queries via %d views in %d groups in %.3f ms\n",
              result.stats.num_queries, result.stats.num_views,
              result.stats.num_groups, result.stats.execute_seconds * 1e3);

  const double* total = result.results[0].data.Lookup(TupleKey());
  std::printf("\ntotal units: %.1f\n", total != nullptr ? total[0] : 0.0);
  std::printf("units by store (first 5):\n");
  int shown = 0;
  result.results[1].data.ForEach([&](const TupleKey& key, const double* p) {
    if (shown++ < 5) {
      std::printf("  store %lld: units=%.1f rows=%.0f\n",
                  static_cast<long long>(key[0]), p[0], p[1]);
    }
  });
  std::printf("promo units by family: %zu groups, %.1f units total\n",
              result.results[2].data.size(),
              result.results[2].TotalOf(0));

  // 5. Execute again with p0 = 0 (non-promo items): same compiled
  // artifact, new constants, zero recompile — the compile-once /
  // execute-many contract that CART and k-means style workloads live on.
  params.Set(0, 0.0);
  auto rerun_or = prepared.Execute(params);
  if (!rerun_or.ok()) {
    std::fprintf(stderr, "%s\n", rerun_or.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "re-executed with p0=0 in %.3f ms: %.1f non-promo units total\n",
      rerun_or->stats.execute_seconds * 1e3,
      rerun_or->results[2].TotalOf(0));

  // 6. Append-only growth: commit new sales through the epoch API (the
  // prepared handle stays valid — appends are not a structural mutation)
  // and refresh the held result with a delta pass instead of a full
  // recompute. The binding must match the base result's.
  auto append_status = db.catalog.AppendRows(
      db.sales, {{Value::Int(0), Value::Int(0), Value::Int(0),
                  Value::Double(40.0), Value::Int(0)},
                 {Value::Int(1), Value::Int(1), Value::Int(1),
                  Value::Double(2.0), Value::Int(0)}});
  if (!append_status.ok()) {
    std::fprintf(stderr, "%s\n", append_status.ToString().c_str());
    return 1;
  }
  ExecRequest refresh(params);
  refresh.delta_base = &*rerun_or;
  auto delta_or = prepared.Execute(refresh);
  if (!delta_or.ok()) {
    std::fprintf(stderr, "%s\n", delta_or.status().ToString().c_str());
    return 1;
  }
  const double* new_total = delta_or->results[0].data.Lookup(TupleKey());
  std::printf(
      "appended 2 sales rows; delta refresh (%d pass, %zu rows) in %.3f ms:"
      " total units %.1f -> %.1f\n",
      delta_or->stats.delta_passes, delta_or->stats.delta_rows,
      delta_or->stats.execute_seconds * 1e3,
      total != nullptr ? total[0] : 0.0,
      new_total != nullptr ? new_total[0] : 0.0);
  return 0;
}

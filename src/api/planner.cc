#include "api/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <sstream>

#include "api/session.h"
#include "mt/build_cache.h"
#include "mt/query_bind.h"
#include "opt/tree_shapes.h"

namespace hierdb::api {

namespace {

uint64_t MixU64(uint64_t h, uint64_t v) {
  h = mt::HashCombine(h, v);
  return h == 0 ? 1 : h;
}

/// Local id of session relation `r`, or UINT32_MAX when the query does
/// not join it.
uint32_t LocalOf(const Planned& p, RelId r) {
  auto it = std::lower_bound(p.to_global.begin(), p.to_global.end(), r);
  return it != p.to_global.end() && *it == r
             ? static_cast<uint32_t>(it - p.to_global.begin())
             : UINT32_MAX;
}

/// The one column-bounds check: `what`'s column `col` against the width
/// of relation `rel`.
Status CheckColumn(const char* what, uint32_t col, uint32_t width,
                   const std::string& rel) {
  if (col < width) return Status::OK();
  return Status::OutOfRange(std::string(what) + " column " +
                            std::to_string(col) + " >= width " +
                            std::to_string(width) + " of relation '" + rel +
                            "'");
}

/// A (rel, col) reference of a Where/GroupBy/Agg: the relation must be
/// joined, and columns of registered tables are bounds-checked here so the
/// simulated backend rejects the same typos the real ones do (catalog-only
/// relations carry no column schema — their references are checked
/// against the synthesized widths by the real bridge).
Status CheckRef(const char* what, RelId rel, uint32_t col,
                const PlanCatalog& db, const Planned& p) {
  if (LocalOf(p, rel) == UINT32_MAX) {
    return Status::InvalidArgument(
        std::string(what) + " references relation id " +
        std::to_string(rel) + ", which the query does not join");
  }
  const mt::Table* t = db.table(rel);
  if (t == nullptr) return Status::OK();
  return CheckColumn(what, col, t->width(), db.catalog.relation(rel).name);
}

// ---------------------------------------------------------------------
// Cardinality estimation over the bound pipeline plan.

/// Default FK selectivity over input cardinalities (base or estimated):
/// each join result about the larger input.
double DefaultSelectivity(double a, double b) {
  if (a <= 0 || b <= 0) return 1.0;
  return std::max(a, b) / (a * b);
}

/// Estimated rows entering the pipeline from `s`: filtered table size for
/// base relations (Planned::filter_pass), the producing chain's estimate
/// for chain sources.
double SourceEst(const Planned& p, const std::vector<double>& chain_est,
                 const mt::Source& s) {
  if (s.kind == mt::Source::Kind::kTable) {
    const double pass =
        s.index < p.filter_pass.size() ? p.filter_pass[s.index] : 1.0;
    return static_cast<double>(p.tables[s.index]->rows()) * pass;
  }
  return s.index < chain_est.size() ? chain_est[s.index] : 0.0;
}

/// The estimated output cardinality of every chain, in chain order.
std::vector<double> EstimateChainRows(const Planned& p) {
  std::vector<double> est;
  for (const mt::Chain& chain : p.mtplan.chains) {
    double e = SourceEst(p, est, chain.input);
    for (const mt::JoinStep& j : chain.joins) {
      double b = SourceEst(p, est, j.build);
      e = e * b * DefaultSelectivity(e, b);
    }
    est.push_back(e);
  }
  return est;
}

std::string SourceName(const catalog::Catalog& cat, const mt::Source& s) {
  if (s.kind == mt::Source::Kind::kTable) return cat.relation(s.index).name;
  return "chain" + std::to_string(s.index);
}

}  // namespace

RelId PlanCatalog::AddRelation(std::string name, uint64_t cardinality,
                               uint32_t tuple_bytes) {
  RelId id = catalog.AddRelation(std::move(name), cardinality, tuple_bytes);
  tables.emplace_back();
  return id;
}

RelId PlanCatalog::AddTable(mt::Table table) {
  RelId id = catalog.AddRelation(
      table.name, table.rows(),
      table.width() * static_cast<uint32_t>(sizeof(int64_t)));
  TableSlot slot;
  // Hashed once at registration (one linear pass, amortized over every
  // query that may later share this table's builds through the cache).
  slot.content_hash = mt::TableContentHash(table.batch);
  // Per-column min/max + KMV distinct sketches: one more linear pass,
  // feeding the planner's always-true/always-false predicate folds.
  slot.stats = mt::ComputeColumnStats(table.batch);
  slot.table = std::move(table);
  tables.push_back(std::move(slot));
  return id;
}

const mt::Table* PlanCatalog::table(RelId id) const {
  if (id >= tables.size() || !tables[id].table.has_value()) return nullptr;
  return &*tables[id].table;
}

const std::vector<mt::ColumnStats>* PlanCatalog::stats(RelId id) const {
  return table(id) != nullptr ? &tables[id].stats : nullptr;
}

Status LocalizeQuery(const Query& q, const ExecOptions& opts,
                     const PlanCatalog& db, Planned* out) {
  const Query::Spec& qs = q.spec();
  if (qs.edges.empty() && qs.steps.empty()) {
    return Status::InvalidArgument("query has no joins");
  }
  if (qs.chain && !qs.edges.empty()) {
    return Status::InvalidArgument(
        "query mixes chain form (Scan/Probe) and graph form (Join)");
  }
  if (qs.chain && !qs.has_input) {
    return Status::InvalidArgument("chain query has no Scan()");
  }
  if (!qs.captures.empty()) {
    // Plan-point capture samples real rows at chain positions; the graph
    // form has no builder-order plan points and the simulator no rows.
    if (!qs.chain) {
      return Status::InvalidArgument(
          "CapturePoint requires the chain form (Scan/Probe)");
    }
    if (opts.backend == Backend::kSimulated) {
      return Status::InvalidArgument(
          "the simulated backend has no rows to capture (use "
          "Backend::kThreads or Backend::kCluster)");
    }
    for (const auto& cs : qs.captures) {
      out->captures.push_back({cs.name, 0, cs.point});
    }
  }

  // Collect the referenced relations and build the dense local catalog.
  std::vector<RelId> rels;
  if (qs.chain) rels.push_back(qs.input);
  for (const auto& s : qs.steps) rels.push_back(s.build);
  for (const auto& e : qs.edges) rels.insert(rels.end(), {e.a, e.b});
  std::sort(rels.begin(), rels.end());
  auto unknown = std::lower_bound(rels.begin(), rels.end(), db.catalog.size());
  if (unknown != rels.end()) {
    return Status::InvalidArgument("query references unknown relation id " +
                                   std::to_string(*unknown));
  }
  if (qs.chain) {
    // A relation scanned or probed twice would duplicate its leaf bit in
    // the join tree and break every RelSet invariant downstream; reject
    // it by name (self-joins need table aliases, which are unsupported).
    auto dup = std::adjacent_find(rels.begin(), rels.end());
    if (dup != rels.end()) {
      return Status::InvalidArgument(
          "relation '" + db.catalog.relation(*dup).name +
          "' appears more than once in the chain; self-joins are "
          "unsupported (register the table twice to alias it)");
    }
  }
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  if (rels.size() > 64) {
    return Status::InvalidArgument("queries support at most 64 relations");
  }
  for (RelId r : rels) {
    const auto& rel = db.catalog.relation(r);
    out->cat.AddRelation(rel.name, rel.cardinality, rel.tuple_bytes);
  }
  out->to_global = std::move(rels);
  return Status::OK();
}

Status FoldFilters(const Query& q, const PlanCatalog& db, Planned* out) {
  // Map the (rel, col) predicates onto local table indexes and estimate
  // per-relation pass fractions so the optimizer, the SCF admission cost
  // and the simulator all price filtered scans.
  const size_t n = out->to_global.size();
  out->filters.assign(n, {});
  out->filter_sel.assign(n, 1.0);
  // Registered tables carry per-column [min, max] stats (AddTable), which
  // fold predicates before any row is scanned: an always-true predicate is
  // dropped outright, and an always-false one replaces the relation's
  // whole conjunction — one impossible compare rejects every row with no
  // further predicate evaluation. Semantics-preserving.
  std::vector<char> always_false(n, 0);
  for (const auto& f : q.spec().filters) {
    HIERDB_RETURN_NOT_OK(CheckRef("Where", f.rel, f.col, db, *out));
    const uint32_t lrel = LocalOf(*out, f.rel);
    if (always_false[lrel]) continue;
    const mt::Predicate pred{f.col, f.cmp, f.value};
    const std::vector<mt::ColumnStats>* stats = db.stats(f.rel);
    const bool statted = stats != nullptr && f.col < stats->size() &&
                         db.table(f.rel)->rows() > 0;
    if (statted) {
      switch (mt::ClassifyPredicate(pred, (*stats)[f.col])) {
        case mt::PredicateFold::kAlwaysTrue:
          continue;  // cannot reject any row: drop it
        case mt::PredicateFold::kAlwaysFalse:
          always_false[lrel] = 1;
          out->filters[lrel].assign(1, pred);
          out->filter_sel[lrel] = 1e-4;
          continue;
        case mt::PredicateFold::kKeep:
          break;
      }
    }
    out->filters[lrel].push_back(pred);
    // Pass fraction: the KMV distinct counts and [min, max] envelopes
    // from AddTable price the predicate against the actual data
    // distribution; the System R constants (1/10 equality, 1/3 range,
    // 9/10 inequality) remain the fallback for catalog-only relations.
    double s;
    if (statted) {
      s = mt::EstimateSelectivity(pred, (*stats)[f.col]);
    } else {
      s = f.cmp == CmpOp::kEq ? 0.1
          : f.cmp == CmpOp::kNe ? 0.9
                                : 1.0 / 3.0;
    }
    out->filter_sel[lrel] = std::max(1e-4, out->filter_sel[lrel] * s);
  }
  out->filter_pass = out->filter_sel;
  return Status::OK();
}

Status ResolveAggregation(const Query& q, const PlanCatalog& db,
                          Planned* out) {
  const Query::Spec& qs = q.spec();
  out->has_agg = q.has_agg();
  for (const auto& g : qs.group_by) {
    HIERDB_RETURN_NOT_OK(CheckRef("GroupBy", g.rel, g.col, db, *out));
  }
  for (const auto& a : qs.agg_items) {
    if (a.has_col) {
      HIERDB_RETURN_NOT_OK(CheckRef("Agg", a.rel, a.col, db, *out));
    }
  }
  // HAVING resolves against the declared grouping/aggregate items: the
  // output row is [group values..., aggregates...], so a matched GroupBy
  // is its index and a matched Agg is group count + its index. Resolved
  // here (not in the real-data bridge) so the simulated backend rejects
  // the same mistakes the real ones do.
  for (const auto& h : qs.having) {
    if (!out->has_agg) {
      return Status::InvalidArgument(
          "Having requires a GroupBy/Agg query (it filters aggregate "
          "output rows)");
    }
    const auto& aggs = qs.agg_items;
    const auto& groups = qs.group_by;
    uint32_t slot = 0;
    if (h.on_agg) {
      auto it = std::find_if(aggs.begin(), aggs.end(), [&](const auto& a) {
        return a.fn == h.fn && a.has_col == h.has_col &&
               (!a.has_col || (a.rel == h.rel && a.col == h.col));
      });
      if (it == aggs.end()) {
        return Status::InvalidArgument(
            std::string("Having references aggregate ") + AggFnName(h.fn) +
            (h.has_col ? "(col)" : "(*)") +
            ", which no Agg()/Count() call declares");
      }
      slot = static_cast<uint32_t>(groups.size() + (it - aggs.begin()));
    } else {
      auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
        return g.rel == h.rel && g.col == h.col;
      });
      if (it == groups.end()) {
        return Status::InvalidArgument(
            "Having references a grouping column that no GroupBy() call "
            "declares");
      }
      slot = static_cast<uint32_t>(it - groups.begin());
    }
    out->having.push_back({slot, h.cmp, h.value});
  }
  return Status::OK();
}

Status ChooseTree(const Query& q, const PlanCatalog& db, Planned* out) {
  const Query::Spec& qs = q.spec();
  auto local = [&](RelId r) { return LocalOf(*out, r); };
  // Planning catalog with filter-adjusted cardinality estimates: the tree
  // choice, edge-selectivity defaults and plan cost see the filters, while
  // synthesis and the simulator's scan inputs keep the true catalog.
  catalog::Catalog fcat;
  for (uint32_t l = 0; l < out->to_global.size(); ++l) {
    const auto& rel = db.catalog.relation(out->to_global[l]);
    uint64_t est = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(
               static_cast<double>(rel.cardinality) * out->filter_sel[l])));
    fcat.AddRelation(rel.name, est, rel.tuple_bytes);
  }
  auto card = [&](RelId r) {
    return static_cast<double>(fcat.relation(local(r)).cardinality);
  };

  // Predicate graph over the local relations.
  std::vector<plan::JoinEdge> edges;
  if (qs.chain) {
    // Map each probe_col back to the relation whose columns occupy that
    // position of the pipelined row (input columns first, then each
    // build's columns appended in step order), so snowflake chains — a
    // probe on a previous build's column — model the right edge.
    // Catalog-only relations have unknown widths and fall back to the
    // driving input.
    std::vector<RelId> owner;  ///< pipelined-row column -> its relation
    auto append = [&](RelId r) {
      const mt::Table* t = db.table(r);
      if (t != nullptr) owner.insert(owner.end(), t->width(), r);
    };
    append(qs.input);
    for (const auto& s : qs.steps) {
      const RelId probe_rel =
          s.probe_col < owner.size() ? owner[s.probe_col] : qs.input;
      double sel = s.selectivity > 0
                       ? s.selectivity
                       : DefaultSelectivity(card(probe_rel), card(s.build));
      edges.push_back({local(probe_rel), local(s.build), sel});
      append(s.build);
    }
  } else {
    for (const auto& e : qs.edges) {
      double sel = e.selectivity > 0
                       ? e.selectivity
                       : DefaultSelectivity(card(e.a), card(e.b));
      edges.push_back({local(e.a), local(e.b), sel});
    }
  }
  out->graph = plan::JoinGraph(static_cast<uint32_t>(out->to_global.size()),
                               edges);
  // With duplicate chain relations rejected by LocalizeQuery, both query
  // forms build acyclic connected predicate graphs and share one
  // validation.
  HIERDB_RETURN_NOT_OK(out->graph.Validate());

  // Choose the join tree: explicit > chain spine > shaped optimization.
  if (qs.tree.has_value()) {
    // Remap the caller's tree (session rel ids) onto local ids.
    plan::JoinTree tree = *qs.tree;
    if (tree.root < 0 ||
        static_cast<size_t>(tree.root) >= tree.nodes.size()) {
      return Status::InvalidArgument("explicit tree is empty or malformed");
    }
    for (auto& node : tree.nodes) {
      if (node.IsLeaf()) {
        node.rel = local(node.rel);
        if (node.rel == UINT32_MAX) {
          return Status::InvalidArgument(
              "explicit tree references a relation outside the join graph");
        }
        node.rels = plan::RelBit(node.rel);
      } else if (node.left < 0 || node.right < 0 ||
                 static_cast<size_t>(node.left) >= tree.nodes.size() ||
                 static_cast<size_t>(node.right) >= tree.nodes.size()) {
        return Status::InvalidArgument(
            "explicit tree has a child index out of range");
      }
    }
    // Recompute subtree relation sets bottom-up (children precede parents
    // is not guaranteed, so walk from the root). A node reached twice
    // means the "tree" shares nodes or contains a cycle.
    std::vector<char> seen(tree.nodes.size(), 0);
    std::function<bool(int32_t)> rebuild = [&](int32_t idx) {
      if (seen[idx]++) return false;
      plan::JoinTreeNode& node = tree.nodes[idx];
      if (node.IsLeaf()) return true;
      if (!rebuild(node.left) || !rebuild(node.right)) return false;
      node.rels = tree.nodes[node.left].rels | tree.nodes[node.right].rels;
      return true;
    };
    if (!rebuild(tree.root)) {
      return Status::InvalidArgument(
          "explicit tree shares nodes or contains a cycle");
    }
    out->tree = std::move(tree);
  } else if (qs.chain) {
    // Left-deep spine with the builds as right children: macro-expansion
    // with build_on_right_child keeps it one maximal pipeline chain.
    plan::JoinTree tree;
    auto add_leaf = [&](RelId r) {
      return tree.AddLeaf(local(r), card(r));
    };
    int32_t cur = add_leaf(qs.input);
    for (size_t i = 0; i < qs.steps.size(); ++i) {
      const int32_t leaf = add_leaf(qs.steps[i].build);
      const double c = tree.nodes[cur].card * tree.nodes[leaf].card *
                       edges[i].selectivity;
      cur = tree.AddJoin(cur, leaf, c);
      tree.cost += c;
    }
    out->tree = std::move(tree);
  } else {
    out->tree = opt::ShapedBest(out->graph, fcat, qs.shape);
  }

  // Estimated result cardinality and group count: prices the aggregation
  // for the simulator's AggPartial/AggMerge ops and the admission cost.
  // When every grouping column carries distinct-count statistics (KMV
  // sketches from AddTable) the group count is bounded by the product of
  // per-column distincts capped at the output cardinality; the
  // sqrt-of-output default covers unstatted columns.
  const double root_card =
      std::max(0.0, out->tree.nodes[out->tree.root].card);
  if (out->has_agg) {
    if (qs.group_by.empty()) {
      out->est_groups = 1.0;
    } else {
      double distinct_prod = 1.0;
      bool all_stats = true;
      for (const auto& g : qs.group_by) {
        const std::vector<mt::ColumnStats>* st = db.stats(g.rel);
        if (st == nullptr || g.col >= st->size()) {
          all_stats = false;
          break;
        }
        distinct_prod *= static_cast<double>(
            std::max<uint64_t>((*st)[g.col].distinct_est, 1));
      }
      out->est_groups =
          all_stats
              ? std::max(1.0, std::min(std::max(root_card, 1.0),
                                       distinct_prod))
              : std::max(1.0, std::sqrt(root_card));
    }
  }
  out->plan_cost =
      out->tree.cost + (out->has_agg ? root_card + out->est_groups : 0.0);
  return Status::OK();
}

Status PlanLogical(const Query& q, const ExecOptions& opts,
                   const PlanCatalog& db, Planned* out) {
  HIERDB_RETURN_NOT_OK(LocalizeQuery(q, opts, db, out));
  HIERDB_RETURN_NOT_OK(FoldFilters(q, db, out));
  HIERDB_RETURN_NOT_OK(ResolveAggregation(q, db, out));
  return ChooseTree(q, db, out);
}

Status BridgeSimulated(const Query& q, const ExecOptions& opts,
                       Planned* out) {
  const Query::Spec& qs = q.spec();
  plan::ExpandOptions eo;
  eo.apply_h1 = opts.apply_h1;
  eo.serialize_chains = opts.apply_h2;
  eo.scan_filter_sel = out->filter_sel;  // indexed by local rel id
  eo.aggregate = out->has_agg;
  eo.agg_groups_est = out->est_groups;
  // Chain queries and explicitly shape-constrained trees build on the
  // right child so the macro-expansion preserves the requested pipeline
  // structure (right-deep => one maximal chain, left-deep => blocking
  // ladder); an explicit Shape(kBushy) gets the same treatment so shape
  // comparisons share one expansion convention.
  eo.build_on_right_child =
      qs.chain || (!qs.tree.has_value() && qs.shape_set);
  out->pplan = plan::MacroExpand(out->tree, out->cat, eo);
  return out->pplan.Validate();
}

Status BridgeReal(const Query& q, const ExecOptions& opts,
                  const PlanCatalog& db, Planned* out) {
  const Query::Spec& qs = q.spec();
  // Build-cache identities are consumed by both real backends (RunReal
  // wires the cache, and kCluster's placement memo keys on them); with
  // reuse off, or on the simulator, planning skips even the cheap id
  // copies and, for synthesized tables, the O(rows) content hashing.
  const bool want_cache =
      opts.reuse_builds && opts.backend != Backend::kSimulated;
  // Chain queries execute the registered rows verbatim. Graph-form
  // queries run on registered tables when every edge carries explicit
  // join columns and every relation has data; otherwise they synthesize
  // tables that track the catalog cardinalities (paper methodology).
  bool registered = true;
  std::string missing;
  for (RelId r : out->to_global) {
    if (db.table(r) == nullptr) missing = db.catalog.relation(r).name;
  }
  for (const auto& e : qs.edges) registered = registered && e.has_cols;
  registered = registered && missing.empty();
  if (qs.chain && !missing.empty()) {
    out->real_gap = "relation '" + missing +
                    "' has no registered data (chain queries run on real "
                    "tables; use Session::AddTable)";
    return Status::OK();
  }
  std::vector<std::vector<mt::Predicate>> filters = out->filters;
  if (registered) {
    for (RelId r : out->to_global) {
      out->tables.push_back(db.table(r));
      if (want_cache) out->cache_ids.push_back(db.tables[r].content_hash);
    }
  }
  if (qs.chain) {
    mt::Chain chain;
    chain.input = mt::Source::OfTable(LocalOf(*out, qs.input));
    for (const auto& s : qs.steps) {
      chain.joins.push_back(
          {mt::Source::OfTable(LocalOf(*out, s.build)), s.probe_col,
           s.build_col});
    }
    out->mtplan.chains.push_back(std::move(chain));
  } else if (registered) {
    std::vector<mt::EdgeColumns> cols;
    for (const auto& e : qs.edges) cols.push_back({e.col_a, e.col_b});
    auto plan =
        mt::TranslateJoinTree(out->tree, out->graph, out->tables, cols);
    HIERDB_RETURN_NOT_OK(plan.status());
    out->mtplan = std::move(plan).value();
  } else {
    mt::BindOptions bo;
    bo.scale = opts.bind_scale;
    bo.seed = opts.seed;
    bo.min_rows = opts.bind_min_rows;
    bo.skew_theta = opts.skew_theta;
    auto bound = mt::BindJoinTree(out->tree, out->graph, out->cat, bo);
    HIERDB_RETURN_NOT_OK(bound.status());
    out->owned = std::move(bound.value().tables);
    // Filter pushdown into the synthesized bind: Where predicates on
    // these relations evaluate once here, so the executors scan
    // pre-filtered tables instead of re-testing every row (the bound
    // tables are this query's private copies — registered tables are
    // never touched). The planning catalog keeps pricing the unfiltered
    // cardinalities; filter_pass flips to 1.0 because the scanned tables
    // themselves already shrank.
    for (uint32_t l = 0; l < filters.size(); ++l) {
      if (filters[l].empty()) continue;
      mt::Batch& b = out->owned[l].batch;
      for (const mt::Predicate& pr : filters[l]) {
        HIERDB_RETURN_NOT_OK(CheckColumn(
            "Where", pr.col, b.width(),
            db.catalog.relation(out->to_global[l]).name));
      }
      mt::Batch kept(b.width());
      for (size_t r = 0; r < b.rows(); ++r) {
        if (mt::MatchesAll(filters[l], b.row(r))) kept.AppendRow(b.row(r));
      }
      out->prefiltered_rows += b.rows() - kept.rows();
      b = std::move(kept);
      filters[l].clear();
      out->filter_pass[l] = 1.0;
    }
    // Synthesized tables are cacheable on their contents plus the
    // synthesis identity: two queries share a build only when the data
    // really is byte-identical and was drawn under the same seed/skew/
    // bind parameters (the key's "seed, skew" component). The per-query
    // O(rows) hashing of synthesized tables is skipped when reuse is off
    // (registered tables were hashed once at AddTable).
    if (want_cache) {
      uint64_t seed_skew = MixU64(0xA24BAED4963EE407ULL, opts.seed);
      seed_skew =
          MixU64(seed_skew, std::bit_cast<uint64_t>(opts.skew_theta));
      seed_skew =
          MixU64(seed_skew, std::bit_cast<uint64_t>(opts.bind_scale));
      seed_skew = MixU64(seed_skew, opts.bind_min_rows);
      out->cache_seed_skew = seed_skew;
      for (const auto& t : out->owned) {
        out->cache_ids.push_back(mt::TableContentHash(t.batch));
      }
    }
    for (const auto& t : out->owned) out->tables.push_back(&t);
    out->mtplan = std::move(bound.value().plan);
  }

  // Attach the filters and the aggregation spec to the finished pipeline
  // plan: table indexes equal local rel ids in every bridge path, and the
  // (rel, col) references resolve to offsets in the final chain's output
  // row via the plan's layout. The structural validation then
  // bounds-checks filter/agg columns against the bound tables.
  out->mtplan.table_filters = std::move(filters);
  if (out->has_agg) {
    std::vector<uint32_t> widths;
    widths.reserve(out->tables.size());
    for (const mt::Table* t : out->tables) widths.push_back(t->width());
    std::vector<uint32_t> offsets = out->mtplan.FinalLayout(widths);
    auto resolve = [&](RelId rel, uint32_t col, const char* what,
                       uint32_t* slot) -> Status {
      uint32_t l = LocalOf(*out, rel);
      if (offsets[l] == UINT32_MAX) {
        return Status::Internal("relation missing from the final output");
      }
      HIERDB_RETURN_NOT_OK(CheckColumn(what, col, widths[l],
                                       db.catalog.relation(rel).name));
      *slot = offsets[l] + col;
      return Status::OK();
    };
    mt::AggSpec spec;
    for (const auto& g : qs.group_by) {
      uint32_t slot = 0;
      HIERDB_RETURN_NOT_OK(resolve(g.rel, g.col, "GroupBy", &slot));
      spec.group_cols.push_back(slot);
    }
    for (const auto& a : qs.agg_items) {
      uint32_t slot = 0;
      if (a.has_col) {
        HIERDB_RETURN_NOT_OK(resolve(a.rel, a.col, "Agg", &slot));
      }
      spec.aggs.push_back({a.fn, slot});
    }
    spec.having = out->having;
    out->mtplan.agg = std::move(spec);
  }
  HIERDB_RETURN_NOT_OK(out->mtplan.Validate(out->tables));
  out->has_real = true;
  out->chain_est = EstimateChainRows(*out);
  return Status::OK();
}

std::string ExplainText(const Query& q, const ExecOptions& opts,
                        const Planned& p) {
  std::ostringstream os;
  os << "query: " << p.cat.size() << " relations, " << p.tree.num_joins()
     << " joins (" << (q.is_chain() ? "chain" : "graph") << " form)";
  const size_t filters = q.spec().filters.size();
  if (filters > 0) os << ", " << filters << " filters";
  if (p.has_agg) os << ", aggregated";
  os << "\n";
  os << "backend: " << BackendName(opts.backend) << ", strategy "
     << StrategyName(opts.strategy) << ", machine " << opts.nodes << "x"
     << opts.threads_per_node << "\n\n";
  os << "join tree (cost " << p.tree.cost << "):\n"
     << p.tree.ToString(p.cat) << "\n";
  os << "parallel execution plan (simulated backend):\n"
     << p.pplan.ToString() << "\n";
  os << "pipeline plan (threads/cluster backends):\n";
  if (p.has_real) {
    os << p.mtplan.ToString();
    if (opts.backend == Backend::kCluster && p.mtplan.chains.size() > 1) {
      os << "cluster note: all " << p.mtplan.chains.size()
         << " chains execute distributed ("
         << (opts.apply_h2 ? "back-to-back" : "concurrent where independent")
         << "); intermediates stay on their producing nodes and repartition "
            "to the consuming join via tuple-batch shipping\n";
    }
  } else {
    os << "unavailable: " << p.real_gap << "\n";
  }
  return os.str();
}

std::vector<obs::ChainCard> ChainCards(const Planned& p,
                                       const std::vector<uint64_t>* actual,
                                       const std::vector<bool>* reused) {
  std::vector<obs::ChainCard> cards;
  for (uint32_t c = 0; c < p.chain_est.size(); ++c) {
    obs::ChainCard card;
    card.chain = c;
    card.est_rows = p.chain_est[c];
    const bool elided =
        reused != nullptr && c < reused->size() && (*reused)[c];
    if (actual != nullptr && c < actual->size() && !elided) {
      card.actual_rows = (*actual)[c];
      card.has_actual = true;
    }
    cards.push_back(card);
  }
  return cards;
}

std::vector<obs::TraceOp> RealTraceOps(const Planned& p,
                                       const std::vector<uint64_t>& actual,
                                       bool cluster) {
  const mt::PipelinePlan& plan = p.mtplan;
  std::vector<obs::TraceOp> ops;
  std::vector<uint32_t> terminal;  ///< per chain: its last dataflow op
  uint32_t base = 0;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    const mt::Chain& chain = plan.chains[c];
    const uint32_t k = static_cast<uint32_t>(chain.joins.size());
    // The compiled op space (mt/node_engine.h): buildscans, builds, scan,
    // probes.
    for (uint32_t layer = 0; layer < 2; ++layer) {
      for (uint32_t j = 0; j < k; ++j) {
        const mt::Source& src = chain.joins[j].build;
        obs::TraceOp op;
        op.id = base + layer * k + j;
        op.kind = layer == 0 ? "buildscan" : "build";
        op.label = op.kind + " " + SourceName(p.cat, src);
        op.chain = static_cast<int32_t>(c);
        op.est_rows = SourceEst(p, p.chain_est, src);
        if (layer > 0) {
          op.inputs.push_back(base + j);
        } else if (src.kind == mt::Source::Kind::kChain) {
          op.inputs.push_back(terminal[src.index]);
        }
        ops.push_back(std::move(op));
      }
    }
    const uint32_t builds = base + k;
    obs::TraceOp scan;
    scan.id = base + 2 * k;
    scan.kind = "scan";
    scan.label = "scan " + SourceName(p.cat, chain.input);
    scan.chain = static_cast<int32_t>(c);
    scan.est_rows = SourceEst(p, p.chain_est, chain.input);
    if (chain.input.kind == mt::Source::Kind::kChain) {
      scan.inputs.push_back(terminal[chain.input.index]);
    }
    double e = scan.est_rows;
    uint32_t prev = scan.id;
    ops.push_back(std::move(scan));
    for (uint32_t j = 0; j < k; ++j) {
      obs::TraceOp op;
      op.id = prev + 1;
      op.kind = "probe";
      op.label = "probe " + SourceName(p.cat, chain.joins[j].build);
      op.chain = static_cast<int32_t>(c);
      double b = SourceEst(p, p.chain_est, chain.joins[j].build);
      e = e * b * DefaultSelectivity(e, b);
      op.est_rows = e;
      op.inputs = {prev, builds + j};
      prev = op.id;
      ops.push_back(std::move(op));
    }
    terminal.push_back(prev);
    if (c < actual.size()) ops[prev].actual_rows = actual[c];
    base = prev + 1;
  }
  if (cluster && plan.agg.has_value()) {
    obs::TraceOp op;
    op.id = base;  // the executor's agg-phase sentinel (== compiled ops)
    op.kind = "agg";
    op.label = "aggregate";
    op.est_rows = plan.agg->group_cols.empty()
                      ? 1.0
                      : std::max(1.0, std::sqrt(p.chain_est.empty()
                                                    ? 0.0
                                                    : p.chain_est.back()));
    if (!terminal.empty()) op.inputs.push_back(terminal.back());
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<obs::TraceOp> SimTraceOps(const plan::PhysicalPlan& pplan) {
  std::vector<obs::TraceOp> ops;
  for (const plan::Operator& op : pplan.ops) {
    obs::TraceOp o;
    o.id = op.id;
    o.label = op.label;
    switch (op.kind) {
      case plan::OpKind::kScan: o.kind = "scan"; break;
      case plan::OpKind::kBuild: o.kind = "build"; break;
      case plan::OpKind::kProbe: o.kind = "probe"; break;
      case plan::OpKind::kAggPartial:
      case plan::OpKind::kAggMerge: o.kind = "agg"; break;
    }
    o.chain = static_cast<int32_t>(op.chain);
    o.est_rows =
        op.kind == plan::OpKind::kBuild ? op.input_card : op.output_card;
    if (op.input != plan::kNoOp) o.inputs.push_back(op.input);
    if (op.build_op != plan::kNoOp) o.inputs.push_back(op.build_op);
    ops.push_back(std::move(o));
  }
  return ops;
}

}  // namespace hierdb::api
